PYTHON ?= python
export PYTHONPATH := src

# Line-coverage floor enforced by `make coverage` (and thus `make check`).
# Measured 94.3% on 2026-08-07; the floor leaves slack for legitimate
# hard-to-reach lines, not for untested subsystems.
COV_FLOOR ?= 94

.PHONY: test test-fast pins test-policy test-dist test-serve bench bench-kernel bench-grid profile-kernel coverage report-check check

test:
	$(PYTHON) -m pytest -x -q

# Quick inner-loop run: skips the hypothesis-heavy property suites
# (marker `hypothesis_heavy`), which dominate full-suite wall time.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not hypothesis_heavy"

# Record-preservation loop for refactors: the golden fixtures, the
# protocol-vs-trampoline equivalence tests and the read-routing pins.
pins:
	$(PYTHON) -m pytest -q tests/golden tests/framework/test_fused_equivalence.py tests/core/test_read_routing.py

# Placement-policy engine suites only (marker `policy`): the unit and
# property tests plus the FIG-POLICY tournament benchmark.
test-policy:
	$(PYTHON) -m pytest tests benchmarks/test_fig_policy.py -q -m policy

# Distributed cache-tier suites only (marker `dist`): the peer-cache
# property tests plus the FIG-DIST-CACHE benchmark.
test-dist:
	$(PYTHON) -m pytest tests/distributed benchmarks/test_fig_dist_cache.py -q

# Trace-replay serving suites only (marker `serve`): the workload
# generator/replay tests plus the FIG-SERVE latency-gate benchmark.
test-serve:
	$(PYTHON) -m pytest tests benchmarks/test_fig_serve.py -q -m serve

bench:
	$(PYTHON) -m pytest benchmarks -q

# Simulator-throughput gate: fails if any probe's events/sec regresses more
# than 30% below the committed BENCH_kernel.json baseline.  After an intentional
# kernel change, refresh with: REPRO_BENCH_UPDATE=1 make bench-kernel
bench-kernel:
	$(PYTHON) -m pytest benchmarks/test_kernel_speed.py -q -s

# cProfile the kernel-speed probe cell and print the top cumulative
# functions — the first stop when bench-kernel's events/sec regresses.
# Pass --phase build to tools/profile_kernel.py to profile the scenario
# build (dataset layout, trace generation) instead of the execution.
profile-kernel:
	$(PYTHON) tools/profile_kernel.py

# Parallel-grid gate: times a 7-run FIG3 grid serial vs --jobs $(nproc)
# vs warm-cache.  Warm cache must come in under 10% of uncached; the
# 2.5x pool-speedup gate applies on >= 4 cores; serial runs/sec must
# stay within 20% of the committed BENCH_grid.json baseline.  Refresh
# after an intentional change with: REPRO_BENCH_UPDATE=1 make bench-grid
bench-grid:
	$(PYTHON) -m pytest benchmarks/test_grid_speed.py -q -s

# Runs the tier-1 suite under a line tracer (coverage.py when installed,
# a stdlib sys.settrace fallback otherwise) and fails below COV_FLOOR.
# Expect a traced run to take several times longer than `make test`.
coverage:
	$(PYTHON) tools/coverage_gate.py --quiet --fail-under $(COV_FLOOR)

# RunReport determinism gate: a tiny seeded scenario exported twice must
# produce byte-identical JSON (the contract behind `repro report`).
report-check:
	$(PYTHON) tools/report_check.py

check: test coverage report-check
