"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-lustre --seed 0 --seconds 25 --trace 0

Cells (one repetition of the workload each, see ``workloads.py``) run back
to back, closed loop, in this one process and thread, until the next cell
would overrun ``--seconds``.  Every cell uses the workload seed, so every
cell must reproduce the same simulated digest.

``--trace 0`` prints the end-to-end metrics: the median host wall and
set-up time per cell, at the reference host speed (see :class:`Run`), and
the process's peak resident memory.
``--trace 1`` first runs untraced cells (for the counters, the digest and
the overhead baseline), then installs the span tracer and runs traced
cells; it prints the per-layer metrics and writes the spans to
``perfbench/out/``.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: share of a traced run spent on untraced baseline cells
UNTRACED_SHARE = 0.3

#: nominal duration of one :class:`Reference` run: host times are reported in
#: seconds at the machine speed where the loop takes this long (about its
#: time in the fast phases of the 2-vCPU Xeon VM the baseline was taken on)
REFERENCE_S = 0.06


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


class _RefItem:
    __slots__ = ("key", "weight", "last")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.last = 0


class Reference:
    """A fixed pure-Python task with the simulator's instruction mix.

    Random attribute and dict access over a ~5 MB working set, generator
    resumes, heap pushes and pops — the operations the event kernel, the
    pipeline and the storage models spend their time on — but none of the
    simulator's code, so a change to the simulator cannot move it.  On a
    shared host the CPU speed drifts by tens of percent over seconds to
    minutes; timing this task beside each timed phase measures that drift.
    The working set lies beyond the core's caches because a cache-resident
    loop slows down more than the simulator does when a neighbour contends
    for the core.  It is allocated once, so the timing does not depend on
    the state of the allocator the simulator leaves behind.
    """

    def __init__(self, size: int = 50_000) -> None:
        self.items = [_RefItem(i, float(i)) for i in range(size)]
        self.index = {i: self.items[i] for i in range(0, size, 3)}

    def __call__(self, n: int = 30_000) -> float:
        """Run the task once; returns its host seconds."""
        def proc(k: int):
            acc = 0
            for i in range(k):
                acc += yield i
            return acc

        items, index, size = self.items, self.index, len(self.items)
        t0 = time.perf_counter()
        gens = [proc(50) for _ in range(64)]
        for g in gens:
            next(g)
        heap: list = []
        x = 12345
        total = 0.0
        for i in range(n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            item = items[x % size]
            total += item.weight
            item.last = i
            index.get(x % size)
            slot = i & 63
            try:
                gens[slot].send(i)
            except StopIteration:
                gens[slot] = proc(50)
                next(gens[slot])
            heapq.heappush(heap, (x & 1023, i))
            if len(heap) > 256:
                heapq.heappop(heap)
        return time.perf_counter() - t0


class Run:
    """Cells run back to back, every timed phase bracketed by the reference task."""

    def __init__(self) -> None:
        self.cells: list = []
        self.raw: list[float] = []
        self.speeds: list[float] = []
        self.reference = Reference()
        gc.collect()
        self._last_ref = self.reference()

    def timed(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), host seconds at the reference speed)``.

        The host's speed during the call is taken as the mean of the
        reference timings just before and just after it; the speed state
        of a shared host persists over about a second, so this bracket
        tracks it far better than a run-wide average.  A full collection
        after each phase, untimed, starts every phase from the same
        garbage-collector state, so a collection the previous phase left
        pending does not land in whichever phase happens to come next.
        """
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        gc.collect()
        ref = self.reference()
        speed = REFERENCE_S / ((self._last_ref + ref) / 2)
        self._last_ref = ref
        self.raw.append(seconds)
        self.speeds.append(speed)
        return out, seconds * speed

    def median(self, attr: str) -> float:
        return statistics.median(getattr(c, attr) for c in self.cells)


def _run_cells(run_cell, seed: int, deadline: float) -> Run:
    """Run cells until the next one (at the median pace) would pass ``deadline``."""
    run = Run()
    spent: list[float] = []
    while True:
        t0 = time.perf_counter()
        run.cells.append(run_cell(seed, run.timed))
        spent.append(time.perf_counter() - t0)
        if time.perf_counter() + statistics.median(spent) > deadline:
            return run


def _check(cells: list, problems: list[str]) -> tuple[int, int]:
    """Fold cell checks and digest agreement into (attempted, failed)."""
    attempted = failed = 0
    first = cells[0].digest
    for i, c in enumerate(cells):
        attempted += c.attempted
        bad = list(c.problems)
        if c.digest != first:
            bad.append(f"digest {c.digest[:12]} differs from cell 0's {first[:12]}")
        if bad:
            failed += c.attempted
            problems.extend(f"cell {i}: {p}" for p in bad)
    return attempted, failed


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        _fail(f"no simulator sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import SCALES, WORKLOAD_CELLS

    if args.workload not in WORKLOAD_CELLS:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOAD_CELLS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    run_cell = WORKLOAD_CELLS[args.workload]
    start = time.perf_counter()
    deadline = start + args.seconds
    problems: list[str] = []

    if args.trace == 0:
        run = _run_cells(run_cell, args.seed, deadline)
        cells = run.cells
        attempted, failed = _check(cells, problems)
        metrics = {
            "wall_s": _metric(run.median("wall_s"), "s"),
            "setup_s": _metric(run.median("setup_s"), "s"),
            "peak_rss_mib": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        }
        sim = cells[0].sim
        print(f"workload {args.workload}  seed {args.seed}  scale 1/{round(1 / SCALES[args.workload])}"
              f"  cells {len(cells)}  digest {cells[0].digest[:16]}")
        for name, m in metrics.items():
            print(f"  {name:<16} {m['value']:.6g} {m['unit']}")
        print(f"  {'host speed':<16} {statistics.median(run.speeds):.3f} of reference"
              f" (raw phase seconds {sum(run.raw):.4g} over {len(run.raw)} phases)")
        print(f"  {'fail_frac':<16} {failed / attempted:.6g} ({failed} of {attempted} operations)")
        for name, unit in (("sim_err_pct", "%"), ("serve_p99_ms", "sim_ms"),
                           ("serve_max_rps", "rps")):
            if name in sim:
                extra = (f" ({sim['serve.warm_samples']} warm samples)"
                         if name == "serve_p99_ms" else "")
                print(f"  {name:<16} {sim[name]:.6g} {unit}{extra}")
    else:
        from tracer import Tracer

        table = json.loads((HERE / "layers.json").read_text())
        base = _run_cells(run_cell, args.seed, start + UNTRACED_SHARE * args.seconds)
        tracer = Tracer()
        tracer.install()

        def traced_cell(seed: int, timed):
            tracer.run_id += 1
            return run_cell(seed, timed)

        traced = _run_cells(traced_cell, args.seed, deadline)
        cells = base.cells + traced.cells
        attempted, failed = _check(cells, problems)
        metrics = {}
        sim = base.cells[0].sim
        untraced_wall = base.median("wall_s")
        n = len(traced.cells)
        for layer, (self_s, calls) in tracer.totals().items():
            metrics[f"{layer}.self_s"] = _metric(self_s / n, "s")
            metrics[f"{layer}.calls"] = _metric(calls / n, "count")
        metrics["simkernel.us_per_slot"] = _metric(
            untraced_wall / sim["simkernel.slots"] * 1e6, "us")
        metrics["trace.overhead_pct"] = _metric(
            (traced.median("wall_s") / untraced_wall - 1.0) * 100.0, "%")
        metrics["sim_digest"] = _metric(int(cells[0].digest[:12], 16), "hash")
        for name, spec in table["metrics"].items():
            if name not in metrics:
                metrics[name] = _metric(sim.get(name, 0), spec["unit"])
        totals = tracer.totals()
        total_self = sum(s for s, _ in totals.values())
        print(f"workload {args.workload}  seed {args.seed}  untraced cells {len(base.cells)}"
              f"  traced cells {n}  spans {tracer.n_spans}")
        for layer, (self_s, _) in totals.items():
            print(f"  {layer:<12} self {self_s / n:9.4f} s  {100 * self_s / total_self:5.1f} %")
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.txt",
                    {"workload": args.workload, "seed": args.seed, "traced_cells": n,
                     "self_s": {k: v[0] / n for k, v in totals.items()}})

    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
