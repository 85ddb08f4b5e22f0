"""KERNEL — simulator throughput: dispatch slots/sec and FIG3 wall time.

Every other benchmark asserts *simulated* outcomes; this one measures the
simulator itself, so larger experiment grids stay tractable.  It times a
representative contended cell — scenario build excluded, so the number
tracks the event loop rather than numpy setup — counts the kernel's
dispatch slots (``Simulator.events_processed``: every Event ``_process``
and every bare continuation), probes the monarch cell (the middleware
continuation protocol, with its own regression floor), probes a monarch
serve-zipf replay (the continuation-driven request path, with its own
floor), and times one full FIG3 grid pass at 1/16 scale, the floor for
presentable figure runs.  Measurements land in ``BENCH_kernel.json`` at
the repo root.  If a committed baseline exists, each probe's events/sec
must stay within 30 % of it (``REGRESSION_FACTOR``) — the regression
gate behind ``make bench-kernel``.

Methodology note: baselines before the calendar-queue kernel counted heap
pushes inside ``run_once`` (build included).  Dispatch slots are the
comparable quantity in the batch-advance kernel — at-now work never
touches the heap — and the probe's slot count (53,371) sits within 0.3 %
of the old push count (53,488), so the two series gate the same
simulation.  The wall-clock basis, however, changed from build-inclusive
to execute-only; the committed baseline records which basis it used in
``"methodology"`` and the gate only applies across like baselines.

Set ``REPRO_BENCH_UPDATE=1`` to refresh the committed baseline after an
intentional kernel change.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.data.imagenet import IMAGENET_100G
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.figures import fig3
from repro.experiments.scenarios import build_run
from repro.workload.spec import WORKLOADS

BASELINE = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
#: tolerated slowdown vs the committed baseline before the gate trips.
#: Wider than bench-grid's 0.8: best-of-7 execute-only walls still swing
#: ~±20 % on the single-core dev container, and a gate that trips on
#: scheduler noise is worse than one 10 % looser — the floor remains
#: ~1.7× the pre-overhaul kernel's committed events/sec.
REGRESSION_FACTOR = 0.7
#: timed repetitions of the probe cell (single-core boxes are noisy)
PROBE_REPS = 7
#: FIG3 demonstration scale — the smallest scale the figures are
#: presentable at; the bench proves a full grid pass fits the budget
FIG3_SCALE = 1 / 16
METHODOLOGY = "dispatch-slots/execute-only"


#: the serving probe's workload (replayed on the monarch setup)
SERVE_WORKLOAD = "serve-zipf"


def _build_probe(scale: float, setup: str = "vanilla-lustre", workload=None):
    return build_run(
        setup, "resnet50", IMAGENET_100G, DEFAULT_CALIBRATION,
        scale=scale, seed=0, workload=workload,
    )


def _best_wall(scale: float, setup: str, reps: int = PROBE_REPS, workload=None):
    """(dispatch slots, best-of-``reps`` execute wall) for one cell."""
    events = None
    wall = float("inf")
    for _ in range(reps):
        handle = _build_probe(scale, setup, workload)
        t0 = time.perf_counter()
        handle.execute()
        wall = min(wall, time.perf_counter() - t0)
        events = handle.sim.events_processed
    return events, wall


def test_kernel_speed(bench_scale):
    # The slot count for the probe cell is deterministic; wall time is
    # not, so rebuild + re-execute PROBE_REPS times and keep the fastest.
    events, cell_wall = _best_wall(bench_scale, "vanilla-lustre")
    events_per_sec = events / cell_wall

    # The monarch cell — ~all of every figure grid — gets its own probe,
    # so the middleware continuation protocol is regression-gated like
    # the kernel.
    monarch_events, monarch_wall = _best_wall(bench_scale, "monarch")
    monarch_events_per_sec = monarch_events / monarch_wall

    # Serving replay: per-request continuations instead of the epoch
    # pipeline, so it regresses independently of the training probes.
    serve_events, serve_wall = _best_wall(
        bench_scale, "monarch", workload=WORKLOADS[SERVE_WORKLOAD]
    )
    serve_events_per_sec = serve_events / serve_wall

    t0 = time.perf_counter()
    fig3(scale=FIG3_SCALE, runs=1)
    fig3_wall = time.perf_counter() - t0
    # Event counts grow linearly with the simulated data volume, so a
    # straight rescale is the honest first-order scale=1 estimate.
    fig3_scale1_est = fig3_wall / FIG3_SCALE

    measured = {
        "probe": "vanilla-lustre/resnet50",
        "scale": bench_scale,
        "methodology": METHODOLOGY,
        "probe_events": events,
        "probe_wall_s": round(cell_wall, 4),
        "events_per_sec": round(events_per_sec),
        "monarch_probe": "monarch/resnet50",
        "monarch_events": monarch_events,
        "monarch_fused_wall_s": round(monarch_wall, 4),
        "monarch_events_per_sec": round(monarch_events_per_sec),
        "serve_probe": f"monarch/{SERVE_WORKLOAD}",
        "serve_events": serve_events,
        "serve_wall_s": round(serve_wall, 4),
        "serve_events_per_sec": round(serve_events_per_sec),
        "fig3_scale": FIG3_SCALE,
        "fig3_wall_s": round(fig3_wall, 2),
        "fig3_scale1_est_s": round(fig3_scale1_est, 1),
    }
    print(f"\nKERNEL: {events} dispatch slots in {cell_wall:.3f}s -> "
          f"{events_per_sec:,.0f} events/s")
    print(f"KERNEL: monarch {monarch_events} dispatch slots in "
          f"{monarch_wall:.3f}s -> {monarch_events_per_sec:,.0f} events/s")
    print(f"KERNEL: {SERVE_WORKLOAD} replay {serve_events} dispatch slots in "
          f"{serve_wall:.3f}s -> {serve_events_per_sec:,.0f} events/s")
    print(f"KERNEL: fig3 grid at scale 1/16 in {fig3_wall:.1f}s "
          f"(scale=1 estimate ~{fig3_scale1_est / 60:.1f} min)")

    baseline = None
    if BASELINE.exists():
        baseline = json.loads(BASELINE.read_text())
    if baseline is None or os.environ.get("REPRO_BENCH_UPDATE") == "1":
        BASELINE.write_text(json.dumps(measured, indent=2) + "\n")
        return
    if (
        baseline.get("scale") != bench_scale
        or baseline.get("methodology") != METHODOLOGY
    ):
        # Baseline from a different scale or counting/timing basis:
        # report, don't gate — refresh with REPRO_BENCH_UPDATE=1.
        print("KERNEL: baseline uses a different scale/methodology, "
              "no gate applied")
        return
    floor = REGRESSION_FACTOR * baseline["events_per_sec"]
    assert events_per_sec >= floor, (
        f"kernel throughput regressed: {events_per_sec:,.0f} events/s < "
        f"{floor:,.0f} ({REGRESSION_FACTOR:.0%} of committed "
        f"{baseline['events_per_sec']:,})"
    )
    monarch_baseline = baseline.get("monarch_events_per_sec")
    if monarch_baseline is not None:
        monarch_floor = REGRESSION_FACTOR * monarch_baseline
        assert monarch_events_per_sec >= monarch_floor, (
            f"monarch throughput regressed: "
            f"{monarch_events_per_sec:,.0f} events/s < {monarch_floor:,.0f} "
            f"({REGRESSION_FACTOR:.0%} of committed {monarch_baseline:,})"
        )
    serve_baseline = baseline.get("serve_events_per_sec")
    if serve_baseline is not None:
        serve_floor = REGRESSION_FACTOR * serve_baseline
        assert serve_events_per_sec >= serve_floor, (
            f"serve replay throughput regressed: "
            f"{serve_events_per_sec:,.0f} events/s < {serve_floor:,.0f} "
            f"({REGRESSION_FACTOR:.0%} of committed {serve_baseline:,})"
        )
