"""Chaos determinism: a faulted run is a pure function of its seed.

The fault draws come from a dedicated RNG substream, so the same seed and
the same :class:`~repro.faults.FaultPlan` must replay the identical run.
"""

from __future__ import annotations

from repro.data.imagenet import IMAGENET_100G
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.scenarios import build_run
from repro.faults import FaultPlan, LatencySpike, TierDown, TransientFaults


def _chaos_plan() -> FaultPlan:
    """A busy schedule: flaky SSD, a latency spike, one brief outage."""
    return FaultPlan(
        {
            "/mnt/ssd": [
                TransientFaults(start=0.0, end=1e9, read_p=0.1, write_p=0.1),
                LatencySpike(start=0.5, end=1.5, multiplier=2.0),
                TierDown(at=2.0, recover_at=2.5),
            ]
        }
    )


def _faulted_fingerprint() -> dict:
    """One faulted MONARCH run reduced to everything that must replay."""
    handle = build_run(
        "monarch", "lenet", IMAGENET_100G, DEFAULT_CALIBRATION,
        scale=1 / 512, seed=5, epochs=2, fault_plan=_chaos_plan(),
    )
    result = handle.execute()
    registry = handle.monarch.publish_metrics()
    assert handle.injector is not None
    return {
        "init": result.init_time_s,
        "epochs": [e.wall_time_s for e in result.epochs],
        "counters": dict(sorted(registry.counters.items())),
        "injector": handle.injector.counters(),
    }


def test_same_seed_faulted_runs_replay_identically():
    """Acceptance: same seed + same FaultPlan → identical MonarchStats
    counters and epoch times, run to run."""
    assert _faulted_fingerprint() == _faulted_fingerprint()
