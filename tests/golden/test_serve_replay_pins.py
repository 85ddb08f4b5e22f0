"""Pinned trace-replay outcomes for the serving request path.

The RunReport goldens cover one quiet serving cell per setup.  These
fixtures pin the shapes that stress the per-request path harder, each at
a small scale:

* ``zipf_monarch_x64`` — serve-zipf at 64x the preset rate: requests
  queue, miss, and read files while their placement copy is in flight.
* ``zipf_lustre_x4096`` — the vanilla PFS baseline at a rate high
  enough that two requests open the same file concurrently.
* ``churn_monarch`` — serve-churn: per-job readers behind job-setup
  gates, with tenancy-checked reads.
* ``zipf_monarch_ssd_down`` — the SSD dies and recovers mid-replay:
  fault-wrapped mounts, quarantine fallback reads, probes, re-admission.

Each fixture records the :class:`~repro.workload.replay.ReplayResult`
(windows and latency histograms), the backend and middleware counters,
and the kernel's dispatch-slot count, so any change to when or in which
order the simulator does work shows up as a named diff.  After an
intentional change to simulated behaviour, refresh with::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/golden -q
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import asdict, replace
from typing import Any

import pytest

from repro.core.middleware import MonarchReader
from repro.data.imagenet import IMAGENET_100G
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.scenarios import build_run, ssd_tier_down_plan
from repro.framework.io_layer import PosixReader
from repro.workload.spec import WORKLOADS

pytestmark = pytest.mark.serve

GOLDEN_DIR = pathlib.Path(__file__).parent
SCALE = 1 / 1024
SEED = 0


def _zipf(rate_mult: int):
    preset = WORKLOADS["serve-zipf"]
    return replace(preset, rate_rps=preset.rate_rps * rate_mult)


#: fixture suffix -> build_run kwargs
PINS: dict[str, dict[str, Any]] = {
    "zipf_monarch_x64": dict(setup="monarch", workload=_zipf(64)),
    "zipf_lustre_x4096": dict(setup="vanilla-lustre", workload=_zipf(4096)),
    "churn_monarch": dict(setup="monarch", workload=WORKLOADS["serve-churn"]),
    "zipf_monarch_ssd_down": dict(
        setup="monarch",
        workload=_zipf(1),
        fault_plan=ssd_tier_down_plan(100.0, recover_at_s=300.0),
    ),
}


def _pin(name: str) -> dict[str, Any]:
    handle = build_run(
        model_name="lenet", dataset=IMAGENET_100G, calib=DEFAULT_CALIBRATION,
        scale=SCALE, seed=SEED, **PINS[name],
    )
    res = handle.execute()
    backends = {"pfs": asdict(handle.pfs.stats.snapshot())}
    if handle.local_fs is not None:
        backends["local"] = asdict(handle.local_fs.stats.snapshot())
    counters = {}
    if handle.monarch is not None:
        counters = handle.monarch.publish_metrics().counters
    return {
        "events_processed": handle.sim.events_processed,
        "result": {
            "n_requests": res.n_requests,
            "completed": res.completed,
            "init_time_s": res.init_time_s,
            "t_start": res.t_start,
            "t_end": res.t_end,
            "window_s": res.window_s,
            "warmup_s": res.warmup_s,
            "hit_rate": res.hit_rate,
            "warm_hit_rate": res.warm_hit_rate,
            "windows": res.windows,
            "latency": res.latency.to_dict(),
            "warm_latency": res.warm_latency.to_dict(),
        },
        "backends": backends,
        "counters": counters,
    }


def _check_against_pin(name: str, update: bool = False) -> None:
    path = GOLDEN_DIR / f"replay_{name}.json"
    text = json.dumps(_pin(name), indent=2, sort_keys=True) + "\n"
    if update:
        path.write_text(text)
    if not path.exists():
        pytest.fail(
            f"missing pinned replay {path.name}; generate it with "
            "REPRO_UPDATE_GOLDEN=1 python -m pytest tests/golden -q"
        )
    golden = json.loads(path.read_text())
    regenerated = json.loads(text)
    for section in sorted(golden):
        assert regenerated[section] == golden[section], (
            f"{path.name}: section {section!r} drifted from the pinned run"
        )
    assert path.read_text() == text


@pytest.mark.parametrize("name", sorted(PINS))
def test_replay_matches_pinned_outcome(name):
    _check_against_pin(name, update=bool(os.environ.get("REPRO_UPDATE_GOLDEN")))


@pytest.mark.parametrize("name", sorted(PINS))
def test_generator_reads_match_pinned_outcome(name, monkeypatch):
    """The trampoline path reproduces each pin, dispatch slots included.

    Every reader is made to decline the continuation protocol, so the
    replay drives the readers' generator ``open``/``pread`` through the
    trampoline, as it does for readers without the protocol; the outcome
    must not depend on which path served a request.
    """
    monkeypatch.setattr(MonarchReader, "fused_capable", lambda self, paths: False)
    for cls in (MonarchReader, PosixReader):
        monkeypatch.setattr(cls, "fused_miss", lambda self, paths: "forced")
    _check_against_pin(name)
