"""Pinned epoch-pipeline outcomes for every reader path the pipeline runs.

The RunReport goldens cover one clean cell per figure.  These fixtures
pin the cells that exercise the input pipeline's reader paths harder:

* ``vanilla_lustre``, ``vanilla_local``, ``monarch`` — resnet50 at
  1/256: the continuation protocol on the PFS, the SSD and the
  middleware.
* ``monarch_p2p`` — three nodes, reshuffled partitions: peer fetches.
* ``dist_vanilla_spiked_pfs`` — three vanilla nodes, two readers each,
  over a fault-wrapped, latency-spiked PFS: epoch ends abort pipelines
  whose reads are still queued at, or holding, an OST.
* ``monarch_ssd_down`` — the SSD dies before its first copy lands and
  comes back (seed 3): quarantine, a probe of the empty tier after
  recovery, re-admission, then the deferred copies.
* ``vanilla_faulty_pfs`` — a fault-wrapped PFS mount whose plan never
  fires: every read passes through the fault proxy.
* ``vanilla_caching`` — epoch 1 reads the PFS and writes the tf.data
  cache.
* ``multi_tenancy`` — two capped jobs sharing one MONARCH instance.
* ``monarch_quarantine`` — the property suite's quarantine plan: an SSD
  outage with recovery, then a transient read-fault window.
* ``monarch_pfs_down`` / ``vanilla_pfs_down`` — the PFS dies for good;
  the pinned outcome is the crash itself.
* ``zero_yield`` — a generator-only reader whose ``pread`` completes
  without yielding, over shards of about 1,800 chunks each (more than
  the recursion limit).

Each fixture records the run result's repr (or the crash), the
backend and middleware counters, and — on the cells that have always
run continuation-style readers — the kernel's dispatch-slot count.
After an intentional change to simulated behaviour, refresh with::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/golden -q
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
from dataclasses import asdict, replace
from typing import Any, Callable

import pytest

from repro.data.imagenet import IMAGENET_100G, IMAGENET_200G, scaled
from repro.distributed.cluster import ClusterSpec, build_cluster
from repro.distributed.trainer import DistributedTrainer
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.multi_scenarios import JobPlan, build_multi_run
from repro.experiments.scenarios import build_run, ssd_tier_down_plan
from repro.faults import FaultPlan, LatencySpike, TierDown, TransientFaults
from repro.framework.io_layer import DataReader, OpenFile
from repro.framework.models import MODELS

GOLDEN_DIR = pathlib.Path(__file__).parent
SCALE = 1 / 256
#: the property suites' scale: ~220 samples, sub-second runs
SMALL = 1 / 4096
SSD_MOUNT = "/mnt/ssd"
PFS_MOUNT = "/mnt/pfs"


class ZeroYieldReader(DataReader):
    """Timed POSIX open; every ``pread`` returns without yielding.

    A generator-only reader (no continuation protocol) whose reads
    complete in the slot they start in, so an epoch chains thousands of
    synchronous completions back to back.
    """

    def __init__(self, mounts: Any) -> None:
        self.mounts = mounts

    def open(self, path: str):
        handle = yield from self.mounts.open(path, "r")
        return OpenFile(path=path, size=handle.size, token=handle)

    def pread(self, f: OpenFile, offset: int, nbytes: int):
        if False:  # pragma: no cover - a generator that never yields
            yield None
        return max(0, min(nbytes, f.size - offset))


def _zero_yield_reader(trainer: Any) -> DataReader:
    """A :class:`ZeroYieldReader` for ``trainer``'s mounts.

    Every read completes inside the call that issued it, so with more
    chunks per shard than Python's recursion limit, chaining each
    completion into the next read by recursion would raise
    RecursionError; the pipeline must loop instead.
    """
    chunk = trainer.config.read_chunk
    chunks = max(-(-s.size // chunk) for s in trainer.shards)
    assert chunks > max(1000, sys.getrecursionlimit())
    return ZeroYieldReader(trainer.reader.mounts)


def _outcome(run: Callable[[], Any], sim: Any) -> Any:
    """The run's result, or its crash (with sim time) as a string."""
    try:
        return run()
    except Exception as err:  # noqa: BLE001 - the crash is the outcome
        return f"raised {type(err).__name__}: {err} at t={sim.now!r}"


def _single(setup: str, model: str = "resnet50", scale: float = SCALE,
            seed: int = 0, read_chunk: int | None = None,
            reader: Callable[[Any], DataReader] | None = None,
            fault_plan: FaultPlan | None = None, dataset: Any = IMAGENET_100G,
            calib: Any = DEFAULT_CALIBRATION) -> dict[str, Any]:
    if read_chunk is not None:
        calib = replace(calib, pipeline=replace(calib.pipeline, read_chunk=read_chunk))
    handle = build_run(setup=setup, model_name=model, dataset=dataset,
                       calib=calib, scale=scale, seed=seed, fault_plan=fault_plan)
    if reader is not None:
        handle.trainer.reader = reader(handle.trainer)
    pin: dict[str, Any] = {"result": _outcome(handle.execute, handle.sim)}
    pin["backends"] = {"pfs": asdict(handle.pfs.stats.snapshot())}
    if handle.local_fs is not None:
        pin["backends"]["local"] = asdict(handle.local_fs.stats.snapshot())
    pin["counters"] = (handle.monarch.publish_metrics().counters
                       if handle.monarch is not None else {})
    pin["events_processed"] = handle.sim.events_processed
    return pin


def _dist(setup: str, fault_plan: FaultPlan | None = None,
          cycle_length: int | None = None) -> dict[str, Any]:
    calib = DEFAULT_CALIBRATION
    cluster = build_cluster(setup=setup, dataset=IMAGENET_100G, calib=calib,
                            cluster_spec=ClusterSpec(n_nodes=3), scale=SCALE, seed=0,
                            fault_plan=fault_plan)
    pipeline = cluster.env.pipeline
    if cycle_length is not None:
        pipeline = replace(pipeline, cycle_length=cycle_length)
    trainer = DistributedTrainer(
        cluster=cluster, model=MODELS["resnet50"],
        pipeline_config=pipeline, partition_policy="reshuffle",
        epochs=calib.epochs, seed=0,
    )
    sim = cluster.sim
    pin: dict[str, Any] = {
        "result": _outcome(lambda: sim.run(sim.spawn(trainer.run())), sim),
    }
    pin["backends"] = {"pfs": asdict(cluster.pfs.stats.snapshot())}
    pin["counters"] = {}
    for ns in cluster.nodes:
        if ns.local_fs is not None:
            pin["backends"][f"local{ns.index}"] = asdict(ns.local_fs.stats.snapshot())
        if ns.monarch is not None:
            for key, value in ns.monarch.publish_metrics().counters.items():
                pin["counters"][f"node{ns.index}.{key}"] = value
    pin["events_processed"] = sim.events_processed
    return pin


def _multi() -> dict[str, Any]:
    tiny = scaled(IMAGENET_100G, 0.1)
    plans = [JobPlan("a", "lenet", tiny, share=0.3),
             JobPlan("b", "lenet", tiny, share=0.7)]
    handle = build_multi_run(plans, DEFAULT_CALIBRATION, scale=SMALL, seed=0)
    pin: dict[str, Any] = {"result": _outcome(handle.execute, handle.sim)}
    pin["backends"] = {"pfs": asdict(handle.pfs.stats.snapshot()),
                       "local": asdict(handle.local_fs.stats.snapshot())}
    pin["counters"] = handle.monarch.publish_metrics().counters
    pin["events_processed"] = handle.sim.events_processed
    return pin


_QUARANTINE = FaultPlan({SSD_MOUNT: (
    TierDown(at=0.03, recover_at=0.12),
    TransientFaults(start=0.2, end=0.3, read_p=0.5),
)})
_PFS_DOWN = FaultPlan({PFS_MOUNT: (TierDown(at=0.05),)})
_FAULTY_PFS = FaultPlan({PFS_MOUNT: (TransientFaults(start=0.0, end=1e9, read_p=0.0),)})
_SPIKED_PFS = FaultPlan({PFS_MOUNT: (LatencySpike(start=0.0, end=1e9, multiplier=1.5),)})

#: fixture suffix -> (cell runner, whether its slot count is pinned).
#: Slots are pinned where the readers have always run continuation-style.
PINS: dict[str, tuple[Callable[[], dict[str, Any]], bool]] = {
    "vanilla_lustre": (lambda: _single("vanilla-lustre"), True),
    "vanilla_local": (lambda: _single("vanilla-local"), True),
    "monarch": (lambda: _single("monarch"), True),
    "monarch_overflow": (lambda: _single(
        "monarch", model="lenet", scale=1 / 1024, dataset=IMAGENET_200G,
        calib=DEFAULT_CALIBRATION.busy()), True),
    "monarch_p2p": (lambda: _dist("monarch-p2p"), True),
    "monarch_ssd_down": (lambda: _single(
        "monarch", seed=3, fault_plan=ssd_tier_down_plan(0.05, recover_at_s=0.4)), True),
    "vanilla_faulty_pfs": (lambda: _single("vanilla-lustre", fault_plan=_FAULTY_PFS), False),
    "dist_vanilla_spiked_pfs": (lambda: _dist(
        "vanilla-lustre", _SPIKED_PFS, cycle_length=2), False),
    "vanilla_caching": (lambda: _single("vanilla-caching", model="lenet"), False),
    "multi_tenancy": (_multi, True),
    "monarch_quarantine": (lambda: _single(
        "monarch", model="lenet", scale=SMALL, seed=0, fault_plan=_QUARANTINE), True),
    "monarch_pfs_down": (lambda: _single(
        "monarch", model="lenet", scale=SMALL, fault_plan=_PFS_DOWN), True),
    "vanilla_pfs_down": (lambda: _single(
        "vanilla-lustre", model="lenet", scale=SMALL, fault_plan=_PFS_DOWN), False),
    "zero_yield": (lambda: _single(
        "vanilla-lustre", model="lenet", read_chunk=4096, reader=_zero_yield_reader), False),
}


def run_cell(name: str) -> dict[str, Any]:
    """Run one pinned cell: its result (or crash string), backend and
    middleware counters, and dispatch-slot count."""
    return PINS[name][0]()


def pin_cell(name: str) -> dict[str, Any]:
    """Run one pinned cell and collect what its fixture records."""
    pin = run_cell(name)
    if not isinstance(pin["result"], str):
        pin["result"] = repr(pin["result"])
    if not PINS[name][1]:
        del pin["events_processed"]
    return pin


def _check_against_pin(name: str, update: bool = False) -> None:
    path = GOLDEN_DIR / f"pipeline_{name}.json"
    text = json.dumps(pin_cell(name), indent=2, sort_keys=True) + "\n"
    if update:
        path.write_text(text)
    if not path.exists():
        pytest.fail(
            f"missing pinned pipeline run {path.name}; generate it with "
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
def test_pipeline_matches_pinned_outcome(name):
    _check_against_pin(name, update=bool(os.environ.get("REPRO_UPDATE_GOLDEN")))
