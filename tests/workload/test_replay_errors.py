"""Failure and capability-miss paths of the replay driver.

A request whose read raises must fail the run with that exception — not
count as completed, not be dropped silently, and not leave the drain
waiting forever.  This holds whether the failure lands while arrivals
are still being dispatched or while stragglers drain, for generator-only
readers (driven through the shared trampoline) and for the middleware's
continuation path alike.  Readers that cannot serve continuation-style
say why in the result and the RunReport meta; a fault-wrapped mount is
not such a case.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.data.imagenet import IMAGENET_100G
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.runner import run_once
from repro.experiments.scenarios import PFS_MOUNT, build_run
from repro.faults.plan import FaultPlan, LatencySpike, TierDown
from repro.framework.io_layer import PosixReader
from repro.simkernel.core import Simulator
from repro.storage.base import IOFaultError
from repro.workload.replay import ReplayDriver
from repro.workload.spec import WORKLOADS

from tests.workload.test_replay import FakeReader, uniform_trace

pytestmark = pytest.mark.serve


class FailingReader(FakeReader):
    """Generator-only reader whose ``fail_at``-th read raises."""

    def __init__(self, sim, fail_at: int, delay_s: float = 0.0):
        super().__init__(sim, delay_s=delay_s)
        self.fail_at = fail_at
        self.served = 0

    def pread(self, f, offset, nbytes):
        self.reads += 1
        if self.delay_s:
            yield self.sim.timeout(self.delay_s)
        if self.reads == self.fail_at:
            raise OSError(f"read {self.reads} failed")
        self.served += 1
        return nbytes


@pytest.mark.parametrize("delay_s", [0.0, 0.3])
@pytest.mark.parametrize("fail_at", [1, 3, 11])
def test_generator_reader_failure_fails_the_run(fail_at, delay_s):
    """Early (mid-dispatch) and last (mid-drain) failures both raise."""
    sim = Simulator()
    reader = FailingReader(sim, fail_at, delay_s=delay_s)
    driver = ReplayDriver(sim, uniform_trace(11, 1.0), reader, ["/f0"],
                          hit_fn=reader.hit_fn, windows=5)
    proc = sim.spawn(driver.run(), name="replay")
    with pytest.raises(OSError, match=f"read {fail_at} failed"):
        sim.run(proc)
    res = driver.result
    assert res.completed == reader.served
    assert res.completed < res.n_requests
    assert res.latency.count == res.completed


def test_generator_reader_records_its_capability_miss():
    sim = Simulator()
    reader = FakeReader(sim)
    driver = ReplayDriver(sim, uniform_trace(3, 1.0), reader, ["/f0"],
                          hit_fn=reader.hit_fn)
    res = sim.run(sim.spawn(driver.run()))
    assert res.completed == 3
    assert res.fusion_misses == {"reader:FakeReader": 1}


@pytest.mark.parametrize("down_at", [1.0, 30.0])
def test_monarch_pfs_retry_exhaustion_fails_the_run(down_at):
    """Reads of PFS-resident files exhaust their retries once Lustre dies."""
    plan = FaultPlan({PFS_MOUNT: (TierDown(at=down_at),)})
    handle = build_run(
        "monarch", "lenet", IMAGENET_100G, DEFAULT_CALIBRATION,
        scale=1 / 1024, seed=0, workload=WORKLOADS["serve-zipf"], fault_plan=plan,
    )
    with pytest.raises(IOFaultError):
        handle.execute()
    res = handle.replay.result
    stats = handle.monarch.stats
    assert stats.read_retries > 0
    assert 0 < res.completed < res.n_requests
    # every completion is a middleware read that succeeded, and only those
    assert res.completed == stats.total_reads
    assert res.fusion_misses == {}


def test_fault_wrapped_mount_serves_through_the_protocol(monkeypatch):
    """A wrapped PFS keeps vanilla serving on the continuation protocol:
    no capability miss reaches the report, and the spiked replay equals
    the one whose reads run through the trampoline."""
    plan = FaultPlan({PFS_MOUNT: (LatencySpike(start=0.0, end=1.0, multiplier=2.0),)})

    def serve():
        return run_once(
            setup="vanilla-lustre", model_name="lenet", dataset=IMAGENET_100G,
            scale=1 / 4096, seed=0, workload=WORKLOADS["serve-zipf"],
            fault_plan=plan, report=True,
        )

    rec = serve()
    assert "fused_capability_misses" not in rec.report["meta"]
    monkeypatch.setattr(PosixReader, "fused_miss", lambda self, paths: "forced")
    trampolined = serve()
    assert trampolined.report["meta"]["fused_capability_misses"] == {"forced": 1}
    assert replace(trampolined, report=None) == replace(rec, report=None)
