"""Golden comparison: continuation-protocol reads vs generator reads, bit for bit.

The pipeline's readers use the backends' ``open_begin``/``pread_begin``
continuation protocol whenever the reader declares the epoch capable;
otherwise every open and read runs the reader's generator ``open``/
``pread`` through the ``io_layer._LegacyDrive`` trampoline.  The
generator methods are the reference implementation, so these tests
force every reader to decline the protocol and require the same run
either way: a byte-identical result repr (every epoch time, utilization
average and backend counter, down to float repr; only the fusion-miss
tally differs by construction), identical middleware counters and the
same dispatch-slot count.  A spy on the trampoline guards against the
comparison going vacuous (both sides silently taking the same path).

Monarch and monarch-p2p cells count too: the middleware and peer-cache
readers route per read, so their inlined fast paths must land every
hold and counter in the generator path's slots — including under fault
plans, where they hand off to the generator mid-run.  On the clean
single-tenant cells the protocol side must drive no generator at all:
a read that silently fell back to ``Monarch.read`` would still produce
matching records, so only the spy can catch it.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.framework.io_layer as io_layer
from repro.core.middleware import MonarchReader
from repro.data.imagenet import IMAGENET_100G
from repro.distributed.peercache import PeerCacheReader
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.runner import run_once
from repro.experiments.scenarios import build_run
from repro.faults import FaultPlan, IOFaultError, TransientFaults
from repro.framework.io_layer import PosixReader
from repro.storage.pfs import ParallelFileSystem
from tests.golden.test_pipeline_pins import PFS_MOUNT, run_cell

#: the pinned cells' scale: small but contended, multi-epoch, both OST
#: queueing and CPU-bound mapper stretches
_SCALE = 1 / 256


@pytest.fixture
def drive_spy(monkeypatch):
    """Names of the generators every trampoline start drove."""
    driven = []
    real_start = io_layer._LegacyDrive.start

    def spying_start(self, gen, cb, take=None):
        driven.append(gen.__name__)
        real_start(self, gen, cb, take)

    monkeypatch.setattr(io_layer._LegacyDrive, "start", spying_start)
    return driven


def _force_trampoline(monkeypatch) -> None:
    """Make every reader decline the continuation protocol."""
    for cls in (PosixReader, MonarchReader, PeerCacheReader):
        monkeypatch.setattr(cls, "fused_capable", lambda self, paths: False)


def _observe(cell: str) -> tuple[dict, dict | None]:
    """(pinned observables with the miss tally stripped, the miss tally).

    A cell whose pinned outcome is a crash has no result, hence no
    tally (None); the crash string, time included, is compared whole.
    """
    obs = run_cell(cell)
    result = obs["result"]
    if isinstance(result, str):
        return obs, None
    misses = result.fusion_misses
    obs["result"] = repr(replace(result, fusion_misses={}))
    return obs, misses


def _assert_trampoline_matches(cell, reader_cls, drive_spy, monkeypatch,
                               clean=False, slots=True):
    """Protocol run == forced-trampoline run.  ``clean``: the protocol
    side must also drive no generator (no ``Monarch.read`` fallback).
    ``slots=False`` leaves the dispatch-slot count out of the comparison."""
    fused, fused_misses = _observe(cell)
    if not slots:
        del fused["events_processed"]
    assert fused_misses in ({}, None)
    assert "_chunk_gen" not in drive_spy, "protocol side trampolined its reads"
    if clean:
        assert not drive_spy, (
            f"protocol side drove {len(drive_spy)} generators, e.g. "
            f"{sorted(set(drive_spy))}: reads fell back to the trampoline"
        )

    _force_trampoline(monkeypatch)
    drive_spy.clear()
    generator, generator_misses = _observe(cell)
    if not slots:
        del generator["events_processed"]
    assert "_chunk_gen" in drive_spy, "reads never trampolined — comparison is vacuous"
    if generator_misses is not None:
        assert set(generator_misses) == {f"reader:{reader_cls.__name__}"}

    assert generator == fused


@pytest.mark.parametrize("cell,reader_cls", [
    ("vanilla_lustre", PosixReader),
    ("vanilla_local", PosixReader),
    ("monarch", MonarchReader),
    ("monarch_overflow", MonarchReader),
], ids=["vanilla-lustre", "vanilla-local", "monarch", "monarch-overflow"])
def test_fused_and_generator_records_byte_identical(cell, reader_cls,
                                                    drive_spy, monkeypatch):
    """Clean single-tenant cells: every read — PFS-resident ones in the
    overflow cell included — runs as a continuation."""
    _assert_trampoline_matches(cell, reader_cls, drive_spy, monkeypatch, clean=True)


def test_monarch_p2p_fused_and_generator_identical(drive_spy, monkeypatch):
    """Peer-cache cells: the peer-fetch continuation chain (remote SSD
    read + fabric transfer) must land every hold and counter in the
    generator path's slots."""
    _assert_trampoline_matches("monarch_p2p", PeerCacheReader, drive_spy, monkeypatch)


def test_faulted_monarch_engages_fused_and_stays_identical(drive_spy, monkeypatch):
    """Under a fault plan the monarch reader still speaks the protocol
    (capability is per read), but every read on the fault-wrapped mounts
    replays the generator — injection, quarantine and recovery included."""
    _assert_trampoline_matches("monarch_ssd_down", MonarchReader, drive_spy, monkeypatch)


@pytest.mark.parametrize("cell", ["vanilla_faulty_pfs", "vanilla_pfs_down"])
def test_fault_wrapped_posix_mount_speaks_the_protocol(cell, drive_spy, monkeypatch):
    """The fault proxy speaks the ``*_begin`` protocol, so vanilla reads
    on a fault-wrapped PFS — an armed but silent plan, a tier that dies
    mid-run — run as continuations and still land every hold, draw and
    the crash itself in the generator path's slots."""
    _assert_trampoline_matches(cell, PosixReader, drive_spy, monkeypatch, clean=True)


def test_spiked_posix_mount_speaks_the_protocol(drive_spy, monkeypatch):
    """Three vanilla nodes on a latency-spiked PFS: every surcharge lands
    where the generator path holds it, and the records match.  The slot
    count is left out: an epoch end abandons in-flight reads, and a
    continuation read runs on to completion — its surcharge timer
    included, an empty slot — where the trampoline closes the generator
    before it would arm that timer."""
    _assert_trampoline_matches("dist_vanilla_spiked_pfs", PosixReader, drive_spy,
                               monkeypatch, clean=True, slots=False)


def test_faulted_vanilla_mount_reads_pass_through_the_proxy(drive_spy, monkeypatch):
    """Protocol reads on a fault-wrapped mount go through the proxy's
    ``pread_begin``, not around it: from the instant a certain read
    fault is armed, no read reaches the PFS backend, the injector counts
    the faults it raised, and the run dies of one."""
    reached = []
    real = ParallelFileSystem.pread_begin

    def spying(self, *args, **kwargs):
        reached.append(self.sim.now)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(ParallelFileSystem, "pread_begin", spying)
    plan = FaultPlan({
        PFS_MOUNT: (TransientFaults(start=0.5, end=1e9, read_p=1.0),)
    })
    handle = build_run("vanilla-lustre", "resnet50", IMAGENET_100G,
                       DEFAULT_CALIBRATION, scale=_SCALE, seed=0, fault_plan=plan)
    with pytest.raises(IOFaultError):
        handle.execute()
    assert not drive_spy, "reads on the wrapped mount fell back to the trampoline"
    assert reached and max(reached) < 0.5 <= handle.sim.now
    counters = handle.injector.counters()
    assert counters[f"{PFS_MOUNT}/transient_reads"] >= 1
    assert counters[f"{PFS_MOUNT}/down_rejections"] == 0


def test_clean_reports_carry_no_miss_key(drive_spy):
    """Using the protocol — or trampolining a cache-writing epoch, by
    design — is not a miss: the meta key must stay absent so golden
    reports stay byte-stable."""
    record = run_once("monarch", "resnet50", IMAGENET_100G,
                      scale=_SCALE, seed=0, report=True)
    assert "fused_capability_misses" not in record.report["meta"]

    drive_spy.clear()
    caching = run_once("vanilla-caching", "lenet", IMAGENET_100G,
                       scale=_SCALE, seed=0, report=True)
    assert "_chunk_gen" in drive_spy, "the cache-writing epoch was not trampolined"
    assert "fused_capability_misses" not in caching.report["meta"]
