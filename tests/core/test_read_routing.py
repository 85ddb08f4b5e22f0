"""Which path each ``MonarchReader`` read takes, and what it must not skip.

On a healthy single-tenant hierarchy the reader serves PFS-resident
reads as continuations straight on the PFS backend.  Two kinds of read
must stay on the ``Monarch.read`` generator, because only it does their
bookkeeping:

* reads on a fault-wrapped mount — the continuation would call the
  wrapped backend's ``*_begin`` ops through the proxy's delegation and
  skip the injector, so no fault would be injected, counted or retried;
* reads under dirty health (a fault or quarantine was seen), which
  drive the health probes and the PFS retry loop.
"""

from __future__ import annotations

import pytest

from repro.core.metadata import FileState
from repro.core.middleware import MonarchReader
from repro.data.imagenet import IMAGENET_100G
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.scenarios import build_run
from repro.faults.injector import FaultyFileSystem
from repro.storage.base import TierFailedError
from repro.storage.pfs import ParallelFileSystem
from tests.golden.test_pipeline_pins import _PFS_DOWN, _QUARANTINE, PFS_MOUNT, SMALL


@pytest.fixture
def routes(monkeypatch):
    """(route, file state, health dirty) for every middleware read issued
    through the protocol: ``"continuation"`` for the PFS continuation,
    else the name of the generator the trampoline drives."""
    log = []
    real_pfs = MonarchReader._pfs_begin
    real_legacy = MonarchReader._legacy_begin

    def spy_pfs(self, pfs, key, info, offset, nbytes, cb):
        log.append(("continuation", info.state, self.monarch.health.dirty))
        return real_pfs(self, pfs, key, info, offset, nbytes, cb)

    def spy_legacy(self, gen, info, offset, nbytes, cb):
        log.append((gen.__name__, info.state, self.monarch.health.dirty))
        return real_legacy(self, gen, info, offset, nbytes, cb)

    monkeypatch.setattr(MonarchReader, "_pfs_begin", spy_pfs)
    monkeypatch.setattr(MonarchReader, "_legacy_begin", spy_legacy)
    return log


@pytest.fixture
def pfs_protocol_calls(monkeypatch):
    """Names of the PFS backend's continuation ops, per call."""
    calls = []
    for name in ("open_begin", "pread_begin"):
        real = getattr(ParallelFileSystem, name)

        def spying(self, *args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(ParallelFileSystem, name, spying)
    return calls


def _build(fault_plan):
    return build_run("monarch", "lenet", IMAGENET_100G, DEFAULT_CALIBRATION,
                     scale=SMALL, seed=0, fault_plan=fault_plan)


def test_fault_wrapped_pfs_reads_stay_on_the_generator(routes, pfs_protocol_calls):
    """The PFS dies for good mid-epoch (the ``monarch_pfs_down`` pin):
    every PFS read passes through ``FaultyFileSystem``, so the injected
    faults reach the middleware's fault and retry accounting."""
    handle = _build(_PFS_DOWN)
    with pytest.raises(TierFailedError):
        handle.execute()
    m = handle.monarch
    assert isinstance(m.hierarchy.pfs.fs, FaultyFileSystem)
    pfs_reads = [r for r in routes if r[1] is not FileState.CACHED]
    assert pfs_reads, "no PFS-resident read was issued"
    assert {route for route, _, _ in pfs_reads} == {"read"}
    assert not pfs_protocol_calls, "reads tunnelled past the fault injector"

    pfs_level = m.hierarchy.pfs_level
    faults = m.stats.tier_faults[pfs_level]
    injected = handle.injector.counters()[f"{PFS_MOUNT}/down_rejections"]
    assert faults > 0 and m.stats.read_retries > 0
    assert m.health.counters()[f"health.faults.l{pfs_level}"] == faults
    assert injected >= faults


def test_dirty_health_pfs_reads_stay_on_the_generator(routes):
    """The SSD fails early and is quarantined (the ``monarch_quarantine``
    pin): PFS-resident reads run as continuations only while health is
    clean; from the first fault on they drive ``Monarch.read``, which
    owns the probe and retry logic."""
    handle = _build(_QUARANTINE)
    handle.execute()
    assert handle.monarch.health.counters()["health.quarantines"] == 1
    pfs_reads = [r for r in routes if r[1] is not FileState.CACHED]
    clean = [route for route, _, dirty in pfs_reads if not dirty]
    dirty = [route for route, _, dirty in pfs_reads if dirty]
    assert clean and set(clean) == {"continuation"}
    assert dirty and set(dirty) == {"read"}
