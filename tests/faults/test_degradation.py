"""Middleware degradation: routing around, quarantining and re-admitting tiers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MonarchConfig, TierSpec
from repro.core.metadata import FileState
from repro.core.middleware import Monarch
from repro.data.sharding import build_shards
from repro.data.virtual import materialize
from repro.faults import FaultInjector, FaultPlan, IOFaultError, TierDown, TransientFaults
from repro.simkernel.core import Simulator
from repro.storage.device import Device, SATA_SSD
from repro.storage.localfs import LocalFileSystem
from repro.storage.pfs import ParallelFileSystem
from repro.storage.vfs import MountTable
from tests.conftest import drive

SSD_MOUNT = "/mnt/ssd"
PFS_MOUNT = "/mnt/pfs"


def build_faulted_monarch(
    sim,
    pfs,
    manifest,
    ssd_events=(),
    pfs_events=(),
    seed=0,
    **config_kwargs,
):
    """A two-tier Monarch whose mounts run behind a fault injector."""
    paths = materialize(manifest, pfs, "/dataset")
    local = LocalFileSystem(sim, Device(sim, SATA_SSD), capacity_bytes=64 * 1024 * 1024)
    plan = FaultPlan(
        {
            mount: tuple(events)
            for mount, events in ((SSD_MOUNT, ssd_events), (PFS_MOUNT, pfs_events))
            if events
        }
    )
    injector = FaultInjector(sim, plan, np.random.default_rng(seed))
    mounts = MountTable()
    mounts.mount(PFS_MOUNT, injector.wrap_fs(PFS_MOUNT, pfs))
    mounts.mount(SSD_MOUNT, injector.wrap_fs(SSD_MOUNT, local))
    config = MonarchConfig(
        tiers=(TierSpec(mount_point=SSD_MOUNT), TierSpec(mount_point=PFS_MOUNT)),
        dataset_dir="/dataset",
        placement_threads=2,
        copy_chunk=256 * 1024,
        **config_kwargs,
    )
    monarch = Monarch(sim, config, mounts)
    drive(sim, monarch.initialize(), name="monarch-init")
    return monarch, local, injector, paths


def read_at(sim, monarch, name, at=None):
    """One full read of ``name`` driven to completion; returns byte count."""

    def job():
        if at is not None:
            yield sim.timeout_at(at)
        n = yield from monarch.read(name, 0, monarch.file_size(name))
        return n

    return drive(sim, job())


def place_all(sim, monarch, paths):
    """Read every shard once and wait for the background copies to land."""

    def job():
        for name in paths:
            yield from monarch.read(name, 0, monarch.file_size(name))
        yield from monarch.placement.drain()

    drive(sim, job())
    for name in paths:
        assert monarch.metadata.lookup(name).state is FileState.CACHED


class TestReadFallback:
    def test_tier_down_routes_reads_to_pfs(self, sim, pfs, tiny_manifest):
        monarch, _local, _inj, paths = build_faulted_monarch(
            sim, pfs, tiny_manifest, ssd_events=[TierDown(at=5.0)]
        )
        place_all(sim, monarch, paths)
        size = monarch.file_size(paths[0])
        pfs_level = monarch.hierarchy.pfs_level
        before = monarch.stats.reads_per_level.get(pfs_level, 0)
        for i in range(3):
            assert read_at(sim, monarch, paths[0], at=10.0 + i * 0.01) == size
        assert monarch.stats.fallback_reads == 3
        assert monarch.stats.tier_faults[0] == 3
        assert monarch.stats.reads_per_level[pfs_level] == before + 3
        assert monarch.health.quarantines == 1
        assert monarch.health.quarantined_levels() == [0]

    def test_quarantined_tier_serves_zero_reads(self, sim, pfs, tiny_manifest):
        monarch, _local, _inj, paths = build_faulted_monarch(
            sim, pfs, tiny_manifest, ssd_events=[TierDown(at=5.0)], probe_interval_s=100.0
        )
        place_all(sim, monarch, paths)
        for i in range(3):  # trip the quarantine
            read_at(sim, monarch, paths[0], at=10.0 + i * 0.01)
        served_before = monarch.stats.reads_per_level.get(0, 0)
        for name in paths:
            assert read_at(sim, monarch, name) == monarch.file_size(name)
        # Inside the probe cooldown nothing touches the quarantined tier.
        assert monarch.stats.reads_per_level.get(0, 0) == served_before

    def test_recovery_probe_readmits_tier(self, sim, pfs, tiny_manifest):
        monarch, _local, _inj, paths = build_faulted_monarch(
            sim,
            pfs,
            tiny_manifest,
            ssd_events=[TierDown(at=5.0, recover_at=6.0)],
            probe_interval_s=0.5,
        )
        place_all(sim, monarch, paths)
        for i in range(3):
            read_at(sim, monarch, paths[0], at=5.0 + i * 0.01)
        assert monarch.health.quarantined_levels() == [0]
        served_before = monarch.stats.reads_per_level.get(0, 0)
        # Past recovery and past the probe cooldown: the next read probes
        # the tier, succeeds, and re-admits it.
        assert read_at(sim, monarch, paths[0], at=8.0) == monarch.file_size(paths[0])
        assert monarch.health.readmissions == 1
        assert monarch.health.ok(0)
        assert monarch.stats.reads_per_level[0] == served_before + 1


    def test_tier_down_before_first_copy_is_probed_and_readmitted(
        self, sim, pfs, tiny_manifest
    ):
        # The SSD is down from the start: every copy fails, the tier is
        # quarantined holding no file, and the placements are deferred.
        monarch, local, _inj, paths = build_faulted_monarch(
            sim,
            pfs,
            tiny_manifest,
            ssd_events=[TierDown(at=0.0, recover_at=1.0)],
            probe_interval_s=0.5,
            copy_retries=0,
        )

        def first_pass():
            for name in paths:
                yield from monarch.read(name, 0, monarch.file_size(name))
            yield from monarch.placement.drain()

        drive(sim, first_pass())
        assert monarch.health.quarantined_levels() == [0]
        assert monarch.placement.stats.completed == 0
        assert monarch.placement.probe_candidate(0) is None
        # Past recovery and the probe cooldown, a PFS read probes the
        # empty tier; re-admission retries the deferred placements.
        read_at(sim, monarch, paths[0], at=2.0)
        assert monarch.health.readmissions == 1
        assert monarch.health.ok(0)
        drive(sim, monarch.placement.drain())
        assert monarch.placement.stats.completed > 0
        assert local.used_bytes > 0
        assert monarch.placement.probe_candidate(0) is not None


class TestCopyRobustness:
    def test_transient_copy_faults_retry_then_land(self, sim, pfs, tiny_manifest):
        monarch, local, _inj, paths = build_faulted_monarch(
            sim,
            pfs,
            tiny_manifest,
            ssd_events=[TransientFaults(start=0.0, end=0.3, write_p=1.0)],
            copy_retries=6,
            retry_backoff_s=0.1,
        )
        name = paths[0]

        def job():
            yield from monarch.read(name, 0, monarch.file_size(name))
            yield from monarch.placement.drain()

        drive(sim, job())
        assert monarch.placement.stats.copy_retries >= 1
        assert monarch.placement.stats.copy_giveups == 0
        assert monarch.metadata.lookup(name).state is FileState.CACHED
        assert local.used_bytes == monarch.file_size(name)

    def test_persistent_copy_faults_give_up_cleanly(self, sim, pfs, tiny_manifest):
        monarch, local, _inj, paths = build_faulted_monarch(
            sim,
            pfs,
            tiny_manifest,
            ssd_events=[TransientFaults(start=0.0, end=1e9, write_p=1.0)],
            copy_retries=2,
        )
        name = paths[0]

        def job():
            yield from monarch.read(name, 0, monarch.file_size(name))
            yield from monarch.placement.drain()

        drive(sim, job())
        assert monarch.placement.stats.copy_giveups == 1
        assert monarch.metadata.lookup(name).state is FileState.PFS_ONLY
        assert local.used_bytes == 0
        assert all(v == 0 for v in monarch.placement._reserved.values())
        # initial attempt + 2 retries = 3 faults = quarantine threshold
        assert monarch.health.quarantines == 1
        # With the tier quarantined, further placement requests defer
        # instead of marking files unplaceable.
        read_at(sim, monarch, paths[1])
        assert monarch.placement.stats.deferred >= 1
        assert monarch.placement.stats.unplaceable == 0

    def test_nospace_gives_up_without_health_penalty(self, sim, pfs, tiny_manifest):
        monarch, local, _inj, paths = build_faulted_monarch(
            sim,
            pfs,
            tiny_manifest,
            ssd_events=[TransientFaults(start=0.0, end=1e9, write_p=1.0, error="nospace")],
        )
        name = paths[0]

        def job():
            yield from monarch.read(name, 0, monarch.file_size(name))
            yield from monarch.placement.drain()

        drive(sim, job())
        # Capacity exhaustion is not a device fault: clean give-up, no
        # quarantine, occupancy untouched.
        assert monarch.placement.stats.copy_giveups == 1
        assert monarch.health.quarantines == 0
        assert sum(monarch.health.faults) == 0
        assert local.used_bytes == 0


class TestPFSRetry:
    def test_transient_pfs_faults_are_retried(self, sim, pfs, tiny_manifest):
        monarch, _local, _inj, paths = build_faulted_monarch(
            sim,
            pfs,
            tiny_manifest,
            pfs_events=[TransientFaults(start=10.0, end=10.03, read_p=1.0)],
            read_retries=3,
            retry_backoff_s=0.01,
        )
        name = paths[0]
        # First-ever read lands in the fault window: the PFS attempt fails,
        # the retry loop backs off past the window and succeeds.
        assert read_at(sim, monarch, name, at=10.0) == monarch.file_size(name)
        assert monarch.stats.read_retries >= 1
        assert monarch.stats.tier_faults[monarch.hierarchy.pfs_level] >= 1
        assert monarch.health.quarantines == 0  # the PFS is never quarantined

    def test_pfs_retry_exhaustion_surfaces_the_fault(self, sim, pfs, tiny_manifest):
        monarch, _local, _inj, paths = build_faulted_monarch(
            sim,
            pfs,
            tiny_manifest,
            pfs_events=[TierDown(at=5.0)],
            read_retries=2,
        )
        with pytest.raises(IOFaultError):
            read_at(sim, monarch, paths[0], at=6.0)
        assert monarch.stats.read_retries == 2
        assert monarch.health.quarantines == 0


class TestTelemetry:
    def test_publish_metrics_exposes_every_counter_family(self, sim, pfs, tiny_manifest):
        monarch, _local, _inj, paths = build_faulted_monarch(
            sim, pfs, tiny_manifest, ssd_events=[TierDown(at=5.0)]
        )
        place_all(sim, monarch, paths)
        read_at(sim, monarch, paths[0], at=4.0)  # one healthy cached read
        for i in range(3):
            read_at(sim, monarch, paths[0], at=10.0 + i * 0.01)
        reg = monarch.publish_metrics()
        assert reg.counters["monarch.fallback_reads"] == 3
        assert reg.counters["monarch.tier_faults.l0"] == 3
        assert reg.counters["health.quarantines"] == 1
        assert reg.counters["placement.completed"] == len(paths)
        assert reg.counters["placement.copy_giveups"] == 0
        assert reg.counters["monarch.reads.l0"] > 0

    def test_same_seed_runs_produce_identical_counters(self, tiny_spec):
        def one_run():
            sim = Simulator()
            pfs = ParallelFileSystem(sim)
            manifest = build_shards(tiny_spec)
            monarch, _local, _inj, paths = build_faulted_monarch(
                sim,
                pfs,
                manifest,
                ssd_events=[
                    TransientFaults(start=0.0, end=1e9, read_p=0.3, write_p=0.1),
                ],
                seed=11,
            )

            def job():
                for _ in range(3):
                    for name in paths:
                        yield from monarch.read(name, 0, monarch.file_size(name))
                yield from monarch.placement.drain()

            drive(sim, job())
            counters = dict(monarch.stats.counters())
            counters.update(monarch.health.counters())
            counters["sim.now"] = sim.now
            return counters

        assert one_run() == one_run()
