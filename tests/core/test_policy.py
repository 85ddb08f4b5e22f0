"""Unit tests for the pluggable placement-policy engine.

Covers the registry/factory, the heat policy's promotion/eviction
decisions, the predictor's observation machinery, telemetry gating (the
default policy publishes nothing), the deferred-placement retry path and
the policy/fault interactions the engine must survive: a tier dying
while a policy holds residents on it must not corrupt the arbiter
ledger, resurrect given-up placements or target the dead tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import MonarchConfig, TierSpec
from repro.core.metadata import FileInfo, FileState
from repro.core.middleware import Monarch
from repro.core.policy import DEFAULT_POLICY, POLICY_NAMES, make_policy
from repro.core.policy.base import PlacementPolicy
from repro.core.policy.firstfit import FirstFitPolicy
from repro.core.policy.heat import HeatPolicy
from repro.core.policy.predictor import EpochPredictorPolicy
from repro.data.virtual import materialize
from repro.simkernel.core import Simulator
from repro.storage.device import SATA_SSD, Device
from repro.storage.localfs import LocalFileSystem
from repro.storage.pfs import ParallelFileSystem
from repro.storage.vfs import MountTable
from tests.conftest import drive

pytestmark = pytest.mark.policy

KIB = 1024


def make_monarch(sim, mounts, policy="firstfit", tiers=None, **cfg_kwargs):
    cfg = MonarchConfig(
        tiers=tiers
        or (TierSpec(mount_point="/mnt/ssd"), TierSpec(mount_point="/mnt/pfs")),
        dataset_dir="/dataset",
        placement_threads=2,
        copy_chunk=256 * KIB,
        policy=policy,
        **cfg_kwargs,
    )
    m = Monarch(sim, cfg, mounts, rng=np.random.default_rng(0))
    drive(sim, m.initialize(), name="monarch-init")
    return m


def read_full(sim, monarch, name, job=""):
    """Read one file end to end in copy-chunk slices, then settle."""

    def gen():
        size = monarch.metadata.lookup(name).size
        pos = 0
        while pos < size:
            take = min(256 * KIB, size - pos)
            yield from monarch.read(name, pos, take, job=job)
            pos += take
        yield sim.timeout(30.0)

    drive(sim, gen())


def read_slice(sim, monarch, name, offset=0, nbytes=KIB, job="", settle=5.0):
    def gen():
        yield from monarch.read(name, offset, nbytes, job=job)
        if settle:
            yield sim.timeout(settle)

    drive(sim, gen())


def settle(sim, t=30.0):
    def gen():
        yield sim.timeout(t)

    drive(sim, gen())


# -- registry / config -------------------------------------------------------


class TestRegistry:
    def test_factory_builds_every_registered_policy(self):
        classes = {
            "firstfit": FirstFitPolicy,
            "heat": HeatPolicy,
            "predictor": EpochPredictorPolicy,
        }
        assert set(POLICY_NAMES) == set(classes)
        for name in POLICY_NAMES:
            pol = make_policy(name)
            assert isinstance(pol, classes[name])
            assert pol.name == name
            assert isinstance(pol, PlacementPolicy)

    def test_factory_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            make_policy("belady")

    def test_config_accepts_exactly_the_registered_names(self):
        # The config keeps its own literal tuple (to stay import-light);
        # this pins it to the actual registry.
        tiers = (TierSpec(mount_point="/mnt/ssd"), TierSpec(mount_point="/mnt/pfs"))
        for name in POLICY_NAMES:
            assert MonarchConfig(tiers=tiers, policy=name).policy == name
        with pytest.raises(ValueError, match="unknown placement policy"):
            MonarchConfig(tiers=tiers, policy="belady")

    def test_default_policy_is_first_fit(self, sim, mounts, dataset_paths):
        assert DEFAULT_POLICY == "firstfit"
        m = make_monarch(sim, mounts)
        pol = m.placement.policy
        assert isinstance(pol, FirstFitPolicy)
        # The paper's hot path stays untouched: no cached-read hook.
        assert pol.tracks_access is False
        assert m._on_access is None

    def test_predictor_parameter_validation(self):
        with pytest.raises(ValueError):
            EpochPredictorPolicy(observe_files=0)
        with pytest.raises(ValueError):
            EpochPredictorPolicy(hot_fraction=0.0)
        with pytest.raises(ValueError):
            EpochPredictorPolicy(full_pass_ratio=1.5)
        with pytest.raises(ValueError):
            HeatPolicy(evict_margin=-1.0)
        with pytest.raises(ValueError):
            HeatPolicy(promote_min_heat=0.5)


# -- telemetry gating --------------------------------------------------------


class TestMetricsGating:
    def test_default_policy_publishes_no_policy_counters(
        self, sim, mounts, dataset_paths
    ):
        m = make_monarch(sim, mounts)
        read_full(sim, m, dataset_paths[0])
        reg = m.publish_metrics()
        assert not [k for k in reg.counters if k.startswith("policy.")]

    def test_non_default_policy_publishes_counters(self, sim, mounts, dataset_paths):
        m = make_monarch(sim, mounts, policy="heat")
        read_full(sim, m, dataset_paths[0])
        reg = m.publish_metrics()
        keys = {k for k in reg.counters if k.startswith("policy.")}
        assert "policy.heat_evictions" in keys
        assert "policy.promotions" in keys

    def test_report_meta_tags_non_default_policy_only(self):
        from repro.data.imagenet import IMAGENET_100G
        from repro.experiments.calibration import DEFAULT_CALIBRATION
        from repro.experiments.runner import run_once

        kwargs = dict(
            setup="monarch",
            model_name="lenet",
            dataset=IMAGENET_100G,
            calib=DEFAULT_CALIBRATION,
            scale=1 / 8192,
            seed=0,
            report=True,
        )
        default = run_once(**kwargs)
        heat = run_once(monarch_overrides={"policy": "heat"}, **kwargs)
        assert "policy" not in default.report["meta"]
        assert heat.report["meta"]["policy"] == "heat"


# -- heat policy -------------------------------------------------------------


@pytest.fixture
def three_tier_stack(sim, tiny_manifest):
    """RAM-over-SSD-over-PFS with a RAM tier sized for exactly one shard."""
    shard = tiny_manifest.shards[0].size_bytes
    pfs = ParallelFileSystem(sim)
    ram = LocalFileSystem(sim, Device(sim, SATA_SSD), capacity_bytes=shard + 10)
    ssd = LocalFileSystem(sim, Device(sim, SATA_SSD), capacity_bytes=64 * 1024 * KIB)
    mounts = MountTable()
    mounts.mount("/mnt/ram", ram)
    mounts.mount("/mnt/ssd", ssd)
    mounts.mount("/mnt/pfs", pfs)
    paths = materialize(tiny_manifest, pfs, "/dataset")
    tiers = (
        TierSpec(mount_point="/mnt/ram"),
        TierSpec(mount_point="/mnt/ssd"),
        TierSpec(mount_point="/mnt/pfs"),
    )
    return mounts, paths, tiers, (ram, ssd)


class TestHeatPolicy:
    def test_hot_file_evicts_strictly_colder_resident(
        self, sim, mounts, dataset_paths, tiny_manifest
    ):
        shard = tiny_manifest.shards[0].size_bytes
        tiers = (
            TierSpec(mount_point="/mnt/ssd", quota_bytes=shard + 10),
            TierSpec(mount_point="/mnt/pfs"),
        )
        m = make_monarch(sim, mounts, policy="heat", tiers=tiers)
        a, b = dataset_paths[0], dataset_paths[1]
        read_slice(sim, m, a)  # heat(a)=1, cached
        assert m.metadata.lookup(a).state is FileState.CACHED
        # First read of b: equal heat, margin blocks the eviction.
        read_slice(sim, m, b)
        assert m.placement.policy.stats.heat_evictions == 0
        assert m.metadata.lookup(b).state is FileState.PFS_ONLY
        # Second read: heat(b)=2 > heat(a)+margin no longer holds for a,
        # so a is evicted and b takes its place.
        read_slice(sim, m, b, settle=30.0)
        assert m.placement.policy.stats.heat_evictions == 1
        assert m.placement.stats.evictions == 1
        assert m.metadata.lookup(b).state is FileState.CACHED
        assert m.metadata.lookup(a).state is FileState.PFS_ONLY

    def test_no_eviction_without_pressure_or_skew(self, sim, mounts, dataset_paths):
        m = make_monarch(sim, mounts, policy="heat")
        for p in dataset_paths:
            read_slice(sim, m, p)
        assert m.placement.policy.stats.heat_evictions == 0
        assert m.placement.stats.evictions == 0

    def test_unplaceable_is_not_sticky(self, sim, mounts, dataset_paths, tiny_manifest):
        shard = tiny_manifest.shards[0].size_bytes
        tiers = (
            TierSpec(mount_point="/mnt/ssd", quota_bytes=shard + 10),
            TierSpec(mount_point="/mnt/pfs"),
        )
        m = make_monarch(sim, mounts, policy="heat", tiers=tiers)
        read_slice(sim, m, dataset_paths[0])
        read_slice(sim, m, dataset_paths[1])
        info = m.metadata.lookup(dataset_paths[1])
        # First-fit would have written b off; heat keeps it placeable.
        assert info.state is FileState.PFS_ONLY
        assert m.placement.stats.unplaceable == 0

    def test_hot_file_promotes_to_faster_tier(self, sim, three_tier_stack):
        mounts, paths, tiers, (ram, _ssd) = three_tier_stack
        m = make_monarch(sim, mounts, policy="heat", tiers=tiers)
        a, b = paths[0], paths[1]
        read_slice(sim, m, a, settle=30.0)  # fills the one-shard RAM tier
        read_slice(sim, m, b, settle=30.0)  # lands on the SSD tier
        assert m.metadata.lookup(a).level == 0
        assert m.metadata.lookup(b).level == 1
        # Repeated cached reads of b pull it up, displacing the colder a.
        for _ in range(3):
            read_slice(sim, m, b, settle=30.0)
        pol = m.placement.policy
        assert pol.stats.promotions == 1
        assert pol.stats.heat_evictions >= 1
        assert m.metadata.lookup(b).level == 0
        assert m.metadata.lookup(b).state is FileState.CACHED
        assert m.metadata.lookup(a).state is FileState.PFS_ONLY
        assert ram.used_bytes <= ram.capacity_bytes

    def test_promotion_skips_quarantined_tier(self, sim, three_tier_stack):
        mounts, paths, tiers, (ram, _ssd) = three_tier_stack
        m = make_monarch(sim, mounts, policy="heat", tiers=tiers)
        a, b = paths[0], paths[1]
        read_slice(sim, m, a, settle=30.0)
        read_slice(sim, m, b, settle=30.0)
        for _ in range(3):
            m.health.record_fault(0)  # quarantine RAM
        for _ in range(3):
            read_slice(sim, m, b, settle=30.0)
        # b stays where it is; no copy was pointed at the dead tier.
        assert m.placement.policy.stats.promotions == 0
        assert m.metadata.lookup(b).level == 1


# -- predictor policy --------------------------------------------------------


class _StubMetadata:
    def __init__(self, infos):
        self._infos = infos

    def files(self):
        return list(self._infos)


class _StubHierarchy:
    """Hierarchy surface the sweep's back-off checks consult."""

    health = None


class _StubHandler:
    """Just enough PlacementHandler surface for pure-decision tests."""

    def __init__(self, infos):
        self.metadata = _StubMetadata(infos)
        self.placed: list[str] = []
        self.room = len(infos)
        self.arbiter = None
        self.hierarchy = _StubHierarchy()

    def place(self, info, have_content=False, mark_on_fail=True,
              speculative=False):
        if len(self.placed) >= self.room:
            return False
        self.placed.append(info.name)
        info.state = FileState.COPYING
        return True


def _infos(n, size=100 * KIB, owner=""):
    return [
        FileInfo(name=f"/d/f{i:03d}", size=size, level=1, owner=owner)
        for i in range(n)
    ]


class TestPredictorDecisions:
    def make(self, n_files=64, **kwargs):
        infos = _infos(n_files)
        pol = EpochPredictorPolicy(**kwargs)
        handler = _StubHandler(infos)
        pol.bind(handler)
        return pol, handler, infos

    def test_observing_admits_on_spec_up_to_budget_then_skips(self):
        pol, _handler, infos = self.make(hot_fraction=0.9)
        budget = max(2 * pol.observe_files, 4 * pol._scope_for("")[0])
        for info in infos[:budget]:
            assert pol.admit(info, 0, KIB, False)
        assert pol.stats.predicted_cold_skips == 0
        assert not pol.admit(infos[budget], 0, KIB, False)
        assert pol.stats.predicted_cold_skips == 1
        # ... but a file already on spec stays admitted (stable decision).
        assert pol.admit(infos[0], KIB, KIB, False)
        assert pol.verdict("") is None

    def test_aggregate_consumption_flips_hot_and_sweeps(self):
        pol, handler, infos = self.make(hot_fraction=0.01)
        # One file's worth of reads crosses 1% of the 64-file namespace.
        assert pol.admit(infos[0], 0, infos[0].size, False)
        assert pol.verdict("") is True
        # The sweep placed every still-PFS-resident file eagerly — the
        # triggering file included, since its own placement only happens
        # after admit() returns.
        assert pol.stats.eager_admissions == len(infos)
        assert set(handler.placed) == {i.name for i in infos}
        # Hot owners are admitted unconditionally from now on.
        assert pol.admit(infos[1], 0, KIB, False)
        assert pol.stats.predicted_cold_skips == 0

    def test_full_pass_window_flips_hot_despite_low_fraction(self):
        pol, _handler, infos = self.make(hot_fraction=0.9)
        info = infos[0]
        pos = 0
        while pos < info.size:
            pol.on_access(info, pos, 10 * KIB)
            pos += 10 * KIB
        # 64 files // 16 = window of 4 full passes.
        assert pol.verdict("") is None
        for other in infos[1:4]:
            pol.on_access(other, 0, other.size)
        assert pol.verdict("") is True

    def test_full_pass_tolerates_unread_trailing_padding(self):
        # Record shards carry padding the pipeline never reads; 95% of
        # the bytes must count as a completed pass.
        pol, _handler, infos = self.make(n_files=16, hot_fraction=0.9)
        info = infos[0]
        pol.on_access(info, 0, int(info.size * 0.96))
        assert info.name in pol._full[""]
        assert pol.verdict("") is True  # window is 1 for 16 files

    def test_completed_pass_is_direct_evidence_past_the_budget(self):
        pol, _handler, infos = self.make(hot_fraction=0.9)
        budget = max(2 * pol.observe_files, 4 * pol._scope_for("")[0])
        for info in infos[:budget]:
            assert pol.admit(info, 0, KIB, False)
        late = infos[budget]
        assert not pol.admit(late, 0, KIB, False)
        # Its own reads complete a pass: admitted on evidence, not spec.
        assert pol.admit(late, 0, late.size, True)
        assert pol.predicted_reread_rate("") > 0.0

    def test_sweep_stops_at_first_placement_failure(self):
        pol, handler, infos = self.make(n_files=32, hot_fraction=0.01)
        handler.room = 5
        pol.admit(infos[0], 0, infos[0].size, False)
        assert pol.stats.eager_admissions == 5
        assert len(handler.placed) == 5

    def test_owners_are_judged_independently(self):
        a = _infos(20, owner="a")
        b = _infos(20, owner="b")
        pol = EpochPredictorPolicy()
        handler = _StubHandler(a + b)
        pol.bind(handler)
        pol.admit(a[0], 0, a[0].size, False)
        assert pol.verdict("a") is True
        assert pol.verdict("b") is None
        assert all(name.startswith("/d/") for name in handler.placed)
        assert pol.stats.eager_admissions == len(a)  # only a's files

    def test_integration_sweep_caches_unread_files(
        self, sim, mounts, dataset_paths
    ):
        m = make_monarch(sim, mounts, policy="predictor")
        read_full(sim, m, dataset_paths[0])
        pol = m.placement.policy
        assert pol.verdict() is True
        assert pol.stats.eager_admissions == len(dataset_paths)
        for p in dataset_paths:
            assert m.metadata.lookup(p).state is FileState.CACHED


# -- deferred placements and fault interaction -------------------------------


def quarantine(m, level=0):
    for _ in range(3):
        m.health.record_fault(level)
    assert not m.health.is_placeable(level)


class TestDeferredRetry:
    def test_readmit_retries_deferred_placement(self, sim, mounts, dataset_paths):
        m = make_monarch(sim, mounts)
        quarantine(m)
        a = dataset_paths[0]
        read_slice(sim, m, a)
        assert m.placement.stats.deferred == 1
        assert a in m.placement._deferred
        scheduled_before = m.placement.stats.scheduled
        m.health.record_success(0)  # probe succeeds: tier re-admitted
        assert m.placement.stats.scheduled == scheduled_before + 1
        assert m.placement.policy.stats.deferred_retries == 1
        settle(sim)
        assert m.metadata.lookup(a).state is FileState.CACHED

    def test_abandoned_placement_does_not_resurrect_on_readmit(
        self, sim, mounts, dataset_paths
    ):
        m = make_monarch(sim, mounts)
        quarantine(m)
        a = dataset_paths[0]
        read_slice(sim, m, a)  # deferred while the tier is out
        m.health.record_success(0)  # readmit: the retry schedules a copy
        info = m.metadata.lookup(a)
        assert info.state is FileState.COPYING
        # The tier dies again before the queued copy runs; the worker's
        # health check abandons the task.  A historical bug left the
        # deferred entry behind, so the *next* readmit re-placed a copy
        # the job had already given up on.
        quarantine(m)
        m.placement._deferred[a] = None  # the stale entry of the old bug
        settle(sim)
        assert info.state is FileState.PFS_ONLY
        assert m.placement.stats.copy_giveups == 1
        assert a not in m.placement._deferred
        scheduled_before = m.placement.stats.scheduled
        m.health.record_success(0)
        assert m.placement.stats.scheduled == scheduled_before
        assert info.state is FileState.PFS_ONLY

    def test_deferred_entry_dropped_when_scheduled_normally(
        self, sim, mounts, dataset_paths
    ):
        m = make_monarch(sim, mounts)
        quarantine(m)
        a = dataset_paths[0]
        read_slice(sim, m, a)
        assert a in m.placement._deferred
        m.health.record_success(0)
        assert a not in m.placement._deferred


class TestPolicyFaultInteraction:
    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_no_placement_targets_dead_tier(self, sim, mounts, dataset_paths, policy):
        m = make_monarch(sim, mounts, policy=policy)
        quarantine(m)
        # No real fault is injected: hold the probe off, or the first
        # degraded-mode read past the cooldown would re-admit the tier.
        m.health._next_probe[0] = float("inf")
        for p in dataset_paths:
            read_slice(sim, m, p, settle=30.0)
        for p in dataset_paths:
            assert m.metadata.lookup(p).state is not FileState.CACHED
        assert m.hierarchy[0].fs.used_bytes == 0

    def test_heat_eviction_never_targets_quarantined_tier(
        self, sim, mounts, dataset_paths, tiny_manifest
    ):
        shard = tiny_manifest.shards[0].size_bytes
        tiers = (
            TierSpec(mount_point="/mnt/ssd", quota_bytes=shard + 10),
            TierSpec(mount_point="/mnt/pfs"),
        )
        m = make_monarch(sim, mounts, policy="heat", tiers=tiers)
        a, b = dataset_paths[0], dataset_paths[1]
        read_slice(sim, m, a, settle=30.0)
        assert m.metadata.lookup(a).state is FileState.CACHED
        quarantine(m)
        # Keep the tier down for the whole test: degraded-mode reads
        # drive health probes, and with no real fault injected a probe
        # would succeed and re-admit the tier early.
        m.health._next_probe[0] = float("inf")
        # b gets hot enough to displace a — but the tier is dead, so the
        # resident must not be evicted for a copy that cannot land.
        for _ in range(4):
            read_slice(sim, m, b, settle=30.0)
        assert m.placement.policy.stats.heat_evictions == 0
        assert m.metadata.lookup(a).state is FileState.CACHED
        assert m.metadata.lookup(b).state is FileState.PFS_ONLY

    def test_heat_replaces_cleanly_after_readmit(
        self, sim, mounts, dataset_paths, tiny_manifest
    ):
        shard = tiny_manifest.shards[0].size_bytes
        tiers = (
            TierSpec(mount_point="/mnt/ssd", quota_bytes=shard + 10),
            TierSpec(mount_point="/mnt/pfs"),
        )
        m = make_monarch(sim, mounts, policy="heat", tiers=tiers)
        a, b = dataset_paths[0], dataset_paths[1]
        read_slice(sim, m, a, settle=30.0)
        quarantine(m)
        for _ in range(4):
            read_slice(sim, m, b, settle=30.0)
        m.health.record_success(0)
        read_slice(sim, m, b, settle=30.0)
        assert m.metadata.lookup(b).state is FileState.CACHED
        assert m.placement.policy.stats.heat_evictions == 1
        fs = m.hierarchy[0].fs
        assert fs.used_bytes <= shard + 10

    def test_heat_churn_keeps_arbiter_ledger_consistent(self, sim, tiny_manifest):
        """Tier death mid-churn must not double-free fair-share charges."""
        shard = tiny_manifest.shards[0].size_bytes
        pfs = ParallelFileSystem(sim)
        ssd = LocalFileSystem(sim, Device(sim, SATA_SSD), capacity_bytes=2 * shard + 20)
        mounts = MountTable()
        mounts.mount("/mnt/ssd", ssd)
        mounts.mount("/mnt/pfs", pfs)
        paths_a = materialize(tiny_manifest, pfs, "/jobs/a")
        paths_b = materialize(tiny_manifest, pfs, "/jobs/b")
        cfg = MonarchConfig(
            tiers=(TierSpec(mount_point="/mnt/ssd"), TierSpec(mount_point="/mnt/pfs")),
            dataset_dir="/jobs/a",
            placement_threads=2,
            copy_chunk=256 * KIB,
            policy="heat",
        )
        m = Monarch(sim, cfg, mounts, rng=np.random.default_rng(0))
        ctx_a = m.register_job("a", "/jobs/a")
        ctx_b = m.register_job("b", "/jobs/b")
        drive(sim, m.initialize_job(ctx_a), name="init-a")
        drive(sim, m.initialize_job(ctx_b), name="init-b")
        read_slice(sim, m, paths_a[0], job="a", settle=30.0)
        read_slice(sim, m, paths_b[0], job="b", settle=30.0)
        # Skewed access drives churn, interrupted by a death + readmit.
        for i in range(3):
            read_slice(sim, m, paths_a[1], job="a", settle=30.0)
            if i == 1:
                quarantine(m)
                m.health.record_success(0)
        read_slice(sim, m, paths_b[1], job="b", settle=30.0)
        # The ledger must equal what is actually resident per job.
        for job in ("a", "b"):
            resident = sum(
                info.size
                for info in m.metadata.files()
                if info.owner == job
                and info.state in (FileState.CACHED, FileState.COPYING)
                and (info.level == 0 or info.pending_level == 0)
            )
            assert m.arbiter.admitted_bytes(job, 0) == resident
        assert ssd.used_bytes <= ssd.capacity_bytes
