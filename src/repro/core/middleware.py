"""The MONARCH facade and its framework integration (paper §III-B, §III-C).

:class:`Monarch` ties the three modules together and exposes the custom
``read(filename, offset, size)`` operation that replaces the framework's
POSIX ``pread``.  The operation flow follows Figure 2 of the paper:

1. look the file up in the metadata container (which tier holds it),
2. forward the read to that tier's storage driver,
3. if the file is still PFS-resident, hand it to the placement handler,
   which reserves space and schedules the background full-file copy,
4. once the copy completes, the file's level is updated and subsequent
   reads are redirected to the faster tier.

:class:`MonarchReader` adapts the facade to the framework's
:class:`~repro.framework.io_layer.DataReader` interface — the analogue of
the paper's 6-line TensorFlow change (a custom file-system driver whose
``pread`` calls ``Monarch.read`` with the *filename* instead of a file
descriptor).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.config import MonarchConfig
from repro.core.health import TierHealthTracker
from repro.core.hierarchy import StorageHierarchy
from repro.core.metadata import FileState, MetadataContainer
from repro.core.placement import PlacementHandler, make_eviction_policy
from repro.core.policy import make_policy
from repro.core.tenancy import FairShareArbiter, JobContext, NamespaceViolationError
from repro.faults.injector import is_fault_wrapped
from repro.framework.io_layer import DataReader, OpenFile, _LegacyDrive
from repro.simkernel.monitor import TagAccounting
from repro.storage.base import IOFaultError
from repro.storage.vfs import MountTable
from repro.telemetry.events import NULL_RECORDER
from repro.telemetry.metrics import MetricsRegistry

__all__ = ["Monarch", "MonarchReader", "MonarchStats"]


@dataclass
class MonarchStats:
    """Where reads were served from, per tier level — plus fault accounting."""

    reads_per_level: Counter[int] = field(default_factory=Counter)
    bytes_per_level: Counter[int] = field(default_factory=Counter)
    #: failed operations attributed to each tier level
    tier_faults: Counter[int] = field(default_factory=Counter)
    #: reads whose home tier was faulted/quarantined, served elsewhere
    fallback_reads: int = 0
    #: extra attempts spent in the PFS read-retry loop
    read_retries: int = 0

    def record(self, level: int, nbytes: int) -> None:
        """Account one read served from ``level`` (hot path: one op each)."""
        self.reads_per_level[level] += 1
        self.bytes_per_level[level] += nbytes

    @property
    def total_reads(self) -> int:
        """All reads served through the middleware."""
        return sum(self.reads_per_level.values())

    @property
    def total_faults(self) -> int:
        """All failed operations the middleware observed."""
        return sum(self.tier_faults.values())

    def hit_ratio(self, pfs_level: int) -> float:
        """Fraction of reads served from tiers above the PFS."""
        total = self.total_reads
        if total == 0:
            return 0.0
        return 1.0 - self.reads_per_level.get(pfs_level, 0) / total

    def counters(self) -> dict[str, int]:
        """Flat, deterministic counter view (metrics + test assertions)."""
        out: dict[str, int] = {}
        for level in sorted(self.reads_per_level):
            out[f"monarch.reads.l{level}"] = self.reads_per_level[level]
        for level in sorted(self.bytes_per_level):
            out[f"monarch.bytes.l{level}"] = self.bytes_per_level[level]
        for level in sorted(self.tier_faults):
            out[f"monarch.tier_faults.l{level}"] = self.tier_faults[level]
        out["monarch.fallback_reads"] = self.fallback_reads
        out["monarch.read_retries"] = self.read_retries
        return out


class Monarch:
    """Framework-agnostic hierarchical storage middleware."""

    def __init__(
        self,
        sim: Any,
        config: MonarchConfig,
        mounts: MountTable,
        rng: np.random.Generator | None = None,
        recorder=None,
        accounting: TagAccounting | None = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.mounts = mounts
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.accounting = accounting
        self.hierarchy = StorageHierarchy.from_config(config, mounts)
        self.metadata = MetadataContainer()
        self._health = TierHealthTracker(
            n_levels=len(self.hierarchy),
            pfs_level=self.hierarchy.pfs_level,
            clock=lambda: sim.now,
            quarantine_threshold=config.quarantine_threshold,
            probe_interval_s=config.probe_interval_s,
            recorder=self.recorder,
        )
        # Placement consults the same tracker: quarantined tiers take no
        # new files until a read probe re-admits them.
        self.hierarchy.health = self._health
        policy = make_policy(
            config.policy, eviction=make_eviction_policy(config.eviction, rng), rng=rng
        )
        self.placement = PlacementHandler(
            sim=sim,
            hierarchy=self.hierarchy,
            metadata=self.metadata,
            n_threads=config.placement_threads,
            copy_chunk=config.copy_chunk,
            full_fetch_on_partial_read=config.full_fetch_on_partial_read,
            eviction=make_eviction_policy(config.eviction, rng),
            policy=policy,
            rng=rng,
            copy_retries=config.copy_retries,
            retry_backoff_s=config.retry_backoff_s,
            recorder=self.recorder,
            accounting=accounting,
        )
        # Cached-read access hook: None for policies that don't track
        # access so the hot path pays a single comparison, not a call.
        self._on_access = policy.on_access if policy.tracks_access else None
        # Deferred placements retry as soon as a quarantined tier returns.
        self._health.on_readmit = self.placement.on_tier_readmitted
        self.stats = MonarchStats()
        #: per-job read accounting, keyed by job id (multi-job runs)
        self.job_stats: dict[str, MonarchStats] = {}
        #: fair-share admission caps; created by the first register_job
        self.arbiter: FairShareArbiter | None = None
        self._initialized = False

    @property
    def health(self) -> TierHealthTracker:
        """Per-tier quarantine/re-admission state."""
        return self._health

    # -- lifecycle ---------------------------------------------------------
    def initialize(self) -> Generator[Any, Any, None]:
        """Startup: build the virtual namespace by traversing the dataset.

        Timed — this is the metadata-initialization phase the paper reports
        as ~13 s (100 GiB dataset) and ~52 s (200 GiB dataset).
        """
        if self._initialized:
            raise RuntimeError("Monarch already initialized")
        yield from self.metadata.build(
            self.hierarchy.pfs,
            self.config.dataset_dir,
            self.hierarchy.pfs_level,
            clock_now=lambda: self.sim.now,
        )
        self._initialized = True

    # -- multi-job tenancy -------------------------------------------------
    def register_job(self, job_id: str, dataset_dir: str, share: float = 1.0) -> JobContext:
        """Attach one more concurrent job to this hierarchy.

        The first registration creates the :class:`FairShareArbiter` and
        hands it to the placement handler; from then on every registered
        job's placements are capped at its fair share of each tier's
        quota.  Untimed — the job's own (timed) namespace build happens in
        :meth:`JobContext.initialize`.
        """
        if self.arbiter is None:
            self.arbiter = FairShareArbiter()
            self.placement.arbiter = self.arbiter
        self.arbiter.register(job_id, share)
        self.job_stats[job_id] = MonarchStats()
        return JobContext(monarch=self, job_id=job_id, dataset_dir=dataset_dir, share=share)

    def initialize_job(self, ctx: JobContext) -> Generator[Any, Any, None]:
        """Build one job's namespace (its dataset directory, owner-tagged).

        Timed like single-tenant :meth:`initialize`; concurrent jobs
        traverse their directories through the same contended MDS.  Reads
        are enabled once the first job's namespace is up — each job only
        reads its own files, which exist exactly when *its* build is done.
        """
        if ctx.job_id not in self.job_stats:
            raise RuntimeError(f"job {ctx.job_id!r} not registered")
        yield from self.metadata.build(
            self.hierarchy.pfs,
            ctx.dataset_dir,
            self.hierarchy.pfs_level,
            clock_now=lambda: self.sim.now,
            owner=ctx.job_id,
        )
        self._initialized = True

    def prestage(self) -> Generator[Any, Any, None]:
        """Placement option (i) of §III-A: stage files *before* training.

        Schedules a background copy for every namespace file (first-fit,
        until the tiers fill) and blocks until the pool drains.  The paper
        chose option (ii) — placement during the first epoch — "to prevent
        any delay in the training execution time" while issuing "the same
        number of operations to the PFS backend"; this method exists to
        make that design choice measurable (ABL-TIMING).
        """
        if not self._initialized:
            raise RuntimeError("Monarch.prestage before initialize()")
        for info in self.metadata.files():
            self.placement.on_read(info, 0, 0, covered_full_file=False)
        yield from self.placement.drain()

    def shutdown(self) -> None:
        """Job teardown: stop the pool, drop the ephemeral namespace."""
        self.placement.shutdown()
        for _level, driver in self.hierarchy.upper_levels():
            driver.drop_handles()
        self.hierarchy.pfs.drop_handles()
        self.metadata.clear()
        self._initialized = False

    # -- the custom read operation -------------------------------------------
    def file_size(self, name: str) -> int:
        """Size from the virtual namespace (no storage round trip)."""
        return self.metadata.lookup(name).size

    def read(self, name: str, offset: int, nbytes: int, job: str = "") -> Generator[Any, Any, int]:
        """The middleware's replacement for POSIX ``pread``.

        ``name`` is the file's logical (PFS-relative) path — the paper's
        ``Monarch.read`` takes a filename rather than a descriptor.
        ``job`` identifies the calling job in multi-job runs; reads are
        confined to the caller's own namespace.
        """
        if not self._initialized:
            raise RuntimeError("Monarch.read before initialize()")
        info = self.metadata.lookup(name)
        if info.owner != job:
            raise NamespaceViolationError(
                f"job {job!r} read {name!r} owned by job {info.owner!r}"
            )
        job_stats = self.job_stats[job] if job else None
        # Handle resolution + pread are inlined (rather than calling
        # driver.read) to keep one generator frame off every resume on the
        # framework's hottest path.  Until the first fault is observed the
        # only degradation overhead on this path is the try frame and one
        # attribute check (``health.dirty``).
        health = self._health
        if info.state is FileState.CACHED:
            level = info.level
            if not health.dirty or health.should_attempt(level):
                driver = self.hierarchy[level]
                try:
                    handle = yield from driver._handle_for(name)
                    n = yield from driver.fs.pread(handle, offset, nbytes)
                except IOFaultError:
                    health.record_fault(level)
                    self.stats.tier_faults[level] += 1
                else:
                    if health.dirty:
                        health.record_success(level)
                    self.stats.record(level, n)
                    if job_stats is not None:
                        job_stats.record(level, n)
                    if self._on_access is not None:
                        self._on_access(info, offset, n)
                    return n
            # Home tier faulted or quarantined: route around it.
            n = yield from self._fallback_read(info, offset, nbytes, job_stats)
            if self._on_access is not None:
                self._on_access(info, offset, n)
            return n
        # Still (or permanently) on the PFS: serve from the last tier and
        # let the placement handler decide on a background copy.
        pfs_level = self.hierarchy.pfs_level
        pfs = self.hierarchy.pfs
        if health.dirty:
            yield from self._probe_quarantined()
        try:
            handle = yield from pfs._handle_for(name)
            n = yield from pfs.fs.pread(handle, offset, nbytes)
        except IOFaultError:
            self.stats.tier_faults[pfs_level] += 1
            health.record_fault(pfs_level)
            n = yield from self._pfs_read_retrying(name, offset, nbytes)
        self.stats.record(pfs_level, n)
        if job_stats is not None:
            job_stats.record(pfs_level, n)
        covered_full = offset == 0 and n >= info.size
        self.placement.on_read(info, offset, nbytes, covered_full)
        return n

    def _fallback_read(
        self, info: Any, offset: int, nbytes: int, job_stats: MonarchStats | None = None
    ) -> Generator[Any, Any, int]:
        """Serve a read whose home tier is faulted or quarantined.

        Routes through the next healthy tier that actually holds the
        bytes, ultimately the PFS (which, as the data source, always
        does).  The PFS leg gets the bounded retry budget; intermediate
        tiers fail over immediately.
        """
        health = self._health
        name = info.name
        pfs_level = self.hierarchy.pfs_level
        for level in range(info.level + 1, pfs_level):
            driver = self.hierarchy[level]
            if not health.should_attempt(level) or not driver.has(name):
                continue
            try:
                handle = yield from driver._handle_for(name)
                n = yield from driver.fs.pread(handle, offset, nbytes)
            except IOFaultError:
                health.record_fault(level)
                self.stats.tier_faults[level] += 1
                continue
            health.record_success(level)
            self.stats.record(level, n)
            if job_stats is not None:
                job_stats.record(level, n)
                job_stats.fallback_reads += 1
            self.stats.fallback_reads += 1
            if self.recorder.enabled:
                self.recorder.emit("read.fallback", name, level=level)
            return n
        pfs = self.hierarchy.pfs
        try:
            handle = yield from pfs._handle_for(name)
            n = yield from pfs.fs.pread(handle, offset, nbytes)
        except IOFaultError:
            self.stats.tier_faults[pfs_level] += 1
            health.record_fault(pfs_level)
            n = yield from self._pfs_read_retrying(name, offset, nbytes)
        self.stats.record(pfs_level, n)
        if job_stats is not None:
            job_stats.record(pfs_level, n)
            job_stats.fallback_reads += 1
        self.stats.fallback_reads += 1
        if self.recorder.enabled:
            self.recorder.emit("read.fallback", name, level=pfs_level)
        return n

    def _probe_quarantined(self) -> Generator[Any, Any, None]:
        """Drive due health probes from a degraded-mode PFS read.

        Reads of files cached on a quarantined tier probe it naturally
        through :meth:`TierHealthTracker.should_attempt`, but whether such
        reads happen at all depends on the workload's remaining mix — a
        stretch of purely PFS-resident reads would leave a recovered tier
        un-probed long past its due time.  Probing from the PFS path keeps
        re-admission latency a property of the probe cadence, not of which
        files the epoch happens to touch.  The probe is a one-byte read of
        a known resident or, on a tier that holds none (it faulted before
        its first copy landed), a listing of the tier's dataset directory:
        a metadata op, which the fault proxy checks like any other.  A
        failed probe is a zero-time injected error.
        """
        health = self._health
        for level in health.quarantined_levels():
            if not health.should_attempt(level):
                continue
            name = self.placement.probe_candidate(level)
            driver = self.hierarchy[level]
            try:
                if name is None:
                    yield from driver.fs.listdir(driver.local_path(self.config.dataset_dir))
                else:
                    handle = yield from driver._handle_for(name)
                    yield from driver.fs.pread(handle, 0, 1)
            except IOFaultError:
                health.record_fault(level)
                self.stats.tier_faults[level] += 1
            else:
                health.record_success(level)

    def _pfs_read_retrying(self, name: str, offset: int, nbytes: int) -> Generator[Any, Any, int]:
        """Retry a last-resort PFS read with exponential backoff.

        Entered after a first attempt already failed.  Backoff holds reuse
        the simulator's pooled timeout events; on exhaustion the last
        fault propagates to the framework — there is nowhere left to read
        from.
        """
        pfs = self.hierarchy.pfs
        pfs_level = self.hierarchy.pfs_level
        backoff = self.config.retry_backoff_s
        last: IOFaultError | None = None
        for attempt in range(self.config.read_retries):
            self.stats.read_retries += 1
            if self.recorder.enabled:
                self.recorder.emit("read.retry", name, attempt=attempt + 1)
            if backoff > 0.0:
                ev = self.sim._pooled_timeout(backoff * (2 ** attempt))
                yield ev
                self.sim._recycle(ev)
            try:
                handle = yield from pfs._handle_for(name)
                n = yield from pfs.fs.pread(handle, offset, nbytes)
            except IOFaultError as err:
                last = err
                self.stats.tier_faults[pfs_level] += 1
                self._health.record_fault(pfs_level)
                continue
            self._health.record_success(pfs_level)
            return n
        if last is None:
            last = IOFaultError(f"PFS read of {name}: no retry budget")
        raise last

    def publish_metrics(self, registry: MetricsRegistry | None = None) -> MetricsRegistry:
        """Surface every middleware counter through the telemetry registry.

        Read/fault/fallback/retry counts from :class:`MonarchStats`, the
        placement handler's copy accounting, and the health tracker's
        quarantine history — one flat namespace, suitable for diffing two
        runs in determinism tests.

        Every value is a *snapshot* of a lifetime total, so publishing is
        set-on-publish: re-publishing into the same registry refreshes the
        values instead of double-counting them.
        """
        reg = registry if registry is not None else MetricsRegistry()
        for name, value in self.stats.counters().items():
            reg.set_counter(name, value)
        ps = self.placement.stats
        for field_name in (
            "scheduled",
            "completed",
            "unplaceable",
            "evictions",
            "bytes_copied",
            "pfs_bytes_fetched",
            "copy_retries",
            "copy_giveups",
            "deferred",
        ):
            reg.set_counter(f"placement.{field_name}", getattr(ps, field_name))
        policy = self.placement.policy
        if policy.name != "firstfit":
            # Only non-default policies publish their counters: the
            # default's RunReports must stay byte-identical to the
            # pre-policy-interface golden fixtures.
            for name, value in sorted(policy.counters().items()):
                reg.set_counter(f"policy.{name}", value)
        for name, value in self._health.counters().items():
            reg.set_counter(name, value)
        if self.arbiter is not None:
            for name, value in self.arbiter.counters().items():
                reg.set_counter(name, value)
        for job_id in sorted(self.job_stats):
            for name, value in self.job_stats[job_id].counters().items():
                reg.set_counter(f"jobs.{job_id}.{name}", value)
        return reg


def _take(info: Any, offset: int, nbytes: int) -> int:
    """Bytes a read of ``info`` at ``offset`` transfers: ``nbytes``,
    clipped to the end of the file."""
    take = info.size - offset
    if take > nbytes:
        return nbytes
    return take if take > 0 else 0


class _MonarchToken:
    """Per-open state for the fused read path (stored in ``OpenFile.token``).

    Caches the namespace lookup plus, per tier level, the resolved driver
    and its bound continuation entry point, so a steady-state resident
    read pays one dict get and a handful of attribute checks before the
    backend's ``pread_begin``.  ``level`` is the level ``driver``/``pb``
    were resolved for (-1 until the first resident read); it is
    re-validated against ``info.level`` on every read, so promotions and
    evictions re-resolve naturally.
    """

    __slots__ = ("info", "key", "level", "driver", "pb")

    def __init__(self, info: Any, key: str) -> None:
        self.info = info
        self.key = key
        self.level = -1
        self.driver: Any = None
        self.pb: Any = None


class _ReadDone:
    """Pooled completion continuation for the fused read paths.

    Carries exactly the bookkeeping ``Monarch.read`` performs when its
    generator resumes at the transfer-completion instant, then chains to
    the caller's callback in the same dispatch slot.  ``on_pfs`` picks
    the branch:

    * a resident fast-tier hit: conditional health success, tier stats,
      the policy access hook.  ``health.dirty`` is re-read here, not
      captured at issue, because the generator form evaluates it at
      completion time too (a fault elsewhere mid-flight makes this
      read's success count toward re-admission);
    * a PFS-resident read: PFS-level stats, then the placement handler's
      ``on_read`` with the requested size — no health bookkeeping, as in
      the generator's PFS branch.

    A PFS read issued before its file's handle is open first runs
    :meth:`opened` at the open's completion.
    """

    __slots__ = ("reader", "info", "offset", "nbytes", "level", "n", "cb",
                 "on_pfs", "handle")

    def opened(self, ev: Any) -> None:
        """PFS open completion: cache the handle, then issue the read.

        The handle is stored here, not at issue, because that is where
        ``StorageDriver._handle_for`` stores it; the read is issued in
        this slot, where the generator issues it.
        """
        pfs = self.reader._pfs
        handle = self.handle
        self.handle = None
        pfs._handles[pfs.local_path(self.info.name)] = handle
        self.n = pfs.fs.pread_begin(handle, self.offset, self.nbytes, self)

    def __call__(self, ev: Any) -> None:
        reader = self.reader
        m = reader.monarch
        info = self.info
        n = self.n
        if self.on_pfs:
            m.stats.record(self.level, n)
            offset = self.offset
            m.placement.on_read(info, offset, self.nbytes, offset == 0 and n >= info.size)
        else:
            health = m._health
            if health.dirty:
                health.record_success(self.level)
            m.stats.record(self.level, n)
            on_access = m._on_access
            if on_access is not None:
                on_access(info, self.offset, n)
        cb = self.cb
        self.info = None
        self.cb = None
        reader._done_pool.append(self)
        cb(ev)


class MonarchReader(DataReader):
    """The framework-side shim: DataReader backed by ``Monarch.read``.

    ``job`` binds the reader to one job's namespace in multi-job runs;
    the default empty job is the single-tenant global namespace.

    The reader speaks the fused continuation protocol (``open_begin`` /
    ``pread_begin``), so monarch cells engage the pipeline's fused reader
    FSMs.  Routing is per read.  On a healthy single-tenant hierarchy
    both clean read shapes run as continuations, with the middleware
    bookkeeping folded into a pooled completion continuation: a resident
    fast-tier hit, and a read of a PFS-resident (``PFS_ONLY``,
    ``COPYING`` or ``UNPLACEABLE``) file.  The remaining reads replay
    the legacy ``Monarch.read`` generator through :class:`_LegacyDrive`,
    which preserves its slot-for-slot behaviour: reads under dirty health
    (a fault or quarantine seen), tenant-job reads, and reads on
    fault-wrapped mounts (:func:`~repro.faults.injector.is_fault_wrapped`),
    since only the generator owns fallback, retry and quarantine.
    """

    #: fused opens resolve from the virtual namespace with no timed op
    open_is_sync = True

    def __init__(self, monarch: Monarch, job: str = "") -> None:
        self.monarch = monarch
        self.job = job
        self._done_pool: list[_ReadDone] = []
        self._drive_pool: list[_LegacyDrive] = []
        self._pfs = monarch.hierarchy.pfs
        self._pfs_level = monarch.hierarchy.pfs_level

    def open(self, path: str) -> Generator[Any, Any, OpenFile]:
        """Resolve size from the virtual namespace (no PFS open)."""
        name = self._logical_name(path)
        size = self.monarch.file_size(name)
        if False:  # pragma: no cover - keeps this a generator without a timed op
            yield None
        return OpenFile(path=name, size=size, token=None)

    def pread(self, f: OpenFile, offset: int, nbytes: int) -> Generator[Any, Any, int]:
        n = yield from self.monarch.read(f.path, offset, nbytes, self.job)
        return n

    def _logical_name(self, path: str) -> str:
        """Strip the PFS mount point: MONARCH names files PFS-relative."""
        pfs_mount = self.monarch.hierarchy.pfs.mount_point
        if path.startswith(pfs_mount):
            rel = path[len(pfs_mount):]
            return rel or "/"
        return path

    # -- fused (continuation-style) protocol ---------------------------
    def fused_capable(self, paths: list[str]) -> bool:
        """Monarch cells always engage the fused FSMs.

        Capability is unconditional because routing is per *read*, not
        per epoch: a read that can't be inlined (miss, COPYING, faulted
        or quarantined tier, tenancy check, fault-wrapped backend) runs
        the legacy generator through :class:`_LegacyDrive` in the same
        dispatch slots.
        """
        return True

    def fused_miss(self, paths: list[str]) -> str | None:
        """Per-read routing means there is never a capability miss."""
        return None

    def open_begin(self, path: str, cb: Any) -> OpenFile:
        """Fused open: namespace resolution only, no timed op.

        ``cb`` is never scheduled — :attr:`open_is_sync` tells the FSM
        to chain straight into the first read, exactly where the
        zero-yield generator ``open`` would have continued.
        """
        name = self._logical_name(path)
        info = self.monarch.metadata.lookup(name)
        return OpenFile(
            path=name,
            size=info.size,
            token=_MonarchToken(info, "/" + name.lstrip("/")),
        )

    def pread_begin(self, f: OpenFile, offset: int, nbytes: int, cb: Any) -> int:
        """Fused pread: inline the clean read shapes, else replay the
        legacy generator continuation-style.

        Both inlined shapes need a healthy hierarchy, an initialized
        middleware and the single-tenant namespace.  Everything they skip
        relative to ``Monarch.read`` is either statically impossible here
        (tenancy checks with no owner, per-job stats with no job, health
        probes with clean health) or folded into the pooled
        :class:`_ReadDone` completion continuation.

        * A CACHED file with an already-open handle on a tier that is
          not fault-wrapped — the steady-state shape of every epoch past
          the first.
        * Any other file, when the PFS mount is not fault-wrapped: the
          PFS branch of ``Monarch.read``.  With no open handle the
          read chains behind ``open_begin``, as the generator's
          ``_handle_for`` does.

        Reads under dirty health, tenant-job reads and reads on
        fault-wrapped mounts run the ``Monarch.read`` generator.
        """
        m = self.monarch
        tok: _MonarchToken = f.token
        info = tok.info
        if not m._health.dirty and not self.job and not info.owner and m._initialized:
            if info.state is not FileState.CACHED:
                pfs = self._pfs
                if not is_fault_wrapped(pfs.fs):
                    return self._pfs_begin(pfs, tok.key, info, offset, nbytes, cb)
            else:
                level = info.level
                if level != tok.level:
                    driver = m.hierarchy[level]
                    tok.driver = driver
                    tok.level = level
                    tok.pb = (
                        None if is_fault_wrapped(driver.fs) else driver.fs.pread_begin
                    )
                pb = tok.pb
                if pb is not None:
                    handle = tok.driver._handles.get(tok.key)
                    if handle is not None:
                        pool = self._done_pool
                        done = pool.pop() if pool else _ReadDone()
                        done.reader = self
                        done.info = info
                        done.offset = offset
                        done.level = level
                        done.on_pfs = False
                        done.cb = cb
                        # The backend never invokes ``done`` synchronously
                        # (protocol guarantee), so setting ``n`` after the
                        # call is race-free.
                        n = pb(handle, offset, nbytes, done)
                        done.n = n
                        return n
        return self._legacy_begin(
            m.read(info.name, offset, nbytes, self.job), info, offset, nbytes, cb
        )

    def _pfs_begin(
        self, pfs: Any, key: str, info: Any, offset: int, nbytes: int, cb: Any
    ) -> int:
        """The PFS branch of ``Monarch.read`` as a continuation chain."""
        pool = self._done_pool
        done = pool.pop() if pool else _ReadDone()
        done.reader = self
        done.info = info
        done.offset = offset
        done.nbytes = nbytes
        done.level = self._pfs_level
        done.on_pfs = True
        done.cb = cb
        handle = pfs._handles.get(key)
        if handle is not None:
            n = pfs.fs.pread_begin(handle, offset, nbytes, done)
            done.n = n
            return n
        # Neither callback runs synchronously, so storing the handle
        # after ``open_begin`` returns is race-free too.
        done.handle = pfs.fs.open_begin(key, done.opened)
        return _take(info, offset, nbytes)

    def _legacy_begin(
        self, gen: Any, info: Any, offset: int, nbytes: int, cb: Any
    ) -> int:
        """Replay a legacy read generator under the fused protocol."""
        take = _take(info, offset, nbytes)
        pool = self._drive_pool
        drive = pool.pop() if pool else _LegacyDrive(self.monarch.sim, pool)
        drive.start(gen, cb, take)
        return take

    def pread_begin_bound(self, f: OpenFile) -> tuple[Any, OpenFile]:
        """Routing is per read, so the bound form is ``pread_begin``."""
        return self.pread_begin, f
