"""Placement handler: runtime data placement + background copy pool.

Implements the paper's §III-A/§III-B placement machinery:

* **First-fit descending** — a file goes to the highest tier with room;
  when every read-write tier is full the file is marked unplaceable and
  served from the PFS for the rest of the job.  *No evictions* by default:
  under uniform-random per-epoch access, replacement only adds inter-tier
  traffic (the paper's argument; the ABL-EVICT ablation makes it
  measurable by plugging in LRU/FIFO/random policies).
* **Placement during epoch 1** — placement piggybacks on the framework's
  first-epoch reads; nothing is prestaged.
* **Thread pool** — a dedicated pool of background workers copies files
  from the PFS tier upward, so the framework's reads are never delayed by
  placement work.
* **Full-file fetch on partial reads** — when the framework asks for a
  slice of a large record file, the worker streams the *whole* file from
  the PFS (sequentially, which the PFS serves at full aggregate bandwidth)
  so every later slice hits the fast tier.  When the framework already
  read the full content, the PFS re-read is skipped and the content is
  written directly (the paper's "event 3 would not happen").

Space is *reserved* at enqueue time so concurrent copies can never
overcommit a tier.

Multi-job tenancy (see :mod:`repro.core.tenancy`) threads through here in
two places: an optional :class:`~repro.core.tenancy.FairShareArbiter`
vetoes first-fit levels where the owning job is at its admission cap, and
the copy queue drains per-job backlogs round-robin so one job's burst of
scheduled copies cannot monopolise the background pool.  Without an
arbiter (single-tenant runs) both mechanisms reduce to the original
first-fit + FIFO behaviour, event for event.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Generator
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.hierarchy import StorageHierarchy
from repro.core.metadata import FileInfo, FileState, MetadataContainer
from repro.core.tenancy import FairShareArbiter
from repro.simkernel.monitor import TagAccounting
from repro.simkernel.core import Process, Simulator
from repro.simkernel.resources import Store
from repro.storage.base import IOFaultError, NoSpaceError, TierFailedError
from repro.storage.blockmath import jitter_from_normal
from repro.storage.localfs import LocalFileSystem
from repro.storage.pfs import ParallelFileSystem
from repro.telemetry.events import NULL_RECORDER

__all__ = [
    "EvictionPolicy",
    "FifoEviction",
    "LruEviction",
    "NoEviction",
    "PlacementHandler",
    "PlacementStats",
    "RandomEviction",
]

#: queue sentinel telling a pool worker to exit
_STOP = object()

#: wake-up token for the worker store; tasks live in the per-job queues
_TASK = object()


@dataclass
class _CopyTask:
    info: FileInfo
    target_level: int
    #: framework already read the full content; skip the PFS re-read
    have_content: bool = False
    #: write-through mode only: bytes of the triggering read to mirror
    increment: int | None = None
    #: private jitter substream, spawned at enqueue (see _enqueue)
    rng: np.random.Generator | None = None
    #: owning job ("" for the single-tenant namespace)
    job: str = ""
    #: policy-driven up-tier move: the level the file is promoted *from*
    #: (None for ordinary PFS-to-tier placements)
    promote_from: int | None = None
    #: staged ahead of any read (eager sweep); drains behind demand copies
    speculative: bool = False


class _JobBacklog:
    """One job's copy backlog, two priority classes.

    Demand copies (triggered by an actual read of the file) always drain
    ahead of speculative ones (staged by a policy sweep before any read),
    so a deep eager burst can never delay the copy a read is waiting on —
    within each class order stays FIFO.  A queued speculative task whose
    file *does* get read is expedited into the demand class at that
    moment, so the drain order converges on the actual access order.
    With no speculative tasks this is exactly the original single FIFO.
    """

    __slots__ = ("demand", "spec")

    def __init__(self) -> None:
        self.demand: deque[_CopyTask] = deque()
        self.spec: deque[_CopyTask] = deque()

    def __len__(self) -> int:
        return len(self.demand) + len(self.spec)

    def push(self, task: _CopyTask) -> None:
        (self.spec if task.speculative else self.demand).append(task)

    def pop(self) -> _CopyTask:
        return self.demand.popleft() if self.demand else self.spec.popleft()


@dataclass
class PlacementStats:
    """Counters the placement handler maintains."""

    scheduled: int = 0
    completed: int = 0
    unplaceable: int = 0
    evictions: int = 0
    bytes_copied: int = 0
    pfs_bytes_fetched: int = 0
    #: transient-fault retries spent by copy tasks
    copy_retries: int = 0
    #: copy tasks that gave up (hard failure, ENOSPC, retry budget spent)
    copy_giveups: int = 0
    #: placements deferred because a quarantined tier blocked first-fit
    deferred: int = 0


class EvictionPolicy:
    """Victim selection when a tier is full (ablation only; paper: none)."""

    name = "abstract"

    def select_victims(
        self,
        handler: "PlacementHandler",
        level: int,
        need_bytes: int,
    ) -> list[FileInfo]:
        """Cached files on ``level`` to evict so ``need_bytes`` fit."""
        raise NotImplementedError

    def _collect(
        self,
        handler: "PlacementHandler",
        level: int,
        need_bytes: int,
        ordered: list[FileInfo],
    ) -> list[FileInfo]:
        victims: list[FileInfo] = []
        free = handler.effective_free(level)
        for info in ordered:
            if free is not None and free >= need_bytes:
                break
            victims.append(info)
            free = (free or 0) + info.size
        if free is not None and free < need_bytes:
            return []  # cannot make room even by evicting everything
        return victims


class NoEviction(EvictionPolicy):
    """The paper's policy: never evict; full tiers stay full."""

    name = "none"

    def select_victims(
        self, handler: "PlacementHandler", level: int, need_bytes: int
    ) -> list[FileInfo]:
        return []


class LruEviction(EvictionPolicy):
    """Evict least-recently-read cached files first."""

    name = "lru"

    def select_victims(
        self, handler: "PlacementHandler", level: int, need_bytes: int
    ) -> list[FileInfo]:
        # Resolve the tier and its type once, not per sort-key call.
        tier = handler.hierarchy[level]
        fs = tier.fs
        if isinstance(fs, LocalFileSystem):
            local_path = tier.local_path
            last_access = fs.last_access_time

            def access_time(info: FileInfo) -> float:
                return last_access(local_path(info.name))
        else:
            def access_time(info: FileInfo) -> float:
                return 0.0

        ordered = sorted(handler.cached_on_level(level), key=access_time)
        return self._collect(handler, level, need_bytes, ordered)


class FifoEviction(EvictionPolicy):
    """Evict in placement order."""

    name = "fifo"

    def select_victims(
        self, handler: "PlacementHandler", level: int, need_bytes: int
    ) -> list[FileInfo]:
        order = handler.placement_order(level)
        ordered = sorted(handler.cached_on_level(level), key=lambda i: order.get(i.name, 0))
        return self._collect(handler, level, need_bytes, ordered)


class RandomEviction(EvictionPolicy):
    """Evict uniformly at random."""

    name = "random"

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def select_victims(
        self, handler: "PlacementHandler", level: int, need_bytes: int
    ) -> list[FileInfo]:
        pool = handler.cached_on_level(level)
        idx = self.rng.permutation(len(pool))
        ordered = [pool[int(i)] for i in idx]
        return self._collect(handler, level, need_bytes, ordered)


def make_eviction_policy(name: str, rng: np.random.Generator | None = None) -> EvictionPolicy:
    """Factory from the config's policy name."""
    if name == "none":
        return NoEviction()
    if name == "lru":
        return LruEviction()
    if name == "fifo":
        return FifoEviction()
    if name == "random":
        if rng is None:
            raise ValueError("random eviction needs an RNG")
        return RandomEviction(rng)
    raise ValueError(f"unknown eviction policy {name!r}")


class PlacementHandler:
    """Selects target tiers and runs the background copy pool."""

    def __init__(
        self,
        sim: Simulator,
        hierarchy: StorageHierarchy,
        metadata: MetadataContainer,
        n_threads: int = 6,
        copy_chunk: int = 1 << 20,
        full_fetch_on_partial_read: bool = True,
        eviction: EvictionPolicy | None = None,
        policy=None,
        rng: np.random.Generator | None = None,
        copy_retries: int = 3,
        retry_backoff_s: float = 0.01,
        recorder=None,
        arbiter: FairShareArbiter | None = None,
        accounting: TagAccounting | None = None,
    ) -> None:
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        if copy_retries < 0:
            raise ValueError("copy_retries must be >= 0")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        self.sim = sim
        self.hierarchy = hierarchy
        self.metadata = metadata
        self.copy_chunk = copy_chunk
        self.full_fetch = full_fetch_on_partial_read
        self.eviction = eviction or NoEviction()
        if policy is None:
            # Local import: the policy package imports this module for the
            # legacy EvictionPolicy classes.
            from repro.core.policy.firstfit import FirstFitPolicy

            policy = FirstFitPolicy(self.eviction)
        self.policy = policy
        self.policy.bind(self)
        self.copy_retries = copy_retries
        self.retry_backoff_s = retry_backoff_s
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.arbiter = arbiter
        self.accounting = accounting
        self.stats = PlacementStats()
        self._queue = Store(sim, capacity=None, name="placement-queue")
        # Copy-bandwidth fair share: one backlog per job, drained
        # round-robin.  With a single job this is exactly a FIFO.
        self._job_queues: dict[str, _JobBacklog] = {}
        self._rr: deque[str] = deque()
        # Speculative tasks still sitting in a backlog, by file name, so a
        # read of a staged-but-not-started file can expedite its copy.
        self._spec_queued: dict[str, _CopyTask] = {}
        self._reserved: dict[int, int] = {lvl: 0 for lvl, _ in hierarchy.upper_levels()}
        self._placed: dict[int, list[str]] = {lvl: [] for lvl, _ in hierarchy.upper_levels()}
        self._order_counter = 0
        self._order: dict[int, dict[str, int]] = {lvl: {} for lvl, _ in hierarchy.upper_levels()}
        self._workers: list[Process] = [
            sim.spawn(self._worker(), name=f"placement-{i}") for i in range(n_threads)
        ]
        # Per-file write-through progress for the ABL-FETCH variant.
        self._partial_written: dict[str, int] = {}
        # Placements deferred while a quarantined tier blocked first-fit,
        # re-attempted when a tier is re-admitted (insertion-ordered set).
        # Entries are dropped the moment a file is scheduled, abandoned or
        # written off, so a retry can never resurrect a given-up placement.
        self._deferred: dict[str, None] = {}
        # Outstanding background tasks + waiters for drain().
        self._outstanding = 0
        self._idle_waiters: list[Any] = []
        #: called as (name, level, resident) when a file lands on a tier
        #: (copy/promotion completed) or leaves it (eviction); the
        #: distributed peer-cache directory listens here
        self.residency_listener: Callable[[str, int, bool], None] | None = None

    # -- space accounting --------------------------------------------------
    def effective_free(self, level: int) -> int | None:
        """Tier free bytes minus in-flight reservations."""
        free = self.hierarchy[level].free_bytes()
        if free is None:
            return None
        return free - self._reserved[level]

    def first_fit(self, nbytes: int, owner: str = "") -> int | None:
        """§III-A first-fit descending over placeable, in-cap tiers."""
        health = self.hierarchy.health
        arbiter = self.arbiter
        for level, driver in self.hierarchy.upper_levels():
            if health is not None and not health.is_placeable(level):
                continue
            free = self.effective_free(level)
            if free is not None and nbytes > free:
                continue
            if arbiter is not None and not arbiter.may_admit(
                owner, level, nbytes, driver.quota_bytes
            ):
                # The tier has room but this job is at its fair-share cap;
                # the remaining space is other jobs' reserved slice.
                arbiter.record_rejection()
                continue
            return level
        return None

    def cached_on_level(self, level: int) -> list[FileInfo]:
        """Cached FileInfos currently resident on ``level``."""
        out = []
        for name in self._placed[level]:
            info = self.metadata.get(name)
            if info is not None and info.state is FileState.CACHED and info.level == level:
                out.append(info)
        return out

    def placement_order(self, level: int) -> dict[str, int]:
        """name → monotonically-increasing placement sequence number."""
        return self._order[level]

    # -- scheduling ----------------------------------------------------------
    def on_read(
        self, info: FileInfo, offset: int, nbytes: int, covered_full_file: bool
    ) -> None:
        """Hook called by the middleware after it served a PFS read.

        Consults the placement policy (admission, tier choice, victim
        selection) and, on a positive decision, reserves the space and
        enqueues the background work.  Untimed: runs inline with the read
        completion, the copying itself is what takes time.
        """
        if info.state is not FileState.PFS_ONLY:
            # Mid-copy reads still come through the PFS path; surface them
            # to access-tracking policies so consumption estimates have no
            # blind spot while the background copy is in flight.
            if info.state is FileState.COPYING:
                self._expedite(info)
                if self.policy.tracks_access:
                    self.policy.on_access(info, offset, nbytes)
            return
        if not self.full_fetch and not covered_full_file:
            self._write_through(info, offset, nbytes)
            return
        if not self.policy.admit(info, offset, nbytes, covered_full_file):
            return
        if self.place(info, have_content=covered_full_file):
            self.policy.after_admit(info)

    def place(self, info: FileInfo, have_content: bool = False,
              mark_on_fail: bool = True, speculative: bool = False) -> bool:
        """One placement decision for a PFS-resident file.

        Runs the policy's choose-tier/make-room hooks; on success the
        space is reserved, the arbiter charged and the background copy
        enqueued.  ``mark_on_fail=False`` (eager sweeps) leaves a file
        that found no room untouched instead of deferring it or writing
        it off — its own first read will decide again.
        ``speculative=True`` marks the copy as staged ahead of any read:
        it drains behind the job's demand copies (see :class:`_JobBacklog`).
        """
        target = self.policy.choose_tier(info)
        if target is None:
            target = self.policy.make_room(info)
        if target is None:
            if not mark_on_fail:
                return False
            health = self.hierarchy.health
            if health is not None and health.any_quarantined:
                # A quarantined tier may be re-admitted later; keep the
                # file PFS-resident so a post-recovery retry can place it,
                # rather than writing it off for the rest of the job.
                self._deferred[info.name] = None
                self.stats.deferred += 1
                if self.recorder.enabled:
                    self.recorder.emit("copy.deferred", info.name)
                return False
            self._deferred.pop(info.name, None)
            if self.policy.sticky_unplaceable:
                info.state = FileState.UNPLACEABLE
                self.stats.unplaceable += 1
                if self.recorder.enabled:
                    self.recorder.emit("copy.unplaceable", info.name)
            return False
        self._schedule(info, target, have_content, speculative)
        return True

    def _schedule(self, info: FileInfo, target: int, have_content: bool,
                  speculative: bool = False) -> None:
        self._deferred.pop(info.name, None)
        self._reserved[target] += info.size
        if self.arbiter is not None:
            self.arbiter.admit(info.owner, target, info.size)
        info.state = FileState.COPYING
        info.pending_level = target
        self.stats.scheduled += 1
        if self.recorder.enabled:
            self.recorder.emit(
                "copy.scheduled", info.name, level=target, nbytes=info.size,
                **({"job": info.owner} if info.owner else {}),
            )
        self._enqueue(
            _CopyTask(
                info=info,
                target_level=target,
                have_content=have_content,
                job=info.owner,
                speculative=speculative,
            )
        )

    def promote(self, info: FileInfo, target: int) -> bool:
        """Schedule a policy-driven up-tier move of a *cached* file.

        The file keeps serving reads from its current tier while the
        promotion copy runs (``pending_level`` marks it in flight, which
        also shields it from eviction); on completion the old copy is
        dropped and the file's level flips to ``target``.
        """
        if info.state is not FileState.CACHED or info.pending_level is not None:
            return False
        if not 0 <= target < info.level:
            return False
        free = self.effective_free(target)
        if free is not None and free < info.size:
            return False
        if self.arbiter is not None:
            driver = self.hierarchy[target]
            if not self.arbiter.may_admit(
                info.owner, target, info.size, driver.quota_bytes
            ):
                self.arbiter.record_rejection()
                return False
            self.arbiter.admit(info.owner, target, info.size)
        self._reserved[target] += info.size
        info.pending_level = target
        self.stats.scheduled += 1
        if self.recorder.enabled:
            self.recorder.emit(
                "promotion.scheduled", info.name, level=target, nbytes=info.size,
                **({"job": info.owner} if info.owner else {}),
            )
        self._enqueue(
            _CopyTask(
                info=info,
                target_level=target,
                have_content=True,
                job=info.owner,
                promote_from=info.level,
            )
        )
        return True

    def on_tier_readmitted(self, level: int) -> None:
        """Health-tracker hook: a quarantined tier was re-admitted.

        Re-attempts every placement that was deferred while quarantine
        blocked first-fit.  Only files still PFS-resident are retried —
        entries are dropped as soon as a file is scheduled, abandoned or
        written off, so a retry can never resurrect a placement the job
        already gave up on.
        """
        pending = list(self._deferred)
        self._deferred.clear()
        for name in pending:
            info = self.metadata.get(name)
            if info is None or info.state is not FileState.PFS_ONLY:
                continue
            self.policy.stats.deferred_retries += 1
            if self.recorder.enabled:
                self.recorder.emit("copy.deferred_retry", name, level=level)
            self.place(info, have_content=False)
        self.policy.on_tier_readmitted(level)

    def evict(self, level: int, info: FileInfo) -> None:
        """Drop a cached resident back to PFS-only (policy decision)."""
        self.hierarchy[level].remove(info.name)
        if self.arbiter is not None:
            self.arbiter.release(info.owner, level, info.size)
        info.level = self.hierarchy.pfs_level
        info.state = FileState.PFS_ONLY
        info.pending_level = None
        if info.name in self._placed[level]:
            self._placed[level].remove(info.name)
        self.stats.evictions += 1
        if self.recorder.enabled:
            self.recorder.emit("eviction", info.name, level=level, nbytes=info.size)
        if self.residency_listener is not None:
            self.residency_listener(info.name, level, False)

    # -- write-through mode (ABL-FETCH: no full-file fetch) -------------------
    def _write_through(self, info: FileInfo, offset: int, nbytes: int) -> None:
        take = max(0, min(nbytes, info.size - offset))
        if take == 0:
            return
        written = self._partial_written.get(info.name)
        if written is None:
            target = self.first_fit(info.size, info.owner)
            if target is None:
                info.state = FileState.UNPLACEABLE
                self.stats.unplaceable += 1
                return
            self._reserved[target] += info.size
            if self.arbiter is not None:
                self.arbiter.admit(info.owner, target, info.size)
            info.pending_level = target
            self._partial_written[info.name] = 0
            self.stats.scheduled += 1
            if self.recorder.enabled:
                self.recorder.emit(
                    "copy.scheduled", info.name, level=target, nbytes=info.size,
                    write_through=True,
                )
        self._enqueue(
            _CopyTask(
                info=info,
                target_level=info.pending_level,
                have_content=True,
                increment=take,
                job=info.owner,
            )
        )
        # Track the range; completion check happens in the worker.
        self._partial_written[info.name] += take
        if self._partial_written[info.name] >= info.size:
            info.state = FileState.COPYING

    # -- pool workers -----------------------------------------------------------
    def _enqueue(self, task: _CopyTask) -> None:
        # Every task gets a private jitter substream, *spawned* (never
        # drawn) off the handler stream: a copy's jitter depends only on
        # its enqueue order, not on how copies interleave on the devices.
        task.rng = self._rng.spawn(1)[0]
        self._outstanding += 1
        # The Store carries wake-up tokens; the tasks themselves sit in
        # per-job backlogs so workers can drain jobs round-robin.  A job
        # enters the rotation when its backlog goes non-empty and leaves
        # it when drained, so with one job the rotation degenerates to
        # the original strict FIFO.
        backlog = self._job_queues.get(task.job)
        if backlog is None:
            backlog = self._job_queues[task.job] = _JobBacklog()
        if not backlog:
            self._rr.append(task.job)
        backlog.push(task)
        if task.speculative:
            self._spec_queued[task.info.name] = task
        self._queue.put(_TASK)

    def _next_task(self) -> _CopyTask:
        job = self._rr.popleft()
        backlog = self._job_queues[job]
        task = backlog.pop()
        if task.speculative:
            self._spec_queued.pop(task.info.name, None)
        if backlog:
            self._rr.append(job)
        return task

    def _expedite(self, info: FileInfo) -> None:
        """Promote a queued speculative copy to demand class on first read.

        The eager sweep stages files in namespace order; the workload
        reads them in its own (shuffled) order.  The moment a staged file
        is actually read, its pending copy stops being a guess — moving
        it ahead of the remaining guesses gives the read the same copy
        turnaround it would have had under lazy (read-triggered)
        placement.  A task already picked up by a worker is untouched.
        """
        task = self._spec_queued.pop(info.name, None)
        if task is None:
            return
        backlog = self._job_queues[task.job]
        backlog.spec.remove(task)
        task.speculative = False
        backlog.demand.append(task)

    def _task_done(self) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
            waiters, self._idle_waiters = self._idle_waiters, []
            for ev in waiters:
                ev.succeed()

    def drain(self) -> Generator[Any, Any, None]:
        """Wait until every queued background task has been processed."""
        while self._outstanding > 0:
            ev = self.sim.event(name="placement-idle")
            self._idle_waiters.append(ev)
            yield ev

    def _worker(self) -> Generator[Any, Any, None]:
        while True:
            token = yield self._queue.get()
            if token is _STOP:
                return
            task = self._next_task()
            t0 = self.sim.now
            try:
                yield from self._run_task(task)
            finally:
                if self.accounting is not None:
                    self.accounting.charge(task.job, seconds=self.sim.now - t0)
                self._task_done()

    def _run_task(self, task: _CopyTask) -> Generator[Any, Any, None]:
        """Execute one copy task with bounded retry and clean give-up.

        Transient faults retry up to ``copy_retries`` times with
        exponential backoff (partial bytes are discarded first, so every
        attempt starts from scratch); a hard tier failure or ENOSPC gives
        up immediately.  Giving up fully unwinds the placement — space
        reservation, metadata state and partial bytes — leaving the file
        PFS-resident.
        """
        info = task.info
        if task.increment is not None:
            # Write-through increments carry no retry budget: the next
            # framework read re-drives progress anyway.
            if info.pending_level != task.target_level:
                return  # placement was abandoned while this increment queued
            try:
                yield from self._copy_increment(task)
            except (IOFaultError, NoSpaceError) as err:
                self._record_copy_fault(task, err)
                self._abandon(task)
            return
        health = self.hierarchy.health
        if self.recorder.enabled:
            self.recorder.emit("copy.started", info.name, level=task.target_level)
        attempt = 0
        while True:
            if health is not None and (
                not health.is_placeable(task.target_level)
                or (task.promote_from is not None and not health.ok(task.promote_from))
            ):
                # Tier went under quarantine while this task queued (for a
                # promotion, either end failing voids the move).
                self._abandon(task)
                return
            try:
                yield from self._copy_full(task)
            except NoSpaceError as err:
                self._record_copy_fault(task, err)
                self._abandon(task)
                return
            except TierFailedError as err:
                self._record_copy_fault(task, err)
                self._abandon(task)
                return
            except IOFaultError as err:
                self._record_copy_fault(task, err)
                self._discard_partial(task)
                if attempt >= self.copy_retries:
                    self._abandon(task)
                    return
                self.stats.copy_retries += 1
                if self.recorder.enabled:
                    self.recorder.emit("copy.retried", info.name, attempt=attempt + 1)
                delay = self.retry_backoff_s * (2 ** attempt)
                if delay > 0.0:
                    ev = self.sim._pooled_timeout(delay)
                    yield ev
                    self.sim._recycle(ev)
                attempt += 1
            else:
                if health is not None and health.dirty:
                    # A completed copy is not a probe: it may have started
                    # before the tier failed, so it never re-admits.
                    health.record_success(task.target_level, readmit=False)
                return

    def _record_copy_fault(self, task: _CopyTask, err: Exception) -> None:
        """Attribute a copy failure to the faulting tier's health record.

        Injected errors carry the faulting mount point; without one, the
        fault is charged to the copy's target tier.  ENOSPC is a capacity
        condition, not a device fault — it never counts against health.
        """
        health = self.hierarchy.health
        if health is None or not isinstance(err, IOFaultError):
            return
        level = None
        mount = getattr(err, "mount", None)
        if mount is not None:
            level = self.hierarchy.level_for_mount(mount)
        if level is None:
            level = task.target_level
        health.record_fault(level)

    def _discard_partial(self, task: _CopyTask) -> None:
        """Drop partially copied bytes so a retry starts from scratch."""
        driver = self.hierarchy[task.target_level]
        if driver.has(task.info.name):
            driver.remove(task.info.name)

    def _abandon(self, task: _CopyTask) -> None:
        """Give up on a placement cleanly.

        Reservation, partial bytes and metadata all return to the
        pre-schedule world: the file stays PFS-resident (a later read may
        place it again once the hierarchy recovers).  An abandoned
        *promotion* keeps the original cached copy authoritative — only
        the in-flight reservation on the faster tier is unwound.  Either
        way any deferred-queue entry for the file is dropped, so a tier
        re-admission cannot re-attempt a placement the job gave up on.
        """
        info = task.info
        level = task.target_level
        self._discard_partial(task)
        self._reserved[level] -= info.size
        if self.arbiter is not None:
            self.arbiter.release(info.owner, level, info.size)
        info.pending_level = None
        self._deferred.pop(info.name, None)
        self.stats.copy_giveups += 1
        if task.promote_from is not None:
            if self.recorder.enabled:
                self.recorder.emit("promotion.gave_up", info.name, level=level)
            return
        info.state = FileState.PFS_ONLY
        self._partial_written.pop(info.name, None)
        if self.recorder.enabled:
            self.recorder.emit("copy.gave_up", info.name, level=level)

    def _copy_full(self, task: _CopyTask) -> Generator[Any, Any, None]:
        """Copy a whole file to its target tier, chunk by chunk.

        Each chunk is a read leg on the OST serving it (skipped when the
        framework already read the content) followed by a write leg on
        the target device's channel.  Jitter is pre-drawn from the task's
        private substream; a read leg's service time is taken at its
        start instant.  Bookkeeping side effects (tier growth, page-cache
        residency, I/O counters) land once at completion.
        """
        info = task.info
        driver = self.hierarchy[task.target_level]
        pfs_driver = self.hierarchy.pfs
        local_fs = driver.fs
        pfs_fs = pfs_driver.fs
        fetching = not task.have_content
        size = info.size
        chunk = self.copy_chunk
        aligned = True
        if fetching and isinstance(pfs_fs, ParallelFileSystem):
            stripe = pfs_fs.config.stripe_size
            # Sub-stripe alignment keeps every read leg on a single OST.
            aligned = chunk <= stripe and stripe % chunk == 0
        if (
            not isinstance(local_fs, LocalFileSystem)
            or (fetching and not isinstance(pfs_fs, ParallelFileSystem))
            or not aligned
        ):
            yield from self._copy_full_chunked(task)
            return
        if size == 0:
            self._finish(task)
            return
        if not driver.fits(size):
            raise NoSpaceError(f"tier {driver.mount_point}: quota exceeded for {info.name}")
        # One open per side, paid up front (the chunk loop pays the same
        # cost on its first chunk; later chunks hit the handle cache).
        if fetching:
            yield from pfs_driver._handle_for(info.name)
        handle = yield from driver._handle_for(info.name, "a")

        rng = task.rng
        device = local_fs.device
        write_ch = device.channel
        sigma_w = device.profile.jitter_sigma
        jit_w = device.rng is not None and sigma_w > 0.0 and rng is not None
        jit_r = False
        pfs_path = ""
        if fetching:
            sigma_r = pfs_fs.config.jitter_sigma
            jit_r = pfs_fs.rng is not None and sigma_r > 0.0 and rng is not None
            pfs_path = pfs_driver.local_path(info.name)
        n_chunks = -(-size // chunk)
        # All read-leg draws first, then all write-leg draws, in chunk
        # order: the draw order is part of every pinned record.
        z_read = [rng.normal(0.0, sigma_r) for _ in range(n_chunks)] if jit_r else []
        z_write = [rng.normal(0.0, sigma_w) for _ in range(n_chunks)] if jit_w else []

        pos = 0
        for i in range(n_chunks):
            take = min(chunk, size - pos)
            if fetching:
                t_r = pfs_fs.base_time(take, False, True)
                if jit_r:
                    t_r *= jitter_from_normal(z_read[i])
                yield from pfs_fs.ost_for(pfs_path, pos).using(t_r)
            t_w = device.write_time(take)
            if jit_w:
                t_w *= jitter_from_normal(z_write[i])
            yield from write_ch.using(t_w)
            pos += take

        if fetching:
            pfs_fs.stats.record_reads(n_chunks, size)
            self.stats.pfs_bytes_fetched += size
        local_fs.apply_bulk_write(handle, size, n_chunks)
        self._finish(task)

    def _copy_full_chunked(self, task: _CopyTask) -> Generator[Any, Any, None]:
        """Straightforward per-chunk copy for exotic tier combinations."""
        info = task.info
        driver = self.hierarchy[task.target_level]
        pfs = self.hierarchy.pfs
        pos = 0
        while pos < info.size:
            take = min(self.copy_chunk, info.size - pos)
            if not task.have_content:
                yield from pfs.read_sequential(info.name, pos, take)
                self.stats.pfs_bytes_fetched += take
            yield from driver.write(info.name, pos, take)
            pos += take
        self._finish(task)

    def _copy_increment(self, task: _CopyTask) -> Generator[Any, Any, None]:
        """Write-through step: mirror the framework's own chunk to the tier."""
        info = task.info
        if info.state is FileState.CACHED:
            return  # surplus task after an earlier increment completed the file
        driver = self.hierarchy[task.target_level]
        already = driver.fs.file_size(driver.local_path(info.name)) if driver.has(info.name) else 0
        take = min(task.increment or 0, info.size - already)
        if take > 0:
            yield from driver.write(info.name, already, take)
        if already + take >= info.size:
            self._finish(task)

    def _finish(self, task: _CopyTask) -> None:
        info = task.info
        level = task.target_level
        self._reserved[level] -= info.size
        if task.promote_from is not None:
            # The promoted bytes are live on the faster tier: drop the old
            # copy, move the arbiter charge and flip the level.
            src = task.promote_from
            self.hierarchy[src].remove(info.name)
            if self.arbiter is not None:
                self.arbiter.release(info.owner, src, info.size)
            if info.name in self._placed[src]:
                self._placed[src].remove(info.name)
        info.level = level
        info.state = FileState.CACHED
        info.pending_level = None
        self._placed[level].append(info.name)
        self._order[level][info.name] = self._order_counter
        self._order_counter += 1
        self._partial_written.pop(info.name, None)
        self.stats.completed += 1
        self.stats.bytes_copied += info.size
        if task.promote_from is not None:
            self.policy.stats.promotions += 1
        if self.accounting is not None:
            self.accounting.charge(task.job, nbytes=info.size, ops=1)
        if self.recorder.enabled:
            kind = "promotion.completed" if task.promote_from is not None else "copy.completed"
            self.recorder.emit(
                kind, info.name, level=level, nbytes=info.size,
                **({"job": info.owner} if info.owner else {}),
            )
        if self.residency_listener is not None:
            if task.promote_from is not None:
                self.residency_listener(info.name, task.promote_from, False)
            self.residency_listener(info.name, level, True)

    # -- lifecycle -----------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop the pool workers (job teardown)."""
        for _ in self._workers:
            self._queue.put(_STOP)

    @property
    def queue_depth(self) -> int:
        """Copy tasks waiting for a worker."""
        return sum(len(q) for q in self._job_queues.values())

    def probe_candidate(self, level: int) -> str | None:
        """A resident of ``level`` suitable as a health-probe target."""
        placed = self._placed[level]
        return placed[0] if placed else None
