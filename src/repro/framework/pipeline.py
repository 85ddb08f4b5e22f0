"""tf.data-like input pipeline executed on the DES.

One :class:`EpochPipeline` reproduces the request-level behaviour of the
pipeline the paper configures TensorFlow with ("I/O parallelism,
prefetching and parallel preprocessing optimizations enabled"):

* shard order is reshuffled every epoch,
* ``cycle_length`` reader workers interleave across shards, each issuing
  sequential chunked ``pread`` s through the pluggable
  :class:`~repro.framework.io_layer.DataReader`,
* records flow through a bounded shuffle buffer into
  ``num_map_workers`` parallel preprocess workers holding CPU cores,
* processed records are batched (inline, by the mapper that completes a
  batch — batching itself is untimed bookkeeping) and pushed into a
  bounded ``prefetch`` buffer that the training loop consumes.

Stage buffers are bounded :class:`~repro.simkernel.resources.Store`\\ s, so
backpressure propagates exactly as in a real pipeline: a stalled GPU fills
prefetch, which stalls the mappers, and finally the readers.

Fidelity note: the shuffle buffer bounds and delays the record stream but
does not physically reorder it — record *identity* has no timing effect in
the simulation, only counts and sizes do.
"""

from __future__ import annotations

import os
from collections.abc import Generator
from dataclasses import dataclass, field, replace
from heapq import heappush
from typing import Any

import numpy as np

from repro.data.sharding import ShardLayout, ShardManifest
from repro.framework.cache import TFDataCache
from repro.framework.io_layer import DataReader, fusion_miss
from repro.framework.models import ModelProfile
from repro.framework.resources import ComputeNode
from repro.simkernel.core import PRIORITY_URGENT, Simulator
from repro.simkernel.resources import Store
from repro.storage.blockmath import KIB

__all__ = ["EpochPipeline", "PipelineConfig", "RecordRef", "ShardInfo", "shards_from_manifest"]

#: sentinel flowing through the stage stores to signal end-of-stream
_SENTINEL = object()

#: max records a map worker claims per combined CPU hold (see _map_worker)
_PREPROCESS_RUN = 4


def _fused_disabled() -> bool:
    """``REPRO_DISABLE_FUSED_PIPELINE=1`` forces the generator workers.

    The escape hatch mirrors ``REPRO_DISABLE_BULK_IO``: the fused
    callback state machines below are asserted bit-identical to the
    generator stages, and this flag is how that assertion is checked.
    """
    return os.environ.get("REPRO_DISABLE_FUSED_PIPELINE", "").strip().lower() in (
        "1",
        "true",
        "yes",
    )


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the input pipeline (tf.data equivalents in comments)."""

    read_chunk: int = 256 * KIB  #: buffered-reader chunk size
    cycle_length: int = 4  #: interleave parallelism (parallel shard readers)
    num_map_workers: int = 24  #: map(num_parallel_calls=...)
    shuffle_buffer_records: int = 4096  #: shuffle(buffer_size=...)
    prefetch_batches: int = 8  #: prefetch(buffer_size=...)
    batch_size: int = 128  #: global batch across all GPUs
    #: the full-scale batch the model profiles' per-step host cost refers
    #: to; when scaled runs shrink the batch, per-step host time shrinks
    #: proportionally so host overhead per *image* is scale-invariant
    reference_batch: int = 128

    def __post_init__(self) -> None:
        if self.read_chunk < 1:
            raise ValueError("read_chunk must be >= 1")
        if min(self.cycle_length, self.num_map_workers, self.prefetch_batches) < 1:
            raise ValueError("pipeline parallelism knobs must be >= 1")
        if self.shuffle_buffer_records < 1:
            raise ValueError("shuffle_buffer_records must be >= 1")
        if self.batch_size < 1 or self.reference_batch < 1:
            raise ValueError("batch sizes must be >= 1")

    @property
    def host_scale(self) -> float:
        """Per-step host-cost multiplier for scaled batches."""
        return self.batch_size / self.reference_batch


@dataclass(frozen=True)
class RecordRef:
    """One training sample flowing through the pipeline."""

    sample_id: int
    payload_len: int


@dataclass(frozen=True)
class ShardInfo:
    """A record shard as the pipeline sees it."""

    path: str
    size: int
    #: (offset, frame_len, sample_id, payload_len) per record, offset-ordered
    records: tuple[tuple[int, int, int, int], ...] = field(repr=False)

    @property
    def n_records(self) -> int:
        """Number of records in the shard."""
        return len(self.records)

    def with_path(self, path: str) -> "ShardInfo":
        """Copy with a different path (cache redirection)."""
        return replace(self, path=path)


def shards_from_manifest(manifest: ShardManifest, paths: list[str]) -> list[ShardInfo]:
    """Bind a manifest's layouts to the global paths they live at."""
    if len(paths) != len(manifest.shards):
        raise ValueError(
            f"{len(paths)} paths for {len(manifest.shards)} shards"
        )
    out: list[ShardInfo] = []
    for layout, path in zip(manifest.shards, paths):
        out.append(_shard_info(layout, path))
    return out


def _shard_info(layout: ShardLayout, path: str) -> ShardInfo:
    recs = tuple(
        (r.offset, r.frame_len, r.sample_id, r.payload_len) for r in layout.records
    )
    return ShardInfo(path=path, size=layout.size_bytes, records=recs)


class _FusedReader:
    """Callback state machine replacing one ``_reader_worker`` generator.

    Each continuation runs in the exact dispatch slot where the generator
    form would have resumed, and every timing/RNG side effect (service-time
    computation, jitter draw, queue entry) happens through the backend's
    ``*_begin`` calls in the same slot the generator would have made it —
    which is what keeps fused-on and fused-off runs bit-identical.  Only
    engaged when the reader declares the whole epoch continuation-capable
    (see ``PosixReader.fused_capable``; the MONARCH readers are always
    capable and route per read); anything else — fault-injection
    wrappers, cache-writing epochs — falls the whole pipeline back to the
    generator workers so the shared jitter stream's draw order never
    depends on per-shard routing.
    """

    __slots__ = (
        "pipe",
        "alive",
        "_shard",
        "_file",
        "_pos",
        "_emitted",
        "_take",
        "_pread",
        "_fh",
        "_chunk",
        "_store",
        "_ends",
        "_refs",
        "_sync_open",
    )

    def __init__(self, pipe: "EpochPipeline") -> None:
        self.pipe = pipe
        self.alive = True
        self._shard: ShardInfo | None = None
        self._file: Any = None
        self._pos = 0
        self._emitted = 0
        self._take = 0
        self._pread: Any = None
        self._fh: Any = None
        self._chunk = pipe.config.read_chunk
        self._store = pipe._record_store
        self._ends: list[int] = []
        self._refs: list[RecordRef] = []
        self._sync_open = getattr(pipe.reader, "open_is_sync", False)

    def _start(self, _arg: Any) -> None:
        self._next_shard()

    def _next_shard(self) -> None:
        pipe = self.pipe
        if not pipe._shard_queue:
            self.alive = False
            pipe._reader_done()
            return
        shard = pipe.shards[pipe._shard_queue.pop(0)]
        self._shard = shard
        self._pos = 0
        self._emitted = 0
        # Per-shard emission tables, built once and reused across epochs
        # (ShardInfo is frozen but not slotted; the cache is pure
        # precomputation — frame-end offsets and the immutable RecordRefs
        # the generator reader would construct per epoch).
        cache = shard.__dict__.get("_emit_cache")
        if cache is None:
            records = shard.records
            cache = (
                [off + frame for off, frame, _, _ in records],
                [RecordRef(sid, payload) for _, _, sid, payload in records],
            )
            object.__setattr__(shard, "_emit_cache", cache)
        self._ends, self._refs = cache
        try:
            self._file = pipe.reader.open_begin(shard.path, self._opened)
            self._pread, self._fh = pipe.reader.pread_begin_bound(self._file)
        except BaseException as err:  # noqa: BLE001 - routed like a dead proc
            self.alive = False
            pipe._fsm_error(err)
            return
        if self._sync_open:
            # Namespace-resolved open with no timed op (``open_is_sync``):
            # issue the first read in this slot, where the generator
            # form's zero-yield ``open`` would have continued.
            self._read_chunk()

    def _opened(self, _ev: Any) -> None:
        if self.alive:
            self._read_chunk()

    def _read_chunk(self) -> None:
        if self._pos >= self._shard.size:
            self.pipe.reader.close(self._file)
            self._next_shard()
            return
        try:
            self._take = self._pread(self._fh, self._pos, self._chunk, self._chunk_done)
        except BaseException as err:  # noqa: BLE001 - routed like a dead proc
            self.alive = False
            self.pipe._fsm_error(err)

    def _chunk_done(self, ev: Any) -> None:
        if not self.alive:
            return
        if ev is not None and ev._exc is not None:
            # A continuation-driven legacy read died (retry exhaustion,
            # tenancy violation): route it exactly like a dead reader
            # process — same slot the process-fail event would occupy.
            self.alive = False
            self.pipe._fsm_error(ev._exc)
            return
        n = self._take
        if n == 0:
            self.pipe.reader.close(self._file)
            self._next_shard()
            return
        pos = self._pos + n
        self._pos = pos
        ends = self._ends
        n_records = len(ends)
        emitted = self._emitted
        start = emitted
        while emitted < n_records and ends[emitted] <= pos:
            emitted += 1
        if emitted > start:
            self._emitted = emitted
            store = self._store
            # try_put_many inlined straight off the per-shard ref table —
            # the common all-fit case never materialises a slice.
            k = start
            if not store._putters:
                buf = store._items
                cap = store.capacity
                refs = self._refs
                while k < emitted and (cap is None or len(buf) < cap):
                    buf.append(refs[k])
                    k += 1
                if k > start and store._getters:
                    store._drain()
            if k < emitted:
                store.put_many(self._refs[k:emitted]).add_callback(self._chunk_put_done)
                return
        self._read_chunk()

    def _chunk_put_done(self, _ev: Any) -> None:
        if self.alive:
            self._read_chunk()


class _FusedMapper:
    """Callback state machine replacing one ``_map_worker`` generator.

    A record's whole steady-state hop — store wakeup, run claiming, CPU
    hold, batch emission — executes as scheduled continuations with no
    generator parked in the middle.  The mapper object itself doubles as
    the store waiter (``Store._drain`` only needs ``.succeed(item)``),
    so a starved wakeup costs one deque append instead of an Event
    allocation plus a generator resume.
    """

    __slots__ = (
        "pipe",
        "store",
        "cpu",
        "preprocess_time",
        "batch_size",
        "prefetch",
        "alive",
        "_run",
        "_emit_from",
        "_got_sentinel",
    )

    def __init__(self, pipe: "EpochPipeline") -> None:
        self.pipe = pipe
        self.store = pipe._record_store
        self.cpu = pipe.node.cpu
        self.preprocess_time = pipe.model.preprocess_time
        self.batch_size = pipe.config.batch_size
        self.prefetch = pipe.prefetch
        self.alive = True
        self._run: list[RecordRef] = []
        self._emit_from = 0
        self._got_sentinel = False

    def _start(self, _arg: Any) -> None:
        self._next()

    def succeed(self, value: Any = None) -> "_FusedMapper":
        """Store-waiter duck typing: wake via a deferred continuation.

        ``Store._drain`` calls ``.succeed(item)`` on queued getters; an
        Event would be dispatched from the at-now deque one slot later,
        and the appended continuation lands in exactly that slot.
        """
        self.pipe.sim._normal.append((self._on_record, value))
        return self

    def _next(self) -> None:
        # try_get inlined: this runs once per record run in the starved
        # regime and the call overhead is measurable.
        store = self.store
        items = store._items
        if store._getters or not items:
            # Starved regime: park as the store's waiter (FIFO with any
            # Event-based getters), one wakeup per record.  _drain is a
            # no-op unless a putter waits or a buffered item can be
            # delivered, so skip the call in the common empty case.
            store._getters.append(self)
            if items or store._putters:
                store._drain()
            return
        item = items.popleft()
        if store._putters:
            store._drain()
        self._on_record(item)

    def _on_record(self, item: Any) -> None:
        if not self.alive:
            # A wakeup queued before abort() can land after it; drop it
            # exactly as the generator worker's kill would have.
            return
        if item is _SENTINEL:
            self._finished()
            return
        # Claim a short run of already-buffered records (same bounded
        # quantization argument as _map_worker) and hold the core once.
        # try_get is inlined (pop + drain-if-putters): the claim loop runs
        # up to four times per record run and is pure deque traffic.
        pt = self.preprocess_time
        run = [item]
        total = pt(item.payload_len)
        got_sentinel = False
        store = self.store
        items = store._items
        getters = store._getters
        while len(run) < _PREPROCESS_RUN:
            if getters or not items:
                break
            nxt = items.popleft()
            if store._putters:
                store._drain()
            if nxt is _SENTINEL:
                got_sentinel = True
                break
            run.append(nxt)
            total += pt(nxt.payload_len)
        self._run = run
        self._emit_from = 0
        self._got_sentinel = got_sentinel
        cpu = self.cpu
        if cpu._in_use < cpu.capacity and not cpu._queue and not cpu._virtual_holds:
            # using()'s uncontended fast path, continuation-style: one
            # scheduled slot for the hold end, no generator in between.
            sim = self.pipe.sim
            m = cpu.monitor
            now = sim._now
            m._area += m._level * (now - m._last_t)
            m._last_t = now
            cpu._in_use += 1
            m._level = cpu._in_use
            when = now + total
            if when > now:
                sim._seq += 1
                heappush(sim._heap, (when, 1, sim._seq, (self._cpu_done_fast, None)))
            else:
                sim._normal.append((self._cpu_done_fast, None))
        else:
            cpu.hold(total).add_callback(self._cpu_done_held)

    def _cpu_done_fast(self, _arg: Any) -> None:
        # Release first (the generator form's finally runs before any code
        # after the yield-from), even if the pipeline was aborted mid-hold.
        cpu = self.cpu
        sim = self.pipe.sim
        m = cpu.monitor
        cpu._in_use -= 1
        now = sim._now
        m._area += m._level * (now - m._last_t)
        m._last_t = now
        m._level = cpu._in_use
        if cpu._queue and cpu._in_use < cpu.capacity:
            cpu._grant(cpu._queue.popleft())
        if self.alive:
            self._emit()

    def _cpu_done_held(self, _ev: Any) -> None:
        if self.alive:
            self._emit()

    def _emit(self) -> None:
        pipe = self.pipe
        run = self._run
        i = self._emit_from
        n = len(run)
        batch_size = self.batch_size
        prefetch = self.prefetch
        while i < n:
            rec = run[i]
            i += 1
            batch = pipe._batch
            batch.append(rec)
            if len(batch) == batch_size:
                pipe._batch = []
                if not prefetch.try_put(batch):
                    self._emit_from = i
                    prefetch.put(batch).add_callback(self._emit_put_done)
                    return
        self._run = []
        if self._got_sentinel:
            self._finished()
            return
        self._next()

    def _emit_put_done(self, _ev: Any) -> None:
        if self.alive:
            self._emit()

    def _finished(self) -> None:
        self.alive = False
        pipe = self.pipe
        pipe._finished_mappers += 1
        if pipe._finished_mappers < pipe.config.num_map_workers:
            return
        if pipe._batch:
            batch, pipe._batch = pipe._batch, []
            if not pipe.prefetch.try_put(batch):
                pipe.prefetch.put(batch).add_callback(self._flush_put_done)
                return
        self._final_sentinel()

    def _flush_put_done(self, _ev: Any) -> None:
        self._final_sentinel()

    def _final_sentinel(self) -> None:
        pipe = self.pipe
        if not pipe.prefetch.try_put(_SENTINEL):
            # Nothing runs after the sentinel lands, so no callback needed:
            # the queued put is accepted the instant capacity frees, exactly
            # when the generator form's final yield would have resumed.
            pipe.prefetch.put(_SENTINEL)


class EpochPipeline:
    """One epoch's worth of input pipeline, wired and ready to start."""

    def __init__(
        self,
        sim: Simulator,
        config: PipelineConfig,
        shards: list[ShardInfo],
        reader: DataReader,
        node: ComputeNode,
        model: ModelProfile,
        shuffle_rng: np.random.Generator,
        cache: TFDataCache | None = None,
        cache_writing: bool = False,
    ) -> None:
        if not shards:
            raise ValueError("pipeline needs at least one shard")
        self.sim = sim
        self.config = config
        self.reader = reader
        self.node = node
        self.model = model
        self.cache = cache
        self.cache_writing = cache_writing
        # Cache redirection: once ready, read the local cache files instead.
        self.shards = cache.effective_shards(shards) if cache else shards
        order = shuffle_rng.permutation(len(self.shards))
        self._shard_queue: list[int] = [int(i) for i in order]
        self._total_records = sum(s.n_records for s in self.shards)
        self.total_batches = -(-self._total_records // config.batch_size)
        self._record_store = Store(sim, capacity=config.shuffle_buffer_records, name="shuffle")
        self.prefetch = Store(sim, capacity=config.prefetch_batches, name="prefetch")
        # Batch assembly is plain bookkeeping (no timed ops), so mappers
        # deposit straight into the forming batch instead of routing every
        # record through a dedicated batcher process — one store round
        # trip less per record on the hot path.
        self._batch: list[RecordRef] = []
        self._finished_mappers = 0
        self._procs: list[Any] = []
        self._fsm_readers: list[_FusedReader] = []
        self._fsm_mappers: list[_FusedMapper] = []
        self._readers_left = 0
        #: set by :meth:`start`: whether the fused reader FSMs engaged
        self.fused_readers = False
        #: why fusion *couldn't* engage (capability miss), or None when it
        #: engaged or was off by design (env gate, cache-writing epoch)
        self.fusion_miss: str | None = None
        self.error: BaseException | None = None
        # Fires once if any stage process dies; lets next_batch wait on a
        # single persistent event instead of re-watching every process.
        self._failed = sim.event(name="pipeline-failed")

    # -- stage processes -------------------------------------------------
    def _reader_worker(self) -> Generator[Any, Any, None]:
        cfg = self.config
        while self._shard_queue:
            shard = self.shards[self._shard_queue.pop(0)]
            f = yield from self.reader.open(shard.path)
            pos = 0
            emitted = 0
            while pos < shard.size:
                n = yield from self.reader.pread(f, pos, cfg.read_chunk)
                if n == 0:
                    break
                if self.cache is not None and self.cache_writing:
                    yield from self.cache.write_chunk(shard.path, n)
                pos += n
                # Emit every record whose frame is now fully buffered,
                # as one group: under backpressure the producer is woken
                # once per chunk instead of once per record.
                recs: list[RecordRef] = []
                while emitted < shard.n_records:
                    off, frame, sid, payload = shard.records[emitted]
                    if off + frame > pos:
                        break
                    recs.append(RecordRef(sid, payload))
                    emitted += 1
                if recs:
                    store = self._record_store
                    k = store.try_put_many(recs)
                    if k < len(recs):
                        yield store.put_many(recs[k:])
            self.reader.close(f)

    def _map_worker(self) -> Generator[Any, Any, None]:
        records = self._record_store
        cpu_using = self.node.cpu.using
        preprocess_time = self.model.preprocess_time
        batch_size = self.config.batch_size
        prefetch = self.prefetch
        recycle = self.sim._recycle
        run_cap = _PREPROCESS_RUN
        while True:
            ok, item = records.try_get()
            if not ok:
                # Starved regime: one wakeup per record.  The heap push is
                # the resume ordering itself and can't go away, but the
                # event is owned solely by this mapper, so recycle it.
                ev = records.get_pooled()
                item = yield ev
                recycle(ev)
            if item is _SENTINEL:
                yield from self._mapper_finished()
                return
            # Claim a short run of already-buffered records and hold the
            # core once for their summed time: back-to-back holds on one
            # core are indistinguishable from a single combined hold, so
            # this only quantizes the *emission* instants of the interior
            # records to the run's end — a shift bounded by the run
            # duration (hence the small cap), invisible at epoch scale.
            run = [item]
            total = preprocess_time(item.payload_len)
            got_sentinel = False
            while len(run) < run_cap:
                ok, nxt = records.try_get()
                if not ok:
                    break
                if nxt is _SENTINEL:
                    got_sentinel = True  # consumed this worker's sentinel
                    break
                run.append(nxt)
                total += preprocess_time(nxt.payload_len)
            yield from cpu_using(total)
            for rec in run:
                batch = self._batch
                batch.append(rec)
                if len(batch) == batch_size:
                    self._batch = []
                    if not prefetch.try_put(batch):
                        yield prefetch.put(batch)
            if got_sentinel:
                yield from self._mapper_finished()
                return

    def _mapper_finished(self) -> Generator[Any, Any, None]:
        """Last mapper out flushes the partial batch and the sentinel."""
        self._finished_mappers += 1
        if self._finished_mappers < self.config.num_map_workers:
            return
        if self._batch:
            batch, self._batch = self._batch, []
            if not self.prefetch.try_put(batch):
                yield self.prefetch.put(batch)
        if not self.prefetch.try_put(_SENTINEL):
            yield self.prefetch.put(_SENTINEL)

    def _supervisor(self, readers: list[Any]) -> Generator[Any, Any, None]:
        yield self.sim.all_of(readers)
        for _ in range(self.config.num_map_workers):
            yield self._record_store.put(_SENTINEL)

    # -- public API --------------------------------------------------------
    def start(self) -> None:
        """Spawn all stage processes; batches appear in :attr:`prefetch`.

        When the fused fast path is enabled (the default; gate with
        ``REPRO_DISABLE_FUSED_PIPELINE=1``), mappers always run as
        continuation state machines, and readers do too whenever every
        shard's backend speaks the ``*_begin`` protocol and the epoch is
        not also writing the tf.data cache.  The fused kickoffs are
        scheduled at-now/urgent in the exact positions the legacy
        ``spawn`` calls would occupy, so both modes dispatch stage
        startups in the same order.
        """
        cfg = self.config
        sim = self.sim
        fused = not _fused_disabled()
        fuse_readers = False
        if fused and not self.cache_writing:
            # A capability miss (not a deliberate gate) is recorded, so a
            # protocol regression surfaces in the RunReport meta instead
            # of only as a mysteriously slower run.
            self.fusion_miss = fusion_miss(self.reader, [s.path for s in self.shards])
            fuse_readers = self.fusion_miss is None
        self.fused_readers = fuse_readers
        procs: list[Any] = []
        if fuse_readers:
            self._readers_left = cfg.cycle_length
            self._fsm_readers = [_FusedReader(self) for _ in range(cfg.cycle_length)]
            for r in self._fsm_readers:
                sim.call_now(r._start, None, priority=PRIORITY_URGENT)
        else:
            readers = [
                sim.spawn(self._reader_worker(), name=f"reader-{i}")
                for i in range(cfg.cycle_length)
            ]
            procs.extend(readers)
        if fused:
            self._fsm_mappers = [_FusedMapper(self) for _ in range(cfg.num_map_workers)]
            for m in self._fsm_mappers:
                sim.call_now(m._start, None, priority=PRIORITY_URGENT)
        else:
            procs.extend(
                sim.spawn(self._map_worker(), name=f"mapper-{i}")
                for i in range(cfg.num_map_workers)
            )
        if not fuse_readers:
            procs.append(sim.spawn(self._supervisor(readers), name="supervisor"))
        self._procs = procs
        for p in procs:
            p.add_callback(self._on_proc_done)

    def _reader_done(self) -> None:
        """Fused-reader completion: last one out feeds mapper sentinels.

        Equivalent to the legacy supervisor: it wakes when ``all_of`` the
        reader processes fire and then puts one sentinel per mapper with
        blocking puts.  The store's putter queue is FIFO, so queueing all
        sentinels at once delivers them in the same order and at the same
        instants as the supervisor's sequential blocking puts.
        """
        self._readers_left -= 1
        if self._readers_left > 0:
            return
        store = self._record_store
        for _ in range(self.config.num_map_workers):
            store.put(_SENTINEL)

    def _on_proc_done(self, ev: Any) -> None:
        if not ev.ok and self.error is None:
            self.error = ev.exception
            # Poison the prefetch buffer so a consumer blocked in
            # next_batch wakes immediately instead of deadlocking.  The
            # sentinel jumps the capacity bound on purpose: the pipeline
            # is dead, nothing else will drain the buffer.
            self.prefetch._items.append(_SENTINEL)
            self.prefetch._drain()

    def _fsm_error(self, err: BaseException) -> None:
        """Route a fused-stage failure exactly like a dead stage process."""
        if self.error is None:
            self.error = err
            self.prefetch._items.append(_SENTINEL)
            self.prefetch._drain()

    def next_batch(self) -> Generator[Any, Any, list[RecordRef] | None]:
        """Get the next batch, or ``None`` at end of epoch.

        Re-raises any error that killed a stage process (e.g. cache
        overflow) instead of deadlocking on an empty prefetch buffer.
        """
        if self.error is not None:
            raise self.error
        ok, item = self.prefetch.try_get()
        if not ok:
            item = yield self.prefetch.get()
            if self.error is not None:
                raise self.error
        if item is _SENTINEL:
            return None
        return item

    def abort(self) -> None:
        """Kill all stage processes (used on failure paths)."""
        for p in self._procs:
            if p.is_alive:
                p.kill()
        for r in self._fsm_readers:
            r.alive = False
        for m in self._fsm_mappers:
            m.alive = False

    @property
    def total_records(self) -> int:
        """Records this epoch will deliver."""
        return self._total_records
