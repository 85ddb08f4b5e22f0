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

Readers and mappers are callback state machines (:class:`_FusedReader`,
:class:`_FusedMapper`) rather than simulated processes: each continuation
runs in the dispatch slot a worker process would have resumed in.  A
reader without the ``open_begin``/``pread_begin`` continuation protocol
still plugs in unchanged — its generator ``open`` and ``pread`` run
through the :class:`~repro.framework.io_layer._LegacyDrive` trampoline.

Fidelity note: the shuffle buffer bounds and delays the record stream but
does not physically reorder it — record *identity* has no timing effect in
the simulation, only counts and sizes do.  So a record travels through the
shuffle and prefetch buffers as its payload length (a plain ``int``, the
one thing the preprocess stage reads), and a batch is a list of them.  A
shard hands the reader its records as two columns fixed at dataset build
(:class:`ShardInfo`): frame-end offsets, which pace emission, and payload
lengths.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field, replace
from heapq import heappush
from typing import Any

import numpy as np

from repro.data.sharding import ShardManifest
from repro.framework.cache import TFDataCache
from repro.framework.io_layer import DataReader, _LegacyDrive, fusion_miss
from repro.framework.models import ModelProfile
from repro.framework.resources import ComputeNode
from repro.simkernel.core import PRIORITY_URGENT, Simulator
from repro.simkernel.resources import Store
from repro.storage.blockmath import KIB

__all__ = ["EpochPipeline", "PipelineConfig", "ShardInfo", "shards_from_manifest"]

#: sentinel flowing through the stage stores to signal end-of-stream
_SENTINEL = object()

#: max records a map worker claims per combined CPU hold (see _FusedMapper)
_PREPROCESS_RUN = 4


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
class ShardInfo:
    """A record shard as the pipeline sees it: its records as two columns."""

    path: str
    size: int
    #: offset just past each record's frame, increasing: a record is
    #: emitted once the reader's position passes its end
    ends: tuple[int, ...] = field(repr=False)
    #: payload bytes of each record, in the same order — the value that
    #: flows through the pipeline as the record
    payloads: tuple[int, ...] = field(repr=False)

    @property
    def n_records(self) -> int:
        """Number of records in the shard."""
        return len(self.ends)

    def with_path(self, path: str) -> "ShardInfo":
        """Copy with a different path (cache redirection)."""
        return replace(self, path=path)


def shards_from_manifest(manifest: ShardManifest, paths: list[str]) -> list[ShardInfo]:
    """Bind a manifest's layouts to the global paths they live at."""
    if len(paths) != len(manifest.shards):
        raise ValueError(
            f"{len(paths)} paths for {len(manifest.shards)} shards"
        )
    return [
        ShardInfo(
            path=path,
            size=layout.size_bytes,
            ends=tuple(layout.ends.tolist()),
            payloads=tuple(layout.payload.tolist()),
        )
        for layout, path in zip(manifest.shards, paths)
    ]


class _FusedReader:
    """Callback state machine for one interleave reader.

    Each continuation runs in the exact dispatch slot where a reader
    process would have resumed, and every timing/RNG side effect
    (service-time computation, jitter draw, queue entry) happens in the
    slot such a process would have made it.  When the reader declares
    the whole epoch continuation-capable (see ``PosixReader.fused_capable``;
    the MONARCH readers are always capable and route per read), opens
    and reads go through the backend's ``*_begin`` calls.  Otherwise — a
    generator-only reader, a cache-writing epoch — every open, and every chunk (``pread``, then the cache write
    while cache-writing), runs a small generator through the
    :class:`~repro.framework.io_layer._LegacyDrive` trampoline, for the
    whole epoch, so the shared jitter stream's draw order never depends
    on per-shard routing.
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
        "_payloads",
        "_sync_open",
        "_trampolined",
        "_sync",
        "_op",
    )

    def __init__(self, pipe: "EpochPipeline", trampolined: bool) -> None:
        self.pipe = pipe
        self.alive = True
        self._shard: ShardInfo | None = None
        self._file: Any = None
        self._pos = 0
        self._emitted = 0
        #: bytes of the last completed (or in-flight) read, not yet emitted
        self._take: int | None = None
        self._pread: Any = None
        self._fh: Any = None
        self._chunk = pipe.config.read_chunk
        self._store = pipe._record_store
        self._ends: tuple[int, ...] = ()
        self._payloads: tuple[int, ...] = ()
        self._sync_open = getattr(pipe.reader, "open_is_sync", False)
        self._trampolined = trampolined
        #: a trampolined op is inside ``_LegacyDrive.start`` (see _drive)
        self._sync = False
        self._op: _LegacyDrive | None = None  #: the trampoline running an op

    def _step(self, ev: Any = None) -> None:
        """Emit the records the last read completed, then issue the next
        op: open the next shard, or read a chunk.

        The completion callback of every op — an open, a read, a blocked
        record put — and, with ``ev=None``, the reader's kickoff.  Returns
        once an op is in flight or the shard queue is exhausted.  Ops that
        complete in this slot — a namespace-resolved open, a trampolined
        generator that never suspends — continue the loop instead of
        recursing, so a reader whose reads all complete synchronously
        runs at constant depth.
        """
        if not self.alive:
            return
        if ev is not None and ev._exc is not None:
            # A read died (retry exhaustion, tenancy violation, injected
            # fault): route it exactly like a dead reader process — same
            # slot the process-fail event would occupy.
            self._fail(ev._exc)
            return
        while True:
            n = self._take
            if n:
                # Account the completed read and emit every record whose
                # frame it completes, as one group: under backpressure the
                # reader is woken once per chunk instead of once per record.
                self._take = None
                pos = self._pos + n
                self._pos = pos
                ends = self._ends
                n_records = len(ends)
                emitted = start = self._emitted
                while emitted < n_records and ends[emitted] <= pos:
                    emitted += 1
                if emitted > start:
                    self._emitted = emitted
                    store = self._store
                    # Non-blocking bulk put straight off the shard's payload
                    # column — the common all-fit case never slices.
                    k = start
                    if not store._putters:
                        buf = store._items
                        cap = store.capacity
                        payloads = self._payloads
                        while k < emitted and (cap is None or len(buf) < cap):
                            buf.append(payloads[k])
                            k += 1
                        if k > start and store._getters:
                            store._drain()
                    if k < emitted:
                        store.put_many(self._payloads[k:emitted]).add_callback(self._step)
                        return
            elif n == 0:
                # a short read: the shard ended early
                self._take = None
                self._close()
            if self._file is None and not self._open_next():
                return
            if self._pos >= self._shard.size:
                self._close()
                continue
            if self._trampolined:
                if not self._drive(self._chunk_gen()):
                    return
                continue
            try:
                self._take = self._pread(self._fh, self._pos, self._chunk, self._step)
            except BaseException as err:  # noqa: BLE001 - routed like a dead proc
                self._fail(err)
            return

    def _open_next(self) -> bool:
        """Open the next shard; True when it opened in this slot."""
        pipe = self.pipe
        if not pipe._shard_queue:
            self.alive = False
            pipe._reader_done()
            return False
        shard = pipe.shards[pipe._shard_queue.pop(0)]
        self._shard = shard
        self._pos = 0
        self._emitted = 0
        self._ends = shard.ends
        self._payloads = shard.payloads
        if self._trampolined:
            return self._drive(self._open_gen(shard.path))
        try:
            self._file = pipe.reader.open_begin(shard.path, self._step)
            self._pread, self._fh = pipe.reader.pread_begin_bound(self._file)
        except BaseException as err:  # noqa: BLE001 - routed like a dead proc
            self._fail(err)
            return False
        # A namespace-resolved open (``open_is_sync``) has no timed op:
        # the first read is issued in this slot.
        return self._sync_open

    def _close(self) -> None:
        self.pipe.reader.close(self._file)
        self._file = None

    def _fail(self, err: BaseException) -> None:
        self.alive = False
        self.pipe._fsm_error(err)

    # -- trampolined ops (readers without the continuation protocol) ------
    def _drive(self, gen: Generator[Any, Any, None]) -> bool:
        """Run ``gen`` on the trampoline; True when it finished in this call.

        A generator that never suspends completes inside ``start``; its
        completion is then left to the caller's loop (see :meth:`_step`)
        instead of re-entering it.  Failures always arrive later, as an
        urgent failed event.
        """
        pool = self.pipe._drives
        drive = pool.pop() if pool else _LegacyDrive(self.pipe.sim, pool)
        self._op = drive
        self._sync = True
        drive.start(gen, self._drive_done)
        finished = not self._sync
        self._sync = False
        return finished

    def _drive_done(self, ev: Any) -> None:
        self._op = None
        if self._sync:
            self._sync = False
        else:
            self._step(ev)

    def _open_gen(self, path: str) -> Generator[Any, Any, None]:
        self._file = yield from self.pipe.reader.open(path)

    def _chunk_gen(self) -> Generator[Any, Any, None]:
        pipe = self.pipe
        n = yield from pipe.reader.pread(self._file, self._pos, self._chunk)
        if n and pipe.cache_writing:
            yield from pipe.cache.write_chunk(self._shard.path, n)
        self._take = n


class _FusedMapper:
    """Callback state machine for one parallel preprocess worker.

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
        self._run: list[int] = []
        self._emit_from = 0
        self._got_sentinel = False

    def succeed(self, value: Any = None) -> "_FusedMapper":
        """Store-waiter duck typing: wake via a deferred continuation.

        ``Store._drain`` calls ``.succeed(item)`` on queued getters; an
        Event would be dispatched from the at-now deque one slot later,
        and the appended continuation lands in exactly that slot.
        """
        self.pipe.sim._normal.append((self._on_record, value))
        return self

    def _next(self, _arg: Any = None) -> None:
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
            # A wakeup queued before abort() can land after it; drop it.
            return
        if item is _SENTINEL:
            self._finished()
            return
        # Claim a short run of already-buffered records and hold the core
        # once for their summed time: back-to-back holds on one core are
        # indistinguishable from a single combined hold, so this only
        # quantizes the *emission* instants of the interior records to the
        # run's end — a shift bounded by the run duration (hence the small
        # cap), invisible at epoch scale.
        #
        # try_get is inlined (pop + drain-if-putters): the claim loop runs
        # up to four times per record run and is pure deque traffic.
        pt = self.preprocess_time
        run = [item]
        total = pt(item)
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
            total += pt(nxt)
        self._run = run
        self._emit_from = 0
        self._got_sentinel = got_sentinel
        cpu = self.cpu
        if cpu._in_use < cpu.capacity and not cpu._queue:
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
            cpu.hold(total).add_callback(self._emit_if_alive)

    def _cpu_done_fast(self, _arg: Any) -> None:
        # Release first, even if the pipeline was aborted mid-hold.
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

    def _emit_if_alive(self, _ev: Any) -> None:
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
                    prefetch.put(batch).add_callback(self._emit_if_alive)
                    return
        self._run = []
        if self._got_sentinel:
            self._finished()
            return
        self._next()

    def _finished(self) -> None:
        self.alive = False
        pipe = self.pipe
        pipe._finished_mappers += 1
        if pipe._finished_mappers < pipe.config.num_map_workers:
            return
        if pipe._batch:
            batch, pipe._batch = pipe._batch, []
            if not pipe.prefetch.try_put(batch):
                pipe.prefetch.put(batch).add_callback(self._final_sentinel)
                return
        self._final_sentinel()

    def _final_sentinel(self, _ev: Any = None) -> None:
        pipe = self.pipe
        if not pipe.prefetch.try_put(_SENTINEL):
            # Nothing runs after the sentinel lands, so no callback needed:
            # the queued put is accepted the instant capacity frees.
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
        self.cache_writing = cache_writing and cache is not None
        # Cache redirection: once ready, read the local cache files instead.
        self.shards = cache.effective_shards(shards) if cache else shards
        order = shuffle_rng.permutation(len(self.shards))
        self._shard_queue: list[int] = [int(i) for i in order]
        self.total_batches = -(-sum(s.n_records for s in self.shards) // config.batch_size)
        self._record_store = Store(sim, capacity=config.shuffle_buffer_records, name="shuffle")
        self.prefetch = Store(sim, capacity=config.prefetch_batches, name="prefetch")
        # Batch assembly is plain bookkeeping (no timed ops), so mappers
        # deposit straight into the forming batch instead of routing every
        # record through a dedicated batcher process — one store round
        # trip less per record on the hot path.
        self._batch: list[int] = []
        self._finished_mappers = 0
        self._fsm_readers: list[_FusedReader] = []
        self._fsm_mappers: list[_FusedMapper] = []
        self._readers_left = 0
        #: trampolines shared by the readers (see _FusedReader._drive)
        self._drives: list[_LegacyDrive] = []
        #: why the readers could not use the continuation protocol (a
        #: capability miss: their reads are trampolined), or None
        self.fusion_miss: str | None = None
        self.error: BaseException | None = None

    # -- public API --------------------------------------------------------
    def start(self) -> None:
        """Start every stage; batches appear in :attr:`prefetch`.

        Readers and mappers are continuation state machines, kicked off
        at-now/urgent in stage order.  Readers use the ``*_begin``
        protocol when the reader speaks it and the epoch is not also
        writing the tf.data cache; otherwise they run the
        reader's generators through the trampoline (see
        :class:`_FusedReader`).
        """
        cfg = self.config
        sim = self.sim
        if not self.cache_writing:
            # A capability miss (not a cache-writing epoch, which is
            # trampolined by design) is recorded, so a protocol regression
            # surfaces in the RunReport meta instead of only as a
            # mysteriously slower run.
            self.fusion_miss = fusion_miss(self.reader, [s.path for s in self.shards])
        trampolined = self.cache_writing or self.fusion_miss is not None
        self._readers_left = cfg.cycle_length
        self._fsm_readers = [_FusedReader(self, trampolined) for _ in range(cfg.cycle_length)]
        for r in self._fsm_readers:
            sim.call_now(r._step, None, priority=PRIORITY_URGENT)
        self._fsm_mappers = [_FusedMapper(self) for _ in range(cfg.num_map_workers)]
        for m in self._fsm_mappers:
            sim.call_now(m._next, None, priority=PRIORITY_URGENT)

    def _reader_done(self) -> None:
        """Reader completion: the last one out feeds the mapper sentinels.

        The store's putter queue is FIFO, so queueing all sentinels at
        once delivers them in the order, and at the instants, that
        sequential blocking puts would.
        """
        self._readers_left -= 1
        if self._readers_left > 0:
            return
        store = self._record_store
        for _ in range(self.config.num_map_workers):
            store.put(_SENTINEL)

    def _fsm_error(self, err: BaseException) -> None:
        """Record a stage failure and poison the prefetch buffer.

        The sentinel jumps the capacity bound on purpose, so a consumer
        blocked in :meth:`next_batch` wakes immediately instead of
        deadlocking: the pipeline is dead, nothing else will drain it.
        """
        if self.error is None:
            self.error = err
            self.prefetch._items.append(_SENTINEL)
            self.prefetch._drain()

    def next_batch(self) -> Generator[Any, Any, list[int] | None]:
        """Get the next batch, or ``None`` at end of epoch.

        Re-raises any error that killed a stage (e.g. cache overflow)
        instead of deadlocking on an empty prefetch buffer.
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
        """Stop every stage (failure paths, drop-remainder epoch ends).

        A trampolined op in flight is closed, as killing a reader process
        would close it; a continuation-protocol op runs on and its
        completion is dropped.
        """
        for r in self._fsm_readers:
            r.alive = False
            if r._op is not None:
                r._op.close()
        for m in self._fsm_mappers:
            m.alive = False
