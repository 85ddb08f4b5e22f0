"""Replay a trace through any reader stack on the simulation clock.

:class:`ReplayDriver` is the serving-side counterpart of the epoch
trainer: a master dispatcher process releases requests at their trace
arrival times, each request runs as a chain of continuations (open once
per file — a server-side FD cache — then positional read), and a
:class:`WindowClock` partitions the run into fixed steady-state windows.

A request is not a simulated process, but it occupies exactly the
dispatch slots one would: its first continuation sits where the
process's start event would, its reads go through the reader's
``open_begin``/``pread_begin`` protocol (or, for readers without it,
through the shared generator trampoline
:class:`~repro.framework.io_layer._LegacyDrive`), and its exit
continuation sits where the process's own success event would.  Runs
are therefore slot-for-slot identical to one-process-per-request
replay, at a fraction of the host cost.

Window closing is **explicit**: the dispatcher wakes at every window
edge — between arrivals and while draining stragglers — and closes
exactly one window per edge, sampling tier hit counters and occupancy at
that instant.  When the run ends exactly on a window boundary,
:meth:`WindowClock.finalize` refuses to emit a zero-width trailing
window (the classic fencepost that used to leave an empty/garbage final
entry in windowed series under non-epoch workloads); the regression
tests in ``tests/workload`` pin this.

Latency is measured open-arrival style: completion time minus *scheduled*
arrival, so queueing delay under overload is part of the number, as in
any real serving benchmark.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass, field
from typing import Any

from repro.framework.io_layer import _LegacyDrive, fusion_miss
from repro.simkernel.core import PRIORITY_URGENT
from repro.workload.histogram import LatencyHistogram
from repro.workload.trace import Trace, TraceRequest

__all__ = ["ReplayDriver", "ReplayResult", "WindowClock"]

#: slack for float comparisons against accumulated window edges
_EDGE_EPS = 1e-9


class WindowClock:
    """Explicit, in-order window closing over ``[t0, ∞)``.

    The owner *must* call :meth:`close` exactly at each edge (in time
    order) and :meth:`finalize` once at the end; there is no implicit
    bucketing, so a window can never be emitted empty by accident.
    """

    def __init__(self, t0: float, window_s: float) -> None:
        if window_s <= 0.0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.t0 = t0
        self.window_s = window_s
        #: everything before this instant is inside an already-closed window
        self.closed_until = t0
        self.n_closed = 0

    def next_edge(self) -> float:
        """The instant the currently open window ends."""
        return self.closed_until + self.window_s

    def close(self) -> tuple[float, float]:
        """Close the open window at its edge; returns ``(t_start, t_end)``."""
        start = self.closed_until
        self.closed_until = self.next_edge()
        self.n_closed += 1
        return start, self.closed_until

    def finalize(self, t_end: float) -> tuple[float, float] | None:
        """Close the trailing partial window ``[closed_until, t_end]``.

        Returns ``None`` — emitting nothing — when the run ended exactly
        on (or before) an already-closed edge: the explicit-closing
        contract is that the final window only exists if time actually
        elapsed inside it.
        """
        if t_end <= self.closed_until + _EDGE_EPS:
            return None
        start = self.closed_until
        self.closed_until = t_end
        self.n_closed += 1
        return start, t_end


@dataclass
class ReplayResult:
    """What one finished replay measured (simulated units throughout)."""

    n_requests: int = 0
    completed: int = 0
    #: namespace/metadata initialization before the first arrival
    init_time_s: float = 0.0
    #: replay span on the sim clock (arrivals start at ``t_start``)
    t_start: float = 0.0
    t_end: float = 0.0
    window_s: float = 0.0
    #: offset from ``t_start`` after which windows count as warm
    warmup_s: float = 0.0
    #: closed steady-state windows, in order (see ReplayDriver._close)
    windows: list[dict[str, Any]] = field(default_factory=list)
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    warm_latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    #: middleware hit rate over the whole replay / over warm windows only
    hit_rate: float = 0.0
    warm_hit_rate: float = 0.0
    #: why a reader had to replay its reads through the generator
    #: trampoline for the whole run (``fused_miss`` reason -> readers)
    fusion_misses: dict[str, int] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Replay span (init excluded)."""
        return self.t_end - self.t_start


class ReplayDriver:
    """Feed a trace through reader stacks, window by explicit window.

    ``reader``/``paths`` serve the shared (job ``""``) namespace.  For
    churn traces, ``job_paths`` maps each job id to its file list and
    ``job_setup(job_id, share)`` is a timed generator run at the job's
    ``job_start`` instant, returning that job's reader (e.g. register
    with the middleware, build the namespace, hand back the bound
    :class:`~repro.core.middleware.MonarchReader`); reads of a job wait
    on its setup gate.  With ``job_setup=None`` jobs share ``reader``.

    ``hit_fn`` returns cumulative ``(middleware_reads, pfs_reads)`` and
    ``occupancy_fn`` the current per-tier occupancy in bytes; both are
    sampled at every window edge.
    """

    def __init__(
        self,
        sim: Any,
        trace: Trace,
        reader: Any,
        paths: list[str],
        *,
        windows: int = 20,
        warmup_frac: float = 0.5,
        job_paths: dict[str, list[str]] | None = None,
        job_setup: Callable[[str, float], Generator[Any, Any, Any]] | None = None,
        hit_fn: Callable[[], tuple[int, int]] | None = None,
        occupancy_fn: Callable[[], dict[str, int]] | None = None,
        init_hook: Callable[[], Generator[Any, Any, None]] | None = None,
    ) -> None:
        if windows < 1:
            raise ValueError(f"windows must be >= 1, got {windows}")
        if not 0.0 <= warmup_frac < 1.0:
            raise ValueError(f"warmup_frac must be in [0, 1), got {warmup_frac}")
        self.sim = sim
        self.trace = trace
        self.windows = windows
        self.warmup_frac = warmup_frac
        self.job_setup = job_setup
        self.hit_fn = hit_fn
        self.occupancy_fn = occupancy_fn
        self.init_hook = init_hook
        self._paths: dict[str, list[str]] = {"": paths}
        if job_paths:
            self._paths.update(job_paths)
        self._readers: dict[str, Any] = {}
        #: per job: whether its reader speaks ``open_begin``/``pread_begin``
        self._fused: dict[str, bool] = {}
        self._gates: dict[str, Any] = {}
        self._open: dict[tuple[str, int], Any] = {}
        self._drive_pool: list[_LegacyDrive] = []
        self.result = ReplayResult(n_requests=trace.n_reads)
        self._register("", reader)
        # in-flight requests and job boots, and the drain event they fire
        self._in_flight = 0
        self._launched = False
        self._drained: Any = None
        self._error: BaseException | None = None
        # live window accumulators
        self._clock: WindowClock | None = None
        self._warm_start = 0.0
        self._cur_completed = 0
        self._cur_lat_sum = 0.0
        self._prev_reads = 0
        self._prev_pfs = 0

    # -- window accounting ------------------------------------------------
    def _sample_hits(self) -> tuple[int, int]:
        return self.hit_fn() if self.hit_fn is not None else (0, 0)

    def _close(self, span: tuple[float, float] | None) -> None:
        """Record one explicitly closed window (no-op for a None span)."""
        if span is None:
            return
        t_start, t_end = span
        reads, pfs = self._sample_hits()
        d_reads = reads - self._prev_reads
        d_pfs = pfs - self._prev_pfs
        self._prev_reads, self._prev_pfs = reads, pfs
        entry: dict[str, Any] = {
            "index": len(self.result.windows),
            "t_start": t_start,
            "t_end": t_end,
            "completed": self._cur_completed,
            "mean_latency_s": (self._cur_lat_sum / self._cur_completed
                               if self._cur_completed else 0.0),
            "reads": d_reads,
            "pfs_reads": d_pfs,
            "hit_rate": 1.0 - d_pfs / d_reads if d_reads else 0.0,
        }
        if self.occupancy_fn is not None:
            entry["occupancy"] = self.occupancy_fn()
        self.result.windows.append(entry)
        self._cur_completed = 0
        self._cur_lat_sum = 0.0

    def _flush_tail(self) -> None:
        """Fold work landing exactly on the final closed edge into it.

        When the run ends exactly on a window boundary, :meth:`WindowClock.
        finalize` emits no trailing window — but completions dispatched *at*
        that instant (after the edge closed) still need a home, or the
        window series would sum to less than ``completed``.  They belong to
        the instant the last window closed, so they are merged into it.
        """
        reads, pfs = self._sample_hits()
        d_reads = reads - self._prev_reads
        d_pfs = pfs - self._prev_pfs
        self._prev_reads, self._prev_pfs = reads, pfs
        if self._cur_completed == 0 and d_reads == 0:
            return
        if not self.result.windows:
            # degenerate zero-span trace: everything happened at t0
            t0 = self._clock.t0 if self._clock is not None else 0.0
            self.result.windows.append({
                "index": 0, "t_start": t0, "t_end": t0,
                "completed": 0, "mean_latency_s": 0.0,
                "reads": 0, "pfs_reads": 0, "hit_rate": 0.0,
            })
        w = self.result.windows[-1]
        total = w["completed"] + self._cur_completed
        if total:
            w["mean_latency_s"] = (
                w["mean_latency_s"] * w["completed"] + self._cur_lat_sum
            ) / total
        w["completed"] = total
        w["reads"] += d_reads
        w["pfs_reads"] += d_pfs
        w["hit_rate"] = 1.0 - w["pfs_reads"] / w["reads"] if w["reads"] else 0.0
        self._cur_completed = 0
        self._cur_lat_sum = 0.0

    def _note_completion(self, due: float) -> None:
        latency = self.sim.now - due
        self.result.latency.add(latency)
        self.result.completed += 1
        if due >= self._warm_start - _EDGE_EPS:
            self.result.warm_latency.add(latency)
        self._cur_completed += 1
        self._cur_lat_sum += latency

    # -- per-request continuations ----------------------------------------
    def _register(self, job: str, reader: Any) -> None:
        """Bind ``job``'s reader; note if it cannot serve continuation-style."""
        self._readers[job] = reader
        miss = fusion_miss(reader, self._paths[job])
        self._fused[job] = miss is None
        if miss is not None:
            misses = self.result.fusion_misses
            misses[miss] = misses.get(miss, 0) + 1

    def _begin(self, fl: "_Flight") -> None:
        """A request's first slot: wait on its job gate, else open through
        the FD cache and read; completion calls ``fl``."""
        req = fl.req
        job = req.job
        gate = self._gates.get(job)
        if gate is not None and not gate._processed:
            gate.add_callback(fl.gated)
            return
        reader = self._readers[job]
        try:
            if not self._fused[job]:
                pool = self._drive_pool
                drive = pool.pop() if pool else _LegacyDrive(self.sim, pool)
                drive.start(self._generator_read(reader, req), fl)
                return
            key = (job, req.file_index)
            f = self._open.get(key)
            if f is None:
                f = reader.open_begin(self._paths[job][req.file_index], fl.opened)
                if not reader.open_is_sync:
                    # the FD cache takes the file once its open completes
                    fl.f = f
                    return
                self._open[key] = f
            reader.pread_begin(f, req.offset, req.nbytes, fl)
        except BaseException as err:  # noqa: BLE001 - routed like a dead proc
            self.sim.call_now(self._exit, err, PRIORITY_URGENT)

    def _generator_read(self, reader: Any, req: TraceRequest) -> Generator[Any, Any, None]:
        """:meth:`_begin`'s open and read, for readers without the
        ``*_begin`` protocol."""
        key = (req.job, req.file_index)
        f = self._open.get(key)
        if f is None:
            f = yield from reader.open(self._paths[req.job][req.file_index])
            self._open[key] = f
        yield from reader.pread(f, req.offset, req.nbytes)

    def _exit(self, err: BaseException | None) -> None:
        """A request (or job boot) finished, in its process-exit slot.

        The last one out fires the drain event; the first failure fails
        it — ``all_of`` semantics over the in-flight set.  A failure
        before the drain begins is held until then.
        """
        self._in_flight -= 1
        drained = self._drained
        if drained is None:
            if err is not None and self._error is None:
                self._error = err
        elif not drained._triggered:
            if err is not None:
                drained.fail(err)
            elif self._in_flight == 0:
                drained.succeed()

    def _start_job(self, req: TraceRequest) -> None:
        """Spawn a job's timed setup; its gate releases queued reads."""
        gate = self._gates[req.job]

        def boot() -> Generator[Any, Any, None]:
            assert self.job_setup is not None
            reader = yield from self.job_setup(req.job, req.share or 1.0)
            self._register(req.job, reader)
            gate.succeed()

        proc = self.sim.spawn(boot(), name=f"job-start:{req.job}")
        proc.add_callback(self._boot_done)

    def _boot_done(self, proc: Any) -> None:
        self._exit(proc._exc)

    # -- the dispatcher ----------------------------------------------------
    def run(self) -> Generator[Any, Any, ReplayResult]:
        """The master process: init, dispatch, drain, finalize."""
        sim = self.sim
        res = self.result
        t_boot = sim.now
        if self.init_hook is not None:
            yield from self.init_hook()
        res.init_time_s = sim.now - t_boot
        t0 = sim.now
        res.t_start = t0

        horizon = max(self.trace.duration_s, 1e-6)
        res.window_s = horizon / self.windows
        res.warmup_s = self.warmup_frac * horizon
        self._warm_start = t0 + res.warmup_s
        self._clock = clock = WindowClock(t0, res.window_s)
        self._prev_reads, self._prev_pfs = self._sample_hits()

        for job in self.trace.jobs():
            self._gates[job] = sim.event()

        call_now = sim.call_now
        begin = self._begin
        for req in self.trace.requests:
            due = t0 + req.t
            # wake at (and close) every window edge before this arrival
            while clock.next_edge() <= due + _EDGE_EPS:
                edge = clock.next_edge()
                if edge > sim.now:
                    yield sim.timeout(edge - sim.now)
                self._close(clock.close())
            if due > sim.now:
                ev = sim._pooled_timeout(due - sim.now)
                yield ev
                sim._recycle(ev)
            if req.kind == "read":
                self._in_flight += 1
                call_now(begin, _Flight(self, req, due), PRIORITY_URGENT)
            elif req.kind == "job_start":
                if self.job_setup is None:
                    self._paths.setdefault(req.job, self._paths[""])
                    self._readers[req.job] = self._readers[""]
                    self._fused[req.job] = self._fused[""]
                    self._gates[req.job].succeed()
                    continue
                self._in_flight += 1
                self._start_job(req)
            else:
                continue  # job_end is a trace bookkeeping marker
            self._launched = True

        # drain in-flight requests, still closing windows edge by edge
        if self._launched:
            if self._error is not None:
                raise self._error
            self._drained = done = sim.event()
            if self._in_flight == 0:
                done.succeed()
            while not done.triggered:
                yield sim.any_of([done, sim.timeout(clock.next_edge() - sim.now)])
                while clock.next_edge() <= sim.now + _EDGE_EPS:
                    self._close(clock.close())
        res.t_end = sim.now
        span = clock.finalize(sim.now)
        if span is None:
            self._flush_tail()
        else:
            self._close(span)

        res.hit_rate = self._overall_hit_rate()
        res.warm_hit_rate = self._warm_hit_rate()
        return res

    # -- summaries --------------------------------------------------------
    def _overall_hit_rate(self) -> float:
        reads, pfs = self._sample_hits()
        if reads == 0:
            return 0.0
        return 1.0 - pfs / reads

    def _warm_hit_rate(self) -> float:
        reads = pfs = 0
        for w in self.result.windows:
            if w["t_start"] >= self._warm_start - _EDGE_EPS:
                reads += w["reads"]
                pfs += w["pfs_reads"]
        if reads == 0:
            return 0.0
        return 1.0 - pfs / reads


class _Flight:
    """One in-flight request: the continuation state of its would-be process.

    Called as the read's completion callback; :meth:`opened` continues a
    timed open, :meth:`gated` a read queued behind its job's setup.  A
    failed event — from the generator trampoline, or a fault proxy's
    continuation op — arrives in the slot the dying process's fail event
    would occupy, so a failure exits at once.
    """

    __slots__ = ("driver", "req", "due", "f")

    def __init__(self, driver: ReplayDriver, req: TraceRequest, due: float) -> None:
        self.driver = driver
        self.req = req
        self.due = due
        self.f: Any = None

    def gated(self, _ev: Any) -> None:
        self.driver._begin(self)

    def opened(self, ev: Any) -> None:
        driver = self.driver
        if ev._exc is not None:
            driver._exit(ev._exc)
            return
        driver._open[(self.req.job, self.req.file_index)] = self.f
        driver._begin(self)  # the FD cache now holds the file: read it

    def __call__(self, ev: Any) -> None:
        driver = self.driver
        if ev is not None and ev._exc is not None:
            driver._exit(ev._exc)
            return
        driver._note_completion(self.due)
        driver.sim.call_now(driver._exit, None, PRIORITY_URGENT)
