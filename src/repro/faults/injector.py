"""Seeded, deterministic fault injection for simulated backends.

:class:`FaultInjector` arms a :class:`~repro.faults.plan.FaultPlan`
against a simulation: it wraps each planned mount's
:class:`~repro.storage.base.FileSystem` in a delegating proxy,
:class:`FaultyFileSystem`, that consults the plan before every timed
operation, in the generator form and in the ``*_begin`` continuation
form alike.

Determinism contract:

* Each mount gets a private RNG substream, spawned from the injector's
  stream in sorted-mount order — wrapping more mounts never perturbs the
  draws of another mount.
* A probability draw happens *only* while a transient window covering the
  current instant has ``p > 0`` for the op's direction, so the draw
  sequence is a pure function of the (deterministic) op sequence.
* Faulted operations consume **zero** simulated time: the error surfaces
  before the backend is touched, like an EIO from a dead device (raised
  by a generator op; delivered to the callback of a continuation op as
  an urgent failed event in the same instant).
* Latency spikes stretch an op by holding the extra time *after* the
  inner op completes, using the simulator's pooled timeout events.

The file-system proxy is deliberately *not* a ``LocalFileSystem`` /
``ParallelFileSystem`` subclass: the placement handler times whole-file
copies itself only over those concrete types and falls back to one
``pread``/``pwrite`` per chunk otherwise, which guarantees every copy
byte passes through the proxy.
"""

from __future__ import annotations

from collections.abc import Generator, Sequence
from typing import Any

import numpy as np

from repro.faults.plan import FaultEvent, FaultPlan, LatencySpike, TierDown, TransientFaults
from repro.simkernel.core import PRIORITY_URGENT, Event
from repro.storage.base import (
    FileHandle,
    FileMeta,
    IOFaultError,
    NoSpaceError,
    TierFailedError,
    norm_path,
)

__all__ = ["FaultInjector", "FaultyFileSystem", "TierFaultState", "is_fault_wrapped"]


class TierFaultState:
    """Evaluates one mount's fault schedule against the simulation clock."""

    def __init__(
        self,
        sim: Any,
        mount: str,
        events: Sequence[FaultEvent],
        rng: np.random.Generator,
    ) -> None:
        self.sim = sim
        self.mount = mount
        self.rng = rng
        self._transients = tuple(e for e in events if isinstance(e, TransientFaults))
        self._spikes = tuple(e for e in events if isinstance(e, LatencySpike))
        self._downs = tuple(e for e in events if isinstance(e, TierDown))
        # Injected-fault counters, by kind.
        self.transient_reads = 0
        self.transient_writes = 0
        self.down_rejections = 0

    def is_down(self, at: float | None = None) -> bool:
        """Whether a ``tier_down`` covers ``at`` (default: now)."""
        now = self.sim.now if at is None else at
        return any(d.active(now) for d in self._downs)

    def check(self, write: bool) -> None:
        """Raise the scheduled fault for one op starting now, if any.

        Zero simulated time passes: call before delegating to the backend.
        """
        now = self.sim.now
        if self.is_down(now):
            self.down_rejections += 1
            raise TierFailedError(f"{self.mount}: tier is down (fault plan)", mount=self.mount)
        for window in self._transients:
            p = window.write_p if write else window.read_p
            if p <= 0.0 or not window.active(now):
                continue
            if self.rng.random() < p:
                if write:
                    self.transient_writes += 1
                else:
                    self.transient_reads += 1
                kind = "write" if write else "read"
                if window.error == "nospace":
                    err: IOFaultError | NoSpaceError = NoSpaceError(
                        f"{self.mount}: injected ENOSPC on {kind}"
                    )
                    err.mount = self.mount  # type: ignore[attr-defined]
                    raise err
                raise IOFaultError(
                    f"{self.mount}: injected {kind} fault", mount=self.mount
                )

    def latency_multiplier(self, at: float | None = None) -> float:
        """Product of active latency-spike multipliers at ``at`` (>= 1)."""
        now = self.sim.now if at is None else at
        mult = 1.0
        for spike in self._spikes:
            if spike.active(now):
                mult *= spike.multiplier
        return mult

    @property
    def faults_injected(self) -> int:
        """Total faults this mount has raised."""
        return self.transient_reads + self.transient_writes + self.down_rejections


class FaultInjector:
    """Arms a fault plan: builds per-mount states and wraps backends."""

    def __init__(self, sim: Any, plan: FaultPlan, rng: np.random.Generator) -> None:
        self.sim = sim
        self.plan = plan
        mounts = plan.mounts()
        streams = rng.spawn(len(mounts)) if mounts else []
        self._states = {
            mount: TierFaultState(sim, mount, plan.for_mount(mount), stream)
            for mount, stream in zip(mounts, streams)
        }

    def state_for(self, mount: str) -> TierFaultState | None:
        """The mount's fault state, or None when it has no events."""
        return self._states.get(mount)

    def wrap_fs(self, mount: str, fs: Any) -> Any:
        """Wrap ``fs`` if the plan targets ``mount``; else return it as is."""
        state = self._states.get(mount)
        if state is None:
            return fs
        return FaultyFileSystem(fs, state)

    def counters(self) -> dict[str, int]:
        """Flat ``{mount/kind: count}`` view of every injected fault."""
        out: dict[str, int] = {}
        for mount, state in sorted(self._states.items()):
            out[f"{mount}/transient_reads"] = state.transient_reads
            out[f"{mount}/transient_writes"] = state.transient_writes
            out[f"{mount}/down_rejections"] = state.down_rejections
        return out


def is_fault_wrapped(fs: Any) -> bool:
    """Whether ``fs`` is a fault-injection proxy (a mount the plan targets).

    The middleware readers keep reads on such mounts on the generators
    that own fallback, retry and quarantine.
    """
    return type(fs) is FaultyFileSystem


class FaultyFileSystem:
    """FileSystem proxy that consults the fault schedule on every timed op.

    Untimed bookkeeping (``exists``, ``file_size``, ``unlink``,
    ``add_file``, ``apply_bulk_write``, stats, ...) passes straight
    through — cleanup after a failed copy must always succeed, exactly as
    dropping an in-memory descriptor table does on a dead device.

    The read ops come in both forms the backends offer: generators, and
    the ``open_begin``/``pread_begin`` continuation protocol.  Both check
    the schedule at issue and sample the latency multiplier there; the
    continuation form delivers an injected fault to ``cb`` as an urgent
    failed event (the slot a generator's failure reaches its driver in)
    and chains the spike surcharge after the inner op on a pooled
    timeout, as :meth:`_stretched` does.  Handles from either form are
    bound to the proxy, so follow-up I/O routed via ``handle.fs`` cannot
    tunnel past the injector.
    """

    def __init__(self, inner: Any, state: TierFaultState) -> None:
        self._inner = inner
        self._state = state
        self.sim = state.sim

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    @property
    def inner(self) -> Any:
        """The wrapped backend (escape hatch for tests/diagnostics)."""
        return self._inner

    @property
    def fault_state(self) -> TierFaultState:
        """This backend's schedule evaluator."""
        return self._state

    def _stretched(self, gen: Generator[Any, Any, Any]) -> Generator[Any, Any, Any]:
        """Run ``gen``, then hold the latency-spike surcharge.

        The multiplier is sampled at op start (the instant the plan
        schedules); the surcharge reuses the simulator's pooled timeout
        events so spiked runs allocate no extra Event objects.
        """
        mult = self._state.latency_multiplier()
        if mult <= 1.0:
            result = yield from gen
            return result
        t0 = self.sim.now
        result = yield from gen
        extra = (mult - 1.0) * (self.sim.now - t0)
        if extra > 0.0:
            ev = self.sim._pooled_timeout(extra)
            yield ev
            self.sim._recycle(ev)
        return result

    def _stretched_cb(self, cb: Any) -> Any:
        """:meth:`_stretched` for a continuation op: the callback to hand
        the inner op, which holds the surcharge before running ``cb``."""
        mult = self._state.latency_multiplier()
        if mult <= 1.0:
            return cb
        sim = self.sim
        t0 = sim.now

        def _surcharged(ev: Any) -> None:
            sim._recycle(ev)
            cb(ev)

        def _inner_done(ev: Any) -> None:
            extra = (mult - 1.0) * (sim.now - t0)
            if extra > 0.0:
                sim._pooled_timeout(extra).callbacks = [_surcharged]
            else:
                cb(ev)

        return _inner_done

    def _admits(self, cb: Any) -> bool:
        """Check a continuation read op at issue; False when it faulted.

        The fault reaches ``cb`` as an urgent failed event instead of
        being raised at the caller.
        """
        try:
            self._state.check(write=False)
        except (IOFaultError, NoSpaceError) as err:
            ev = Event(self.sim, name="injected-fault")
            ev.add_callback(cb)
            ev.fail(err, priority=PRIORITY_URGENT)
            return False
        return True

    # -- timed metadata ops (count as reads) ------------------------------
    def open(self, path: str, flags: str = "r") -> Generator[Any, Any, FileHandle]:
        self._state.check(write=flags != "r")
        handle = yield from self._stretched(self._inner.open(path, flags))
        return FileHandle(fs=self, meta=handle.meta, flags=handle.flags)

    def open_begin(self, path: str, cb: Any) -> FileHandle:
        """Continuation-style read-only :meth:`open`.  The handle of a
        faulted open names the path with no size; ``cb`` fails."""
        if not self._admits(cb):
            return FileHandle(fs=self, meta=FileMeta(path=norm_path(path)), flags="r")
        handle = self._inner.open_begin(path, self._stretched_cb(cb))
        return FileHandle(fs=self, meta=handle.meta, flags="r")

    def stat(self, path: str) -> Generator[Any, Any, Any]:
        self._state.check(write=False)
        meta = yield from self._stretched(self._inner.stat(path))
        return meta

    def listdir(self, path: str) -> Generator[Any, Any, list[str]]:
        self._state.check(write=False)
        entries = yield from self._stretched(self._inner.listdir(path))
        return entries

    # -- timed data ops ----------------------------------------------------
    def pread(
        self, handle: FileHandle, offset: int, nbytes: int, *args: Any, **kwargs: Any
    ) -> Generator[Any, Any, int]:
        self._state.check(write=False)
        n = yield from self._stretched(self._inner.pread(handle, offset, nbytes, *args, **kwargs))
        return n

    def pread_begin(
        self, handle: FileHandle, offset: int, nbytes: int, cb: Any, *args: Any, **kwargs: Any
    ) -> int:
        """Continuation-style :meth:`pread`.  A faulted read transfers
        nothing (returns 0); ``cb`` fails."""
        if not self._admits(cb):
            return 0
        return self._inner.pread_begin(
            handle, offset, nbytes, self._stretched_cb(cb), *args, **kwargs
        )

    def pwrite(self, handle: FileHandle, offset: int, nbytes: int) -> Generator[Any, Any, int]:
        self._state.check(write=True)
        n = yield from self._stretched(self._inner.pwrite(handle, offset, nbytes))
        return n
