"""The pluggable reader interface — the paper's 6-LoC integration point.

The paper integrates MONARCH into TensorFlow by building a file-system
driver that replaces the POSIX ``pread`` with ``Monarch.read(filename,
offset, size)``.  Our framework reads shards exclusively through a
:class:`DataReader`; the vanilla baselines use :class:`PosixReader` (which
routes through the mount table to whatever backend owns the path) and the
MONARCH setup swaps in ``repro.core.middleware.MonarchReader`` — one
constructor argument, nothing else in the framework changes.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from typing import Any

from repro.simkernel.core import PRIORITY_URGENT, Event, SimulationError
from repro.storage.base import FileHandle
from repro.storage.vfs import MountTable

__all__ = [
    "DataReader",
    "OpenFile",
    "PosixReader",
    "fusion_miss",
]

def fusion_miss(reader: Any, paths: list[str]) -> str | None:
    """Why ``reader`` cannot serve ``paths`` continuation-style, or None.

    ``reader:<Class>`` marks a reader without the ``fused_capable``
    check (a generator-only reader); otherwise the reader's own
    ``fused_miss`` reason.  The pipeline and the serving replay both
    surface this in the RunReport meta.
    """
    cap = getattr(reader, "fused_capable", None)
    if cap is not None and cap(paths):
        return None
    miss = getattr(reader, "fused_miss", None)
    reason = miss(paths) if cap is not None and miss is not None else None
    return reason or f"reader:{type(reader).__name__}"


class _LegacyDrive:
    """Drives one read generator continuation-style.

    The trampoline that makes any generator-only read continuation-capable
    (pipeline readers, MONARCH's non-inlined reads, the serving replay):
    it stands in for the ``Process`` that would otherwise run ``gen``,
    resuming the generator from event callbacks in exactly the slots
    ``Process._resume`` would (including the immediate-resume fast path
    for already-processed events), so a caller that swaps a process for
    this object dispatches every timed op and RNG draw identically.  A
    generator exception is delivered to ``cb`` as an urgent failed event
    — the slot a dying process's fail event would occupy.  Instances
    return themselves to ``pool`` when done.

    ``take`` is the transfer size the caller already promised its own
    caller synchronously (the ``pread_begin`` contract).  With a promise
    outstanding the generator's return value is checked against it, and
    a zero-yield completion is deferred one urgent slot, since a
    synchronous ``cb`` would run before the caller stored the size.
    Without one (``take=None``) a zero-yield generator completes in its
    start slot, as the process would have.
    """

    __slots__ = ("sim", "pool", "gen", "cb", "take", "target")

    def __init__(self, sim: Any, pool: list["_LegacyDrive"]) -> None:
        self.sim = sim
        self.pool = pool
        self.gen: Any = None
        self.cb: Any = None
        self.take: int | None = None
        self.target: Any = None  #: the event the suspended generator waits on

    def start(self, gen: Any, cb: Any, take: int | None = None) -> None:
        """Run ``gen`` to its first suspension in the caller's slot."""
        self.gen = gen
        self.take = take
        self.cb = cb
        self._advance(gen.send, None, None)

    def _step(self, ev: Any) -> None:
        if ev._exc is not None:
            self._advance(self.gen.throw, ev._exc, ev)
        else:
            self._advance(self.gen.send, ev._value, ev)

    def _advance(self, entry: Any, arg: Any, last: Any) -> None:
        gen = self.gen
        try:
            target = entry(arg)
            # Mirror Process._resume's already-processed fast path: an
            # event that fired in an earlier slot resumes immediately.
            while target._processed:
                last = target
                if target._exc is not None:
                    target = gen.throw(target._exc)
                else:
                    target = gen.send(target._value)
        except StopIteration as stop:
            self._finish(stop.value, last)
            return
        except BaseException as err:  # noqa: BLE001 - routed like a dead proc
            self._fail(err)
            return
        self.target = target
        target.add_callback(self._step)

    def close(self) -> None:
        """Abandon the suspended generator, as ``Process.kill`` does."""
        if self.gen is not None:
            self.target.callbacks.remove(self._step)
            self.gen.close()
            self.gen = self.cb = None

    def _finish(self, value: Any, last: Any) -> None:
        take = self.take
        if take is not None and value != take:
            # The caller promised the transfer size synchronously; the
            # generator returning anything else means records were built
            # from a wrong size — fail loudly rather than diverge.
            self._fail(
                SimulationError(
                    f"legacy read returned {value} bytes; fused protocol "
                    f"promised {take}"
                )
            )
            return
        cb = self.cb
        self.gen = None
        self.cb = None
        self.pool.append(self)
        if last is None and take is not None:
            self.sim.call_now(cb, None, priority=PRIORITY_URGENT)
            return
        cb(last)

    def _fail(self, err: BaseException) -> None:
        cb = self.cb
        self.gen = None
        self.cb = None
        self.pool.append(self)
        ev = Event(self.sim, name="legacy-read-error")
        ev.add_callback(cb)
        ev.fail(err, priority=PRIORITY_URGENT)


@dataclass
class OpenFile:
    """What the framework holds for an open shard: name, size, token."""

    path: str
    size: int
    token: Any = None  # backend-specific (a FileHandle for POSIX)


class DataReader:
    """Interface the input pipeline reads training data through."""

    #: readers whose fused ``open_begin`` completes with no timed
    #: operation set this True; the pipeline's reader then chains straight
    #: into the first read in the caller's dispatch slot — exactly what a
    #: zero-yield generator ``open`` does
    open_is_sync = False

    def open(self, path: str) -> Generator[Any, Any, OpenFile]:
        """Timed open of ``path``; returns an :class:`OpenFile`."""
        raise NotImplementedError

    def pread(self, f: OpenFile, offset: int, nbytes: int) -> Generator[Any, Any, int]:
        """Timed positional read; returns bytes transferred."""
        raise NotImplementedError

    def close(self, f: OpenFile) -> None:
        """Release any per-file state (untimed)."""
        return


class PosixReader(DataReader):
    """Default reader: straight through the mount table (the vanilla path)."""

    def __init__(self, mounts: MountTable) -> None:
        self.mounts = mounts

    def open(self, path: str) -> Generator[Any, Any, OpenFile]:
        handle: FileHandle = yield from self.mounts.open(path, "r")
        return OpenFile(path=path, size=handle.size, token=handle)

    def pread(self, f: OpenFile, offset: int, nbytes: int) -> Generator[Any, Any, int]:
        # The handle already knows its backend; returning the backend's
        # generator directly (no wrapper frame) means the caller's
        # ``yield from`` delegates straight into it — one generator frame
        # fewer on every hot-path resume.
        handle: FileHandle = f.token
        return handle.fs.pread(handle, offset, nbytes)

    # -- fused (continuation-style) protocol ---------------------------
    def fused_capable(self, paths: list[str]) -> bool:
        """True unless :meth:`fused_miss` names a reason.

        The pipeline's readers (see ``framework.pipeline``) use the
        ``*_begin`` calls only when the whole epoch can run
        continuation-style, so RNG draw order never depends on which
        shard hit which path.
        """
        return self.fused_miss(paths) is None

    def fused_miss(self, paths: list[str]) -> str | None:
        """Why :meth:`fused_capable` declines: never, since every
        shipped backend — fault-injection proxies included — speaks the
        ``*_begin`` protocol."""
        return None

    def open_begin(self, path: str, cb: Any) -> OpenFile:
        """Continuation-style open: returns the OpenFile synchronously,
        schedules ``cb(event)`` at the metadata-op completion instant."""
        fs, rel = self.mounts.resolve(path)
        handle: FileHandle = fs.open_begin(rel, cb)
        return OpenFile(path=path, size=handle.size, token=handle)

    def pread_begin(self, f: OpenFile, offset: int, nbytes: int, cb: Any) -> int:
        """Continuation-style pread: returns the transfer size
        synchronously, schedules ``cb(event)`` at completion."""
        handle: FileHandle = f.token
        return handle.fs.pread_begin(handle, offset, nbytes, cb)

    def pread_begin_bound(self, f: OpenFile) -> tuple[Any, FileHandle]:
        """Hot-loop form of :meth:`pread_begin`: the backend's bound
        ``pread_begin`` plus the handle to pass it, so a per-chunk loop
        pays one call instead of a delegation hop per read."""
        handle: FileHandle = f.token
        return handle.fs.pread_begin, handle
