"""Queued resources for the DES kernel.

Three primitives cover everything the storage and framework substrates
need:

* :class:`Resource` — a server with ``capacity`` slots and a FIFO queue
  (device channels, CPU cores, GPU streams, thread-pool workers).
* :class:`Container` — a continuous quantity with bounded level (storage
  occupancy, memory budget).
* :class:`Store` — a bounded FIFO of Python objects (pipeline stages,
  prefetch buffers, work queues).
* :class:`SimLock` — a convenience mutex built on :class:`Resource`.

All primitives are strictly FIFO so simulations stay deterministic.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator, Sequence
from heapq import heappush
from typing import Any

from repro.simkernel.core import PRIORITY_NORMAL, Event, Simulator
from repro.simkernel.errors import SimulationError
from repro.simkernel.monitor import UtilizationMonitor

__all__ = ["Container", "Resource", "SimLock", "Store", "parallel_using"]


def parallel_using(sim: Simulator, holds: list[tuple["Resource", float]]) -> Event:
    """Hold several resources concurrently; fires when every hold released.

    A callback-level replacement for spawning one process per hold (the
    striped-read fan-out pattern): each uncontended hold costs a single
    timeout event instead of a process start/finish pair.  Semantics match
    independent holders — each hold queues FIFO on its resource and the
    returned event fires when the slowest one completes.  The holds run to
    completion even if the waiter is killed, exactly like detached holder
    processes would.
    """
    done = Event(sim, "parallel-using")
    remaining = len(holds)
    if remaining == 0:
        done.succeed(())
        return done

    def _one_done(_ev: Event) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining == 0:
            done.succeed(())

    # Each hold() is slot- and seq-identical to the request/timeout pair it
    # replaces (uncontended: end timer scheduled here; queued: grant slot
    # schedules it), and its end slot releases before running _one_done —
    # the same release-then-count order the closure version had.
    for res, t in holds:
        res.hold(t, _one_done)
    return done


class _HoldEnd(Event):
    """The one kernel object behind :meth:`Resource.hold`.

    Doubles as the queued request *and* the hold-end timer.  While
    ``_phase`` is 0 it sits in the resource's FIFO; the grant dispatch
    slot (its first ``_process``) starts the timed hold by re-scheduling
    the same object at the end instant — no generator resume happens in
    the middle of the hold.  The second ``_process`` releases the slot
    and only then wakes the waiter, matching ``using``'s finally-before-
    continuation ordering exactly.
    """

    __slots__ = ("res", "hold_time", "_phase")

    def _process(self) -> None:
        if self._phase == 0:
            # Grant slot: occupy the channel until now + hold_time.  The
            # waiting process stays parked; only this object travels.
            self._phase = 1
            sim = self.sim
            now = sim._now
            when = now + self.hold_time
            if when > now:
                sim._seq += 1
                heappush(sim._heap, (when, PRIORITY_NORMAL, sim._seq, self))
            else:
                sim._normal.append(self)
            return
        # End slot: release before resuming waiters — in ``using`` the
        # release runs inside the resumed generator's finally before any
        # caller code, so every observer sees post-release state either way.
        # (_release_slot inlined: this is the hottest dispatch in the sim.)
        res = self.res
        in_use = res._in_use - 1
        if in_use < 0:
            raise SimulationError(f"double release on resource {res.name!r}")
        res._in_use = in_use
        m = res.monitor
        now = self.sim._now
        m._area += m._level * (now - m._last_t)
        m._last_t = now
        m._level = in_use
        if res._queue and in_use < res.capacity:
            res._grant(res._queue.popleft())
        self._processed = True
        callbacks = self.callbacks
        if callbacks is not None:
            self.callbacks = None
            for fn in callbacks:
                fn(self)
        res._recycle_hold(self)


class Resource:
    """A server with ``capacity`` identical slots and a FIFO wait queue.

    Usage inside a process::

        req = resource.request()
        yield req
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release(req)

    or, more conveniently, ``yield from resource.using(service_time)``.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._req_name = name + ".request"
        self._in_use = 0
        self._queue: deque[Event] = deque()
        # Free list of recycled _HoldEnd objects (see hold()).
        self._hold_pool: list[_HoldEnd] = []
        self.monitor = UtilizationMonitor(sim, capacity=capacity, name=name)

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_len(self) -> int:
        """Number of waiters not yet granted a slot."""
        return len(self._queue)

    def request(self) -> Event:
        """Return an event that fires when a slot is granted."""
        ev = Event(self.sim, self._req_name)
        if self._in_use < self.capacity and not self._queue:
            self._grant(ev)
        else:
            self._queue.append(ev)
        return ev

    def release(self, req: Event) -> None:
        """Release a previously granted slot.

        ``req`` must be the event returned by :meth:`request`.  Releasing an
        ungranted request cancels it instead.
        """
        if not req.triggered:
            try:
                self._queue.remove(req)
            except ValueError as err:
                raise SimulationError(
                    f"release of unknown request on {self.name!r}"
                ) from err
            return
        self._release_slot()

    def _release_slot(self) -> None:
        self._in_use -= 1
        if self._in_use < 0:
            raise SimulationError(f"double release on resource {self.name!r}")
        self.monitor.record(self._in_use)
        if self._queue and self._in_use < self.capacity:
            self._grant(self._queue.popleft())

    def _grant(self, ev: Event) -> None:
        self._in_use += 1
        self.monitor.record(self._in_use)
        ev.succeed(self)

    def using(self, hold_time: float) -> Generator[Event, Any, None]:
        """``yield from`` helper: acquire, hold for ``hold_time``, release.

        The acquisition itself sits inside the ``try`` so that a process
        killed (or interrupted) while still *waiting* for the slot cancels
        its queued request instead of leaking a granted-to-nobody slot.

        When a slot is free and nobody queues, the request round trip is
        skipped entirely: the slot is granted synchronously and only the
        hold timeout enters the event heap.  Grant/release instants are
        identical to the queued path, so simulated times do not change.
        """
        if self._in_use < self.capacity and not self._queue:
            sim = self.sim
            m = self.monitor
            # Inlined monitor.record(+1)/record(-1): this pair runs once
            # per uncontended hold, the hottest call site in the kernel.
            now = sim._now
            m._area += m._level * (now - m._last_t)
            m._last_t = now
            self._in_use += 1
            m._level = self._in_use
            ev = sim._pooled_timeout(hold_time)
            try:
                yield ev
            finally:
                self._in_use -= 1
                now = sim._now
                m._area += m._level * (now - m._last_t)
                m._last_t = now
                m._level = self._in_use
                if self._queue and self._in_use < self.capacity:
                    self._grant(self._queue.popleft())
            sim._recycle(ev)
            return
        req = self.request()
        try:
            yield req
            ev = self.sim._pooled_timeout(hold_time)
            yield ev
        finally:
            self.release(req)
        self.sim._recycle(ev)

    def hold(self, hold_time: float, cb: Any = None) -> Event:
        """Single-yield fused acquire + hold + release.

        ``yield resource.hold(t)`` is simulation-equivalent to
        ``yield from resource.using(t)`` — same grant/release instants,
        same same-instant ordering against every other event — but the
        returned event is the only kernel object involved: an uncontended
        hold costs one dispatch slot (the end), a queued one adds just the
        grant slot, and neither resumes the caller's generator mid-hold.

        The returned event is owned by the caller: yield it immediately,
        never retain it, and treat its value as unspecified.  If the
        waiting process is killed the hold still runs to completion and
        releases detached (the ``parallel_using`` contract) rather than
        cancelling a queued request like ``using`` does.
        """
        sim = self.sim
        pool = self._hold_pool
        if pool:
            ev = pool.pop()
        else:
            ev = _HoldEnd(sim, self._req_name)
            ev.res = self
        ev.hold_time = hold_time
        if cb is not None:
            # Convenience for continuation callers: equivalent to calling
            # add_callback(cb) on the result (pooled events always come
            # back with an empty callback list).
            ev.callbacks = [cb]
        if self._in_use < self.capacity and not self._queue:
            # Uncontended: skip the grant slot entirely; schedule the end
            # directly (inlined monitor math as in using()'s fast path).
            m = self.monitor
            now = sim._now
            m._area += m._level * (now - m._last_t)
            m._last_t = now
            self._in_use += 1
            m._level = self._in_use
            ev._phase = 1
            ev._triggered = True
            when = now + hold_time
            if when > now:
                sim._seq += 1
                heappush(sim._heap, (when, PRIORITY_NORMAL, sim._seq, ev))
            else:
                sim._normal.append(ev)
            return ev
        ev._phase = 0
        self._queue.append(ev)
        return ev

    def _recycle_hold(self, ev: "_HoldEnd") -> None:
        """Return a finished hold-end object to this resource's pool."""
        if len(self._hold_pool) < 32:
            ev._triggered = False
            ev._processed = False
            ev._value = None
            ev._exc = None
            ev.callbacks = None
            self._hold_pool.append(ev)


class SimLock:
    """A mutex: a :class:`Resource` of capacity 1 with lock-ish naming."""

    def __init__(self, sim: Simulator, name: str = "lock") -> None:
        self._res = Resource(sim, capacity=1, name=name)

    def acquire(self) -> Event:
        """Event that fires when the lock is held by the caller."""
        return self._res.request()

    def release(self, req: Event) -> None:
        """Release the lock acquired via the given request event."""
        self._res.release(req)

    @property
    def locked(self) -> bool:
        """True while some process holds the lock."""
        return self._res.in_use > 0

    def holding(self, body_time: float) -> Generator[Event, Any, None]:
        """``yield from`` helper: hold the lock for ``body_time``."""
        yield from self._res.using(body_time)


class Container:
    """A continuous quantity bounded by ``[0, capacity]``.

    ``put``/``get`` return events that fire once the operation can complete
    in full (no partial grants).  Waiters are strictly FIFO *per side*, and
    gets are granted before puts at the same release point — sufficient for
    our use (storage occupancy never blocks, memory budgets drain fairly).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: float,
        init: float = 0.0,
        name: str = "container",
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if not 0 <= init <= capacity:
            raise ValueError(f"init={init} outside [0, {capacity}]")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = init
        self._get_waiters: deque[tuple[float, Event]] = deque()
        self._put_waiters: deque[tuple[float, Event]] = deque()

    @property
    def level(self) -> float:
        """Current stored amount."""
        return self._level

    @property
    def free(self) -> float:
        """Remaining headroom."""
        return self.capacity - self._level

    def put(self, amount: float) -> Event:
        """Event firing once ``amount`` fits (level+amount <= capacity)."""
        if amount < 0:
            raise ValueError(f"negative put: {amount}")
        if amount > self.capacity:
            raise ValueError(f"put of {amount} exceeds capacity {self.capacity}")
        ev = self.sim.event(name=f"{self.name}.put")
        self._put_waiters.append((amount, ev))
        self._drain()
        return ev

    def get(self, amount: float) -> Event:
        """Event firing once ``amount`` is available to withdraw."""
        if amount < 0:
            raise ValueError(f"negative get: {amount}")
        if amount > self.capacity:
            raise ValueError(f"get of {amount} exceeds capacity {self.capacity}")
        ev = self.sim.event(name=f"{self.name}.get")
        self._get_waiters.append((amount, ev))
        self._drain()
        return ev

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._get_waiters:
                amount, ev = self._get_waiters[0]
                if amount <= self._level:
                    self._get_waiters.popleft()
                    self._level -= amount
                    ev.succeed(amount)
                    progressed = True
                    continue
            if self._put_waiters:
                amount, ev = self._put_waiters[0]
                if self._level + amount <= self.capacity:
                    self._put_waiters.popleft()
                    self._level += amount
                    ev.succeed(amount)
                    progressed = True


class Store:
    """A bounded FIFO of arbitrary items (a pipeline stage buffer).

    ``put(item)`` blocks while the store is full; ``get()`` blocks while it
    is empty.  Both sides are FIFO.  A ``capacity`` of ``None`` means
    unbounded (puts never block).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: int | None = None,
        name: str = "store",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._put_name = name + ".put"
        self._get_name = name + ".get"
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Any, Event]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        """True if a put would block right now."""
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Event firing once ``item`` has been accepted into the store."""
        ev = Event(self.sim, self._put_name)
        self._putters.append((item, ev))
        self._drain()
        return ev

    def get(self) -> Event:
        """Event firing with the next item once one is available."""
        ev = Event(self.sim, self._get_name)
        self._getters.append(ev)
        self._drain()
        return ev

    def try_put(self, item: Any) -> bool:
        """Accept ``item`` synchronously if it cannot block; else False.

        Equivalent to ``put`` succeeding at the current instant, but with
        no event allocation or heap traffic — the fast path for pipeline
        stages whose buffers are rarely full.
        """
        cap = self.capacity
        if self._putters or (cap is not None and len(self._items) >= cap):
            return False
        self._items.append(item)
        if self._getters:
            self._drain()
        return True

    def put_many(self, items: Sequence[Any]) -> Event:
        """Event firing once the *last* of ``items`` has been accepted.

        Items enter the buffer FIFO exactly as back-to-back :meth:`put`
        calls would — each slips in the instant capacity frees — but the
        producer is woken only once, when the final item lands, instead
        of once per item.  (The intermediate wake-ups of the per-item
        pattern exist only to issue the next ``put`` at the same instant,
        so eliding them leaves all simulated times unchanged.)
        """
        if not items:
            raise ValueError("put_many of no items")
        ev = Event(self.sim, self._put_name)
        putters = self._putters
        for item in items[:-1]:
            putters.append((item, None))
        putters.append((items[-1], ev))
        self._drain()
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Withdraw the next item synchronously if one is ready.

        Returns ``(True, item)`` when an item was available and no earlier
        getter is queued; ``(False, None)`` otherwise (caller falls back to
        the event-based :meth:`get`).
        """
        if self._getters or not self._items:
            return False, None
        item = self._items.popleft()
        if self._putters:
            self._drain()
        return True, item

    def _drain(self) -> None:
        putters = self._putters
        getters = self._getters
        items = self._items
        cap = self.capacity
        progressed = True
        while progressed:
            progressed = False
            # Move pending puts into the buffer while there is room.
            while putters and (cap is None or len(items) < cap):
                item, ev = putters.popleft()
                items.append(item)
                if ev is not None:  # None: interior item of a put_many
                    ev.succeed(item)
                progressed = True
            # Satisfy pending gets from the buffer.
            while getters and items:
                ev = getters.popleft()
                item = items.popleft()
                ev.succeed(item)
                progressed = True
