"""Core event loop and process model for the DES kernel.

The model follows the classic generator-coroutine design:

* An :class:`Event` is a one-shot occurrence with an optional value (or
  exception).  Callbacks registered on it run when it fires.
* A :class:`Process` wraps a generator.  Each ``yield`` hands back an event
  (or a composite built with :class:`AllOf` / :class:`AnyOf`); the process
  resumes when that event fires, receiving its value as the result of the
  ``yield`` expression.
* The :class:`Simulator` owns the clock and the scheduled work.  Time only
  advances between events; everything that happens "at the same instant" is
  ordered deterministically by (priority, schedule order), so runs are
  exactly reproducible.

Scheduling is a two-level calendar queue:

* Work due **at the current instant** lives in two FIFO deques (one per
  priority tier), so the dominant "fire at ``now``" pattern — event
  triggers, process starts, resource grants — is a plain ``append`` with no
  tuple allocation and no heap reshuffle.
* Work due **in the future** lives in a ``heapq`` keyed by
  ``(when, priority, seq)``.  When both deques drain, the loop pops the
  earliest future entry; if more entries share its timestamp the whole
  same-time cohort is batch-moved into the deques in heap (priority, seq)
  order, so anything newly scheduled *at* the new instant lands behind the
  cohort exactly as its larger sequence number would have placed it.

The equivalence invariant the calendar queue maintains: an entry is pushed
on the heap **only** with a strictly-future timestamp.  Every at-``now``
schedule goes to the deques, so "deque before heap" can never reorder two
entries that the old single-heap ordering would have run the other way.

Besides :class:`Event` objects, the queue accepts raw ``(fn, arg)``
continuation pairs (see :meth:`Simulator.call_now` / ``call_at``): the
dispatch loop simply calls ``fn(arg)``.  Continuations skip the Event
state machine entirely and are the substrate for the fused resource/
pipeline fast paths.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(worker(sim, "a", 2.0))
>>> _ = sim.spawn(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable, Generator, Iterable
from typing import Any

from repro.simkernel.errors import (
    DeadlockError,
    Interrupt,
    ProcessKilled,
    SimulationError,
    StaleEventError,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "ProcessKilled",
    "SimulationError",
    "Simulator",
    "DeadlockError",
    "StaleEventError",
]

# Scheduling priorities: lower runs first at the same timestamp.  URGENT is
# used internally for process bookkeeping (e.g. resuming a process must
# happen before a normal event scheduled at the same instant by someone
# else observed the old state).
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*, becomes *triggered* once a value or an
    exception is attached and it has been scheduled, and is *processed*
    after its callbacks ran.  Waiting on a processed event is allowed and
    resumes the waiter immediately (this is what makes, e.g., waiting on an
    already-finished process natural).
    """

    __slots__ = ("sim", "callbacks", "_value", "_exc", "_triggered", "_processed", "name")

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        # Lazily allocated: most events (timeouts, immediate grants) only
        # ever get a single waiter, and many get none at all.
        self.callbacks: list[Callable[[Event], None]] | None = None
        self._value: Any = None
        self._exc: BaseException | None = None
        self._triggered = False
        self._processed = False
        self.name = name

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value/exception has been attached."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event fired with a value rather than an exception."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        """The event's value.  Raises if the event carried an exception."""
        if not self._triggered:
            raise SimulationError(f"event {self!r} has not been triggered")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> BaseException | None:
        """The exception carried by the event, if any."""
        return self._exc

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = PRIORITY_NORMAL) -> "Event":
        """Fire the event with ``value`` at the current simulated instant."""
        if self._triggered:
            raise StaleEventError(f"event {self!r} already triggered")
        self._triggered = True
        self._value = value
        sim = self.sim
        (sim._urgent if priority == 0 else sim._normal).append(self)
        return self

    def fail(self, exc: BaseException, priority: int = PRIORITY_NORMAL) -> "Event":
        """Fire the event with an exception at the current instant."""
        if self._triggered:
            raise StaleEventError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._exc = exc
        sim = self.sim
        (sim._urgent if priority == 0 else sim._normal).append(self)
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn`` to run when the event is processed.

        If the event was already processed the callback runs immediately —
        "the past has happened"; waiters must not be lost.
        """
        if self._processed:
            fn(self)
        elif self.callbacks is None:
            self.callbacks = [fn]
        else:
            self.callbacks.append(fn)

    def _process(self) -> None:
        self._processed = True
        callbacks = self.callbacks
        if callbacks is not None:
            self.callbacks = None
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        label = f" {self.name!r}" if self.name else ""
        return f"<Event{label} {state} at t={self.sim.now:.6g}>"


class _Condition(Event):
    """Base for composite events (:class:`AllOf` / :class:`AnyOf`)."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events: tuple[Event, ...] = tuple(events)
        self._pending = len(self.events)
        if not self.events:
            self.succeed(())
            return
        for ev in self.events:
            ev.add_callback(self._on_child)

    def _on_child(self, ev: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once every child event fired; value is the tuple of values.

    If any child fails, the condition fails with that child's exception
    (first failure wins; later failures are ignored).
    """

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.exception)  # type: ignore[arg-type]
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(tuple(child._value for child in self.events))


class AnyOf(_Condition):
    """Fires as soon as one child fires; value is ``(event, value)``."""

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev.ok:
            self.fail(ev.exception)  # type: ignore[arg-type]
            return
        self.succeed((ev, ev._value))


class _StartEvent(Event):
    """Internal kick-off event for a freshly spawned :class:`Process`.

    Skips the generic callback machinery: processing it resumes the
    process directly, which saves a callback-list allocation and a
    closure per spawn on the hot path.
    """

    __slots__ = ("proc",)

    def __init__(self, sim: "Simulator", proc: "Process") -> None:
        self.sim = sim
        self.proc = proc
        self.callbacks = None
        self._value = None
        self._exc = None
        self._triggered = True
        self._processed = False
        self.name = "start"

    def _process(self) -> None:
        self._processed = True
        self.proc._resume(self)


class Process(Event):
    """A simulated thread of control.

    Wraps a generator; each yielded :class:`Event` suspends the process
    until the event fires.  The process itself is an event that fires with
    the generator's return value, so processes can be awaited (``yield
    other_process``) or joined via composites.
    """

    __slots__ = ("gen", "_waiting_on", "_started")

    def __init__(self, sim: "Simulator", gen: Generator[Event, Any, Any], name: str = "") -> None:
        if not isinstance(gen, Generator):
            raise TypeError(f"Process requires a generator, got {type(gen).__name__}")
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self.gen = gen
        self._waiting_on: Event | None = None
        self._started = False
        # Kick off the process at the current instant, urgently so that
        # spawn-then-advance sequences behave intuitively.
        sim._urgent.append(_StartEvent(sim, self))

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        Interrupting a finished process is a silent no-op, mirroring POSIX
        signal semantics for exited threads.
        """
        if not self.is_alive:
            return
        # Deliver asynchronously at the current instant so the interrupter
        # continues first (matching thread semantics).
        ev = Event(self.sim, name=f"interrupt:{self.name}")
        ev.add_callback(lambda _ev: self._throw(Interrupt(cause)))
        ev.succeed(priority=PRIORITY_URGENT)

    def kill(self) -> None:
        """Terminate the process immediately; it fires with ProcessKilled."""
        if not self.is_alive:
            return
        self._detach()
        self.gen.close()
        self.fail(ProcessKilled(f"process {self.name!r} killed"), priority=PRIORITY_URGENT)

    # -- internal ------------------------------------------------------
    def _detach(self) -> None:
        target = self._waiting_on
        self._waiting_on = None
        if target is not None and not target._processed and target.callbacks:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass

    def _throw(self, exc: BaseException) -> None:
        if not self.is_alive:
            return
        self._detach()
        try:
            nxt = self.gen.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value, priority=PRIORITY_URGENT)
        except BaseException as err:  # noqa: BLE001 - propagate into waiters
            self.fail(err, priority=PRIORITY_URGENT)
        else:
            self._wait_on(nxt)

    def _resume(self, ev: Event) -> None:
        if self._triggered:  # process already finished (killed)
            return
        self._waiting_on = None
        try:
            if ev._exc is not None:
                nxt = self.gen.throw(ev._exc)
            elif self._started:
                nxt = self.gen.send(ev._value)
            else:
                self._started = True
                nxt = self.gen.send(None)
        except StopIteration as stop:
            self.succeed(stop.value, priority=PRIORITY_URGENT)
            return
        except BaseException as err:  # noqa: BLE001 - propagate into waiters
            self.fail(err, priority=PRIORITY_URGENT)
            return
        self._started = True
        # Hot path: the overwhelmingly common yield target is an event of
        # this simulator; fall back to the validating slow path otherwise.
        if isinstance(nxt, Event) and nxt.sim is self.sim:
            if nxt._processed:
                self._resume(nxt)
            else:
                self._waiting_on = nxt
                if nxt.callbacks is None:
                    nxt.callbacks = [self._resume]
                else:
                    nxt.callbacks.append(self._resume)
            return
        self._wait_on(nxt)

    def _wait_on(self, target: Any) -> None:
        if not isinstance(target, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Events"
            )
            self._throw(exc)
            return
        if target.sim is not self.sim:
            self._throw(SimulationError("yielded an event belonging to another Simulator"))
            return
        self._waiting_on = target
        target.add_callback(self._resume)


class Simulator:
    """The event loop: owns the clock and the two-level calendar queue."""

    def __init__(self) -> None:
        self._now = 0.0
        # Work due at the current instant, one FIFO per priority tier.
        # Entries are Events or raw (fn, arg) continuation pairs.
        self._urgent: deque[Any] = deque()
        self._normal: deque[Any] = deque()
        # Strictly-future work: (when, priority, seq, Event-or-continuation).
        self._heap: list[tuple[float, int, int, Any]] = []
        self._seq = 0
        self._running = False
        self._process_count = 0
        #: Dispatch slots executed so far (events + continuations).  The
        #: benchmark layer reads this as the honest throughput numerator.
        self.events_processed = 0
        # Free list of recycled timeout events (see _pooled_timeout).
        self._timeout_pool: list[Event] = []

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention)."""
        return self._now

    # -- event construction --------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Event:
        """An event that fires ``delay`` simulated seconds from now."""
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        ev = Event(self, name or "timeout")
        ev._triggered = True
        ev._value = value
        when = self._now + delay
        if when > self._now:
            self._seq += 1
            heapq.heappush(self._heap, (when, PRIORITY_NORMAL, self._seq, ev))
        else:
            self._normal.append(ev)
        return ev

    def timeout_at(self, when: float, value: Any = None, name: str = "") -> Event:
        """An event that fires at absolute simulated time ``when``.

        Scheduling at an absolute instant avoids the rounding that
        re-deriving a delay from ``now`` would introduce.
        """
        if when < self._now:
            raise ValueError(f"timeout_at({when}) is in the past (now={self._now})")
        ev = Event(self, name or "timeout")
        ev._triggered = True
        ev._value = value
        if when > self._now:
            self._seq += 1
            heapq.heappush(self._heap, (when, PRIORITY_NORMAL, self._seq, ev))
        else:
            self._normal.append(ev)
        return ev

    def _pooled_timeout(self, delay: float) -> Event:
        """A recyclable timeout for ``Resource.using``-style owned waits.

        The caller guarantees it is the only holder of the event and gives
        it back via :meth:`_recycle` once processed, so the allocation is
        amortized away on the hot path.
        """
        pool = self._timeout_pool
        ev = pool.pop() if pool else Event(self, "timeout")
        ev._triggered = True
        when = self._now + delay
        if when > self._now:
            self._seq += 1
            heapq.heappush(self._heap, (when, PRIORITY_NORMAL, self._seq, ev))
        else:
            self._normal.append(ev)
        return ev

    def _recycle(self, ev: Event) -> None:
        """Return a processed :meth:`_pooled_timeout` event to the pool."""
        if ev._processed and len(self._timeout_pool) < 128:
            ev._triggered = False
            ev._processed = False
            ev._value = None
            ev._exc = None
            ev.callbacks = None
            self._timeout_pool.append(ev)

    def spawn(self, gen: Generator[Event, Any, Any], name: str = "") -> Process:
        """Create and start a :class:`Process` from a generator."""
        self._process_count += 1
        return Process(self, gen, name=name or f"proc-{self._process_count}")

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all of ``events`` fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any of ``events`` fired."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------
    def _schedule(self, ev: Event, priority: int, at: float | None = None) -> None:
        if at is None or at == self._now:
            (self._urgent if priority == 0 else self._normal).append(ev)
            return
        if at < self._now:
            raise SimulationError(f"cannot schedule into the past ({at} < {self._now})")
        self._seq += 1
        heapq.heappush(self._heap, (at, priority, self._seq, ev))

    def call_now(self, fn: Callable[[Any], None], arg: Any = None,
                 priority: int = PRIORITY_NORMAL) -> None:
        """Schedule the bare continuation ``fn(arg)`` at the current instant.

        Continuations occupy ordinary dispatch slots — they are ordered
        against Events exactly as an Event scheduled at the same moment
        would be — but skip Event allocation and the callback machinery.
        """
        (self._urgent if priority == 0 else self._normal).append((fn, arg))

    def call_at(self, when: float, fn: Callable[[Any], None], arg: Any = None,
                priority: int = PRIORITY_NORMAL) -> None:
        """Schedule the continuation ``fn(arg)`` at absolute time ``when``."""
        if when > self._now:
            self._seq += 1
            heapq.heappush(self._heap, (when, priority, self._seq, (fn, arg)))
            return
        if when < self._now:
            raise SimulationError(f"cannot schedule into the past ({when} < {self._now})")
        (self._urgent if priority == 0 else self._normal).append((fn, arg))

    def call_after(self, delay: float, fn: Callable[[Any], None], arg: Any = None,
                   priority: int = PRIORITY_NORMAL) -> None:
        """Schedule the continuation ``fn(arg)`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative continuation delay: {delay}")
        self.call_at(self._now + delay, fn, arg, priority)

    # -- execution -----------------------------------------------------
    def _dispatch(self, obj: Any) -> None:
        """Execute one dispatch slot (Event or continuation pair)."""
        self.events_processed += 1
        if type(obj) is tuple:
            obj[0](obj[1])
        else:
            obj._process()

    def step(self) -> None:
        """Process exactly one dispatch slot, advancing the clock to it."""
        if self._urgent:
            obj = self._urgent.popleft()
        elif self._normal:
            obj = self._normal.popleft()
        else:
            when, prio, _seq, obj = heapq.heappop(self._heap)
            self._now = when
            # Move the rest of the same-timestamp cohort into the instant
            # deques so later at-``now`` appends queue up behind it.
            heap = self._heap
            while heap and heap[0][0] == when:
                entry = heapq.heappop(heap)
                (self._urgent if entry[1] == 0 else self._normal).append(entry[3])
        self._dispatch(obj)

    def peek(self) -> float:
        """Timestamp of the next scheduled work, or ``inf`` if none."""
        if self._urgent or self._normal:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a timestamp
        (run until the clock would pass it) or an :class:`Event` (run until
        it fires, returning its value / raising its exception).
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        urgent = self._urgent
        normal = self._normal
        heap = self._heap
        pop = heapq.heappop
        dispatched = 0
        try:
            if until is None or isinstance(until, Event):
                target = until
                while True:
                    if target is not None and target._processed:
                        return target.value
                    if urgent:
                        obj = urgent.popleft()
                    elif normal:
                        obj = normal.popleft()
                    elif heap:
                        when, _prio, _seq, obj = pop(heap)
                        self._now = when
                        if heap and heap[0][0] == when:
                            # Batch-advance: move the whole same-time cohort
                            # (including the popped head) into the deques in
                            # heap order, then restart the drain loop.
                            (urgent if _prio == 0 else normal).append(obj)
                            while heap and heap[0][0] == when:
                                entry = pop(heap)
                                (urgent if entry[1] == 0 else normal).append(entry[3])
                            continue
                    elif target is None:
                        return None
                    else:
                        raise DeadlockError(
                            f"event queue drained before {target!r} fired"
                        )
                    dispatched += 1
                    if type(obj) is tuple:
                        obj[0](obj[1])
                    else:
                        obj._process()
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(f"until={horizon} is in the past (now={self._now})")
            while True:
                if urgent:
                    obj = urgent.popleft()
                elif normal:
                    obj = normal.popleft()
                elif heap and heap[0][0] <= horizon:
                    when, _prio, _seq, obj = pop(heap)
                    self._now = when
                    if heap and heap[0][0] == when:
                        (urgent if _prio == 0 else normal).append(obj)
                        while heap and heap[0][0] == when:
                            entry = pop(heap)
                            (urgent if entry[1] == 0 else normal).append(entry[3])
                        continue
                else:
                    break
                dispatched += 1
                if type(obj) is tuple:
                    obj[0](obj[1])
                else:
                    obj._process()
            self._now = max(self._now, horizon)
            return None
        finally:
            self.events_processed += dispatched
            self._running = False
