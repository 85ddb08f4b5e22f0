"""Per-layer host-time tracing from outside the program.

:meth:`Tracer.install` wraps the functions and methods that the ``repro``
layer packages define, so each call becomes a span: name, start, end,
parent span and run id.  A generator function's span covers one resume,
not its lifetime, so time a process spends parked in the event queue is
nobody's.  Self time — a span's duration minus what its child spans
cover — is summed per layer as spans close; the spans themselves are kept
in memory (up to ``max_spans``) and written out by :meth:`Tracer.dump`.

Private methods are wrapped too: the event kernel dispatches bound
private methods as continuations, so wrapping only public names would
book that work to the kernel.  The kernel's own private methods are the
exception — only the dispatch loop calls them, so their time is kernel
time either way, and wrapping them would only add overhead.

Installing patches classes and module namespaces in place and cannot be
undone, so a process traces only after it has finished its untraced
cells.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from enum import Enum
from pathlib import Path
from typing import Any

#: layer name -> the ``repro`` package prefix it covers
LAYERS = {
    "simkernel": "repro.simkernel",
    "framework": "repro.framework",
    "storage": "repro.storage",
    "core": "repro.core",
    "distributed": "repro.distributed",
    "workload": "repro.workload",
    "telemetry": "repro.telemetry",
    "experiments": "repro.experiments",
    "data": "repro.data",
}

_DUNDERS = ("__init__", "__call__")


def _layer_of(module: str) -> str | None:
    for layer, prefix in LAYERS.items():
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


class Tracer:
    """Span recorder with online per-layer self-time accounting."""

    def __init__(self, max_spans: int = 200_000) -> None:
        self.layers = list(LAYERS)
        self.self_s = [0.0] * len(self.layers)
        self.calls = [0] * len(self.layers)
        self.names: list[str] = []
        self.max_spans = max_spans
        self.run_id = 0
        self.n_spans = 0
        # columns of the recorded spans, one row per span as it closes;
        # span ids number the spans in the order they open
        self._ids = array("q")
        self._name = array("i")
        self._parent = array("q")
        self._run = array("i")
        self._start = array("d")
        self._end = array("d")
        #: open spans: [child time, span id]
        self._stack: list[list[Any]] = []

    # -- span bookkeeping ---------------------------------------------------
    def _open(self) -> list[Any]:
        frame = [0.0, self.n_spans]
        self.n_spans += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame: list[Any], li: int, nid: int, t0: float, t1: float) -> None:
        stack = self._stack
        stack.pop()
        d = t1 - t0
        self.self_s[li] += d - frame[0]
        self.calls[li] += 1
        if stack:
            stack[-1][0] += d
        sid = frame[1]
        if sid < self.max_spans:
            self._ids.append(sid)
            self._name.append(nid)
            self._parent.append(stack[-1][1] if stack else -1)
            self._run.append(self.run_id)
            self._start.append(t0)
            self._end.append(t1)

    def _wrap(self, fn: Any, layer: str) -> Any:
        li = self.layers.index(layer)
        nid = len(self.names)
        self.names.append(f"{fn.__module__}.{fn.__qualname__}")
        clock = time.perf_counter
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                gen = fn(*args, **kwargs)
                value: Any = None
                exc: BaseException | None = None
                while True:
                    frame = tracer._open()
                    t0 = clock()
                    try:
                        out = gen.send(value) if exc is None else gen.throw(exc)
                    except StopIteration as stop:
                        tracer._close(frame, li, nid, t0, clock())
                        return stop.value
                    except BaseException:
                        tracer._close(frame, li, nid, t0, clock())
                        raise
                    tracer._close(frame, li, nid, t0, clock())
                    exc = None
                    try:
                        value = yield out
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as e:  # forwarded into the generator
                        exc, value = e, None
        else:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                frame = tracer._open()
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(frame, li, nid, t0, clock())

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__module__ = fn.__module__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------
    def install(self) -> int:
        """Wrap every layer function and method loaded so far; returns the count."""
        wrapped: dict[Any, Any] = {}

        def wrap(fn: Any, layer: str) -> Any:
            if fn not in wrapped:
                wrapped[fn] = self._wrap(fn, layer)
            return wrapped[fn]

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and name.startswith("repro")]
        for mod in modules:
            layer = _layer_of(mod.__name__)
            if layer is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    setattr(mod, attr, wrap(obj, layer))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(obj, layer, wrap)
        # ``from m import f`` copies: point every importer at the wrapper too
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        return len(wrapped)

    def _install_class(self, cls: type, layer: str, wrap: Any) -> None:
        if issubclass(cls, Enum):
            return
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _DUNDERS:
                continue
            if layer == "simkernel" and attr.startswith("_"):
                continue
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(wrap(obj.__func__, layer)))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(wrap(obj.__func__, layer)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, wrap(obj, layer))

    # -- results --------------------------------------------------------------
    def totals(self) -> dict[str, tuple[float, int]]:
        """Layer -> (self seconds, calls) accumulated so far."""
        return {name: (self.self_s[i], self.calls[i]) for i, name in enumerate(self.layers)}

    def dump(self, path: Path, meta: dict[str, Any]) -> None:
        """Write the recorded spans (JSON lines: one header, one line per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        recorded = len(self._ids)
        header = dict(meta, names=self.names, spans=self.n_spans, recorded=recorded,
                      fields=["id", "name", "parent", "run", "start", "end"])
        with path.open("w") as out:
            out.write(json.dumps(header) + "\n")
            for i in range(recorded):
                out.write(f"{self._ids[i]} {self._name[i]} {self._parent[i]} "
                          f"{self._run[i]} {self._start[i]:.9f} {self._end[i]:.9f}\n")
