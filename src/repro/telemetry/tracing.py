"""I/O event tracing and throughput-variability analysis.

The paper's motivation rests on *variability*: "high throughput
variability and performance loss" when DL jobs share the PFS, and
"sustained and predictable performance" once traffic moves to local
storage.  This module makes those claims measurable inside a run:

* :class:`IOTrace` records ``(t, backend, kind, bytes)`` events; backends
  are instrumented by wrapping their :class:`~repro.storage.stats.BackendStats`
  (`attach`), so no storage code changes.
* :func:`throughput_series` bins a trace into a bandwidth time series.
* :func:`variability` summarizes a series the way the paper's error bars
  do — mean, standard deviation and coefficient of variation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.storage.stats import BackendStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.core import Simulator

__all__ = ["IOTrace", "TraceEvent", "VariabilitySummary", "throughput_series", "variability"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded I/O completion (a whole-file copy completes as one event)."""

    t: float
    backend: str
    kind: str  #: "read" or "write"
    nbytes: int
    #: operations folded into this event (> 1 for batched copy counters)
    ops: int = 1


class IOTrace:
    """Chronological record of data-path I/O across instrumented backends."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.events: list[TraceEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    def attach(self, stats: BackendStats) -> None:
        """Instrument a backend: every future read/write lands in the trace.

        Wraps the stats object's record methods — the singular ones *and*
        the batched ``record_reads``/``record_writes`` that whole-file
        copies account through (a copy lands as one event carrying its op
        count), so traced byte totals always equal the backend's counters.
        Idempotent per backend object (attaching twice raises to avoid
        double counting).
        """
        if getattr(stats, "_trace_attached", False):
            raise ValueError(f"backend {stats.name!r} already traced")
        orig_read, orig_write = stats.record_read, stats.record_write
        orig_reads, orig_writes = stats.record_reads, stats.record_writes
        backend = stats.name

        def traced_read(nbytes: int) -> None:
            orig_read(nbytes)
            self.events.append(TraceEvent(self.sim.now, backend, "read", int(nbytes)))

        def traced_write(nbytes: int) -> None:
            orig_write(nbytes)
            self.events.append(TraceEvent(self.sim.now, backend, "write", int(nbytes)))

        def traced_reads(ops: int, nbytes: int) -> None:
            orig_reads(ops, nbytes)
            self.events.append(
                TraceEvent(self.sim.now, backend, "read", int(nbytes), ops=int(ops))
            )

        def traced_writes(ops: int, nbytes: int) -> None:
            orig_writes(ops, nbytes)
            self.events.append(
                TraceEvent(self.sim.now, backend, "write", int(nbytes), ops=int(ops))
            )

        stats.record_read = traced_read  # type: ignore[method-assign]
        stats.record_write = traced_write  # type: ignore[method-assign]
        stats.record_reads = traced_reads  # type: ignore[method-assign]
        stats.record_writes = traced_writes  # type: ignore[method-assign]
        stats._trace_attached = True  # type: ignore[attr-defined]

    def filtered(self, backend: str | None = None, kind: str | None = None) -> list[TraceEvent]:
        """Events matching the given backend and/or kind."""
        return [
            e for e in self.events
            if (backend is None or e.backend == backend)
            and (kind is None or e.kind == kind)
        ]

    def total_bytes(self, backend: str | None = None, kind: str | None = None) -> int:
        """Summed bytes over the matching events."""
        return sum(e.nbytes for e in self.filtered(backend, kind))

    def total_ops(self, backend: str | None = None, kind: str | None = None) -> int:
        """Summed operation count over the matching events (batched ops included)."""
        return sum(e.ops for e in self.filtered(backend, kind))


@dataclass(frozen=True)
class VariabilitySummary:
    """Throughput statistics over a time series (paper-error-bar material)."""

    mean_bps: float
    std_bps: float
    min_bps: float
    max_bps: float

    @property
    def cv(self) -> float:
        """Coefficient of variation (std / mean); 0 for an idle series."""
        return self.std_bps / self.mean_bps if self.mean_bps > 0 else 0.0


def throughput_series(
    events: list[TraceEvent],
    t0: float,
    t1: float,
    bins: int = 50,
) -> tuple[np.ndarray, np.ndarray]:
    """Bin events into a bandwidth time series over ``[t0, t1]``.

    The window is closed on both sides: an event at exactly ``t1`` — e.g.
    the final I/O completion of a run binned over ``[0, sim.now]`` — lands
    in the last bin instead of being dropped.

    Returns ``(bin_centers_seconds, bytes_per_second)``.
    """
    if t1 <= t0:
        raise ValueError("empty window")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    edges = np.linspace(t0, t1, bins + 1)
    width = edges[1] - edges[0]
    totals = np.zeros(bins)
    for e in events:
        if t0 <= e.t <= t1:
            idx = min(bins - 1, int((e.t - t0) / width))
            totals[idx] += e.nbytes
    centers = (edges[:-1] + edges[1:]) / 2
    return centers, totals / width


def variability(series_bps: np.ndarray) -> VariabilitySummary:
    """Summarize a throughput series (ignores leading/trailing idle bins)."""
    arr = np.asarray(series_bps, dtype=float)
    nz = np.nonzero(arr)[0]
    if len(nz) == 0:
        return VariabilitySummary(0.0, 0.0, 0.0, 0.0)
    active = arr[nz[0]: nz[-1] + 1]
    return VariabilitySummary(
        mean_bps=float(active.mean()),
        std_bps=float(active.std()),
        min_bps=float(active.min()),
        max_bps=float(active.max()),
    )
