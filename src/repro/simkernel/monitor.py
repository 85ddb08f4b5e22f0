"""Time-weighted monitors for utilization and time-series statistics.

The paper reports CPU/GPU utilization percentages per model × setup; in a
DES those come from integrating busy-slot counts over simulated time, which
is what :class:`UtilizationMonitor` does.  :class:`TimeSeriesMonitor` keeps
raw ``(t, value)`` samples for throughput-variability plots.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.core import Simulator

__all__ = ["TagAccounting", "TimeSeriesMonitor", "UtilizationMonitor"]


class TagAccounting:
    """Per-tag resource accounting (multi-job runs tag by job id).

    Untimed bookkeeping: subsystems charge busy seconds, bytes moved and
    operation counts against a string tag, and the aggregate answers
    "which job consumed how much of the shared machinery".  Tags are
    created on first charge; the single-tenant ``""`` tag is as valid as
    any other, so accounting can stay attached in one-job runs.
    """

    _ZERO = {"seconds": 0.0, "nbytes": 0, "ops": 0}

    def __init__(self) -> None:
        self._seconds: dict[str, float] = {}
        self._nbytes: dict[str, int] = {}
        self._ops: dict[str, int] = {}

    def charge(self, tag: str, *, seconds: float = 0.0, nbytes: int = 0, ops: int = 0) -> None:
        """Add usage to ``tag``'s running totals."""
        if seconds < 0 or nbytes < 0 or ops < 0:
            raise ValueError("charges must be non-negative")
        if seconds:
            self._seconds[tag] = self._seconds.get(tag, 0.0) + seconds
        if nbytes:
            self._nbytes[tag] = self._nbytes.get(tag, 0) + nbytes
        if ops:
            self._ops[tag] = self._ops.get(tag, 0) + ops

    def tags(self) -> list[str]:
        """Every tag ever charged, sorted."""
        return sorted(self._seconds.keys() | self._nbytes.keys() | self._ops.keys())

    def totals(self, tag: str) -> dict[str, float | int]:
        """``{"seconds", "nbytes", "ops"}`` totals for one tag."""
        if tag not in self._seconds and tag not in self._nbytes and tag not in self._ops:
            return dict(self._ZERO)
        return {
            "seconds": self._seconds.get(tag, 0.0),
            "nbytes": self._nbytes.get(tag, 0),
            "ops": self._ops.get(tag, 0),
        }

    def snapshot(self) -> dict[str, dict[str, float | int]]:
        """Deterministic (tag-sorted) view of every tag's totals."""
        return {tag: self.totals(tag) for tag in self.tags()}


class UtilizationMonitor:
    """Integrates an occupancy level over simulated time.

    ``record(level)`` is called whenever the level changes; the monitor
    accumulates ``level * dt`` so that :meth:`mean_level` /
    :meth:`utilization` report time-weighted averages.  Windows can be
    delimited (per training epoch) via :meth:`mark` and
    :meth:`window_utilization`.
    """

    def __init__(self, sim: "Simulator", capacity: float, name: str = "") -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = 0.0
        self._last_t = sim.now
        self._area = 0.0
        self._start_t = sim.now
        self._marks: list[tuple[float, float]] = []  # (time, cumulative area)

    @property
    def level(self) -> float:
        """Current occupancy level."""
        return self._level

    def _advance(self) -> None:
        now = self.sim.now
        self._area += self._level * (now - self._last_t)
        self._last_t = now

    def record(self, level: float) -> None:
        """Record that occupancy changed to ``level`` at the current time."""
        if level < 0:
            raise ValueError(f"negative occupancy level: {level}")
        self._advance()
        self._level = level

    def add_area(self, area: float) -> None:
        """Credit pre-integrated busy area directly.

        A caller that occupies an uncontended resource without ``record``
        calls (the trainer's fused GPU step) deposits the ``level*dt``
        area the hold earned, so :meth:`mean_level` / :meth:`utilization`
        match a recorded hold.
        """
        self._advance()
        self._area += area

    def mark(self) -> None:
        """Drop a window boundary (e.g. at an epoch edge)."""
        self._advance()
        self._marks.append((self.sim.now, self._area))

    def mean_level(self, t0: float | None = None, t1: float | None = None) -> float:
        """Time-weighted mean occupancy over ``[t0, t1]`` (defaults: whole run)."""
        self._advance()
        start = self._start_t if t0 is None else t0
        end = self._last_t if t1 is None else t1
        if end <= start:
            return 0.0
        area = self._area_at(end) - self._area_at(start)
        return area / (end - start)

    def _area_at(self, t: float) -> float:
        """Cumulative area at time ``t`` (linear between recorded marks)."""
        # We only have exact areas at mark times and "now"; for interior
        # times we interpolate using the marks bracketing ``t``.
        points = [(self._start_t, 0.0), *self._marks, (self._last_t, self._area)]
        if t <= points[0][0]:
            return 0.0
        for (ta, aa), (tb, ab) in zip(points, points[1:]):
            if ta <= t <= tb:
                if math.isclose(ta, tb):
                    return ab
                frac = (t - ta) / (tb - ta)
                return aa + frac * (ab - aa)
        return self._area

    def utilization(self, t0: float | None = None, t1: float | None = None) -> float:
        """Mean occupancy divided by capacity, in ``[0, 1]``."""
        return self.mean_level(t0, t1) / self.capacity

    def window_utilization(self) -> list[float]:
        """Utilization in each inter-mark window (plus the trailing one)."""
        self._advance()
        out: list[float] = []
        prev_t, prev_a = self._start_t, 0.0
        for t, a in [*self._marks, (self._last_t, self._area)]:
            dt = t - prev_t
            out.append((a - prev_a) / dt / self.capacity if dt > 0 else 0.0)
            prev_t, prev_a = t, a
        return out


class TimeSeriesMonitor:
    """Raw ``(t, value)`` samples with summary statistics."""

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self.sim = sim
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def observe(self, value: float) -> None:
        """Append a sample at the current simulated time."""
        self.times.append(self.sim.now)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 if empty)."""
        return sum(self.values) / len(self.values) if self.values else 0.0

    @property
    def std(self) -> float:
        """Population standard deviation of the samples (0.0 if < 2)."""
        n = len(self.values)
        if n < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self.values) / n)

    @property
    def min(self) -> float:
        """Smallest sample (raises on empty)."""
        return min(self.values)

    @property
    def max(self) -> float:
        """Largest sample (raises on empty)."""
        return max(self.values)
