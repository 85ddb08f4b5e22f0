"""Bounded-memory latency histogram for steady-state percentile gates.

Serving traces produce one latency sample per request — hundreds of
thousands at full scale — but the report layer must stay bounded and
deterministic.  :class:`LatencyHistogram` buckets samples on a
logarithmic grid (fixed buckets-per-decade over a fixed range), so
memory is O(buckets) regardless of trace length and the percentile
error is bounded by the bucket width ratio (``10 ** (1/bins_per_decade)``,
< 10 % at the default 24 buckets per decade).

Percentiles use the nearest-rank definition (``ceil(q * n)``), matching
the exact ``sorted(xs)[ceil(q*n) - 1]`` on small traces up to bucket
resolution — the equivalence test in ``tests/workload`` pins this.
Buckets are stored sparsely and serialized sorted, so two histograms
fed the same samples serialize byte-identically.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = ["LatencyHistogram"]

#: default grid: 24 buckets per decade over [1 µs, 1e6 s)
_BINS_PER_DECADE = 24
_LO = 1e-6
_DECADES = 12


class LatencyHistogram:
    """Log-bucketed sample accumulator with deterministic percentiles."""

    __slots__ = ("bins_per_decade", "lo", "n_buckets", "buckets",
                 "count", "sum_s", "min_s", "max_s")

    def __init__(self, bins_per_decade: int = _BINS_PER_DECADE,
                 lo: float = _LO, decades: int = _DECADES) -> None:
        if bins_per_decade < 1 or lo <= 0.0 or decades < 1:
            raise ValueError("invalid histogram grid")
        self.bins_per_decade = bins_per_decade
        self.lo = lo
        self.n_buckets = bins_per_decade * decades
        #: sparse bucket index -> sample count
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0

    # -- accumulation -----------------------------------------------------
    def add(self, value: float) -> None:
        """Record one latency sample (seconds; negatives are clamped to 0)."""
        # One call per served request, so the bucket index and the
        # extremes are plain comparisons rather than helper calls.
        value = float(value)
        if not value > 0.0:  # negatives, -0.0 and NaN all record as 0
            value = 0.0
        if value <= self.lo:
            idx = 0
        else:
            idx = int(math.log10(value / self.lo) * self.bins_per_decade)
            if idx >= self.n_buckets:
                idx = self.n_buckets - 1
        buckets = self.buckets
        buckets[idx] = buckets.get(idx, 0) + 1
        self.count += 1
        self.sum_s += value
        if value < self.min_s:
            self.min_s = value
        if value > self.max_s:
            self.max_s = value

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram (same grid) into this one."""
        if (other.bins_per_decade, other.lo, other.n_buckets) != (
                self.bins_per_decade, self.lo, self.n_buckets):
            raise ValueError("cannot merge histograms with different grids")
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.count += other.count
        self.sum_s += other.sum_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)

    # -- summaries --------------------------------------------------------
    def _bucket_value(self, idx: int) -> float:
        """Representative value of a bucket: its geometric midpoint."""
        return self.lo * 10.0 ** ((idx + 0.5) / self.bins_per_decade)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in (0, 1]); 0.0 when empty.

        Never exceeds the exact tracked maximum, so the top percentile
        of a single-bucket histogram reports the real worst sample.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"q must be in (0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= rank:
                return min(self._bucket_value(idx), self.max_s)
        return self.max_s  # pragma: no cover - rank <= count always hits

    @property
    def p50(self) -> float:
        """Median latency (seconds)."""
        return self.percentile(0.50)

    @property
    def p99(self) -> float:
        """99th-percentile latency (seconds)."""
        return self.percentile(0.99)

    @property
    def p999(self) -> float:
        """99.9th-percentile latency (seconds)."""
        return self.percentile(0.999)

    @property
    def mean_s(self) -> float:
        """Exact arithmetic mean of all samples (seconds)."""
        return self.sum_s / self.count if self.count else 0.0

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form; bucket keys sorted for determinism.

        ``decades`` is emitted only for a non-default grid, so reports of
        default histograms keep their established byte-exact form.
        """
        out: dict[str, Any] = {
            "bins_per_decade": self.bins_per_decade,
            "lo": self.lo,
            "count": self.count,
            "sum_s": self.sum_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
            "buckets": {str(i): self.buckets[i] for i in sorted(self.buckets)},
        }
        decades = self.n_buckets // self.bins_per_decade
        if decades != _DECADES:
            out["decades"] = decades
        return out

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "LatencyHistogram":
        """Inverse of :meth:`to_dict`."""
        h = cls(
            bins_per_decade=int(raw["bins_per_decade"]),
            lo=float(raw["lo"]),
            decades=int(raw.get("decades", _DECADES)),
        )
        h.buckets = {int(i): int(n) for i, n in raw["buckets"].items()}
        h.count = int(raw["count"])
        h.sum_s = float(raw["sum_s"])
        h.max_s = float(raw["max_s"])
        h.min_s = float(raw["min_s"]) if h.count else math.inf
        return h
