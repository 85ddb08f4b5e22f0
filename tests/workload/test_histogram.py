"""LatencyHistogram: bounded memory, percentile accuracy, serialization.

The histogram backs the steady-state p50/p99/p999 numbers in every
ServeRunRecord, so its contract is pinned here: memory stays bounded by
the fixed log-bucket grid however many samples stream in, nearest-rank
percentiles agree with the exact answer to within one bucket's
resolution, and the dict form round-trips losslessly.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.workload.histogram import LatencyHistogram

pytestmark = pytest.mark.serve


def exact_percentile(xs: list[float], q: float) -> float:
    """Nearest-rank percentile on the raw samples (the reference)."""
    rank = max(1, math.ceil(q * len(xs)))
    return sorted(xs)[rank - 1]


def test_empty_histogram():
    h = LatencyHistogram()
    assert h.count == 0
    assert h.p50 == 0.0
    assert h.p99 == 0.0
    assert h.mean_s == 0.0


def test_exact_moments_and_extremes():
    h = LatencyHistogram()
    xs = [0.001, 0.004, 0.2, 3.5, 0.00025]
    for x in xs:
        h.add(x)
    assert h.count == len(xs)
    assert h.sum_s == pytest.approx(sum(xs))
    assert h.min_s == min(xs)
    assert h.max_s == max(xs)
    assert h.mean_s == pytest.approx(sum(xs) / len(xs))


def test_bounded_memory():
    """A million samples occupy no more buckets than the grid allows."""
    h = LatencyHistogram()
    rng = random.Random(7)
    for _ in range(100_000):
        h.add(rng.lognormvariate(-6, 2))
    assert h.count == 100_000
    assert len(h.buckets) <= h.n_buckets


def test_percentiles_within_bucket_resolution():
    """p50/p99 agree with exact nearest-rank to one bucket's ratio."""
    # one bucket spans a 10**(1/24) ≈ 1.10x ratio; allow a boundary
    # sample landing one bucket off (float log10 rounding)
    tol = 10 ** (1.5 / 24)
    rng = random.Random(3)
    xs = [rng.lognormvariate(-7, 1.5) for _ in range(5000)]
    h = LatencyHistogram()
    for x in xs:
        h.add(x)
    for q in (0.5, 0.9, 0.99, 0.999):
        exact = exact_percentile(xs, q)
        approx = h.percentile(q)
        assert exact / tol <= approx <= exact * tol, (q, exact, approx)


def test_percentile_never_exceeds_max():
    h = LatencyHistogram()
    for x in (0.01, 0.0101, 0.0102):
        h.add(x)
    assert h.percentile(0.999) <= 0.0102


def test_negative_and_zero_clamp_to_smallest_bucket():
    h = LatencyHistogram()
    h.add(-1.0)
    h.add(0.0)
    assert h.count == 2
    assert h.min_s == 0.0
    assert h.percentile(0.5) <= h.lo * 10 ** (1 / h.bins_per_decade)


def test_merge_matches_combined_stream():
    rng = random.Random(11)
    xs = [rng.expovariate(100.0) for _ in range(400)]
    a, b, both = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
    for i, x in enumerate(xs):
        (a if i % 2 else b).add(x)
        both.add(x)
    a.merge(b)
    assert a.count == both.count
    assert a.buckets == both.buckets
    assert a.sum_s == pytest.approx(both.sum_s)
    assert a.max_s == both.max_s
    assert a.p99 == both.p99


def test_merge_rejects_mismatched_grid():
    a = LatencyHistogram()
    b = LatencyHistogram(bins_per_decade=12)
    with pytest.raises(ValueError):
        a.merge(b)


def test_dict_round_trip():
    h = LatencyHistogram()
    rng = random.Random(5)
    for _ in range(300):
        h.add(rng.expovariate(50.0))
    h2 = LatencyHistogram.from_dict(h.to_dict())
    assert h2.count == h.count
    assert h2.buckets == h.buckets
    assert h2.min_s == h.min_s
    assert h2.max_s == h.max_s
    assert h2.p50 == h.p50
    assert h2.p999 == h.p999
    assert h2.to_dict() == h.to_dict()


def test_dict_round_trip_keeps_custom_grid():
    """A non-default ``lo``/``decades`` grid survives serialization.

    Regression: ``from_dict`` used to rebuild on the default grid, so ten
    10 ms samples on a 1 ms floor came back with p50 = 1.05e-5 s.
    """
    h = LatencyHistogram(lo=1e-3, decades=4)
    for _ in range(10):
        h.add(0.01)
    raw = h.to_dict()
    assert raw["decades"] == 4
    h2 = LatencyHistogram.from_dict(raw)
    assert (h2.lo, h2.n_buckets) == (h.lo, h.n_buckets)
    assert h2.p50 == h.p50 == pytest.approx(0.01, rel=0.1)
    assert h2.to_dict() == raw
    # the default grid serializes without the key (report bytes unchanged)
    assert "decades" not in LatencyHistogram().to_dict()
