"""Replay-driver and window-closing semantics.

The headline regression here is the windowed-series fencepost: a run
ending *exactly* on a window boundary must not emit an empty/garbage
trailing window.  :class:`WindowClock` makes closing explicit (one
``close()`` per edge, ``finalize`` for the partial tail), and the driver
folds boundary-instant completions into the last closed window, so the
window series always sums to the completed count.  The throughput-series
binning in the telemetry layer is pinned to the same closed-boundary
contract.
"""

from __future__ import annotations

import pytest

from repro.simkernel.core import Simulator
from repro.workload.replay import ReplayDriver, WindowClock
from repro.workload.trace import Trace, TraceRequest

pytestmark = pytest.mark.serve


# -- WindowClock -------------------------------------------------------------

def test_window_clock_closes_in_order():
    clock = WindowClock(10.0, 2.5)
    assert clock.next_edge() == 12.5
    assert clock.close() == (10.0, 12.5)
    assert clock.close() == (12.5, 15.0)
    assert clock.n_closed == 2


def test_window_clock_finalize_partial_tail():
    clock = WindowClock(0.0, 1.0)
    clock.close()
    assert clock.finalize(1.4) == (1.0, 1.4)
    assert clock.n_closed == 2


def test_window_clock_finalize_exact_boundary_emits_nothing():
    """The fencepost: ending exactly on an edge adds no empty window."""
    clock = WindowClock(0.0, 1.0)
    clock.close()
    clock.close()
    assert clock.finalize(2.0) is None
    assert clock.n_closed == 2
    # ...and ending marginally past it does emit the tail
    clock2 = WindowClock(0.0, 1.0)
    clock2.close()
    assert clock2.finalize(1.0 + 1e-3) == (1.0, 1.0 + 1e-3)


def test_window_clock_rejects_bad_width():
    with pytest.raises(ValueError):
        WindowClock(0.0, 0.0)


# -- a minimal reader stack for driver-level tests ---------------------------

class FakeReader:
    """Instant (or fixed-delay) reader; counts ops like a backend would."""

    def __init__(self, sim, delay_s: float = 0.0, miss_every: int = 0):
        self.sim = sim
        self.delay_s = delay_s
        self.miss_every = miss_every
        self.reads = 0
        self.misses = 0

    def open(self, path):
        return path
        yield  # pragma: no cover - makes this a generator

    def pread(self, f, offset, nbytes):
        self.reads += 1
        if self.miss_every and self.reads % self.miss_every == 0:
            self.misses += 1
        if self.delay_s:
            yield self.sim.timeout(self.delay_s)
        return nbytes

    def hit_fn(self):
        return self.reads, self.misses


def uniform_trace(n: int, spacing: float, nbytes: int = 10) -> Trace:
    reqs = tuple(
        TraceRequest(t=i * spacing, kind="read", file_index=0,
                     offset=0, nbytes=nbytes)
        for i in range(n)
    )
    return Trace(workload="unit", seed=0, meta={}, requests=reqs)


def run_replay(trace, **kwargs):
    sim = Simulator()
    reader = kwargs.pop("reader_factory", FakeReader)(sim, **kwargs.pop("reader_kwargs", {}))
    driver = ReplayDriver(sim, trace, reader, ["/f0"],
                          hit_fn=reader.hit_fn, **kwargs)
    proc = sim.spawn(driver.run(), name="replay")
    result = sim.run(proc)
    return result, reader


# -- exact-boundary regression ----------------------------------------------

def test_exact_boundary_run_has_no_empty_final_window():
    """Instant reads, last arrival on the final edge: exactly N windows."""
    n_windows = 5
    # 11 arrivals at 0, 1, ..., 10; horizon 10 = 5 windows of 2.0, and the
    # last completion lands exactly on the final edge.
    result, _ = run_replay(uniform_trace(11, 1.0), windows=n_windows)
    assert len(result.windows) == n_windows
    assert result.completed == 11
    # nothing lost to the fencepost: windows sum to the completed count
    assert sum(w["completed"] for w in result.windows) == 11
    last = result.windows[-1]
    assert last["t_end"] > last["t_start"]
    # every window is well-formed (no zero-width garbage entries)
    for w in result.windows:
        assert w["t_end"] > w["t_start"]


@pytest.mark.parametrize("delay_s, slots", [(0.0, 36), (0.3, 47)])
def test_generator_reader_keeps_one_process_per_request_slots(delay_s, slots):
    """Requests occupy the dispatch slots a process per request did.

    ``slots`` are the counts of replaying each request as its own
    process; a zero-yield read must complete in its start slot.
    """
    _, reader = run_replay(uniform_trace(11, 1.0), windows=5,
                           reader_kwargs={"delay_s": delay_s})
    assert reader.sim.events_processed == slots


def test_straggler_tail_gets_a_partial_window():
    """Slow reads past the horizon close extra windows, then a tail."""
    result, _ = run_replay(
        uniform_trace(6, 1.0), windows=5,
        reader_kwargs={"delay_s": 0.3},
    )
    # horizon 5.0, last completion at 5.3: 5 full windows + the tail
    assert len(result.windows) == 6
    assert result.windows[-1]["t_end"] == pytest.approx(5.3)
    assert sum(w["completed"] for w in result.windows) == 6
    assert result.t_end == pytest.approx(5.3)


def test_window_hit_rates_from_deltas():
    """Per-window hit rate reflects only that window's reads."""
    # every 2nd read misses -> per-window hit rate 0.5 with even counts
    result, reader = run_replay(
        uniform_trace(20, 1.0), windows=2,
        reader_kwargs={"miss_every": 2},
    )
    assert reader.reads == 20
    assert result.hit_rate == pytest.approx(0.5)
    for w in result.windows:
        if w["reads"]:
            assert w["hit_rate"] == pytest.approx(1.0 - w["pfs_reads"] / w["reads"])


def test_open_arrival_latency_includes_queueing():
    """Latency is completion minus scheduled arrival (not dispatch)."""
    result, _ = run_replay(
        uniform_trace(4, 1.0), windows=2,
        reader_kwargs={"delay_s": 0.25},
    )
    assert result.latency.count == 4
    assert result.latency.min_s == pytest.approx(0.25, rel=0.2)


def test_warm_latency_covers_second_half_only():
    result, _ = run_replay(
        uniform_trace(11, 1.0), windows=5, warmup_frac=0.5,
        reader_kwargs={"delay_s": 0.1},
    )
    # arrivals at t >= 5.0 are warm: 6 of 11
    assert result.warm_latency.count == 6
    assert result.latency.count == 11


def test_zero_span_trace_degenerates_gracefully():
    """A single instant request still produces a consistent result."""
    result, _ = run_replay(uniform_trace(1, 0.0), windows=3)
    assert result.completed == 1
    assert sum(w["completed"] for w in result.windows) == 1


def test_driver_rejects_bad_config():
    sim = Simulator()
    trace = uniform_trace(2, 1.0)
    with pytest.raises(ValueError):
        ReplayDriver(sim, trace, FakeReader(sim), ["/f0"], windows=0)
    with pytest.raises(ValueError):
        ReplayDriver(sim, trace, FakeReader(sim), ["/f0"], warmup_frac=1.0)


# -- the telemetry layer's series obeys the same closed-boundary contract ----

def test_throughput_series_counts_boundary_event_in_last_bin():
    from repro.telemetry.tracing import TraceEvent, throughput_series

    events = [TraceEvent(t, "pfs", "read", 100) for t in (0.0, 2.5, 5.0)]
    centers, series = throughput_series(events, 0.0, 5.0, bins=5)
    assert len(series) == 5
    # the completion at exactly t1 lands in the last bin, not dropped
    # and not in a phantom extra window
    assert series[-1] > 0.0
    assert sum(series) * (5.0 / 5) == pytest.approx(300.0)
