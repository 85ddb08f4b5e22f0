"""Unit tests for I/O tracing and variability analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage.stats import BackendStats
from repro.telemetry.tracing import (
    IOTrace,
    TraceEvent,
    throughput_series,
    variability,
)
from tests.conftest import drive


class TestIOTrace:
    def test_attach_records_events(self, sim):
        trace = IOTrace(sim)
        stats = BackendStats(name="dev")
        trace.attach(stats)

        def job():
            yield sim.timeout(1.0)
            stats.record_read(100)
            yield sim.timeout(1.0)
            stats.record_write(200)

        drive(sim, job())
        assert len(trace) == 2
        assert trace.events[0] == TraceEvent(1.0, "dev", "read", 100)
        assert trace.events[1] == TraceEvent(2.0, "dev", "write", 200)

    def test_original_counters_still_update(self, sim):
        trace = IOTrace(sim)
        stats = BackendStats(name="dev")
        trace.attach(stats)
        stats.record_read(64)
        assert stats.read_ops == 1
        assert stats.bytes_read == 64

    def test_double_attach_rejected(self, sim):
        trace = IOTrace(sim)
        stats = BackendStats(name="dev")
        trace.attach(stats)
        with pytest.raises(ValueError, match="already traced"):
            trace.attach(stats)

    def test_filtered(self, sim):
        trace = IOTrace(sim)
        a, b = BackendStats(name="a"), BackendStats(name="b")
        trace.attach(a)
        trace.attach(b)
        a.record_read(1)
        a.record_write(2)
        b.record_read(3)
        assert len(trace.filtered(backend="a")) == 2
        assert len(trace.filtered(kind="read")) == 2
        assert len(trace.filtered(backend="a", kind="write")) == 1

    def test_bulk_record_reads_traced_with_op_count(self, sim):
        """Regression: whole-file copies account through
        ``record_reads``/``record_writes``; the trace must wrap those too,
        or every background copy goes unseen."""
        trace = IOTrace(sim)
        stats = BackendStats(name="dev")
        trace.attach(stats)
        stats.record_reads(5, 5000)
        stats.record_writes(3, 3000)
        assert len(trace) == 2
        assert trace.events[0] == TraceEvent(0.0, "dev", "read", 5000, ops=5)
        assert trace.events[1] == TraceEvent(0.0, "dev", "write", 3000, ops=3)
        # the wrapped counters still advanced underneath
        assert stats.read_ops == 5 and stats.bytes_read == 5000
        assert stats.write_ops == 3 and stats.bytes_written == 3000

    def test_totals_are_bulk_aware(self, sim):
        trace = IOTrace(sim)
        stats = BackendStats(name="dev")
        trace.attach(stats)
        stats.record_read(100)
        stats.record_reads(4, 400)
        stats.record_write(50)
        assert trace.total_ops("dev", "read") == 5
        assert trace.total_bytes("dev", "read") == 500
        assert trace.total_ops("dev", "write") == 1
        assert trace.total_bytes("dev") == 550

    def test_live_backend_integration(self, sim, pfs):
        """Tracing a real PFS picks up its pread traffic."""
        trace = IOTrace(sim)
        trace.attach(pfs.stats)
        pfs.add_file("/f", 10_000)

        def job():
            h = yield from pfs.open("/f")
            yield from pfs.pread(h, 0, 4_000)
            yield from pfs.pread(h, 4_000, 4_000)

        drive(sim, job())
        reads = trace.filtered(kind="read")
        assert len(reads) == 2
        assert sum(e.nbytes for e in reads) == 8_000


class TestThroughputSeries:
    def make_events(self):
        return [
            TraceEvent(0.5, "pfs", "read", 1000),
            TraceEvent(1.5, "pfs", "read", 3000),
            TraceEvent(2.5, "pfs", "read", 2000),
        ]

    def test_binning(self):
        t, bps = throughput_series(self.make_events(), 0.0, 3.0, bins=3)
        assert len(t) == 3
        assert bps.tolist() == [1000.0, 3000.0, 2000.0]

    def test_events_outside_window_excluded(self):
        events = [*self.make_events(), TraceEvent(10.0, "pfs", "read", 1 << 30)]
        _, bps = throughput_series(events, 0.0, 3.0, bins=3)
        assert bps.sum() * 1.0 == pytest.approx(6000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            throughput_series([], 1.0, 1.0)
        with pytest.raises(ValueError):
            throughput_series([], 0.0, 1.0, bins=0)

    def test_event_at_exact_right_edge_lands_in_last_bin(self):
        """Regression: the window used to be half-open (``t < t1``), so a
        completion at exactly ``t1`` — the last I/O of a run binned over
        ``[0, sim.now]`` — silently vanished from the series."""
        events = [*self.make_events(), TraceEvent(3.0, "pfs", "read", 900)]
        _, bps = throughput_series(events, 0.0, 3.0, bins=3)
        assert bps[-1] == pytest.approx(2900.0)  # 2000 + the edge event


class TestTraceMatchesBackendCounters:
    """Traced totals equal the backend counters they
    shadow, for both copy geometries the placement handler runs."""

    @pytest.mark.parametrize("stripe_chunks", [False, True])
    def test_full_run_traced_totals(self, monkeypatch, stripe_chunks):
        """``False``: the calibrated copy chunk (one shard), which exceeds
        the stripe, so every copy goes one ``pread``/``pwrite`` per chunk.
        ``True``: stripe-sized chunks, which every copy runs as a timed
        chunk loop with batched counters and ``apply_bulk_write``."""
        from repro.core.placement import PlacementHandler
        from repro.data.imagenet import IMAGENET_100G, scaled
        from repro.experiments.calibration import DEFAULT_CALIBRATION, ScaledEnvironment
        from repro.experiments.scenarios import build_run

        scale = 1 / 2048
        overrides = None
        if stripe_chunks:
            env = ScaledEnvironment.derive(DEFAULT_CALIBRATION, IMAGENET_100G,
                                           scaled(IMAGENET_100G, scale), scale)
            overrides = {"copy_chunk": env.stripe_size}
        chunked: list[str] = []
        per_chunk = PlacementHandler._copy_full_chunked

        def counting(self, task):
            chunked.append(task.info.name)
            return per_chunk(self, task)

        monkeypatch.setattr(PlacementHandler, "_copy_full_chunked", counting)
        handle = build_run(
            "monarch", "lenet", IMAGENET_100G, DEFAULT_CALIBRATION,
            scale=scale, seed=1, telemetry=True, monarch_overrides=overrides,
        )
        handle.execute()
        assert handle.monarch.placement.stats.pfs_bytes_fetched > 0
        assert bool(chunked) is not stripe_chunks
        tele = handle.telemetry
        assert tele is not None
        for name, stats in tele.backends.items():
            assert tele.trace.total_bytes(name, "read") == stats.bytes_read, name
            assert tele.trace.total_bytes(name, "write") == stats.bytes_written, name
            assert tele.trace.total_ops(name, "read") == stats.read_ops, name
            assert tele.trace.total_ops(name, "write") == stats.write_ops, name


class TestVariability:
    def test_constant_series_has_zero_cv(self):
        v = variability(np.array([100.0, 100.0, 100.0]))
        assert v.cv == 0.0
        assert v.mean_bps == 100.0

    def test_idle_edges_trimmed(self):
        v = variability(np.array([0.0, 0.0, 10.0, 20.0, 0.0]))
        assert v.mean_bps == pytest.approx(15.0)
        assert v.min_bps == 10.0

    def test_empty_series(self):
        v = variability(np.zeros(5))
        assert v.mean_bps == 0.0
        assert v.cv == 0.0

    def test_cv_orders_noisiness(self):
        smooth = variability(np.array([90.0, 100.0, 110.0]))
        noisy = variability(np.array([10.0, 100.0, 190.0]))
        assert noisy.cv > smooth.cv
