"""Unit tests for the tf.data-like input pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.framework.io_layer import OpenFile
from repro.framework.pipeline import (
    EpochPipeline,
    PipelineConfig,
    shards_from_manifest,
)


def run_epoch(sim, pipe):
    """Consume the whole epoch; returns the list of batches."""

    def consumer():
        batches = []
        while True:
            batch = yield from pipe.next_batch()
            if batch is None:
                return batches
            batches.append(batch)

    pipe.start()
    proc = sim.spawn(consumer())
    return sim.run(proc)


class TestConfig:
    def test_defaults_valid(self):
        PipelineConfig()

    def test_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(read_chunk=0)
        with pytest.raises(ValueError):
            PipelineConfig(cycle_length=0)
        with pytest.raises(ValueError):
            PipelineConfig(shuffle_buffer_records=0)
        with pytest.raises(ValueError):
            PipelineConfig(batch_size=0)

    def test_host_scale(self):
        cfg = PipelineConfig(batch_size=32, reference_batch=128)
        assert cfg.host_scale == pytest.approx(0.25)


class TestShardsFromManifest:
    def test_binds_paths(self, tiny_manifest):
        paths = [f"/mnt/pfs/dataset/{s.filename}" for s in tiny_manifest.shards]
        shards = shards_from_manifest(tiny_manifest, paths)
        assert [s.path for s in shards] == paths
        assert all(s.size == layout.size_bytes
                   for s, layout in zip(shards, tiny_manifest.shards))

    def test_path_count_mismatch(self, tiny_manifest):
        with pytest.raises(ValueError):
            shards_from_manifest(tiny_manifest, ["/one/path"])

    def test_with_path_copy(self, tiny_manifest):
        shards = shards_from_manifest(
            tiny_manifest, [f"/p/{s.filename}" for s in tiny_manifest.shards]
        )
        redirected = shards[0].with_path("/cache/x")
        assert redirected.path == "/cache/x"
        assert redirected.size == shards[0].size
        assert shards[0].path.startswith("/p/")


class TestEpochPipeline:
    def test_delivers_every_record_once(self, sim, small_config, distinct_shards,
                                         posix_reader, node, fast_model, shuffle_rng):
        pipe = EpochPipeline(sim, small_config, distinct_shards, posix_reader, node,
                             fast_model, shuffle_rng)
        batches = run_epoch(sim, pipe)
        records = [r for b in batches for r in b]
        assert len(records) == 96
        # a record travels as its payload length; the lengths are distinct,
        # so equal multisets mean no record was duplicated or skipped
        assert sorted(records) == sorted(p for s in distinct_shards for p in s.payloads)

    def test_batch_sizes(self, sim, small_config, pfs_shards, posix_reader,
                         node, fast_model, shuffle_rng):
        pipe = EpochPipeline(sim, small_config, pfs_shards, posix_reader, node,
                             fast_model, shuffle_rng)
        batches = run_epoch(sim, pipe)
        assert pipe.total_batches == 6  # 96 / 16
        assert len(batches) == 6
        assert all(len(b) == 16 for b in batches)

    def test_remainder_batch(self, sim, small_config, pfs_shards, posix_reader,
                             node, fast_model, shuffle_rng):
        from dataclasses import replace

        cfg = replace(small_config, batch_size=36)
        pipe = EpochPipeline(sim, cfg, pfs_shards, posix_reader, node,
                             fast_model, shuffle_rng)
        batches = run_epoch(sim, pipe)
        assert [len(b) for b in batches] == [36, 36, 24]

    def test_shard_order_reshuffles_between_epochs(self, sim, small_config,
                                                   pfs_shards, posix_reader, node,
                                                   fast_model):
        rng = np.random.default_rng(0)
        p1 = EpochPipeline(sim, small_config, pfs_shards, posix_reader, node,
                           fast_model, rng)
        order1 = list(p1._shard_queue)
        p2 = EpochPipeline(sim, small_config, pfs_shards, posix_reader, node,
                           fast_model, rng)
        order2 = list(p2._shard_queue)
        assert order1 != order2
        assert sorted(order1) == sorted(order2) == list(range(len(pfs_shards)))

    def test_reads_charge_the_pfs(self, sim, small_config, pfs_shards, pfs,
                                  posix_reader, node, fast_model, shuffle_rng):
        pipe = EpochPipeline(sim, small_config, pfs_shards, posix_reader, node,
                             fast_model, shuffle_rng)
        run_epoch(sim, pipe)
        total_bytes = sum(s.size for s in pfs_shards)
        assert pfs.stats.bytes_read == total_bytes
        assert pfs.stats.open_ops == len(pfs_shards)
        # chunked reads: ceil(size / chunk) per shard
        expected_reads = sum(-(-s.size // small_config.read_chunk) for s in pfs_shards)
        assert pfs.stats.read_ops == expected_reads

    def test_map_stage_occupies_cpu(self, sim, small_config, pfs_shards,
                                    posix_reader, node, fast_model, shuffle_rng):
        pipe = EpochPipeline(sim, small_config, pfs_shards, posix_reader, node,
                             fast_model, shuffle_rng)
        run_epoch(sim, pipe)
        busy = node.cpu.monitor.mean_level(0.0, sim.now) * sim.now
        # 96 records at the byte-scaled per-record cost
        per_record = fast_model.preprocess_time(8192)
        assert busy == pytest.approx(96 * per_record, rel=0.05)

    def test_empty_shards_rejected(self, sim, small_config, posix_reader, node,
                                   fast_model, shuffle_rng):
        with pytest.raises(ValueError):
            EpochPipeline(sim, small_config, [], posix_reader, node,
                          fast_model, shuffle_rng)

    def test_stage_failure_propagates(self, sim, small_config, pfs_shards,
                                      node, fast_model, shuffle_rng):
        class BrokenReader:
            def open(self, path):
                raise RuntimeError("reader exploded")
                yield  # pragma: no cover

            def pread(self, f, offset, nbytes):
                yield  # pragma: no cover

            def close(self, f):
                pass

        pipe = EpochPipeline(sim, small_config, pfs_shards, BrokenReader(), node,
                             fast_model, shuffle_rng)
        with pytest.raises(RuntimeError, match="reader exploded"):
            run_epoch(sim, pipe)

    def test_abort_kills_stages(self, sim, small_config, pfs_shards, posix_reader,
                                node, fast_model, shuffle_rng):
        pipe = EpochPipeline(sim, small_config, pfs_shards, posix_reader, node,
                             fast_model, shuffle_rng)
        pipe.start()
        sim.run(until=1e-6)
        stages = pipe._fsm_readers + pipe._fsm_mappers
        assert stages and all(s.alive for s in stages)
        pipe.abort()
        sim.run()
        assert not any(s.alive for s in stages)
        # the opens in flight at abort completed, but read nothing further
        assert len(pipe._record_store) == 0

    def test_abort_closes_trampolined_reads(self, sim, small_config, pfs_shards,
                                            node, fast_model, shuffle_rng):
        """A generator read in flight at abort is closed where it is
        suspended, as killing a reader process would close it: it never
        resumes, so it issues nothing further."""
        log = []

        class SlowReader:
            def open(self, path):
                if False:  # pragma: no cover - an open that never yields
                    yield None
                return OpenFile(path=path, size=1 << 20)

            def pread(self, f, offset, nbytes):
                try:
                    yield sim.timeout(1.0)
                    log.append("resumed")
                    yield sim.timeout(1.0)
                finally:
                    log.append("closed")
                return nbytes

            def close(self, f):
                pass

        pipe = EpochPipeline(sim, small_config, pfs_shards, SlowReader(), node,
                             fast_model, shuffle_rng)
        pipe.start()
        sim.run(until=0.5)
        assert log == []
        pipe.abort()
        assert log == ["closed"] * small_config.cycle_length
        sim.run()
        assert log == ["closed"] * small_config.cycle_length
        assert sim.now == 1.0

