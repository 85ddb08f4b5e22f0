"""Edge-case tests for the input pipeline."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.data.dataset import DatasetSpec, SampleSizeModel
from repro.data.sharding import build_shards
from repro.data.virtual import materialize
from repro.framework.pipeline import EpochPipeline, shards_from_manifest
from tests.framework.test_pipeline import run_epoch


def stage(sim, pfs, spec):
    manifest = build_shards(spec)
    paths = materialize(manifest, pfs, "/dataset")
    return shards_from_manifest(manifest, ["/mnt/pfs" + p for p in paths])


class TestPipelineEdges:
    def test_single_shard_dataset(self, sim, pfs, posix_reader, node, fast_model,
                                  small_config, shuffle_rng):
        spec = DatasetSpec(
            name="one-shard", n_samples=5,
            size_model=SampleSizeModel(mean_bytes=4096, sigma=0.0),
            shard_target_bytes=1 << 20,
        )
        shards = stage(sim, pfs, spec)
        assert len(shards) == 1
        pipe = EpochPipeline(sim, small_config, shards, posix_reader, node,
                             fast_model, shuffle_rng)
        batches = run_epoch(sim, pipe)
        assert sum(len(b) for b in batches) == 5

    def test_batch_larger_than_dataset(self, sim, pfs, posix_reader, node,
                                       fast_model, small_config, shuffle_rng):
        spec = DatasetSpec(
            name="small", n_samples=7,
            size_model=SampleSizeModel(mean_bytes=2048, sigma=0.0),
            shard_target_bytes=1 << 20,
        )
        shards = stage(sim, pfs, spec)
        cfg = replace(small_config, batch_size=100)
        pipe = EpochPipeline(sim, cfg, shards, posix_reader, node,
                             fast_model, shuffle_rng)
        batches = run_epoch(sim, pipe)
        assert [len(b) for b in batches] == [7]

    def test_more_readers_than_shards(self, sim, pfs, posix_reader, node,
                                      fast_model, small_config, shuffle_rng):
        spec = DatasetSpec(
            name="few-shards", n_samples=10,
            size_model=SampleSizeModel(mean_bytes=2048, sigma=0.0),
            shard_target_bytes=5 * (2048 + 16),
        )
        shards = stage(sim, pfs, spec)
        cfg = replace(small_config, cycle_length=16)
        pipe = EpochPipeline(sim, cfg, shards, posix_reader, node,
                             fast_model, shuffle_rng)
        batches = run_epoch(sim, pipe)
        assert sum(len(b) for b in batches) == 10

    def test_read_chunk_larger_than_shard(self, sim, pfs, posix_reader, node,
                                          fast_model, small_config, shuffle_rng):
        spec = DatasetSpec(
            name="tiny-shards", n_samples=12,
            size_model=SampleSizeModel(mean_bytes=1024, sigma=0.0),
            shard_target_bytes=3 * (1024 + 16),
        )
        shards = stage(sim, pfs, spec)
        cfg = replace(small_config, read_chunk=1 << 20)
        pipe = EpochPipeline(sim, cfg, shards, posix_reader, node,
                             fast_model, shuffle_rng)
        batches = run_epoch(sim, pipe)
        assert sum(len(b) for b in batches) == 12
        # one read per shard suffices
        assert pfs.stats.read_ops == len(shards)

    def test_single_map_worker_preserves_count(self, sim, pfs, posix_reader,
                                               node, fast_model, small_config,
                                               shuffle_rng, tiny_spec):
        shards = stage(sim, pfs, tiny_spec)
        cfg = replace(small_config, num_map_workers=1)
        pipe = EpochPipeline(sim, cfg, shards, posix_reader, node,
                             fast_model, shuffle_rng)
        batches = run_epoch(sim, pipe)
        assert sum(len(b) for b in batches) == 96

    def test_prefetch_of_one_still_completes(self, sim, pfs, posix_reader, node,
                                             fast_model, small_config,
                                             shuffle_rng, tiny_spec):
        shards = stage(sim, pfs, tiny_spec)
        cfg = replace(small_config, prefetch_batches=1)
        pipe = EpochPipeline(sim, cfg, shards, posix_reader, node,
                             fast_model, shuffle_rng)
        batches = run_epoch(sim, pipe)
        assert sum(len(b) for b in batches) == 96


class TestPipelineProperty:
    def test_record_conservation_across_random_configs(self, sim, posix_reader,
                                                       node, fast_model,
                                                       small_config,
                                                       distinct_shards):
        """Any (cycle, mappers, batch, chunk) combo delivers each record once."""
        shards = distinct_shards
        rng = np.random.default_rng(0)
        for _ in range(6):
            cfg = replace(
                small_config,
                cycle_length=int(rng.integers(1, 6)),
                num_map_workers=int(rng.integers(1, 8)),
                batch_size=int(rng.integers(1, 40)),
                read_chunk=int(rng.integers(1024, 1 << 18)),
                shuffle_buffer_records=int(rng.integers(1, 128)),
            )
            pipe = EpochPipeline(sim, cfg, shards, posix_reader, node,
                                 fast_model, np.random.default_rng(1))
            batches = run_epoch(sim, pipe)
            payloads = sorted(r for b in batches for r in b)
            assert payloads == sorted(p for s in shards for p in s.payloads), cfg
