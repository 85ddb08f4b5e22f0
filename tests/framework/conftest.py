"""Fixtures for framework-level tests: a fully wired tiny training stack."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import DatasetSpec, SampleSizeModel
from repro.data.sharding import build_shards
from repro.data.virtual import materialize
from repro.framework.io_layer import PosixReader
from repro.framework.pipeline import PipelineConfig, shards_from_manifest


@pytest.fixture
def small_config() -> PipelineConfig:
    """A small pipeline: 2 readers, 4 mappers, batches of 16."""
    return PipelineConfig(
        read_chunk=16 * 1024,
        cycle_length=2,
        num_map_workers=4,
        shuffle_buffer_records=64,
        prefetch_batches=2,
        batch_size=16,
        reference_batch=16,
    )


@pytest.fixture
def pfs_shards(sim, pfs, tiny_manifest):
    """The tiny dataset materialized on the PFS, as pipeline ShardInfos."""
    paths = materialize(tiny_manifest, pfs, "/dataset")
    return shards_from_manifest(tiny_manifest, ["/mnt/pfs" + p for p in paths])


@pytest.fixture
def distinct_shards(sim, pfs):
    """96 records with pairwise-distinct payload lengths, on the PFS.

    A record travels the pipeline as its payload length, so distinct
    lengths let a test tell a duplicated record from a skipped one.
    """
    spec = DatasetSpec(
        name="distinct",
        n_samples=96,
        size_model=SampleSizeModel(mean_bytes=8192, sigma=0.3),
        shard_target_bytes=12 * (8192 + 16),
    )
    manifest = build_shards(spec)
    assert len({p for s in manifest.shards for p in s.payload.tolist()}) == 96
    paths = materialize(manifest, pfs, "/dataset")
    return shards_from_manifest(manifest, ["/mnt/pfs" + p for p in paths])


@pytest.fixture
def posix_reader(mounts) -> PosixReader:
    """Vanilla reader over the test mount table."""
    return PosixReader(mounts)


@pytest.fixture
def shuffle_rng() -> np.random.Generator:
    """Deterministic shuffle stream."""
    return np.random.default_rng(7)
