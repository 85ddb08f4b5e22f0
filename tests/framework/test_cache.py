"""Unit tests for the tf.data cache stand-in (vanilla-caching)."""

from __future__ import annotations

import pytest

from repro.framework.cache import CacheOverflowError, TFDataCache
from tests.conftest import drive


class TestTFDataCache:
    def test_cached_path_mirrors_basename(self, mounts):
        cache = TFDataCache(mounts, "/mnt/ssd/cache")
        assert cache.cached_path("/mnt/pfs/dataset/train-0001.tfrecord") == (
            "/mnt/ssd/cache/train-0001.tfrecord"
        )

    def test_write_chunk_appends(self, sim, mounts, local_fs):
        cache = TFDataCache(mounts, "/mnt/ssd/cache")

        def job():
            yield from cache.write_chunk("/mnt/pfs/dataset/a", 1000)
            yield from cache.write_chunk("/mnt/pfs/dataset/a", 500)

        drive(sim, job())
        assert local_fs.file_size("/cache/a") == 1500
        assert cache.bytes_cached == 1500

    def test_overflow_raises_cache_error(self, sim, mounts, local_fs):
        cache = TFDataCache(mounts, "/mnt/ssd/cache")

        def job():
            yield from cache.write_chunk("/mnt/pfs/dataset/a", local_fs.capacity_bytes + 1)

        with pytest.raises(CacheOverflowError):
            drive(sim, job())

    def test_not_ready_until_finalized(self, mounts, tiny_manifest):
        from repro.framework.pipeline import shards_from_manifest

        cache = TFDataCache(mounts, "/mnt/ssd/cache")
        shards = shards_from_manifest(
            tiny_manifest, [f"/mnt/pfs/dataset/{s.filename}" for s in tiny_manifest.shards]
        )
        assert cache.effective_shards(shards) == shards
        cache.finalize_epoch()
        redirected = cache.effective_shards(shards)
        assert all(s.path.startswith("/mnt/ssd/cache/") for s in redirected)
        assert [s.size for s in redirected] == [s.size for s in shards]
        # a redirected shard reuses the original's record columns
        assert all(r.ends is s.ends and r.payloads is s.payloads
                   for r, s in zip(redirected, shards))

    def test_write_after_finalize_rejected(self, sim, mounts):
        cache = TFDataCache(mounts, "/mnt/ssd/cache")
        cache.finalize_epoch()

        def job():
            yield from cache.write_chunk("/mnt/pfs/dataset/a", 10)

        with pytest.raises(RuntimeError, match="finalized"):
            drive(sim, job())

    def test_writes_charge_local_backend(self, sim, mounts, local_fs):
        cache = TFDataCache(mounts, "/mnt/ssd/cache")

        def job():
            yield from cache.write_chunk("/mnt/pfs/dataset/a", 4096)

        drive(sim, job())
        assert local_fs.stats.write_ops == 1
        assert local_fs.stats.bytes_written == 4096
