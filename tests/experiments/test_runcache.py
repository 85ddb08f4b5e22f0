"""Correctness tests for the content-keyed run cache.

Two properties matter: a hit must return a record bit-identical to
recomputing, and anything that could change the run's outcome — seed,
scale, a calibration constant, the fault plan, an env knob, the source
tree — must change the key.  Damaged entries are detected and
recomputed, never trusted.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.data.imagenet import IMAGENET_100G
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.dist_scenarios import run_distributed_experiment
from repro.experiments.executor import (
    GridExecutor,
    RunCache,
    RunSpec,
    default_cache_dir,
    resolve_cache,
    spec_key,
)
from repro.experiments.scenarios import ssd_tier_down_plan

SCALE = 1 / 4096

BASE = RunSpec("monarch", "lenet", IMAGENET_100G, DEFAULT_CALIBRATION,
               scale=SCALE, seed=5, report=True)


class TestKeySensitivity:
    def test_identical_specs_share_a_key(self):
        clone = RunSpec("monarch", "lenet", IMAGENET_100G, DEFAULT_CALIBRATION,
                        scale=SCALE, seed=5, report=True)
        assert spec_key(BASE) == spec_key(clone)

    @pytest.mark.parametrize("change", [
        dict(seed=6),
        dict(scale=1 / 2048),
        dict(setup="vanilla-lustre"),
        dict(model="alexnet"),
        dict(epochs=1),
        dict(report=False),
        dict(fault_plan=ssd_tier_down_plan(0.05)),
        dict(monarch_overrides={"eviction": "fifo"}),
    ])
    def test_spec_field_changes_miss(self, change):
        assert spec_key(dataclasses.replace(BASE, **change)) != spec_key(BASE)

    def test_calibration_constant_changes_miss(self):
        """Every calibration constant is part of the key — nested ones too."""
        calib = dataclasses.replace(DEFAULT_CALIBRATION,
                                    interference_mean_load=0.42)
        assert spec_key(dataclasses.replace(BASE, calib=calib)) != spec_key(BASE)
        nested = dataclasses.replace(
            DEFAULT_CALIBRATION,
            ssd=dataclasses.replace(DEFAULT_CALIBRATION.ssd,
                                    read_bw_mib=DEFAULT_CALIBRATION.ssd.read_bw_mib + 1),
        )
        assert spec_key(dataclasses.replace(BASE, calib=nested)) != spec_key(BASE)

    def test_env_knob_changes_miss(self, monkeypatch):
        before = spec_key(BASE)
        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           '{"/mnt/ssd": [{"kind": "tier_down", "at": 30.0}]}')
        assert spec_key(BASE) != before

    def test_code_salt_changes_miss(self):
        assert spec_key(BASE, salt="aaaa") != spec_key(BASE, salt="bbbb")


class TestHitFidelity:
    def test_hit_is_bit_identical_including_report(self, tmp_path):
        first = GridExecutor(jobs=1, cache=RunCache(tmp_path)).map([BASE])[0]
        ex = GridExecutor(jobs=1, cache=RunCache(tmp_path))
        second = ex.map([BASE])[0]
        assert ex.cache.stats() == {"hits": 1, "misses": 0, "stores": 0,
                                    "corrupt": 0}
        assert type(second) is type(first)
        assert json.dumps(dataclasses.asdict(first), sort_keys=True) == \
            json.dumps(dataclasses.asdict(second), sort_keys=True)
        assert second.report == first.report

    def test_dist_record_round_trips(self, tmp_path):
        kwargs = dict(
            setup="monarch", model_name="lenet", dataset=IMAGENET_100G,
            n_nodes=2, scale=SCALE, runs=2, epochs=1,
        )
        first = run_distributed_experiment(**kwargs, cache=tmp_path)
        second = run_distributed_experiment(**kwargs, cache=tmp_path)
        assert [dataclasses.asdict(r) for r in first] == [
            dataclasses.asdict(r) for r in second
        ]
        assert all(type(r).__name__ == "DistRunRecord" for r in second)


class TestCorruptEntries:
    def _entry(self, cache: RunCache):
        paths = cache.entries()
        assert len(paths) == 1
        return paths[0]

    def _prime(self, tmp_path):
        cache = RunCache(tmp_path)
        record = GridExecutor(jobs=1, cache=cache).map([BASE])[0]
        return cache, record

    def test_truncated_entry_recomputed(self, tmp_path):
        cache, record = self._prime(tmp_path)
        path = self._entry(cache)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        ex = GridExecutor(jobs=1, cache=RunCache(tmp_path))
        again = ex.map([BASE])[0]
        assert ex.cache.stats()["corrupt"] == 1
        assert ex.cache.stats()["hits"] == 0
        assert dataclasses.asdict(again) == dataclasses.asdict(record)
        # the damaged entry was rewritten and now hits again
        ex2 = GridExecutor(jobs=1, cache=RunCache(tmp_path))
        ex2.map([BASE])
        assert ex2.cache.stats()["hits"] == 1

    def test_tampered_payload_fails_checksum(self, tmp_path):
        cache, record = self._prime(tmp_path)
        path = self._entry(cache)
        payload = json.loads(path.read_text())
        payload["record"]["seed"] = 999
        path.write_text(json.dumps(payload, sort_keys=True, indent=1))
        ex = GridExecutor(jobs=1, cache=RunCache(tmp_path))
        again = ex.map([BASE])[0]
        assert ex.cache.stats()["corrupt"] == 1
        assert again.seed == BASE.seed
        assert dataclasses.asdict(again) == dataclasses.asdict(record)

    def test_wrong_format_version_recomputed(self, tmp_path):
        cache, record = self._prime(tmp_path)
        path = self._entry(cache)
        payload = json.loads(path.read_text())
        payload["format"] = 999
        path.write_text(json.dumps(payload, sort_keys=True, indent=1))
        ex = GridExecutor(jobs=1, cache=RunCache(tmp_path))
        again = ex.map([BASE])[0]
        assert ex.cache.stats()["corrupt"] == 1
        assert dataclasses.asdict(again) == dataclasses.asdict(record)

    def test_non_json_garbage_recomputed(self, tmp_path):
        cache, record = self._prime(tmp_path)
        self._entry(cache).write_text("not json at all {{{")
        ex = GridExecutor(jobs=1, cache=RunCache(tmp_path))
        again = ex.map([BASE])[0]
        assert ex.cache.stats()["corrupt"] == 1
        assert dataclasses.asdict(again) == dataclasses.asdict(record)


class TestCacheMaintenance:
    def test_clear_removes_everything(self, tmp_path):
        cache = RunCache(tmp_path)
        GridExecutor(jobs=1, cache=cache).map(
            [BASE, dataclasses.replace(BASE, seed=6)]
        )
        assert len(cache.entries()) == 2
        assert cache.total_bytes() > 0
        assert cache.clear() == 2
        assert cache.entries() == []
        assert cache.total_bytes() == 0

    def test_resolve_cache_normalization(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        existing = RunCache(tmp_path)
        assert resolve_cache(existing) is existing
        assert resolve_cache(str(tmp_path)).root == tmp_path
        assert resolve_cache(True).root == default_cache_dir()
        assert resolve_cache("default").root == default_cache_dir()

    def test_default_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RUN_CACHE", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        monkeypatch.delenv("REPRO_RUN_CACHE")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro-monarch" / "runs"

    def test_metrics_surface_cache_counters(self, tmp_path):
        ex = GridExecutor(jobs=1, cache=RunCache(tmp_path))
        ex.map([BASE])
        counters = ex.metrics.as_dict()["counters"]
        assert counters["runcache.misses"] == 1
        assert counters["runcache.stores"] == 1
        assert counters["grid.specs"] == 1
        ex2 = GridExecutor(jobs=1, cache=RunCache(tmp_path))
        ex2.map([BASE])
        assert ex2.metrics.as_dict()["counters"]["runcache.hits"] == 1
