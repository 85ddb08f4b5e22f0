"""Pinned dataset layouts and serving traces, as SHA-256 hashes.

The outcome pins (``fig*``, ``pipeline_*``, ``replay_*``) check what a
run does with a dataset; these check the inputs themselves, so a change
to how shards are packed or requests are drawn fails here, by name,
before it shows up as a drifted epoch time.

* ``layouts`` — every record of a ``build_shards`` manifest, as
  ``(filename, offset, frame_len, sample_id, payload_len)``: the two
  ImageNet presets at two scales each, the suite's tiny spec, and a spec
  whose records often exceed the shard target.
* ``traces`` — ``generate_trace(...).to_jsonl()`` for the three serving
  presets at 1/32 and 1/1024, seeds 0 and 7, over the namespace (and,
  for churn, the per-job datasets) the serving scenario builds.

After an intentional change to the layout or the generators, refresh
with::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/golden -q
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib

import pytest

from repro.data.dataset import DatasetSpec, SampleSizeModel
from repro.data.imagenet import IMAGENET_100G, IMAGENET_200G, scaled
from repro.data.sharding import build_shards
from repro.simkernel.rng import RngRegistry
from repro.workload.generators import generate_trace
from repro.workload.spec import WORKLOADS

GOLDEN = pathlib.Path(__file__).parent / "layout_pins.json"

LAYOUT_SPECS: dict[str, DatasetSpec] = {
    "imagenet100g_1in32": scaled(IMAGENET_100G, 1 / 32),
    "imagenet100g_1in256": scaled(IMAGENET_100G, 1 / 256),
    "imagenet200g_1in64": scaled(IMAGENET_200G, 1 / 64),
    "imagenet200g_1in128": scaled(IMAGENET_200G, 1 / 128),
    # the shared ``tiny_spec`` fixture: 96 records of 8 KiB, 12 per shard
    "tiny": DatasetSpec(
        name="tiny",
        n_samples=96,
        size_model=SampleSizeModel(mean_bytes=8192, sigma=0.0),
        shard_target_bytes=12 * (8192 + 16),
    ),
    # a wide size spread against a target below the mean frame: most
    # records ship alone, the small ones pair up
    "oversized": DatasetSpec(
        name="oversized",
        n_samples=400,
        size_model=SampleSizeModel(mean_bytes=6000, sigma=0.9),
        shard_target_bytes=5000,
    ),
}

TRACE_CELLS = [
    (workload, scale, seed)
    for workload in ("serve-zipf", "serve-diurnal", "serve-churn")
    for scale in (32, 1024)
    for seed in (0, 7)
]


def _layout_digest(spec: DatasetSpec) -> str:
    h = hashlib.sha256()
    for shard in build_shards(spec).shards:
        for r in shard.records:
            h.update(
                f"{shard.filename},{r.offset},{r.frame_len},{r.sample_id},"
                f"{r.payload_len}\n".encode()
            )
    return h.hexdigest()


def _trace_digest(workload: str, inverse_scale: int, seed: int) -> str:
    """Hash the trace the serving scenario would generate for this cell."""
    scale = 1 / inverse_scale
    spec = WORKLOADS[workload]
    sspec = scaled(IMAGENET_100G, scale)
    sizes = [s.size_bytes for s in build_shards(sspec).shards]
    job_sizes = None
    if spec.kind == "churn":
        job_spec = scaled(scaled(IMAGENET_100G, spec.job_dataset_frac), scale)
        one_job = [s.size_bytes for s in build_shards(job_spec).shards]
        job_sizes = [one_job] * spec.n_jobs
    trace = generate_trace(
        spec, sizes, scale, RngRegistry(seed),
        mean_record_bytes=max(1, int(round(sspec.size_model.mean_bytes))),
        job_sizes=job_sizes,
    )
    return hashlib.sha256(trace.to_jsonl().encode()).hexdigest()


def _trace_key(workload: str, inverse_scale: int, seed: int) -> str:
    return f"{workload}_1in{inverse_scale}_seed{seed}"


def _pins() -> dict[str, dict[str, str]]:
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        pins = {
            "layouts": {name: _layout_digest(spec) for name, spec in LAYOUT_SPECS.items()},
            "traces": {_trace_key(*cell): _trace_digest(*cell) for cell in TRACE_CELLS},
        }
        GOLDEN.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    if not GOLDEN.exists():
        pytest.fail(
            f"missing {GOLDEN.name}; generate it with "
            "REPRO_UPDATE_GOLDEN=1 python -m pytest tests/golden -q"
        )
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def pins() -> dict[str, dict[str, str]]:
    return _pins()


@pytest.mark.parametrize("name", sorted(LAYOUT_SPECS))
def test_layout_matches_pin(name, pins):
    assert _layout_digest(LAYOUT_SPECS[name]) == pins["layouts"][name]


@pytest.mark.parametrize("cell", TRACE_CELLS, ids=lambda c: _trace_key(*c))
def test_trace_matches_pin(cell, pins):
    assert _trace_digest(*cell) == pins["traces"][_trace_key(*cell)]


def test_every_pin_is_checked(pins):
    assert sorted(pins["layouts"]) == sorted(LAYOUT_SPECS)
    assert sorted(pins["traces"]) == sorted(_trace_key(*c) for c in TRACE_CELLS)
