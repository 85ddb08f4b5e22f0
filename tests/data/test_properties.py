"""Property-based tests for the data substrate."""

from __future__ import annotations

import pytest

import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.crc import crc32c, mask_crc, unmask_crc
from repro.data.dataset import DatasetSpec, SampleSizeModel
from repro.data.records import RecordReader, RecordWriter, record_frame_size
from repro.data.sharding import build_shards


pytestmark = pytest.mark.hypothesis_heavy

@given(payloads=st.lists(st.binary(max_size=4096), max_size=30))
@settings(max_examples=60, deadline=None)
def test_record_codec_roundtrip(payloads):
    """write-then-read returns exactly the payloads, in order."""
    buf = io.BytesIO()
    w = RecordWriter(buf)
    total = 0
    for p in payloads:
        total += w.write(p)
    assert len(buf.getvalue()) == total
    buf.seek(0)
    assert list(RecordReader(buf)) == payloads


@given(value=st.integers(min_value=0, max_value=0xFFFFFFFF))
def test_crc_mask_is_a_bijection(value):
    assert unmask_crc(mask_crc(value)) == value
    assert mask_crc(unmask_crc(value)) == value


@given(data=st.binary(max_size=2048), split=st.integers(min_value=0, max_value=2048))
@settings(max_examples=60)
def test_crc_incremental_composition(data, split):
    split = min(split, len(data))
    assert crc32c(data[split:], crc32c(data[:split])) == crc32c(data)


def _greedy_reference(spec: DatasetSpec) -> list[tuple[str, list[tuple[int, int, int, int]]]]:
    """The per-record packing loop ``build_shards`` replaced: the oracle.

    Returns ``(filename, [(sample_id, offset, frame_len, payload_len)])``
    per shard.
    """
    shards: list[list[tuple[int, int, int, int]]] = []
    current: list[tuple[int, int, int, int]] = []
    offset = 0
    for sample_id, payload_len in enumerate(spec.sample_sizes()):
        frame = record_frame_size(int(payload_len))
        if current and offset + frame > spec.shard_target_bytes:
            shards.append(current)
            current = []
            offset = 0
        current.append((sample_id, offset, frame, int(payload_len)))
        offset += frame
    if current:
        shards.append(current)
    total = len(shards)
    width = max(5, len(str(total)))
    names = [f"train-{i:0{width}d}-of-{total:0{width}d}.tfrecord" for i in range(total)]
    return list(zip(names, shards))


def _columnar(spec: DatasetSpec) -> list[tuple[str, list[tuple[int, int, int, int]]]]:
    out = []
    for shard in build_shards(spec).shards:
        recs = [(r.sample_id, r.offset, r.frame_len, r.payload_len) for r in shard.records]
        assert shard.size_bytes == (recs[-1][1] + recs[-1][2])
        out.append((shard.filename, recs))
    return out


@given(
    n_samples=st.integers(min_value=1, max_value=500),
    mean=st.integers(min_value=1, max_value=50_000),
    sigma=st.floats(min_value=0.0, max_value=1.5),
    min_bytes=st.integers(min_value=1, max_value=4096),
    shard_target=st.integers(min_value=1, max_value=1 << 20),
)
# a single record, under and over the target
@example(n_samples=1, mean=4096, sigma=0.0, min_bytes=1, shard_target=1 << 20)
@example(n_samples=1, mean=4096, sigma=0.0, min_bytes=1, shard_target=100)
# every record larger than the target: one record per shard
@example(n_samples=50, mean=8000, sigma=0.5, min_bytes=4000, shard_target=1000)
# equal records against a whole-frame target: offset + frame == target
# closes every shard, and that last record stays in it
@example(n_samples=100, mean=4096, sigma=0.0, min_bytes=1, shard_target=7 * 4112)
@settings(max_examples=60, deadline=None)
def test_shard_packing_invariants(n_samples, mean, sigma, min_bytes, shard_target):
    """Packing never loses/duplicates samples; shard sizes obey the target;
    the columnar build packs exactly as the per-record greedy loop did."""
    spec = DatasetSpec(
        name="prop",
        n_samples=n_samples,
        size_model=SampleSizeModel(mean_bytes=mean, sigma=sigma, min_bytes=min_bytes),
        shard_target_bytes=shard_target,
    )
    assert _columnar(spec) == _greedy_reference(spec)
    manifest = build_shards(spec)
    ids = [r.sample_id for s in manifest.shards for r in s.records]
    assert sorted(ids) == list(range(n_samples))
    sizes = spec.sample_sizes()
    for shard in manifest.shards:
        assert shard.n_records >= 1
        pos = 0
        for rec in shard.records:
            assert rec.offset == pos
            assert rec.payload_len == int(sizes[rec.sample_id])
            assert rec.frame_len == record_frame_size(rec.payload_len)
            pos += rec.frame_len
        # a shard only exceeds the target when a single record does
        assert shard.size_bytes <= shard_target or shard.n_records == 1
    assert manifest.total_bytes == sum(record_frame_size(int(x)) for x in sizes)
