"""Pack samples into record shards; shard manifests.

The packing mirrors how ImageNet is converted to TFRecords: samples are
appended to the current shard until it would exceed the target shard size,
then a new shard starts.  Offsets use the real framing arithmetic from
:mod:`repro.data.records`, so a manifest could be replayed byte-for-byte by
the real codec.

A shard stores its records as columns — payload lengths and frame-end
offsets, int64 arrays — not as one object per record: the training-scale
presets hold up to millions of records, and nothing downstream needs a
record as an object before it enters the input pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import DatasetSpec
from repro.data.records import RECORD_OVERHEAD

__all__ = ["RecordEntry", "ShardLayout", "ShardManifest", "build_shards"]


@dataclass(frozen=True)
class RecordEntry:
    """One sample's frame inside a shard (see :attr:`ShardLayout.records`)."""

    sample_id: int
    offset: int
    frame_len: int
    payload_len: int


@dataclass
class ShardLayout:
    """One record shard: filename plus its records, as columns.

    Records are in offset order and hold consecutive sample ids from
    ``first_id``; record ``k``'s frame is ``payload[k] + RECORD_OVERHEAD``
    bytes and ends at ``ends[k]``.
    """

    filename: str
    #: payload bytes per record (int64)
    payload: np.ndarray = field(repr=False)
    #: offset just past each record's frame (int64, increasing)
    ends: np.ndarray = field(repr=False)
    #: sample id of the shard's first record
    first_id: int = 0
    #: total on-disk size of the shard (the last frame's end)
    size_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.size_bytes = int(self.ends[-1]) if len(self.ends) else 0

    @property
    def n_records(self) -> int:
        """Number of records packed into the shard."""
        return len(self.payload)

    @property
    def records(self) -> list[RecordEntry]:
        """One :class:`RecordEntry` per record, built on demand.

        A view for the codec and inspection; the build and the input
        pipeline read the columns.
        """
        return [
            RecordEntry(
                sample_id=self.first_id + k,
                offset=end - payload - RECORD_OVERHEAD,
                frame_len=payload + RECORD_OVERHEAD,
                payload_len=payload,
            )
            for k, (end, payload) in enumerate(zip(self.ends.tolist(), self.payload.tolist()))
        ]


@dataclass
class ShardManifest:
    """Full dataset layout: every shard of a :class:`DatasetSpec`."""

    spec: DatasetSpec
    shards: list[ShardLayout] = field(default_factory=list)

    @property
    def total_bytes(self) -> int:
        """Total on-disk bytes across shards (framing included)."""
        return sum(s.size_bytes for s in self.shards)

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @property
    def n_samples(self) -> int:
        """Number of samples across all shards."""
        return sum(s.n_records for s in self.shards)

    def shard_sizes(self) -> np.ndarray:
        """Array of shard sizes in bytes."""
        return np.array([s.size_bytes for s in self.shards], dtype=np.int64)


def build_shards(spec: DatasetSpec, name_prefix: str = "train") -> ShardManifest:
    """Deterministically pack ``spec``'s samples into shards.

    Samples are packed in id order (the conversion pipeline's order — the
    *training-time* order is the framework's shuffle, not this one).  A
    shard takes every next record whose frame still ends within the
    target, and at least one, so a record larger than the target ships
    alone: with the frame offsets of the whole dataset as one running sum,
    each shard boundary is a single binary search.
    """
    payload = spec.sample_sizes()
    # offset of each record's frame in the dataset laid end to end, plus
    # the end of the last one
    starts = np.concatenate(([0], np.cumsum(payload + RECORD_OVERHEAD)))
    target = spec.shard_target_bytes
    bounds = [0]
    n = len(payload)
    while bounds[-1] < n:
        first = bounds[-1]
        # records first..stop-1 are those whose frames end by the target
        stop = int(np.searchsorted(starts, starts[first] + target, side="right")) - 1
        bounds.append(max(first + 1, stop))
    total = len(bounds) - 1
    width = max(5, len(str(total)))
    manifest = ShardManifest(spec=spec)
    for i, (first, stop) in enumerate(zip(bounds, bounds[1:])):
        manifest.shards.append(
            ShardLayout(
                filename=f"{name_prefix}-{i:0{width}d}-of-{total:0{width}d}.tfrecord",
                payload=payload[first:stop],
                ends=starts[first + 1 : stop + 1] - starts[first],
                first_id=first,
            )
        )
    return manifest
