"""Per-backend I/O accounting.

The paper's second evaluation question is "can MONARCH reduce the I/O
pressure on the PFS backend?", answered in operation counts (e.g. ~360,000
of 798,340 ops/epoch still reach Lustre with the 200 GiB dataset, a 55 %
average reduction).  :class:`BackendStats` counts exactly those quantities,
split into data operations (reads/writes) and metadata operations (opens,
stats, listdirs), with epoch snapshots so per-epoch deltas can be reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["BackendStats", "StatsSnapshot"]


@dataclass(frozen=True)
class StatsSnapshot:
    """Immutable copy of the counters at one instant."""

    read_ops: int = 0
    write_ops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    open_ops: int = 0
    stat_ops: int = 0
    listdir_ops: int = 0

    @property
    def data_ops(self) -> int:
        """Total data-path operations."""
        return self.read_ops + self.write_ops

    @property
    def metadata_ops(self) -> int:
        """Total metadata-path operations."""
        return self.open_ops + self.stat_ops + self.listdir_ops

    @property
    def total_ops(self) -> int:
        """All operations, data and metadata."""
        return self.data_ops + self.metadata_ops

    def delta(self, earlier: "StatsSnapshot") -> "StatsSnapshot":
        """Counter difference ``self - earlier``."""
        return StatsSnapshot(
            read_ops=self.read_ops - earlier.read_ops,
            write_ops=self.write_ops - earlier.write_ops,
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            open_ops=self.open_ops - earlier.open_ops,
            stat_ops=self.stat_ops - earlier.stat_ops,
            listdir_ops=self.listdir_ops - earlier.listdir_ops,
        )


@dataclass
class BackendStats:
    """Mutable counters owned by one storage backend."""

    name: str = ""
    read_ops: int = 0
    write_ops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    open_ops: int = 0
    stat_ops: int = 0
    listdir_ops: int = 0
    epochs: list[StatsSnapshot] = field(default_factory=list)

    def record_read(self, nbytes: int) -> None:
        """Account one read operation of ``nbytes``."""
        self.read_ops += 1
        self.bytes_read += int(nbytes)

    def record_write(self, nbytes: int) -> None:
        """Account one write operation of ``nbytes``."""
        self.write_ops += 1
        self.bytes_written += int(nbytes)

    def record_reads(self, ops: int, nbytes: int) -> None:
        """Account ``ops`` reads totalling ``nbytes`` (one whole-file copy)."""
        self.read_ops += ops
        self.bytes_read += int(nbytes)

    def record_writes(self, ops: int, nbytes: int) -> None:
        """Account ``ops`` writes totalling ``nbytes`` (one whole-file copy)."""
        self.write_ops += ops
        self.bytes_written += int(nbytes)

    def record_open(self) -> None:
        """Account one open()."""
        self.open_ops += 1

    def record_stat(self) -> None:
        """Account one stat()."""
        self.stat_ops += 1

    def record_listdir(self, entries: int = 0) -> None:
        """Account one directory listing."""
        self.listdir_ops += 1

    def snapshot(self) -> StatsSnapshot:
        """Immutable copy of the current counters."""
        return StatsSnapshot(
            read_ops=self.read_ops,
            write_ops=self.write_ops,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            open_ops=self.open_ops,
            stat_ops=self.stat_ops,
            listdir_ops=self.listdir_ops,
        )

    def mark_epoch(self) -> StatsSnapshot:
        """Record an epoch boundary; returns the delta since the last one."""
        snap = self.snapshot()
        base = self.epochs[-1] if self.epochs else StatsSnapshot()
        self.epochs.append(snap)
        return snap.delta(base)

    def epoch_deltas(self) -> list[StatsSnapshot]:
        """Per-epoch counter deltas for all marked epochs."""
        out: list[StatsSnapshot] = []
        prev = StatsSnapshot()
        for snap in self.epochs:
            out.append(snap.delta(prev))
            prev = snap
        return out
