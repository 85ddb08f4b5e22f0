"""Local file system on a block device (the paper's XFS-on-SSD tier).

Capacity accounting is byte-exact: a write that would exceed the partition
size raises :class:`NoSpaceError` without transferring anything, which is
what MONARCH's placement handler probes against (level occupancy / quota).

Metadata operations on a local FS are cheap but not free; they pay a small
fixed CPU-side latency rather than a device round trip, matching the large
observed gap between local and PFS metadata costs.
"""

from __future__ import annotations

import posixpath
from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Any

from repro.simkernel.core import Event, Simulator
from repro.storage.base import (
    FileHandle,
    FileMeta,
    FileNotFoundInFS,
    FileSystem,
    NoSpaceError,
    norm_path,
)
from repro.storage.device import Device
from repro.storage.pagecache import PageCache
from repro.storage.stats import BackendStats

__all__ = ["LocalFileSystem"]

#: CPU-side cost of a local metadata operation (dentry-cache hit scale).
_LOCAL_META_LATENCY_S = 4e-6


@dataclass
class _Entry:
    meta: FileMeta
    created_at: float = 0.0
    last_access: float = 0.0
    extra: dict[str, Any] = field(default_factory=dict)


class LocalFileSystem(FileSystem):
    """A single-device local file system with strict capacity accounting."""

    def __init__(
        self,
        sim: Simulator,
        device: Device,
        capacity_bytes: int,
        name: str = "local",
        page_cache: PageCache | None = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        self.sim = sim
        self.device = device
        self.name = name
        self._capacity = int(capacity_bytes)
        self._used = 0
        self._entries: dict[str, _Entry] = {}
        self.stats = BackendStats(name=name)
        self.page_cache = page_cache

    # -- dataset population (untimed; for setups that start with data local)
    def add_file(self, path: str, size: int) -> FileMeta:
        """Materialize a pre-existing file (e.g. a locally staged dataset)."""
        p = norm_path(path)
        if p in self._entries:
            raise ValueError(f"{self.name}: {path} already exists")
        if size < 0:
            raise ValueError("negative size")
        if size > self.free_bytes:
            raise NoSpaceError(
                f"{self.name}: cannot stage {size} bytes, only {self.free_bytes} free"
            )
        meta = FileMeta(path=p, size=int(size))
        self._entries[p] = _Entry(meta=meta, created_at=self.sim.now)
        self._used += int(size)
        return meta

    # -- oracle (untimed) view ------------------------------------------
    def exists(self, path: str) -> bool:
        return norm_path(path) in self._entries

    def file_size(self, path: str) -> int:
        entry = self._entries.get(norm_path(path))
        if entry is None:
            raise FileNotFoundInFS(f"{self.name}: {path}")
        return entry.meta.size

    def paths(self) -> list[str]:
        return sorted(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    # -- timed operations -------------------------------------------------
    # Each timed read op has one issue function (``_issue_*``) that
    # validates, counts, draws and returns the event the op completes on.
    # The generator form yields that event; the continuation form
    # (``*_begin``, for fused readers) hands ``cb`` to it.  Both forms
    # therefore do everything in the caller's dispatch slot and complete
    # in the same slot.

    def open(self, path: str, flags: str = "r") -> Generator[Any, Any, FileHandle]:
        if flags == "r":
            handle, ev = self._issue_open(path)
            yield ev
            return handle
        p = norm_path(path)
        self.stats.record_open()
        yield self.sim.timeout(_LOCAL_META_LATENCY_S)
        entry = self._entries.get(p)
        if entry is None:
            entry = _Entry(meta=FileMeta(path=p, size=0), created_at=self.sim.now)
            self._entries[p] = entry
        elif flags == "w":
            # truncate: reclaim the old bytes
            self._used -= entry.meta.size
            entry.meta.size = 0
        entry.last_access = self.sim.now
        return FileHandle(fs=self, meta=entry.meta, flags=flags)

    def open_begin(self, path: str, cb: Any) -> FileHandle:
        """Continuation-style read-only :meth:`open` for fused readers."""
        return self._issue_open(path, cb)[0]

    def _issue_open(self, path: str, cb: Any = None) -> tuple[FileHandle, Event]:
        """Read-only open: the handle, and the metadata op completing it
        (which stamps the entry's access time)."""
        entry = self._entries.get(norm_path(path))
        if entry is None:
            raise FileNotFoundInFS(f"{self.name}: {path}")
        self.stats.record_open()
        ev = self.sim.timeout(_LOCAL_META_LATENCY_S)

        def _touch(_ev: Any, entry: _Entry = entry, sim: Simulator = self.sim) -> None:
            entry.last_access = sim.now

        ev.add_callback(_touch)
        if cb is not None:
            ev.add_callback(cb)
        return FileHandle(fs=self, meta=entry.meta, flags="r"), ev

    def pread(self, handle: FileHandle, offset: int, nbytes: int) -> Generator[Any, Any, int]:
        take, ev = self._issue_pread(handle, offset, nbytes)
        yield ev
        return take

    def pread_begin(self, handle: FileHandle, offset: int, nbytes: int, cb: Any) -> int:
        """Continuation-style :meth:`pread`: returns the transfer size
        synchronously and schedules ``cb(event)`` at the completion
        instant."""
        return self._issue_pread(handle, offset, nbytes, cb)[0]

    def _issue_pread(
        self, handle: FileHandle, offset: int, nbytes: int, cb: Any = None
    ) -> tuple[int, Event]:
        """One read: the transfer size, and the event completing it.

        Served from the page cache when the file is resident, else by the
        device; a device read inserts the file into the page cache at its
        completion instant (concurrent lookups during the transfer still
        miss), before ``cb`` runs.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("negative offset or length")
        take = max(0, min(nbytes, handle.meta.size - offset))
        entry = self._entries.get(handle.meta.path)
        if entry is not None:
            entry.last_access = self.sim.now
        self.stats.record_read(take)
        cache = self.page_cache
        if take <= 0:
            ev = self.sim.timeout(_LOCAL_META_LATENCY_S)
        elif cache is not None and cache.lookup(handle.meta.path):
            ev = self.sim.timeout(cache.hit_time(take))
        else:
            ev = self.device.issue(take, False)
            if cache is not None:

                def _insert(_ev: Any, cache: PageCache = cache, handle: FileHandle = handle) -> None:
                    cache.insert(handle.meta.path, handle.meta.size)

                ev.add_callback(_insert)
        if cb is not None:
            ev.add_callback(cb)
        return take, ev

    def pwrite(self, handle: FileHandle, offset: int, nbytes: int) -> Generator[Any, Any, int]:
        if offset < 0 or nbytes < 0:
            raise ValueError("negative offset or length")
        if handle.flags == "r":
            raise PermissionError(f"{self.name}: handle opened read-only")
        new_end = offset + nbytes
        growth = max(0, new_end - handle.meta.size)
        if growth > self.free_bytes:
            raise NoSpaceError(
                f"{self.name}: need {growth} more bytes, only {self.free_bytes} free"
            )
        self.stats.record_write(nbytes)
        if nbytes > 0:
            yield from self.device.write(nbytes)
        else:
            yield self.sim.timeout(_LOCAL_META_LATENCY_S)
        # Account growth after the transfer, mirroring delayed allocation.
        handle.meta.size = max(handle.meta.size, new_end)
        self._used += growth
        if self.page_cache is not None:
            # Freshly written pages stay hot: immediate re-reads hit RAM.
            self.page_cache.insert(handle.meta.path, handle.meta.size)
        return nbytes

    def apply_bulk_write(
        self, handle: FileHandle, nbytes: int, ops: int, offset: int = 0
    ) -> None:
        """Bookkeeping for an externally-timed sequential write of ``ops`` chunks.

        The placement handler times a copy's chunks itself (interleaved
        with its PFS reads); this applies the side effects — growth,
        counters, page-cache residency — exactly once at completion.
        Untimed.
        """
        if handle.flags == "r":
            raise PermissionError(f"{self.name}: handle opened read-only")
        new_end = offset + nbytes
        growth = max(0, new_end - handle.meta.size)
        if growth > self.free_bytes:
            raise NoSpaceError(
                f"{self.name}: need {growth} more bytes, only {self.free_bytes} free"
            )
        self.stats.record_writes(ops, nbytes)
        handle.meta.size = max(handle.meta.size, new_end)
        self._used += growth
        entry = self._entries.get(handle.meta.path)
        if entry is not None:
            entry.last_access = self.sim.now
        if self.page_cache is not None:
            self.page_cache.insert(handle.meta.path, handle.meta.size)

    def stat(self, path: str) -> Generator[Any, Any, FileMeta]:
        p = norm_path(path)
        self.stats.record_stat()
        yield self.sim.timeout(_LOCAL_META_LATENCY_S)
        entry = self._entries.get(p)
        if entry is None:
            raise FileNotFoundInFS(f"{self.name}: {path}")
        return entry.meta

    def listdir(self, path: str) -> Generator[Any, Any, list[str]]:
        prefix = norm_path(path)
        if not prefix.endswith("/"):
            prefix += "/"
        self.stats.record_listdir()
        yield self.sim.timeout(_LOCAL_META_LATENCY_S)
        return sorted(p for p in self._entries if p.startswith(prefix))

    # -- untimed mutation -------------------------------------------------
    def unlink(self, path: str) -> None:
        p = norm_path(path)
        entry = self._entries.pop(p, None)
        if entry is None:
            raise FileNotFoundInFS(f"{self.name}: {path}")
        self._used -= entry.meta.size
        if self.page_cache is not None:
            self.page_cache.discard(p)

    def last_access_time(self, path: str) -> float:
        """Most recent read/open time (used by the LRU eviction ablation)."""
        entry = self._entries.get(norm_path(path))
        if entry is None:
            raise FileNotFoundInFS(f"{self.name}: {path}")
        return entry.last_access

    def created_time(self, path: str) -> float:
        """Creation time (used by the FIFO eviction ablation)."""
        entry = self._entries.get(norm_path(path))
        if entry is None:
            raise FileNotFoundInFS(f"{self.name}: {path}")
        return entry.created_at
