"""Lustre-like parallel file system model.

Three properties of the real system drive the paper's results, and this
model reproduces each:

1. **Shared, contended bandwidth.** The client's aggregate PFS bandwidth is
   capped and further scaled by a stochastic
   :class:`~repro.storage.interference.InterferenceModel` — this produces
   both the lower throughput and the run-to-run variability of
   *vanilla-lustre*.
2. **Striped data path.** Files are striped over ``n_osts`` object storage
   targets in ``stripe_size`` chunks; each OST is a FIFO queue, so many
   concurrent small random reads interleave worse than a few sequential
   full-file streams.  This asymmetry is exactly what makes MONARCH's
   full-file background fetch profitable during epoch 1.
3. **Expensive metadata.** Every ``open``/``stat``/``listdir`` pays an MDS
   round trip, so traversing a 3-million-image namespace costs tens of
   seconds (the paper's 13 s / 52 s metadata-initialization phases).

The PFS is read-mostly in our experiments (it is MONARCH's read-only last
tier) but writes are implemented for completeness.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.simkernel.core import Event, Simulator
from repro.simkernel.resources import Resource, parallel_using
from repro.storage.base import (
    FileHandle,
    FileMeta,
    FileNotFoundInFS,
    FileSystem,
    norm_path,
)
from repro.storage.blockmath import (
    MIB,
    JitterStream,
    mib_per_s,
    split_into_chunks,
)
from repro.storage.interference import ConstantInterference, InterferenceModel
from repro.storage.stats import BackendStats

__all__ = ["PFSConfig", "ParallelFileSystem"]


@dataclass
class PFSConfig:
    """Tunables for the Lustre stand-in (calibrated in experiments/calibration.py)."""

    #: number of object storage targets the client stripes over
    n_osts: int = 8
    #: stripe size in bytes (Lustre default is 1 MiB)
    stripe_size: int = 1 * MIB
    #: nominal per-client aggregate read bandwidth, MiB/s (before interference)
    client_read_bw_mib: float = 560.0
    #: nominal per-client aggregate write bandwidth, MiB/s
    client_write_bw_mib: float = 380.0
    #: per-request network + server latency, seconds
    rpc_latency_s: float = 450e-6
    #: MDS service time for one metadata op, seconds.  Calibrated against
    #: the paper's metadata-initialization phase: ~13 s to traverse the
    #: 784-shard 100 GiB dataset ⇒ ~16 ms effective per file under load.
    mds_latency_s: float = 13.6e-3
    #: concurrent RPCs the MDS serves for this client
    mds_channels: int = 4
    #: concurrent RPCs each OST serves for this client (per-OST bandwidth is
    #: client_bw / n_osts per channel, so keep this at 1 unless you mean to
    #: raise the aggregate)
    ost_channels: int = 1
    #: multiplicative lognormal jitter applied per request
    jitter_sigma: float = 0.06
    #: bandwidth discount for sub-stripe random reads (RPC amortization
    #: loss); combined with OST queue imbalance this lands the client at
    #: ~255 MiB/s effective on scattered 256 KiB reads (the paper's
    #: derived vanilla-lustre throughput)
    random_read_penalty: float = 0.75

    def __post_init__(self) -> None:
        if self.n_osts < 1:
            raise ValueError("n_osts must be >= 1")
        if self.stripe_size <= 0:
            raise ValueError("stripe_size must be positive")
        if not 0 < self.random_read_penalty <= 1:
            raise ValueError("random_read_penalty must be in (0, 1]")


@dataclass
class _PFSEntry:
    meta: FileMeta
    stripe_offset: int = 0  # first OST index for round-robin layout
    extra: dict[str, Any] = field(default_factory=dict)


class ParallelFileSystem(FileSystem):
    """Shared PFS: MDS + striped OSTs + cross-job interference."""

    def __init__(
        self,
        sim: Simulator,
        config: PFSConfig | None = None,
        interference: InterferenceModel | None = None,
        rng: np.random.Generator | None = None,
        name: str = "pfs",
    ) -> None:
        self.sim = sim
        self.config = config or PFSConfig()
        self.interference = interference or ConstantInterference(1.0)
        self.rng = rng
        self.name = name
        self._entries: dict[str, _PFSEntry] = {}
        self._used = 0
        self._next_stripe = 0
        self.stats = BackendStats(name=name)
        # All draws on the shared self.rng stream go through this block
        # buffer (see JitterStream) — bit-identical to scalar draws.
        self._jitter = (
            JitterStream(rng, self.config.jitter_sigma)
            if rng is not None and self.config.jitter_sigma > 0
            else None
        )
        # Per-OST bandwidth before the interference share (base_time).
        cfg = self.config
        self._ost_bw_bps = mib_per_s(cfg.client_read_bw_mib) / cfg.n_osts
        self._ost_bw_bps_w = mib_per_s(cfg.client_write_bw_mib) / cfg.n_osts
        self._mds = Resource(sim, capacity=self.config.mds_channels, name=f"{name}:mds")
        self._osts = [
            Resource(sim, capacity=self.config.ost_channels, name=f"{name}:ost{i}")
            for i in range(self.config.n_osts)
        ]

    # -- dataset population (untimed; jobs find the dataset in place) ----
    def add_file(self, path: str, size: int) -> FileMeta:
        """Materialize a pre-existing file (dataset staging is out of scope)."""
        p = norm_path(path)
        if p in self._entries:
            raise ValueError(f"{self.name}: {path} already exists")
        if size < 0:
            raise ValueError("negative size")
        meta = FileMeta(path=p, size=int(size))
        self._entries[p] = _PFSEntry(meta=meta, stripe_offset=self._next_stripe)
        self._next_stripe = (self._next_stripe + 1) % self.config.n_osts
        self._used += int(size)
        return meta

    # -- oracle view ------------------------------------------------------
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
    def capacity_bytes(self) -> None:
        return None  # effectively unbounded for a single job

    # -- internals ----------------------------------------------------------
    def base_time(self, nbytes: int, write: bool, sequential: bool) -> float:
        """Jitter-free service time for one piece on one OST, starting now.

        Each OST serves at ``client_bw / n_osts``, so the client reaches
        its aggregate bandwidth only by keeping all OSTs busy — which is
        exactly what striped sequential fetches do and scattered random
        chunk reads do imperfectly (on top of the explicit random
        penalty modelling lost readahead / RPC amortization).
        """
        cfg = self.config
        bw_bps = (self._ost_bw_bps_w if write else self._ost_bw_bps) * (
            self.interference.share_at(self.sim._now)
        )
        if not write and not sequential:
            bw_bps *= cfg.random_read_penalty
        return cfg.rpc_latency_s + nbytes / bw_bps

    def _data_time(self, nbytes: int, write: bool, sequential: bool) -> float:
        """Jittered service time for one piece, drawing from the shared stream."""
        t = self.base_time(nbytes, write, sequential)
        js = self._jitter
        if js is not None:
            t *= js.factor()
        return t

    def _ost_for(self, entry: _PFSEntry, offset: int) -> Resource:
        idx = (entry.stripe_offset + offset // self.config.stripe_size) % self.config.n_osts
        return self._osts[idx]

    def ost_for(self, path: str, offset: int) -> Resource:
        """The OST channel serving ``path`` at ``offset``."""
        entry = self._entries.get(norm_path(path))
        if entry is None:
            raise FileNotFoundInFS(f"{self.name}: {path}")
        return self._ost_for(entry, offset)

    def _mds_hold(self, cb: Any = None) -> Event:
        """One metadata round trip on the MDS, starting now."""
        js = self._jitter
        t = self.config.mds_latency_s * (js.factor() if js is not None else 1.0)
        # Interference also slows metadata service.
        share = self.interference.share_at(self.sim._now)
        return self._mds.hold(t / max(share, 1e-3), cb)

    # -- timed operations -----------------------------------------------------
    # The read ops each have one issue function (``_issue_*``) that
    # validates, counts, draws and returns the event the op completes on.
    # The generator form yields that event; the continuation form
    # (``*_begin``, for fused readers) hands ``cb`` to it, so both forms
    # take the same dispatch slots by construction.

    def open(self, path: str, flags: str = "r") -> Generator[Any, Any, FileHandle]:
        if flags == "r":
            handle, ev = self._issue_open(path)
            yield ev
            return handle
        p = norm_path(path)
        self.stats.record_open()
        yield self._mds_hold()
        entry = self._entries.get(p)
        if entry is None:
            entry = _PFSEntry(meta=FileMeta(path=p, size=0), stripe_offset=self._next_stripe)
            self._next_stripe = (self._next_stripe + 1) % self.config.n_osts
            self._entries[p] = entry
        elif flags == "w":
            self._used -= entry.meta.size
            entry.meta.size = 0
        return FileHandle(fs=self, meta=entry.meta, flags=flags)

    def open_begin(self, path: str, cb: Any) -> FileHandle:
        """Continuation-style read-only :meth:`open` for fused readers.

        Returns the handle synchronously and schedules ``cb(event)`` once
        the MDS round trip completes.
        """
        return self._issue_open(path, cb)[0]

    def _issue_open(self, path: str, cb: Any = None) -> tuple[FileHandle, Event]:
        """Read-only open: the handle, and the MDS round trip completing it.

        The namespace is resolved eagerly: PFS entries are immutable
        during a run.
        """
        entry = self._entries.get(norm_path(path))
        if entry is None:
            raise FileNotFoundInFS(f"{self.name}: {path}")
        self.stats.record_open()
        return FileHandle(fs=self, meta=entry.meta, flags="r"), self._mds_hold(cb)

    def pread(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        sequential: bool = False,
    ) -> Generator[Any, Any, int]:
        """Read; ``sequential`` marks streaming access (full-file fetches).

        Streaming reads skip the random-read bandwidth penalty — the model
        hook behind MONARCH's observation that background full-file copies
        extract more from Lustre than the framework's scattered part reads.
        """
        take, ev = self._issue_pread(handle, offset, nbytes, sequential)
        yield ev
        return take

    def pread_begin(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        cb: Any,
        sequential: bool = False,
    ) -> int:
        """Continuation-style :meth:`pread` for fused readers: returns the
        transfer size synchronously and schedules ``cb(event)`` at the
        completion instant."""
        return self._issue_pread(handle, offset, nbytes, sequential, cb)[0]

    def _issue_pread(
        self,
        handle: FileHandle,
        offset: int,
        nbytes: int,
        sequential: bool,
        cb: Any = None,
    ) -> tuple[int, Event]:
        """One read: the transfer size, and the event completing it.

        The read splits on stripe boundaries; pieces on distinct OSTs are
        serviced concurrently and the slowest one gates completion.
        """
        if offset < 0 or nbytes < 0:
            raise ValueError("negative offset or length")
        entry = self._entries.get(handle.meta.path)
        if entry is None:
            raise FileNotFoundInFS(f"{self.name}: {handle.meta.path}")
        take = max(0, min(nbytes, handle.meta.size - offset))
        # Through the method, not inlined increments: IOTrace instruments
        # backends by wrapping record_read.
        self.stats.record_read(take)
        if take == 0:
            return 0, self._mds_hold(cb)
        cfg = self.config
        stripe = cfg.stripe_size
        if offset // stripe == (offset + take - 1) // stripe:
            # One piece: the per-chunk shape of every pipeline read.
            t = self._data_time(take, False, sequential)
            idx = (entry.stripe_offset + offset // stripe) % cfg.n_osts
            return take, self._osts[idx].hold(t, cb)
        ev = parallel_using(
            self.sim,
            [
                (self._ost_for(entry, off), self._data_time(ln, False, sequential))
                for off, ln in split_into_chunks(offset, take, stripe)
            ],
        )
        if cb is not None:
            ev.add_callback(cb)
        return take, ev

    def pwrite(self, handle: FileHandle, offset: int, nbytes: int) -> Generator[Any, Any, int]:
        if offset < 0 or nbytes < 0:
            raise ValueError("negative offset or length")
        if handle.flags == "r":
            raise PermissionError(f"{self.name}: handle opened read-only")
        entry = self._entries.get(handle.meta.path)
        if entry is None:
            raise FileNotFoundInFS(f"{self.name}: {handle.meta.path}")
        self.stats.record_write(nbytes)
        if nbytes > 0:
            yield self._ost_for(entry, offset).hold(self._data_time(nbytes, True, True))
        else:
            yield self._mds_hold()
        new_end = offset + nbytes
        growth = max(0, new_end - handle.meta.size)
        handle.meta.size = max(handle.meta.size, new_end)
        self._used += growth
        return nbytes

    def stat(self, path: str) -> Generator[Any, Any, FileMeta]:
        p = norm_path(path)
        self.stats.record_stat()
        yield self._mds_hold()
        entry = self._entries.get(p)
        if entry is None:
            raise FileNotFoundInFS(f"{self.name}: {path}")
        return entry.meta

    def listdir(self, path: str) -> Generator[Any, Any, list[str]]:
        prefix = norm_path(path)
        if not prefix.endswith("/"):
            prefix += "/"
        self.stats.record_listdir()
        yield self._mds_hold()
        return sorted(p for p in self._entries if p.startswith(prefix))

    def unlink(self, path: str) -> None:
        p = norm_path(path)
        entry = self._entries.pop(p, None)
        if entry is None:
            raise FileNotFoundInFS(f"{self.name}: {path}")
        self._used -= entry.meta.size
