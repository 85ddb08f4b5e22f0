"""Cluster-wide peer-to-peer cache tier over the nodes' local SSDs.

Plain ``monarch`` treats each node's SSD as a private cache: a local miss
goes straight to the shared PFS even when the very same file sits on a
neighbour's SSD (which, under per-epoch reshuffling, is the common case —
whoever trained on a shard last epoch still holds it).  The ``monarch-p2p``
setup joins the node-local tiers into one cluster cache namespace:

* :class:`CacheDirectory` — which live node holds which file.  Updated
  from each node's placement handler (publish on copy completion,
  withdraw on eviction) and from node liveness transitions (a dead node's
  entries are dropped wholesale), so an entry always names a live node
  that actually holds the file.
* :class:`PeerCacheService` — the cluster-side logic: routes local misses
  to a peer's SSD over the shared :class:`~repro.distributed.network
  .ClusterFabric` (contending with gradient sync), detects peer death
  (the peer's own tier quarantine, or a failed remote fetch), drops the
  dead node's directory entries and re-replicates its *hot* files — ones
  other nodes actually fetched — onto surviving nodes from the PFS.
* :class:`PeerCacheReader` — the framework-side shim: a
  :class:`~repro.core.middleware.MonarchReader` whose reads consult the
  directory before falling back to the PFS.  It speaks the fused
  continuation protocol: clean peer fetches run as a two-stage
  continuation chain, everything else replays the service generator
  continuation-style (bit-identical to the legacy path).

A peer fetch deliberately does **not** trigger a local placement: the
bytes are already on fast storage somewhere in the cluster, and copying
them again would double-store every reshuffled shard.  Local placement
still happens exactly as before for files *no* node holds (the read goes
through ``Monarch.read`` and its normal placement path, which is what
populates the directory in the first place).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.metadata import FileState
from repro.core.middleware import MonarchReader, _MonarchToken
from repro.faults.injector import is_fault_wrapped
from repro.storage.base import IOFaultError
from repro.telemetry.events import NULL_RECORDER

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.middleware import Monarch
    from repro.distributed.network import ClusterFabric
    from repro.framework.io_layer import OpenFile

__all__ = ["CacheDirectory", "PeerCacheReader", "PeerCacheService", "PeerNodeStats"]


class CacheDirectory:
    """Which live node holds which file, cluster-wide.

    Invariants (property-tested):

    * every entry names a node that is currently live;
    * :meth:`drop_node` leaves no dangling entry for the dropped node;
    * :meth:`locate` is deterministic — the smallest eligible holder.
    """

    def __init__(self) -> None:
        #: file name -> set of live holder node indices
        self._holders: dict[str, set[int]] = {}
        #: node index -> names it holds (reverse index, for drop_node)
        self._held: dict[int, set[str]] = {}
        self._live: set[int] = set()

    def add_node(self, node: int) -> None:
        """Mark ``node`` live (idempotent)."""
        self._live.add(node)
        self._held.setdefault(node, set())

    def is_live(self, node: int) -> bool:
        """Whether ``node`` may appear in entries."""
        return node in self._live

    def live_nodes(self) -> list[int]:
        """Live node indices, ascending."""
        return sorted(self._live)

    def publish(self, name: str, node: int) -> bool:
        """Record that ``node`` holds ``name``; ignored for dead nodes."""
        if node not in self._live:
            return False
        self._holders.setdefault(name, set()).add(node)
        self._held[node].add(name)
        return True

    def withdraw(self, name: str, node: int) -> None:
        """Forget that ``node`` holds ``name`` (idempotent)."""
        holders = self._holders.get(name)
        if holders is not None:
            holders.discard(node)
            if not holders:
                del self._holders[name]
        held = self._held.get(node)
        if held is not None:
            held.discard(name)

    def drop_node(self, node: int) -> list[str]:
        """Mark ``node`` dead and purge its entries; returns what it held."""
        self._live.discard(node)
        names = sorted(self._held.pop(node, ()))
        for name in names:
            holders = self._holders.get(name)
            if holders is not None:
                holders.discard(node)
                if not holders:
                    del self._holders[name]
        return names

    def locate(self, name: str, exclude: int | None = None) -> int | None:
        """The smallest live holder of ``name`` other than ``exclude``."""
        holders = self._holders.get(name)
        if not holders:
            return None
        best: int | None = None
        for node in holders:
            if node == exclude:
                continue
            if best is None or node < best:
                best = node
        return best

    def holders(self, name: str) -> list[int]:
        """All live holders of ``name``, ascending."""
        return sorted(self._holders.get(name, ()))

    def files(self) -> list[str]:
        """Every file with at least one holder, sorted."""
        return sorted(self._holders)

    def __len__(self) -> int:
        """Number of (file, holder) entries."""
        return sum(len(h) for h in self._holders.values())


@dataclass
class PeerNodeStats:
    """One node's lifetime peer-cache accounting."""

    #: reads this node satisfied from a peer's SSD
    peer_hits: int = 0
    #: bytes this node fetched from peers
    peer_bytes: int = 0
    #: remote reads this node's SSD served to peers
    fetches_served: int = 0
    #: bytes this node's SSD served to peers
    bytes_served: int = 0
    #: files re-replicated *onto* this node after a peer death
    rereplications: int = 0


class PeerCacheService:
    """The cluster-side peer-cache logic shared by every node's reader."""

    def __init__(self, sim: Any, fabric: "ClusterFabric", recorder=None) -> None:
        self.sim = sim
        self.fabric = fabric
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.directory = CacheDirectory()
        self._monarchs: dict[int, "Monarch"] = {}
        self.stats: dict[int, PeerNodeStats] = {}
        self._down: set[int] = set()
        #: names ever served over the fabric — the re-replication set
        self._hot: set[str] = set()
        #: sim time each node was first declared dead
        self.node_down_s: dict[int, float] = {}
        #: sim time of the last successful fetch served *by* each node
        self.last_fetch_s_by_source: dict[int, float] = {}
        #: remote fetches that hit a faulted peer tier
        self.fetch_faults = 0
        # Deterministic re-replication spreading: rotate the target scan
        # start over live nodes so one survivor doesn't absorb everything.
        self._rr_counter = 0

    # -- wiring ------------------------------------------------------------
    def register(self, node: int, monarch: "Monarch") -> None:
        """Join one node's MONARCH instance to the cluster cache.

        Installs a residency listener on its placement handler (directory
        publish/withdraw) and chains liveness transitions onto its health
        tracker's quarantine/re-admission hooks — the middleware's own
        ``on_readmit`` (deferred-placement retry) keeps running first.
        """
        if node in self._monarchs:
            raise ValueError(f"node {node} already registered")
        self._monarchs[node] = monarch
        self.stats[node] = PeerNodeStats()
        self.directory.add_node(node)

        def residency(name: str, level: int, resident: bool, _n: int = node) -> None:
            self._on_residency(_n, name, resident)

        monarch.placement.residency_listener = residency
        health = monarch.health

        def quarantined(level: int, _n: int = node) -> None:
            if level != health.pfs_level:
                self.node_down(_n)

        health.on_quarantine = quarantined
        prev_readmit = health.on_readmit

        def readmitted(level: int, _n: int = node) -> None:
            if prev_readmit is not None:
                prev_readmit(level)
            self.node_up(_n)

        health.on_readmit = readmitted

    def _on_residency(self, node: int, name: str, resident: bool) -> None:
        if resident:
            if node not in self._down:
                self.directory.publish(name, node)
        else:
            self.directory.withdraw(name, node)

    # -- liveness ----------------------------------------------------------
    def node_down(self, node: int) -> None:
        """Declare ``node``'s SSD unreachable; purge and re-replicate.

        Idempotent.  Every directory entry pointing at the node is
        dropped immediately (no further peer fetch will target it), and
        the *hot* files it held — ones peers actually fetched — are
        re-staged onto surviving nodes from the PFS, as background
        speculative copies that drain behind demand traffic.
        """
        if node in self._down or node not in self._monarchs:
            return
        self._down.add(node)
        self.node_down_s.setdefault(node, self.sim.now)
        dropped = self.directory.drop_node(node)
        if self.recorder.enabled:
            self.recorder.emit("peer.node_down", f"n{node}", entries=len(dropped))
        self._rereplicate(dropped)

    def node_up(self, node: int) -> None:
        """A dead node's tier was re-admitted: restore its directory entries.

        The SSD's contents survived the outage (the fault model fails
        operations, not media), so everything still CACHED there is
        published again.
        """
        if node not in self._down:
            return
        self._down.discard(node)
        self.directory.add_node(node)
        monarch = self._monarchs[node]
        restored = 0
        for level, _driver in monarch.hierarchy.upper_levels():
            for info in monarch.placement.cached_on_level(level):
                self.directory.publish(info.name, node)
                restored += 1
        if self.recorder.enabled:
            self.recorder.emit("peer.node_up", f"n{node}", entries=restored)

    def _rereplicate(self, names: list[str]) -> None:
        """Re-stage a dead node's hot files onto surviving nodes."""
        live = [n for n in sorted(self._monarchs) if n not in self._down]
        if not live:
            return
        for name in names:
            if name not in self._hot:
                continue
            if self.directory.locate(name) is not None:
                continue  # a surviving replica exists; nothing to do
            for k in range(len(live)):
                target = live[(self._rr_counter + k) % len(live)]
                monarch = self._monarchs[target]
                info = monarch.metadata.get(name)
                if info is None or info.state is not FileState.PFS_ONLY:
                    continue
                if monarch.placement.place(
                    info, have_content=False, mark_on_fail=False, speculative=True
                ):
                    self.stats[target].rereplications += 1
                    self._rr_counter += 1
                    if self.recorder.enabled:
                        self.recorder.emit(
                            "peer.rereplicate", name, target=target
                        )
                    break

    # -- the read path -----------------------------------------------------
    def read(self, node: int, name: str, offset: int, nbytes: int, job: str = ""):
        """Serve one read for ``node`` (generator; returns bytes read).

        Local fast-tier hits and mid-copy reads go straight through the
        node's own ``Monarch.read`` (preserving its placement, expedite
        and health machinery).  A read the node would otherwise send to
        the PFS first consults the directory; on a hit the bytes come off
        the peer's SSD and over the fabric instead.
        """
        monarch = self._monarchs[node]
        info = monarch.metadata.lookup(name)
        if info.state in (FileState.PFS_ONLY, FileState.UNPLACEABLE):
            src = self.directory.locate(name, exclude=node)
            if src is not None:
                n = yield from self._peer_fetch(node, src, name, offset, nbytes)
                if n is not None:
                    return n
        n = yield from monarch.read(name, offset, nbytes, job)
        return n

    def _peer_fetch(self, node: int, src: int, name: str, offset: int, nbytes: int):
        """Read off node ``src``'s SSD and ship the bytes to ``node``.

        Returns None on any failure — the caller falls back to the
        node's normal (PFS) read path.  A faulted peer tier is treated
        as a node death: the fault is recorded against the peer's own
        health tracker and its directory entries are dropped, so no
        later read retargets the dead node.
        """
        peer = self._monarchs[src]
        pinfo = peer.metadata.get(name)
        if pinfo is None or pinfo.state is not FileState.CACHED:
            self.directory.withdraw(name, src)
            return None
        level = pinfo.level
        driver = peer.hierarchy[level]
        try:
            handle = yield from driver._handle_for(name)
            n = yield from driver.fs.pread(handle, offset, nbytes)
        except IOFaultError:
            self.fetch_faults += 1
            peer.health.record_fault(level)
            peer.stats.tier_faults[level] += 1
            if self.recorder.enabled:
                self.recorder.emit("peer.fetch_failed", name, src=src, dst=node)
            self.node_down(src)
            return None
        yield from self.fabric.transfer(src, node, n)
        self._hot.add(name)
        dst_stats = self.stats[node]
        dst_stats.peer_hits += 1
        dst_stats.peer_bytes += n
        src_stats = self.stats[src]
        src_stats.fetches_served += 1
        src_stats.bytes_served += n
        self.last_fetch_s_by_source[src] = self.sim.now
        if self.recorder.enabled:
            self.recorder.emit("peer.fetch", name, src=src, dst=node, nbytes=n)
        return n

    # -- aggregate views ---------------------------------------------------
    @property
    def total_peer_hits(self) -> int:
        """Reads served from a peer, cluster-wide."""
        return sum(s.peer_hits for s in self.stats.values())

    @property
    def total_peer_bytes(self) -> int:
        """Bytes moved over the fabric for peer reads, cluster-wide."""
        return sum(s.peer_bytes for s in self.stats.values())

    def peer_hits_of(self, node: int) -> int:
        """Reads ``node`` satisfied from peers."""
        stats = self.stats.get(node)
        return stats.peer_hits if stats is not None else 0

    def is_down(self, node: int) -> bool:
        """Whether ``node`` is currently declared dead."""
        return node in self._down


class _PeerFetchFlight:
    """Pooled continuation chain for one fused peer fetch.

    Stage one (``__call__``) fires when the peer's SSD read completes and
    issues the fabric transfer in that same dispatch slot — where the
    legacy ``_peer_fetch`` generator resumes into ``fabric.transfer``.
    Stage two (``_transferred``) fires when both links release and
    carries the generator's post-transfer bookkeeping (hot-set, per-node
    stats, fetch timestamps, the recorder event) before chaining to the
    pipeline's callback.
    """

    __slots__ = ("reader", "name", "src", "n", "cb")

    def __call__(self, ev: Any) -> None:
        reader = self.reader
        svc = reader.service
        svc.fabric.transfer_begin(self.src, reader.node, self.n, self._transferred)

    def _transferred(self, ev: Any) -> None:
        reader = self.reader
        svc = reader.service
        name = self.name
        src = self.src
        n = self.n
        svc._hot.add(name)
        dst_stats = svc.stats[reader.node]
        dst_stats.peer_hits += 1
        dst_stats.peer_bytes += n
        src_stats = svc.stats[src]
        src_stats.fetches_served += 1
        src_stats.bytes_served += n
        svc.last_fetch_s_by_source[src] = svc.sim.now
        if svc.recorder.enabled:
            svc.recorder.emit("peer.fetch", name, src=src, dst=reader.node, nbytes=n)
        cb = self.cb
        self.cb = None
        reader._fetch_pool.append(self)
        cb(ev)


#: states whose reads consult the peer directory before the PFS
_PFS_STATES = (FileState.PFS_ONLY, FileState.UNPLACEABLE)


class PeerCacheReader(MonarchReader):
    """MonarchReader whose PFS-bound reads first try the peer directory.

    Speaks the fused continuation protocol like its base class, with one
    more inlined shape: a clean peer-directory hit — remote SSD read plus
    fabric transfer — runs as a two-stage continuation chain
    (:class:`_PeerFetchFlight`) instead of the ``PeerCacheService.read``
    generator.  Local fast-tier hits inline through the base class; any
    read that can't be inlined (peer handle not yet open, stale directory
    entry, fault-wrapped backend, local miss) replays the unmodified
    service generator continuation-style, so the fused and generator
    modes stay bit-identical.
    """

    def __init__(self, service: PeerCacheService, node: int, monarch: "Monarch",
                 job: str = "") -> None:
        super().__init__(monarch, job)
        self.service = service
        self.node = node
        self._fetch_pool: list[_PeerFetchFlight] = []

    def pread(self, f: "OpenFile", offset: int, nbytes: int):
        n = yield from self.service.read(self.node, f.path, offset, nbytes, self.job)
        return n

    def pread_begin(self, f: "OpenFile", offset: int, nbytes: int, cb: Any) -> int:
        """Fused pread with the peer-fetch fast path.

        The pre-checks mirror the conditions under which the legacy
        ``service.read`` / ``_peer_fetch`` pair runs its clean two-yield
        shape (peer SSD read, then fabric transfer) — and they are pure:
        a miss falls through to the trampolined generator, which redoes
        the directory lookup and performs any side effects (stale-entry
        withdrawal, fault handling) itself, exactly as the legacy path
        would have.
        """
        svc = self.service
        tok: _MonarchToken = f.token
        info = tok.info
        state = info.state
        if state is FileState.CACHED:
            # Locally resident: the directory is never consulted; the
            # base class inlines the healthy fast-tier hit.
            return super().pread_begin(f, offset, nbytes, cb)
        if state in _PFS_STATES:
            src = svc.directory.locate(info.name, exclude=self.node)
            if src is not None:
                peer = svc._monarchs[src]
                pinfo = peer.metadata.get(info.name)
                if pinfo is not None and pinfo.state is FileState.CACHED:
                    driver = peer.hierarchy[pinfo.level]
                    if not is_fault_wrapped(driver.fs):
                        handle = driver._handles.get(tok.key)
                        if handle is not None:
                            pool = self._fetch_pool
                            flight = pool.pop() if pool else _PeerFetchFlight()
                            flight.reader = self
                            flight.name = info.name
                            flight.src = src
                            flight.cb = cb
                            n = driver.fs.pread_begin(handle, offset, nbytes, flight)
                            flight.n = n
                            return n
        return self._legacy_begin(
            svc.read(self.node, info.name, offset, nbytes, self.job),
            info,
            offset,
            nbytes,
            cb,
        )
