"""Synchronous distributed data-parallel trainer.

Every epoch: partition the shards across nodes per the placement policy,
start one input pipeline per node, then run lockstep global steps — each
step waits for one batch from *every* node, runs all nodes' GPUs in
parallel, and pays one ring all-reduce.  An epoch ends when the first node
exhausts its partition (the synchronous world's drop-remainder); the other
pipelines are aborted, as a real framework's iterator teardown would.

Per-node MONARCH initialization (namespace traversal) happens once, in
parallel across nodes, before epoch 1.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.distributed.cluster import Cluster
from repro.distributed.network import GRAD_BYTES, AllReduceModel
from repro.distributed.partition import PartitionPolicy, partition_shards
from repro.framework.models import ModelProfile
from repro.framework.pipeline import EpochPipeline, PipelineConfig
from repro.storage.stats import StatsSnapshot

__all__ = ["DistributedResult", "DistributedTrainer", "EpochStats"]


@dataclass(frozen=True)
class EpochStats:
    """One distributed epoch's measurements."""

    index: int
    wall_time_s: float
    global_steps: int
    records: int
    pfs_ops: StatsSnapshot
    #: pooled cluster-wide fast-tier hit ratio — all nodes' fast-tier
    #: reads over all nodes' reads (monarch setups only).  Peer-cache
    #: hits count as fast-tier reads.
    tier_hit_ratio: float = 0.0
    #: per-node fast-tier hit ratio, indexed by node (0.0 for a node
    #: that served no reads this epoch)
    node_hit_ratios: tuple[float, ...] = ()
    #: unweighted mean of :attr:`node_hit_ratios` over nodes that
    #: actually served reads this epoch
    mean_node_hit_ratio: float = 0.0
    #: reads served off a peer node's SSD (monarch-p2p only)
    peer_hits: int = 0
    #: bytes fetched from peers over the fabric (monarch-p2p only)
    peer_bytes: int = 0


@dataclass
class DistributedResult:
    """Aggregate result of one distributed run."""

    n_nodes: int = 1
    policy: str = "static"
    epochs: list[EpochStats] = field(default_factory=list)
    init_time_s: float = 0.0
    #: why a pipeline's reads were trampolined, per reason -> pipe count
    #: across all nodes and epochs; empty when none was
    fusion_misses: dict[str, int] = field(default_factory=dict)

    @property
    def total_time_s(self) -> float:
        """Sum of epoch wall times."""
        return sum(e.wall_time_s for e in self.epochs)

    @property
    def epoch_times(self) -> list[float]:
        """Per-epoch wall times."""
        return [e.wall_time_s for e in self.epochs]


class DistributedTrainer:
    """Runs N epochs of synchronous data-parallel training on a cluster."""

    def __init__(
        self,
        cluster: Cluster,
        model: ModelProfile,
        pipeline_config: PipelineConfig,
        partition_policy: PartitionPolicy = "static",
        allreduce: AllReduceModel | None = None,
        epochs: int = 3,
        seed: int = 0,
    ) -> None:
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        self.cluster = cluster
        self.model = model
        self.config = pipeline_config
        self.policy: PartitionPolicy = partition_policy
        self.allreduce = allreduce or AllReduceModel()
        self.epochs = epochs
        grad_bytes = model.grad_bytes
        if grad_bytes is None:
            grad_bytes = GRAD_BYTES.get(model.name)
        if grad_bytes is None:
            raise ValueError(
                f"model {model.name!r} has no gradient payload: set "
                "ModelProfile.grad_bytes or add it to GRAD_BYTES"
            )
        self.grad_bytes = grad_bytes
        self._partition_rng = np.random.default_rng(seed * 7919 + 13)
        self._shuffle_rngs = [
            np.random.default_rng(seed * 104729 + 101 + i)
            for i in range(cluster.spec.n_nodes)
        ]
        self.result = DistributedResult(
            n_nodes=cluster.spec.n_nodes, policy=partition_policy
        )

    # -- lifecycle ----------------------------------------------------------
    def run(self) -> Generator[Any, Any, DistributedResult]:
        """The whole job; drive with ``sim.spawn(trainer.run())``."""
        sim = self.cluster.sim
        monarchs = [ns.monarch for ns in self.cluster.nodes if ns.monarch is not None]
        if monarchs:
            t0 = sim.now
            inits = [
                sim.spawn(m.initialize(), name=f"monarch-init-{i}")
                for i, m in enumerate(monarchs)
            ]
            yield sim.all_of(inits)
            self.result.init_time_s = sim.now - t0
        for epoch in range(self.epochs):
            yield from self._run_epoch(epoch)
        return self.result

    def _run_epoch(self, epoch: int) -> Generator[Any, Any, None]:
        sim = self.cluster.sim
        t0 = sim.now
        pfs_base = self.cluster.pfs.stats.snapshot()
        hit_base = self._hit_counts()
        peers = self.cluster.peers
        peer_base = (
            (peers.total_peer_hits, peers.total_peer_bytes)
            if peers is not None else (0, 0)
        )
        assignment = partition_shards(
            len(self.cluster.shards),
            self.cluster.spec.n_nodes,
            self.policy,
            epoch,
            self._partition_rng,
        )
        pipes: list[EpochPipeline] = []
        for ns, shard_ids in zip(self.cluster.nodes, assignment):
            pipe = EpochPipeline(
                sim=sim,
                config=self.config,
                shards=[self.cluster.shards[i] for i in shard_ids],
                reader=ns.reader,
                node=ns.node,
                model=self.model,
                shuffle_rng=self._shuffle_rngs[ns.index],
            )
            pipe.start()
            miss = pipe.fusion_miss
            if miss is not None:
                misses = self.result.fusion_misses
                misses[miss] = misses.get(miss, 0) + 1
            pipes.append(pipe)

        steps = 0
        records = 0
        sync_cost = self.allreduce.step_time(self.grad_bytes, self.cluster.spec.n_nodes)
        host = self.model.host_time() * self.config.host_scale
        try:
            while True:
                fetchers = [
                    sim.spawn(pipe.next_batch(), name=f"fetch-{i}")
                    for i, pipe in enumerate(pipes)
                ]
                batches = yield sim.all_of(fetchers)
                if any(b is None for b in batches):
                    break  # drop-remainder: first exhausted node ends the epoch
                gpu_steps = [
                    sim.spawn(
                        ns.node.gpu_group.using(
                            self.model.step_time(len(b), ns.node.spec.n_gpus)
                        ),
                        name=f"gpu-{ns.index}",
                    )
                    for ns, b in zip(self.cluster.nodes, batches)
                ]
                yield sim.all_of(gpu_steps)
                fabric = self.cluster.fabric
                if fabric is not None:
                    # Shared-link fabric: the sync holds every node's NIC,
                    # contending with in-flight peer-cache transfers.
                    if host > 0:
                        yield sim.timeout(host)
                    yield from fabric.allreduce(sync_cost)
                else:
                    overhead = host + sync_cost
                    if overhead > 0:
                        yield sim.timeout(overhead)
                steps += 1
                records += sum(len(b) for b in batches)
        finally:
            for pipe in pipes:
                pipe.abort()
        wall = sim.now - t0
        hit_now = self._hit_counts()
        node_ratios = self._node_hit_ratios(hit_base, hit_now)
        active = [
            r for (b, n), r in zip(zip(hit_base, hit_now), node_ratios)
            if n[1] - b[1] > 0
        ]
        peer_now = (
            (peers.total_peer_hits, peers.total_peer_bytes)
            if peers is not None else (0, 0)
        )
        self.result.epochs.append(EpochStats(
            index=epoch,
            wall_time_s=wall,
            global_steps=steps,
            records=records,
            pfs_ops=self.cluster.pfs.stats.snapshot().delta(pfs_base),
            tier_hit_ratio=self._hit_ratio_delta(hit_base, hit_now),
            node_hit_ratios=node_ratios,
            mean_node_hit_ratio=sum(active) / len(active) if active else 0.0,
            peer_hits=peer_now[0] - peer_base[0],
            peer_bytes=peer_now[1] - peer_base[1],
        ))

    # -- tier-hit accounting --------------------------------------------------
    def _hit_counts(self) -> list[tuple[int, int]]:
        """(fast-tier reads, total reads) per monarch node.

        Peer-cache hits — reads the node satisfied off a neighbour's SSD
        — count as fast-tier reads: they never touched the PFS.  They are
        invisible to the node's own ``MonarchStats`` (the peer path
        bypasses ``Monarch.read``), so the service's per-node counters
        are folded in here.
        """
        peers = self.cluster.peers
        out = []
        for ns in self.cluster.nodes:
            if ns.monarch is None:
                out.append((0, 0))
                continue
            stats = ns.monarch.stats
            pfs_level = ns.monarch.hierarchy.pfs_level
            total = stats.total_reads
            fast = total - stats.reads_per_level.get(pfs_level, 0)
            if peers is not None:
                p = peers.peer_hits_of(ns.index)
                fast += p
                total += p
            out.append((fast, total))
        return out

    def _hit_ratio_delta(
        self, base: list[tuple[int, int]], now: list[tuple[int, int]]
    ) -> float:
        """Pooled cluster-wide ratio: sum of hits over sum of reads."""
        hits = sum(n[0] - b[0] for b, n in zip(base, now))
        total = sum(n[1] - b[1] for b, n in zip(base, now))
        return hits / total if total else 0.0

    def _node_hit_ratios(
        self, base: list[tuple[int, int]], now: list[tuple[int, int]]
    ) -> tuple[float, ...]:
        """Per-node ratios (0.0 for nodes that served nothing)."""
        out = []
        for (b_hits, b_total), (n_hits, n_total) in zip(base, now):
            total = n_total - b_total
            out.append((n_hits - b_hits) / total if total else 0.0)
        return tuple(out)
