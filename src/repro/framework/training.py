"""Training loop and per-epoch accounting.

A :class:`Trainer` runs the paper's methodology: N epochs over the dataset
(3 in every experiment), synchronous data-parallel steps across the node's
GPUs, with the input pipeline rebuilt (and the shard order reshuffled) each
epoch.  It records everything the paper reports per epoch: wall time,
CPU/GPU utilization, and per-backend I/O counters.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.framework.cache import TFDataCache
from repro.framework.io_layer import DataReader
from repro.framework.models import ModelProfile
from repro.framework.pipeline import EpochPipeline, PipelineConfig, ShardInfo
from repro.framework.resources import ComputeNode
from repro.simkernel.core import Simulator
from repro.storage.stats import BackendStats, StatsSnapshot
from repro.telemetry.events import NULL_RECORDER

__all__ = ["EpochResult", "TrainResult", "Trainer"]


@dataclass(frozen=True)
class EpochResult:
    """Everything measured for one training epoch."""

    index: int
    wall_time_s: float
    steps: int
    records: int
    cpu_utilization: float
    gpu_utilization: float
    backend_ops: dict[str, StatsSnapshot] = field(default_factory=dict)


@dataclass
class TrainResult:
    """Aggregate result of one training run."""

    epochs: list[EpochResult] = field(default_factory=list)
    init_time_s: float = 0.0  #: setup before epoch 1 (MONARCH metadata init)
    memory_estimate_bytes: int = 0
    #: why an epoch's reads were trampolined, per reason -> epoch count;
    #: empty when every epoch used the continuation protocol (or was
    #: trampolined by design: a cache-writing epoch).  Surfaced in the
    #: RunReport meta so a capability regression shows in telemetry.
    fusion_misses: dict[str, int] = field(default_factory=dict)

    @property
    def total_time_s(self) -> float:
        """Sum of epoch wall times (init excluded, as in the paper's figures)."""
        return sum(e.wall_time_s for e in self.epochs)

    @property
    def epoch_times(self) -> list[float]:
        """Per-epoch wall times in epoch order."""
        return [e.wall_time_s for e in self.epochs]

    def backend_epoch_ops(self, backend: str) -> list[int]:
        """Per-epoch total op counts for one backend (data + metadata)."""
        return [e.backend_ops[backend].total_ops for e in self.epochs if backend in e.backend_ops]


class Trainer:
    """Runs a full training job on the DES."""

    def __init__(
        self,
        sim: Simulator,
        node: ComputeNode,
        model: ModelProfile,
        config: PipelineConfig,
        shards: list[ShardInfo],
        reader: DataReader,
        shuffle_rng: np.random.Generator,
        backends: dict[str, BackendStats] | None = None,
        cache: TFDataCache | None = None,
        epochs: int = 3,
        init_hook: Callable[[], Generator[Any, Any, None]] | None = None,
        epoch_end_hook: Callable[[int], None] | None = None,
        recorder=None,
        job_id: str = "",
        accounting=None,
    ) -> None:
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        self.sim = sim
        self.node = node
        self.model = model
        self.config = config
        self.shards = shards
        self.reader = reader
        self.shuffle_rng = shuffle_rng
        self.backends = backends or {}
        self.cache = cache
        self.epochs = epochs
        self.init_hook = init_hook
        self.epoch_end_hook = epoch_end_hook
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        #: multi-job runs: which job this trainer is ("" = single-tenant)
        self.job_id = job_id
        #: optional per-job resource accounting (TagAccounting)
        self.accounting = accounting
        self.result = TrainResult()

    def run(self) -> Generator[Any, Any, TrainResult]:
        """The training job: drive with ``sim.spawn(trainer.run())``."""
        if self.init_hook is not None:
            t0 = self.sim.now
            yield from self.init_hook()
            self.result.init_time_s = self.sim.now - t0
            # Keep the init phase out of epoch-1's utilization window.
            self.node.mark_epoch()
        for epoch in range(self.epochs):
            yield from self._run_epoch(epoch)
        return self.result

    def _run_epoch(self, epoch: int) -> Generator[Any, Any, None]:
        t0 = self.sim.now
        # Event subjects stay bare epoch indices in single-tenant runs;
        # multi-job runs prefix the owning job so streams disentangle.
        subject = f"{self.job_id}:{epoch}" if self.job_id else str(epoch)
        if self.recorder.enabled:
            self.recorder.emit("epoch.start", subject)
        base_ops = {name: s.snapshot() for name, s in self.backends.items()}
        cache_writing = self.cache is not None and not self.cache.ready
        pipe = EpochPipeline(
            sim=self.sim,
            config=self.config,
            shards=self.shards,
            reader=self.reader,
            node=self.node,
            model=self.model,
            shuffle_rng=self.shuffle_rng,
            cache=self.cache,
            cache_writing=cache_writing,
        )
        pipe.start()
        miss = pipe.fusion_miss
        if miss is not None:
            misses = self.result.fusion_misses
            misses[miss] = misses.get(miss, 0) + 1
        steps = 0
        records = 0
        n_gpus = self.node.spec.n_gpus
        gpu = self.node.gpu_group
        host = self.model.host_time() * self.config.host_scale
        step_time = self.model.step_time
        sim = self.sim
        try:
            while True:
                batch = yield from pipe.next_batch()
                if batch is None:
                    break
                t = step_time(len(batch), n_gpus)
                if gpu._in_use == 0 and not gpu._queue:
                    # Fused fast path: the GPU group is private to this
                    # trainer, so the hold never contends; one timeout
                    # covers step + host post-processing, with the busy
                    # area credited directly (grant/release instants
                    # carry no other observable state).
                    gpu.monitor.add_area(t)
                    ev = sim._pooled_timeout(t + host)
                    yield ev
                    sim._recycle(ev)
                else:
                    yield from gpu.using(t)
                    if host > 0:
                        yield sim.timeout(host)
                steps += 1
                records += len(batch)
        except BaseException:
            pipe.abort()
            raise
        if self.cache is not None and cache_writing:
            self.cache.finalize_epoch()
        if self.recorder.enabled:
            self.recorder.emit("epoch.end", subject, steps=steps, records=records)
        if self.epoch_end_hook is not None:
            self.epoch_end_hook(epoch)
        self.node.mark_epoch()
        wall = self.sim.now - t0
        if self.accounting is not None:
            self.accounting.charge(self.job_id, seconds=wall, ops=steps)
        ops = {
            name: s.snapshot().delta(base_ops[name]) for name, s in self.backends.items()
        }
        for s in self.backends.values():
            s.mark_epoch()
        # t0 and now are both mark points, so the window integral is exact.
        self.result.epochs.append(
            EpochResult(
                index=epoch,
                wall_time_s=wall,
                steps=steps,
                records=records,
                cpu_utilization=self.node.cpu.monitor.utilization(t0, self.sim.now),
                gpu_utilization=self.node.gpu_group.monitor.utilization(t0, self.sim.now),
                backend_ops=ops,
            )
        )
