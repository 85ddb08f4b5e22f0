"""The benchmark's four workloads, one simulated cell each.

A *cell* is everything one repetition of a workload runs: the scenario
build (timed as set-up), the execution (timed as wall), the output checks,
and the simulated counters every per-layer metric reads.  Cells reach the
simulator only through its public entry points — ``build_run`` and
``RunHandle.execute`` for single-node runs, ``build_cluster`` and
``DistributedTrainer`` for the cluster — and read counters only from the
public stats objects those return.

Every simulated quantity (records, counters, latency histograms, the
RunReport) is folded into ``digest``.  The simulator is deterministic per
seed, so repetitions of one seed, traced or not, must produce the same
digest; a change that only speeds the simulator up must leave it alone.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable

from repro.data.imagenet import IMAGENET_100G, IMAGENET_200G
from repro.distributed.cluster import ClusterSpec, build_cluster
from repro.distributed.trainer import DistributedTrainer
from repro.experiments.calibration import DEFAULT_CALIBRATION
from repro.experiments.scenarios import build_run
from repro.framework.models import MODELS
from repro.telemetry.runreport import build_serve_run_report
from repro.workload.spec import WORKLOADS

MODEL = "lenet"
EPOCHS = 3

#: paper totals (PAPER.md, LeNet, 3 epochs, init excluded) behind sim_err_pct
PAPER_TOTAL_S = {"train-lustre": 1205.0, "train-overflow": 2155.0}

#: serve-zipf rate ladder, as multiples of the preset's full-scale rate;
#: the request count stays fixed, so each rung replays the same stream
#: compressed in time
RATE_LADDER = (1, 4, 16, 64)
#: simulated warm-p99 limit a rung must meet to count as sustained
SERVE_P99_LIMIT_MS = 1.0

#: per-workload scale: fixed, so sim_err_pct is comparable run to run
SCALES = {
    "train-lustre": 1 / 32,
    "train-overflow": 1 / 64,
    "serve-zipf": 1 / 32,
    "train-p2p": 1 / 128,
}


#: ``timed(fn, *args)`` -> ``(fn(*args), host seconds)``: the runner's
#: timer for a cell's phases (see ``run.py``)
Timed = Callable[..., tuple[Any, float]]


@dataclass
class Cell:
    """What one repetition of a workload measured and checked."""

    setup_s: float = 0.0
    wall_s: float = 0.0
    #: operations attempted: training steps, or serve requests
    attempted: int = 0
    #: output-check failures (empty when the cell is correct)
    problems: list[str] = field(default_factory=list)
    #: simulated counters and results, by per-layer metric name
    sim: dict[str, float] = field(default_factory=dict)
    #: raw storage and middleware counts behind some of ``sim``
    tally: Counter = field(default_factory=Counter)
    #: everything simulated, for the digest
    record: dict[str, Any] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        blob = json.dumps(self.record, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)


def _snap(stats) -> dict[str, int]:
    return asdict(stats.snapshot())


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _monarch_record(m) -> dict[str, Any]:
    return {"counters": m.stats.counters(), "placement": asdict(m.placement.stats)}


def _tally(cell: Cell, pfs, locals_: list, monarchs: list) -> None:
    """Add one simulation's storage and middleware counters to ``cell.tally``."""
    t = cell.tally
    t["pfs.read_ops"] += pfs.stats.read_ops
    t["pfs.bytes_read"] += pfs.stats.bytes_read
    t["pfs.meta_ops"] += pfs.stats.snapshot().metadata_ops
    for fs in locals_:
        t["local.read_ops"] += fs.stats.read_ops
        t["local.bytes_written"] += fs.stats.bytes_written
        t["ssd.busy"] += fs.device.busy_monitor.utilization()
        t["ssd.devices"] += 1
        if fs.page_cache is not None:
            t["pagecache.hits"] += fs.page_cache.hits
            t["pagecache.lookups"] += fs.page_cache.hits + fs.page_cache.misses
    for m in monarchs:
        st, ps = m.stats, m.placement.stats
        t["core.reads"] += st.total_reads
        t["core.pfs_reads"] += st.reads_per_level.get(m.hierarchy.pfs_level, 0)
        t["core.fallback_reads"] += st.fallback_reads
        t["core.read_retries"] += st.read_retries
        for key in ("scheduled", "completed", "bytes_copied", "unplaceable"):
            t[f"placement.{key}"] += getattr(ps, key)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _finish_tally(cell: Cell) -> None:
    """Turn ``cell.tally`` into the storage and core per-layer metrics."""
    t = cell.tally
    for key in ("pfs.read_ops", "pfs.bytes_read", "pfs.meta_ops", "local.read_ops",
                "local.bytes_written", "core.fallback_reads", "core.read_retries",
                "placement.scheduled", "placement.completed", "placement.bytes_copied",
                "placement.unplaceable"):
        cell.sim[key] = t[key]
    cell.sim["ssd.busy_frac"] = _ratio(t["ssd.busy"], t["ssd.devices"])
    cell.sim["pagecache.hit_ratio"] = _ratio(t["pagecache.hits"], t["pagecache.lookups"])
    cell.sim["core.hit_ratio"] = _ratio(t["core.reads"] - t["core.pfs_reads"], t["core.reads"])
    cell.sim["placement.useful_frac"] = _ratio(t["placement.completed"],
                                               t["placement.scheduled"])


def _check_monarch_conservation(cell: Cell, pfs, locals_: list, monarchs: list,
                                peer_bytes_served: int = 0) -> None:
    """Bytes must agree across the middleware / storage boundary.

    Every PFS byte is either a middleware read served from the PFS level
    or a placement fetch; every local-SSD byte read is a middleware read
    served from the SSD level or a block served to a peer; every byte
    written locally is a placement copy.  A fast path that skipped the
    stats on either side breaks one of these.  Copies still in flight when
    a serving run ends have moved bytes the placement stats do not count
    yet, so the PFS and write sides are equalities only once placement
    has drained.
    """
    stats = [m.placement.stats for m in monarchs]
    drained = all(ps.completed == ps.scheduled for ps in stats)
    pfs_level_bytes = sum(
        m.stats.bytes_per_level.get(m.hierarchy.pfs_level, 0) for m in monarchs)
    fetched = sum(ps.pfs_bytes_fetched for ps in stats)
    copied = sum(ps.bytes_copied for ps in stats)
    pfs_read = pfs.stats.bytes_read
    written = sum(fs.stats.bytes_written for fs in locals_)
    cell.check(pfs_read >= fetched, f"PFS bytes_read {pfs_read} < placement fetched {fetched}")
    cell.check(pfs_read == pfs_level_bytes + fetched if drained
               else pfs_read >= pfs_level_bytes + fetched,
               f"PFS bytes_read {pfs_read} vs middleware PFS-level bytes "
               f"{pfs_level_bytes} + placement fetched {fetched} (drained: {drained})")
    cell.check(written == copied if drained else written >= copied,
               f"local bytes_written {written} vs placement bytes_copied {copied} "
               f"(drained: {drained})")
    upper_bytes = sum(
        sum(b for lvl, b in m.stats.bytes_per_level.items()
            if lvl != m.hierarchy.pfs_level) for m in monarchs)
    local_read = sum(fs.stats.bytes_read for fs in locals_)
    cell.check(local_read == upper_bytes + peer_bytes_served,
               f"local bytes_read {local_read} != middleware SSD-level bytes "
               f"{upper_bytes} + peer-served {peer_bytes_served}")


def train_cell(workload: str, setup: str, dataset, calib, seed: int, timed: Timed) -> Cell:
    """One single-node training job: build, 3 epochs, checks, counters."""
    scale = SCALES[workload]
    cell = Cell()
    h, cell.setup_s = timed(build_run, setup, MODEL, dataset, calib,
                            scale=scale, seed=seed, epochs=EPOCHS)
    res, cell.wall_s = timed(h.execute)

    batch = h.env.pipeline.batch_size
    n_samples = h.dataset.n_samples
    steps_per_epoch = _ceil_div(n_samples, batch)
    cell.attempted = EPOCHS * steps_per_epoch
    shards = h.manifest.shards
    chunk = h.env.pipeline.read_chunk
    reads_per_epoch = sum(_ceil_div(s.size_bytes, chunk) for s in shards)
    total_bytes = h.manifest.total_bytes

    cell.check(len(res.epochs) == EPOCHS, f"{len(res.epochs)} of {EPOCHS} epochs ran")
    for e in res.epochs:
        cell.check(e.steps == steps_per_epoch,
                   f"epoch {e.index}: {e.steps} of {steps_per_epoch} steps")
        cell.check(e.records == n_samples,
                   f"epoch {e.index}: {e.records} of {n_samples} records")
    locals_ = [h.local_fs] if h.local_fs is not None else []
    monarchs = [h.monarch] if h.monarch is not None else []
    if monarchs:
        issued = EPOCHS * reads_per_epoch
        served = h.monarch.stats.total_reads
        cell.check(served == issued,
                   f"middleware reads by level {served} != reads issued {issued}")
        cell.check(sum(h.monarch.stats.bytes_per_level.values()) == EPOCHS * total_bytes,
                   "middleware bytes != bytes the framework read")
        _check_monarch_conservation(cell, h.pfs, locals_, monarchs)
    else:
        for e in res.epochs:
            ops = e.backend_ops["pfs"]
            cell.check(ops.read_ops == reads_per_epoch and ops.bytes_read == total_bytes,
                       f"epoch {e.index}: PFS served {ops.read_ops} reads / "
                       f"{ops.bytes_read} B, framework issued {reads_per_epoch} / "
                       f"{total_bytes} B")

    inv = 1.0 / scale
    sim = cell.sim
    total = res.total_time_s * inv
    sim["simkernel.slots"] = h.sim.events_processed
    sim["framework.records"] = sum(e.records for e in res.epochs)
    sim["framework.epoch1_s"] = res.epochs[0].wall_time_s * inv
    sim["framework.epoch3_s"] = res.epochs[-1].wall_time_s * inv
    sim["framework.gpu_util"] = sum(e.gpu_utilization for e in res.epochs) / len(res.epochs)
    sim["pfs.ops_last_epoch"] = round(res.epochs[-1].backend_ops["pfs"].total_ops * inv)
    _tally(cell, h.pfs, locals_, monarchs)
    _finish_tally(cell)
    ref = PAPER_TOTAL_S[workload]
    sim["sim_err_pct"] = abs(total - ref) / ref * 100.0

    cell.record = {
        "init_s": res.init_time_s,
        "epochs": [asdict(e) for e in res.epochs],
        "fusion_misses": res.fusion_misses,
        "slots": h.sim.events_processed,
        "pfs": _snap(h.pfs.stats),
        "local": [_snap(fs.stats) for fs in locals_],
        "pagecache": [(fs.page_cache.hits, fs.page_cache.misses) for fs in locals_],
        "monarch": [_monarch_record(m) for m in monarchs],
    }
    return cell


def _serve_rung(h, seed: int, scale: float, workload: str):
    """Execute one built serving run and render its RunReport."""
    res = h.execute()
    report = build_serve_run_report(
        h.telemetry, res, setup="monarch", model=MODEL,
        dataset=IMAGENET_100G.name, scale=scale, seed=seed, workload=workload,
    ).to_json()
    return res, report


def serve_cell(seed: int, timed: Timed) -> Cell:
    """The serve-zipf rate ladder: one RunReport-armed replay per rung."""
    scale = SCALES["serve-zipf"]
    preset = WORKLOADS["serve-zipf"]
    cell = Cell()
    sim = cell.sim
    rungs = []
    max_rps = 0.0
    for mult in RATE_LADDER:
        spec = replace(preset, rate_rps=preset.rate_rps * mult)
        h, setup_s = timed(build_run, "monarch", MODEL, IMAGENET_100G, DEFAULT_CALIBRATION,
                           scale=scale, seed=seed, telemetry=True, workload=spec)
        (res, report), wall_s = timed(_serve_rung, h, seed, scale, preset.name)
        cell.setup_s += setup_s
        cell.wall_s += wall_s
        cell.attempted += res.n_requests

        cell.check(res.completed == res.n_requests,
                   f"x{mult}: {res.completed} of {res.n_requests} requests completed")
        served = h.monarch.stats.total_reads
        cell.check(served == res.completed,
                   f"x{mult}: middleware reads by level {served} != requests {res.completed}")
        _check_monarch_conservation(cell, h.pfs, [h.local_fs], [h.monarch])
        if (res.warm_latency.p99 * 1e3 <= SERVE_P99_LIMIT_MS
                and res.completed == res.n_requests):
            max_rps = preset.rate_rps * mult

        warm = res.warm_latency
        sim[f"serve.p99_ms.x{mult}"] = warm.p99 * 1e3
        if mult == 1:
            sim["serve.warm_samples"] = warm.count
            sim["serve.p50_ms"] = warm.p50 * 1e3
            sim["serve.warm_hit_rate"] = res.warm_hit_rate
        sim["serve.requests"] = sim.get("serve.requests", 0) + res.n_requests
        sim["serve.completed"] = sim.get("serve.completed", 0) + res.completed
        sim["simkernel.slots"] = sim.get("simkernel.slots", 0) + h.sim.events_processed
        sim["telemetry.report_bytes"] = sim.get("telemetry.report_bytes", 0) + len(report)
        _tally(cell, h.pfs, [h.local_fs], [h.monarch])
        rungs.append({
            "rate_rps": spec.rate_rps,
            "slots": h.sim.events_processed,
            "latency": res.latency.to_dict(),
            "warm_latency": warm.to_dict(),
            "windows": res.windows,
            "report": hashlib.sha256(report.encode()).hexdigest(),
        })
    sim["serve_p99_ms"] = sim["serve.p99_ms.x1"]
    sim["serve_max_rps"] = max_rps
    _finish_tally(cell)  # storage and core counters over all rungs
    cell.record = {"rungs": rungs}
    return cell


def _build_p2p(seed: int, scale: float):
    cluster = build_cluster("monarch-p2p", IMAGENET_200G, DEFAULT_CALIBRATION.busy(),
                            ClusterSpec(n_nodes=4), scale=scale, seed=seed)
    trainer = DistributedTrainer(cluster, MODELS[MODEL], cluster.env.pipeline,
                                 partition_policy="reshuffle", epochs=EPOCHS, seed=seed)
    return cluster, trainer


def _run_p2p(cluster, trainer):
    res = cluster.sim.run(cluster.sim.spawn(trainer.run(), name="dist-train"))
    for ns in cluster.nodes:
        ns.monarch.shutdown()
    return res


def p2p_cell(seed: int, timed: Timed) -> Cell:
    """Four monarch-p2p nodes, reshuffled partitions, busy PFS, 3 epochs."""
    scale = SCALES["train-p2p"]
    cell = Cell()
    (cluster, trainer), cell.setup_s = timed(_build_p2p, seed, scale)
    res, cell.wall_s = timed(_run_p2p, cluster, trainer)

    n_nodes = cluster.spec.n_nodes
    batch = cluster.env.pipeline.batch_size
    steps = sum(e.global_steps for e in res.epochs)
    cell.attempted = steps
    cell.check(len(res.epochs) == EPOCHS, f"{len(res.epochs)} of {EPOCHS} epochs ran")
    per_node = _ceil_div(cluster.dataset.n_samples, n_nodes * batch)
    for e in res.epochs:
        # drop-remainder: the epoch ends with the first exhausted node,
        # which holds at most an even share of the records
        cell.check(0 < e.global_steps <= per_node + 1,
                   f"epoch {e.index}: {e.global_steps} global steps "
                   f"(even share {per_node})")
        cell.check(e.records <= e.global_steps * batch * n_nodes,
                   f"epoch {e.index}: {e.records} records in {e.global_steps} steps")
    fabric = cluster.fabric.counters()
    cell.check(fabric["fabric.allreduce_steps"] == steps,
               f"fabric all-reduces {fabric['fabric.allreduce_steps']} != steps {steps}")
    peers = cluster.peers
    served = sum(s.bytes_served for s in peers.stats.values())
    fetched = sum(s.peer_bytes for s in peers.stats.values())
    cell.check(served == fetched == fabric["fabric.peer_bytes"],
               f"peer bytes fetched {fetched} / served {served} / over the fabric "
               f"{fabric['fabric.peer_bytes']} disagree")
    monarchs = [ns.monarch for ns in cluster.nodes]
    locals_ = [ns.local_fs for ns in cluster.nodes]
    _check_monarch_conservation(cell, cluster.pfs, locals_, monarchs, served)

    inv = 1.0 / scale
    sim = cell.sim
    sim["simkernel.slots"] = cluster.sim.events_processed
    sim["framework.records"] = sum(e.records for e in res.epochs)
    sim["framework.epoch1_s"] = res.epochs[0].wall_time_s * inv
    sim["framework.epoch3_s"] = res.epochs[-1].wall_time_s * inv
    sim["framework.gpu_util"] = sum(
        ns.node.gpu_group.monitor.utilization() for ns in cluster.nodes) / n_nodes
    sim["pfs.ops_last_epoch"] = round(res.epochs[-1].pfs_ops.total_ops * inv)
    _tally(cell, cluster.pfs, locals_, monarchs)
    _finish_tally(cell)
    hits = peers.total_peer_hits
    reads = sum(m.stats.total_reads for m in monarchs) + hits
    fast = reads - sum(m.stats.reads_per_level.get(m.hierarchy.pfs_level, 0)
                       for m in monarchs)
    sim["peer.hits"] = hits
    sim["peer.bytes"] = peers.total_peer_bytes
    sim["peer.tier_hit_ratio"] = fast / reads if reads else 0.0
    sim["fabric.allreduce_steps"] = fabric["fabric.allreduce_steps"]

    cell.record = {
        "init_s": res.init_time_s,
        "epochs": [asdict(e) for e in res.epochs],
        "fusion_misses": res.fusion_misses,
        "slots": cluster.sim.events_processed,
        "pfs": _snap(cluster.pfs.stats),
        "local": [_snap(fs.stats) for fs in locals_],
        "monarch": [_monarch_record(m) for m in monarchs],
        "peers": {i: asdict(s) for i, s in sorted(peers.stats.items())},
        "fabric": fabric,
    }
    return cell


#: workload name -> cell runner taking the seed and the phase timer
WORKLOAD_CELLS: dict[str, Callable[[int, Timed], Cell]] = {
    "train-lustre": lambda seed, timed: train_cell(
        "train-lustre", "vanilla-lustre", IMAGENET_100G, DEFAULT_CALIBRATION, seed, timed),
    "train-overflow": lambda seed, timed: train_cell(
        "train-overflow", "monarch", IMAGENET_200G, DEFAULT_CALIBRATION.busy(), seed, timed),
    "serve-zipf": serve_cell,
    "train-p2p": p2p_cell,
}
