"""The RunReport observability layer: one exportable artifact per run.

The paper's claims are observability claims — per-epoch tier hit counts,
PFS op reduction, throughput variability.  This module unifies the five
previously disconnected telemetry mechanisms (:class:`MonarchStats`,
:class:`~repro.storage.stats.BackendStats`, the metrics registry,
:class:`~repro.telemetry.tracing.IOTrace`, health counters) into a single
structured :class:`RunReport` that every experiment can emit, serialize
deterministically (same seed ⇒ byte-identical JSON) and diff across runs.

Two halves:

* :class:`RunTelemetry` — the *live* collection harness wired into a run
  by :func:`repro.experiments.scenarios.build_run`: an
  :class:`~repro.telemetry.events.EventRecorder` for the structured event
  stream, an :class:`~repro.telemetry.tracing.IOTrace` attached to every
  backend (batched copy counters included), per-epoch snapshots of the middleware's
  per-tier counters via the trainer's epoch hook.
* :class:`RunReport` + :func:`build_run_report` — the post-run aggregate:
  per-epoch × per-tier reads/bytes/faults, per-backend op/byte totals with
  traced cross-checks, throughput series + variability summaries, a
  time-in-phase breakdown (compute vs I/O wait vs placement activity) and
  the full event stream.

:func:`diff_reports` compares two reports field by field;
:func:`render_report` / :func:`render_diff` print them as the usual
aligned tables.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any

from repro.telemetry.events import EventRecorder
from repro.telemetry.report import format_table
from repro.telemetry.tracing import IOTrace, throughput_series, variability

if TYPE_CHECKING:  # pragma: no cover
    from repro.framework.training import TrainResult
    from repro.simkernel.core import Simulator
    from repro.storage.stats import BackendStats

__all__ = [
    "RunReport",
    "RunTelemetry",
    "SCHEMA_VERSION",
    "build_dist_run_report",
    "build_multi_run_report",
    "build_run_report",
    "build_serve_run_report",
    "diff_reports",
    "render_diff",
    "render_report",
]

#: bump when the report layout changes incompatibly
#: (v2: added the per-job ``jobs`` section for multi-job runs)
SCHEMA_VERSION = 2

#: bins for every per-backend throughput series (fixed for comparability)
_SERIES_BINS = 50


class RunTelemetry:
    """Live telemetry harness for one run.

    Create it right after the simulator, attach backends as they come up,
    point it at the middleware once built, and install
    :meth:`on_epoch_end` as the trainer's epoch hook.  Everything it
    gathers is turned into a :class:`RunReport` by
    :func:`build_run_report` after the run completes.
    """

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.recorder = EventRecorder(clock=lambda: sim.now)
        self.trace = IOTrace(sim)
        self.backends: dict[str, "BackendStats"] = {}
        self._base: dict[str, Any] = {}
        self.monarch: Any = None
        #: one entry per completed epoch: sim time + middleware counters
        self.epoch_marks: list[dict[str, Any]] = []
        #: multi-job runs: per-job epoch marks, keyed by job id
        self.job_marks: dict[str, list[dict[str, Any]]] = {}

    def track_backend(self, name: str, stats: "BackendStats") -> None:
        """Instrument one backend: trace its I/O, remember its baseline."""
        self.backends[name] = stats
        self._base[name] = stats.snapshot()
        self.trace.attach(stats)

    def attach_backends(self, backends: dict[str, "BackendStats"]) -> None:
        """Instrument every backend not already tracked."""
        for name, stats in backends.items():
            if name not in self.backends:
                self.track_backend(name, stats)

    def on_epoch_end(self, epoch: int) -> None:
        """Trainer epoch hook: snapshot the middleware's per-tier counters."""
        mark: dict[str, Any] = {"t": self.sim.now}
        if self.monarch is not None:
            st = self.monarch.stats
            mark["reads"] = dict(st.reads_per_level)
            mark["bytes"] = dict(st.bytes_per_level)
            mark["faults"] = dict(st.tier_faults)
        self.epoch_marks.append(mark)

    def job_hook(self, job_id: str):
        """A per-job epoch hook for multi-job runs.

        Install the returned callable as one trainer's ``epoch_end_hook``;
        it snapshots *that job's* :class:`MonarchStats` at every epoch
        boundary so :func:`build_multi_run_report` can compute per-job
        per-epoch tier deltas.
        """
        def hook(epoch: int) -> None:
            mark: dict[str, Any] = {"t": self.sim.now}
            if self.monarch is not None and job_id in getattr(self.monarch, "job_stats", {}):
                st = self.monarch.job_stats[job_id]
                mark["reads"] = dict(st.reads_per_level)
                mark["bytes"] = dict(st.bytes_per_level)
                mark["faults"] = dict(st.tier_faults)
            self.job_marks.setdefault(job_id, []).append(mark)
        return hook


@dataclass
class RunReport:
    """The unified, serializable observability artifact of one run.

    All nested values are plain JSON types, so ``to_json`` is trivially
    deterministic and ``diff_reports`` can walk two reports structurally.
    """

    meta: dict[str, Any] = field(default_factory=dict)
    #: per-epoch entries: wall time, window, backend op deltas, tier
    #: deltas (monarch runs) and the time-in-phase breakdown
    epochs: list[dict[str, Any]] = field(default_factory=list)
    #: per-backend totals, traced cross-checks and throughput summaries
    backends: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: the middleware's flat counter namespace (``publish_metrics``)
    counters: dict[str, int] = field(default_factory=dict)
    #: the structured event stream, in emission order
    events: list[dict[str, Any]] = field(default_factory=list)
    #: per-job sections (multi-job runs; empty for single-tenant runs)
    jobs: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: per-node sections (distributed runs; empty for single-node runs)
    nodes: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: steady-state section (trace-replay serving runs; empty otherwise):
    #: per-window hit-rate and occupancy, bounded-memory latency histogram
    #: with p50/p99/p999, warm-window aggregates
    steady: dict[str, Any] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # -- derived views ----------------------------------------------------
    def tier_read_totals(self) -> dict[str, int]:
        """Middleware reads per tier label, summed over epochs."""
        out: dict[str, int] = {}
        for entry in self.epochs:
            for tier, count in entry.get("tier_reads", {}).items():
                out[tier] = out.get(tier, 0) + count
        return out

    def total_tier_reads(self) -> int:
        """All middleware-served reads (must equal MonarchStats.total_reads)."""
        return sum(self.tier_read_totals().values())

    def backend_ops_per_epoch(self, backend: str) -> list[int]:
        """Per-epoch total ops (data + metadata) of one backend."""
        out = []
        for entry in self.epochs:
            ops = entry["backend_ops"].get(backend)
            if ops is None:
                continue
            out.append(
                ops["read_ops"] + ops["write_ops"] + ops["open_ops"]
                + ops["stat_ops"] + ops["listdir_ops"]
            )
        return out

    def event_kinds(self) -> dict[str, int]:
        """How many events of each kind the stream holds."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e["kind"]] = out.get(e["kind"], 0) + 1
        return out

    # -- serialization ----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form (already all JSON types).

        The ``nodes`` key only appears for distributed runs and the
        ``steady`` key only for serving runs — golden fixtures pin
        training reports byte-for-byte, so the layout must not change
        for them.
        """
        out = {
            "schema_version": self.schema_version,
            "meta": self.meta,
            "epochs": self.epochs,
            "backends": self.backends,
            "counters": self.counters,
            "events": self.events,
            "jobs": self.jobs,
        }
        if self.nodes:
            out["nodes"] = self.nodes
        if self.steady:
            out["steady"] = self.steady
        return out

    def to_json(self) -> str:
        """Deterministic JSON: sorted keys, fixed indentation, newline-terminated.

        Two runs with the same seed produce byte-identical output — the
        determinism gate (``make report-check``) asserts exactly this.
        """
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "RunReport":
        """Inverse of :meth:`to_dict`."""
        return cls(
            meta=raw.get("meta", {}),
            epochs=raw.get("epochs", []),
            backends=raw.get("backends", {}),
            counters=raw.get("counters", {}),
            events=raw.get("events", []),
            jobs=raw.get("jobs", {}),
            nodes=raw.get("nodes", {}),
            steady=raw.get("steady", {}),
            schema_version=raw.get("schema_version", SCHEMA_VERSION),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


# -- report construction ---------------------------------------------------
def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of possibly-overlapping ``(start, end)`` intervals."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _overlap(intervals: list[tuple[float, float]], t0: float, t1: float) -> float:
    """Total time the (merged) intervals spend inside ``[t0, t1]``."""
    total = 0.0
    for start, end in intervals:
        lo, hi = max(start, t0), min(end, t1)
        if hi > lo:
            total += hi - lo
    return total


def _copy_spans(recorder: EventRecorder, t_final: float) -> list[tuple[float, float]]:
    """[started, finished] interval of every full-file background copy.

    Started events pair FIFO per file with the first later terminal event
    (``copy.completed`` / ``copy.gave_up``); a copy still in flight at run
    end closes at ``t_final``.
    """
    open_starts: dict[str, list[float]] = {}
    spans: list[tuple[float, float]] = []
    for e in recorder.events:
        if e.kind == "copy.started":
            open_starts.setdefault(e.subject, []).append(e.t)
        elif e.kind in ("copy.completed", "copy.gave_up"):
            starts = open_starts.get(e.subject)
            if starts:
                spans.append((starts.pop(0), e.t))
    for starts in open_starts.values():
        spans.extend((s, t_final) for s in starts)
    return _merge_intervals(spans)


def _tier_delta(cur: dict, prev: dict) -> dict[str, int]:
    """Per-level counter delta as a ``{"l<level>": n}`` dict, sorted."""
    levels = sorted(set(cur) | set(prev))
    return {f"l{lvl}": int(cur.get(lvl, 0)) - int(prev.get(lvl, 0)) for lvl in levels}


def _backend_entries(telemetry: RunTelemetry, t_final: float) -> dict[str, dict[str, Any]]:
    """Per-backend totals + traced cross-checks + throughput summaries."""
    out: dict[str, dict[str, Any]] = {}
    for name in sorted(telemetry.backends):
        stats = telemetry.backends[name]
        delta = stats.snapshot().delta(telemetry._base[name])
        read_events = telemetry.trace.filtered(name, "read")
        if t_final > 0.0:
            _, series = throughput_series(read_events, 0.0, t_final, bins=_SERIES_BINS)
            series_bps = [float(v) for v in series]
        else:
            series_bps = []
        var = variability(series_bps)
        out[name] = {
            **asdict(delta),
            "traced_read_ops": telemetry.trace.total_ops(name, "read"),
            "traced_write_ops": telemetry.trace.total_ops(name, "write"),
            "traced_bytes_read": telemetry.trace.total_bytes(name, "read"),
            "traced_bytes_written": telemetry.trace.total_bytes(name, "write"),
            "read_throughput": {
                "mean_bps": var.mean_bps,
                "std_bps": var.std_bps,
                "min_bps": var.min_bps,
                "max_bps": var.max_bps,
                "cv": var.cv,
            },
            "read_series_bps": series_bps,
        }
    return out


def _tag_policy(meta: dict[str, Any], telemetry: RunTelemetry) -> None:
    """Record a non-default placement policy in the report meta.

    The default ("firstfit") is deliberately *not* recorded: pre-policy
    golden fixtures pin those reports byte-for-byte.
    """
    monarch = telemetry.monarch
    if monarch is not None and monarch.config.policy != "firstfit":
        meta["policy"] = monarch.config.policy


def _tag_fusion_misses(meta: dict[str, Any], result: Any) -> None:
    """Record which reads ran through the generator trampoline, and why.

    A capability miss — a reader that doesn't speak the continuation
    protocol — means that epoch's reads (or, for the serving
    replay, that job's requests) were trampolined, which only a profile
    would otherwise show.  Emitted only when non-empty (a cache-writing
    epoch is trampolined by design and is not a miss), so existing
    golden reports stay byte-identical.
    """
    misses = getattr(result, "fusion_misses", None)
    if misses:
        meta["fused_capability_misses"] = dict(sorted(misses.items()))


def build_run_report(
    telemetry: RunTelemetry,
    result: "TrainResult",
    *,
    setup: str = "",
    model: str = "",
    dataset: str = "",
    scale: float = 1.0,
    seed: int = 0,
) -> RunReport:
    """Aggregate everything a finished run left in its telemetry harness."""
    marks = telemetry.epoch_marks
    epochs = result.epochs
    t_final = marks[-1]["t"] if marks else telemetry.sim.now
    spans = _copy_spans(telemetry.recorder, t_final)

    epoch_entries: list[dict[str, Any]] = []
    prev_mark: dict[str, Any] = {"reads": {}, "bytes": {}, "faults": {}}
    for i, er in enumerate(epochs):
        mark = marks[i] if i < len(marks) else {"t": t_final}
        t_end = float(mark["t"])
        t_start = t_end - er.wall_time_s
        compute_s = er.gpu_utilization * er.wall_time_s
        entry: dict[str, Any] = {
            "index": er.index,
            "t_start": t_start,
            "t_end": t_end,
            "wall_time_s": er.wall_time_s,
            "steps": er.steps,
            "records": er.records,
            "cpu_utilization": er.cpu_utilization,
            "gpu_utilization": er.gpu_utilization,
            "backend_ops": {
                name: asdict(snap) for name, snap in sorted(er.backend_ops.items())
            },
            "phases": {
                "compute_s": compute_s,
                "io_wait_s": er.wall_time_s - compute_s,
                "placement_active_s": _overlap(spans, t_start, t_end),
            },
        }
        if "reads" in mark:
            entry["tier_reads"] = _tier_delta(mark["reads"], prev_mark["reads"])
            entry["tier_bytes"] = _tier_delta(mark["bytes"], prev_mark["bytes"])
            entry["tier_faults"] = _tier_delta(mark["faults"], prev_mark["faults"])
            prev_mark = mark
        epoch_entries.append(entry)

    backend_entries = _backend_entries(telemetry, t_final)

    counters: dict[str, int] = {}
    if telemetry.monarch is not None:
        counters = dict(sorted(telemetry.monarch.publish_metrics().counters.items()))

    meta: dict[str, Any] = {
        "setup": setup,
        "model": model,
        "dataset": dataset,
        "scale": scale,
        "seed": seed,
        "n_epochs": len(epochs),
        "init_time_s": result.init_time_s,
        "total_time_s": result.total_time_s,
    }
    _tag_policy(meta, telemetry)
    _tag_fusion_misses(meta, result)
    return RunReport(
        meta=meta,
        epochs=epoch_entries,
        backends=backend_entries,
        counters=counters,
        events=telemetry.recorder.to_payload(),
    )


def build_multi_run_report(
    telemetry: RunTelemetry,
    jobs: dict[str, dict[str, Any]],
    *,
    setup: str = "",
    dataset: str = "",
    scale: float = 1.0,
    seed: int = 0,
    accounting: Any = None,
) -> RunReport:
    """Aggregate a multi-job run into one report with per-job sections.

    ``jobs`` maps each job id to ``{"model": str, "result": TrainResult}``
    (plus any extra keys to carry through, e.g. ``share``).  The top-level
    ``meta`` holds the aggregate view — wall-clock is the *latest* job
    finish, since the jobs overlap — and each ``jobs`` entry holds that
    job's epoch times and per-epoch tier deltas from its
    :meth:`RunTelemetry.job_hook` marks.  ``accounting`` is an optional
    :class:`~repro.simkernel.monitor.TagAccounting` snapshot source.
    """
    t_final = telemetry.sim.now
    job_entries: dict[str, dict[str, Any]] = {}
    finish_times: list[float] = []
    for job_id in sorted(jobs):
        spec = jobs[job_id]
        result: "TrainResult" = spec["result"]
        marks = telemetry.job_marks.get(job_id, [])
        epoch_entries: list[dict[str, Any]] = []
        prev_mark: dict[str, Any] = {"reads": {}, "bytes": {}, "faults": {}}
        for i, er in enumerate(result.epochs):
            mark = marks[i] if i < len(marks) else {"t": t_final}
            entry: dict[str, Any] = {
                "index": er.index,
                "t_end": float(mark["t"]),
                "wall_time_s": er.wall_time_s,
                "steps": er.steps,
                "records": er.records,
            }
            if "reads" in mark:
                entry["tier_reads"] = _tier_delta(mark["reads"], prev_mark["reads"])
                entry["tier_bytes"] = _tier_delta(mark["bytes"], prev_mark["bytes"])
                entry["tier_faults"] = _tier_delta(mark["faults"], prev_mark["faults"])
                prev_mark = mark
            epoch_entries.append(entry)
        if marks:
            finish_times.append(float(marks[-1]["t"]))
        entry = {
            k: v for k, v in spec.items() if k != "result"
        }
        entry.update({
            "init_time_s": result.init_time_s,
            "total_time_s": result.total_time_s,
            "epoch_times": result.epoch_times,
            "epochs": epoch_entries,
        })
        if accounting is not None:
            entry["accounting"] = accounting.totals(job_id)
        job_entries[job_id] = entry

    counters: dict[str, int] = {}
    if telemetry.monarch is not None:
        counters = dict(sorted(telemetry.monarch.publish_metrics().counters.items()))

    meta: dict[str, Any] = {
        "setup": setup,
        "model": "+".join(str(jobs[j].get("model", "?")) for j in sorted(jobs)),
        "dataset": dataset,
        "scale": scale,
        "seed": seed,
        "n_jobs": len(jobs),
        "n_epochs": max((len(jobs[j]["result"].epochs) for j in jobs), default=0),
        "init_time_s": max((jobs[j]["result"].init_time_s for j in jobs), default=0.0),
        "total_time_s": max(finish_times, default=t_final),
    }
    _tag_policy(meta, telemetry)
    return RunReport(
        meta=meta,
        epochs=[],
        backends=_backend_entries(telemetry, t_final),
        counters=counters,
        events=telemetry.recorder.to_payload(),
        jobs=job_entries,
    )


def _latency_entry(hist: Any) -> dict[str, Any]:
    """Serialize one bounded-memory latency histogram with its percentiles."""
    return {
        "count": hist.count,
        "p50_s": hist.p50,
        "p99_s": hist.p99,
        "p999_s": hist.p999,
        "mean_s": hist.mean_s,
        "max_s": hist.max_s,
        "histogram": hist.to_dict(),
    }


def build_serve_run_report(
    telemetry: RunTelemetry,
    replay: Any,
    *,
    setup: str = "",
    model: str = "",
    dataset: str = "",
    scale: float = 1.0,
    seed: int = 0,
    workload: str = "",
) -> RunReport:
    """Aggregate a finished trace-replay serving run into a report.

    ``replay`` is the driver's :class:`~repro.workload.replay.ReplayResult`.
    The report has no epoch entries (there are no epochs); instead the
    ``steady`` section carries the per-window hit-rate/occupancy series
    and the latency histograms the FIG-SERVE gates read.  Everything is
    in simulated units, like the epoch entries of training reports.
    """
    t_final = telemetry.sim.now
    counters: dict[str, int] = {}
    if telemetry.monarch is not None:
        counters = dict(sorted(telemetry.monarch.publish_metrics().counters.items()))
    meta: dict[str, Any] = {
        "setup": setup,
        "model": model,
        "dataset": dataset,
        "scale": scale,
        "seed": seed,
        "workload": workload,
        "n_requests": replay.n_requests,
        "init_time_s": replay.init_time_s,
        "total_time_s": t_final,
    }
    _tag_policy(meta, telemetry)
    _tag_fusion_misses(meta, replay)
    steady: dict[str, Any] = {
        "window_s": replay.window_s,
        "warmup_s": replay.warmup_s,
        "t_start": replay.t_start,
        "t_end": replay.t_end,
        "completed": replay.completed,
        "hit_rate": replay.hit_rate,
        "warm_hit_rate": replay.warm_hit_rate,
        "windows": replay.windows,
        "latency": _latency_entry(replay.latency),
        "warm_latency": _latency_entry(replay.warm_latency),
    }
    return RunReport(
        meta=meta,
        epochs=[],
        backends=_backend_entries(telemetry, t_final),
        counters=counters,
        events=telemetry.recorder.to_payload(),
        steady=steady,
    )


def build_dist_run_report(cluster: Any, result: Any, record: Any) -> RunReport:
    """Aggregate a distributed run into one report with per-node sections.

    ``cluster`` is a finished :class:`~repro.distributed.cluster.Cluster`
    (built with ``record_events=True``), ``result`` the trainer's
    :class:`~repro.distributed.trainer.DistributedResult` and ``record``
    the un-scaled :class:`~repro.experiments.dist_scenarios.DistRunRecord`.
    Times in the report are *simulation*-scale (like the epoch entries of
    single-node reports); the record carries the un-scaled view.  Do not
    feed the result to :func:`render_report` — distributed epochs carry no
    ``phases`` breakdown.
    """
    epoch_entries: list[dict[str, Any]] = []
    for e in result.epochs:
        epoch_entries.append({
            "index": e.index,
            "wall_time_s": e.wall_time_s,
            "steps": e.global_steps,
            "records": e.records,
            "tier_hit_ratio": e.tier_hit_ratio,
            "node_hit_ratios": list(e.node_hit_ratios),
            "mean_node_hit_ratio": e.mean_node_hit_ratio,
            "peer_hits": e.peer_hits,
            "peer_bytes": e.peer_bytes,
            "pfs_ops": asdict(e.pfs_ops),
        })

    peers = cluster.peers
    nodes: dict[str, dict[str, Any]] = {}
    for ns in cluster.nodes:
        entry: dict[str, Any] = {}
        if ns.monarch is not None:
            entry["counters"] = dict(
                sorted(ns.monarch.publish_metrics().counters.items())
            )
        if peers is not None:
            st = peers.stats[ns.index]
            entry.update({
                "peer_hits": st.peer_hits,
                "peer_bytes": st.peer_bytes,
                "fetches_served": st.fetches_served,
                "bytes_served": st.bytes_served,
                "rereplications": st.rereplications,
                "down_at_s": peers.node_down_s.get(ns.index, -1.0),
            })
        if entry:
            nodes[f"n{ns.index}"] = entry

    counters: dict[str, int] = {}
    if cluster.fabric is not None:
        counters.update(cluster.fabric.counters())
    if peers is not None:
        counters["peers.fetch_faults"] = peers.fetch_faults
        counters["peers.directory_files"] = len(peers.directory)
    if cluster.injector is not None:
        counters.update(cluster.injector.counters())

    meta: dict[str, Any] = {
        "setup": record.setup,
        "model": record.model,
        "dataset": cluster.dataset.name if cluster.dataset is not None else "",
        "scale": record.scale,
        "seed": record.seed,
        "n_nodes": record.n_nodes,
        "partition_policy": record.policy,
        "n_epochs": len(result.epochs),
        "init_time_s": result.init_time_s,
        "total_time_s": result.total_time_s,
    }
    _tag_fusion_misses(meta, result)
    events = cluster.recorder.to_payload() if cluster.recorder is not None else []
    return RunReport(
        meta=meta,
        epochs=epoch_entries,
        backends={},
        counters=counters,
        events=events,
        nodes=nodes,
    )


# -- diffing ---------------------------------------------------------------
def diff_reports(a: RunReport, b: RunReport) -> list[tuple[str, Any, Any]]:
    """Structural difference of two reports as ``(path, a_value, b_value)``.

    Missing keys/indices surface with the sentinel string ``"<absent>"``.
    An empty list means the reports are identical.
    """
    out: list[tuple[str, Any, Any]] = []
    _diff_value("", a.to_dict(), b.to_dict(), out)
    return out


_ABSENT = "<absent>"


def _diff_value(path: str, va: Any, vb: Any, out: list) -> None:
    if isinstance(va, dict) and isinstance(vb, dict):
        for key in sorted(set(va) | set(vb)):
            sub = f"{path}.{key}" if path else str(key)
            _diff_value(sub, va.get(key, _ABSENT), vb.get(key, _ABSENT), out)
        return
    if isinstance(va, list) and isinstance(vb, list):
        for i in range(max(len(va), len(vb))):
            sub = f"{path}[{i}]"
            ia = va[i] if i < len(va) else _ABSENT
            ib = vb[i] if i < len(vb) else _ABSENT
            _diff_value(sub, ia, ib, out)
        return
    if va != vb:
        out.append((path, va, vb))


# -- rendering -------------------------------------------------------------
def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    return str(value)


def render_report(report: RunReport) -> str:
    """Human-readable summary: meta line, epoch table, backend table."""
    meta = report.meta
    lines = [
        f"RunReport: {meta.get('setup', '?')} / {meta.get('model', '?')} / "
        f"{meta.get('dataset', '?')} (scale {meta.get('scale', 1.0):g}, "
        f"seed {meta.get('seed', 0)})",
        f"init {meta.get('init_time_s', 0.0):.3f} s, "
        f"total {meta.get('total_time_s', 0.0):.3f} s, "
        f"{len(report.events)} events",
        "",
    ]
    epoch_rows = []
    has_tiers = any("tier_reads" in e for e in report.epochs)
    for e in report.epochs:
        phases = e["phases"]
        row = [
            e["index"] + 1,
            f"{e['wall_time_s']:.3f}",
            f"{phases['compute_s']:.3f}",
            f"{phases['io_wait_s']:.3f}",
            f"{phases['placement_active_s']:.3f}",
        ]
        if has_tiers:
            row.append(_fmt(e.get("tier_reads", {})))
        epoch_rows.append(row)
    headers = ["epoch", "wall (s)", "compute (s)", "io wait (s)", "placement (s)"]
    if has_tiers:
        headers.append("tier reads")
    if epoch_rows:
        lines.append(format_table(headers, epoch_rows, title="per-epoch"))
        lines.append("")
    if report.jobs:
        job_rows = []
        for job_id, j in sorted(report.jobs.items()):
            job_rows.append([
                job_id,
                j.get("model", "?"),
                f"{j.get('init_time_s', 0.0):.3f}",
                f"{j.get('total_time_s', 0.0):.3f}",
                " ".join(f"{t:.3f}" for t in j.get("epoch_times", [])),
            ])
        lines.append(format_table(
            ["job", "model", "init (s)", "total (s)", "epoch times (s)"],
            job_rows,
            title="per-job",
        ))
        lines.append("")
    backend_rows = []
    for name, b in sorted(report.backends.items()):
        backend_rows.append([
            name,
            b["read_ops"],
            b["write_ops"],
            b["bytes_read"],
            b["bytes_written"],
            f"{b['read_throughput']['mean_bps'] / 1e6:.1f}",
            f"{b['read_throughput']['cv']:.2f}",
        ])
    lines.append(format_table(
        ["backend", "reads", "writes", "bytes read", "bytes written",
         "mean MB/s", "cv"],
        backend_rows,
        title="per-backend",
    ))
    if report.steady:
        s = report.steady
        lat, warm = s["latency"], s["warm_latency"]
        lines.append("")
        lines.append(
            f"steady state: {s['completed']} requests over "
            f"{s['t_end'] - s['t_start']:.1f} s, hit rate {s['hit_rate']:.3f} "
            f"(warm {s['warm_hit_rate']:.3f})"
        )
        lines.append(
            f"latency p50/p99/p999: {lat['p50_s'] * 1e3:.2f} / "
            f"{lat['p99_s'] * 1e3:.2f} / {lat['p999_s'] * 1e3:.2f} ms "
            f"(warm: {warm['p50_s'] * 1e3:.2f} / {warm['p99_s'] * 1e3:.2f} / "
            f"{warm['p999_s'] * 1e3:.2f} ms)"
        )
        window_rows = [
            [w["index"] + 1, f"{w['t_start']:.1f}", f"{w['t_end']:.1f}",
             w["completed"], f"{w['hit_rate']:.3f}",
             f"{w['mean_latency_s'] * 1e3:.2f}"]
            for w in s["windows"]
        ]
        lines.append(format_table(
            ["window", "start (s)", "end (s)", "done", "hit rate", "mean ms"],
            window_rows,
            title="per-window",
        ))
    if report.counters:
        lines.append("")
        nonzero = [(k, v) for k, v in sorted(report.counters.items()) if v]
        lines.append(format_table(["counter", "value"], nonzero, title="counters (nonzero)"))
    return "\n".join(lines)


def render_diff(diffs: list[tuple[str, Any, Any]], limit: int = 40) -> str:
    """Aligned table of the first ``limit`` differences."""
    if not diffs:
        return "reports are identical"
    rows = [(path, _fmt(va), _fmt(vb)) for path, va, vb in diffs[:limit]]
    table = format_table(["path", "a", "b"], rows,
                         title=f"{len(diffs)} differing field(s)")
    if len(diffs) > limit:
        table += f"\n... and {len(diffs) - limit} more"
    return table
