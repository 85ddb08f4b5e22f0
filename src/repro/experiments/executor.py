"""Parallel grid execution engine with a content-keyed run cache.

Every experiment grid in this repo — the figure grids, the sweeps, the
fault and distributed scenarios — is a list of *independent* seeded
simulation runs: each run builds its own :class:`Simulator`, derives its
own RNG substreams from the run seed, and shares no mutable state with
any sibling.  That makes the grid embarrassingly parallel, and —
crucially — makes parallel execution *exactly* equivalent to serial
execution as long as results are merged back in canonical spec order.

:class:`GridExecutor` exploits both properties:

* **Fan-out** — ``jobs > 1`` dispatches runs to a pool of shared-nothing
  worker processes (``spawn`` start method, so no state is forked;
  ``REPRO_*`` environment variables are re-exported to every worker).
  Results are merged by spec index, so the output order — and therefore
  every downstream aggregate (epoch means, variability, RunReport JSON)
  — is byte-identical to the serial path.  ``jobs=1`` executes in
  process, preserving the pre-existing code path exactly.
* **Run cache** — a content-keyed on-disk cache (:class:`RunCache`) maps
  the SHA-256 of the canonical :class:`RunSpec` (setup, model, dataset
  spec, every calibration constant, scale, seed, epochs, overrides,
  fault plan, report flag, relevant ``REPRO_*`` env knobs) plus a
  code-version salt to the finished record.  Repeated figure/benchmark/
  sweep invocations skip already-computed runs; any change to the spec,
  the calibration, or the source tree changes the key and misses.
  Entries carry a checksum, so corrupt or truncated files are detected
  and recomputed rather than trusted.

Worker failures never hang the pool: the failing run's spec and
traceback surface as a :class:`GridExecutionError` in the parent.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import multiprocessing
import os
import sys
import traceback
from collections.abc import Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from repro.data.dataset import DatasetSpec
from repro.experiments.calibration import Calibration
from repro.faults.plan import FaultPlan
from repro.telemetry.metrics import MetricsRegistry
from repro.workload.spec import WorkloadSpec

__all__ = [
    "GridExecutionError",
    "GridExecutor",
    "RunCache",
    "RunSpec",
    "code_salt",
    "default_cache_dir",
    "execute_grid",
    "resolve_cache",
    "spec_key",
]

#: on-disk entry layout version; bump when the payload schema changes
CACHE_FORMAT = 1

#: environment knobs that change what the same spec simulates; captured
#: into the cache key so an env flip cannot serve a stale record
_ENV_KEYS = ("REPRO_FAULT_PLAN",)


# -- spec ------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class RunSpec:
    """Complete, self-contained description of one grid run.

    A spec must carry everything a shared-nothing worker needs to
    reproduce the run from scratch; two specs with equal canonical forms
    are guaranteed to produce bit-identical records.  ``kind`` selects
    the runner: ``"single"`` → :func:`repro.experiments.runner.run_once`,
    ``"dist"`` → :func:`repro.experiments.dist_scenarios.run_distributed_once`
    (with ``n_nodes``/``policy`` in ``extra``).
    """

    setup: str
    model: str
    dataset: DatasetSpec
    calib: Calibration
    scale: float = 1.0
    seed: int = 0
    epochs: int | None = None
    monarch_overrides: dict | None = None
    fault_plan: FaultPlan | None = None
    report: bool = False
    #: serving workload; switches a "single" run to trace replay
    workload: WorkloadSpec | None = None
    kind: str = "single"
    #: kind-specific knobs as a sorted tuple of (name, value) pairs
    extra: tuple[tuple[str, object], ...] = ()

    def describe(self) -> str:
        """One-line human identification (error messages, logs)."""
        bits = [
            self.kind,
            self.setup,
            self.model,
            self.dataset.name,
            f"scale={self.scale:g}",
            f"seed={self.seed}",
        ]
        if self.epochs is not None:
            bits.append(f"epochs={self.epochs}")
        if self.workload is not None:
            bits.append(f"workload={self.workload.name}")
        if self.fault_plan is not None:
            bits.append("faulted")
        bits.extend(f"{k}={v}" for k, v in self.extra)
        return "RunSpec(" + " ".join(bits) + ")"


def _plain(obj: object) -> object:
    """Canonical plain-JSON form of a spec component (sorted, typed)."""
    if isinstance(obj, FaultPlan):
        return {"__type__": "FaultPlan", "events": obj.to_dict()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: dict[str, object] = {
            f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)
        }
        out["__type__"] = type(obj).__name__
        return out
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__} for the run-cache key")


@functools.lru_cache(maxsize=1)
def code_salt() -> str:
    """SHA-256 over the repro source tree — the cache's code-version salt.

    Hashing every ``.py`` file under the installed package means *any*
    source change (a calibration constant, a kernel tweak, a new field)
    invalidates every cached run — deliberately conservative: a stale hit
    is silent wrong data, a cold cache is just a recompute.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode("utf-8"))
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def spec_key(spec: RunSpec, salt: str | None = None) -> str:
    """Content key of one run: canonical spec + env knobs + code salt."""
    payload = {
        "format": CACHE_FORMAT,
        "spec": _plain(spec),
        "env": {k: os.environ.get(k, "") for k in _ENV_KEYS},
        "salt": salt if salt is not None else code_salt(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- execution (worker side) ----------------------------------------------
def _execute_spec(spec: RunSpec):
    """Run one spec to completion; the only function workers ever run."""
    if spec.kind == "single":
        from repro.experiments.runner import run_once

        return run_once(
            spec.setup,
            spec.model,
            spec.dataset,
            calib=spec.calib,
            scale=spec.scale,
            seed=spec.seed,
            epochs=spec.epochs,
            monarch_overrides=spec.monarch_overrides,
            fault_plan=spec.fault_plan,
            report=spec.report,
            workload=spec.workload,
        )
    if spec.kind == "dist":
        from repro.experiments.dist_scenarios import run_distributed_once

        extra = dict(spec.extra)
        return run_distributed_once(
            spec.setup,
            spec.model,
            spec.dataset,
            n_nodes=int(extra["n_nodes"]),
            policy=extra.get("policy", "static"),
            calib=spec.calib,
            scale=spec.scale,
            seed=spec.seed,
            epochs=spec.epochs,
        )
    raise ValueError(f"unknown RunSpec kind {spec.kind!r}")


def _worker_init(env: dict[str, str], parent_sys_path: list[str]) -> None:
    """Initializer for spawned workers: REPRO_* env + import path parity."""
    for key in [k for k in os.environ if k.startswith("REPRO_") and k not in env]:
        del os.environ[key]
    os.environ.update(env)
    for entry in parent_sys_path:
        if entry not in sys.path:
            sys.path.append(entry)


def _pool_worker(index: int, spec: RunSpec):
    """Execute one spec in a worker; never raises across the pipe.

    Exceptions are flattened to ``(describe, traceback_text)`` so the
    parent does not depend on the exception type being picklable.
    """
    try:
        return index, True, _execute_spec(spec)
    except BaseException:  # noqa: BLE001 - reported, then re-raised in parent
        return index, False, (spec.describe(), traceback.format_exc())


class GridExecutionError(RuntimeError):
    """A grid run failed (in a worker or in the pool machinery)."""

    def __init__(self, spec_desc: str, detail: str) -> None:
        self.spec_desc = spec_desc
        super().__init__(f"grid run failed for {spec_desc}:\n{detail}")


# -- run cache -------------------------------------------------------------
def default_cache_dir() -> Path:
    """Cache root: ``REPRO_RUN_CACHE``, else XDG cache, else ``~/.cache``."""
    env = os.environ.get("REPRO_RUN_CACHE", "").strip()
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-monarch" / "runs"


def _record_blob(record_raw: dict) -> str:
    return json.dumps(record_raw, sort_keys=True, separators=(",", ":"))


def _rehydrate(record_type: str, raw: dict):
    if record_type == "RunRecord":
        from repro.experiments.formats import RunRecord

        return RunRecord(**raw)
    if record_type == "DistRunRecord":
        from repro.experiments.dist_scenarios import DistRunRecord

        return DistRunRecord(**raw)
    if record_type == "ServeRunRecord":
        from repro.experiments.formats import ServeRunRecord

        return ServeRunRecord(**raw)
    raise ValueError(f"unknown cached record type {record_type!r}")


class RunCache:
    """Content-keyed on-disk cache of finished run records.

    Entries live at ``<root>/<key[:2]>/<key>.json`` and carry the
    canonical spec (for inspection), the record payload and a SHA-256
    checksum of the payload.  A failed parse or a checksum mismatch
    counts the entry as *corrupt*: the lookup misses and the run is
    recomputed (and the entry rewritten) — never trusted.

    Records round-trip bit-identically: every field is plain JSON, and
    JSON float serialization is shortest-round-trip, so the rehydrated
    record compares equal to the freshly computed one field by field.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / (key + ".json")

    def get(self, key: str):
        """The cached record for ``key``, or None (miss/corrupt)."""
        path = self._path(key)
        try:
            raw_text = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(raw_text)
            if payload["format"] != CACHE_FORMAT or payload["key"] != key:
                raise ValueError("wrong cache entry format/key")
            record_raw = payload["record"]
            digest = hashlib.sha256(
                _record_blob(record_raw).encode("utf-8")
            ).hexdigest()
            if digest != payload["checksum"]:
                raise ValueError("cache entry checksum mismatch")
            record = _rehydrate(payload["record_type"], record_raw)
        except (ValueError, KeyError, TypeError):
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, key: str, spec: RunSpec, record) -> None:
        """Store ``record`` under ``key`` (atomic: temp file + rename)."""
        record_raw = dataclasses.asdict(record)
        payload = {
            "format": CACHE_FORMAT,
            "key": key,
            "record_type": type(record).__name__,
            "spec": _plain(spec),
            "record": record_raw,
            "checksum": hashlib.sha256(
                _record_blob(record_raw).encode("utf-8")
            ).hexdigest(),
        }
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8"
        )
        os.replace(tmp, path)
        self.stores += 1

    # -- maintenance / introspection -------------------------------------
    def entries(self) -> list[Path]:
        """Every entry file currently on disk, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.json"))

    def total_bytes(self) -> int:
        """Aggregate size of all entries."""
        return sum(p.stat().st_size for p in self.entries())

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def stats(self) -> dict[str, int]:
        """This process's hit/miss/store/corrupt counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "corrupt": self.corrupt,
        }


def resolve_cache(cache) -> RunCache | None:
    """Normalize the user-facing ``cache=`` argument.

    ``None``/``False`` → disabled; ``True``/``"default"`` → the default
    directory; a path → that directory; a :class:`RunCache` → itself.
    """
    if cache is None or cache is False:
        return None
    if isinstance(cache, RunCache):
        return cache
    if cache is True or cache == "default":
        return RunCache()
    return RunCache(cache)


# -- executor (parent side) ------------------------------------------------
class GridExecutor:
    """Run a list of :class:`RunSpec`\\ s, optionally in parallel + cached.

    Results always come back in spec order, whatever the completion
    order, so aggregates built from them are independent of ``jobs``.
    ``execute_fn`` is a test seam for the in-process path only; worker
    processes always run the real runner.
    """

    def __init__(self, jobs: int = 1, cache=None, execute_fn=None) -> None:
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
        self.jobs = jobs
        self.cache = resolve_cache(cache)
        self.metrics = MetricsRegistry()
        self._execute = execute_fn if execute_fn is not None else _execute_spec

    def map(self, specs: Iterable[RunSpec]) -> list:
        """Execute every spec; records return in canonical spec order."""
        specs = list(specs)
        records: list = [None] * len(specs)
        pending: list[int] = []
        keys: list[str] | None = None
        alias: list[tuple[int, int]] = []
        if self.cache is not None:
            salt = code_salt()
            keys = [spec_key(s, salt=salt) for s in specs]
            first_of: dict[str, int] = {}
            for i, key in enumerate(keys):
                cached = self.cache.get(key)
                if cached is not None:
                    records[i] = cached
                elif key in first_of:
                    # identical spec earlier in this grid: compute once,
                    # copy the result (no aliasing of mutable records)
                    alias.append((i, first_of[key]))
                else:
                    first_of[key] = i
                    pending.append(i)
        else:
            pending = list(range(len(specs)))

        if pending:
            if self.jobs == 1 or len(pending) == 1:
                for i in pending:
                    records[i] = self._execute(specs[i])
            else:
                self._run_pool(specs, pending, records)

        if self.cache is not None and keys is not None:
            for i in pending:
                self.cache.put(keys[i], specs[i], records[i])
        for i, j in alias:
            records[i] = copy.deepcopy(records[j])

        m = self.metrics
        m.incr("grid.specs", len(specs))
        m.incr("grid.executed", len(pending))
        m.gauge("grid.jobs", float(self.jobs))
        if self.cache is not None:
            for name, value in self.cache.stats().items():
                m.set_counter(f"runcache.{name}", value)
        return records

    def _run_pool(self, specs: list[RunSpec], pending: list[int], records: list) -> None:
        ctx = multiprocessing.get_context("spawn")
        env = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
        workers = min(self.jobs, len(pending))
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(env, list(sys.path)),
        ) as pool:
            futures = [(i, pool.submit(_pool_worker, i, specs[i])) for i in pending]
            try:
                for i, fut in futures:
                    try:
                        index, ok, payload = fut.result()
                    except BrokenProcessPool as err:
                        raise GridExecutionError(
                            specs[i].describe(),
                            f"worker process died abruptly: {err}",
                        ) from err
                    if not ok:
                        desc, tb_text = payload
                        raise GridExecutionError(desc, tb_text)
                    records[index] = payload
            except BaseException:
                # Surface the failure now; don't wait on queued work.
                for _i, fut in futures:
                    fut.cancel()
                raise


def execute_grid(specs: Sequence[RunSpec], jobs: int = 1, cache=None) -> list:
    """One-shot convenience wrapper around :class:`GridExecutor`."""
    return GridExecutor(jobs=jobs, cache=cache).map(specs)
