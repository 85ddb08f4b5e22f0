"""Seeded trace generators: Zipfian, diurnal, and job-churn traffic.

Every draw comes from a named :class:`~repro.simkernel.rng.RngRegistry`
stream, so a (spec, seed, scale) triple always yields the same trace —
byte-identical through :meth:`~repro.workload.trace.Trace.to_jsonl` —
regardless of what other streams the run consumes.

Counts and rates in the spec are full-scale; both are multiplied by the
run's ``scale`` here, which keeps the arrival *horizon* (count / rate)
constant across scales (see :mod:`repro.workload.spec`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace, TraceRequest

__all__ = ["generate_trace", "zipf_popularity"]


def zipf_popularity(n_files: int, s: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A random popularity order plus Zipf(s) probabilities over ranks.

    Returns ``(order, probs)``: ``order[k]`` is the file index holding
    popularity rank ``k`` and ``probs[k] ∝ (k + 1) ** -s`` its request
    probability.  The order is a seeded permutation, so popularity is
    decoupled from on-disk layout.
    """
    if n_files < 1:
        raise ValueError("need at least one file")
    order = rng.permutation(n_files)
    weights = np.arange(1, n_files + 1, dtype=np.float64) ** -s
    return order, weights / weights.sum()


def _scaled_count(full: int, scale: float) -> int:
    return max(1, int(round(full * scale)))


def _scaled_rate(full: float, scale: float) -> float:
    rate = full * scale
    if rate <= 0.0:
        raise ValueError(f"workload rate must be positive, got {full} * {scale}")
    return rate


def _read_requests(
    ts: np.ndarray,
    ranks: np.ndarray,
    order: np.ndarray,
    sizes: Sequence[int],
    read_bytes: int,
    off_rng: np.random.Generator,
    job: str = "",
) -> list[TraceRequest]:
    """Reads at ``ts`` against popularity-ranked files, uniform offsets.

    Every field is computed as a column; the requests are built from the
    columns' Python values, so a trace holds no numpy scalars.
    """
    u = off_rng.random(len(ts))
    idx = order[ranks]
    size = np.asarray(sizes, dtype=np.int64)[idx]
    nbytes = np.minimum(size, read_bytes)
    # int() truncates, as the cast does: every product is non-negative
    offset = (u * (size - nbytes + 1)).astype(np.int64)
    return [
        TraceRequest(t=t, kind="read", file_index=i, offset=o, nbytes=n, job=job)
        for t, i, o, n in zip(ts.tolist(), idx.tolist(), offset.tolist(), nbytes.tolist())
    ]


def _gen_zipf(spec: WorkloadSpec, sizes: Sequence[int], scale: float,
              rngs, read_bytes: int) -> Trace:
    order, probs = zipf_popularity(len(sizes), spec.zipf_s,
                                   rngs.stream("workload-popularity"))
    n = _scaled_count(spec.requests, scale)
    rate = _scaled_rate(spec.rate_rps, scale)
    gaps = rngs.stream("workload-arrivals").exponential(1.0 / rate, size=n)
    ts = np.cumsum(gaps)
    ranks = rngs.stream("workload-files").choice(len(sizes), size=n, p=probs)
    requests = _read_requests(ts, ranks, order, sizes, read_bytes,
                              rngs.stream("workload-offsets"))
    meta = {
        "kind": "zipf",
        "rate_rps": rate,
        "zipf_s": spec.zipf_s,
        "popularity": [int(i) for i in order],
    }
    return Trace(workload=spec.name, meta=meta, requests=requests)


def _gen_diurnal(spec: WorkloadSpec, sizes: Sequence[int], scale: float,
                 rngs, read_bytes: int) -> Trace:
    """Inhomogeneous Poisson arrivals by thinning a rate-``lam_max`` process.

    ``rate(t) = mean * (1 + amplitude * sin(2π t / period))`` — candidates
    arrive at the peak rate and survive with probability
    ``rate(t) / lam_max``, the standard exact thinning construction.
    """
    if not 0.0 <= spec.diurnal_amplitude < 1.0:
        raise ValueError("diurnal_amplitude must be in [0, 1)")
    if spec.duration_s <= 0.0 or spec.diurnal_period_s <= 0.0:
        raise ValueError("diurnal workloads need duration_s and diurnal_period_s")
    mean_rate = _scaled_rate(spec.rate_rps, scale)
    amp = spec.diurnal_amplitude
    lam_max = mean_rate * (1.0 + amp)
    arr_rng = rngs.stream("workload-arrivals")

    pieces: list[np.ndarray] = []
    t = 0.0
    # Draw candidate gaps in deterministic chunks until past the horizon.
    # Seeding the running sum with the carried ``t`` keeps every addition
    # in the same sequential order as adding the gaps one by one.
    while t < spec.duration_s:
        chunk = arr_rng.exponential(1.0 / lam_max,
                                    size=max(64, int(lam_max * spec.duration_s / 4)))
        arrivals = np.add.accumulate(np.concatenate(([t], chunk)))[1:]
        inside = int(np.searchsorted(arrivals, spec.duration_s, side="left"))
        pieces.append(arrivals[:inside])
        t = float(arrivals[min(inside, len(arrivals) - 1)])
    cand_arr = np.concatenate(pieces)
    accept_p = (1.0 + amp * np.sin(2.0 * math.pi * cand_arr / spec.diurnal_period_s)) / (1.0 + amp)
    keep = rngs.stream("workload-thinning").random(len(cand_arr)) < accept_p
    ts = cand_arr[keep]
    if len(ts) == 0:  # pathological tiny scale: keep one request at mid-horizon
        ts = np.array([spec.duration_s / 2.0])

    order, probs = zipf_popularity(len(sizes), spec.zipf_s,
                                   rngs.stream("workload-popularity"))
    ranks = rngs.stream("workload-files").choice(len(sizes), size=len(ts), p=probs)
    requests = _read_requests(ts, ranks, order, sizes, read_bytes,
                              rngs.stream("workload-offsets"))
    meta = {
        "kind": "diurnal",
        "mean_rate_rps": mean_rate,
        "amplitude": amp,
        "period_s": spec.diurnal_period_s,
        "duration_s": spec.duration_s,
        "popularity": [int(i) for i in order],
    }
    return Trace(workload=spec.name, meta=meta, requests=requests)


def _gen_churn(spec: WorkloadSpec, scale: float, rngs,
               read_bytes: int, job_sizes: Sequence[Sequence[int]]) -> Trace:
    if spec.n_jobs < 1:
        raise ValueError("churn workloads need n_jobs >= 1")
    if len(job_sizes) != spec.n_jobs:
        raise ValueError(f"expected {spec.n_jobs} per-job size lists, got {len(job_sizes)}")
    # Job arrivals are cluster churn, not request traffic: their cadence
    # does not scale.  The first job lands at t=0 so the replay is never
    # idle at the start.
    job_rng = rngs.stream("workload-jobs")
    gaps = job_rng.exponential(spec.job_interarrival_s, size=spec.n_jobs)
    starts = np.concatenate(([0.0], np.cumsum(gaps)[:-1]))

    requests: list[TraceRequest] = []
    reads_per_job = _scaled_count(spec.job_reads, scale)
    rate = _scaled_rate(spec.job_rate_rps, scale)
    for i, start in enumerate(starts):
        job = f"job{i + 1}"
        sizes = job_sizes[i]
        order, probs = zipf_popularity(len(sizes), spec.zipf_s,
                                       rngs.stream(f"workload-popularity-{job}"))
        jgaps = rngs.stream(f"workload-arrivals-{job}").exponential(
            1.0 / rate, size=reads_per_job)
        ts = float(start) + np.cumsum(jgaps)
        ranks = rngs.stream(f"workload-files-{job}").choice(
            len(sizes), size=reads_per_job, p=probs)
        requests.append(TraceRequest(t=float(start), kind="job_start",
                                     job=job, share=1.0))
        requests.extend(_read_requests(ts, ranks, order, sizes, read_bytes,
                                       rngs.stream(f"workload-offsets-{job}"),
                                       job=job))
        requests.append(TraceRequest(t=float(ts[-1]), kind="job_end", job=job))

    requests.sort(key=TraceRequest.sort_key)
    meta = {
        "kind": "churn",
        "n_jobs": spec.n_jobs,
        "rate_rps": rate,
        "reads_per_job": reads_per_job,
        "job_starts": [float(s) for s in starts],
    }
    return Trace(workload=spec.name, meta=meta, requests=requests)


def generate_trace(
    spec: WorkloadSpec,
    sizes: Sequence[int],
    scale: float,
    rngs,
    *,
    mean_record_bytes: int = 0,
    job_sizes: Sequence[Sequence[int]] | None = None,
) -> Trace:
    """Generate the request stream for ``spec`` over a file namespace.

    ``sizes`` are the byte sizes of the shared namespace's files, in file
    order; churn workloads instead read their own datasets, described by
    ``job_sizes`` (one size list per job).  ``rngs`` is the run's
    :class:`~repro.simkernel.rng.RngRegistry`; all draws come from
    ``workload-*`` streams.  ``mean_record_bytes`` supplies the read size
    when the spec leaves ``read_bytes`` at 0.
    """
    read_bytes = spec.read_bytes or mean_record_bytes
    if read_bytes < 1:
        raise ValueError("read size must be positive; set spec.read_bytes "
                         "or pass mean_record_bytes")
    if spec.kind == "zipf":
        trace = _gen_zipf(spec, sizes, scale, rngs, read_bytes)
    elif spec.kind == "diurnal":
        trace = _gen_diurnal(spec, sizes, scale, rngs, read_bytes)
    elif spec.kind == "churn":
        if job_sizes is None:
            raise ValueError("churn workloads need job_sizes")
        trace = _gen_churn(spec, scale, rngs, read_bytes, job_sizes)
    else:
        raise ValueError(f"unknown workload kind {spec.kind!r}")
    trace.seed = rngs.seed
    trace.meta["scale"] = scale
    trace.meta["read_bytes"] = read_bytes
    return trace
