"""Seeded, deterministic fault injection for the simulated hierarchy.

Declare *what goes wrong and when* with a :class:`FaultPlan` (transient
I/O errors with probability p, latency spikes, hard ``tier_down``
events), then arm it with a :class:`FaultInjector`, which wraps the
planned mounts' file systems in delegating :class:`FaultyFileSystem`
proxies (:func:`is_fault_wrapped` tells a wrapped mount apart).  The
middleware's degradation machinery (per-tier health tracking, read
fallback, copy retry, quarantine/re-admission) lives in
:mod:`repro.core`; this package only produces the failures.

Everything is driven by a dedicated ``"faults"`` RNG stream, so a given
(seed, plan) pair replays the exact same fault sequence.
"""

from repro.faults.injector import (
    FaultInjector,
    FaultyFileSystem,
    TierFaultState,
    is_fault_wrapped,
)
from repro.faults.plan import FaultPlan, LatencySpike, TierDown, TransientFaults
from repro.storage.base import IOFaultError, TierFailedError

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "FaultyFileSystem",
    "IOFaultError",
    "LatencySpike",
    "TierDown",
    "TierFaultState",
    "TierFailedError",
    "TransientFaults",
    "is_fault_wrapped",
]
