"""MONARCH configuration.

Set up by the "system designer" before the job starts (paper §III-B): the
ordered storage tiers, the placement-handler thread-pool size (the paper's
evaluation uses 6), and the copy chunking used for background fetches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.blockmath import MIB

__all__ = ["MonarchConfig", "TierSpec"]


@dataclass(frozen=True)
class TierSpec:
    """One configured storage tier.

    ``mount_point`` names the backend in the global mount table; ``quota``
    optionally caps how much of the backend MONARCH may use (defaults to
    the backend's own capacity).  The last configured tier is the read-only
    PFS that already holds the dataset.
    """

    mount_point: str
    quota_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.quota_bytes is not None and self.quota_bytes <= 0:
            raise ValueError("quota_bytes must be positive when given")


@dataclass(frozen=True)
class MonarchConfig:
    """Full middleware configuration."""

    #: ordered tiers, fastest first; the last one is the read-only PFS
    tiers: tuple[TierSpec, ...] = ()
    #: dataset directory on the last tier, traversed at startup
    dataset_dir: str = "/dataset"
    #: background placement thread-pool size (paper evaluation: 6)
    placement_threads: int = 6
    #: chunk size for background full-file copies
    copy_chunk: int = 1 * MIB
    #: enable the full-file fetch on partial reads (paper §III-B); the
    #: ABL-FETCH ablation turns this off
    full_fetch_on_partial_read: bool = True
    #: eviction policy name: "none" (paper default), "lru", "fifo", "random"
    eviction: str = "none"
    #: placement policy name: "firstfit" (paper default, bit-identical to
    #: the pre-interface behaviour), "heat" (LFU/LRU promotion+eviction)
    #: or "predictor" (epoch-1-observing admission with eager placement);
    #: see :mod:`repro.core.policy`
    policy: str = "firstfit"
    #: transient-fault retries for a background copy before it gives up
    copy_retries: int = 3
    #: transient-fault retries for a PFS (last-resort) read before the
    #: error propagates to the framework
    read_retries: int = 3
    #: base of the exponential retry backoff (doubles per attempt)
    retry_backoff_s: float = 0.01
    #: consecutive faults on a tier before it is quarantined
    quarantine_threshold: int = 3
    #: cooldown before a quarantined tier is probed for re-admission
    probe_interval_s: float = 1.0

    def __post_init__(self) -> None:
        if len(self.tiers) < 2:
            raise ValueError("MONARCH needs at least two tiers (one local + the PFS)")
        if self.placement_threads < 1:
            raise ValueError("placement_threads must be >= 1")
        if self.copy_chunk < 1:
            raise ValueError("copy_chunk must be >= 1")
        if self.eviction not in ("none", "lru", "fifo", "random"):
            raise ValueError(f"unknown eviction policy {self.eviction!r}")
        # Kept as a literal tuple (not an import) so the config module
        # stays dependency-free; cross-checked against the policy
        # registry by tests/core/test_policy.py.
        if self.policy not in ("firstfit", "heat", "predictor"):
            raise ValueError(f"unknown placement policy {self.policy!r}")
        if self.copy_retries < 0 or self.read_retries < 0:
            raise ValueError("retry counts must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.quarantine_threshold < 1:
            raise ValueError("quarantine_threshold must be >= 1")
        if self.probe_interval_s <= 0:
            raise ValueError("probe_interval_s must be positive")
