"""Block-device service-time models.

A :class:`Device` is a FIFO queue of ``channels`` independent
*full-bandwidth lanes* in front of a latency + bandwidth transfer model:
total device throughput is ``channels * bandwidth`` and a single stream
achieves ``bandwidth``.  Every profile here uses one lane, which is the
right model for a saturating SATA SSD (its aggregate equals its stream
bandwidth; extra concurrency only queues).  Reads and writes share the
lane queue, capturing the read/write contention that matters when
MONARCH's background copies land on the tier the framework is reading.

Profiles are intentionally coarse: the reproduction calibrates *ratios*
(local SSD vs contended Lustre), not vendor datasheets.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.simkernel.core import Event, Simulator
from repro.simkernel.resources import Resource
from repro.storage.blockmath import JitterStream, mib_per_s, transfer_time

__all__ = ["Device", "DeviceProfile", "SATA_SSD", "NVME_GEN3", "HDD_7200", "RAMDISK"]


@dataclass(frozen=True)
class DeviceProfile:
    """Static performance description of a block device."""

    name: str
    read_bw_mib: float
    write_bw_mib: float
    read_latency_us: float
    write_latency_us: float
    channels: int = 4
    jitter_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.read_bw_mib <= 0 or self.write_bw_mib <= 0:
            raise ValueError(f"{self.name}: bandwidths must be positive")
        if self.channels < 1:
            raise ValueError(f"{self.name}: channels must be >= 1")


#: The paper's node-local 240 GB SATA SSD (119 GiB usable partition).
SATA_SSD = DeviceProfile(
    name="sata-ssd",
    read_bw_mib=520.0,
    write_bw_mib=300.0,
    read_latency_us=90.0,
    write_latency_us=60.0,
    channels=1,
    jitter_sigma=0.03,
)

#: An NVMe drive for the multi-tier ablation (ABL-TIERS).
NVME_GEN3 = DeviceProfile(
    name="nvme-gen3",
    read_bw_mib=3200.0,
    write_bw_mib=1400.0,
    read_latency_us=20.0,
    write_latency_us=18.0,
    channels=1,
    jitter_sigma=0.02,
)

#: A spinning disk, for completeness in device tests.
HDD_7200 = DeviceProfile(
    name="hdd-7200",
    read_bw_mib=180.0,
    write_bw_mib=160.0,
    read_latency_us=4200.0,
    write_latency_us=4500.0,
    channels=1,
    jitter_sigma=0.05,
)

#: RAM-backed tier for the §VI future-work hierarchy experiment.
RAMDISK = DeviceProfile(
    name="ramdisk",
    read_bw_mib=9000.0,
    write_bw_mib=8000.0,
    read_latency_us=2.0,
    write_latency_us=2.0,
    channels=1,
    jitter_sigma=0.0,
)


class Device:
    """A simulated block device with queue-depth contention."""

    def __init__(
        self,
        sim: Simulator,
        profile: DeviceProfile,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.sim = sim
        self.profile = profile
        self.rng = rng
        # Block-buffered draws for the device-owned stream (bit-identical
        # to scalar jitter_factor calls; see JitterStream).
        self._jitter = (
            JitterStream(rng, profile.jitter_sigma)
            if rng is not None and profile.jitter_sigma > 0
            else None
        )
        self._channel = Resource(sim, capacity=profile.channels, name=f"dev:{profile.name}")
        self.busy_monitor = self._channel.monitor

    def read_time(self, nbytes: int) -> float:
        """Uncontended service time for a read of ``nbytes``."""
        return transfer_time(
            nbytes,
            mib_per_s(self.profile.read_bw_mib),
            self.profile.read_latency_us * 1e-6,
        )

    def write_time(self, nbytes: int) -> float:
        """Uncontended service time for a write of ``nbytes``."""
        return transfer_time(
            nbytes,
            mib_per_s(self.profile.write_bw_mib),
            self.profile.write_latency_us * 1e-6,
        )

    def read(self, nbytes: int) -> Generator[Any, Any, int]:
        """Timed read: queue for a channel, hold it for the service time."""
        yield self.issue(nbytes, False)
        return nbytes

    def write(self, nbytes: int) -> Generator[Any, Any, int]:
        """Timed write: queue for a channel, hold it for the service time."""
        yield self.issue(nbytes, True)
        return nbytes

    def issue(self, nbytes: int, write: bool) -> Event:
        """Start one timed transfer; returns its channel hold.

        The one timing model behind :meth:`read`/:meth:`write` and the
        local file system's reads: the jittered service time is drawn
        from the device stream now.
        """
        t = self.write_time(nbytes) if write else self.read_time(nbytes)
        js = self._jitter
        if js is not None:
            t *= js.factor()
        return self._channel.hold(t)

    @property
    def channel(self) -> Resource:
        """The underlying channel resource."""
        return self._channel

    @property
    def queue_len(self) -> int:
        """Requests waiting for a channel right now."""
        return self._channel.queue_len
