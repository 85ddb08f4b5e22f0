"""Transfer-time arithmetic shared by device and PFS models.

Service time for one I/O of ``nbytes`` is modelled as

    t = fixed_latency + nbytes / bandwidth

optionally scaled by an interference factor and a small multiplicative
jitter.  Helpers here keep the math in one place and handle unit
conversions (the public API speaks bytes and seconds; profiles are written
in MiB/s and microseconds for readability).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "KIB",
    "MIB",
    "GIB",
    "JitterStream",
    "mib_per_s",
    "transfer_time",
    "jitter_factor",
    "jitter_from_normal",
    "split_into_chunks",
]

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024


def mib_per_s(mib: float) -> float:
    """Convert a bandwidth in MiB/s to bytes/s."""
    return mib * MIB


def transfer_time(nbytes: int, bandwidth_bps: float, latency_s: float) -> float:
    """Latency-plus-streaming service time for a single transfer."""
    if nbytes < 0:
        raise ValueError(f"negative transfer size: {nbytes}")
    if bandwidth_bps <= 0:
        raise ValueError(f"non-positive bandwidth: {bandwidth_bps}")
    if latency_s < 0:
        raise ValueError(f"negative latency: {latency_s}")
    return latency_s + nbytes / bandwidth_bps


def jitter_factor(rng: np.random.Generator | None, sigma: float) -> float:
    """Multiplicative lognormal jitter with unit median.

    ``sigma`` of 0 (or no RNG) disables jitter.  The factor is clipped to
    [0.25, 4.0] so a single unlucky draw cannot dominate an epoch.
    """
    if rng is None or sigma <= 0:
        return 1.0
    return jitter_from_normal(rng.normal(0.0, sigma))


class JitterStream:
    """Block-buffered jitter draws, bit-identical to the scalar path.

    Wraps one ``np.random.Generator`` + ``sigma`` pair and pre-draws
    normals in blocks (``Generator.normal(0, s, n)`` consumes the bit
    stream exactly as ``n`` successive scalar draws, and vectorized
    ``np.exp`` matches the scalar ufunc elementwise — both asserted in
    tests), so the per-request cost drops from a numpy scalar call to a
    list index.  Every consumer of the wrapped generator must draw
    through this stream, or the pre-buffering would reorder the stream
    against the scalar equivalent; that is why the owning backend keeps
    exactly one stream per generator and routes every draw here.
    """

    __slots__ = ("rng", "sigma", "_fs", "_i", "_block")

    def __init__(self, rng: np.random.Generator, sigma: float, block: int = 512) -> None:
        self.rng = rng
        self.sigma = sigma
        self._fs: list[float] = []
        self._i = 0
        self._block = block

    def _refill(self) -> None:
        zs = self.rng.normal(0.0, self.sigma, self._block)
        self._fs = np.clip(np.exp(zs), 0.25, 4.0).tolist()
        self._i = 0

    def factor(self) -> float:
        """Next jitter factor — equals ``jitter_factor(rng, sigma)``."""
        i = self._i
        if i >= len(self._fs):
            self._refill()
            i = 0
        self._i = i + 1
        return self._fs[i]


def jitter_from_normal(x: float) -> float:
    """The jitter factor for a pre-drawn ``normal(0, sigma)`` sample.

    Split out of :func:`jitter_factor` so a copy task can draw a whole
    file's raw normals up front (preserving RNG stream order) and turn
    them into factors later, bit-identically to the inline draw.
    """
    f = float(np.exp(x))
    return min(max(f, 0.25), 4.0)


def split_into_chunks(offset: int, nbytes: int, chunk: int) -> list[tuple[int, int]]:
    """Split ``[offset, offset+nbytes)`` on ``chunk``-aligned boundaries.

    Returns ``(offset, length)`` pieces, each fully inside one chunk — used
    to map a PFS read onto its stripe objects.
    """
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    if nbytes <= 0:
        return []
    pieces: list[tuple[int, int]] = []
    pos = offset
    end = offset + nbytes
    while pos < end:
        boundary = (pos // chunk + 1) * chunk
        take = min(end, boundary) - pos
        pieces.append((pos, take))
        pos += take
    return pieces
