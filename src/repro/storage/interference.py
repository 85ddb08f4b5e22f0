"""Cross-job interference models for the shared PFS.

The paper's motivation experiments show "high performance variability under
the vanilla-lustre setup, since Lustre is concurrently accessed by other
jobs executing in the Frontera supercomputer".  We model that as a
stochastic *available-bandwidth share* in ``(0, 1]`` that scales the PFS's
effective client bandwidth over time.

Models are sampled lazily on a fixed grid: ``share_at(t)`` advances an
internal recurrence to ``floor(t / interval)`` steps, so no simulation
events are spent on the background load and a run remains a pure function
of the RNG stream.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ARInterference",
    "BurstInterference",
    "CompositeInterference",
    "ConstantInterference",
    "InterferenceModel",
]


#: normals :class:`ARInterference` draws per refill of its noise buffer
_AR_BLOCK = 512


class InterferenceModel:
    """Interface: available bandwidth share at simulated time ``t``."""

    def share_at(self, t: float) -> float:
        """Fraction of nominal PFS bandwidth available at time ``t``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Rewind the internal state (a new run reuses the model)."""
        raise NotImplementedError


class ConstantInterference(InterferenceModel):
    """Fixed bandwidth share — a perfectly quiet (or steadily loaded) PFS."""

    def __init__(self, share: float = 1.0) -> None:
        if not 0.0 < share <= 1.0:
            raise ValueError(f"share must be in (0, 1], got {share}")
        self.share = share

    def share_at(self, t: float) -> float:
        return self.share

    def reset(self) -> None:  # stateless
        return


class ARInterference(InterferenceModel):
    """AR(1) background load: smooth, correlated congestion.

    Load ``x`` follows ``x' = rho * x + (1-rho) * mean + eps`` on a grid of
    ``interval`` seconds, clipped to ``[0, max_load]``; the available share
    is ``1 - x``.  With ``rho`` near 1 this produces the slowly-wandering
    minutes-long congestion episodes seen on production file systems, which
    is what makes per-run epoch times vary.

    The noise ``eps`` is drawn from ``rng`` in blocks of ``_AR_BLOCK``, as
    :class:`~repro.storage.blockmath.JitterStream` does: a block draw
    consumes the bit stream exactly as that many scalar draws, so the
    loads equal the scalar recurrence bit for bit as long as nothing else
    draws from ``rng`` (every builder passes a dedicated stream).  The
    clip makes the recurrence itself sequential, so it stays a loop.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        mean_load: float = 0.5,
        sigma: float = 0.08,
        rho: float = 0.97,
        interval: float = 1.0,
        max_load: float = 0.85,
    ) -> None:
        if not 0.0 <= mean_load < 1.0:
            raise ValueError(f"mean_load must be in [0, 1), got {mean_load}")
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {rho}")
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if not mean_load <= max_load < 1.0:
            raise ValueError(f"max_load must be in [mean_load, 1), got {max_load}")
        self.rng = rng
        self.mean_load = mean_load
        self.sigma = sigma
        self.rho = rho
        self.interval = interval
        self.max_load = max_load
        # Memoized per-step loads: _loads[k] is the load after k updates.
        # Keeping the history (instead of only the latest value) makes
        # share_at a pure function of t for any already-materialized step.
        self._loads = [mean_load]
        # Noise drawn from ``rng`` but not yet used, and the next index.
        self._eps: list[float] = []
        self._ei = 0

    def share_at(self, t: float) -> float:
        target = int(t // self.interval)
        loads = self._loads
        if len(loads) <= target:
            self._advance(target)
        return 1.0 - loads[target]

    def _advance(self, target: int) -> None:
        """Extend the load history through step ``target``."""
        loads = self._loads
        rho = self.rho
        drift = (1 - rho) * self.mean_load
        max_load = self.max_load
        eps = self._eps
        i = self._ei
        load = loads[-1]
        for _ in range(target + 1 - len(loads)):
            if i == len(eps):
                eps = self._eps = self.rng.normal(0.0, self.sigma, _AR_BLOCK).tolist()
                i = 0
            load = rho * load + drift + eps[i]
            i += 1
            load = min(max(load, 0.0), max_load)
            loads.append(load)
        self._ei = i

    def reset(self) -> None:
        # The buffered noise stays: the scalar form would draw it next.
        self._loads = [self.mean_load]


class BurstInterference(InterferenceModel):
    """Two-state Markov (quiet / burst) background load.

    Models checkpoint-style bursts from co-located jobs: in the quiet state
    the share is ``quiet_share``; bursts drop it to ``burst_share``.  State
    dwell times are geometric on the sampling grid.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        quiet_share: float = 0.9,
        burst_share: float = 0.35,
        p_burst: float = 0.02,
        p_recover: float = 0.10,
        interval: float = 1.0,
    ) -> None:
        if not 0.0 < burst_share <= quiet_share <= 1.0:
            raise ValueError("require 0 < burst_share <= quiet_share <= 1")
        if not (0.0 < p_burst < 1.0 and 0.0 < p_recover < 1.0):
            raise ValueError("transition probabilities must be in (0, 1)")
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.rng = rng
        self.quiet_share = quiet_share
        self.burst_share = burst_share
        self.p_burst = p_burst
        self.p_recover = p_recover
        self.interval = interval
        # Memoized per-step states (see ARInterference._loads).
        self._states = [False]

    def share_at(self, t: float) -> float:
        target = int(t // self.interval)
        states = self._states
        while len(states) <= target:
            u = self.rng.random()
            bursting = states[-1]
            if bursting:
                if u < self.p_recover:
                    bursting = False
            elif u < self.p_burst:
                bursting = True
            states.append(bursting)
        return self.burst_share if states[target] else self.quiet_share

    def reset(self) -> None:
        self._states = [False]


class CompositeInterference(InterferenceModel):
    """Product of independent interference sources.

    Used for the heavy-contention regime: a slowly wandering base load
    (AR) multiplied by checkpoint-style bursts.  Bursts matter beyond
    their effect on the *mean*: a training job whose compute rate sits
    just under the mean I/O rate stalls during every burst and — with a
    bounded prefetch buffer — cannot bank the quiet periods, so variance
    itself costs wall time (this is what makes AlexNet's 200 GiB Lustre
    epochs slower than LeNet's in the paper despite identical bytes).
    """

    def __init__(self, *models: InterferenceModel) -> None:
        if not models:
            raise ValueError("composite needs at least one model")
        self.models = models

    def share_at(self, t: float) -> float:
        share = 1.0
        for m in self.models:
            share *= m.share_at(t)
        return share

    def reset(self) -> None:
        for m in self.models:
            m.reset()
