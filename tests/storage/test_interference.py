"""Unit tests for the PFS interference models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage.interference import (
    ARInterference,
    BurstInterference,
    CompositeInterference,
    ConstantInterference,
)


class TestConstant:
    def test_fixed_share(self):
        m = ConstantInterference(0.7)
        assert m.share_at(0.0) == 0.7
        assert m.share_at(1e6) == 0.7

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantInterference(0.0)
        with pytest.raises(ValueError):
            ConstantInterference(1.5)

    def test_reset_noop(self):
        m = ConstantInterference(0.5)
        m.reset()
        assert m.share_at(10.0) == 0.5


class TestAR:
    def make(self, **kw):
        defaults = dict(mean_load=0.3, sigma=0.05, rho=0.9, interval=1.0, max_load=0.8)
        defaults.update(kw)
        return ARInterference(np.random.default_rng(0), **defaults)

    def test_share_bounded(self):
        m = self.make()
        shares = [m.share_at(float(t)) for t in range(2000)]
        assert all(0.2 - 1e-9 <= s <= 1.0 for s in shares)

    def test_starts_at_mean(self):
        m = self.make()
        assert m.share_at(0.0) == pytest.approx(0.7)

    def test_long_run_mean_near_target(self):
        m = self.make(sigma=0.02)
        shares = [m.share_at(float(t)) for t in range(20000)]
        assert np.mean(shares) == pytest.approx(0.7, abs=0.1)

    def test_lazy_sampling_is_consistent(self):
        """share_at(t) must not depend on intermediate query points."""
        m1 = self.make()
        m2 = self.make()
        a = m1.share_at(500.0)
        for t in range(0, 500, 7):
            m2.share_at(float(t))
        b = m2.share_at(500.0)
        assert a == b

    def test_reset_rewinds_state(self):
        m = self.make()
        m.share_at(100.0)
        m.reset()
        assert m.share_at(0.0) == pytest.approx(0.7)

    def test_block_draws_equal_scalar_recurrence(self):
        """Buffered noise gives the scalar recurrence's loads bit for bit,
        across several refills and a reset that leaves drawn noise unused."""
        kw = dict(mean_load=0.5, sigma=0.3, rho=0.9, interval=0.5, max_load=0.8)
        ref_rng = np.random.default_rng(11)

        def scalar_loads(n):
            loads = [kw["mean_load"]]
            while len(loads) < n:
                eps = ref_rng.normal(0.0, kw["sigma"])
                load = kw["rho"] * loads[-1] + (1 - kw["rho"]) * kw["mean_load"] + eps
                loads.append(min(max(load, 0.0), kw["max_load"]))
            return loads

        m = ARInterference(np.random.default_rng(11), **kw)
        # 699 then 1,199 steps: the reset falls mid-block, and both runs
        # cross a refill (the block is a few hundred draws).
        lengths = (700, 1200)
        runs = []
        for n in lengths:
            shares = [m.share_at(t) for t in (3.0, 0.0, 222.0, 9.5, (n - 1) * 0.5)]
            shares += [m.share_at(k * 0.5) for k in range(n)]
            runs.append((shares, list(m._loads)))
            m.reset()
        for (shares, loads), n in zip(runs, lengths):
            ref = scalar_loads(n)
            assert loads == ref
            assert shares[5:] == [1.0 - x for x in ref]
        assert any(x in (0.0, kw["max_load"]) for x in runs[1][1]), "clip never hit"

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ARInterference(rng, mean_load=1.0)
        with pytest.raises(ValueError):
            ARInterference(rng, rho=1.0)
        with pytest.raises(ValueError):
            ARInterference(rng, interval=0.0)
        with pytest.raises(ValueError):
            ARInterference(rng, mean_load=0.5, max_load=0.4)


class TestBurst:
    def make(self, **kw):
        defaults = dict(quiet_share=0.9, burst_share=0.3, p_burst=0.05,
                        p_recover=0.2, interval=1.0)
        defaults.update(kw)
        return BurstInterference(np.random.default_rng(1), **defaults)

    def test_only_two_levels(self):
        m = self.make()
        shares = {m.share_at(float(t)) for t in range(5000)}
        assert shares <= {0.9, 0.3}
        assert len(shares) == 2  # both states visited

    def test_burst_fraction_matches_stationary(self):
        m = self.make()
        shares = [m.share_at(float(t)) for t in range(50000)]
        frac = sum(1 for s in shares if s == 0.3) / len(shares)
        expected = 0.05 / (0.05 + 0.2)
        assert frac == pytest.approx(expected, abs=0.05)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            BurstInterference(rng, quiet_share=0.5, burst_share=0.6)
        with pytest.raises(ValueError):
            BurstInterference(rng, p_burst=0.0)
        with pytest.raises(ValueError):
            BurstInterference(rng, interval=0.0)

    def test_reset(self):
        m = self.make()
        m.share_at(1000.0)
        m.reset()
        assert m.share_at(0.0) == 0.9  # starts quiet


class TestComposite:
    def test_product_of_shares(self):
        m = CompositeInterference(ConstantInterference(0.5), ConstantInterference(0.8))
        assert m.share_at(3.0) == pytest.approx(0.4)

    def test_requires_models(self):
        with pytest.raises(ValueError):
            CompositeInterference()

    def test_reset_forwards(self):
        ar = ARInterference(np.random.default_rng(0), mean_load=0.2)
        m = CompositeInterference(ar, ConstantInterference(0.9))
        m.share_at(100.0)
        m.reset()
        assert m.share_at(0.0) == pytest.approx(0.8 * 0.9)
