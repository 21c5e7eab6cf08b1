import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcfund.market import (
    MARKET_PRESETS,
    MarketParams,
    RandomStream,
    expected_log_return,
    growth_factors,
    log_return_increment,
    normal_matrix,
    preset_market,
)


class TestPresets:
    @pytest.mark.parametrize(
        "name, mu, r, sigma, rho",
        [
            ("M1", 0.065, 0.02, 0.15, 0.3),
            ("M2", 0.065, 0.01, 0.25, 0.22),
            ("M3", 0.065, 0.01, 0.50, 0.11),
        ],
    )
    def test_calibrations(self, name, mu, r, sigma, rho):
        mkt = preset_market(name)
        assert (mkt.mu, mkt.r, mkt.sigma) == (mu, r, sigma)
        assert round((mkt.mu - mkt.r) / mkt.sigma, 3) == rho

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown market preset"):
            preset_market("M4")

    def test_invalid_params(self):
        with pytest.raises(ValueError, match="sigma"):
            MarketParams(mu=0.06, r=0.02, sigma=0.0)
        with pytest.raises(ValueError, match="mu >= r"):
            MarketParams(mu=0.01, r=0.02, sigma=0.1)

    @pytest.mark.parametrize("field", ["mu", "r", "sigma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_params(self, field, value):
        params = {"mu": 0.065, "r": 0.02, "sigma": 0.15, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            MarketParams(**params)


class TestLogReturnIncrement:
    def test_riskless_is_exact(self):
        # pi = 0 removes the drift excess and the diffusion entirely, leaving
        # the exact product r * dt
        mkt = preset_market("M1")
        for z in (-3.0, 0.0, 1.7):
            assert log_return_increment(mkt, 0.0, 1 / 12, z) == mkt.r * (1 / 12)

    def test_full_risky_drift(self):
        # hand evaluation: 0.065 - 0.5 * 0.15**2
        mkt = preset_market("M1")
        assert log_return_increment(mkt, 1.0, 1.0, 0.0) == pytest.approx(0.053750, abs=1e-12)

    def test_mixed_drift(self):
        # hand evaluation: 0.3*0.045 + 0.02 - 0.5*0.09*0.0225
        mkt = preset_market("M1")
        assert log_return_increment(mkt, 0.3, 1.0, 0.0) == pytest.approx(0.0324875, abs=1e-12)
        assert expected_log_return(mkt, 0.3) == pytest.approx(0.0324875, abs=1e-12)

    def test_rejects_short_position(self):
        with pytest.raises(ValueError, match="short"):
            log_return_increment(preset_market("M1"), -0.1, 1 / 12, 0.0)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            log_return_increment(preset_market("M1"), 0.5, 0.0, 0.0)

    def test_sample_mean_converges(self):
        mkt = preset_market("M2")
        pi = 0.7
        z = RandomStream(123, 0).normals(1_000_000)
        increments = log_return_increment(mkt, pi, 1.0, z)
        target = pi * (mkt.mu - mkt.r) + mkt.r - 0.5 * pi**2 * mkt.sigma**2
        stderr = pi * mkt.sigma / math.sqrt(z.size)
        assert abs(increments.mean() - target) < 4 * stderr

    def test_riskless_path_deterministic(self):
        mkt = preset_market("M1")
        z = RandomStream(5, 0).normals(1200)
        path = np.cumprod(growth_factors(mkt, 0.0, 1 / 12, z))
        years = np.arange(1, 1201) / 12
        assert np.allclose(path, np.exp(mkt.r * years), rtol=1e-12)


class TestGrowthFactors:
    @given(
        pi=st.floats(0.0, 3.0),
        dt=st.sampled_from([1 / 52, 1 / 12, 1 / 4, 1.0]),
        market=st.sampled_from(sorted(MARKET_PRESETS)),
    )
    @settings(max_examples=50, deadline=None)
    def test_in_place_form_bit_identical(self, pi, dt, market):
        # one year block of time-major draws, as the simulators pass it
        mkt = preset_market(market)
        z = normal_matrix(1, 64, 24)[:, 12:24].T
        out = np.full(z.shape, np.nan)
        assert growth_factors(mkt, pi, dt, z, out=out) is out
        assert np.array_equal(out, np.exp(log_return_increment(mkt, pi, dt, z)))
        assert np.array_equal(out, growth_factors(mkt, pi, dt, z))

    def test_in_place_form_keeps_checks(self):
        mkt, out = preset_market("M1"), np.empty(3)
        with pytest.raises(ValueError, match="short selling"):
            growth_factors(mkt, -0.1, 1 / 12, np.zeros(3), out=out)
        with pytest.raises(ValueError, match="dt"):
            growth_factors(mkt, 0.5, 0.0, np.zeros(3), out=out)


class TestRandomStream:
    def test_bit_identical_replay(self):
        a = RandomStream(42, 7).normals(1000)
        b = RandomStream(42, 7).normals(1000)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = RandomStream(42, 0).normals(100)
        b = RandomStream(42, 1).normals(100)
        assert not np.array_equal(a, b)

    def test_validates_range(self):
        with pytest.raises(ValueError):
            RandomStream(-1, 0)
        with pytest.raises(ValueError):
            RandomStream(0, 2**64)

    def test_validates_integer_keys(self):
        with pytest.raises(ValueError, match="^seed must be an integer"):
            RandomStream(1.5, 0)
        with pytest.raises(ValueError, match="^path_index must be an integer"):
            RandomStream(1, 2.0)
        assert np.array_equal(RandomStream(np.uint64(3), np.int64(1)).normals(5),
                              RandomStream(3, 1).normals(5))

    def test_matrix_rows_match_streams(self):
        mat = normal_matrix(9, 4, 50)
        for p in range(4):
            assert np.array_equal(mat[p], RandomStream(9, p).normals(50))

    def test_matrix_rows_match_streams_across_blocks(self):
        # more paths than one generation block, and not a multiple of it
        mat = normal_matrix(2**64 - 1, 70, 13)
        for p in range(70):
            assert np.array_equal(mat[p], RandomStream(2**64 - 1, p).normals(13))

    def test_matrix_stored_time_major(self):
        mat = normal_matrix(12, 5, 30)
        assert mat.shape == (5, 30)
        assert mat.T.flags.c_contiguous
        assert not mat.flags.writeable and not mat.T.flags.writeable

    def test_matrix_cached_and_readonly(self):
        a = normal_matrix(11, 3, 20)
        with pytest.raises(ValueError):
            a[0, 0] = 1.0

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_matrix_rejects_step_count_below_one(self, n_steps):
        # the path count is checked with the simulators' draw checks
        with pytest.raises(ValueError, match="^n_steps"):
            normal_matrix(0, 3, n_steps)
