import functools
import math
import os

import numpy as np
import pytest

from cdcfund.fund import FundConfig
from cdcfund.idc import idc_terminal_benefits, idc_trajectories
from cdcfund.market import (
    MarketParams,
    RandomStream,
    _normal_rows,
    expected_log_return,
    normal_matrix,
    preset_market,
)
from reference_fund import log_return_increment


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
    """The one-step log-return ``expected_log_return(mkt, pi) * dt + pi *
    sigma * sqrt(dt) * z`` of a constant-mix portfolio, through the entry
    points that take ``pi`` and ``dt``."""

    def test_riskless_is_exact(self):
        # pi = 0 removes the drift excess and the diffusion entirely: an
        # account takes the same values whatever its draws
        mkt = preset_market("M1")
        assert expected_log_return(mkt, 0.0) == mkt.r
        normals = np.stack([np.full(FundConfig().n_steps, z) for z in (-3.0, 0.0, 1.7)])
        values = idc_trajectories(FundConfig(), 0.0, mkt, normals, generations=(41,))[41]
        assert (values == values[0]).all()

    def test_full_risky_drift(self):
        # hand evaluation: 0.065 - 0.5 * 0.15**2
        mkt = preset_market("M1")
        assert expected_log_return(mkt, 1.0) == pytest.approx(0.053750, abs=1e-12)

    def test_mixed_drift(self):
        # hand evaluation: 0.3*0.045 + 0.02 - 0.5*0.09*0.0225
        mkt = preset_market("M1")
        assert expected_log_return(mkt, 0.3) == pytest.approx(0.0324875, abs=1e-12)

    def test_rejects_short_position(self):
        cfg, mkt = FundConfig(), preset_market("M1")
        normals = normal_matrix(0, 2, cfg.n_steps)
        with pytest.raises(ValueError, match="short selling"):
            idc_terminal_benefits(cfg, -0.1, mkt, normals, generations=(41,))
        with pytest.raises(ValueError, match="short selling"):
            idc_trajectories(cfg, -0.1, mkt, normals, generations=(41,))

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="^dt"):
            FundConfig(dt=0.0)
        with pytest.raises(ValueError, match="^dt"):
            FundConfig(dt=-1 / 12)

    def test_sample_mean_converges(self):
        # the scalar reference model's step
        mkt = preset_market("M2")
        pi = 0.7
        z = RandomStream(123, 0).normals(1_000_000)
        increments = log_return_increment(mkt, pi, 1.0, z)
        target = pi * (mkt.mu - mkt.r) + mkt.r - 0.5 * pi**2 * mkt.sigma**2
        stderr = pi * mkt.sigma / math.sqrt(z.size)
        assert abs(increments.mean() - target) < 4 * stderr

    def test_riskless_path_deterministic(self):
        # an account at pi = 0 compounds every contribution at exactly r
        mkt = preset_market("M1")
        cfg = FundConfig()
        normals = normal_matrix(5, 1, cfg.n_steps)
        values = idc_trajectories(cfg, 0.0, mkt, normals, generations=(41,))[41][0]
        steps = np.arange(1, values.size)
        expected = sum(
            np.where(steps > 12 * j, np.exp(mkt.r * (steps - 12 * j) / 12), 0.0)
            for j in range(40)
        )
        assert values[0] == cfg.y
        assert np.allclose(values[1:], expected, rtol=1e-12)


@functools.lru_cache(maxsize=None)
def _stream_rows(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """The first ``n_steps`` draws of each stream ``(seed, p)``, one row per path."""
    return np.array([RandomStream(seed, p).normals(n_steps) for p in range(n_paths)])


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

    @pytest.mark.parametrize("bounds", [(0, 70), (0, 1, 70), (0, 31, 33, 64, 70), (0, 40, 70)])
    def test_row_ranges_stack_to_the_matrix(self, bounds):
        # any split, inside or across the generation blocks, draws the same
        # bits in the same time-major layout
        full = normal_matrix(7, 70, 13)
        parts = [_normal_rows(7, lo, hi, 13) for lo, hi in zip(bounds, bounds[1:])]
        assert all(part.T.flags.c_contiguous and not part.flags.writeable for part in parts)
        assert np.vstack(parts).tobytes() == full.tobytes()

    @pytest.mark.parametrize("cpus", [1, 2, 3, 10_000])
    @pytest.mark.parametrize("n_paths", [1, 2, 3, 2501])
    def test_threads_are_capped_by_the_paths(self, monkeypatch, cpus, n_paths):
        # a stub executor maps in this thread and records the thread count it
        # was asked for, so no thread starts whatever the CPU count
        asked = []

        class Executor:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", Executor)
        # a seed per CPU count, so no case finds its draws in memory freed by another
        mat = normal_matrix(cpus, n_paths, 13)
        threads = min(cpus, n_paths)
        assert asked == ([threads] if threads > 1 else [])
        assert np.array_equal(mat, _stream_rows(cpus, n_paths, 13))
        assert not mat.flags.writeable and mat.T.flags.c_contiguous

    def test_matrix_stored_time_major(self):
        mat = normal_matrix(12, 5, 30)
        assert mat.shape == (5, 30)
        assert mat.T.flags.c_contiguous
        assert not mat.flags.writeable and not mat.T.flags.writeable

    def test_matrix_readonly(self):
        a = normal_matrix(11, 3, 20)
        with pytest.raises(ValueError):
            a[0, 0] = 1.0

    @pytest.mark.parametrize("n_paths, n_steps, name", [(2.5, 10, "n_paths"), (3, 10.0, "n_steps")])
    def test_matrix_rejects_non_integral_counts(self, n_paths, n_steps, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            normal_matrix(0, n_paths, n_steps)

    @pytest.mark.parametrize("n_steps", [0, -1])
    def test_matrix_rejects_step_count_below_one(self, n_steps):
        # the path count is checked with the simulators' draw checks
        with pytest.raises(ValueError, match="^n_steps"):
            normal_matrix(0, 3, n_steps)
