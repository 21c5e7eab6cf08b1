import math

import numpy as np
import pytest

from cdcfund.fund import FundConfig, PolicyParams, simulate_batch
from cdcfund.idc import idc_terminal_benefits, idc_trajectories
from cdcfund.market import (
    MarketParams,
    RandomStream,
    expected_log_return,
    normal_matrix,
    preset_market,
)
from draws import draws

M1 = preset_market("M1")
CFG = FundConfig()


def annual_factors(normals, pi, mkt=M1, cfg=CFG):
    """``exp(spy * drift + scale * sum_k z_k)`` per path (rows) and year
    (columns), each year's draws added in step order."""
    spy = cfg.steps_per_year
    z = normals.reshape(len(normals), cfg.horizon, spy)
    z_sum = z[:, :, 0].copy()
    for k in range(1, spy):
        z_sum += z[:, :, k]
    drift = expected_log_return(mkt, pi) * cfg.dt
    scale = pi * mkt.sigma * math.sqrt(cfg.dt)
    return np.exp(z_sum * scale + spy * drift)


def single_account(generation, pi, mkt, stream):
    """One benchmark account on the draws of one market path's stream."""
    normals = stream.normals(CFG.n_steps)[None]
    return idc_trajectories(CFG, pi, mkt, normals=normals, generations=(generation,))[generation][0]


class TestDeterministicOracles:
    def test_risk_free_terminal_is_geometric_sum(self):
        # contribution k years before retirement compounds to exp(r*k)
        values = single_account(60, 0.0, M1, RandomStream(0, 0))
        expected = sum(math.exp(0.02 * k) for k in range(1, 41))
        assert values[-1] == pytest.approx(expected, rel=1e-9)

    def test_zero_rate_terminal_is_contribution_count(self):
        mkt = MarketParams(mu=0.05, r=0.0, sigma=0.2)
        values = single_account(60, 0.0, mkt, RandomStream(0, 0))
        assert values[-1] == pytest.approx(40.0, rel=1e-9)

    def test_batch_terminals_match_oracle(self):
        out = idc_terminal_benefits(CFG, 0.0, M1, draws(0, 3), generations=(40, 70, 100))
        expected = sum(math.exp(0.02 * k) for k in range(1, 41))
        for i in (40, 70, 100):
            assert np.allclose(out[i], expected, rtol=1e-9)


class TestCommonRandomNumbers:
    @pytest.mark.parametrize("market, pi, theta, dt", [
        ("M1", 0.865, 0.345, 1 / 12), ("M2", 0.5, 0.9, 1 / 52), ("M3", 0.3, 0.5, 1.0),
    ])
    def test_fund_asset_and_account_grow_by_one_annual_factor(self, market, pi, theta, dt):
        # over each solvent year the fund's recorded asset, from its
        # post-jump value, and generation 60's account, from its value after
        # the contribution, grow by the same factor of that year's draws
        cfg, mkt = FundConfig(dt=dt), preset_market(market)
        normals = normal_matrix(3, 8, cfg.n_steps)
        batch = simulate_batch(cfg, PolicyParams(pi, theta), mkt, normals, record_state=True)
        values = idc_trajectories(cfg, pi, mkt, normals, generations=(60,))[60]
        assert not batch.any_bankruptcy
        factors = annual_factors(normals, pi, mkt, cfg)
        spy, n = cfg.steps_per_year, cfg.n_generations
        t = np.arange(21, 60)  # the account's years after its first
        post_jump = batch.assets[:, t * spy] + (n * cfg.y - batch.payments[:, t - 1])
        assert np.array_equal(batch.assets[:, (t + 1) * spy], post_jump * factors[:, t])
        k = t - 20
        start = values[:, k * spy] + cfg.y
        assert np.array_equal(values[:, (k + 1) * spy], start * factors[:, t])

    def test_single_path_consumes_matrix_row(self):
        values = single_account(41, 0.5, M1, RandomStream(3, 1))
        batch = idc_trajectories(CFG, 0.5, M1, draws(3, 2), generations=(41,))
        assert np.array_equal(values, batch[41][1])

    @pytest.mark.parametrize("mkt, pi", [(M1, 0.37), (preset_market("M3"), 3.0)])
    def test_same_results_for_either_draw_layout(self, mkt, pi):
        time_major = normal_matrix(8, 30, CFG.n_steps)
        row_major = np.ascontiguousarray(time_major)
        gens = tuple(range(40, 101, 6))
        a = idc_terminal_benefits(CFG, pi, mkt, time_major, generations=gens)
        b = idc_terminal_benefits(CFG, pi, mkt, row_major, generations=gens)
        c = idc_trajectories(CFG, pi, mkt, time_major, generations=(41,))
        d = idc_trajectories(CFG, pi, mkt, row_major, generations=(41,))
        for i in gens:
            assert np.array_equal(a[i], b[i])
        assert np.array_equal(c[41], d[41])

    def test_annual_factors_match_full_growth_matrix(self):
        # the benefit of the generation retiring at the horizon is rebuilt,
        # bit for bit, from the annual factors of the whole draw matrix
        normals = np.ascontiguousarray(normal_matrix(9, 20, CFG.n_steps))
        pi = 1.3
        annual = annual_factors(normals, pi)
        cum = np.concatenate([np.ones((20, 1)), np.cumprod(annual, axis=1)], axis=1)
        s = np.concatenate([np.zeros((20, 1)), np.cumsum(1.0 / cum, axis=1)], axis=1)
        expected = CFG.y * cum[:, 100] * (s[:, 100] - s[:, 60])
        out = idc_terminal_benefits(CFG, pi, M1, normals, generations=(100,))
        assert np.array_equal(out[100], expected)

    def test_terminal_consistent_between_recursion_and_cumulative_form(self):
        gens = tuple(range(40, 101, 10))
        closed = idc_terminal_benefits(CFG, 0.9, M1, draws(1, 5), generations=gens)
        trajs = idc_trajectories(CFG, 0.9, M1, draws(1, 5), generations=gens)
        for i in gens:
            assert np.allclose(closed[i], trajs[i][:, -1], rtol=1e-9)


class TestAccountShape:
    def test_sample_count_and_start(self):
        values = single_account(41, 1.2, M1, RandomStream(0, 0))
        assert values.shape == (481,)
        assert values[0] == CFG.y

    def test_never_negative(self):
        traj = idc_trajectories(CFG, 3.0, preset_market("M3"), draws(2, 20),
                                generations=(41,))[41]
        assert traj.min() >= 0.0

    def test_terminal_monotone_in_each_draw(self):
        base = normal_matrix(5, 1, CFG.n_steps).copy()
        term0 = idc_terminal_benefits(CFG, 0.8, M1, base, generations=(41,))[41][0]
        bumped = base.copy()
        bumped[0, 200] += 0.5  # month inside generation 41's window
        term1 = idc_terminal_benefits(CFG, 0.8, M1, bumped, generations=(41,))[41][0]
        assert term1 > term0

    def test_draw_shape_validated(self):
        normals = normal_matrix(0, 3, CFG.n_steps - 1)
        with pytest.raises(ValueError, match="normals must have shape"):
            idc_trajectories(CFG, 0.5, M1, normals, generations=(41,))
        with pytest.raises(ValueError, match="normals must have shape"):
            idc_terminal_benefits(CFG, 0.5, M1, normals, generations=(41,))

    @pytest.mark.parametrize("pi", [math.nan, math.inf, -0.1])
    @pytest.mark.parametrize("generations", [(), (41,)])
    def test_pi_validated_before_any_work(self, pi, generations):
        # checked ahead of the generations and of the draws, here misshapen
        normals = np.empty((0, 3))
        for benchmark in (idc_terminal_benefits, idc_trajectories):
            with pytest.raises(ValueError, match="^pi must be"):
                benchmark(CFG, pi, M1, normals, generations=generations)

    def test_generation_window_validated(self):
        with pytest.raises(ValueError, match="generation"):
            single_account(39, 0.5, M1, RandomStream(0, 0))
        with pytest.raises(ValueError, match="generation"):
            single_account(101, 0.5, M1, RandomStream(0, 0))


class TestPairedWithFund:
    def test_same_seed_pairs_with_fund_batch(self):
        policy = PolicyParams(pi=0.865, theta=0.345)
        batch = simulate_batch(CFG, policy, M1, draws(4, 6))
        terms = idc_terminal_benefits(CFG, policy.pi, M1, draws(4, 6),
                                      generations=(41,))
        # same draw matrix: both sides are deterministic in (seed, path)
        again = idc_terminal_benefits(CFG, policy.pi, M1, draws(4, 6),
                                      generations=(41,))
        assert np.array_equal(terms[41], again[41])
        assert batch.payments.shape == (6, 100)
