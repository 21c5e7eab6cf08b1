import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcfund.analysis import (
    benefit_quantile,
    generation_ce,
    ir_roughness_batch,
    tail_cdf_points,
    welfare_rows,
)
from cdcfund.fund import FundConfig, PolicyParams, simulate_batch
from cdcfund.market import normal_matrix, preset_market


def roughness(values) -> float:
    """Roughness of one path, as the batch function computes it."""
    return float(ir_roughness_batch(np.array([values], dtype=float))[0])


def roughness_reference(values) -> float:
    """The roughness formula, one increment pair at a time."""
    if any(math.isnan(v) for v in values):
        return math.nan
    d = [b - a for a, b in zip(values, values[1:])]
    ratios = [abs(d1 + d2) / (abs(d1) + abs(d2)) for d1, d2 in zip(d, d[1:])
              if abs(d1) + abs(d2) > 0.0]
    return sum(ratios) / len(ratios) if ratios else math.nan


class TestIrRoughness:
    def test_monotone_path_is_one(self):
        assert roughness([0.0, 1.0, 2.0, 3.0]) == 1.0

    def test_alternating_path_is_zero(self):
        assert roughness([0.0, 1.0, 0.0, 1.0]) == 0.0

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            roughness([1.0, 2.0])

    def test_zero_denominator_pairs_skipped(self):
        # increments 0, 0, 1: the (0, 0) pair is dropped, the (0, 1) pair is 1
        assert roughness([1.0, 1.0, 1.0, 2.0]) == 1.0

    def test_all_flat_is_nan(self):
        assert math.isnan(roughness([2.0, 2.0, 2.0]))

    def test_nan_path_is_nan(self):
        assert math.isnan(roughness([1.0, float("nan"), 2.0, 3.0]))

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=50)
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_triangle_inequality(self, values):
        r = roughness(values)
        assert math.isnan(r) or 0.0 <= r <= 1.0

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        paths = rng.normal(size=(20, 60)).cumsum(axis=1)
        batch = ir_roughness_batch(paths)
        for p in range(20):
            assert batch[p] == pytest.approx(roughness_reference(list(paths[p])), abs=1e-12)

    def test_batch_nan_row(self):
        paths = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, np.nan, 1.0, 2.0]])
        out = ir_roughness_batch(paths)
        assert out[0] == 1.0 and math.isnan(out[1])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_blocks_reproduce_a_single_pass(self, monkeypatch, order):
        # rows are scored in blocks; each row's bits equal those of one pass
        # over the whole matrix, NaN and all-flat rows included
        rng = np.random.default_rng(2)
        paths = rng.normal(size=(2_500, 40)).cumsum(axis=1)
        paths[[3, 1_500], 7] = np.nan
        paths[2_100] = 1.0
        paths = np.asarray(paths, order=order)
        blocked = ir_roughness_batch(paths)
        monkeypatch.setattr("cdcfund.analysis._ROUGHNESS_BLOCK", len(paths))
        assert np.array_equal(ir_roughness_batch(paths), blocked, equal_nan=True)

    def test_memory_layout_does_not_change_the_bits(self):
        paths = np.random.default_rng(2).normal(size=(2_500, 40)).cumsum(axis=1)
        assert np.array_equal(
            ir_roughness_batch(paths), ir_roughness_batch(np.asfortranarray(paths)),
            equal_nan=True,
        )

    def test_temporaries_stay_below_the_input_size(self):
        # a 10k-path tracked account of 481 samples, as `analyze` scores it
        paths = np.random.default_rng(3).normal(size=(10_000, 481)).cumsum(axis=1)
        tracemalloc.start()
        try:
            ir_roughness_batch(paths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < paths.nbytes


class TestBenefitQuantile:
    def test_degenerate_sample(self):
        v = np.full(100, 7.5)
        assert benefit_quantile(v, 0.01) == 7.5
        assert benefit_quantile(v, 0.5) == 7.5

    def test_nearest_rank_median(self):
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        assert benefit_quantile(v, 0.5) == 3.0  # rank ceil(0.5*6) = 3

    def test_quantile_is_observed_value(self):
        rng = np.random.default_rng(1)
        v = rng.lognormal(size=501)
        for q in (0.01, 0.1, 0.25, 0.5, 0.9):
            assert benefit_quantile(v, q) in v

    def test_unpaid_counts_as_zero(self):
        v = np.array([np.nan, 5.0, 6.0, 7.0])
        assert benefit_quantile(v, 0.25) == 0.0

    def test_validates_q(self):
        with pytest.raises(ValueError):
            benefit_quantile(np.ones(3), 0.0)


class TestGenerationCe:
    def test_degenerate_batch_returns_the_value(self):
        v = np.full(50, 12.0)
        for gamma in (0.5, 1.0, 3.0, 10.0):
            ce_cdc, ce_idc = generation_ce(v, v, gamma)
            assert ce_cdc == pytest.approx(12.0, rel=1e-12)
            assert ce_idc == pytest.approx(12.0, rel=1e-12)

    def test_log_utility_gives_geometric_mean(self):
        v = np.array([1.0, 4.0])
        ce, _ = generation_ce(v, v, 1.0)
        assert ce == pytest.approx(2.0, rel=1e-12)

    def test_unpaid_benefit_undefined_for_high_gamma(self):
        cdc = np.array([np.nan, 5.0, 6.0])
        idc = np.array([4.0, 5.0, 6.0])
        ce_cdc, ce_idc = generation_ce(cdc, idc, 3.0)
        assert ce_cdc is None
        assert ce_idc > 0

    def test_unpaid_benefit_enters_as_zero_for_low_gamma(self):
        cdc = np.array([np.nan, 4.0, 4.0])
        idc = np.array([4.0, 4.0, 4.0])
        ce_cdc, _ = generation_ce(cdc, idc, 0.5)
        # mean utility (2/3) * U(4) inverted: ((2/3) * 2 * sqrt(4) / 2)**2
        assert ce_cdc == pytest.approx((2.0 * 4.0 ** 0.5 / 3.0) ** 2, rel=1e-12)

    def test_risk_penalty_ordering(self):
        rng = np.random.default_rng(2)
        risky = rng.lognormal(mean=2.0, sigma=0.8, size=4000)
        ce_low, _ = generation_ce(risky, risky, 0.5)
        ce_high, _ = generation_ce(risky, risky, 5.0)
        assert ce_high < ce_low < risky.mean()


class TestFundingRatioTrajectory:
    def test_starts_at_exactly_one(self):
        cfg = FundConfig(horizon=10)
        batch = simulate_batch(
            cfg, PolicyParams(0.5, 0.3), preset_market("M1"),
            normal_matrix(0, 20, cfg.n_steps), record_funding_ratios=True,
        )
        mean = batch.mean_funding_ratio
        assert mean[0] == 1.0
        assert mean.shape == (121,)

    def test_deterministic_fund_stays_at_one(self):
        cfg = FundConfig(horizon=15)
        batch = simulate_batch(
            cfg, PolicyParams(0.0, 0.0), preset_market("M1"),
            normal_matrix(0, 3, cfg.n_steps), record_funding_ratios=True,
        )
        mean = batch.mean_funding_ratio
        assert np.allclose(mean, 1.0, rtol=1e-12)


class TestWelfareAssembly:
    def test_rows_paired_and_ordered(self):
        rng = np.random.default_rng(3)
        cdc = {40: rng.lognormal(3, 0.2, 100), 41: rng.lognormal(3, 0.2, 100)}
        idc = {40: rng.lognormal(3, 0.5, 100), 41: rng.lognormal(3, 0.5, 100), 42: rng.lognormal(3, 0.5, 100)}
        rows = welfare_rows(cdc, idc, gamma=3.0)
        assert [(r.generation, r.plan) for r in rows] == [
            (40, "CDC"), (40, "IDC"), (41, "CDC"), (41, "IDC")
        ]
        for r in rows:
            assert r.q01 <= r.median
            assert r.ce is not None and r.ce >= 0

    def test_tail_cdf_points(self):
        v = np.arange(1.0, 101.0)
        pts = tail_cdf_points(v, max_cdf=0.05)
        assert pts.shape == (5, 2)
        assert np.array_equal(pts[:, 0], np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert np.array_equal(pts[:, 1], np.array([0.01, 0.02, 0.03, 0.04, 0.05]))
        assert np.all(np.diff(pts[:, 0]) >= 0)
