import math
from dataclasses import replace

import numpy as np
import pytest

from cdcfund.bo import (
    BoConfig,
    expected_improvement,
    latin_hypercube,
    maximize_acquisition,
    optimize,
    probability_of_solvency,
    run_bo,
)
from cdcfund.bo import _argmax_ei
from cdcfund.fund import OMEGA, FundConfig, PolicyParams
from cdcfund.gp import Matern52Kernel, build_model, fit
from cdcfund.market import preset_market
from cdcfund.objective import ObjectiveSpec, ObjectiveValue


def synthetic_value(ce: float, margin: float | None = None) -> ObjectiveValue:
    """A zero ``ce`` marks a bankrupt evaluation; the solvency margin's sign
    follows that flag unless a margin is given."""
    if margin is None:
        margin = -1.0 if ce == 0.0 else 1.0
    return ObjectiveValue(
        ce=ce, eu=ce, eu_stderr=0.0, any_bankruptcy=(ce == 0.0),
        n_bankrupt=int(ce == 0.0), solvency_margin=margin,
    )


class TestLatinHypercube:
    def test_single_point_inside_box(self):
        rng = np.random.default_rng(0)
        pts = latin_hypercube(1, OMEGA, rng)
        assert pts.shape == (1, 2)
        assert 0.0 <= pts[0, 0] <= 3.0 and 0.0 <= pts[0, 1] <= 1.0

    def test_stratification(self):
        rng = np.random.default_rng(1)
        pts = latin_hypercube(10, OMEGA, rng)
        # sorted first coordinate falls one per stratum of width 0.3
        strata = np.floor(np.sort(pts[:, 0]) / 0.3).astype(int)
        assert np.array_equal(strata, np.arange(10))
        strata_theta = np.floor(np.sort(pts[:, 1]) / 0.1).astype(int)
        assert np.array_equal(strata_theta, np.arange(10))

    def test_deterministic_given_seed(self):
        a = latin_hypercube(10, OMEGA, np.random.default_rng(42))
        b = latin_hypercube(10, OMEGA, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_rejects_empty_design(self):
        with pytest.raises(ValueError):
            latin_hypercube(0, OMEGA, np.random.default_rng(0))


class FixedPosteriorModel:
    """Minimal stand-in exposing the posterior interface used by the acquisition."""

    def __init__(self, mean, std):
        self.mean = mean
        self.std = std


@pytest.fixture
def flat_model(monkeypatch):
    def fake_posterior(model, x):
        q = np.atleast_2d(np.asarray(x, dtype=float))
        mean = np.full(q.shape[0], model.mean)
        std = np.full(q.shape[0], model.std)
        if np.asarray(x).ndim == 1:
            return float(mean[0]), float(std[0])
        return mean, std

    monkeypatch.setattr("cdcfund.bo.posterior", fake_posterior)
    return FixedPosteriorModel


class TestExpectedImprovement:
    def test_at_incumbent_with_unit_deviation(self, flat_model):
        model = flat_model(mean=1.0, std=1.0)
        # sigma * pdf(0): 1/sqrt(2*pi)
        expected = 1.0 / math.sqrt(2.0 * math.pi)
        assert expected_improvement(model, np.array([0.5, 0.5]), f_star=1.0) == pytest.approx(
            expected, abs=1e-6
        )
        assert expected == pytest.approx(0.398942, abs=1e-6)

    def test_degenerate_deviation_no_improvement(self, flat_model):
        model = flat_model(mean=1.0, std=0.0)
        assert expected_improvement(model, np.array([0.5, 0.5]), f_star=1.5) == 0.0

    def test_degenerate_deviation_positive_gap(self, flat_model):
        model = flat_model(mean=2.0, std=0.0)
        assert expected_improvement(model, np.array([0.5, 0.5]), f_star=1.5) == pytest.approx(0.5)

    def test_three_sigma_gap(self, flat_model):
        model = flat_model(mean=3.0, std=1.0)
        pdf3 = math.exp(-4.5) / math.sqrt(2 * math.pi)
        cdf3 = 0.5 * (1 + math.erf(3 / math.sqrt(2)))
        expected = pdf3 + 3 * cdf3
        got = expected_improvement(model, np.array([0.5, 0.5]), f_star=0.0)
        assert got == pytest.approx(expected, rel=1e-9)
        assert got == pytest.approx(3.00038, abs=1e-4)

    def test_nonnegative_everywhere_sampled(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(12, 2))
        f = rng.normal(size=12)
        model = fit(X, f)
        q = rng.uniform(size=(500, 2))
        ei = expected_improvement(model, q, f_star=float(f.max()))
        assert np.all(ei >= 0.0)


class TestProbabilityOfSolvency:
    def test_normal_tail_probability(self, flat_model):
        assert probability_of_solvency(flat_model(mean=0.0, std=1.0), np.array([0.5, 0.5])) == 0.5
        got = probability_of_solvency(flat_model(mean=-1.0, std=0.5), np.array([0.5, 0.5]))
        assert got == pytest.approx(0.5 * (1 + math.erf(-2.0 / math.sqrt(2))), rel=1e-12)

    def test_degenerate_deviation_is_an_indicator(self, flat_model):
        x = np.array([[0.5, 0.5], [0.1, 0.2]])
        assert np.array_equal(probability_of_solvency(flat_model(mean=0.3, std=0.0), x), [1.0, 1.0])
        assert np.array_equal(probability_of_solvency(flat_model(mean=0.0, std=0.0), x), [0.0, 0.0])

    def test_unlikely_solvent_candidates_rank_last(self):
        # the left candidate has the larger product of expected improvement
        # and probability of solvency, but is probably bankrupt; it loses to
        # any candidate more likely solvent than not
        X = np.array([[0.1, 0.5], [0.5, 0.5], [0.9, 0.5]])
        model = build_model(X[1:], np.array([1.0, 1.2]), Matern52Kernel(0.3), 1e-6)
        margins = build_model(X, np.array([-0.05, 0.5, 0.5]), Matern52Kernel(0.3), 1e-2)
        candidates = np.array([[0.0, 0.5], [0.7, 0.5]])
        prob = probability_of_solvency(margins, candidates)
        product = expected_improvement(model, candidates, 1.2) * prob
        assert prob[0] < 0.5 < prob[1] and product[0] > product[1]
        best_x, _ = _argmax_ei(model, 1.2, candidates, margins)
        assert np.array_equal(best_x, candidates[1])


class TestMaximizeAcquisition:
    def test_budget_one_is_legal(self):
        model = build_model(
            np.array([[0.5, 0.5], [0.2, 0.8]]), np.array([1.0, 2.0]), Matern52Kernel(0.5), 1e-6
        )
        pt = maximize_acquisition(model, f_star=2.0, budget=1, rng=np.random.default_rng(0))
        assert pt.shape == (2,)
        assert 0.0 <= pt[0] <= 3.0 and 0.0 <= pt[1] <= 1.0

    def test_flat_training_data_still_explores(self):
        X = np.array([[0.5, 0.5], [0.25, 0.75]])
        model = build_model(X, np.array([1.0, 1.0]), Matern52Kernel(0.2), 1e-6)
        pt = maximize_acquisition(model, f_star=1.0, budget=64, rng=np.random.default_rng(1))
        norm = pt / np.array([3.0, 1.0])
        ei = expected_improvement(model, norm, f_star=1.0)
        assert ei > 0.0

    def test_argmax_contract_on_candidate_set(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(10, 2))
        model = build_model(X, rng.normal(size=10), Matern52Kernel(0.3), 1e-4)
        candidates = rng.uniform(size=(200, 2))
        best_x, best_ei = _argmax_ei(model, 0.5, candidates)
        ei = expected_improvement(model, candidates, f_star=0.5)
        assert best_ei == ei.max()
        assert np.array_equal(best_x, candidates[np.argmax(ei)])

    def test_deterministic_given_rng_state(self):
        model = build_model(
            np.array([[0.1, 0.1], [0.9, 0.9]]), np.array([1.0, 3.0]), Matern52Kernel(0.4), 1e-6
        )
        a = maximize_acquisition(model, 3.0, 128, np.random.default_rng(7))
        b = maximize_acquisition(model, 3.0, 128, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestOptimizeLoop:
    def test_finds_smooth_synthetic_optimum(self):
        def evaluate(pi, theta, k):
            ce = 10.0 - (pi - 1.8) ** 2 - 4.0 * (theta - 0.3) ** 2
            return synthetic_value(ce)

        trace = optimize(evaluate, BoConfig(n_init=8, n_total=40, seed=0))
        inc = trace.incumbent
        assert abs(inc.incumbent_pi - 1.8) < 0.2
        assert abs(inc.incumbent_theta - 0.3) < 0.2
        assert len(trace.records) == 40

    def test_incumbent_monotone_and_dominates_design(self):
        def evaluate(pi, theta, k):
            return synthetic_value(math.sin(pi) + theta)

        trace = optimize(evaluate, BoConfig(n_init=5, n_total=25, seed=1))
        ces = [r.incumbent_ce for r in trace.records]
        assert all(a <= b + 1e-12 for a, b in zip(ces, ces[1:]))
        design_best = max(r.ce for r in trace.records[:5])
        assert trace.incumbent.incumbent_ce >= design_best

    def test_deterministic_traces(self):
        def evaluate(pi, theta, k):
            return synthetic_value(-((pi - 1.0) ** 2) - theta**2)

        cfg = BoConfig(n_init=4, n_total=16, seed=3)
        a = optimize(evaluate, cfg)
        b = optimize(evaluate, cfg)
        for ra, rb in zip(a.records, b.records):
            assert (ra.pi, ra.theta, ra.ce) == (rb.pi, rb.theta, rb.ce)

    def test_zeroed_region_avoided_over_time(self):
        # left half of the box is "bankrupt": zero value
        def evaluate(pi, theta, k):
            if pi < 1.5:
                return synthetic_value(0.0)
            return synthetic_value(1.0 + (pi - 1.5) + theta)

        trace = optimize(evaluate, BoConfig(n_init=10, n_total=60, seed=5))
        zeroed = [(r.pi / 3.0, r.theta) for r in trace.records if r.ce == 0.0]
        assert zeroed, "the design phase should have probed the zero region"

        def near_zeroed(rec, known):
            return any(
                np.hypot(rec.pi / 3.0 - zp, rec.theta - zt) < 0.05 for zp, zt in known
            )

        picks = trace.records[10:]
        half = len(picks) // 2
        early = sum(near_zeroed(r, zeroed) for r in picks[:half])
        late = sum(near_zeroed(r, zeroed) for r in picks[half:])
        assert late <= early

    def test_finds_optimum_on_bankruptcy_boundary(self):
        # the value rises towards the line theta = pi / 3 and everything
        # beyond it is bankrupt, so the optimum (1.5, 0.5) sits on the line;
        # a surrogate that sees bankrupt points as zeros smooths the cliff
        # and stays well inside the solvent region
        def evaluate(pi, theta, k):
            margin = theta - pi / 3.0
            if margin < 0.0:
                return synthetic_value(0.0, margin)
            return synthetic_value(10.0 - 4.0 * (pi / 3.0 - 0.5) ** 2 - 3.0 * margin, margin)

        for seed in (0, 1):
            inc = optimize(evaluate, BoConfig(n_init=10, n_total=40, seed=seed)).incumbent
            assert np.hypot(inc.incumbent_pi / 3.0 - 0.5, inc.incumbent_theta - 0.5) < 0.03
            assert inc.incumbent_ce > 9.99

    def test_incumbent_is_best_solvent_evaluation(self):
        # a bankrupt evaluation never becomes the incumbent, whatever its ce
        def evaluate(pi, theta, k):
            bankrupt = pi < 1.5
            return ObjectiveValue(
                ce=5.0 if bankrupt else pi, eu=pi, eu_stderr=0.0, any_bankruptcy=bankrupt,
                n_bankrupt=int(bankrupt), solvency_margin=pi - 1.5,
            )

        trace = optimize(evaluate, BoConfig(n_init=6, n_total=10, seed=2))
        solvent_best = max(r.ce for r in trace.records if not r.any_bankruptcy)
        assert trace.incumbent.incumbent_ce == solvent_best
        assert trace.incumbent.incumbent_pi >= 1.5

    @pytest.mark.parametrize("iteration", [3, 12])
    @pytest.mark.parametrize(
        "bad", [{"solvency_margin": float("nan")}, {"solvency_margin": float("inf")},
                {"ce": float("nan")}],
    )
    def test_rejects_non_finite_values(self, iteration, bad):
        def evaluate(pi, theta, k):
            value = synthetic_value(1.0 + pi + theta)
            return replace(value, **bad) if k == iteration else value

        with pytest.raises(ValueError, match=f"evaluation {iteration} "):
            optimize(evaluate, BoConfig(n_init=5, n_total=15, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BoConfig(n_init=1)
        with pytest.raises(ValueError):
            BoConfig(n_init=10, n_total=10)
        with pytest.raises(ValueError):
            BoConfig(acquisition_budget=0)


class TestRunBo:
    def test_tiny_fund_objective_run(self):
        cfg = FundConfig(gamma=3.0, horizon=30)
        spec = ObjectiveSpec(cfg=cfg, mkt=preset_market("M1"), n_paths=40, seed=0)
        trace = run_bo(spec, BoConfig(n_init=4, n_total=10, seed=0))
        assert len(trace.records) == 10
        assert trace.incumbent.incumbent_ce >= max(r.ce for r in trace.records[:4])
        # evaluated points stay inside the search box
        assert all(0.0 <= r.pi <= 3.0 and 0.0 <= r.theta <= 1.0 for r in trace.records)

    def test_crn_toggle_changes_draws(self):
        cfg = FundConfig(gamma=3.0, horizon=25)
        spec = ObjectiveSpec(cfg=cfg, mkt=preset_market("M1"), n_paths=30, seed=0)
        crn = run_bo(spec, BoConfig(n_init=4, n_total=8, seed=0, common_random_numbers=True))
        indep = run_bo(spec, BoConfig(n_init=4, n_total=8, seed=0, common_random_numbers=False))
        # same design points, different objective draws after the first record
        assert crn.records[1].pi == indep.records[1].pi
        assert crn.records[1].ce != indep.records[1].ce

    def test_independent_draws_do_not_repeat_across_runs(self, monkeypatch):
        # without common random numbers each evaluation draws from its own
        # seed; runs at neighbouring seeds must not reuse each other's draws
        seeds = []

        def fake_evaluate(policy, spec):
            seeds.append(spec.seed)
            return synthetic_value(1.0 + policy.pi * (1.0 - policy.pi / 3.0) + policy.theta)

        monkeypatch.setattr("cdcfund.bo.evaluate_policy", fake_evaluate)
        cfg = BoConfig(n_init=4, n_total=12, seed=0, common_random_numbers=False)
        per_run = []
        for s in (5, 6):
            seeds.clear()
            spec = ObjectiveSpec(cfg=FundConfig(), mkt=preset_market("M1"), n_paths=10, seed=s)
            run_bo(spec, cfg)
            per_run.append(list(seeds))
        assert all(len(set(run)) == 12 for run in per_run)
        assert not set(per_run[0]) & set(per_run[1])
        assert not {5, 6} & set(per_run[0] + per_run[1])
