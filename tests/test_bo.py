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
from cdcfund.bo import _argmax_acquisition, _normal_cdf
from cdcfund.fund import FundConfig, PolicyParams, _year_totals, simulate_batch
from cdcfund.gp import GpModel, Matern52Kernel, build_model, fit
from cdcfund.market import preset_market
from cdcfund.objective import ObjectiveSpec, ObjectiveValue, value_from_batch
from draws import record_generated


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
        pts = latin_hypercube(1, rng)
        assert pts.shape == (1, 2)
        assert 0.0 <= pts[0, 0] <= 3.0 and 0.0 <= pts[0, 1] <= 1.0

    def test_stratification(self):
        rng = np.random.default_rng(1)
        pts = latin_hypercube(10, rng)
        # sorted first coordinate falls one per stratum of width 0.3
        strata = np.floor(np.sort(pts[:, 0]) / 0.3).astype(int)
        assert np.array_equal(strata, np.arange(10))
        strata_theta = np.floor(np.sort(pts[:, 1]) / 0.1).astype(int)
        assert np.array_equal(strata_theta, np.arange(10))

    def test_deterministic_given_seed(self):
        a = latin_hypercube(10, np.random.default_rng(42))
        b = latin_hypercube(10, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_rejects_empty_design(self):
        with pytest.raises(ValueError):
            latin_hypercube(0, np.random.default_rng(0))


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


class TestNormalCdf:
    # Phi(x) computed once with mpmath at 50 significant digits
    # (mpmath.ncdf under mp.dps = 50), rounded here to 20
    REFERENCE = (
        (-38.0, 2.8854283600687843084e-316),
        (-20.0, 2.7536241186062336951e-89),
        (-10.0, 7.619853024160526066e-24),
        (-5.0, 2.8665157187919391167e-7),
        (-1.0, 1.5865525393145705141e-1),
        (-1e-3, 4.9960105778608893741e-1),
        (0.0, 0.5),
        (0.5, 6.9146246127401310364e-1),
        (3.0, 9.9865010196836990547e-1),
        (8.0, 9.999999999999993779e-1),
    )

    @pytest.mark.parametrize("x, phi", REFERENCE)
    def test_matches_high_precision_reference(self, x, phi):
        assert float(_normal_cdf(x)) == pytest.approx(phi, rel=1e-14, abs=0.0)

    def test_vectorized_equals_scalar(self):
        xs = np.array([x for x, _ in self.REFERENCE])
        assert np.array_equal(_normal_cdf(xs), [float(_normal_cdf(x)) for x in xs])

    def test_symmetry(self):
        x = np.linspace(-40.0, 40.0, 16001)
        total = _normal_cdf(x) + _normal_cdf(-x)
        assert np.all(np.abs(total - 1.0) <= 2 * np.spacing(1.0))


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
        best_x, _ = _argmax_acquisition(model, margins, 1.2, candidates)
        assert np.array_equal(best_x, candidates[1])


def solvent_margins(X: np.ndarray) -> GpModel:
    """A margin model of flat positive data: its posterior mean is 1 and its
    deviation at most 1 everywhere, so ``P(margin > 0) >= 0.84``."""
    return build_model(X, np.ones(len(X)), Matern52Kernel(0.5), 1e-6)


class TestMaximizeAcquisition:
    def test_budget_one_is_legal(self):
        X = np.array([[0.5, 0.5], [0.2, 0.8]])
        model = build_model(X, np.array([1.0, 2.0]), Matern52Kernel(0.5), 1e-6)
        pt = maximize_acquisition(
            model, solvent_margins(X), f_star=2.0, budget=1, rng=np.random.default_rng(0)
        )
        assert pt.shape == (2,)
        assert 0.0 <= pt[0] <= 3.0 and 0.0 <= pt[1] <= 1.0

    def test_flat_training_data_still_explores(self):
        X = np.array([[0.5, 0.5], [0.25, 0.75]])
        model = build_model(X, np.array([1.0, 1.0]), Matern52Kernel(0.2), 1e-6)
        pt = maximize_acquisition(
            model, solvent_margins(X), f_star=1.0, budget=64, rng=np.random.default_rng(1)
        )
        norm = pt / np.array([3.0, 1.0])
        ei = expected_improvement(model, norm, f_star=1.0)
        assert ei > 0.0

    def test_argmax_contract_on_candidate_set(self):
        # the winner maximizes EI x P(margin > 0) over the candidates at least
        # as likely solvent as not; here the overall maximum of EI x P lies
        # among the others (the value rises towards the bankrupt left edge)
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(10, 2))
        f = 1.0 - X[:, 0] + 0.1 * rng.normal(size=10)
        model = build_model(X, f, Matern52Kernel(0.3), 1e-4)
        margins = build_model(X, X[:, 0] - 0.3, Matern52Kernel(0.3), 1e-4)
        candidates = rng.uniform(size=(200, 2))
        best_x, best_acq = _argmax_acquisition(model, margins, f.max(), candidates)
        prob = probability_of_solvency(margins, candidates)
        product = expected_improvement(model, candidates, f_star=f.max()) * prob
        likely_solvent = prob >= 0.5
        assert prob[np.argmax(product)] < 0.5
        assert best_acq == product[likely_solvent].max()
        assert np.array_equal(best_x, candidates[np.argmax(np.where(likely_solvent, product, -1))])

    def test_deterministic_given_rng_state(self):
        X = np.array([[0.1, 0.1], [0.9, 0.9]])
        model = build_model(X, np.array([1.0, 3.0]), Matern52Kernel(0.4), 1e-6)
        margins = solvent_margins(X)
        a = maximize_acquisition(model, margins, 3.0, 128, np.random.default_rng(7))
        b = maximize_acquisition(model, margins, 3.0, 128, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_candidates_are_latin_hypercube_strata(self, monkeypatch):
        # the global candidates hold one point per stratum of each unit
        # coordinate, and they bypass the public design function, whose
        # output a profiler may record as evaluated points
        from cdcfund import bo

        seen = []

        def spy(model, margin_model, f_star, candidates):
            seen.append(candidates)
            return argmax(model, margin_model, f_star, candidates)

        def design(n, rng):
            raise AssertionError("acquisition went through latin_hypercube")

        argmax = bo._argmax_acquisition
        monkeypatch.setattr(bo, "_argmax_acquisition", spy)
        monkeypatch.setattr(bo, "latin_hypercube", design)
        X = np.array([[0.1, 0.1], [0.9, 0.9]])
        model = build_model(X, np.array([1.0, 3.0]), Matern52Kernel(0.4), 1e-6)
        maximize_acquisition(model, solvent_margins(X), 3.0, 16, np.random.default_rng(5))
        assert len(seen) == 3  # the global candidates, then two refinement rounds
        for column in seen[0].T:
            assert np.array_equal(np.floor(np.sort(column) * 16), np.arange(16))

    def test_without_solvent_evaluation_maximizes_probability_of_solvency(self):
        # no CE model yet: the acquisition is P(margin > 0) alone
        X = np.array([[0.1, 0.5], [0.5, 0.5], [0.9, 0.5]])
        margins = build_model(X, np.array([-0.9, -0.5, -0.1]), Matern52Kernel(0.3), 1e-2)
        candidates = np.array([[0.2, 0.5], [0.95, 0.5], [0.5, 0.4], [0.05, 0.9]])
        prob = probability_of_solvency(margins, candidates)
        best_x, best_acq = _argmax_acquisition(None, margins, 0.0, candidates)
        assert np.argmax(prob) == 1 and len(set(prob.tolist())) == len(prob)
        assert np.array_equal(best_x, candidates[1])
        assert best_acq == prob[1]


class TestOptimizeLoop:
    def test_finds_smooth_synthetic_optimum(self):
        def evaluate(pi, theta):
            ce = 10.0 - (pi - 1.8) ** 2 - 4.0 * (theta - 0.3) ** 2
            return synthetic_value(ce)

        trace = optimize(evaluate, BoConfig(n_init=8, n_total=40, seed=0))
        inc = trace.incumbent
        assert abs(inc.incumbent_pi - 1.8) < 0.2
        assert abs(inc.incumbent_theta - 0.3) < 0.2
        assert len(trace.records) == 40

    def test_incumbent_monotone_and_dominates_design(self):
        def evaluate(pi, theta):
            return synthetic_value(math.sin(pi) + theta)

        trace = optimize(evaluate, BoConfig(n_init=5, n_total=25, seed=1))
        ces = [r.incumbent_ce for r in trace.records]
        assert all(a <= b + 1e-12 for a, b in zip(ces, ces[1:]))
        design_best = max(r.ce for r in trace.records[:5])
        assert trace.incumbent.incumbent_ce >= design_best

    def test_deterministic_traces(self):
        def evaluate(pi, theta):
            return synthetic_value(-((pi - 1.0) ** 2) - theta**2)

        cfg = BoConfig(n_init=4, n_total=16, seed=3)
        a = optimize(evaluate, cfg)
        b = optimize(evaluate, cfg)
        for ra, rb in zip(a.records, b.records):
            assert (ra.pi, ra.theta, ra.ce) == (rb.pi, rb.theta, rb.ce)

    def test_zeroed_region_avoided_over_time(self):
        # left half of the box is "bankrupt": zero value
        def evaluate(pi, theta):
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
        def evaluate(pi, theta):
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
        def evaluate(pi, theta):
            bankrupt = pi < 1.5
            return ObjectiveValue(
                ce=5.0 if bankrupt else pi, eu=pi, eu_stderr=0.0, any_bankruptcy=bankrupt,
                n_bankrupt=int(bankrupt), solvency_margin=pi - 1.5,
            )

        trace = optimize(evaluate, BoConfig(n_init=6, n_total=10, seed=2))
        solvent_best = max(r.ce for r in trace.records if not r.any_bankruptcy)
        assert trace.incumbent.incumbent_ce == solvent_best
        assert trace.incumbent.incumbent_pi >= 1.5

    def test_bankrupt_design_moves_to_first_solvent_evaluation(self):
        # only the corner pi / 3 + theta > 1.6 is solvent; the design misses
        # it, so the loop starts on the probability of solvency alone
        def evaluate(pi, theta):
            margin = pi / 3.0 + theta - 1.6
            return synthetic_value(1.0 + pi / 3.0 + theta if margin > 0.0 else 0.0, margin)

        n_init = 6
        records = optimize(evaluate, BoConfig(n_init=n_init, n_total=20, seed=0)).records
        assert len(records) == 20
        assert all(r.any_bankruptcy for r in records[:n_init])
        first = next(k for k, r in enumerate(records) if not r.any_bankruptcy)
        assert first == n_init  # the first proposal, chosen by P(margin > 0) alone
        for r in records[:first]:
            assert (r.incumbent_pi, r.incumbent_theta) == (records[0].pi, records[0].theta)
        inc = records[first]
        assert (inc.incumbent_pi, inc.incumbent_theta, inc.incumbent_ce) == (
            inc.pi, inc.theta, inc.ce
        )

    @pytest.mark.parametrize("iteration", [3, 12])
    @pytest.mark.parametrize(
        "bad", [{"solvency_margin": float("nan")}, {"solvency_margin": float("inf")},
                {"ce": float("nan")}],
    )
    def test_rejects_non_finite_values(self, iteration, bad):
        calls = []

        def evaluate(pi, theta):
            calls.append((pi, theta))
            value = synthetic_value(1.0 + pi + theta)
            return replace(value, **bad) if len(calls) == iteration + 1 else value

        with pytest.raises(ValueError, match=f"evaluation {iteration} "):
            optimize(evaluate, BoConfig(n_init=5, n_total=15, seed=0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BoConfig(n_init=1)
        with pytest.raises(ValueError):
            BoConfig(n_init=10, n_total=10)
        with pytest.raises(ValueError):
            BoConfig(acquisition_budget=0)
        for field, value in (("n_init", 10.0), ("n_total", 100.5),
                             ("acquisition_budget", 256.0), ("seed", 0.0)):
            with pytest.raises(ValueError, match=f"^{field} must be an integer"):
                BoConfig(**{field: value})
        with pytest.raises(ValueError, match="^seed must fit in 64 bits"):
            BoConfig(seed=2**64)


class TestRunBo:
    def test_tiny_fund_objective_run(self):
        cfg = FundConfig(gamma=3.0, horizon=30)
        spec = ObjectiveSpec(cfg=cfg, mkt=preset_market("M1"), n_paths=40, seed=0)
        trace = run_bo(spec, BoConfig(n_init=4, n_total=10, seed=0))
        assert len(trace.records) == 10
        assert trace.incumbent.incumbent_ce >= max(r.ce for r in trace.records[:4])
        # evaluated points stay inside the search box
        assert all(0.0 <= r.pi <= 3.0 and 0.0 <= r.theta <= 1.0 for r in trace.records)

    def test_common_draws_generated_once(self, monkeypatch):
        made = record_generated(monkeypatch)
        spec = ObjectiveSpec(cfg=FundConfig(horizon=45), mkt=preset_market("M1"), n_paths=20)
        run_bo(spec, BoConfig(n_init=4, n_total=9, seed=0))
        assert len(made) == 1 and made[0]() is spec.normals

    def test_every_candidate_scored_on_the_spec(self, monkeypatch):
        scored = []

        def fake_evaluate(policy, spec):
            scored.append((policy, spec))
            return synthetic_value(1.0 + policy.pi * (1.0 - policy.pi / 3.0) + policy.theta)

        monkeypatch.setattr("cdcfund.bo.evaluate_policy", fake_evaluate)
        spec = ObjectiveSpec(cfg=FundConfig(), mkt=preset_market("M1"), n_paths=10, seed=5)
        trace = run_bo(spec, BoConfig(n_init=4, n_total=12, seed=0))
        assert len(scored) == 12 and all(s is spec for _, s in scored)
        assert [(p.pi, p.theta) for p, _ in scored] == [(r.pi, r.theta) for r in trace.records]

    def test_year_totals_summed_once_per_run(self, monkeypatch):
        summed = []

        def recording(cfg, normals):
            summed.append(normals.shape)
            return _year_totals(cfg, normals)

        def refuse(*args, **kwargs):
            raise AssertionError("the optimizer recorded a batch of payments")

        monkeypatch.setattr("cdcfund.objective._year_totals", recording)
        spec = ObjectiveSpec(cfg=FundConfig(horizon=30), mkt=preset_market("M1"), n_paths=20)
        # the optimizer scores in the engine's year loop: it records no batch
        with monkeypatch.context() as patch:
            patch.setattr("cdcfund.fund.simulate_batch", refuse)
            patch.setattr("cdcfund.objective.simulate_batch", refuse, raising=False)
            trace = run_bo(spec, BoConfig(n_init=4, n_total=9, seed=0))
        assert summed == [(20, spec.cfg.n_steps)]
        assert {rec.any_bankruptcy for rec in trace.records} == {False, True}
        # the summed totals score every candidate to the bit of its recorded batch
        fields = ("ce", "eu", "eu_stderr", "n_bankrupt", "any_bankruptcy", "solvency_margin")
        for rec in trace.records:
            batch = simulate_batch(spec.cfg, PolicyParams(rec.pi, rec.theta), spec.mkt, spec.normals)
            value = value_from_batch(batch, spec.cfg)
            expected = [getattr(value, f) for f in fields]
            assert repr([getattr(rec, f) for f in fields]) == repr(expected)

