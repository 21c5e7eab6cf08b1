"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the line-per-criterion
report. Reference policy parameters and statistics are frozen regression
targets; simulations reuse common random numbers so comparisons across
markets, risk aversions and plans share their draws.
"""

import json
import math
from functools import lru_cache

import numpy as np
import pytest

from cdcfund.analysis import benefit_quantile, ir_roughness_batch
from cdcfund.bo import BoConfig, run_bo
from cdcfund.cli import main as cli_main
from cdcfund.fund import FundConfig, PolicyParams, entry_cohort_account, simulate_batch
from cdcfund.gp import Matern52Kernel, build_model, posterior
from cdcfund.idc import idc_terminal_benefits, idc_trajectories
from cdcfund.market import RandomStream, preset_market
from cdcfund.objective import (
    ObjectiveSpec,
    certainty_equivalent,
    certainty_equivalent_stderr,
    crra_utility,
    evaluate_policy,
    value_from_batch,
)
from reference_fund import initialize_fund, step_month, year_boundary_jump

GAMMAS = (0.5, 1.0, 2.0, 3.0, 5.0, 10.0)

# reference optimal policies per (market, gamma): regression targets
REFERENCE_POLICIES = {
    ("M1", 0.5): (2.822, 0.882), ("M1", 1.0): (2.310, 0.865),
    ("M1", 2.0): (1.244, 0.598), ("M1", 3.0): (0.865, 0.345),
    ("M1", 5.0): (0.560, 0.235), ("M1", 10.0): (0.300, 0.197),
    ("M2", 0.5): (1.895, 0.830), ("M2", 1.0): (1.088, 0.533),
    ("M2", 2.0): (0.643, 0.197), ("M2", 3.0): (0.442, 0.125),
    ("M2", 5.0): (0.393, 0.072), ("M2", 10.0): (0.158, 0.146),
    ("M3", 0.5): (0.544, 0.470), ("M3", 1.0): (0.286, 0.344),
    ("M3", 2.0): (0.179, 0.135), ("M3", 3.0): (0.119, 0.160),
    ("M3", 5.0): (0.069, 0.209), ("M3", 10.0): (0.021, 1.080e-5),
}

# reference mean roughness of the generation-41 account, (CDC, IDC)
REFERENCE_ROUGHNESS_M1_G3 = (0.972, 0.731)

BASE_CFG = FundConfig()
_CFG_BY_GAMMA = {g: FundConfig(gamma=g) for g in GAMMAS}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"acceptance criterion {num:02d} [{name}]: {status}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)


@lru_cache(maxsize=None)
def _policy_values(market: str, pi: float, theta: float, n_paths: int, seed: int):
    """One batch per policy; scored for every gamma on shared draws."""
    batch = simulate_batch(
        BASE_CFG, PolicyParams(pi, theta), preset_market(market), seed=seed, n_paths=n_paths
    )
    return {g: value_from_batch(batch, _CFG_BY_GAMMA[g]) for g in GAMMAS}


def _lattice(lo: float, hi: float, step: float):
    return [round(k * step, 10) for k in range(round(lo / step), round(hi / step) + 1)]


@lru_cache(maxsize=None)
def _coarse_argmax(market: str, gamma: float, n_paths: int = 2000, seed: int = 0):
    best, best_ce = None, -math.inf
    for pi in _lattice(0.0, 3.0, 0.2):
        for theta in _lattice(0.0, 1.0, 0.125):
            ce = _policy_values(market, pi, theta, n_paths, seed)[gamma].ce
            if ce > best_ce:
                best, best_ce = (pi, theta), ce
    return best, best_ce


@lru_cache(maxsize=None)
def _refined_argmax_pi(market: str, gamma: float) -> float:
    """Cheap grid-oracle argmax: coarse lattice plus a fine scan of pi."""
    (pi0, theta0), best_ce = _coarse_argmax(market, gamma)
    best_pi = pi0
    for pi in _lattice(max(0.0, pi0 - 0.2), min(3.0, pi0 + 0.2), 0.025):
        ce = _policy_values(market, pi, theta0, 2000, 0)[gamma].ce
        if ce > best_ce:
            best_pi, best_ce = pi, ce
    return best_pi


@lru_cache(maxsize=None)
def _fine_argmax_m3(gamma: float) -> tuple[float, float]:
    """Joint fine argmax (pi, value) for the tightly spaced M3 optima.

    At high risk aversion the optima sit close to the bankruptcy boundary
    within a small fraction of the search box, so this uses a finer
    two-dimensional lattice and more paths.
    """
    (pi0, theta0), _ = _coarse_argmax("M3", gamma)
    lo_pi, hi_pi = max(0.0, pi0 - 0.2), min(3.0, pi0 + 0.2)
    lo_th, hi_th = max(0.0, theta0 - 0.125), min(1.0, theta0 + 0.125)
    best_pi, best_ce = pi0, -math.inf
    for pi in _lattice(lo_pi, hi_pi, 0.0125):
        for theta in _lattice(lo_th, hi_th, 0.05):
            ce = _policy_values("M3", pi, theta, 10_000, 0)[gamma].ce
            if ce > best_ce:
                best_pi, best_ce = pi, ce
    return best_pi, best_ce


def _grid_best(market: str, gamma: float, resolution: int, n_paths: int, seed: int):
    best = None
    for pi in np.linspace(0.0, 3.0, resolution):
        for theta in np.linspace(0.0, 1.0, resolution):
            val = _policy_values(market, float(pi), float(theta), n_paths, seed)[gamma]
            if best is None or val.ce > best.ce:
                best = val
    return best


def risk_free_fund_oracle(cfg: FundConfig, r: float):
    """Closed-form annual recursion for the pi = 0, theta = 0 fund."""
    n = cfg.n_generations
    accounts = {i: entry_cohort_account(i, cfg, r) for i in range(1, n + 1)}
    assets = sum(accounts.values())
    payments = []
    yearly_assets = []
    yearly_accounts = []
    for t in range(cfg.horizon + 1):
        if t > 0:
            accounts = {i: v * math.exp(r) for i, v in accounts.items()}
            assets *= math.exp(r)
            benefit = accounts.pop(t)
            payments.append(benefit)
            accounts[t + n] = 0.0
            assets += n * cfg.y - benefit
        else:
            assets += n * cfg.y
        accounts = {i: v + cfg.y for i, v in accounts.items()}
        yearly_assets.append(assets)
        yearly_accounts.append(dict(accounts))
    return np.array(payments), np.array(yearly_assets), yearly_accounts


class TestCriterion01ReferenceOptimaProximity:
    def test_full_scale_search_recovers_reference_pi(self):
        # advisory criterion: the reference values carry their own search and
        # sampling noise, so 2-of-3 seeds within +/-0.15 per cell is required
        cells = [("M1", 10.0, 0.300), ("M1", 3.0, 0.865), ("M3", 10.0, 0.021)]
        ok_all = True
        details = []
        for market, gamma, ref_pi in cells:
            hits = 0
            found = []
            for seed in (0, 1, 2):
                spec = ObjectiveSpec(
                    cfg=_CFG_BY_GAMMA[gamma], mkt=preset_market(market),
                    n_paths=10_000, seed=seed,
                )
                trace = run_bo(spec, BoConfig(n_init=10, n_total=100, seed=seed))
                pi_star = trace.incumbent.incumbent_pi
                found.append(round(pi_star, 3))
                hits += abs(pi_star - ref_pi) <= 0.15
            details.append(f"{market} g={gamma}: {found} vs {ref_pi} ({hits}/3)")
            ok_all &= hits >= 2
        _report(1, "reference-optima proximity (advisory)", ok_all, "; ".join(details))
        assert ok_all

    def test_flat_cell_checked_on_objective_value(self):
        # the adjustment-strength direction of this cell is effectively flat,
        # so the check is on objective value: the reference policy must score
        # within a few percent of the refined grid optimum
        reference = _policy_values("M3", 0.021, 1.080e-5, 10_000, 0)[10.0]
        _, best_ce = _fine_argmax_m3(10.0)
        assert not reference.any_bankruptcy
        assert reference.ce >= 0.95 * best_ce


class TestCriterion02OracleDominance:
    def test_search_beats_grid_within_noise(self):
        cells = [("M1", 10.0), ("M1", 3.0), ("M3", 10.0)]
        ok_all = True
        details = []
        for market, gamma in cells:
            spec = ObjectiveSpec(
                cfg=_CFG_BY_GAMMA[gamma], mkt=preset_market(market),
                n_paths=2_000, seed=0,
            )
            trace = run_bo(spec, BoConfig(n_init=10, n_total=60, seed=0))
            bo_ce = trace.incumbent.incumbent_ce
            grid = _grid_best(market, gamma, 20, 2_000, 0)
            stderr = certainty_equivalent_stderr(grid.eu, grid.eu_stderr, gamma)
            ok = bo_ce >= grid.ce - stderr
            details.append(
                f"{market} g={gamma}: search {bo_ce:.4f} vs grid {grid.ce:.4f} - {stderr:.4f}"
            )
            ok_all &= ok
        _report(2, "search dominates 20x20 grid oracle", ok_all, "; ".join(details))
        assert ok_all


class TestCriterion03RoughnessReproduction:
    @staticmethod
    def _roughness(market: str, gamma: float, n_paths: int):
        pi, theta = REFERENCE_POLICIES[(market, gamma)]
        mkt = preset_market(market)
        batch = simulate_batch(
            BASE_CFG, PolicyParams(pi, theta), mkt, seed=0, n_paths=n_paths,
            tracked_generations=(41,),
        )
        cdc = float(np.nanmean(ir_roughness_batch(batch.account_trajectories[41])))
        idc_traj = idc_trajectories(BASE_CFG, pi, mkt, seed=0, n_paths=n_paths, generations=(41,))
        idc = float(np.nanmean(ir_roughness_batch(idc_traj[41])))
        return cdc, idc

    def test_reference_cell_within_band(self):
        cdc, idc = self._roughness("M1", 3.0, 2_000)
        ref_cdc, ref_idc = REFERENCE_ROUGHNESS_M1_G3
        ok = abs(cdc - ref_cdc) <= 0.02 and abs(idc - ref_idc) <= 0.02
        _report(
            3, "account-path roughness reproduction", ok,
            f"CDC {cdc:.3f} vs {ref_cdc}; IDC {idc:.3f} vs {ref_idc}",
        )
        assert ok

    def test_ordering_holds_across_all_cells(self):
        failures = []
        for (market, gamma) in REFERENCE_POLICIES:
            cdc, idc = self._roughness(market, gamma, 2_000)
            if not cdc > idc:
                failures.append((market, gamma, cdc, idc))
        assert not failures, f"collective plan must be smoother: {failures}"


class TestCriterion04FundingRatioBehavior:
    def test_mean_trajectory_shape(self):
        ok_all = True
        details = []
        for market in ("M1", "M2", "M3"):
            pi, theta = REFERENCE_POLICIES[(market, 3.0)]
            batch = simulate_batch(
                BASE_CFG, PolicyParams(pi, theta), preset_market(market),
                seed=0, n_paths=10_000, record_funding_ratios=True,
            )
            mean = batch.mean_funding_ratio
            spy = BASE_CFG.steps_per_year
            hump = mean[[y * spy for y in range(5, 21)]]
            ok = mean[0] == 1.0 and np.all(hump > 1.0) and 0.9 <= mean[-1] <= 1.3
            details.append(f"{market}: start {mean[0]:.1f}, hump min {hump.min():.4f}, end {mean[-1]:.4f}")
            ok_all &= ok
        _report(4, "mean funding-ratio trajectory", ok_all, "; ".join(details))
        assert ok_all


class TestCriterion05TailProtection:
    GENERATIONS = range(45, 96)

    def _per_generation(self, market, gamma, quantile):
        pi, theta = REFERENCE_POLICIES[(market, gamma)]
        mkt = preset_market(market)
        batch = simulate_batch(BASE_CFG, PolicyParams(pi, theta), mkt, seed=0, n_paths=10_000)
        idc = idc_terminal_benefits(
            BASE_CFG, pi, mkt, seed=0, n_paths=10_000, generations=self.GENERATIONS
        )
        cdc_q = [benefit_quantile(batch.benefits(i), quantile) for i in self.GENERATIONS]
        idc_q = [benefit_quantile(idc[i], quantile) for i in self.GENERATIONS]
        return np.array(cdc_q), np.array(idc_q)

    def test_tail_quantiles_protected_in_tough_markets(self):
        fractions = {}
        for market in ("M3", "M2"):
            cdc_q, idc_q = self._per_generation(market, 3.0, 0.01)
            fractions[market] = float(np.mean(cdc_q > idc_q))
        median_cdc, median_idc = self._per_generation("M1", 0.5, 0.5)
        median_fraction = float(np.mean(median_cdc < median_idc))
        ok = (
            fractions["M3"] >= 0.8
            and fractions["M2"] >= 0.8
            and median_fraction > 0.5
        )
        _report(
            5, "worst-case tail protection", ok,
            f"1% quantile wins: M3 {fractions['M3']:.0%}, M2 {fractions['M2']:.0%}; "
            f"median below benchmark (M1, g=0.5): {median_fraction:.0%}",
        )
        assert ok


class TestCriterion06DeterministicOracles:
    def test_risk_free_fund_matches_recursion(self):
        r = preset_market("M1").r
        payments, yearly_assets, yearly_accounts = risk_free_fund_oracle(BASE_CFG, r)
        policy = PolicyParams(pi=0.0, theta=0.0)

        # walk the state machine and compare asset, liability and every
        # account at each year boundary, payments included
        z = RandomStream(0, 0).normals(BASE_CFG.n_steps)
        state = initialize_fund(BASE_CFG, r)
        max_rel = 0.0
        for t in range(BASE_CFG.horizon + 1):
            state, benefit = year_boundary_jump(state, BASE_CFG, t)
            if t >= 1:
                max_rel = max(max_rel, abs(benefit - payments[t - 1]) / payments[t - 1])
            max_rel = max(max_rel, abs(state.assets - yearly_assets[t]) / yearly_assets[t])
            max_rel = max(
                max_rel,
                abs(state.liabilities - yearly_assets[t]) / yearly_assets[t],
            )
            for i, ref in yearly_accounts[t].items():
                if ref > 0:
                    max_rel = max(max_rel, abs(state.accounts[i] - ref) / ref)
            if t == BASE_CFG.horizon:
                break
            for step in range(BASE_CFG.steps_per_year):
                state = step_month(state, BASE_CFG, policy, preset_market("M1"), z[t * 12 + step])

        normals = RandomStream(0, 0).normals(BASE_CFG.n_steps)[None]
        idc = idc_trajectories(BASE_CFG, 0.0, preset_market("M1"), normals=normals,
                               generations=(60,))[60][0]
        idc_target = sum(math.exp(r * k) for k in range(1, 41))
        idc_rel = abs(idc[-1] - idc_target) / idc_target
        ok = max_rel < 1e-9 and idc_rel < 1e-9
        _report(
            6, "risk-free closed-form oracles", ok,
            f"fund max rel err {max_rel:.2e}; benchmark rel err {idc_rel:.2e}",
        )
        assert ok


class TestCriterion07SurrogateUnitSuite:
    def test_posterior_and_acquisition_accuracy(self):
        rng = np.random.default_rng(0)

        # noiseless interpolation to 1e-6
        interp_ok = True
        for _ in range(5):
            X = rng.uniform(size=(8, 2))
            f = rng.normal(loc=5.0, size=8)
            model = build_model(X, f, Matern52Kernel(0.5), 0.0)
            means, _ = posterior(model, X)
            interp_ok &= bool(np.allclose(means, f, atol=1e-6))

        # posterior matches an independent dense solve to 1e-10 for n <= 20
        dense_ok = True
        for n in (3, 10, 20):
            X = rng.uniform(size=(n, 2))
            f = rng.normal(size=n)
            noise = 1e-4
            model = build_model(X, f, Matern52Kernel(0.3), noise)
            mean_, scale_ = f.mean(), f.std() if f.std() > 1e-12 else 1.0
            fs = (f - mean_) / scale_
            K = model.kernel.matrix(X, X) + noise * np.eye(n)
            for _ in range(5):
                q = rng.uniform(size=(1, 2))
                kv = model.kernel.matrix(X, q)[:, 0]
                ref_mean = mean_ + scale_ * float(kv @ np.linalg.solve(K, fs))
                ref_var = 1.0 - float(kv @ np.linalg.solve(K, kv))
                ref_std = scale_ * math.sqrt(max(ref_var, 0.0))
                m, s = posterior(model, q[0])
                dense_ok &= abs(m - ref_mean) < 1e-10 and abs(s - ref_std) < 1e-10

        # acquisition value at zero gap and unit deviation; nonnegativity
        from unittest.mock import patch

        from cdcfund.bo import expected_improvement

        with patch("cdcfund.bo.posterior", lambda model, x: (1.0, 1.0)):
            at_incumbent = expected_improvement(None, np.zeros(2), f_star=1.0)
        ei_value_ok = abs(at_incumbent - 0.398942) <= 1e-6

        X = rng.uniform(size=(12, 2))
        f = rng.normal(size=12)
        model = build_model(X, f, Matern52Kernel(0.4), 1e-4)
        ei = expected_improvement(model, rng.uniform(size=(1000, 2)), f_star=float(f.max()))
        nonnegative_ok = bool(np.all(ei >= 0.0))

        ok = interp_ok and dense_ok and ei_value_ok and nonnegative_ok
        _report(
            7, "surrogate and acquisition unit suite", ok,
            f"interp {interp_ok}, dense-solve {dense_ok}, "
            f"ei-value {at_incumbent:.6f}, ei>=0 {nonnegative_ok}",
        )
        assert ok


class TestCriterion08CertaintyEquivalentContracts:
    def test_round_trip_and_argmax_invariance(self):
        xs = np.geomspace(1e-3, 1e6, 31)
        round_trip_ok = True
        for gamma in GAMMAS:
            for x in xs:
                back = certainty_equivalent(crra_utility(float(x), gamma), gamma)
                round_trip_ok &= abs(back - x) <= 1e-12 * x

        rng = np.random.default_rng(1)
        argmax_ok = True
        spec = ObjectiveSpec(cfg=_CFG_BY_GAMMA[3.0], mkt=preset_market("M1"), n_paths=100, seed=5)
        for _ in range(3):
            candidates = [
                PolicyParams(float(rng.uniform(0.1, 1.2)), float(rng.uniform(0.2, 0.8)))
                for _ in range(5)
            ]
            values = [evaluate_policy(c, spec) for c in candidates]
            if any(v.any_bankruptcy for v in values):
                continue
            argmax_ok &= int(np.argmax([v.ce for v in values])) == int(
                np.argmax([v.eu for v in values])
            )
        ok = round_trip_ok and argmax_ok
        _report(
            8, "certainty-equivalent round trip and argmax invariance", ok,
            f"round-trip {round_trip_ok}, argmax {argmax_ok}",
        )
        assert ok


class TestCriterion09MonotonicTrends:
    def test_policy_trends_across_risk_aversion_and_markets(self):
        pi_star: dict[tuple[str, float], float] = {}
        for market in ("M1", "M2"):
            for gamma in GAMMAS:
                pi_star[(market, gamma)] = _refined_argmax_pi(market, gamma)
        for gamma in (0.5, 1.0):
            pi_star[("M3", gamma)] = _refined_argmax_pi("M3", gamma)
        for gamma in (2.0, 3.0, 5.0, 10.0):
            pi_star[("M3", gamma)] = _fine_argmax_m3(gamma)[0]

        decreasing = {}
        for market in ("M1", "M2", "M3"):
            seq = [pi_star[(market, g)] for g in GAMMAS]
            decreasing[market] = all(a > b for a, b in zip(seq, seq[1:]))
        ordering = {
            gamma: pi_star[("M1", gamma)] > pi_star[("M2", gamma)] > pi_star[("M3", gamma)]
            for gamma in GAMMAS
        }
        ok = all(decreasing.values()) and all(ordering.values())
        details = "; ".join(
            f"{m}: " + ">".join(f"{pi_star[(m, g)]:.3f}" for g in GAMMAS)
            for m in ("M1", "M2", "M3")
        )
        _report(9, "risk-aversion and market trend checks", ok, details)
        assert all(decreasing.values()), f"per-market decrease: {decreasing}, {pi_star}"
        assert all(ordering.values()), f"cross-market ordering: {ordering}, {pi_star}"


class TestCriterion10FullDeterminism:
    def test_rerun_reproduces_byte_identical_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({
                "market": "M2", "gamma": 2, "n_paths": 60, "horizon": 55,
                "n_init": 5, "n_total": 12, "acquisition_budget": 64, "seed": 11,
            })
        )
        for out in ("a", "b"):
            code = cli_main([
                "run-cell", "--config", str(cfg), "--output-dir", str(tmp_path / out),
                "--paths", "3",
            ])
            assert code == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        mismatched = []
        for name in names:
            if name == "manifest.json":
                continue  # contains wall times; artifact hashes are compared below
            if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
                mismatched.append(name)
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        ok = not mismatched and ma["outputs"] == mb["outputs"] and ma["config"] == mb["config"]
        _report(10, "byte-identical reproduction from manifest", ok, f"{len(names)} artifacts")
        assert ok, mismatched
