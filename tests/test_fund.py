import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdcfund.fund import (
    FundConfig, PolicyParams, SimulationBatch, _simulate, _year_totals, entry_cohort_account,
    simulate_batch,
)
from cdcfund.idc import idc_terminal_benefits, idc_trajectories
from cdcfund.market import RandomStream, normal_matrix, preset_market
from draws import draws
from reference_fund import (
    FundState,
    declaration_rate,
    generation_indicator,
    initialize_fund,
    longdouble_payments,
    mean_funding_ratio_trajectory,
    risk_free_oracle,
    simulate_path,
    simulate_path_year_step,
    step_month,
    year_boundary_jump,
)

M1 = preset_market("M1")
CFG = FundConfig()
RECORD_ALL = dict(record_funding_ratios=True, record_state=True, tracked_generations=(41, 70))
# every non-empty subset of the recordings, each asked for on its own
RECORDINGS = [
    {key: RECORD_ALL[key] for key in keys}
    for size in range(1, len(RECORD_ALL) + 1)
    for keys in itertools.combinations(RECORD_ALL, size)
]
# the batch fields each recording fills
RECORDED_FIELDS = {
    "record_funding_ratios": ("mean_funding_ratio",),
    "record_state": ("assets", "liabilities"),
}
PATH_ARRAYS = ("payments", "bankrupt_at", "assets", "liabilities")
# monthly, yearly (no step inside a year) and weekly inner steps
STEP_SIZES = (1 / 12, 1.0, 1 / 52)
# simulate_batch sums each year's draws in its year step; the engine can be
# given their totals instead
TOTALS = pytest.mark.parametrize("totals", [False, True], ids=["summed", "given"])
SIMULATORS = {
    "simulate_batch": lambda normals: simulate_batch(CFG, PolicyParams(0.5, 0.5), M1, normals),
    "idc_terminal_benefits": lambda normals: idc_terminal_benefits(CFG, 0.5, M1, normals, (41,)),
    "idc_trajectories": lambda normals: idc_trajectories(CFG, 0.5, M1, normals, (41,)),
}


class TestGenerationIndicator:
    def test_retiring_generation_at_start(self):
        assert generation_indicator(65, 0.0, 65) == 0

    def test_youngest_entrant(self):
        assert generation_indicator(25, 0.0, 65) == 40

    def test_fractional_time_truncates(self):
        assert generation_indicator(65, 3.4, 65) == 3


class TestEntryCohortAccount:
    def test_newest_has_nothing(self):
        assert entry_cohort_account(40, CFG, 0.02) == 0.0

    def test_one_prior_contribution(self):
        assert entry_cohort_account(39, CFG, 0.02) == pytest.approx(math.exp(0.02), rel=1e-12)

    def test_two_prior_contributions(self):
        expected = math.exp(0.02) + math.exp(0.04)
        assert entry_cohort_account(38, CFG, 0.02) == pytest.approx(expected, rel=1e-12)

    def test_brute_force_all_generations(self):
        for i in range(1, 41):
            expected = sum(math.exp(0.02 * k) for k in range(1, 40 - i + 1))
            assert entry_cohort_account(i, CFG, 0.02) == pytest.approx(expected, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            entry_cohort_account(0, CFG, 0.02)
        with pytest.raises(ValueError):
            entry_cohort_account(41, CFG, 0.02)


class TestInitializeFund:
    def test_total_matches_brute_force_loop(self):
        state = initialize_fund(CFG, 0.02)
        brute = sum(
            sum(math.exp(0.02 * k) for k in range(1, 40 - i + 1)) for i in range(1, 41)
        )
        assert state.assets == pytest.approx(brute, rel=1e-12)
        assert state.assets == pytest.approx(1043.6835286407702, rel=1e-9)

    def test_zero_rate_collapses_to_triangular_number(self):
        state = initialize_fund(CFG, 0.0)
        assert state.assets == pytest.approx(780.0, abs=1e-9)

    def test_initial_funding_ratio_is_one(self):
        state = initialize_fund(CFG, 0.02)
        assert state.assets / state.liabilities == 1.0
        assert len(state.accounts) == 40
        assert state.t == 0.0


class TestDeclarationRate:
    def test_balanced_fund_gives_expected_log_return(self):
        state = FundState(t=0.0, assets=100.0, liabilities=100.0, accounts={1: 100.0})
        policy = PolicyParams(pi=0.3, theta=0.197)
        assert declaration_rate(state, policy, M1) == pytest.approx(0.0324875, abs=1e-12)
        for theta in (0.0, 0.5, 1.0):
            policy = PolicyParams(pi=0.3, theta=theta)
            assert declaration_rate(state, policy, M1) == pytest.approx(0.0324875, abs=1e-12)

    def test_log_ratio_adjustment(self):
        state = FundState(t=0.0, assets=100.0 * math.e, liabilities=100.0, accounts={1: 100.0})
        policy = PolicyParams(pi=0.0, theta=0.5)
        assert declaration_rate(state, policy, M1) == pytest.approx(0.52, rel=1e-12)

    def test_invalid_state(self):
        policy = PolicyParams(pi=0.3, theta=0.2)
        with pytest.raises(ValueError):
            declaration_rate(FundState(0.0, -1.0, 100.0, {}), policy, M1)
        with pytest.raises(ValueError):
            declaration_rate(FundState(0.0, 100.0, 0.0, {}), policy, M1)

    def test_monotone_in_assets(self):
        policy = PolicyParams(pi=0.3, theta=0.4)
        lo = declaration_rate(FundState(0.0, 90.0, 100.0, {}), policy, M1)
        hi = declaration_rate(FundState(0.0, 110.0, 100.0, {}), policy, M1)
        assert hi > lo


class TestStepMonth:
    def test_riskless_fixed_point(self):
        state = FundState(t=0.0, assets=100.0, liabilities=100.0, accounts={1: 60.0, 2: 40.0})
        policy = PolicyParams(pi=0.0, theta=0.7)
        state = step_month(state, CFG, policy, M1, z=1.3)
        growth = math.exp(0.02 / 12)
        assert state.assets == pytest.approx(100.0 * growth, rel=1e-14)
        assert state.liabilities == pytest.approx(100.0 * growth, rel=1e-14)
        assert state.assets / state.liabilities == pytest.approx(1.0, rel=1e-14)

    def test_liability_credit_with_surplus(self):
        state = FundState(t=0.0, assets=100.0, liabilities=50.0, accounts={1: 50.0})
        policy = PolicyParams(pi=0.0, theta=1.0)
        state = step_month(state, CFG, policy, M1, z=0.0)
        expected = 50.0 * math.exp((0.02 + math.log(2.0)) / 12)
        assert state.liabilities == pytest.approx(expected, rel=1e-12)

    def test_credit_factor_is_exact_exponential(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            assets = float(rng.uniform(10, 1000))
            liabilities = float(rng.uniform(10, 1000))
            policy = PolicyParams(pi=float(rng.uniform(0, 3)), theta=float(rng.uniform(0, 1)))
            state = FundState(0.0, assets, liabilities, {1: liabilities})
            eta = declaration_rate(state, policy, M1)
            state = step_month(state, CFG, policy, M1, z=float(rng.standard_normal()))
            assert state.liabilities / liabilities == pytest.approx(
                math.exp(eta * CFG.dt), rel=1e-14
            )
            assert state.accounts[1] == pytest.approx(state.liabilities, rel=1e-14)


class TestYearBoundaryJump:
    def test_net_flow_arithmetic(self):
        accounts = {2: 470.0, 3: 30.0}
        accounts.update({i: 0.0 for i in range(4, 42)})
        state = FundState(t=3.0, assets=500.0, liabilities=500.0, accounts=accounts)
        state, benefit = year_boundary_jump(state, CFG, 3)
        assert benefit == 30.0
        assert state.assets == pytest.approx(510.0, abs=1e-12)

    def test_start_jump_contributions_only(self):
        state = initialize_fund(CFG, 0.02)
        a0 = state.assets
        state, benefit = year_boundary_jump(state, CFG, 0)
        assert benefit == 0.0
        assert state.assets == pytest.approx(a0 + 40.0, rel=1e-12)
        assert len(state.accounts) == 40

    def test_retiree_replaced_by_newborn(self):
        state = initialize_fund(CFG, 0.02)
        state, _ = year_boundary_jump(state, CFG, 0)
        state, benefit = year_boundary_jump(state, CFG, 1)
        assert benefit > 0
        assert 1 not in state.accounts
        assert state.accounts[41] == CFG.y  # newborn contributes at entry
        assert len(state.accounts) == 40

    def test_liability_is_sum_of_accounts(self):
        state = initialize_fund(CFG, 0.02)
        for t in range(3):
            state, _ = year_boundary_jump(state, CFG, t)
            assert state.liabilities == pytest.approx(sum(state.accounts.values()), rel=1e-12)


class TestSimulatePath:
    def test_risk_free_fund_matches_oracle(self):
        policy = PolicyParams(pi=0.0, theta=0.0)
        rec = simulate_path(CFG, policy, M1, RandomStream(0, 0))
        payments, _, _ = risk_free_oracle(CFG, M1.r)
        assert rec.bankrupt_at is None
        assert np.all(rec.payments > 0)
        assert np.allclose(rec.payments, payments, rtol=1e-9)
        # stationary from the first payment on
        steady = sum(math.exp(0.02 * k) for k in range(1, 41))
        assert np.allclose(rec.payments, steady, rtol=1e-9)
        assert np.allclose(rec.funding_ratios, 1.0, rtol=1e-12)

    def test_bit_identical_replay(self):
        policy = PolicyParams(pi=0.9, theta=0.3)
        a = simulate_path(CFG, policy, M1, RandomStream(3, 5), tracked_generations=(41,))
        b = simulate_path(CFG, policy, M1, RandomStream(3, 5), tracked_generations=(41,))
        assert np.array_equal(a.payments, b.payments)
        assert np.array_equal(a.funding_ratios, b.funding_ratios)
        assert np.array_equal(a.account_trajectories[41], b.account_trajectories[41])

    def test_record_shapes(self):
        policy = PolicyParams(pi=0.5, theta=0.2)
        rec = simulate_path(CFG, policy, M1, RandomStream(1, 0), tracked_generations=(41, 80))
        assert rec.payments.shape == (100,)
        assert rec.funding_ratios.shape == (1201,)
        assert rec.funding_ratios[0] == 1.0
        for i in (41, 80):
            traj = rec.account_trajectories[i]
            assert traj.shape == (481,)  # the account lives 480 months
            assert not np.isnan(traj).any()
            assert traj[0] == CFG.y
            assert traj[-1] == pytest.approx(rec.payments[i - 1], rel=1e-9)

    def test_liability_consistency_every_step(self):
        # drive the state machine manually and check L == sum of accounts
        policy = PolicyParams(pi=1.2, theta=0.6)
        z = RandomStream(11, 0).normals(CFG.n_steps)
        state = initialize_fund(CFG, M1.r)
        checks = 0
        for t in range(25):
            state, _ = year_boundary_jump(state, CFG, t)
            for step in range(CFG.steps_per_year):
                state = step_month(state, CFG, policy, M1, z[t * 12 + step])
                assert len(state.accounts) == 40
                total = sum(state.accounts.values())
                assert abs(state.liabilities - total) / state.liabilities < 1e-9
                checks += 1
        assert checks == 300

    def test_early_payments_monotone_in_initial_assets(self):
        # a higher starting asset raises the early declaration rates; the
        # feedback through later payments is tested at the batch level
        policy = PolicyParams(pi=0.8, theta=0.4)
        base = simulate_path(CFG, policy, M1, RandomStream(2, 0))
        bumped = simulate_path(
            CFG, policy, M1, RandomStream(2, 0), initial_funding_ratio=1.01
        )
        assert np.all(bumped.payments[:10] >= base.payments[:10])


def given_totals(cfg, policy, mkt, normals, year_totals, **recordings):
    """The engine ``_simulate`` on one policy, given ``year_totals``, with a
    callback that stores the payments: its results as a batch."""
    paid = np.full((cfg.horizon, len(normals)), -1.0)  # a year not paid fails the oracles

    def store(t, benefit, live):
        paid[t - 1] = benefit[0]

    bankrupt_at, [margin], recorded = _simulate(
        cfg, [policy], mkt, normals, year_totals, store, **recordings
    )
    return SimulationBatch(payments=paid.T, bankrupt_at=bankrupt_at[0], horizon=cfg.horizon,
                           steps_per_year=cfg.steps_per_year, solvency_margin=margin, **recorded)


def run(cfg, policy, mkt, normals, totals, **recordings):
    """``simulate_batch``, or the engine given the draws' year totals if
    ``totals``."""
    if totals:
        return given_totals(cfg, policy, mkt, normals, _year_totals(cfg, normals), **recordings)
    return simulate_batch(cfg, policy, mkt, normals, **recordings)


class TestSimulateBatch:
    @TOTALS
    @pytest.mark.parametrize("dt", STEP_SIZES)
    def test_matches_single_path(self, dt, totals):
        cfg, policy = FundConfig(dt=dt), PolicyParams(pi=0.865, theta=0.345)
        batch = run(
            cfg, policy, M1, draws(7, 4, cfg.n_steps), totals,
            record_state=True, tracked_generations=(41,),
        )
        ratios = batch.assets / batch.liabilities
        for p in range(4):
            rec = simulate_path(cfg, policy, M1, RandomStream(7, p), tracked_generations=(41,))
            assert np.allclose(rec.payments, batch.payments[p], rtol=1e-9, equal_nan=True)
            assert np.allclose(rec.funding_ratios, ratios[p], rtol=1e-9, equal_nan=True)
            assert np.allclose(
                rec.account_trajectories[41],
                batch.account_trajectories[41][p],
                rtol=1e-9,
                equal_nan=True,
            )

    @TOTALS
    def test_matches_single_path_through_bankruptcy(self, totals):
        policy = PolicyParams(pi=3.0, theta=0.0)
        batch = run(CFG, policy, M1, draws(0, 30), totals)
        assert batch.n_bankrupt > 0
        for p in range(30):
            rec = simulate_path(CFG, policy, M1, RandomStream(0, p))
            expected = rec.bankrupt_at if rec.bankrupt_at is not None else np.nan
            assert np.array_equal(
                np.isnan([expected]), np.isnan([batch.bankrupt_at[p]])
            ) and (np.isnan(expected) or expected == batch.bankrupt_at[p])
            assert np.allclose(rec.payments, batch.payments[p], rtol=1e-9, equal_nan=True)

    @TOTALS
    @pytest.mark.parametrize("dt", STEP_SIZES)
    @pytest.mark.parametrize("market", ["M1", "M2", "M3"])
    @pytest.mark.parametrize(
        "pi, theta, seed, n_paths", [(0.865, 0.345, 7, 4), (3.0, 0.0, 0, 30)]
    )
    def test_matches_year_step_oracle(self, market, pi, theta, seed, n_paths, dt, totals):
        # the scalar year step sums the log ratio by its recursion where the
        # engine uses fixed weights; everything else is the same arithmetic
        cfg, policy, mkt = FundConfig(dt=dt), PolicyParams(pi, theta), preset_market(market)
        batch = run(cfg, policy, mkt, draws(seed, n_paths, cfg.n_steps), totals)
        margins = []
        for p in range(n_paths):
            z = RandomStream(seed, p).normals(cfg.n_steps)
            payments, bankrupt_at, margin = simulate_path_year_step(cfg, policy, mkt, z)
            assert np.allclose(payments, batch.payments[p], rtol=1e-12, atol=0, equal_nan=True)
            expected = np.nan if bankrupt_at is None else bankrupt_at
            assert np.array_equal([expected], batch.bankrupt_at[p : p + 1], equal_nan=True)
            margins.append(margin)
        assert np.sign(batch.solvency_margin) == np.sign(min(margins))

    @pytest.mark.parametrize("horizon, shock_years", [(1, (0,)), (100, (0, 49, 99))])
    def test_every_payment_written_through_bankruptcy(self, horizon, shock_years):
        # the engine writes its payments into an uninitialized buffer: paths
        # that go bankrupt in the first, a middle and the last year beside a
        # solvent one match the year-step oracle cell for cell, NaN included
        cfg, policy = FundConfig(horizon=horizon), PolicyParams(pi=3.0, theta=0.0)
        z = np.zeros((len(shock_years) + 1, cfg.n_steps))  # the last path never shocked
        for p, year in enumerate(shock_years):
            z[p, year * cfg.steps_per_year] = -40.0  # the assets fall below the next payout
        batch = simulate_batch(cfg, policy, M1, z)
        expected_at = [year + 1.0 for year in shock_years] + [np.nan]
        assert np.array_equal(batch.bankrupt_at, expected_at, equal_nan=True)
        for p, row in enumerate(z):
            payments, _, _ = simulate_path_year_step(cfg, policy, M1, row)
            assert np.allclose(payments, batch.payments[p], rtol=1e-12, atol=0, equal_nan=True)

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="np.longdouble is no wider than float64 here",
    )
    @pytest.mark.parametrize(
        "market, pi, theta, path, bound",
        [
            # near bankruptcy: the payout nearly cancels the assets, so a
            # payment's error is dominated by the conditioning there
            ("M3", 0.865, 0.345, 2441, 3e-9),
            ("M1", 1.5, 0.9, 2393, 1e-11),
        ],
    )
    def test_payments_close_to_longdouble_run(self, market, pi, theta, path, bound):
        policy, mkt = PolicyParams(pi, theta), preset_market(market)
        z = RandomStream(0, path).normals(CFG.n_steps)
        exact = longdouble_payments(CFG, policy, mkt, z)
        payments = simulate_batch(CFG, policy, mkt, z[None, :]).payments[0]
        assert np.array_equal(np.isnan(exact), np.isnan(payments))
        error = np.abs((payments.astype(np.longdouble) - exact) / exact)
        assert float(np.nanmax(error)) <= bound

    @TOTALS
    @pytest.mark.parametrize("dt", STEP_SIZES)
    def test_recordings_match_single_path_through_bankruptcy(self, dt, totals):
        # funding ratios and tracked accounts are NaN from the bankruptcy
        # jump on, and equal the state machine's before it
        cfg, policy = FundConfig(dt=dt), PolicyParams(pi=3.0, theta=0.0)
        batch = run(
            cfg, policy, M1, draws(0, 30, cfg.n_steps), totals,
            record_state=True, tracked_generations=(41, 60),
        )
        assert batch.n_bankrupt > 0
        ratios = batch.assets / batch.liabilities
        for p in range(30):
            rec = simulate_path(cfg, policy, M1, RandomStream(0, p), tracked_generations=(41, 60))
            assert np.allclose(rec.funding_ratios, ratios[p], rtol=1e-9, equal_nan=True)
            for i in (41, 60):
                assert np.allclose(
                    rec.account_trajectories[i],
                    batch.account_trajectories[i][p],
                    rtol=1e-9,
                    equal_nan=True,
                )

    @pytest.mark.parametrize(
        "run, message",
        [
            pytest.param(
                lambda n=n: normal_matrix(0, n, CFG.n_steps), "^n_paths", id=f"normal_matrix-{n}"
            )
            for n in (0, -3)
        ]
        + [
            # no path, or other than the config's step count
            pytest.param(
                lambda run=run, shape=shape: run(np.zeros(shape)), "^normals must have shape",
                id=f"{name}-{kind}",
            )
            for name, run in SIMULATORS.items()
            for kind, shape in (("0", (0, CFG.n_steps)), ("steps", (3, CFG.n_steps - 12)))
        ],
    )
    def test_rejects_path_count_below_one(self, run, message):
        with pytest.raises(ValueError, match=message):
            run()

    def test_payments_absent_from_bankruptcy_on(self):
        policy = PolicyParams(pi=3.0, theta=0.0)
        batch = simulate_batch(CFG, policy, M1, draws(0, 50))
        dead = np.flatnonzero(~np.isnan(batch.bankrupt_at))
        assert dead.size > 0
        for p in dead[:5]:
            t = int(batch.bankrupt_at[p])
            assert np.all(np.isnan(batch.payments[p, t - 1 :]))
            assert np.all(~np.isnan(batch.payments[p, : t - 1]))

    def test_accounts_stay_nonnegative(self):
        policy = PolicyParams(pi=2.0, theta=0.9)
        batch = simulate_batch(CFG, policy, preset_market("M3"), draws(5, 10),
                               tracked_generations=(41,))
        traj = batch.account_trajectories[41]
        assert np.nanmin(traj) >= 0.0

    def test_rejects_bad_tracked_generation(self):
        with pytest.raises(ValueError, match="tracked generation"):
            simulate_batch(CFG, PolicyParams(0.5, 0.5), M1, draws(0, 1), tracked_generations=(39,))

    def test_solvency_margin_is_smallest_post_payout_ratio(self):
        # the state machine, driven by hand, gives the funding ratio right
        # after every year's payout; the margin is its minimum over paths
        policy = PolicyParams(pi=0.865, theta=0.345)
        batch = simulate_batch(CFG, policy, M1, draws(7, 3))
        assert batch.n_bankrupt == 0
        ratios = []
        for p in range(3):
            z = RandomStream(7, p).normals(CFG.n_steps)
            state = initialize_fund(CFG, M1.r)
            for t in range(CFG.horizon + 1):
                state, _ = year_boundary_jump(state, CFG, t)
                ratios.append(state.assets / state.liabilities)
                if t < CFG.horizon:
                    for step in range(CFG.steps_per_year):
                        state = step_month(state, CFG, policy, M1, z[t * 12 + step])
        assert batch.solvency_margin == pytest.approx(min(ratios), rel=1e-9)
        assert batch.solvency_margin > 0.0

    def test_solvency_margin_is_minus_bankrupt_fraction(self):
        policy = PolicyParams(pi=3.0, theta=0.0)
        batch = simulate_batch(CFG, policy, M1, draws(0, 30))
        assert 0 < batch.n_bankrupt < 30
        assert batch.solvency_margin == -batch.n_bankrupt / 30

    @pytest.mark.parametrize("pi, theta", [(0.865, 0.345), (3.0, 0.0)])
    def test_same_results_for_either_draw_layout(self, pi, theta):
        # the draws are stored time-major; a row-major copy of the same
        # numbers must give bit-identical results, solvent or bankrupt
        policy = PolicyParams(pi=pi, theta=theta)
        time_major = normal_matrix(6, 40, CFG.n_steps)
        row_major = np.ascontiguousarray(time_major)
        assert row_major.flags.c_contiguous and not time_major.flags.c_contiguous
        kwargs = dict(record_funding_ratios=True, record_state=True, tracked_generations=(41, 70))
        a = simulate_batch(CFG, policy, M1, time_major, **kwargs)
        b = simulate_batch(CFG, policy, M1, row_major, **kwargs)
        assert (a.n_bankrupt > 0) == (pi == 3.0)
        for name in ("payments", "bankrupt_at", "mean_funding_ratio", "assets", "liabilities"):
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
        assert a.solvency_margin == b.solvency_margin
        for i in (41, 70):
            assert np.array_equal(
                a.account_trajectories[i], b.account_trajectories[i], equal_nan=True
            )

    @pytest.mark.parametrize("dt", STEP_SIZES)
    @pytest.mark.parametrize("pi, theta", [(0.865, 0.345), (3.0, 0.0)])
    def test_given_year_totals_leave_every_result_unchanged(self, pi, theta, dt):
        # totals summed once give what the year step sums for itself, bit for
        # bit, solvent or bankrupt, in every recording
        cfg, policy = FundConfig(dt=dt), PolicyParams(pi=pi, theta=theta)
        normals = draws(6, 40, cfg.n_steps)
        summed = run(cfg, policy, M1, normals, False, **RECORD_ALL)
        given = run(cfg, policy, M1, normals, True, **RECORD_ALL)
        assert (given.n_bankrupt > 0) == (pi == 3.0)
        for name in ("payments", "bankrupt_at", "mean_funding_ratio", "assets", "liabilities"):
            assert np.array_equal(getattr(summed, name), getattr(given, name), equal_nan=True), name
        assert summed.solvency_margin == given.solvency_margin
        assert given.account_trajectories.keys() == {41, 70}
        for i in (41, 70):
            assert np.array_equal(
                summed.account_trajectories[i], given.account_trajectories[i], equal_nan=True
            )

    def test_given_year_totals_are_what_the_asset_grows_by(self):
        # the engine reads the totals it is given instead of summing the draws
        policy, normals = PolicyParams(0.865, 0.345), draws(6, 40)
        summed = simulate_batch(CFG, policy, M1, normals, record_state=True)
        zero = given_totals(CFG, policy, M1, normals, np.zeros((CFG.horizon, 40)),
                            record_state=True)
        assert np.array_equal(summed.assets[:, 0], zero.assets[:, 0])
        assert not np.array_equal(summed.assets[:, CFG.steps_per_year],
                                  zero.assets[:, CFG.steps_per_year])

    def test_rejects_year_totals_of_other_draws(self):
        normals = draws(0, 3)
        with pytest.raises(ValueError, match=r"^year_totals must have shape \(100, 3\)"):
            given_totals(CFG, PolicyParams(0.5, 0.5), M1, normals, _year_totals(CFG, draws(0, 4)))

    @pytest.mark.parametrize("recording", RECORDINGS)
    def test_recordings_of_several_policies_rejected_before_any_work(self, recording):
        paid = []
        with pytest.raises(ValueError, match=r"^recordings need one policy, got 2$"):
            _simulate(CFG, [PolicyParams(0.5, 0.5)] * 2, M1, draws(0, 3), None,
                      lambda *args: paid.append(args), **recording)
        assert paid == []

    @pytest.mark.parametrize("market", ["M1", "M2", "M3"])
    def test_no_floating_point_event_across_policy_box(self, market):
        # dead paths are frozen at a finite state, so no lattice policy, solvent
        # or bankrupt, raises an overflow, division or invalid operation
        mkt = preset_market(market)
        n_bankrupt = 0
        with np.errstate(all="raise"):
            for pi in np.linspace(0.0, 3.0, 7):
                for theta in np.linspace(0.0, 1.0, 5):
                    batch = simulate_batch(
                        CFG, PolicyParams(pi=pi, theta=theta), mkt, draws(0, 64),
                        record_funding_ratios=True, record_state=True,
                        tracked_generations=(41,),
                    )
                    n_bankrupt += batch.any_bankruptcy
                    live = np.isnan(batch.bankrupt_at)
                    assert np.isfinite(batch.assets[live] / batch.liabilities[live]).all()
        assert n_bankrupt > 0

    @pytest.mark.parametrize("n_paths", [2, 7, 2_000, 8_193])
    @pytest.mark.parametrize("pi, theta", [(0.865, 0.345), (3.0, 0.0)])
    def test_mean_funding_ratio_matches_oracle(self, pi, theta, n_paths):
        # the streamed mean equals the NaN-aware mean of the per-path ratios
        # of the same run bit for bit, on either side of the ufunc buffer size
        batch = simulate_batch(
            CFG, PolicyParams(pi, theta), M1, draws(1, n_paths),
            record_funding_ratios=True, record_state=True,
        )
        assert (batch.n_bankrupt > 0) == (pi == 3.0)
        expected = mean_funding_ratio_trajectory(batch.assets / batch.liabilities)
        assert batch.mean_funding_ratio.shape == (CFG.n_steps + 1,)
        assert np.array_equal(batch.mean_funding_ratio, expected, equal_nan=True)

    def test_mean_funding_ratio_is_nan_once_every_path_is_dead(self):
        # both paths die, so the mean has months with no live path: NaN
        # there, without a 0/0
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error", RuntimeWarning)
            batch = simulate_batch(
                CFG, PolicyParams(3.0, 0.0), M1, draws(0, 2),
                record_funding_ratios=True, record_state=True,
            )
        assert batch.n_bankrupt == 2
        expected = mean_funding_ratio_trajectory(batch.assets / batch.liabilities)
        nan_months = np.isnan(batch.mean_funding_ratio)
        assert 0 < nan_months.sum() < CFG.n_steps
        assert nan_months[-1] and not nan_months[0]
        assert np.array_equal(batch.mean_funding_ratio, expected, equal_nan=True)

    def test_risk_free_batch_matches_oracle(self):
        policy = PolicyParams(pi=0.0, theta=0.0)
        batch = simulate_batch(CFG, policy, M1, draws(0, 3), record_state=True)
        payments, _, _ = risk_free_oracle(CFG, M1.r)
        assert np.allclose(batch.payments, payments[None, :], rtol=1e-9)
        assert batch.assets[0, 0] == pytest.approx(1043.6835286407702, rel=1e-9)


@functools.lru_cache(maxsize=2)
def _full_run(pi: float, theta: float):
    return simulate_batch(
        CFG, PolicyParams(pi, theta), M1, normal_matrix(4, 48, CFG.n_steps), **RECORD_ALL
    )


class TestEngineLayout:
    """Bit-level invariants of the memory layout of ``simulate_batch``."""

    @pytest.mark.parametrize("pi, theta", [(0.865, 0.345), (3.0, 0.0)])
    @given(bounds=st.tuples(st.integers(0, 48), st.integers(0, 48)).filter(lambda b: b[0] < b[1]))
    @settings(max_examples=10, deadline=None)
    def test_path_slice_reproduces_rows(self, pi, theta, bounds):
        # every path runs on its own: the draws of paths a..b-1 alone give
        # rows a..b-1 of the full run bit for bit, which path chunking needs
        a, b = bounds
        full = _full_run(pi, theta)
        assert (full.n_bankrupt > 0) == (pi == 3.0)
        part = simulate_batch(
            CFG, PolicyParams(pi, theta), M1, normal_matrix(4, 48, CFG.n_steps)[a:b],
            **RECORD_ALL,
        )
        for name in PATH_ARRAYS:
            assert np.array_equal(getattr(part, name), getattr(full, name)[a:b], equal_nan=True)
        for i in (41, 70):
            assert np.array_equal(
                part.account_trajectories[i], full.account_trajectories[i][a:b], equal_nan=True
            )

    @pytest.mark.parametrize("pi, theta", [(0.865, 0.345), (3.0, 0.0)])
    def test_tracked_account_ends_at_its_payment(self, pi, theta):
        # a tracked account is its start-of-year value times the crediting so
        # far, so its last sample is the benefit paid at retirement bit for
        # bit; a path that dies at that very boundary keeps a finite last sample
        batch = _full_run(pi, theta)
        for i in (41, 70):
            paid = ~np.isnan(batch.payments[:, i - 1])
            assert paid.any()
            assert np.array_equal(
                batch.account_trajectories[i][paid, -1], batch.payments[paid, i - 1]
            )

    @given(
        pi=st.floats(0.0, 3.0),
        theta=st.floats(0.0, 1.0),
        market=st.sampled_from(["M1", "M2", "M3"]),
        dt=st.sampled_from(STEP_SIZES),
        recording=st.sampled_from(RECORDINGS),
    )
    # tracked accounts alone: the only call that needs the crediting so far but not the growth
    @example(
        pi=0.865, theta=0.345, market="M1", dt=1 / 12, recording={"tracked_generations": (41, 70)}
    )
    @settings(max_examples=20, deadline=None)
    def test_recording_leaves_results_unchanged(self, pi, theta, market, dt, recording):
        cfg, policy, mkt = FundConfig(dt=dt), PolicyParams(pi, theta), preset_market(market)
        normals = draws(2, 8, cfg.n_steps)
        plain = simulate_batch(cfg, policy, mkt, normals)
        full = simulate_batch(cfg, policy, mkt, normals, **RECORD_ALL)
        part = simulate_batch(cfg, policy, mkt, normals, **recording)
        for recorded in (full, part):
            assert np.array_equal(plain.payments, recorded.payments, equal_nan=True)
            assert np.array_equal(plain.bankrupt_at, recorded.bankrupt_at, equal_nan=True)
            assert plain.solvency_margin == recorded.solvency_margin
        # a recording asked for on its own equals that of a run recording everything
        for key in recording:
            for name in RECORDED_FIELDS.get(key, ()):
                assert np.array_equal(getattr(part, name), getattr(full, name), equal_nan=True)
        assert part.account_trajectories.keys() == set(recording.get("tracked_generations", ()))
        for i, trajectory in part.account_trajectories.items():
            assert np.array_equal(trajectory, full.account_trajectories[i], equal_nan=True)

    @pytest.mark.parametrize("pi, theta", [(0.865, 0.345), (3.0, 0.0)])
    def test_results_c_contiguous_with_path_rows(self, pi, theta):
        # each path's record is one contiguous row; the funding ratio is
        # streamed as one mean per step; the payments are the transpose of a
        # time-major buffer, one contiguous row per year
        batch = _full_run(pi, theta)
        n_paths, samples = 48, CFG.n_steps + 1
        assert batch.payments.shape == (n_paths, CFG.horizon)
        assert batch.payments.T.flags.c_contiguous and not batch.payments.flags.c_contiguous
        shapes = {
            "bankrupt_at": (n_paths,),
            "mean_funding_ratio": (samples,),
            "assets": (n_paths, samples),
            "liabilities": (n_paths, samples),
        }
        for name, shape in shapes.items():
            array = getattr(batch, name)
            assert array.shape == shape and array.flags.c_contiguous, name
        for i in (41, 70):
            array = batch.account_trajectories[i]
            window = CFG.n_generations * CFG.steps_per_year + 1
            assert array.shape == (n_paths, window) and array.flags.c_contiguous


class TestFundConfigValidation:
    def test_defaults(self):
        assert CFG.n_generations == 40
        assert CFG.steps_per_year == 12
        assert CFG.n_steps == 1200

    def test_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            FundConfig(dt=0.3)

    def test_bad_beta(self):
        with pytest.raises(ValueError, match="beta"):
            FundConfig(beta=1.0)

    def test_bad_ages(self):
        with pytest.raises(ValueError, match="retirement_age"):
            FundConfig(entry_age=65, retirement_age=65)
        with pytest.raises(ValueError, match="retirement_age"):
            FundConfig(entry_age=64, retirement_age=65)  # one generation: 0/0 funding ratio

    @pytest.mark.parametrize("field", ["y", "dt", "beta", "gamma"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            FundConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("horizon", 100.0), ("entry_age", 25.5), ("retirement_age", 65.0), ("horizon", True),
    ])
    def test_non_integer_ages_and_horizon(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            FundConfig(**{field: value})

    def test_generations_in_window(self):
        assert CFG.generations_in_window == range(40, 101)
        short = FundConfig(horizon=45, entry_age=30, retirement_age=40)
        assert list(short.generations_in_window) == list(range(10, 46))

    def test_policy_box(self):
        with pytest.raises(ValueError, match="pi"):
            PolicyParams(pi=3.1, theta=0.5)
        with pytest.raises(ValueError, match="theta"):
            PolicyParams(pi=1.0, theta=-0.1)
