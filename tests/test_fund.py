import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcfund.fund import FundConfig, PolicyParams, entry_cohort_account, simulate_batch
from cdcfund.idc import idc_terminal_benefits, idc_trajectories
from cdcfund.market import RandomStream, normal_matrix, preset_market
from reference_fund import (
    FundState,
    declaration_rate,
    generation_indicator,
    initialize_fund,
    mean_funding_ratio_trajectory,
    simulate_path,
    step_month,
    year_boundary_jump,
)

M1 = preset_market("M1")
CFG = FundConfig()
RECORD_ALL = dict(record_funding_ratios=True, record_state=True, tracked_generations=(41, 70))
PATH_ARRAYS = ("payments", "bankrupt_at", "assets", "liabilities")


def risk_free_oracle(cfg: FundConfig, r: float):
    """Independent closed-form recursion for the pi=0, theta=0 fund.

    Every quantity evolves at the risk-free rate, so annual arithmetic
    suffices: accounts grow by exp(r), receive y, and the retiree's account
    is paid out.
    """
    n = cfg.n_generations
    accounts = {i: entry_cohort_account(i, cfg, r) for i in range(1, n + 1)}
    assets = sum(accounts.values())
    payments = []
    for t in range(cfg.horizon + 1):
        if t > 0:
            accounts = {i: v * math.exp(r) for i, v in accounts.items()}
            benefit = accounts.pop(t)
            payments.append(benefit)
            accounts[t + n] = 0.0
            assets = assets * math.exp(r) + n * cfg.y - benefit
        else:
            assets += n * cfg.y
        accounts = {i: v + cfg.y for i, v in accounts.items()}
    return np.array(payments), assets, accounts


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


class TestSimulateBatch:
    def test_matches_single_path(self):
        policy = PolicyParams(pi=0.865, theta=0.345)
        batch = simulate_batch(
            CFG, policy, M1, seed=7, n_paths=4,
            record_state=True, tracked_generations=(41,),
        )
        ratios = batch.assets / batch.liabilities
        for p in range(4):
            rec = simulate_path(CFG, policy, M1, RandomStream(7, p), tracked_generations=(41,))
            assert np.allclose(rec.payments, batch.payments[p], rtol=1e-9, equal_nan=True)
            assert np.allclose(rec.funding_ratios, ratios[p], rtol=1e-9, equal_nan=True)
            assert np.allclose(
                rec.account_trajectories[41],
                batch.account_trajectories[41][p],
                rtol=1e-9,
                equal_nan=True,
            )

    def test_matches_single_path_through_bankruptcy(self):
        policy = PolicyParams(pi=3.0, theta=0.0)
        batch = simulate_batch(CFG, policy, M1, seed=0, n_paths=30)
        assert batch.n_bankrupt > 0
        for p in range(30):
            rec = simulate_path(CFG, policy, M1, RandomStream(0, p))
            expected = rec.bankrupt_at if rec.bankrupt_at is not None else np.nan
            assert np.array_equal(
                np.isnan([expected]), np.isnan([batch.bankrupt_at[p]])
            ) and (np.isnan(expected) or expected == batch.bankrupt_at[p])
            assert np.allclose(rec.payments, batch.payments[p], rtol=1e-9, equal_nan=True)

    def test_recordings_match_single_path_through_bankruptcy(self):
        # funding ratios and tracked accounts are NaN from the bankruptcy
        # jump on, and equal the state machine's before it
        policy = PolicyParams(pi=3.0, theta=0.0)
        batch = simulate_batch(
            CFG, policy, M1, seed=0, n_paths=30,
            record_state=True, tracked_generations=(41, 60),
        )
        assert batch.n_bankrupt > 0
        ratios = batch.assets / batch.liabilities
        for p in range(30):
            rec = simulate_path(CFG, policy, M1, RandomStream(0, p), tracked_generations=(41, 60))
            assert np.allclose(rec.funding_ratios, ratios[p], rtol=1e-9, equal_nan=True)
            for i in (41, 60):
                assert np.allclose(
                    rec.account_trajectories[i],
                    batch.account_trajectories[i][p],
                    rtol=1e-9,
                    equal_nan=True,
                )

    @pytest.mark.parametrize("n_paths", [0, -3])
    @pytest.mark.parametrize(
        "run",
        [
            lambda n_paths: simulate_batch(CFG, PolicyParams(0.5, 0.5), M1, n_paths=n_paths),
            lambda n_paths: idc_terminal_benefits(CFG, 0.5, M1, n_paths=n_paths, generations=(41,)),
            lambda n_paths: idc_trajectories(CFG, 0.5, M1, n_paths=n_paths, generations=(41,)),
        ],
        ids=["simulate_batch", "idc_terminal_benefits", "idc_trajectories"],
    )
    def test_rejects_path_count_below_one(self, run, n_paths):
        with pytest.raises(ValueError, match="^n_paths"):
            run(n_paths)

    def test_payments_absent_from_bankruptcy_on(self):
        policy = PolicyParams(pi=3.0, theta=0.0)
        batch = simulate_batch(CFG, policy, M1, seed=0, n_paths=50)
        dead = np.flatnonzero(~np.isnan(batch.bankrupt_at))
        assert dead.size > 0
        for p in dead[:5]:
            t = int(batch.bankrupt_at[p])
            assert np.all(np.isnan(batch.payments[p, t - 1 :]))
            assert np.all(~np.isnan(batch.payments[p, : t - 1]))

    def test_accounts_stay_nonnegative(self):
        policy = PolicyParams(pi=2.0, theta=0.9)
        batch = simulate_batch(CFG, policy, preset_market("M3"), seed=5, n_paths=10,
                               tracked_generations=(41,))
        traj = batch.account_trajectories[41]
        assert np.nanmin(traj) >= 0.0

    def test_rejects_bad_tracked_generation(self):
        with pytest.raises(ValueError, match="tracked generation"):
            simulate_batch(CFG, PolicyParams(0.5, 0.5), M1, n_paths=1, tracked_generations=(39,))

    def test_solvency_margin_is_smallest_post_payout_ratio(self):
        # the state machine, driven by hand, gives the funding ratio right
        # after every year's payout; the margin is its minimum over paths
        policy = PolicyParams(pi=0.865, theta=0.345)
        batch = simulate_batch(CFG, policy, M1, seed=7, n_paths=3)
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
        batch = simulate_batch(CFG, policy, M1, seed=0, n_paths=30)
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
        a = simulate_batch(CFG, policy, M1, n_paths=40, normals=time_major, **kwargs)
        b = simulate_batch(CFG, policy, M1, n_paths=40, normals=row_major, **kwargs)
        assert (a.n_bankrupt > 0) == (pi == 3.0)
        for name in ("payments", "bankrupt_at", "mean_funding_ratio", "assets", "liabilities"):
            assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
        assert a.solvency_margin == b.solvency_margin
        for i in (41, 70):
            assert np.array_equal(
                a.account_trajectories[i], b.account_trajectories[i], equal_nan=True
            )

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
                        CFG, PolicyParams(pi=pi, theta=theta), mkt, seed=0, n_paths=64,
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
            CFG, PolicyParams(pi, theta), M1, seed=1, n_paths=n_paths,
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
                CFG, PolicyParams(3.0, 0.0), M1, seed=0, n_paths=2,
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
        batch = simulate_batch(CFG, policy, M1, seed=0, n_paths=3, record_state=True)
        payments, final_assets, _ = risk_free_oracle(CFG, M1.r)
        assert np.allclose(batch.payments, payments[None, :], rtol=1e-9)
        assert batch.assets[0, 0] == pytest.approx(1043.6835286407702, rel=1e-9)


@functools.lru_cache(maxsize=2)
def _full_run(pi: float, theta: float):
    return simulate_batch(
        CFG, PolicyParams(pi, theta), M1, n_paths=48, normals=normal_matrix(4, 48, CFG.n_steps),
        **RECORD_ALL,
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
            CFG, PolicyParams(pi, theta), M1, n_paths=b - a,
            normals=normal_matrix(4, 48, CFG.n_steps)[a:b], **RECORD_ALL,
        )
        for name in PATH_ARRAYS:
            assert np.array_equal(getattr(part, name), getattr(full, name)[a:b], equal_nan=True)
        for i in (41, 70):
            assert np.array_equal(
                part.account_trajectories[i], full.account_trajectories[i][a:b], equal_nan=True
            )

    @given(
        pi=st.floats(0.0, 3.0),
        theta=st.floats(0.0, 1.0),
        market=st.sampled_from(["M1", "M2", "M3"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_recording_leaves_results_unchanged(self, pi, theta, market):
        policy, mkt = PolicyParams(pi, theta), preset_market(market)
        plain = simulate_batch(CFG, policy, mkt, seed=2, n_paths=8)
        recorded = simulate_batch(CFG, policy, mkt, seed=2, n_paths=8, **RECORD_ALL)
        assert np.array_equal(plain.payments, recorded.payments, equal_nan=True)
        assert np.array_equal(plain.bankrupt_at, recorded.bankrupt_at, equal_nan=True)
        assert plain.solvency_margin == recorded.solvency_margin

    @pytest.mark.parametrize("pi, theta", [(0.865, 0.345), (3.0, 0.0)])
    def test_results_c_contiguous_with_path_rows(self, pi, theta):
        # each path's record is one contiguous row; the funding ratio is
        # streamed as one mean per step
        batch = _full_run(pi, theta)
        n_paths, samples = 48, CFG.n_steps + 1
        shapes = {
            "payments": (n_paths, CFG.horizon),
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

    def test_policy_box(self):
        with pytest.raises(ValueError, match="pi"):
            PolicyParams(pi=3.1, theta=0.5)
        with pytest.raises(ValueError, match="theta"):
            PolicyParams(pi=1.0, theta=-0.1)
