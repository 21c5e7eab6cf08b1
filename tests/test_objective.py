import math
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcfund.fund import FundConfig, PolicyParams, SimulationBatch
from cdcfund.market import preset_market
from cdcfund.objective import (
    ObjectiveSpec,
    ObjectiveValue,
    certainty_equivalent,
    certainty_equivalent_stderr,
    crra_utility,
    evaluate_policies,
    evaluate_policy,
    value_from_batch,
)

M1 = preset_market("M1")
GAMMA_GRID = (0.5, 1.0, 2.0, 3.0, 5.0, 10.0)


class TestCrraUtility:
    def test_log_branch(self):
        assert crra_utility(1.0, 1.0) == 0.0

    def test_negative_inverse_branch(self):
        assert crra_utility(2.0, 2.0) == -0.5

    def test_square_root_branch(self):
        assert crra_utility(4.0, 0.5) == pytest.approx(4.0, rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="non-positive"):
            crra_utility(0.0, 2.0)
        with pytest.raises(ValueError, match="non-positive"):
            crra_utility(np.array([1.0, -2.0]), 0.5)

    def test_vectorized(self):
        out = crra_utility(np.array([1.0, 2.0]), 2.0)
        assert np.allclose(out, [-1.0, -0.5])


def one_path_eu(payments, beta: float, gamma: float) -> float:
    """Expected utility that ``value_from_batch`` gives a one-path batch paying
    ``payments[t-1]`` at year ``t``."""
    batch = SimulationBatch(
        payments=np.asarray(payments, dtype=float)[None, :], bankrupt_at=np.array([np.nan]),
        horizon=len(payments), steps_per_year=12, solvency_margin=1.0,
    )
    return value_from_batch(batch, FundConfig(beta=beta, gamma=gamma)).eu


class TestDiscountedUtilitySum:
    def test_unit_payments_log_utility(self):
        assert one_path_eu(np.ones(100), 0.98, 1.0) == 0.0

    def test_single_nonunit_payment(self):
        payments = np.ones(100)
        payments[0] = math.e
        assert one_path_eu(payments, 0.98, 1.0) == pytest.approx(0.98, rel=1e-12)

    def test_constant_stream_geometric_sum(self):
        c = 5.0
        beta = 0.98
        expected = (-1.0 / c) * beta * (1 - beta**100) / (1 - beta)
        got = one_path_eu(np.full(100, c), beta, 2.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_propagates_domain_error(self):
        with pytest.raises(ValueError):
            one_path_eu(np.array([1.0, 0.0]), 0.98, 2.0)


class TestCertaintyEquivalent:
    def test_log_inverse(self):
        assert certainty_equivalent(0.0, 1.0) == 1.0

    def test_negative_inverse(self):
        assert certainty_equivalent(-0.5, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_square_root_inverse(self):
        assert certainty_equivalent(4.0, 0.5) == pytest.approx(4.0, rel=1e-14)

    def test_range_error(self):
        with pytest.raises(ValueError, match="range"):
            certainty_equivalent(1.0, 2.0)  # needs eu < 0
        with pytest.raises(ValueError, match="range"):
            certainty_equivalent(-1.0, 0.5)  # needs eu > 0

    @given(
        x=st.floats(min_value=1e-3, max_value=1e6),
        gamma=st.sampled_from(GAMMA_GRID),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, x, gamma):
        assert certainty_equivalent(crra_utility(x, gamma), gamma) == pytest.approx(
            x, rel=1e-12
        )


class TestEvaluatePolicy:
    def test_deterministic_degenerate_batch(self):
        # pi = 0, theta = 0 produces identical paths, so the estimate is exact
        cfg = FundConfig(gamma=3.0)
        spec = ObjectiveSpec(cfg=cfg, mkt=M1, n_paths=8, seed=0)
        value = evaluate_policy(PolicyParams(pi=0.0, theta=0.0), spec)
        steady = sum(math.exp(0.02 * k) for k in range(1, 41))
        eu = crra_utility(steady, cfg.gamma) * sum(cfg.beta**t for t in range(1, 101))
        assert not value.any_bankruptcy
        assert value.eu == pytest.approx(eu, rel=1e-9)
        assert value.ce == pytest.approx(certainty_equivalent(eu, cfg.gamma), rel=1e-9)
        assert value.eu_stderr == pytest.approx(0.0, abs=1e-12)

    def test_bit_identical_repeat(self):
        cfg = FundConfig(gamma=3.0)
        spec = ObjectiveSpec(cfg=cfg, mkt=M1, n_paths=200, seed=9)
        policy = PolicyParams(pi=0.9, theta=0.4)
        a = evaluate_policy(policy, spec)
        b = evaluate_policy(policy, spec)
        assert a == b

    def test_soft_constraint_zeroes_ce(self):
        cfg = FundConfig(gamma=3.0)
        spec = ObjectiveSpec(cfg=cfg, mkt=M1, n_paths=200, seed=0)
        value = evaluate_policy(PolicyParams(pi=3.0, theta=0.0), spec)
        assert value.any_bankruptcy
        assert value.n_bankrupt > 0
        assert value.ce == 0.0
        assert math.isnan(value.eu)

    def test_solvency_margin_sign_is_the_bankruptcy_flag(self):
        # a scan across the bankruptcy boundary of M1 at pi = 0.316: the
        # smallest adjustment strength is bankrupt, the rest are solvent
        spec = ObjectiveSpec(cfg=FundConfig(gamma=10.0), mkt=M1, n_paths=2000, seed=0)
        for theta, bankrupt in [(0.010, True), (0.020, False), (0.040, False),
                                (0.053, False), (0.105, False)]:
            value = evaluate_policy(PolicyParams(pi=0.316, theta=theta), spec)
            assert value.any_bankruptcy is bankrupt, theta
            assert (value.solvency_margin < 0.0) is bankrupt, theta
            if bankrupt:
                assert value.solvency_margin == -value.n_bankrupt / 2000
                assert value.ce == 0.0
            else:
                assert value.ce > 0.0

    def test_leveraged_fund_without_adjustment_survives_in_weak_market(self):
        # with theta = 0 the liability decays with the asset's negative
        # expected log-growth, so payments stay below contributions and the
        # fund cannot be drained; the value is positive but tiny
        cfg = FundConfig(gamma=3.0)
        spec = ObjectiveSpec(cfg=cfg, mkt=preset_market("M3"), n_paths=2000, seed=0)
        value = evaluate_policy(PolicyParams(pi=3.0, theta=0.0), spec)
        assert not value.any_bankruptcy
        assert 0.0 < value.ce < 1.0

    def test_argmax_invariance_between_ce_and_eu(self):
        cfg = FundConfig(gamma=3.0)
        spec = ObjectiveSpec(cfg=cfg, mkt=M1, n_paths=100, seed=2)
        candidates = [
            PolicyParams(pi=p, theta=t)
            for p, t in [(0.2, 0.1), (0.6, 0.3), (1.0, 0.5), (1.4, 0.7)]
        ]
        values = [evaluate_policy(c, spec) for c in candidates]
        assert all(not v.any_bankruptcy for v in values)
        assert np.argmax([v.ce for v in values]) == np.argmax([v.eu for v in values])

    def test_stderr_scales_with_path_count(self):
        cfg = FundConfig(gamma=3.0)
        policy = PolicyParams(pi=0.9, theta=0.4)
        big = evaluate_policy(policy, ObjectiveSpec(cfg=cfg, mkt=M1, n_paths=4000, seed=3))
        small = evaluate_policy(policy, ObjectiveSpec(cfg=cfg, mkt=M1, n_paths=2000, seed=3))
        ratio = small.eu_stderr / big.eu_stderr
        assert 1.1 < ratio < 1.9  # roughly sqrt(2)

    def test_ce_stderr_delta_method(self):
        # gamma = 1: d(exp(eu))/d(eu) = exp(eu)
        assert certainty_equivalent_stderr(0.5, 0.1, 1.0) == pytest.approx(
            math.exp(0.5) * 0.1, rel=1e-12
        )
        # gamma = 2: ce = 1/(-eu), d(ce)/d(eu) = ce / ((1-gamma) eu)
        eu, se = -0.25, 0.01
        ce = certainty_equivalent(eu, 2.0)
        assert certainty_equivalent_stderr(eu, se, 2.0) == pytest.approx(
            abs(ce / ((1 - 2.0) * eu)) * se, rel=1e-12
        )

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="n_paths"):
            ObjectiveSpec(cfg=FundConfig(), mkt=M1, n_paths=0)

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", 1.0), ("n_paths", 10.0), ("seed", -1), ("seed", 2**64),
    ])
    def test_spec_rejects_non_integral_and_out_of_range_counts(self, field, value):
        # a float seed would be truncated by the uint64 stream key: seed 1.5
        # would run on seed 1's draws
        with pytest.raises(ValueError, match=f"^{field} must"):
            ObjectiveSpec(cfg=FundConfig(), mkt=M1, **{field: value})


class TestEvaluatePolicies:
    SPEC = ObjectiveSpec(cfg=FundConfig(horizon=30), mkt=M1, n_paths=20, seed=4)
    POLICIES = [PolicyParams(pi=pi, theta=0.3) for pi in (0.0, 0.5, 1.0, 2.0, 3.0)]
    MULTI_CPU = pytest.mark.skipif(
        len(os.sched_getaffinity(0)) < 2, reason="the pool needs two usable CPUs"
    )

    @pytest.fixture(autouse=True)
    def time_bound(self):
        """A pool that hangs fails its test after a minute instead of stalling
        the suite (a forked child does not inherit the pending alarm)."""

        def expire(signum, frame):
            raise TimeoutError("evaluate_policies did not return within 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def record_pids(monkeypatch):
        """Make each evaluation return the id of the process that ran it."""

        def pid_value(policy, spec):
            return ObjectiveValue(0.0, 0.0, 0.0, False, os.getpid(), 0.0)

        monkeypatch.setattr("cdcfund.objective.evaluate_policy", pid_value)

    def test_values_in_policy_order(self):
        values = evaluate_policies(iter(self.POLICIES), self.SPEC)
        serial = [evaluate_policy(policy, self.SPEC) for policy in self.POLICIES]
        assert [repr(v) for v in values] == [repr(v) for v in serial]  # NaN-aware
        assert evaluate_policies([], self.SPEC) == []
        assert multiprocessing.active_children() == []

    @MULTI_CPU
    def test_policies_are_scored_in_worker_processes(self, monkeypatch):
        self.record_pids(monkeypatch)
        pids = {v.n_bankrupt for v in evaluate_policies(self.POLICIES, self.SPEC)}
        assert os.getpid() not in pids
        assert 1 <= len(pids) <= len(os.sched_getaffinity(0))
        assert multiprocessing.active_children() == []

    def test_one_usable_cpu_scores_in_this_process(self, monkeypatch):
        self.record_pids(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        pids = {v.n_bankrupt for v in evaluate_policies(self.POLICIES, self.SPEC)}
        assert pids == {os.getpid()}

    def test_worker_error_is_raised_here(self, monkeypatch):
        def failing(policy, spec):
            if policy.pi == 2.0:
                raise ValueError("policy failed in a worker")
            return evaluate_policy(policy, spec)

        monkeypatch.setattr("cdcfund.objective.evaluate_policy", failing)
        with pytest.raises(ValueError, match="policy failed in a worker"):
            evaluate_policies(self.POLICIES, self.SPEC)
        assert multiprocessing.active_children() == []

    @MULTI_CPU
    def test_killed_worker_breaks_the_pool_instead_of_hanging(self, monkeypatch):
        parent = os.getpid()

        def dying(policy, spec):
            if policy.pi == 2.0 and os.getpid() != parent:
                os._exit(1)
            return evaluate_policy(policy, spec)

        monkeypatch.setattr("cdcfund.objective.evaluate_policy", dying)
        with pytest.raises(BrokenProcessPool):
            evaluate_policies(self.POLICIES, self.SPEC)
        assert multiprocessing.active_children() == []
