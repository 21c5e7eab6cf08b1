import math
import multiprocessing
import os
import signal
import tracemalloc
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdcfund import fund, objective
from cdcfund.fund import (
    OMEGA, FundConfig, PolicyParams, SimulationBatch, _simulate, _year_totals, simulate_batch,
)
from cdcfund.market import _normal_rows, preset_market
from cdcfund.objective import (
    ObjectiveSpec,
    certainty_equivalent,
    certainty_equivalent_stderr,
    crra_utility,
    evaluate_policies,
    evaluate_policy,
    value_from_batch,
)
from draws import draws, record_generated

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


class TestPathUtilities:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0, 10.0])
    def test_each_path_independent_of_the_other_rows_and_the_layout(self, gamma):
        # a path's utility is the same whichever block of paths it is scored
        # in, and whether the payments are the engine's time-major view or a
        # path-major copy
        cfg = FundConfig(horizon=30, gamma=gamma)
        batch = simulate_batch(cfg, PolicyParams(0.865, 0.345), M1, draws(5, 4_001, cfg.n_steps))
        assert not batch.any_bankruptcy and batch.payments.T.flags.c_contiguous
        whole = objective._path_utilities(batch.payments, cfg)
        # against the matrix product: same-sign terms, so each sum is within
        # horizon rounding errors of the exact one
        product = crra_utility(batch.payments, gamma) @ cfg.beta ** np.arange(1, cfg.horizon + 1)
        rtol = 2 * cfg.horizon * np.finfo(float).eps
        np.testing.assert_allclose(whole, product, rtol=rtol, atol=0)
        for size in (1, 7, 1_000, 3_333):
            parts = [objective._path_utilities(batch.payments[lo : lo + size], cfg)
                     for lo in range(0, 4_001, size)]
            assert np.array_equal(np.concatenate(parts), whole), size
        path_major = np.ascontiguousarray(batch.payments)
        assert path_major.flags.c_contiguous
        assert np.array_equal(objective._path_utilities(path_major, cfg), whole)
        copied = SimulationBatch(
            payments=path_major, bankrupt_at=batch.bankrupt_at, horizon=batch.horizon,
            steps_per_year=batch.steps_per_year, solvency_margin=batch.solvency_margin,
        )
        assert value_from_batch(copied, cfg) == value_from_batch(batch, cfg)


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

    def test_spec_sums_its_year_totals_once(self, monkeypatch):
        summed = []

        def recording(cfg, normals):
            summed.append(normals.shape)
            return _year_totals(cfg, normals)

        monkeypatch.setattr("cdcfund.objective._year_totals", recording)
        spec = ObjectiveSpec(cfg=FundConfig(horizon=30), mkt=M1, n_paths=50, seed=9)
        values = [evaluate_policy(PolicyParams(0.5, 0.4), spec)]
        assert "year_totals" in vars(spec)
        values.append(evaluate_policy(PolicyParams(0.9, 0.4), spec))
        assert summed == [(50, spec.cfg.n_steps)]
        assert spec.year_totals.shape == (30, 50) and not spec.year_totals.flags.writeable
        for value, pi in zip(values, (0.5, 0.9)):
            batch = simulate_batch(spec.cfg, PolicyParams(pi, 0.4), M1, spec.normals)
            assert repr(value) == repr(value_from_batch(batch, spec.cfg))

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
    # enough paths for several blocks: three on one CPU, four on two
    BLOCKS_SPEC = ObjectiveSpec(cfg=FundConfig(horizon=30), mkt=M1, n_paths=2_393, seed=4)
    # solvent; bankrupt in one block of 2,393 paths at seed 0 (paths 1,300 and
    # 1,424, in the second of three blocks on one CPU, the third of four on two);
    # bankrupt in every block
    LATTICE = [PolicyParams(0.865, 0.345), PolicyParams(3.0, 1.0), PolicyParams(3.0, 0.0)]
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
    def record_pids(monkeypatch, tmp_path):
        """Make each engine pass over a block write the id of the process that
        ran it; returns a reader of the ids written."""
        log = tmp_path / "pids"
        log.touch()

        def recording(*args, **kwargs):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return _simulate(*args, **kwargs)

        monkeypatch.setattr("cdcfund.objective._simulate", recording)
        return lambda: {int(pid) for pid in log.read_text().split()}

    @staticmethod
    def stub_pool(monkeypatch, cpus) -> list:
        """A stub pool that maps in this process and records the worker count
        it was asked for, so no process starts whatever the CPU count; the
        affinity mask is ``cpus``. Returns the recorded counts."""
        asked = []

        class Pool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                asked.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return map(fn, items)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
        monkeypatch.setattr("cdcfund.objective._worker_fn", None)  # the stub's initializer sets it
        return asked

    def test_values_in_policy_order(self):
        values = evaluate_policies(iter(self.POLICIES), self.SPEC)
        serial = [evaluate_policy(policy, self.SPEC) for policy in self.POLICIES]
        assert [repr(v) for v in values] == [repr(v) for v in serial]  # NaN-aware
        assert evaluate_policies([], self.SPEC) == []
        assert multiprocessing.active_children() == []

    @MULTI_CPU
    def test_policies_are_scored_in_worker_processes(self, monkeypatch, tmp_path):
        pids = self.record_pids(monkeypatch, tmp_path)
        evaluate_policies(self.POLICIES, self.BLOCKS_SPEC)
        assert os.getpid() not in pids()
        assert 1 <= len(pids()) <= len(os.sched_getaffinity(0))
        assert multiprocessing.active_children() == []

    def test_one_usable_cpu_scores_in_this_process(self, monkeypatch, tmp_path):
        pids = self.record_pids(monkeypatch, tmp_path)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        evaluate_policies(self.POLICIES, self.BLOCKS_SPEC)
        assert pids() == {os.getpid()}

    def test_worker_error_is_raised_here(self, monkeypatch):
        def failing(cfg, policies, *args, **kwargs):
            if any(policy.pi == 2.0 for policy in policies):
                raise ValueError("policy failed in a worker")
            return _simulate(cfg, policies, *args, **kwargs)

        monkeypatch.setattr("cdcfund.objective._simulate", failing)
        with pytest.raises(ValueError, match="policy failed in a worker"):
            evaluate_policies(self.POLICIES, self.BLOCKS_SPEC)
        assert multiprocessing.active_children() == []

    @MULTI_CPU
    def test_killed_worker_breaks_the_pool_instead_of_hanging(self, monkeypatch):
        parent = os.getpid()

        def dying(cfg, policies, *args, **kwargs):
            if any(policy.pi == 2.0 for policy in policies) and os.getpid() != parent:
                os._exit(1)
            return _simulate(cfg, policies, *args, **kwargs)

        monkeypatch.setattr("cdcfund.objective._simulate", dying)
        with pytest.raises(BrokenProcessPool):
            evaluate_policies(self.POLICIES, self.BLOCKS_SPEC)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [None, {0}], ids=["all-cpus", "one-cpu"])
    @pytest.mark.parametrize("policy", [PolicyParams(0.865, 0.345), PolicyParams(3.0, 0.0)],
                             ids=["solvent", "bankrupt"])
    @pytest.mark.parametrize("n_paths", [1, 999, 1_001, 2_393])
    def test_one_policy_in_path_blocks_equals_the_whole_batch(
        self, monkeypatch, n_paths, policy, cpus
    ):
        # seed 0 puts path 0 and a path of the second block into bankruptcy
        spec = ObjectiveSpec(cfg=FundConfig(), mkt=M1, n_paths=n_paths, seed=0)
        whole = evaluate_policy(policy, spec)
        assert whole.any_bankruptcy == (policy.pi == 3.0)
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        fresh = ObjectiveSpec(cfg=FundConfig(), mkt=M1, n_paths=n_paths, seed=0)
        assert [repr(v) for v in evaluate_policies([policy], fresh)] == [repr(whole)]
        assert multiprocessing.active_children() == []

    def test_one_policy_never_draws_the_whole_matrix(self, monkeypatch):
        # on one CPU every block is drawn in this process, where it can be seen
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        made = record_generated(monkeypatch)  # the spec's whole matrix
        drawn = []

        def recording(seed, lo, hi, n_steps):
            drawn.append((lo, hi))
            return _normal_rows(seed, lo, hi, n_steps)

        monkeypatch.setattr("cdcfund.objective._normal_rows", recording)
        spec = ObjectiveSpec(cfg=FundConfig(horizon=30), mkt=M1, n_paths=2_393, seed=4)
        evaluate_policies([self.POLICIES[1]], spec)
        assert drawn == [(0, 797), (797, 1_595), (1_595, 2_393)]  # three equal blocks
        assert not made and "normals" not in vars(spec)

    @pytest.mark.parametrize("policy, blocks_bankrupt", [
        (PolicyParams(0.865, 0.345), [False, False, False, False]),
        # found by a loop over seeds 0-5 at pi = 3, theta = 1: seed 0 sends
        # paths 1,300 and 1,424, in the third block, and no others, bankrupt
        (PolicyParams(3.0, 1.0), [False, False, True, False]),
        (PolicyParams(3.0, 0.0), [True, True, True, True]),
    ], ids=["solvent", "one-block-bankrupt", "bankrupt"])
    def test_blocks_send_back_per_path_values_not_payments(
        self, monkeypatch, policy, blocks_bankrupt
    ):
        # two CPUs: four blocks of 598 or 599 paths, scored by the stub pool
        self.stub_pool(monkeypatch, {0, 1})
        results = []
        fork_map = objective._fork_map

        def recording(fn, items):
            out = fork_map(fn, items)
            results.append(out)
            return out

        monkeypatch.setattr("cdcfund.objective._fork_map", recording)
        n_paths = 2_393
        spec = ObjectiveSpec(cfg=FundConfig(), mkt=M1, n_paths=n_paths, seed=0)
        [value] = evaluate_policies([policy], spec)
        [blocks] = results
        assert len(blocks) == len(blocks_bankrupt)
        bounds = [0, 598, 1_196, 1_794, 2_393]
        for block, bankrupt, size in zip(blocks, blocks_bankrupt, np.diff(bounds)):
            [(per_path, n_bankrupt, margin)] = block  # one policy's result
            # the only array is a solvent block's utilities, which own their data
            assert (per_path is None) is bankrupt
            if not bankrupt:
                assert per_path.shape == (size,) and per_path.base is None
            assert type(n_bankrupt) is int and (n_bankrupt > 0) is bankrupt
            assert type(margin) is float and (margin < 0.0) is bankrupt
            if bankrupt:
                assert margin == -n_bankrupt / size
        assert value.n_bankrupt == sum(n_bankrupt for [(_, n_bankrupt, _)] in blocks)
        # NaN-aware, n_bankrupt and margin included
        assert repr(value) == repr(evaluate_policy(policy, spec))

    @pytest.mark.parametrize("n_policies", [1, 5])
    @pytest.mark.parametrize("cpus, n_paths, n_blocks", [
        (2, 10_000, 10),  # `grid` and `evaluate` at 10k paths: 1,000-path blocks
        (8, 10_000, 16),  # the fewest multiple of 8 at or below 1,000 paths: 625
        (1, 10_000, 10),
        (8, 2_000, 8),  # `grid --fast` on 8 CPUs: one 250-path block per CPU
        (2, 2_393, 4),  # 598 or 599 paths, uneven
        (10_000, 20, 20),  # never more blocks than paths: no block is empty
        (10_000, 1, 1),  # a single block runs here, with no pool
    ])
    def test_paths_split_into_equal_blocks_a_multiple_of_the_cpus(
        self, monkeypatch, cpus, n_paths, n_blocks, n_policies
    ):
        # the stub pool maps the tasks in this process, where their draws can be seen
        asked = self.stub_pool(monkeypatch, set(range(cpus)))
        rows = []

        def recording(seed, lo, hi, n_steps):
            rows.append((lo, hi))
            return _normal_rows(seed, lo, hi, n_steps)

        monkeypatch.setattr("cdcfund.objective._normal_rows", recording)
        passes = []

        def simulating(cfg, policies, mkt, normals, year_totals, pay):
            passes.append((len(policies), None if year_totals is None else year_totals.shape))
            return _simulate(cfg, policies, mkt, normals, year_totals, pay)

        monkeypatch.setattr("cdcfund.objective._simulate", simulating)
        policies = self.POLICIES[:n_policies]
        spec = ObjectiveSpec(cfg=FundConfig(horizon=30), mkt=M1, n_paths=n_paths, seed=4)
        values = evaluate_policies(policies, spec)
        # each block is drawn once, in path order, and no two sizes differ by more than a path
        bounds = [n_paths * k // n_blocks for k in range(n_blocks + 1)]
        assert rows == list(zip(bounds, bounds[1:]))
        sizes = np.diff(bounds)
        assert sizes.min() >= 1 and sizes.max() <= objective._EVAL_BLOCK
        assert sizes.max() - sizes.min() <= 1
        assert asked == ([min(cpus, n_blocks)] if min(cpus, n_blocks) > 1 else [])
        # a block's year totals, summed once, are given to each of its engine
        # passes, at most _PASS_CELLS // paths policies a pass; one policy
        # sums each year's draws in the year step
        assert passes == [
            (min(per_pass, n_policies - k), (30, hi - lo) if n_policies > 1 else None)
            for lo, hi in zip(bounds, bounds[1:])
            for per_pass in [objective._PASS_CELLS // (hi - lo)]
            for k in range(0, n_policies, per_pass)
        ]
        monkeypatch.undo()
        assert [repr(v) for v in values] == [repr(evaluate_policy(p, spec)) for p in policies]

    @pytest.mark.parametrize("floor, sizes, passes", [
        # a pass holds 2 x 798 + 1 states, so the five policies fit one pass
        # on 1,597 // 5 = 319 paths: at a floor of 319 the 2,393 paths make
        # eight blocks of 299 or 300, each stepped in one pass
        (319, [299, 299, 299, 299, 299, 299, 299, 300], [slice(0, 5)]),
        # above it they keep three blocks of 797 or 798 paths, two policies a pass
        (320, [797, 798, 798], [slice(0, 2), slice(2, 4), slice(4, 5)]),
    ], ids=["one-pass-blocks", "under-the-floor"])
    def test_passes_split_the_policies_by_state_cells(self, monkeypatch, floor, sizes, passes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr("cdcfund.objective._PASS_CELLS", 2 * 798 + 1)
        monkeypatch.setattr("cdcfund.objective._PASS_FLOOR", floor)
        seen = []

        def simulating(cfg, policies, mkt, normals, *args):
            seen.append((len(normals), list(policies)))
            return _simulate(cfg, policies, mkt, normals, *args)

        monkeypatch.setattr("cdcfund.objective._simulate", simulating)
        values = evaluate_policies(self.POLICIES, self.BLOCKS_SPEC)
        assert seen == [(size, self.POLICIES[part]) for size in sizes for part in passes]
        assert [repr(v) for v in values] == [repr(evaluate_policy(p, self.BLOCKS_SPEC))
                                             for p in self.POLICIES]

    @pytest.mark.parametrize("n_policies, cpus, n_paths, n_blocks, per_pass", [
        # `grid --resolution 6` at 10k paths: 15,000 // 36 = 416 paths a pass,
        # so 26 blocks of 384 or 385 paths on 2 CPUs and 32 of 312 or 313 on 8
        (36, 2, 10_000, 26, 36),
        (36, 8, 10_000, 32, 36),
        # `grid --fast`: 15,000 // 400 = 37 paths are under the floor, so two
        # 1,000-path blocks, each in 27 passes of 15 policies (10 in the last)
        (400, 2, 2_000, 2, 15),
    ], ids=["grid-6-10k", "grid-6-10k-8-cpus", "grid-fast"])
    def test_lattices_fit_one_pass_per_block_above_the_floor(
        self, monkeypatch, n_policies, cpus, n_paths, n_blocks, per_pass
    ):
        # the stub pool maps the tasks in this process, where each pass is seen;
        # the passes run no engine, as only the blocks and their passes are checked
        asked = self.stub_pool(monkeypatch, set(range(cpus)))
        drawn, seen = [], []

        def drawing(seed, lo, hi, n_steps):
            drawn.append((lo, hi))
            return np.zeros((hi - lo, n_steps))

        def simulating(cfg, policies, mkt, normals, year_totals, pay):
            seen.append((len(normals), len(policies)))
            return np.zeros((len(policies), len(normals))), [1.0] * len(policies), {}

        monkeypatch.setattr("cdcfund.objective._normal_rows", drawing)
        monkeypatch.setattr("cdcfund.objective._simulate", simulating)
        lattice = [PolicyParams(pi, 0.5) for pi in np.linspace(0.0, 3.0, n_policies)]
        spec = ObjectiveSpec(cfg=FundConfig(horizon=30), mkt=M1, n_paths=n_paths, seed=1)
        values = evaluate_policies(lattice, spec)
        # each block is drawn once and stepped in passes of per_pass policies
        bounds = [n_paths * k // n_blocks for k in range(n_blocks + 1)]
        assert drawn == list(zip(bounds, bounds[1:]))
        assert seen == [(hi - lo, min(per_pass, n_policies - k))
                        for lo, hi in zip(bounds, bounds[1:])
                        for k in range(0, n_policies, per_pass)]
        assert asked == [cpus] and len(values) == n_policies

    @pytest.mark.parametrize("cpus", [None, {0}], ids=["all-cpus", "one-cpu"])
    def test_values_hold_python_scalars(self, monkeypatch, cpus):
        # the engine's per-row minima are NumPy scalars; a value holds none,
        # so its repr is the same as evaluate_policy's
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        values = evaluate_policies(self.LATTICE + self.POLICIES, self.BLOCKS_SPEC)
        assert {v.any_bankruptcy for v in values} == {False, True}
        for value in values:
            assert type(value.solvency_margin) is float
            assert [type(x) for x in (value.ce, value.eu, value.eu_stderr)] == [float] * 3
            assert type(value.any_bankruptcy) is bool and type(value.n_bankrupt) is int

    def test_several_policies_hold_one_small_block_at_a_time(self, monkeypatch):
        # one CPU: five 1,000-path blocks scored one after another in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        cfg = FundConfig(horizon=30)
        spec = ObjectiveSpec(cfg=cfg, mkt=M1, n_paths=5_000, seed=4)
        evaluate_policies(self.LATTICE, spec)  # first-call work outside the trace
        tracemalloc.start()
        try:
            evaluate_policies(self.LATTICE, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # twice a 1,000-path block's draws (2.9 MB) plus its pass state: the
        # ring of running sums, 16 more (K, n_paths) arrays and the year totals
        # (1.6 MB), 7.4 MB in all; one 5,000-path block holds 14.4 MB of draws
        block = 1_000
        draws = block * cfg.n_steps * 8
        state = ((cfg.n_generations + 1 + 16) * len(self.LATTICE) + cfg.horizon) * block * 8
        assert peak < 2 * draws + state

    def test_a_lattice_holds_one_one_pass_block_at_a_time(self, monkeypatch):
        # one CPU: a 6 x 6 lattice fits one pass on 15,000 // 36 = 416 paths, so
        # 2,000 paths make five 400-path blocks scored one after another here
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        cfg = FundConfig(horizon=30)
        spec = ObjectiveSpec(cfg=cfg, mkt=M1, n_paths=2_000, seed=4)
        lattice = [PolicyParams(pi, theta) for pi in np.linspace(0.0, 3.0, 6)
                   for theta in np.linspace(0.0, 1.0, 6)]
        values = evaluate_policies(lattice, spec)  # first-call work outside the trace
        assert {v.any_bankruptcy for v in values} == {False, True}
        tracemalloc.start()
        try:
            evaluate_policies(lattice, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 400-path block's draws (1.2 MB) plus its pass state: the ring of
        # running sums, 17 more (K, n_paths) arrays and the year totals (6.8 MB
        # in all), plus the lattice's per-path utilities (0.6 MB): 8.5 MB; two
        # 1,000-path blocks in passes of 15 policies peak at 10.8 MB
        block = 400
        draws = block * cfg.n_steps * 8
        state = ((cfg.n_generations + 1 + 17) * len(lattice) + cfg.horizon) * block * 8
        assert peak < draws + state + len(lattice) * spec.n_paths * 8

    def test_several_policies_never_draw_the_whole_matrix(self, monkeypatch):
        # on one CPU the one block is drawn and scored in this process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        whole = []
        monkeypatch.setattr("cdcfund.objective.normal_matrix", lambda *args: whole.append(args))
        spec = ObjectiveSpec(cfg=FundConfig(horizon=30), mkt=M1, n_paths=2_393, seed=4)
        evaluate_policies(self.POLICIES, spec)
        assert whole == []
        assert "normals" not in vars(spec) and "year_totals" not in vars(spec)

    @pytest.mark.parametrize("cpus", [None, {0}], ids=["all-cpus", "one-cpu"])
    @pytest.mark.parametrize("n_paths", [1, 999, 2_393])
    def test_lattice_equals_policy_by_policy(self, monkeypatch, n_paths, cpus):
        spec = ObjectiveSpec(cfg=FundConfig(), mkt=M1, n_paths=n_paths, seed=0)
        serial = [evaluate_policy(policy, spec) for policy in self.LATTICE]
        if n_paths == 2_393:
            assert [v.n_bankrupt for v in serial] == [0, 2, 1_517]
        if cpus is not None:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        results = []
        fork_map = objective._fork_map

        def recording(fn, items):
            out = fork_map(fn, items)
            results.append(out)
            return out

        monkeypatch.setattr("cdcfund.objective._fork_map", recording)
        fresh = ObjectiveSpec(cfg=FundConfig(), mkt=M1, n_paths=n_paths, seed=0)
        values = evaluate_policies(self.LATTICE, fresh)
        assert [repr(v) for v in values] == [repr(v) for v in serial]  # NaN-aware
        [blocks] = results
        if n_paths == 2_393:
            # the second policy has no utilities from the block of its bankrupt paths alone
            bounds = [n_paths * k // len(blocks) for k in range(len(blocks) + 1)]
            assert [block[1][0] is None for block in blocks] == [
                any(lo <= p < hi for p in (1_300, 1_424)) for lo, hi in zip(bounds, bounds[1:])
            ]
        assert multiprocessing.active_children() == []

    def test_block_error_is_raised_here(self, monkeypatch):
        def failing(*args, **kwargs):
            raise ValueError("block failed in a worker")

        monkeypatch.setattr("cdcfund.objective._simulate", failing)
        spec = ObjectiveSpec(cfg=FundConfig(horizon=30), mkt=M1, n_paths=2_393, seed=4)
        with pytest.raises(ValueError, match="block failed in a worker"):
            evaluate_policies([self.POLICIES[1]], spec)
        assert multiprocessing.active_children() == []


class TestEnginePasses:
    """A lattice task's engine passes, several policies stepped through each
    year on one ``(K, n_paths)`` state, against one policy at a time."""

    # a 15-policy pass on the first 1,000 paths of seed 0: 9 rows solvent, 6 bankrupt
    PASS = [PolicyParams(pi, theta) for pi in (0.0, 0.75, 1.5, 2.25, 3.0)
            for theta in (0.0, 0.5, 1.0)]

    # on the first 16 paths of seed 0 each goes bankrupt mid-horizon at
    # yearly, monthly and weekly steps; the solvent one stays solvent
    BANKRUPT = {"M1": PolicyParams(3.0, 0.0), "M2": PolicyParams(1.5, 0.0),
                "M3": PolicyParams(0.5, 0.0)}
    SOLVENT = PolicyParams(0.865, 0.345)

    @staticmethod
    def run_pass(policies, caller_bufsize, fail_at=None):
        """The engine's bankrupt years, margins and benefits for ``policies``
        on the first 1,000 paths of seed 0, run with the caller's ufunc buffer
        at ``caller_bufsize``, with the buffer sizes that ``pay`` saw and the
        caller's size after the pass; ``pay`` raises at year ``fail_at``."""
        cfg = FundConfig()
        normals = _normal_rows(0, 0, 1_000, cfg.n_steps)
        paid, seen = [], set()

        def pay(t, benefit, live):
            seen.add(np.getbufsize())
            if t == fail_at:
                raise RuntimeError("pay failed")
            paid.append(benefit.copy())

        previous = np.setbufsize(caller_bufsize)
        try:
            try:
                bankrupt_at, margins, _ = _simulate(cfg, policies, M1, normals, None, pay)
            except RuntimeError:
                return None, seen, np.getbufsize()
            return (bankrupt_at, margins, np.array(paid)), seen, np.getbufsize()
        finally:
            np.setbufsize(previous)

    def test_a_pass_of_several_policies_runs_under_its_own_buffer(self):
        default = 8_192  # numpy's
        (bankrupt_at, margins, paid), seen, after = self.run_pass(self.PASS, default)
        assert seen == {fund._PASS_BUFSIZE} and after == default
        assert 0 < np.isnan(bankrupt_at).all(axis=1).sum() < len(self.PASS)
        # the same bits under the engine's buffer as the caller's
        again, seen, after = self.run_pass(self.PASS, fund._PASS_BUFSIZE)
        assert seen == {fund._PASS_BUFSIZE} and after == fund._PASS_BUFSIZE
        assert bankrupt_at.tobytes() == again[0].tobytes() and repr(margins) == repr(again[1])
        assert paid.tobytes() == again[2].tobytes()
        # and those of one policy at a time under numpy's default buffer,
        # which a one-policy pass leaves alone
        for k, policy in enumerate(self.PASS):
            (row, [margin], row_paid), seen, after = self.run_pass([policy], default)
            assert seen == {default} and after == default
            assert row.tobytes() == bankrupt_at[k : k + 1].tobytes()
            assert repr(margin) == repr(margins[k])
            assert row_paid.tobytes() == paid[:, k : k + 1].tobytes()
        # the caller's buffer is back after a pass whose pay raises
        caller = 4_096
        assert self.run_pass(self.PASS, caller, fail_at=5) == (None, {fund._PASS_BUFSIZE}, caller)
        assert self.run_pass(self.PASS[:1], caller, fail_at=5) == (None, {caller}, caller)

    @given(
        policies=st.lists(
            st.builds(PolicyParams, st.floats(*OMEGA[0]), st.floats(*OMEGA[1])), max_size=6
        ),
        at=st.integers(0, 6),
        market=st.sampled_from(["M1", "M2", "M3"]),
        dt=st.sampled_from([1.0, 1 / 12, 1 / 52]),
        n_paths=st.integers(16, 24),
        per_pass=st.integers(1, 8),
        totals=st.booleans(),
        gamma=st.sampled_from([1.0, 3.0, 10.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_passes_equal_policy_by_policy(
        self, policies, at, market, dt, n_paths, per_pass, totals, gamma
    ):
        cfg, mkt = FundConfig(dt=dt, horizon=60, gamma=gamma), preset_market(market)
        at = min(at, len(policies))
        group = [*policies[:at], self.BANKRUPT[market], *policies[at:], self.SOLVENT]
        spec = ObjectiveSpec(cfg=cfg, mkt=mkt, n_paths=n_paths, seed=0)
        # the reference scores each policy's recorded payments
        serial = [value_from_batch(simulate_batch(cfg, policy, mkt, spec.normals), cfg)
                  for policy in group]
        normals = _normal_rows(0, 0, n_paths, cfg.n_steps)
        year_totals = _year_totals(cfg, normals) if totals else None
        # passes of per_pass policies, which need not divide the group; the
        # bankrupt rows raise no overflow, division or invalid operation
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            scored = [
                result for k in range(0, len(group), per_pass)
                for result in objective._block_scores(
                    cfg, group[k : k + per_pass], mkt, normals, year_totals
                )
            ]
        assert [repr(objective._value([result], n_paths, cfg.gamma)) for result in scored] == [
            repr(value) for value in serial
        ]
        # one row of a pass went bankrupt mid-horizon while the last stayed solvent
        bankrupt_at, _, _ = _simulate(cfg, [group[at]], mkt, normals, None, lambda *args: None)
        assert scored[at][0] is None and 1 < np.nanmin(bankrupt_at) < cfg.horizon
        assert scored[at][1] == np.count_nonzero(~np.isnan(bankrupt_at)) > 0
        assert scored[-1][0] is not None and not serial[-1].any_bankruptcy
