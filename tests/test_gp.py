import math

import numpy as np
import pytest

from cdcfund.gp import (
    DEFAULT_LENGTH_SCALES,
    DEFAULT_NOISE_LEVELS,
    GpModel,
    Matern52Kernel,
    build_model,
    fit,
    posterior,
)


def dense_posterior(X, f, h, noise, query, signal_variance=1.0):
    """Independent brute-force posterior via a full linear solve.

    Standardizes targets the same way as the model under test, then applies
    the textbook formulas with np.linalg.solve (no Cholesky reuse).
    """
    X = np.atleast_2d(X)
    f = np.asarray(f, dtype=float)
    mean, scale = f.mean(), f.std()
    if scale < 1e-12:
        scale = 1.0
    fs = (f - mean) / scale

    def k(a, b):
        d = np.linalg.norm(np.asarray(a) - np.asarray(b))
        u = math.sqrt(5.0) * d / h
        return signal_variance * (1 + u + u * u / 3.0) * math.exp(-u)

    n = X.shape[0]
    K = np.array([[k(X[i], X[j]) for j in range(n)] for i in range(n)])
    K += noise * np.eye(n)
    kvec = np.array([k(X[i], query) for i in range(n)])
    sol = np.linalg.solve(K, fs)
    m = float(kvec @ sol)
    var = signal_variance - float(kvec @ np.linalg.solve(K, kvec))
    return mean + scale * m, scale * math.sqrt(max(var, 0.0))


class TestKernel:
    def test_self_covariance_is_signal_variance(self):
        x = np.array([[0.3, 0.7]])
        assert Matern52Kernel(0.5).matrix(x, x)[0, 0] == 1.0
        assert Matern52Kernel(0.5, signal_variance=2.5).matrix(x, x)[0, 0] == 2.5

    def test_value_at_one_length_scale(self):
        # (1 + sqrt(5) + 5/3) * exp(-sqrt(5)), evaluated independently
        expected = (1 + math.sqrt(5) + 5.0 / 3.0) * math.exp(-math.sqrt(5))
        got = Matern52Kernel(0.5).matrix(np.array([[0.0, 0.0]]), np.array([[0.5, 0.0]]))[0, 0]
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.5239941088, rel=1e-9)

    def test_vanishes_at_long_range(self):
        far = Matern52Kernel(0.1).matrix(np.array([[0.0, 0.0]]), np.array([[50.0, 50.0]]))
        assert far[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self):
        a, b = np.array([[0.1, 0.9]]), np.array([[0.8, 0.2]])
        kernel = Matern52Kernel(0.3)
        assert kernel.matrix(a, b)[0, 0] == kernel.matrix(b, a)[0, 0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Matern52Kernel(length_scale=0.0)
        with pytest.raises(ValueError):
            Matern52Kernel(length_scale=1.0, signal_variance=0.0)


class TestBuildModel:
    def test_single_point_noiseless_interpolates(self):
        model = build_model(np.array([[0.4, 0.6]]), np.array([3.7]), Matern52Kernel(0.5), 0.0)
        mean, std = posterior(model, np.array([0.4, 0.6]))
        assert mean == pytest.approx(3.7, abs=1e-9)
        assert std == pytest.approx(0.0, abs=1e-9)

    def test_duplicated_rows_need_nugget(self):
        X = np.array([[0.2, 0.2], [0.2, 0.2]])
        f = np.array([1.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            build_model(X, f, Matern52Kernel(0.5), 0.0)
        model = build_model(X, f, Matern52Kernel(0.5), 1e-6)
        assert isinstance(model, GpModel)

    def test_three_point_noiseless_round_trip(self):
        X = np.array([[0.1, 0.2], [0.5, 0.8], [0.9, 0.3]])
        f = np.array([5.0, 9.0, 7.0])
        model = build_model(X, f, Matern52Kernel(0.4), 0.0)
        for i in range(3):
            mean, _ = posterior(model, X[i])
            assert mean == pytest.approx(f[i], abs=1e-6)
            ref_mean, _ = dense_posterior(X, f, 0.4, 0.0, X[i])
            assert mean == pytest.approx(ref_mean, abs=1e-8)


class TestPosterior:
    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(0)
        for n in (2, 5, 12, 20):
            X = rng.uniform(size=(n, 2))
            f = rng.normal(loc=3.0, scale=2.0, size=n)
            model = build_model(X, f, Matern52Kernel(0.3), 1e-4)
            for _ in range(5):
                q = rng.uniform(size=2)
                mean, std = posterior(model, q)
                ref_mean, ref_std = dense_posterior(X, f, 0.3, 1e-4, q)
                assert mean == pytest.approx(ref_mean, abs=1e-10)
                assert std == pytest.approx(ref_std, abs=1e-10)

    def test_two_point_midpoint_matches_oracle(self):
        X = np.array([[0.2, 0.5], [0.8, 0.5]])
        f = np.array([1.0, 2.0])
        model = build_model(X, f, Matern52Kernel(0.25), 1e-6)
        q = np.array([0.5, 0.5])
        mean, std = posterior(model, q)
        ref_mean, ref_std = dense_posterior(X, f, 0.25, 1e-6, q)
        assert mean == pytest.approx(ref_mean, abs=1e-10)
        assert std == pytest.approx(ref_std, abs=1e-10)

    def test_far_query_reverts_to_prior(self):
        X = np.array([[0.1, 0.1], [0.2, 0.3], [0.15, 0.2]])
        f = np.array([4.0, 6.0, 5.0])
        model = build_model(X, f, Matern52Kernel(0.05), 1e-6)
        mean, std = posterior(model, np.array([0.95, 0.95]))
        assert mean == pytest.approx(f.mean(), abs=1e-6)
        assert std == pytest.approx(f.std(), rel=1e-6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(8, 2))
        f = rng.normal(size=8)
        perm = rng.permutation(8)
        a = build_model(X, f, Matern52Kernel(0.4), 1e-4)
        b = build_model(X[perm], f[perm], Matern52Kernel(0.4), 1e-4)
        for _ in range(10):
            q = rng.uniform(size=2)
            ma, sa = posterior(a, q)
            mb, sb = posterior(b, q)
            assert ma == pytest.approx(mb, abs=1e-10)
            assert sa == pytest.approx(sb, abs=1e-10)

    def test_variance_clamped_within_prior(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(2, 21))
            X = rng.uniform(size=(n, 2))
            f = rng.normal(size=n)
            try:
                model = build_model(X, f, Matern52Kernel(0.3), 0.0)
            except np.linalg.LinAlgError:
                continue  # near-duplicate rows; the clamp is tested on the rest
            q = rng.uniform(size=(50, 2))
            _, std = posterior(model, q)
            assert np.all(std >= 0.0)
            prior_std = model.target_scale
            assert np.all(std <= prior_std + 1e-8)

    def test_prior_mean_is_the_far_field(self):
        X = np.array([[0.1, 0.1], [0.2, 0.15], [0.15, 0.3]])
        f = np.array([4.0, 6.0, 5.0])
        far = np.array([5.0, 5.0])  # many length scales away from the data
        default = build_model(X, f, Matern52Kernel(0.2), 1e-6)
        pessimistic = build_model(X, f, Matern52Kernel(0.2), 1e-6, prior_mean=4.0)
        assert posterior(default, far)[0] == pytest.approx(5.0, abs=1e-9)
        assert posterior(pessimistic, far)[0] == pytest.approx(4.0, abs=1e-9)
        # both still interpolate the data
        for model in (default, pessimistic):
            assert np.allclose(posterior(model, X)[0], f, atol=1e-3)

    def test_batched_queries_match_single(self):
        rng = np.random.default_rng(11)
        X = rng.uniform(size=(6, 2))
        f = rng.normal(size=6)
        model = build_model(X, f, Matern52Kernel(0.5), 1e-4)
        Q = rng.uniform(size=(7, 2))
        means, stds = posterior(model, Q)
        for j in range(7):
            m, s = posterior(model, Q[j])
            assert means[j] == pytest.approx(m, abs=1e-14)
            assert stds[j] == pytest.approx(s, abs=1e-14)


class TestFit:
    def test_selects_by_marginal_likelihood(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(15, 2))
        f = np.sin(4 * X[:, 0]) + 0.5 * X[:, 1]
        model = fit(X, f)
        assert model.kernel.length_scale in set(float(h) for h in DEFAULT_LENGTH_SCALES)
        assert model.noise_variance in set(DEFAULT_NOISE_LEVELS)
        # likelihood of the selected pair dominates every candidate pair
        for h in DEFAULT_LENGTH_SCALES:
            for noise in DEFAULT_NOISE_LEVELS:
                other = build_model(X, f, Matern52Kernel(float(h)), noise)
                assert model.log_marginal_likelihood >= other.log_marginal_likelihood - 1e-12

    def test_interpolates_training_data(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(size=(10, 2))
        f = 3 + np.cos(3 * X[:, 0]) * X[:, 1]
        model = fit(X, f, noise_levels=(1e-6,))
        means, _ = posterior(model, X)
        assert np.allclose(means, f, atol=1e-4)

    def test_duplicate_observation_never_hurts_selected_likelihood(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(8, 2))
        f = rng.normal(size=8)
        first = fit(X, f)
        X2 = np.vstack([X, X[3]])
        f2 = np.append(f, f[3])
        refitted = fit(X2, f2)
        kept = build_model(X2, f2, first.kernel, first.noise_variance)
        assert refitted.log_marginal_likelihood >= kept.log_marginal_likelihood - 1e-9

    def test_fit_failure_when_all_candidates_fail(self):
        X = np.array([[0.5, 0.5], [0.5, 0.5]])
        f = np.array([1.0, 2.0])
        with pytest.raises(np.linalg.LinAlgError, match="no hyperparameter"):
            fit(X, f, noise_levels=(0.0,))

    def test_single_observation_fit(self):
        model = fit(np.array([[0.5, 0.5]]), np.array([2.0]))
        mean, _ = posterior(model, np.array([0.5, 0.5]))
        assert mean == pytest.approx(2.0, abs=1e-3)

    def test_constant_targets_are_handled(self):
        X = np.array([[0.1, 0.1], [0.9, 0.9], [0.5, 0.2]])
        model = fit(X, np.zeros(3))
        mean, std = posterior(model, np.array([0.3, 0.3]))
        assert mean == pytest.approx(0.0, abs=1e-9)
        assert std >= 0.0
