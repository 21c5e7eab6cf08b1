"""Gaussian process regression with a Matern-5/2 kernel.

Constant prior mean (the targets' mean unless given) on standardized
targets, exact Cholesky-based posterior, and hyperparameter selection by
maximizing the log marginal likelihood over a small grid of length scales and
noise levels. Inputs are expected in the normalized unit square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Matern52Kernel",
    "GpModel",
    "build_model",
    "fit",
    "posterior",
    "DEFAULT_LENGTH_SCALES",
    "DEFAULT_NOISE_LEVELS",
]

DEFAULT_LENGTH_SCALES = tuple(np.geomspace(0.05, 2.0, 12))
DEFAULT_NOISE_LEVELS = (1e-6, 1e-4, 1e-2, 1e-1)

_SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class Matern52Kernel:
    """Isotropic Matern-5/2 covariance with length scale ``h`` and amplitude."""

    length_scale: float
    signal_variance: float = 1.0

    def __post_init__(self) -> None:
        if self.length_scale <= 0:
            raise ValueError(f"length_scale must be positive, got {self.length_scale}")
        if self.signal_variance <= 0:
            raise ValueError(f"signal_variance must be positive, got {self.signal_variance}")

    def matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Covariance matrix between rows of ``a`` (n, d) and ``b`` (m, d)."""
        return self.of_distance(_distances(a, b))

    def of_distance(self, d: np.ndarray) -> np.ndarray:
        """Covariance at Euclidean distances ``d``."""
        u = _SQRT5 * d / self.length_scale
        return self.signal_variance * (1.0 + u + u * u / 3.0) * np.exp(-u)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


@dataclass
class GpModel:
    """Fitted regression model; treat as immutable after construction.

    Targets are standardized internally: ``target_mean`` is the constant
    prior mean and ``target_scale`` the targets' standard deviation, so the
    zero-mean prior on the standardized scale is appropriate; posterior
    queries are returned on the raw scale.
    """

    train_inputs: np.ndarray
    train_targets: np.ndarray
    kernel: Matern52Kernel
    noise_variance: float
    target_mean: float
    target_scale: float
    log_marginal_likelihood: float
    _chol: np.ndarray
    _alpha: np.ndarray


def build_model(
    X: np.ndarray,
    f: np.ndarray,
    kernel: Matern52Kernel,
    noise_variance: float,
    prior_mean: float | None = None,
) -> GpModel:
    """Condition the prior on ``(X, f)`` with the given hyperparameters.

    The prior mean is the targets' mean unless ``prior_mean`` is given; far
    from the data the posterior mean reverts to it. Raises
    ``np.linalg.LinAlgError`` when the regularized kernel matrix is not
    positive definite (e.g. duplicated inputs with zero noise).
    """
    X, f = _training_data(X, f)
    return _condition(X, f, kernel, kernel.matrix(X, X), noise_variance, prior_mean)


def _training_data(X, f) -> tuple[np.ndarray, np.ndarray]:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    f = np.asarray(f, dtype=float).ravel()
    if f.shape[0] != X.shape[0] or X.shape[0] < 1:
        raise ValueError(f"need matching inputs and targets, got {X.shape} vs {f.shape}")
    return X, f


def _condition(X, f, kernel, k_xx, noise_variance, prior_mean) -> GpModel:
    """:func:`build_model` given the noise-free kernel matrix ``k_xx``."""
    from scipy.linalg import cho_solve  # deferred: commands that fit no GP skip it

    if noise_variance < 0:
        raise ValueError(f"noise_variance must be >= 0, got {noise_variance}")
    n = X.shape[0]
    mean = float(f.mean()) if prior_mean is None else float(prior_mean)
    scale = float(f.std())
    if scale < 1e-12:
        scale = 1.0
    f_std = (f - mean) / scale

    k_mat = k_xx.copy()
    k_mat[np.diag_indices_from(k_mat)] += noise_variance
    chol = np.linalg.cholesky(k_mat)
    alpha = cho_solve((chol, True), f_std, check_finite=False)
    lml = float(
        -0.5 * f_std @ alpha
        - np.sum(np.log(np.diag(chol)))
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    return GpModel(
        train_inputs=X,
        train_targets=f,
        kernel=kernel,
        noise_variance=noise_variance,
        target_mean=mean,
        target_scale=scale,
        log_marginal_likelihood=lml,
        _chol=chol,
        _alpha=alpha,
    )


def fit(
    X: np.ndarray,
    f: np.ndarray,
    length_scales=DEFAULT_LENGTH_SCALES,
    noise_levels=DEFAULT_NOISE_LEVELS,
    prior_mean: float | None = None,
) -> GpModel:
    """Fit hyperparameters by exact log-marginal-likelihood grid search.

    Each candidate is the model :func:`build_model` gives, with
    ``prior_mean`` passed on; the noise levels of one length scale share its
    kernel matrix. Candidates whose factorization fails are skipped; raises
    if none succeed.
    """
    X, f = _training_data(X, f)
    distances = _distances(X, X)
    best: GpModel | None = None
    for h in length_scales:
        kernel = Matern52Kernel(float(h))
        k_xx = kernel.of_distance(distances)
        for noise in noise_levels:
            try:
                model = _condition(X, f, kernel, k_xx, float(noise), prior_mean)
            except np.linalg.LinAlgError:
                continue
            if best is None or model.log_marginal_likelihood > best.log_marginal_likelihood:
                best = model
    if best is None:
        raise np.linalg.LinAlgError(
            "no hyperparameter candidate produced a positive-definite kernel matrix"
        )
    return best


def posterior(model: GpModel, x) -> tuple:
    """Posterior mean and standard deviation at query point(s) ``x``.

    Accepts one point of shape (d,) or a stack of shape (m, d); returns
    floats for a single point and arrays otherwise. The predictive variance
    of the latent function is clamped at zero.
    """
    from scipy.linalg import solve_triangular

    q = np.asarray(x, dtype=float)
    single = q.ndim == 1
    q = np.atleast_2d(q)
    k_vec = model.kernel.matrix(model.train_inputs, q)  # (n, m)
    mean_std = k_vec.T @ model._alpha
    v = solve_triangular(model._chol, k_vec, lower=True, check_finite=False)
    var = model.kernel.signal_variance - np.sum(v * v, axis=0)
    var = np.maximum(var, 0.0)
    mean = model.target_mean + model.target_scale * mean_std
    std = model.target_scale * np.sqrt(var)
    if single:
        return float(mean[0]), float(std[0])
    return mean, std
