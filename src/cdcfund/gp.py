"""Gaussian process regression with a Matern-5/2 kernel.

Constant prior mean (the targets' mean unless given) on standardized
targets, so the kernel's amplitude is 1; exact Cholesky-based posterior
(Rasmussen & Williams, *Gaussian Processes for Machine Learning*, 2006,
Alg. 2.1), where each model keeps the inverse of its Cholesky factor so that
a query is two matrix products; and hyperparameter selection by maximizing
the log marginal likelihood over the fixed grid ``DEFAULT_LENGTH_SCALES`` x
``DEFAULT_NOISE_LEVELS``, whose candidates are all factored by one stacked
Cholesky call and solved by one vectorized forward substitution. numpy is
the only dependency. Inputs are expected in the normalized unit square.
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
]

DEFAULT_LENGTH_SCALES = tuple(np.geomspace(0.05, 2.0, 12))
DEFAULT_NOISE_LEVELS = (1e-6, 1e-4, 1e-2, 1e-1)

_SQRT5 = math.sqrt(5.0)


@dataclass(frozen=True)
class Matern52Kernel:
    """Isotropic Matern-5/2 correlation with length scale ``h``: unit
    amplitude, the variance of the standardized targets."""

    length_scale: float

    def __post_init__(self) -> None:
        if self.length_scale <= 0:
            raise ValueError(f"length_scale must be positive, got {self.length_scale}")

    def matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Covariance matrix between rows of ``a`` (n, d) and ``b`` (m, d)."""
        return self.of_distance(_distances(a, b))

    def of_distance(self, d: np.ndarray) -> np.ndarray:
        """Covariance at Euclidean distances ``d``."""
        u = _SQRT5 * d / self.length_scale
        return (1.0 + u + u * u / 3.0) * np.exp(-u)


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
    kernel: Matern52Kernel
    noise_variance: float
    target_mean: float
    target_scale: float
    log_marginal_likelihood: float
    _chol_inv: np.ndarray  # inverse of the lower Cholesky factor
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
    if noise_variance < 0:
        raise ValueError(f"noise_variance must be >= 0, got {noise_variance}")
    n = X.shape[0]
    mean, scale, f_std = _standardize(f, prior_mean)
    k_mat = kernel.matrix(X, X)
    k_mat[np.diag_indices_from(k_mat)] += noise_variance
    chol = np.linalg.cholesky(k_mat)
    chol_inv = np.linalg.inv(chol)
    v = chol_inv @ f_std
    lml = float(
        -0.5 * v @ v
        - np.sum(np.log(np.diag(chol)))
        - 0.5 * n * math.log(2.0 * math.pi)
    )
    return GpModel(
        train_inputs=X,
        kernel=kernel,
        noise_variance=noise_variance,
        target_mean=mean,
        target_scale=scale,
        log_marginal_likelihood=lml,
        _chol_inv=chol_inv,
        _alpha=chol_inv.T @ v,
    )


def _training_data(X, f) -> tuple[np.ndarray, np.ndarray]:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    f = np.asarray(f, dtype=float).ravel()
    if f.shape[0] != X.shape[0] or X.shape[0] < 1:
        raise ValueError(f"need matching inputs and targets, got {X.shape} vs {f.shape}")
    return X, f


def _standardize(f: np.ndarray, prior_mean: float | None) -> tuple[float, float, np.ndarray]:
    mean = float(f.mean()) if prior_mean is None else float(prior_mean)
    scale = float(f.std())
    if scale < 1e-12:
        scale = 1.0
    return mean, scale, (f - mean) / scale


def _forward_substitution(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``chol[c] @ x[c] = b`` for every lower-triangular factor of the
    stack ``chol`` (c, n, n), one row at a time, vectorized over the stack."""
    x = np.empty(chol.shape[:-1])
    for i in range(b.size):
        dot = chol[:, i, None, :i] @ x[:, :i, None]
        x[:, i] = (b[i] - dot[:, 0, 0]) / chol[:, i, i]
    return x


# The stacked search and build_model round differently: by about
# cond(L) * n * eps of the likelihood's terms, at most ~1e-10 of them for a
# unit-diagonal matrix with noise >= 1e-6 at n ~ 100. Candidates this close
# to the best, relative to those terms, are re-scored by build_model.
_RESCORE_RTOL = 1e-8


def fit(X: np.ndarray, f: np.ndarray, prior_mean: float | None = None) -> GpModel:
    """Fit hyperparameters by exact log-marginal-likelihood search over the
    grid ``DEFAULT_LENGTH_SCALES`` x ``DEFAULT_NOISE_LEVELS``.

    All candidates are scored at once: their kernel matrices form one stack,
    factored by one Cholesky call and solved by one vectorized forward
    substitution. Every candidate whose stacked score is within rounding
    (``_RESCORE_RTOL`` of its terms' magnitude) of the best is scored again by
    :func:`build_model`, with ``prior_mean`` passed on, and the first
    candidate, in grid order, of the largest exact score wins: the result is
    the model that a :func:`build_model` loop over the grid would select.

    Every noise level is added to a unit-diagonal correlation matrix, so with
    the default levels (at least 1e-6) every candidate is positive definite
    far above Cholesky's rounding threshold. If the stacked factorization
    fails nonetheless, raises ``np.linalg.LinAlgError``; there is no
    per-candidate fallback.
    """
    X, f = _training_data(X, f)
    n = X.shape[0]
    _, _, f_std = _standardize(f, prior_mean)
    candidates = [(float(h), float(noise))
                  for h in DEFAULT_LENGTH_SCALES for noise in DEFAULT_NOISE_LEVELS]
    distances = _distances(X, X)
    stack = np.empty((len(DEFAULT_LENGTH_SCALES), len(DEFAULT_NOISE_LEVELS), n, n))
    for i, h in enumerate(DEFAULT_LENGTH_SCALES):  # one correlation matrix per length scale
        stack[i] = Matern52Kernel(float(h)).of_distance(distances)
    stack = stack.reshape(-1, n, n)
    diagonal = np.arange(n)
    stack[:, diagonal, diagonal] += np.array([noise for _, noise in candidates])[:, None]
    try:
        chol = np.linalg.cholesky(stack)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(
            "no hyperparameter candidate produced a positive-definite kernel matrix"
        ) from None
    v = _forward_substitution(chol, f_std)
    quad = 0.5 * np.sum(v * v, axis=-1)
    half_log_det = np.sum(np.log(chol[:, diagonal, diagonal]), axis=-1)
    lml = -quad - half_log_det  # less the constant n log(2 pi) / 2
    magnitude = quad + np.abs(half_log_det) + n
    best = int(np.argmax(lml))
    close = np.flatnonzero(lml >= lml[best] - _RESCORE_RTOL * (magnitude + magnitude[best]))
    models = [build_model(X, f, Matern52Kernel(h), noise, prior_mean)
              for h, noise in (candidates[c] for c in close)]
    return max(models, key=lambda model: model.log_marginal_likelihood)  # the first of ties


def posterior(model: GpModel, x) -> tuple:
    """Posterior mean and standard deviation at query point(s) ``x``.

    Accepts one point of shape (d,) or a stack of shape (m, d); returns
    floats for a single point and arrays otherwise. The predictive variance
    of the latent function is clamped at zero.
    """
    q = np.asarray(x, dtype=float)
    single = q.ndim == 1
    q = np.atleast_2d(q)
    k_vec = model.kernel.matrix(model.train_inputs, q)  # (n, m)
    mean_std = k_vec.T @ model._alpha
    v = model._chol_inv @ k_vec
    var = 1.0 - np.sum(v * v, axis=0)
    var = np.maximum(var, 0.0)
    mean = model.target_mean + model.target_scale * mean_std
    std = model.target_scale * np.sqrt(var)
    if single:
        return float(mean[0]), float(std[0])
    return mean, std
