"""Bayesian optimization of the fund's policy pair over the box ``OMEGA``.

Latin hypercube initial design, then constrained Bayesian optimization on
normalized inputs. One Gaussian process models the certainty equivalent of the
solvent evaluations, with its prior mean at the worst solvent value so that it
extrapolates pessimistically; a second models the solvency margin of every
evaluation, whose sign is the bankruptcy flag. The acquisition, expected
improvement over the best solvent value times the probability of solvency
``P(margin > 0)``, is maximized over Latin hypercube candidates with local
refinement; candidates more likely bankrupt than solvent are proposed only
when no other candidate is left. The welfare objective is evaluated
sequentially.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fund import OMEGA, PolicyParams
from .gp import GpModel, fit, posterior
from .market import RandomStream, _check_integer, _check_uint64
from .objective import ObjectiveSpec, ObjectiveValue, evaluate_policy

__all__ = [
    "BoConfig",
    "BoRecord",
    "BoTrace",
    "latin_hypercube",
    "expected_improvement",
    "probability_of_solvency",
    "maximize_acquisition",
    "run_bo",
]

# substream indices reserved for the optimizer's own randomness; market path
# streams use indices 0..n_paths-1 of the objective seed
_LHS_STREAM = 2**62
_ACQ_STREAM = 2**62 + 1

_BOX = np.asarray(OMEGA, dtype=float)  # row j: bounds of coordinate j

_RSQRT2 = math.sqrt(0.5)  # 1/sqrt(2) rounded to the nearest double
_RSQRT2_LO = -4.833646656726457e-17  # 1/sqrt(2) - _RSQRT2, computed at 50 digits
_erfc = np.frompyfunc(math.erfc, 1, 1)


def _split(a):
    """Veltkamp's split of ``a`` into a 26-bit high part and the rest."""
    t = a * 134217729.0  # 2**27 + 1
    high = t - (t - a)
    return high, a - high


_RSQRT2_HI, _RSQRT2_MID = _split(_RSQRT2)


def _normal_cdf(x):
    """Standard normal CDF ``erfc(-x/sqrt(2)) / 2``, to about 1e-15 relative.

    Where ``erfc``'s argument ``w`` is positive (``x < 0``), an error ``dw`` in
    it moves the result by ``2 w dw`` relative, up to 1.6e-13 at ``x = -38``
    if ``w`` were simply rounded. So ``dw`` is computed exactly (Dekker's
    product with the two-part constant) and corrected to first order.
    """
    x = np.asarray(x, dtype=float)
    product = x * _RSQRT2
    x_hi, x_lo = _split(x)
    product_error = ((x_hi * _RSQRT2_HI - product) + x_hi * _RSQRT2_MID
                     + x_lo * _RSQRT2_HI) + x_lo * _RSQRT2_MID
    w = -product
    dw = -(product_error + x * _RSQRT2_LO)  # -x/sqrt(2) = w + dw
    cdf = 0.5 * np.asarray(_erfc(w), dtype=float)
    return np.where(w > 0.0, cdf * (1.0 - 2.0 * w * dw), cdf)


@dataclass(frozen=True)
class BoConfig:
    """Optimizer budget and seeding."""

    n_init: int = 10
    n_total: int = 100
    acquisition_budget: int = 256
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_init", "n_total", "acquisition_budget"):
            _check_integer(name, getattr(self, name))
        if self.n_init < 2:
            raise ValueError(f"n_init must be >= 2, got {self.n_init}")
        if self.n_total <= self.n_init:
            raise ValueError(
                f"n_total must exceed n_init, got {self.n_total} <= {self.n_init}"
            )
        if self.acquisition_budget < 1:
            raise ValueError(f"acquisition_budget must be >= 1, got {self.acquisition_budget}")
        _check_uint64("seed", self.seed)


@dataclass(frozen=True)
class BoRecord:
    """One evaluated candidate plus the incumbent after it; the fields, in
    order, are the columns of ``bo_trace.csv``."""

    iteration: int
    pi: float
    theta: float
    ce: float
    eu: float
    eu_stderr: float
    n_bankrupt: int
    any_bankruptcy: bool
    solvency_margin: float
    incumbent_pi: float
    incumbent_theta: float
    incumbent_ce: float
    gp_length_scale: float
    gp_noise: float


@dataclass
class BoTrace:
    """Ordered evaluation log of one optimization run."""

    records: list[BoRecord]

    @property
    def incumbent(self) -> BoRecord:
        return self.records[-1]

    def best_points(self, k: int) -> list[BoRecord]:
        """The top-k evaluated candidates by objective value."""
        return sorted(self.records, key=lambda rec: rec.ce, reverse=True)[:k]


def latin_hypercube(n: int, rng: np.random.Generator) -> np.ndarray:
    """Latin hypercube design over ``OMEGA``: per coordinate, one uniform draw
    in each of ``n`` equal-width strata, with the strata independently
    permuted."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _to_box(_unit_strata(n, rng))


def _unit_strata(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` Latin hypercube points of the unit square."""
    return np.column_stack([(rng.permutation(n) + rng.uniform(size=n)) / n for _ in OMEGA])


def _to_box(unit: np.ndarray) -> np.ndarray:
    return _BOX[:, 0] + unit * (_BOX[:, 1] - _BOX[:, 0])


def expected_improvement(model: GpModel, x, f_star: float):
    """Expected improvement of the posterior over the incumbent value.

    ``sigma * pdf(zscore) + (mean - f_star) * cdf(zscore)``; degenerates to
    ``max(mean - f_star, 0)`` where the posterior deviation vanishes.
    """
    mean, std = map(np.asarray, posterior(model, x))
    gap = mean - f_star
    safe_std = np.where(std > 1e-12, std, 1.0)
    zscore = gap / safe_std
    pdf = np.exp(-0.5 * zscore * zscore) / math.sqrt(2.0 * math.pi)
    ei = np.where(std > 1e-12, safe_std * pdf + gap * _normal_cdf(zscore), np.maximum(gap, 0.0))
    return float(ei) if ei.ndim == 0 else ei


def probability_of_solvency(margin_model: GpModel, x):
    """Posterior probability that the solvency margin is positive at ``x``;
    an indicator where the posterior deviation vanishes."""
    mean, std = map(np.asarray, posterior(margin_model, x))
    safe_std = np.where(std > 1e-12, std, 1.0)
    prob = np.where(std > 1e-12, _normal_cdf(mean / safe_std), (mean > 0.0).astype(float))
    return float(prob) if prob.ndim == 0 else prob


def maximize_acquisition(
    model: GpModel | None,
    margin_model: GpModel,
    f_star: float,
    budget: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick the next point: best acquisition over ``budget`` Latin hypercube
    candidates, sharpened by two rounds of shrinking boxes around the leader.

    The acquisition is the expected improvement of ``model`` over ``f_star``
    times the probability of solvency under ``margin_model``. Candidates less
    likely solvent than not rank below all others, by that probability, so
    that a surrogate that has run out of improvement does not spend
    evaluations deep in the bankrupt region. Without a ``model`` (no solvent
    evaluation yet) the acquisition is the probability of solvency alone.
    Returns the winning point on the raw scale, clipped to ``OMEGA``.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    candidates = _unit_strata(budget, rng)
    best_x, best_acq = _argmax_acquisition(model, margin_model, f_star, candidates)
    for half_width in (0.1, 0.025):
        lo = np.clip(best_x - half_width, 0.0, 1.0)
        hi = np.clip(best_x + half_width, 0.0, 1.0)
        local = rng.uniform(lo, hi, size=(budget, len(OMEGA)))
        x, acq = _argmax_acquisition(model, margin_model, f_star, local)
        if acq > best_acq:
            best_x, best_acq = x, acq
    return np.clip(_to_box(best_x), _BOX[:, 0], _BOX[:, 1])


def _argmax_acquisition(model, margin_model, f_star, candidates):
    prob = probability_of_solvency(margin_model, candidates)
    if model is None:
        acq = prob
    else:
        # P - 1 < 0 <= EI * P: likely-bankrupt candidates rank last
        acq = np.where(prob >= 0.5, expected_improvement(model, candidates, f_star) * prob,
                       prob - 1.0)
    idx = int(np.argmax(acq))
    return candidates[idx], float(acq[idx])


def run_bo(spec: ObjectiveSpec, bo_cfg: BoConfig) -> BoTrace:
    """Run the optimization loop against the fund objective: every candidate
    is scored on ``spec``, its draws and its year totals (common random
    numbers), so differences between candidates are policy-driven."""
    return optimize(lambda pi, theta: evaluate_policy(PolicyParams(pi=pi, theta=theta), spec),
                    bo_cfg)


def optimize(evaluate, bo_cfg: BoConfig) -> BoTrace:
    """Optimization loop over an arbitrary evaluator ``(pi, theta) -> ObjectiveValue``.

    The incumbent is the best solvent evaluation (the first evaluation until
    one is solvent). Raises ``ValueError`` naming the iteration when an
    evaluation returns a non-finite solvency margin, or a non-finite
    certainty equivalent while solvent, since either would corrupt a
    surrogate. Split out from :func:`run_bo` so the loop can be exercised on
    synthetic objectives.
    """
    lhs_rng = RandomStream(bo_cfg.seed, _LHS_STREAM).generator()
    acq_rng = RandomStream(bo_cfg.seed, _ACQ_STREAM).generator()

    design = latin_hypercube(bo_cfg.n_init, lhs_rng)
    records: list[BoRecord] = []
    incumbent: BoRecord | None = None

    def record(k: int, x, val: ObjectiveValue, h: float, noise: float) -> None:
        nonlocal incumbent
        if not math.isfinite(val.solvency_margin) or not (
            val.any_bankruptcy or math.isfinite(val.ce)
        ):
            raise ValueError(
                f"evaluation {k} at pi={x[0]!r}, theta={x[1]!r} returned a non-finite "
                f"value: solvency_margin={val.solvency_margin!r}, ce={val.ce!r}"
            )
        pi, theta = float(x[0]), float(x[1])
        rec = BoRecord(
            iteration=k, pi=pi, theta=theta, ce=val.ce, eu=val.eu, eu_stderr=val.eu_stderr,
            n_bankrupt=val.n_bankrupt, any_bankruptcy=val.any_bankruptcy,
            solvency_margin=val.solvency_margin, incumbent_pi=pi, incumbent_theta=theta,
            incumbent_ce=val.ce, gp_length_scale=h, gp_noise=noise,
        )
        if incumbent is None or (
            not rec.any_bankruptcy and (incumbent.any_bankruptcy or rec.ce > incumbent.ce)
        ):
            incumbent = rec
        else:
            rec = replace(rec, incumbent_pi=incumbent.pi, incumbent_theta=incumbent.theta,
                          incumbent_ce=incumbent.ce)
        records.append(rec)

    for k in range(bo_cfg.n_init):
        record(k, design[k], evaluate(design[k][0], design[k][1]), float("nan"), float("nan"))

    for k in range(bo_cfg.n_init, bo_cfg.n_total):
        points = np.array([(rec.pi, rec.theta) for rec in records])
        x_norm = (points - _BOX[:, 0]) / (_BOX[:, 1] - _BOX[:, 0])
        margin_model = fit(x_norm, np.array([rec.solvency_margin for rec in records]))
        mask = np.array([not rec.any_bankruptcy for rec in records])
        model = None
        h = noise = float("nan")
        if mask.any():
            solvent_ce = np.array([rec.ce for rec in records])[mask]
            model = fit(x_norm[mask], solvent_ce, prior_mean=float(solvent_ce.min()))
            h, noise = model.kernel.length_scale, model.noise_variance
        nxt = maximize_acquisition(
            model, margin_model, incumbent.ce, bo_cfg.acquisition_budget, acq_rng
        )
        record(k, nxt, evaluate(nxt[0], nxt[1]), h, noise)

    return BoTrace(records=records)
