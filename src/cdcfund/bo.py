"""Bayesian optimization of the fund's policy pair over the search box.

Latin hypercube initial design, then constrained Bayesian optimization on
normalized inputs. One Gaussian process models the certainty equivalent of the
solvent evaluations, with its prior mean at the worst solvent value so that it
extrapolates pessimistically; a second models the solvency margin of every
evaluation, whose sign is the bankruptcy flag. The acquisition, expected
improvement over the best solvent value times the probability of solvency
``P(margin > 0)``, is maximized by quasi-random candidates with local
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
from .market import RandomStream
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


@dataclass(frozen=True)
class BoConfig:
    """Optimizer budget and seeding.

    With ``common_random_numbers`` every candidate is scored on the same
    market draws, so differences between candidates are policy-driven; when
    disabled each evaluation re-seeds the objective.
    """

    n_init: int = 10
    n_total: int = 100
    acquisition_budget: int = 256
    seed: int = 0
    common_random_numbers: bool = True

    def __post_init__(self) -> None:
        if self.n_init < 2:
            raise ValueError(f"n_init must be >= 2, got {self.n_init}")
        if self.n_total <= self.n_init:
            raise ValueError(
                f"n_total must exceed n_init, got {self.n_total} <= {self.n_init}"
            )
        if self.acquisition_budget < 1:
            raise ValueError(f"acquisition_budget must be >= 1, got {self.acquisition_budget}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {self.seed}")


@dataclass(frozen=True)
class BoRecord:
    """One evaluated candidate plus the incumbent after it."""

    iteration: int
    pi: float
    theta: float
    ce: float
    eu: float
    eu_stderr: float
    any_bankruptcy: bool
    n_bankrupt: int
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


def latin_hypercube(n: int, bounds, rng: np.random.Generator) -> np.ndarray:
    """Latin hypercube design: per coordinate, one uniform draw in each of
    ``n`` equal-width strata, with the strata independently permuted."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    bounds = np.asarray(bounds, dtype=float)
    d = bounds.shape[0]
    pts = np.empty((n, d))
    for j in range(d):
        strata = (rng.permutation(n) + rng.uniform(size=n)) / n
        lo, hi = bounds[j]
        pts[:, j] = lo + strata * (hi - lo)
    return pts


def expected_improvement(model: GpModel, x, f_star: float):
    """Expected improvement of the posterior over the incumbent value.

    ``sigma * pdf(zscore) + (mean - f_star) * cdf(zscore)``; degenerates to
    ``max(mean - f_star, 0)`` where the posterior deviation vanishes.
    """
    from scipy.special import ndtr  # deferred: keeps `import cdcfund` light

    mean, std = posterior(model, x)
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    gap = mean - f_star
    safe_std = np.where(std > 1e-12, std, 1.0)
    zscore = gap / safe_std
    pdf = np.exp(-0.5 * zscore * zscore) / math.sqrt(2.0 * math.pi)
    ei = np.where(std > 1e-12, safe_std * pdf + gap * ndtr(zscore), np.maximum(gap, 0.0))
    return float(ei) if ei.ndim == 0 else ei


def probability_of_solvency(margin_model: GpModel, x):
    """Posterior probability that the solvency margin is positive at ``x``;
    an indicator where the posterior deviation vanishes."""
    from scipy.special import ndtr

    mean, std = posterior(margin_model, x)
    mean = np.asarray(mean, dtype=float)
    std = np.asarray(std, dtype=float)
    safe_std = np.where(std > 1e-12, std, 1.0)
    prob = np.where(std > 1e-12, ndtr(mean / safe_std), (mean > 0.0).astype(float))
    return float(prob) if prob.ndim == 0 else prob


def maximize_acquisition(
    model: GpModel | None,
    f_star: float,
    budget: int,
    rng: np.random.Generator,
    bounds=OMEGA,
    margin_model: GpModel | None = None,
) -> np.ndarray:
    """Pick the next point: best acquisition over quasi-random candidates,
    sharpened by two rounds of shrinking boxes around the leader.

    The acquisition is the expected improvement of ``model`` over ``f_star``,
    times the probability of solvency under ``margin_model`` when one is
    given. Candidates less likely solvent than not rank below all others, by
    that probability, so that a surrogate that has run out of improvement
    does not spend evaluations deep in the bankrupt region. Without a
    ``model`` (no solvent evaluation yet) the acquisition is the probability
    of solvency alone. Returns the winning point on the raw scale, clipped to
    the search box.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    from scipy.stats import qmc  # deferred: scipy.stats takes about a second to import

    d = len(bounds)
    # qmc needs a seed-sequence-backed rng; derive an integer seed instead
    qmc_seed = int(rng.integers(2**63))
    candidates = qmc.Halton(d=d, scramble=True, seed=qmc_seed).random(budget)
    best_x, best_ei = _argmax_ei(model, f_star, candidates, margin_model)
    for half_width in (0.1, 0.025):
        lo = np.clip(best_x - half_width, 0.0, 1.0)
        hi = np.clip(best_x + half_width, 0.0, 1.0)
        local = rng.uniform(lo, hi, size=(budget, d))
        x, ei = _argmax_ei(model, f_star, local, margin_model)
        if ei > best_ei:
            best_x, best_ei = x, ei
    bounds = np.asarray(bounds, dtype=float)
    raw = bounds[:, 0] + best_x * (bounds[:, 1] - bounds[:, 0])
    return np.clip(raw, bounds[:, 0], bounds[:, 1])


def _argmax_ei(model, f_star, candidates, margin_model=None):
    if model is None:
        acq = probability_of_solvency(margin_model, candidates)
    else:
        acq = expected_improvement(model, candidates, f_star)
        if margin_model is not None:
            prob = probability_of_solvency(margin_model, candidates)
            # P - 1 < 0 <= EI * P: likely-bankrupt candidates rank last
            acq = np.where(prob >= 0.5, acq * prob, prob - 1.0)
    idx = int(np.argmax(acq))
    return candidates[idx], float(acq[idx])


def _normalize(points: np.ndarray, bounds) -> np.ndarray:
    bounds = np.asarray(bounds, dtype=float)
    return (points - bounds[:, 0]) / (bounds[:, 1] - bounds[:, 0])


def run_bo(spec: ObjectiveSpec, bo_cfg: BoConfig) -> BoTrace:
    """Run the optimization loop against the fund objective."""

    def evaluate(pi: float, theta: float, iteration: int) -> ObjectiveValue:
        eval_spec = spec
        if not bo_cfg.common_random_numbers:
            # child `iteration` of the run's seed sequence: evaluations of
            # runs with neighbouring seeds do not share draws
            child = np.random.SeedSequence(spec.seed, spawn_key=(iteration,))
            eval_spec = replace(spec, seed=int(child.generate_state(1, np.uint64)[0]))
        return evaluate_policy(PolicyParams(pi=pi, theta=theta), eval_spec)

    return optimize(evaluate, bo_cfg, bounds=OMEGA)


def optimize(evaluate, bo_cfg: BoConfig, bounds=OMEGA) -> BoTrace:
    """Optimization loop over an arbitrary evaluator ``(pi, theta, k) -> ObjectiveValue``.

    The incumbent is the best solvent evaluation (the first evaluation until
    one is solvent). Raises ``ValueError`` naming the iteration when an
    evaluation returns a non-finite solvency margin, or a non-finite
    certainty equivalent while solvent, since either would corrupt a
    surrogate. Split out from :func:`run_bo` so the loop can be exercised on
    synthetic objectives.
    """
    lhs_rng = RandomStream(bo_cfg.seed, _LHS_STREAM).generator()
    acq_rng = RandomStream(bo_cfg.seed, _ACQ_STREAM).generator()

    design = latin_hypercube(bo_cfg.n_init, bounds, lhs_rng)
    records: list[BoRecord] = []
    points: list[np.ndarray] = []
    values: list[float] = []
    margins: list[float] = []
    solvent: list[bool] = []
    inc_idx = -1

    def record(k: int, x, val: ObjectiveValue, h: float, noise: float) -> None:
        nonlocal inc_idx
        if not math.isfinite(val.solvency_margin) or not (
            val.any_bankruptcy or math.isfinite(val.ce)
        ):
            raise ValueError(
                f"evaluation {k} at pi={x[0]!r}, theta={x[1]!r} returned a non-finite "
                f"value: solvency_margin={val.solvency_margin!r}, ce={val.ce!r}"
            )
        points.append(np.asarray(x, dtype=float))
        values.append(val.ce)
        margins.append(val.solvency_margin)
        solvent.append(not val.any_bankruptcy)
        if inc_idx < 0 or (solvent[-1] and (not solvent[inc_idx] or val.ce > values[inc_idx])):
            inc_idx = len(values) - 1
        records.append(
            BoRecord(
                iteration=k,
                pi=float(x[0]),
                theta=float(x[1]),
                ce=val.ce,
                eu=val.eu,
                eu_stderr=val.eu_stderr,
                any_bankruptcy=val.any_bankruptcy,
                n_bankrupt=val.n_bankrupt,
                solvency_margin=val.solvency_margin,
                incumbent_pi=float(points[inc_idx][0]),
                incumbent_theta=float(points[inc_idx][1]),
                incumbent_ce=values[inc_idx],
                gp_length_scale=h,
                gp_noise=noise,
            )
        )

    for k in range(bo_cfg.n_init):
        record(k, design[k], evaluate(design[k][0], design[k][1], k), float("nan"), float("nan"))

    for k in range(bo_cfg.n_init, bo_cfg.n_total):
        x_norm = _normalize(np.array(points), bounds)
        margin_model = fit(x_norm, np.array(margins))
        mask = np.array(solvent)
        model = None
        h = noise = float("nan")
        if mask.any():
            solvent_ce = np.array(values)[mask]
            model = fit(x_norm[mask], solvent_ce, prior_mean=float(solvent_ce.min()))
            h, noise = model.kernel.length_scale, model.noise_variance
        nxt = maximize_acquisition(
            model, values[inc_idx], bo_cfg.acquisition_budget, acq_rng, bounds=bounds,
            margin_model=margin_model,
        )
        record(k, nxt, evaluate(nxt[0], nxt[1], k), h, noise)

    return BoTrace(records=records)
