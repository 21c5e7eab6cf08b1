"""Welfare objective: discounted CRRA utility of all retirement benefits.

A candidate policy is scored by simulating a batch of fund paths, averaging
the discounted utility of the benefit stream across paths and inverting the
average through the utility function into a certainty equivalent. Any
bankruptcy in the batch zeroes the certainty equivalent (soft constraint).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fund import FundConfig, PolicyParams, SimulationBatch, simulate_batch
from .market import MarketParams, _check_integer, _check_uint64, normal_matrix

__all__ = [
    "ObjectiveSpec",
    "ObjectiveValue",
    "crra_utility",
    "certainty_equivalent",
    "certainty_equivalent_stderr",
    "evaluate_policy",
    "evaluate_policies",
    "value_from_batch",
]


@dataclass(frozen=True)
class ObjectiveSpec:
    """Monte Carlo setup for scoring policies: fund, market, batch size, seed.

    The spec owns its draws: :attr:`normals` is generated on first use and
    kept for the spec's lifetime, so every policy scored on one spec runs on
    the same market paths (common random numbers). A spec made with
    ``dataclasses.replace`` starts without draws of its own.
    """

    cfg: FundConfig
    mkt: MarketParams
    n_paths: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer("n_paths", self.n_paths)
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        _check_uint64("seed", self.seed)

    @cached_property
    def normals(self) -> np.ndarray:
        """The read-only ``(n_paths, n_steps)`` draw matrix: row ``p`` is
        stream ``(seed, p)``."""
        return normal_matrix(self.seed, self.n_paths, self.cfg.n_steps)


@dataclass(frozen=True)
class ObjectiveValue:
    """Scored policy: certainty equivalent, raw expected utility and its
    Monte Carlo standard error, the bankruptcy tally and the batch's
    solvency margin (see :class:`~cdcfund.fund.SimulationBatch`).

    ``ce`` is zero (and ``eu`` NaN) whenever any path went bankrupt, which is
    exactly when ``solvency_margin`` is negative.
    """

    ce: float
    eu: float
    eu_stderr: float
    any_bankruptcy: bool
    n_bankrupt: int
    solvency_margin: float


def crra_utility(x, gamma: float):
    """Power utility with constant relative risk aversion ``gamma``.

    ``x**(1-gamma) / (1-gamma)`` for ``gamma != 1`` and ``log(x)`` at
    ``gamma == 1``. Accepts scalars or arrays; raises for any ``x <= 0``.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ValueError("utility undefined for non-positive consumption")
    if gamma == 1.0:
        out = np.log(arr)
    else:
        out = arr ** (1.0 - gamma) / (1.0 - gamma)
    return out if out.ndim else float(out)


def certainty_equivalent(eu: float, gamma: float) -> float:
    """Invert the CRRA utility: the sure amount whose utility equals ``eu``."""
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if gamma == 1.0:
        return float(np.exp(eu))
    scaled = (1.0 - gamma) * eu
    if scaled <= 0.0:
        raise ValueError(
            f"eu={eu} is outside the utility's range for gamma={gamma}"
        )
    return float(scaled ** (1.0 / (1.0 - gamma)))


def certainty_equivalent_stderr(eu: float, eu_stderr: float, gamma: float) -> float:
    """Delta-method standard error of the certainty equivalent."""
    ce = certainty_equivalent(eu, gamma)
    if gamma == 1.0:
        return ce * eu_stderr
    return abs(ce / ((1.0 - gamma) * eu)) * eu_stderr


def value_from_batch(batch: SimulationBatch, cfg: FundConfig) -> ObjectiveValue:
    """Score an already simulated batch under the config's preferences.

    The reduction over paths is a fixed-order mean, so repeated runs with the
    same draws are bit-identical.
    """
    n_bankrupt = batch.n_bankrupt
    if n_bankrupt > 0:
        return ObjectiveValue(
            ce=0.0, eu=float("nan"), eu_stderr=float("nan"),
            any_bankruptcy=True, n_bankrupt=n_bankrupt,
            solvency_margin=batch.solvency_margin,
        )
    discounts = cfg.beta ** np.arange(1, batch.horizon + 1)
    per_path = crra_utility(batch.payments, cfg.gamma) @ discounts
    eu = float(per_path.mean())
    n = per_path.size
    stderr = float(per_path.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return ObjectiveValue(
        ce=certainty_equivalent(eu, cfg.gamma),
        eu=eu,
        eu_stderr=stderr,
        any_bankruptcy=False,
        n_bankrupt=0,
        solvency_margin=batch.solvency_margin,
    )


def evaluate_policy(policy: PolicyParams, spec: ObjectiveSpec) -> ObjectiveValue:
    """Monte Carlo estimate of the policy's certainty equivalent."""
    batch = simulate_batch(spec.cfg, policy, spec.mkt, spec.normals)
    return value_from_batch(batch, spec.cfg)


_worker_spec: ObjectiveSpec | None = None  # a pool worker's spec, set once at its start


def _adopt_spec(spec: ObjectiveSpec) -> None:
    global _worker_spec
    _worker_spec = spec


def _evaluate_in_worker(policy: PolicyParams) -> ObjectiveValue:
    return evaluate_policy(policy, _worker_spec)


def evaluate_policies(policies, spec: ObjectiveSpec) -> list[ObjectiveValue]:
    """:func:`evaluate_policy` of each policy on the spec's draws, in order.

    The draws are generated once; then one forked worker per CPU of this
    process's affinity mask (at most one per policy) inherits them and scores
    one policy at a time. Without ``fork`` or an affinity mask, or with one
    usable CPU, this process scores them itself; the values are the same. A
    worker's exception is re-raised here. Like any fork, the pool is unsafe
    while another thread of this process may hold a lock.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    policies = list(policies)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(policies))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [evaluate_policy(policy, spec) for policy in policies]
    spec.normals  # generated once, before any worker starts
    # under fork the initializer's argument is inherited, not pickled: the
    # draws are never copied, and each task sends only its policy
    with ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_spec, initargs=(spec,),
    ) as pool:
        return list(pool.map(_evaluate_in_worker, policies, chunksize=1))
