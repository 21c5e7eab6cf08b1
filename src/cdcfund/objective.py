"""Welfare objective: discounted CRRA utility of all retirement benefits.

A candidate policy is scored by simulating a batch of fund paths, averaging
the discounted utility of the benefit stream across paths and inverting the
average through the utility function into a certainty equivalent. Any
bankruptcy in the batch zeroes the certainty equivalent (soft constraint).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fund import FundConfig, PolicyParams, SimulationBatch, _solvency_margin, simulate_batch
from .market import (
    MarketParams, _check_integer, _check_uint64, _normal_rows, _usable_cpus, normal_matrix,
)

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


def _path_utilities(payments: np.ndarray, cfg: FundConfig) -> np.ndarray:
    """Each path's discounted utility of its ``(n_paths, horizon)`` payments:
    the utilities of each year's row, made contiguous, times the year's
    discount, added in year order, so a path's bits depend neither on the
    other paths nor on the layout of ``payments``."""
    discounts = cfg.beta ** np.arange(1, payments.shape[1] + 1)
    per_path = np.zeros(len(payments))
    for row, discount in zip(payments.T, discounts):
        per_path += crra_utility(np.ascontiguousarray(row), cfg.gamma) * discount
    return per_path


def _value(per_path, n_bankrupt: int, margin: float, gamma: float) -> ObjectiveValue:
    """The value of a batch from its paths' discounted utilities in path
    order (unread if ``n_bankrupt > 0``): a fixed-order mean, so it repeats
    bit for bit on the same draws."""
    if n_bankrupt > 0:
        return ObjectiveValue(ce=0.0, eu=float("nan"), eu_stderr=float("nan"),
                              any_bankruptcy=True, n_bankrupt=n_bankrupt, solvency_margin=margin)
    eu = float(per_path.mean())
    n = per_path.size
    stderr = float(per_path.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return ObjectiveValue(ce=certainty_equivalent(eu, gamma), eu=eu, eu_stderr=stderr,
                          any_bankruptcy=False, n_bankrupt=0, solvency_margin=margin)


def value_from_batch(batch: SimulationBatch, cfg: FundConfig) -> ObjectiveValue:
    """Score an already simulated batch under the config's preferences."""
    n_bankrupt = batch.n_bankrupt
    per_path = None if n_bankrupt else _path_utilities(batch.payments, cfg)
    return _value(per_path, n_bankrupt, batch.solvency_margin, cfg.gamma)


def evaluate_policy(policy: PolicyParams, spec: ObjectiveSpec) -> ObjectiveValue:
    """Monte Carlo estimate of the policy's certainty equivalent."""
    batch = simulate_batch(spec.cfg, policy, spec.mkt, spec.normals)
    return value_from_batch(batch, spec.cfg)


# paths per block when one policy is scored in blocks: the boundaries depend
# on n_paths only, so the bits do not depend on the CPU count, and a block's
# draws at monthly steps over 100 years take 9.6 MB
_EVAL_BLOCK = 1_000

_worker_fn = None  # a pool worker's function, set once at its start


def _adopt_fn(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _call_in_worker(item):
    return _worker_fn(item)


def _fork_map(fn, items) -> list:
    """``[fn(item) for item in items]``, on one forked worker per CPU of this
    process's affinity mask (at most one per item).

    The workers inherit ``fn``, and all it refers to, at the fork; each task
    sends only its item and its result. Without ``fork`` or an affinity mask,
    or with one usable CPU, this process maps the items itself; the results
    are the same. A worker's exception is re-raised here, and every worker
    has exited when this returns. Like any fork, the pool is unsafe while
    another thread of this process may hold a lock.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    items = list(items)
    workers = min(_usable_cpus(), len(items))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    # under fork the initializer's argument is inherited, not pickled
    with ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_fn, initargs=(fn,),
    ) as pool:
        return list(pool.map(_call_in_worker, items, chunksize=1))


def _evaluate_in_blocks(policy: PolicyParams, spec: ObjectiveSpec) -> ObjectiveValue:
    """:func:`evaluate_policy`, bit for bit, with each block of paths drawn and
    simulated on its own, so no process holds the whole draw matrix.

    A block returns its paths' discounted utilities (None if one is bankrupt),
    bankrupt years and margin, not its payments; the parent joins them in
    path order.
    """
    cfg = spec.cfg

    def score_block(lo: int) -> tuple[np.ndarray | None, np.ndarray, float]:
        hi = min(lo + _EVAL_BLOCK, spec.n_paths)
        normals = _normal_rows(spec.seed, lo, hi, cfg.n_steps)
        batch = simulate_batch(cfg, policy, spec.mkt, normals)
        per_path = None if batch.any_bankruptcy else _path_utilities(batch.payments, cfg)
        return per_path, batch.bankrupt_at, batch.solvency_margin

    per_path, bankrupt_at, margins = zip(
        *_fork_map(score_block, range(0, spec.n_paths, _EVAL_BLOCK))
    )
    bankrupt_at = np.concatenate(bankrupt_at)
    n_bankrupt = int(np.count_nonzero(~np.isnan(bankrupt_at)))
    per_path = None if n_bankrupt else np.concatenate(per_path)
    return _value(per_path, n_bankrupt, _solvency_margin(bankrupt_at, min(margins)), cfg.gamma)


def evaluate_policies(policies, spec: ObjectiveSpec) -> list[ObjectiveValue]:
    """:func:`evaluate_policy` of each policy on the spec's draws, in order,
    on every CPU of this process's affinity mask.

    Several policies share the spec's draws: they are generated once, and
    forked workers that inherit them score one policy at a time. A single
    policy is scored in fixed blocks of paths instead, each drawn where it
    is simulated, so the whole draw matrix is never held (and the spec's is
    not generated). The values are the same on any number of CPUs. A
    worker's exception is re-raised here.
    """
    policies = list(policies)
    if len(policies) == 1:
        return [_evaluate_in_blocks(policies[0], spec)]
    if policies:
        spec.normals  # generated once, before any worker starts
    return _fork_map(lambda policy: evaluate_policy(policy, spec), policies)
