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

from .fund import FundConfig, PolicyParams, SimulationBatch, _solvency_margin
from .fund import _simulate, _year_totals
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

    Every policy scored on one spec runs on the same market paths, row ``p``
    on stream ``(seed, p)`` (common random numbers). :func:`evaluate_policy`
    scores in this process on the spec's own draws: :attr:`normals` and its
    :attr:`year_totals` are generated on first use and kept for the spec's
    lifetime.
    :func:`evaluate_policies` never generates them: it draws the paths block
    by block where they are scored. A spec made with ``dataclasses.replace``
    starts without draws of its own.
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

    @cached_property
    def year_totals(self) -> np.ndarray:
        """The read-only ``(horizon, n_paths)`` totals of each year's draws of
        :attr:`normals`, which :func:`_block_scores` takes to skip their sum:
        summed once for every policy scored on the spec."""
        return _year_totals(self.cfg, self.normals)


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


def _block_scores(cfg: FundConfig, policies, mkt: MarketParams, normals: np.ndarray,
                  year_totals) -> list[tuple]:
    """The one scorer of :func:`evaluate_policy` and :func:`evaluate_policies`:
    what a block of paths sends back for each of ``policies``, scored in one
    pass of the engine on a ``(K, n_paths)`` state: its paths' discounted
    utilities (None if one is bankrupt), its bankrupt-path count and its
    solvency margin. A policy's utilities are summed in the year loop while
    it has no bankrupt path, year by year as :func:`_path_utilities` sums a
    batch's payments, so they have the same bits, and no payments are held."""
    discounts = cfg.beta ** np.arange(1, cfg.horizon + 1)
    per_path = np.zeros((len(policies), len(normals)))

    def add(t, benefit, live):
        if live is None:
            np.add(per_path, crra_utility(benefit, cfg.gamma) * discounts[t - 1], out=per_path)
        elif len(live):
            per_path[live] += crra_utility(benefit[live], cfg.gamma) * discounts[t - 1]

    bankrupt_at, margins, _ = _simulate(cfg, policies, mkt, normals, year_totals, add)
    counts = [int(np.count_nonzero(~np.isnan(row))) for row in bankrupt_at]
    # a solvent row is copied, so it does not hold the pass's other rows
    return [(None if dead else utilities.copy(), dead, margin)
            for utilities, dead, margin in zip(per_path, counts, margins)]


def _value(blocks, n_paths: int, gamma: float) -> ObjectiveValue:
    """The value of a batch of ``n_paths`` paths from its blocks'
    :func:`_block_scores` in path order: a fixed-order mean over the joined
    paths, so it repeats bit for bit on the same draws, however they are
    split into blocks."""
    per_path, n_bankrupt, margins = zip(*blocks)
    n_bankrupt = sum(n_bankrupt)
    margin = _solvency_margin(n_bankrupt, n_paths, min(margins))
    if n_bankrupt > 0:
        return ObjectiveValue(ce=0.0, eu=float("nan"), eu_stderr=float("nan"),
                              any_bankruptcy=True, n_bankrupt=n_bankrupt, solvency_margin=margin)
    per_path = np.concatenate(per_path)
    eu = float(per_path.mean())
    stderr = float(per_path.std(ddof=1) / np.sqrt(per_path.size)) if per_path.size > 1 else 0.0
    return ObjectiveValue(ce=certainty_equivalent(eu, gamma), eu=eu, eu_stderr=stderr,
                          any_bankruptcy=False, n_bankrupt=0, solvency_margin=margin)


def value_from_batch(batch: SimulationBatch, cfg: FundConfig) -> ObjectiveValue:
    """Score an already simulated batch under the config's preferences."""
    per_path = None if batch.any_bankruptcy else _path_utilities(batch.payments, cfg)
    return _value([(per_path, batch.n_bankrupt, batch.solvency_margin)],
                  len(batch.bankrupt_at), cfg.gamma)


def evaluate_policy(policy: PolicyParams, spec: ObjectiveSpec) -> ObjectiveValue:
    """Monte Carlo estimate of the policy's certainty equivalent by the one
    scorer, :func:`_block_scores`, on the spec's draws and year totals, which
    the first policy scored generates."""
    scored = _block_scores(spec.cfg, [policy], spec.mkt, spec.normals, spec.year_totals)
    return _value(scored, spec.n_paths, spec.cfg.gamma)


# the most paths per block: a block's draws at monthly steps over 100 years
# take 9.6 MB
_EVAL_BLOCK = 1_000
# the state cells, policies times paths, of one engine pass over a block:
# fifteen policies at a time on 1,000 paths, whose ring of running sums
# holds 4.9 MB beside the block's 9.6 MB of draws; thirty-six on 416, with
# 4.0 MB of draws
_PASS_CELLS = 15_000
# a lattice's blocks are cut to fit all its policies in one pass only where
# that pass covers at least this many paths: on shorter rows each element of
# the engine's (1, n) draws times (K, 1) columns costs more, even under
# fund._PASS_BUFSIZE (BENCH_lattice_pass_blocks.json)
_PASS_FLOOR = 300

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


def evaluate_policies(policies, spec: ObjectiveSpec) -> list[ObjectiveValue]:
    """:func:`evaluate_policy` of each policy on the spec's draws, in order,
    on every CPU of this process's affinity mask.

    The paths are split into equal blocks, each drawn where it is scored, so
    the spec's draws are never generated and no process holds them all. The
    blocks are as few as keep each at most ``_EVAL_BLOCK`` paths while their
    count is a multiple of the usable CPUs, and never more than the paths: on
    2 CPUs 10,000 paths make ten 1,000-path blocks, on 8 CPUs sixteen of 625.
    ``K`` policies that fit one pass of ``_PASS_CELLS`` states on at least
    ``_PASS_FLOOR`` paths keep each block at most ``_PASS_CELLS // K`` paths
    instead, so each block takes one pass: on 2 CPUs the 36 policies of a
    6 x 6 lattice run 26 blocks of 384 or 385 paths, while 400 policies keep
    1,000-path blocks.
    A block is one task, for every policy. It sums its year totals once if
    there are several policies and steps them through the engine a pass at a
    time, each pass as many policies as fit ``_PASS_CELLS`` states on the
    block's paths (fifteen on 1,000 paths), on one ``(K, n_paths)`` state.
    It returns each policy's per-path discounted utilities, summed in the
    year loop (None if a path is bankrupt), bankrupt-path count and margin,
    not its payments or bankrupt years; each policy's are joined in path
    order. A path's utility has the same bits in any block and any pass, so
    the values are the same on any number of CPUs. A worker's exception is
    re-raised here.
    """
    policies = list(policies)
    if not policies:
        return []
    cfg, n_paths, cpus = spec.cfg, spec.n_paths, _usable_cpus()
    one_pass = _PASS_CELLS // len(policies)
    most = min(one_pass, _EVAL_BLOCK) if one_pass >= _PASS_FLOOR else _EVAL_BLOCK
    n_blocks = min(n_paths, cpus * -(-n_paths // (cpus * most)))
    bounds = [n_paths * k // n_blocks for k in range(n_blocks + 1)]

    def score_block(lo: int, hi: int) -> list[tuple]:
        normals = _normal_rows(spec.seed, lo, hi, cfg.n_steps)
        # one policy sums each year's draws inside the year step, with no extra array
        totals = _year_totals(cfg, normals) if len(policies) > 1 else None
        per_pass = max(1, _PASS_CELLS // (hi - lo))
        return [scored for k in range(0, len(policies), per_pass) for scored in
                _block_scores(cfg, policies[k : k + per_pass], spec.mkt, normals, totals)]

    per_block = _fork_map(lambda block: score_block(*block), zip(bounds, bounds[1:]))
    return [_value(scored, n_paths, cfg.gamma) for scored in zip(*per_block)]
