"""Collective defined-contribution fund: the batch simulator.

The fund pools the benefit accounts of overlapping working generations.
Between the annual cash-flow jumps (contributions in, lump-sum retirement
benefit out) the asset evolves by exact portfolio growth factors while every
benefit account and the liability are credited continuously at the declaration
rate, which is the expected portfolio log-return adjusted by the log funding
ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .market import MarketParams, expected_log_return, growth_factors, normal_matrix

__all__ = [
    "OMEGA",
    "FundConfig",
    "PolicyParams",
    "SimulationBatch",
    "entry_cohort_account",
    "simulate_batch",
]

# policy box: risky fraction in [0, 3], adjustment strength in [0, 1]
OMEGA = ((0.0, 3.0), (0.0, 1.0))


@dataclass(frozen=True)
class FundConfig:
    """Demographic and accounting constants of the fund.

    ``y`` is the annual contribution per working generation, ``entry_age`` /
    ``retirement_age`` bound the working life, ``dt`` the inner step (must
    split the year into an integer number of steps), ``horizon`` the simulated
    years, ``beta`` the subjective discount factor and ``gamma`` the relative
    risk aversion used by the welfare objective.
    """

    y: float = 1.0
    entry_age: int = 25
    retirement_age: int = 65
    dt: float = 1.0 / 12.0
    horizon: int = 100
    beta: float = 0.98
    gamma: float = 3.0

    def __post_init__(self) -> None:
        if self.y <= 0:
            raise ValueError(f"y must be positive, got {self.y}")
        if self.retirement_age < self.entry_age + 2:
            # with one generation the fund starts empty: a 0/0 funding ratio
            raise ValueError(
                f"retirement_age must exceed entry_age by at least 2 years, got "
                f"{self.retirement_age} and {self.entry_age}"
            )
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if int(self.horizon) != self.horizon or self.horizon <= 0:
            raise ValueError(f"horizon must be a positive integer, got {self.horizon}")
        spy = 1.0 / self.dt if self.dt > 0 else float("nan")
        if not (self.dt > 0 and abs(spy - round(spy)) < 1e-9):
            raise ValueError(
                f"dt must divide the year: steps per year must be integer, got dt={self.dt}"
            )

    @property
    def n_generations(self) -> int:
        """Number of working generations present at any time."""
        return self.retirement_age - self.entry_age

    @property
    def steps_per_year(self) -> int:
        return round(1.0 / self.dt)

    @property
    def n_steps(self) -> int:
        """Total inner steps over the whole horizon."""
        return self.horizon * self.steps_per_year


@dataclass(frozen=True)
class PolicyParams:
    """The fund's decision pair, inside ``OMEGA``: risky fraction ``pi``,
    adjustment strength ``theta``."""

    pi: float
    theta: float

    def __post_init__(self) -> None:
        for name, (lo, hi) in zip(("pi", "theta"), OMEGA):
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise ValueError(f"{name} must lie in [{lo:g}, {hi:g}], got {value}")


@dataclass
class SimulationBatch:
    """Vectorized records across paths; rows are paths.

    ``solvency_margin`` is negative exactly when some path went bankrupt:
    then it is minus the fraction of bankrupt paths, otherwise the smallest
    post-payout funding ratio over all paths and years. Optional fields are
    None unless the corresponding recording was requested:
    ``mean_funding_ratio`` is the funding ratio at every step averaged over
    the paths alive then (NaN once none is), and ``assets`` and
    ``liabilities`` hold every path's state at every step (NaN on dead paths).
    """

    payments: np.ndarray
    bankrupt_at: np.ndarray
    horizon: int
    steps_per_year: int
    solvency_margin: float
    mean_funding_ratio: np.ndarray | None = None
    assets: np.ndarray | None = None
    liabilities: np.ndarray | None = None
    account_trajectories: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_bankrupt(self) -> int:
        return int(np.sum(~np.isnan(self.bankrupt_at)))

    @property
    def any_bankruptcy(self) -> bool:
        return self.n_bankrupt > 0

    def benefits(self, generation: int) -> np.ndarray:
        """Retirement benefits of one generation across paths (NaN if unpaid)."""
        if not 1 <= generation <= self.horizon:
            raise ValueError(f"no benefit paid for generation {generation}")
        return self.payments[:, generation - 1]


def entry_cohort_account(i: int, cfg: FundConfig, r: float) -> float:
    """Account value at time 0 (before the time-0 jump) of entry generation ``i``.

    Entry generations ``1..N`` were already working before the fund started;
    their earlier contributions accrued at the risk-free rate, so a
    contribution made ``k`` years before time 0 is worth ``y * exp(r*k)``.
    """
    n = cfg.n_generations
    if not 1 <= i <= n:
        raise ValueError(f"entry generation must lie in 1..{n}, got {i}")
    return cfg.y * sum(math.exp(r * k) for k in range(1, n - i + 1))


def _draw_matrix(cfg: FundConfig, seed: int, n_paths: int, normals: np.ndarray | None):
    """The given draw matrix, checked against ``(n_paths, n_steps)``, or the
    seed's matrix when none is given; the benchmark accounts share it."""
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    if normals is None:
        return normal_matrix(seed, n_paths, cfg.n_steps)
    if normals.shape != (n_paths, cfg.n_steps):
        raise ValueError(
            f"normals must have shape ({n_paths}, {cfg.n_steps}), got {normals.shape}"
        )
    return normals


def _store_year(record: np.ndarray, year: np.ndarray, first: int, dead) -> None:
    """Copy a ``(steps, n_paths)`` year buffer into columns ``first...`` of the
    row-major ``record`` in one block, after setting the ``dead`` paths (a
    mask, or None) to NaN in the buffer."""
    if dead is not None:
        year[:, dead] = np.nan
    record[:, first : first + len(year)] = year.T


def simulate_batch(
    cfg: FundConfig,
    policy: PolicyParams,
    mkt: MarketParams,
    seed: int = 0,
    n_paths: int = 1,
    *,
    normals: np.ndarray | None = None,
    record_funding_ratios: bool = False,
    record_state: bool = False,
    tracked_generations: tuple[int, ...] = (),
) -> SimulationBatch:
    """Simulate ``n_paths`` independent paths, vectorized across paths.

    Row ``p`` consumes the draws of ``RandomStream(seed, p)``. ``normals``
    may be passed to reuse a draw matrix across calls (common random
    numbers); otherwise it is generated (and cached) from ``seed``. Growth
    factors are computed one year of draws at a time into one reused buffer,
    which reads contiguous memory when the draws are stored time-major as
    :func:`normal_matrix` stores them.

    Within a year all accounts share one accumulated crediting factor, so the
    per-generation accounts are materialized at year boundaries only; tracked
    generations additionally record every inner step of their working life.
    All per-path state is laid out path-contiguous: accounts are
    ``(n_generations, n_paths)``, and recordings are written one step per row
    of a ``(steps_per_year, n_paths)`` buffer that is copied into the
    row-major record once a year. The funding ratio is never stored per
    path: ``record_funding_ratios`` sums each step's row of live paths once a
    year into the mean.
    """
    spy = cfg.steps_per_year
    n_steps = cfg.n_steps
    n = cfg.n_generations
    for i in tracked_generations:
        if not n <= i <= cfg.horizon:
            raise ValueError(f"tracked generation must lie in {n}..{cfg.horizon}, got {i}")
    normals = _draw_matrix(cfg, seed, n_paths, normals)

    mu_pi = expected_log_return(mkt, policy.pi)
    theta = policy.theta
    dt = cfg.dt

    entry = np.array([entry_cohort_account(i, cfg, mkt.r) for i in range(1, n + 1)])
    a0 = float(entry.sum())
    # generation i lives in row i % n; the retiring generation's row is
    # reused by the generation that replaces it
    accounts = np.empty((n, n_paths))
    for i in range(1, n + 1):
        accounts[i % n] = entry[i - 1]

    assets = np.full(n_paths, a0)
    liabilities = np.full(n_paths, a0)
    cum_credit = np.ones(n_paths)
    alive = np.ones(n_paths, dtype=bool)
    bankrupt_at = np.full(n_paths, np.nan)
    payments = np.full((n_paths, cfg.horizon), np.nan)

    # every record column is written: column 0 here, the rest a year at a time
    mean_ratio = ratio_year = None
    if record_funding_ratios:
        mean_ratio = np.empty(n_steps + 1)
        mean_ratio[0] = (assets / liabilities).sum() / n_paths
        ratio_year = np.empty((spy, n_paths))
    asset_rec = liab_rec = asset_year = liab_year = None
    if record_state:
        asset_rec = np.empty((n_paths, n_steps + 1))
        liab_rec = np.empty((n_paths, n_steps + 1))
        asset_rec[:, 0] = assets
        liab_rec[:, 0] = liabilities
        asset_year = np.empty((spy, n_paths))
        liab_year = np.empty((spy, n_paths))

    tracked_value = {i: np.zeros(n_paths) for i in tracked_generations}
    trajectories = {i: np.empty((n_paths, n * spy + 1)) for i in tracked_generations}
    tracked_year = {i: np.empty((spy, n_paths)) for i in tracked_generations}

    # Dead paths are frozen at a finite state (asset = liability = 1) at every
    # year boundary: nothing recorded reads them, and keeping them finite
    # means the loop raises no floating-point event.
    dead = None  # mask of the dead paths, once there are any
    min_ratio = math.inf
    theta_dt = theta * dt
    mu_dt = mu_pi * dt
    credit = np.empty(n_paths)
    benefit = np.zeros(n_paths)
    flow = np.empty(n_paths)
    ratio = np.empty(n_paths)
    survived = np.empty(n_paths, dtype=bool)
    growth = np.empty((spy, n_paths))
    for t in range(cfg.horizon + 1):
        # year-boundary jump: materialize the year's crediting, pay the
        # retiree, admit the newcomer, collect contributions
        accounts *= cum_credit
        cum_credit[:] = 1.0
        if t >= 1:
            row = accounts[t % n]
            benefit[:] = row
            row[:] = 0.0
        accounts += cfg.y
        np.subtract(n * cfg.y, benefit, out=flow)
        assets += flow
        liabilities += flow
        if dead is None:
            # once a path is dead the margin is the bankrupt fraction,
            # so the post-payout ratio is only needed while all live
            min_ratio = min(min_ratio, float(np.divide(assets, liabilities, out=ratio).min()))
        np.greater(assets, 0.0, out=survived)
        if dead is not None or not survived.all():
            bankrupt_at[alive & ~survived] = float(t)
            alive &= survived
            dead = ~alive
        if t >= 1:
            if dead is not None:
                benefit[dead] = np.nan
            payments[:, t - 1] = benefit
        working = []  # tracked generations that work through year t
        for i in tracked_generations:
            birth = i - n
            if t == birth:
                tracked_value[i][:] = cfg.y
                trajectories[i][:, 0] = cfg.y
                if dead is not None:
                    trajectories[i][dead, 0] = np.nan
            elif birth < t < i:
                tracked_value[i] += cfg.y
            if birth <= t < i:
                working.append((i, tracked_value[i], tracked_year[i]))
        if t == cfg.horizon:
            break
        if dead is not None:
            assets[dead] = 1.0
            liabilities[dead] = 1.0

        # this year's draws, one contiguous row of paths per step when the
        # draws are stored time-major
        growth_factors(mkt, policy.pi, dt, normals[:, t * spy : (t + 1) * spy].T, out=growth)
        for step in range(spy):
            np.divide(assets, liabilities, out=credit)
            np.log(credit, out=credit)
            credit *= theta_dt
            credit += mu_dt
            np.exp(credit, out=credit)
            assets *= growth[step]
            liabilities *= credit
            cum_credit *= credit
            for _, value, year in working:
                value *= credit
                year[step] = value
            if ratio_year is not None:
                np.divide(assets, liabilities, out=ratio_year[step])
            if asset_year is not None:
                asset_year[step] = assets
                liab_year[step] = liabilities

        # the year's recordings, NaN on paths dead before it began
        first = t * spy + 1
        for i, _, year in working:
            _store_year(trajectories[i], year, first - (i - n) * spy, dead)
        if ratio_year is not None:
            # each step's mean over the live paths: one contiguous row sum
            # with the dead paths set to 0, or NaN when none is live
            span = mean_ratio[first : first + spy]
            n_live = int(np.count_nonzero(alive))
            if n_live:
                if dead is not None:
                    ratio_year[:, dead] = 0.0
                np.add.reduce(ratio_year, axis=1, out=span)
                span /= n_live
            else:
                span[:] = np.nan
        if asset_year is not None:
            _store_year(asset_rec, asset_year, first, dead)
            _store_year(liab_rec, liab_year, first, dead)

    n_dead = int(np.count_nonzero(~alive))
    return SimulationBatch(
        payments=payments,
        bankrupt_at=bankrupt_at,
        horizon=cfg.horizon,
        steps_per_year=spy,
        solvency_margin=-n_dead / n_paths if n_dead else min_ratio,
        mean_funding_ratio=mean_ratio,
        assets=asset_rec,
        liabilities=liab_rec,
        account_trajectories=trajectories,
    )
