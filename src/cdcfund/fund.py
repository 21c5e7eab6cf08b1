"""Collective defined-contribution fund: state machine and batch simulator.

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

from .market import (
    MarketParams,
    RandomStream,
    expected_log_return,
    growth_factors,
    log_return_increment,
    normal_matrix,
)

__all__ = [
    "FundConfig",
    "PolicyParams",
    "FundState",
    "PathRecord",
    "SimulationBatch",
    "generation_indicator",
    "entry_cohort_account",
    "initialize_fund",
    "declaration_rate",
    "step_month",
    "year_boundary_jump",
    "simulate_path",
    "simulate_batch",
]


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
        if self.retirement_age <= self.entry_age:
            raise ValueError(
                f"retirement_age must exceed entry_age, got "
                f"{self.retirement_age} <= {self.entry_age}"
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
                f"dt must give an integer number of steps per year, got dt={self.dt}"
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
    """The fund's decision pair: risky fraction ``pi``, adjustment strength ``theta``."""

    pi: float
    theta: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.pi <= 3.0:
            raise ValueError(f"pi must lie in [0, 3], got {self.pi}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")


@dataclass
class FundState:
    """Mutable per-path fund state: time, asset, liability and open accounts."""

    t: float
    assets: float
    liabilities: float
    accounts: dict[int, float]
    bankrupt: bool = False


@dataclass
class PathRecord:
    """Immutable record of one simulated path.

    ``payments[t-1]`` is the retirement benefit paid at year ``t`` (NaN from
    the bankruptcy year onward), ``funding_ratios`` samples asset/liability at
    every inner step (pre-jump at integer years), and ``account_trajectories``
    maps a tracked generation to its account value at each step of its working
    life (``40 * steps_per_year + 1`` samples, NaN after bankruptcy).
    """

    payments: np.ndarray
    funding_ratios: np.ndarray
    bankrupt_at: float | None = None
    account_trajectories: dict[int, np.ndarray] = field(default_factory=dict)

    def account_trajectory(self, generation: int) -> np.ndarray:
        return self.account_trajectories[generation]


@dataclass
class SimulationBatch:
    """Vectorized records across paths; rows are paths.

    ``solvency_margin`` is negative exactly when some path went bankrupt:
    then it is minus the fraction of bankrupt paths, otherwise the smallest
    post-payout funding ratio over all paths and years. Optional fields are
    None unless the corresponding recording was requested.
    """

    payments: np.ndarray
    bankrupt_at: np.ndarray
    horizon: int
    steps_per_year: int
    solvency_margin: float
    funding_ratios: np.ndarray | None = None
    assets: np.ndarray | None = None
    liabilities: np.ndarray | None = None
    account_trajectories: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_paths(self) -> int:
        return self.payments.shape[0]

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


def generation_indicator(tau: int, t: float, retirement_age: int) -> int:
    """Indicator of the generation aged ``tau`` at time ``t``: its retirement year."""
    return retirement_age - tau + math.floor(t)


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


def initialize_fund(cfg: FundConfig, r: float) -> FundState:
    """Fund state at time 0 with the entry cohorts loaded and the jump not yet applied.

    Asset and liability both equal the summed entry accounts, so the initial
    funding ratio is exactly one.
    """
    accounts = {i: entry_cohort_account(i, cfg, r) for i in range(1, cfg.n_generations + 1)}
    a0 = sum(accounts.values())
    return FundState(t=0.0, assets=a0, liabilities=a0, accounts=accounts)


def declaration_rate(state: FundState, policy: PolicyParams, mkt: MarketParams) -> float:
    """Crediting rate applied to all accounts: expected portfolio log-return
    plus ``theta`` times the log funding ratio."""
    if state.assets <= 0.0 or state.liabilities <= 0.0:
        raise ValueError(
            f"declaration rate undefined for assets={state.assets}, "
            f"liabilities={state.liabilities}"
        )
    return expected_log_return(mkt, policy.pi) + policy.theta * math.log(
        state.assets / state.liabilities
    )


def step_month(
    state: FundState, cfg: FundConfig, policy: PolicyParams, mkt: MarketParams, z: float
) -> FundState:
    """Advance the state by one inner step.

    The declaration rate is frozen at its start-of-step value; the asset is
    multiplied by the exact portfolio growth factor while every account and
    the liability are multiplied by ``exp(rate * dt)``.
    """
    eta = declaration_rate(state, policy, mkt)
    credit = math.exp(eta * cfg.dt)
    state.assets *= math.exp(log_return_increment(mkt, policy.pi, cfg.dt, z))
    state.liabilities *= credit
    for i in state.accounts:
        state.accounts[i] *= credit
    state.t += cfg.dt
    if state.assets <= 0.0:
        state.bankrupt = True
    return state


def year_boundary_jump(state: FundState, cfg: FundConfig, t: int) -> tuple[FundState, float]:
    """Apply the cash-flow jump at integer year ``t``; returns the benefit paid.

    For ``t >= 1`` the retiring generation ``i = t`` is paid its account value
    as a lump sum and a new generation joins with an empty account; every
    working generation (the newcomer included) then contributes ``y``. The
    same net flow is applied to asset and liability. At ``t = 0`` there is no
    retiree, so only contributions apply.
    """
    n = cfg.n_generations
    benefit = 0.0
    if t >= 1:
        benefit = state.accounts.pop(t)
        state.accounts[t + n] = 0.0
    for i in state.accounts:
        state.accounts[i] += cfg.y
    net = n * cfg.y - benefit
    state.assets += net
    state.liabilities += net
    if state.assets <= 0.0:
        state.bankrupt = True
    return state, benefit


def simulate_path(
    cfg: FundConfig,
    policy: PolicyParams,
    mkt: MarketParams,
    stream: RandomStream,
    *,
    tracked_generations: tuple[int, ...] = (),
    initial_funding_ratio: float = 1.0,
) -> PathRecord:
    """Simulate one path of the fund from time 0 to the horizon.

    Alternates the year-boundary jump with the inner steps of each year.
    On bankruptcy the path is frozen and the remaining payments (including
    the one at the bankruptcy jump) are recorded as NaN.
    """
    spy = cfg.steps_per_year
    n = cfg.n_generations
    for i in tracked_generations:
        if not n <= i <= cfg.horizon:
            raise ValueError(f"tracked generation must lie in {n}..{cfg.horizon}, got {i}")

    z = stream.normals(cfg.n_steps)
    state = initialize_fund(cfg, mkt.r)
    state.assets *= initial_funding_ratio

    payments = np.full(cfg.horizon, np.nan)
    ratios = np.full(cfg.n_steps + 1, np.nan)
    ratios[0] = state.assets / state.liabilities
    trajectories = {i: np.full(n * spy + 1, np.nan) for i in tracked_generations}
    bankrupt_at: float | None = None

    for t in range(cfg.horizon + 1):
        state, benefit = year_boundary_jump(state, cfg, t)
        if state.bankrupt:
            bankrupt_at = float(t)
            break
        if t >= 1:
            payments[t - 1] = benefit
        for i in tracked_generations:
            if t - (i - n) == 0:
                trajectories[i][0] = state.accounts[i]
        if t == cfg.horizon:
            break
        for step in range(spy):
            state = step_month(state, cfg, policy, mkt, z[t * spy + step])
            if state.bankrupt:  # unreachable via multiplicative updates; kept as a guard
                bankrupt_at = state.t
                break
            sample = t * spy + step + 1
            ratios[sample] = state.assets / state.liabilities
            for i in tracked_generations:
                local = sample - (i - n) * spy
                if 0 < local <= n * spy:
                    trajectories[i][local] = state.accounts[i]
        if state.bankrupt:
            break

    return PathRecord(
        payments=payments,
        funding_ratios=ratios,
        bankrupt_at=bankrupt_at,
        account_trajectories=trajectories,
    )


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
    initial_funding_ratio: float = 1.0,
) -> SimulationBatch:
    """Simulate ``n_paths`` independent paths, vectorized across paths.

    Row ``p`` consumes the draws of ``RandomStream(seed, p)``, so results
    agree with ``simulate_path`` on the matching stream. ``normals`` may be
    passed to reuse a draw matrix across calls (common random numbers);
    otherwise it is generated (and cached) from ``seed``. Growth factors are
    computed one year of draws at a time, which reads contiguous memory when
    the draws are stored time-major as :func:`normal_matrix` stores them.

    Within a year all accounts share one accumulated crediting factor, so the
    per-generation accounts are materialized at year boundaries only; tracked
    generations additionally record every inner step of their working life.
    """
    spy = cfg.steps_per_year
    n_steps = cfg.n_steps
    n = cfg.n_generations
    for i in tracked_generations:
        if not n <= i <= cfg.horizon:
            raise ValueError(f"tracked generation must lie in {n}..{cfg.horizon}, got {i}")
    if normals is None:
        normals = normal_matrix(seed, n_paths, n_steps)
    elif normals.shape != (n_paths, n_steps):
        raise ValueError(f"normals must have shape ({n_paths}, {n_steps}), got {normals.shape}")

    mu_pi = expected_log_return(mkt, policy.pi)
    theta = policy.theta
    dt = cfg.dt

    entry = np.array([entry_cohort_account(i, cfg, mkt.r) for i in range(1, n + 1)])
    a0 = float(entry.sum())
    # generation i lives in column i % n; the retiring generation's column is
    # reused by the generation that replaces it
    accounts = np.empty((n_paths, n))
    for i in range(1, n + 1):
        accounts[:, i % n] = entry[i - 1]

    assets = np.full(n_paths, a0 * initial_funding_ratio)
    liabilities = np.full(n_paths, a0)
    cum_credit = np.ones(n_paths)
    alive = np.ones(n_paths, dtype=bool)
    bankrupt_at = np.full(n_paths, np.nan)
    payments = np.full((n_paths, cfg.horizon), np.nan)

    ratios = None
    if record_funding_ratios:
        ratios = np.full((n_paths, n_steps + 1), np.nan)
        ratios[:, 0] = assets / liabilities
    asset_rec = liab_rec = None
    if record_state:
        asset_rec = np.full((n_paths, n_steps + 1), np.nan)
        liab_rec = np.full((n_paths, n_steps + 1), np.nan)
        asset_rec[:, 0] = assets
        liab_rec[:, 0] = liabilities

    tracked_value = {i: np.zeros(n_paths) for i in tracked_generations}
    trajectories = {i: np.full((n_paths, n * spy + 1), np.nan) for i in tracked_generations}

    # Dead paths are frozen at a finite state (asset = liability = 1) at every
    # year boundary: nothing recorded reads them, and keeping them finite
    # means the loop raises no floating-point event.
    any_dead = False
    min_ratio = math.inf
    theta_dt = theta * dt
    mu_dt = mu_pi * dt
    credit = np.empty(n_paths)
    for t in range(cfg.horizon + 1):
        # year-boundary jump: materialize the year's crediting, pay the
        # retiree, admit the newcomer, collect contributions
        accounts *= cum_credit[:, None]
        cum_credit[:] = 1.0
        if t >= 1:
            col = t % n
            benefit = accounts[:, col].copy()
            accounts[:, col] = 0.0
        else:
            benefit = np.zeros(n_paths)
        accounts += cfg.y
        assets += n * cfg.y - benefit
        liabilities += n * cfg.y - benefit
        if not any_dead:
            # once a path is dead the margin is the bankrupt fraction,
            # so the post-payout ratio is only needed while all live
            min_ratio = min(min_ratio, float(np.min(assets / liabilities)))
        survived = assets > 0.0
        if not survived.all() or any_dead:
            bankrupt_at[alive & ~survived] = float(t)
            alive &= survived
            any_dead = True
        if t >= 1:
            if any_dead:
                payments[alive, t - 1] = benefit[alive]
            else:
                payments[:, t - 1] = benefit
        for i in tracked_generations:
            birth = i - n
            if t == birth:
                tracked_value[i][:] = cfg.y
                trajectories[i][alive, 0] = cfg.y
            elif birth < t < i:
                tracked_value[i] += cfg.y
        if t == cfg.horizon:
            break
        if any_dead:
            dead = ~alive
            assets[dead] = 1.0
            liabilities[dead] = 1.0

        # this year's draws, one contiguous row of paths per step when the
        # draws are stored time-major
        growth = growth_factors(mkt, policy.pi, dt, normals[:, t * spy : (t + 1) * spy].T)
        for step in range(spy):
            np.divide(assets, liabilities, out=credit)
            np.log(credit, out=credit)
            credit *= theta_dt
            credit += mu_dt
            np.exp(credit, out=credit)
            assets *= growth[step]
            liabilities *= credit
            cum_credit *= credit
            sample = t * spy + step + 1
            for i in tracked_generations:
                local = sample - (i - n) * spy
                if 0 < local <= n * spy:
                    tracked_value[i] *= credit
                    if any_dead:
                        trajectories[i][alive, local] = tracked_value[i][alive]
                    else:
                        trajectories[i][:, local] = tracked_value[i]
            if ratios is not None:
                if any_dead:
                    ratios[alive, sample] = (assets / liabilities)[alive]
                else:
                    np.divide(assets, liabilities, out=ratios[:, sample])
            if asset_rec is not None:
                if any_dead:
                    asset_rec[alive, sample] = assets[alive]
                    liab_rec[alive, sample] = liabilities[alive]
                else:
                    asset_rec[:, sample] = assets
                    liab_rec[:, sample] = liabilities

    n_dead = int(np.count_nonzero(~alive))
    return SimulationBatch(
        payments=payments,
        bankrupt_at=bankrupt_at,
        horizon=cfg.horizon,
        steps_per_year=spy,
        solvency_margin=-n_dead / n_paths if n_dead else min_ratio,
        funding_ratios=ratios,
        assets=asset_rec,
        liabilities=liab_rec,
        account_trajectories=trajectories,
    )
