"""Scalar reference model of the fund: one path, one state object, one step at a time.

The package simulates the fund in one vectorized engine,
:func:`cdcfund.fund.simulate_batch`. This module is the independent,
straightforward state machine the tests check that engine against: every
account is a dictionary entry, every inner step and every year-boundary jump
is its own function, and the declaration rate is recomputed from the state at
each step. It also holds :func:`mean_funding_ratio_trajectory`, the NaN-aware
cross-path mean that the engine's streamed ``mean_funding_ratio`` is checked
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from cdcfund.fund import FundConfig, PolicyParams, entry_cohort_account
from cdcfund.market import MarketParams, RandomStream, expected_log_return, log_return_increment


@dataclass
class FundState:
    """Mutable per-path fund state: time, asset, liability and open accounts."""

    t: float
    assets: float
    liabilities: float
    accounts: dict[int, float]
    bankrupt: bool = False


class PathRecord(NamedTuple):
    """One simulated path.

    ``payments[t-1]`` is the retirement benefit paid at year ``t`` (NaN from
    the bankruptcy year onward), ``funding_ratios`` samples asset/liability at
    every inner step (pre-jump at integer years), and ``account_trajectories``
    maps a tracked generation to its account value at each step of its working
    life (``40 * steps_per_year + 1`` samples, NaN after bankruptcy).
    """

    payments: np.ndarray
    funding_ratios: np.ndarray
    bankrupt_at: float | None
    account_trajectories: dict[int, np.ndarray]


def generation_indicator(tau: int, t: float, retirement_age: int) -> int:
    """Indicator of the generation aged ``tau`` at time ``t``: its retirement year."""
    return retirement_age - tau + math.floor(t)


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


def mean_funding_ratio_trajectory(funding_ratios: np.ndarray) -> np.ndarray:
    """Pointwise cross-path mean of recorded funding ratios (NaN-aware)."""
    fr = np.asarray(funding_ratios, dtype=float)
    if fr.ndim != 2:
        raise ValueError(f"need (n_paths, n_samples) matrix, got shape {fr.shape}")
    all_nan = np.isnan(fr).all(axis=0)
    out = np.full(fr.shape[1], np.nan)
    with np.errstate(invalid="ignore"):
        out[~all_nan] = np.nanmean(fr[:, ~all_nan], axis=0)
    return out
