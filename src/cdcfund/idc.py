"""Individual defined-contribution benchmark accounts.

Each benchmark participant invests their own annual contributions with the
same constant-mix strategy (and the same market draws) as the collective
fund, but without any crediting-rate smoothing. Pairing the draws by calendar
step makes all comparisons against the fund use common random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fund import FundConfig
from .market import MarketParams, RandomStream, growth_factors, normal_matrix

__all__ = [
    "IdcRecord",
    "simulate_idc",
    "idc_terminal_benefits",
    "idc_trajectories",
]


@dataclass
class IdcRecord:
    """One benchmark account: its monthly values and terminal benefit.

    ``values`` holds ``40 * steps_per_year + 1`` samples over the working
    life, starting right after the first contribution; the last sample is the
    retirement benefit.
    """

    generation: int
    values: np.ndarray

    @property
    def terminal_benefit(self) -> float:
        return float(self.values[-1])


def _check_generation(generation: int, cfg: FundConfig) -> None:
    n = cfg.n_generations
    if not n <= generation <= cfg.horizon:
        raise ValueError(
            f"benchmark generation must lie in {n}..{cfg.horizon} "
            f"(working life inside the simulated window), got {generation}"
        )


def simulate_idc(
    generation: int,
    cfg: FundConfig,
    pi: float,
    mkt: MarketParams,
    stream: RandomStream,
) -> IdcRecord:
    """Simulate one benchmark account on one market path.

    The stream indexes the same market path as the paired fund simulation:
    the full path's draws are consumed and the account uses the slice covering
    its own working window, so the log market increments per step are
    bit-identical to the fund asset's.
    """
    _check_generation(generation, cfg)
    z = stream.normals(cfg.n_steps)
    return _simulate_window(generation, cfg, pi, mkt, z[np.newaxis, :])[0]


def _simulate_window(generation, cfg, pi, mkt, normals):
    """Shared single/batch recursion over one generation's working window.

    Samples at year boundaries are taken before the contribution, matching
    the fund's tracked-account convention; the first sample is the opening
    contribution and the last is the retirement benefit.
    """
    spy = cfg.steps_per_year
    n = cfg.n_generations
    birth = generation - n
    growth = growth_factors(mkt, pi, cfg.dt, normals[:, birth * spy : generation * spy])
    n_paths = normals.shape[0]
    values = np.empty((n_paths, n * spy + 1))
    account = np.full(n_paths, cfg.y)
    values[:, 0] = account
    for local in range(n * spy):
        account = account * growth[:, local]
        values[:, local + 1] = account
        if (local + 1) % spy == 0 and local + 1 < n * spy:
            account += cfg.y
    return [IdcRecord(generation=generation, values=values[p]) for p in range(n_paths)]


def idc_terminal_benefits(
    cfg: FundConfig,
    pi: float,
    mkt: MarketParams,
    seed: int = 0,
    n_paths: int = 1,
    generations: tuple[int, ...] | range = (),
    *,
    normals: np.ndarray | None = None,
) -> dict[int, np.ndarray]:
    """Terminal benefits per generation across paths, sharing the fund's draws.

    Computed from annual cumulative market growth factors: the benefit of
    generation ``i`` is ``y * sum_j C(i)/C(j)`` over its contribution years
    ``j``, where ``C(t)`` is the cumulative growth from time 0 to year ``t``.
    """
    generations = tuple(generations)
    for i in generations:
        _check_generation(i, cfg)
    if normals is None:
        normals = normal_matrix(seed, n_paths, cfg.n_steps)
    spy = cfg.steps_per_year
    # annual[t] is the market growth over year t+1, built one year of draws
    # at a time; rows are years, columns paths
    annual = np.empty((cfg.horizon, n_paths))
    for t in range(cfg.horizon):
        growth = growth_factors(mkt, pi, cfg.dt, normals[:, t * spy : (t + 1) * spy].T)
        np.prod(growth, axis=0, out=annual[t])
    cum = np.concatenate([np.ones((1, n_paths)), np.cumprod(annual, axis=0)])  # C(0..horizon)
    # s[j+1] = sum_{u<=j} 1/C(u), s[0] = 0
    s = np.concatenate([np.zeros((1, n_paths)), np.cumsum(1.0 / cum, axis=0)])
    n = cfg.n_generations
    out = {}
    for i in generations:
        contrib_sum = s[i] - s[i - n]  # years i-n .. i-1
        out[i] = cfg.y * cum[i] * contrib_sum
    return out


def idc_trajectories(
    cfg: FundConfig,
    pi: float,
    mkt: MarketParams,
    seed: int = 0,
    n_paths: int = 1,
    generations: tuple[int, ...] = (),
    *,
    normals: np.ndarray | None = None,
) -> dict[int, np.ndarray]:
    """Per-step account values of the given generations across paths."""
    for i in generations:
        _check_generation(i, cfg)
    if normals is None:
        normals = normal_matrix(seed, n_paths, cfg.n_steps)
    out = {}
    for i in generations:
        records = _simulate_window(i, cfg, pi, mkt, normals)
        out[i] = np.stack([rec.values for rec in records])
    return out
