"""Individual defined-contribution benchmark accounts.

Each benchmark participant invests their own annual contributions with the
same constant-mix strategy (and the same market draws) as the collective
fund, but without any crediting-rate smoothing. Pairing the draws by calendar
step makes all comparisons against the fund use common random numbers.
"""

from __future__ import annotations

import numpy as np

from .fund import FundConfig, _draw_matrix
from .market import MarketParams, growth_factors

__all__ = ["idc_terminal_benefits", "idc_trajectories"]


def _check_generation(generation: int, cfg: FundConfig) -> None:
    n = cfg.n_generations
    if not n <= generation <= cfg.horizon:
        raise ValueError(
            f"benchmark generation must lie in {n}..{cfg.horizon} "
            f"(working life inside the simulated window), got {generation}"
        )


def _simulate_window(generation, cfg, pi, mkt, normals) -> np.ndarray:
    """Account values of one generation, ``(n_paths, n * steps_per_year + 1)``.

    Samples at year boundaries are taken before the contribution, matching
    the fund's tracked-account convention; the first sample is the opening
    contribution and the last is the retirement benefit. As in the fund, each
    year's growth factors and values are path-contiguous rows of reused
    ``(steps_per_year, n_paths)`` buffers, and the values are copied into the
    row-major result once a year.
    """
    spy = cfg.steps_per_year
    n = cfg.n_generations
    birth = generation - n
    n_paths = normals.shape[0]
    values = np.empty((n_paths, n * spy + 1))
    values[:, 0] = cfg.y
    account = np.full(n_paths, cfg.y)
    growth = np.empty((spy, n_paths))
    year = np.empty((spy, n_paths))
    for k in range(n):
        t = birth + k
        growth_factors(mkt, pi, cfg.dt, normals[:, t * spy : (t + 1) * spy].T, out=growth)
        for step in range(spy):
            account *= growth[step]
            year[step] = account
        values[:, k * spy + 1 : (k + 1) * spy + 1] = year.T
        if k + 1 < n:
            account += cfg.y
    return values


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
    normals = _draw_matrix(cfg, seed, n_paths, normals)
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
    """Per-step account values of the given generations across paths.

    Row ``p`` of each array runs on the draws of ``RandomStream(seed, p)``,
    the market path of the paired fund simulation; the log market increments
    per step are bit-identical to the fund asset's.
    """
    for i in generations:
        _check_generation(i, cfg)
    normals = _draw_matrix(cfg, seed, n_paths, normals)
    return {i: _simulate_window(i, cfg, pi, mkt, normals) for i in generations}
