"""Individual defined-contribution benchmark accounts.

Each benchmark participant invests their own annual contributions with the
same constant-mix strategy (and the same market draws) as the collective
fund, but without any crediting-rate smoothing. Pairing the draws by calendar
step makes all comparisons against the fund use common random numbers.
"""

from __future__ import annotations

import numpy as np

from .fund import FundConfig, _check_window, _growth_so_far, _path_count, _store_year
from .market import MarketParams, _increment_coefficients

__all__ = ["idc_terminal_benefits", "idc_trajectories"]


def _simulate_window(generation, cfg, drift, scale, normals) -> np.ndarray:
    """Account values of one generation, ``(n_paths, n * steps_per_year + 1)``.

    Samples at year boundaries are taken before the contribution, as the
    fund's tracked accounts are; the first is the opening contribution and
    the last the retirement benefit. As for every recording of the fund, a
    year's samples are its start-of-year account times the growth so far,
    the ``(steps_per_year, n_paths)`` matrix of ``_growth_so_far``, copied
    into the row-major result in one block."""
    spy = cfg.steps_per_year
    n = cfg.n_generations
    birth = generation - n
    n_paths = normals.shape[0]
    values = np.empty((n_paths, n * spy + 1))
    values[:, 0] = cfg.y
    account = np.full(n_paths, cfg.y)
    year = np.empty((spy, n_paths))
    for k in range(n):
        _growth_so_far(normals[:, (birth + k) * spy : (birth + k + 1) * spy].T, drift, scale, year)
        year *= account
        _store_year(values, year, k * spy + 1, None)
        np.add(year[-1], cfg.y, out=account)
    return values


def idc_terminal_benefits(
    cfg: FundConfig,
    pi: float,
    mkt: MarketParams,
    normals: np.ndarray,
    generations: tuple[int, ...] | range = (),
) -> dict[int, np.ndarray]:
    """Terminal benefits per generation across paths, sharing the fund's draws.

    Row ``p`` of ``normals``, the ``(n_paths, n_steps)`` draw matrix that
    :func:`~cdcfund.fund.simulate_batch` takes, drives path ``p``. Computed
    from the annual growth factors that the fund's asset grows by: the
    benefit of generation ``i`` is ``y * sum_j C(i)/C(j)`` over its
    contribution years ``j``, where ``C(t)`` is the cumulative growth from
    time 0 to year ``t``.
    """
    drift, scale = _increment_coefficients(mkt, pi, cfg.dt)
    generations = tuple(generations)
    _check_window(generations, cfg, "benchmark")
    n_paths = _path_count(cfg, normals)
    spy = cfg.steps_per_year
    # rows are years, columns paths; both accumulations run row by row, in
    # the order of np.cumprod and np.cumsum along axis 0 but several times faster
    cum = np.empty((cfg.horizon + 1, n_paths))  # C(0..horizon)
    cum[0] = 1.0
    for t in range(cfg.horizon):
        _growth_so_far(normals[:, t * spy : (t + 1) * spy].T, drift, scale, cum[t + 1 : t + 2])
        cum[t + 1] *= cum[t]
    s = np.empty((cfg.horizon + 2, n_paths))  # s[j+1] = sum_{u<=j} 1/C(u), s[0] = 0
    s[0] = 0.0
    for j in range(cfg.horizon + 1):
        np.divide(1.0, cum[j], out=s[j + 1])
        s[j + 1] += s[j]
    n = cfg.n_generations
    # the contributions of years i-n .. i-1
    return {i: cfg.y * cum[i] * (s[i] - s[i - n]) for i in generations}


def idc_trajectories(
    cfg: FundConfig,
    pi: float,
    mkt: MarketParams,
    normals: np.ndarray,
    generations: tuple[int, ...] = (),
) -> dict[int, np.ndarray]:
    """Per-step account values of the given generations across paths.

    Row ``p`` of each array runs on row ``p`` of ``normals``, the market
    path of the fund simulation on the same matrix: over each year both grow
    by the same factor of that year's draws, bit for bit, and the samples
    inside a year follow the exact per-step log-returns, as the fund's
    recorded asset does.
    """
    drift, scale = _increment_coefficients(mkt, pi, cfg.dt)
    _check_window(generations, cfg, "benchmark")
    _path_count(cfg, normals)
    return {i: _simulate_window(i, cfg, drift, scale, normals) for i in generations}
