"""Individual defined-contribution benchmark accounts.

Each benchmark participant invests their own annual contributions with the
same constant-mix strategy (and the same market draws) as the collective
fund, but without any crediting-rate smoothing. Pairing the draws by calendar
step makes all comparisons against the fund use common random numbers.
"""

from __future__ import annotations

import numpy as np

from .fund import FundConfig, _path_count, _store_year
from .market import MarketParams, _increment_coefficients, _summed_rows, _year_growth

__all__ = ["idc_terminal_benefits", "idc_trajectories"]


def _check_generation(generation: int, cfg: FundConfig) -> None:
    if generation not in cfg.generations_in_window:
        raise ValueError(
            f"benchmark generation must lie in {cfg.n_generations}..{cfg.horizon} "
            f"(working life inside the simulated window), got {generation}"
        )


def _annual_growth(rows: np.ndarray, drift: float, scale: float, out: np.ndarray) -> np.ndarray:
    """The market's growth over the year of ``(steps, n_paths)`` draw ``rows``, in ``out``."""
    for _ in _summed_rows(rows, out):
        pass
    return _year_growth(out, len(rows) * drift, scale)


def _simulate_window(generation, cfg, drift, scale, normals) -> np.ndarray:
    """Account values of one generation, ``(n_paths, n * steps_per_year + 1)``.

    Samples at year boundaries are taken before the contribution, as the
    fund's tracked accounts are; the first is the opening contribution and
    the last the retirement benefit. Like the fund's recorded asset, an inner
    step's sample is the start-of-year account times ``exp`` of the running
    log-return, and the year-end sample that account times the year's growth
    factor. Each year fills a ``(steps_per_year, n_paths)`` buffer, copied
    into the row-major result once a year.
    """
    spy = cfg.steps_per_year
    n = cfg.n_generations
    birth = generation - n
    n_paths = normals.shape[0]
    values = np.empty((n_paths, n * spy + 1))
    values[:, 0] = cfg.y
    account = np.full(n_paths, cfg.y)
    growth = np.empty(n_paths)
    year = np.empty((spy, n_paths))
    for k in range(n):
        rows = normals[:, (birth + k) * spy : (birth + k + 1) * spy].T
        np.multiply(rows[:-1], scale, out=year[:-1])
        year[:-1] += drift
        for step in range(1, spy - 1):  # the running sum in step order
            year[step] += year[step - 1]
        np.exp(year[:-1], out=year[:-1])
        year[:-1] *= account
        np.multiply(account, _annual_growth(rows, drift, scale, growth), out=year[-1])
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
    for i in generations:
        _check_generation(i, cfg)
    n_paths = _path_count(cfg, normals)
    spy = cfg.steps_per_year
    # rows are years, columns paths; both accumulations run row by row, in
    # the order of np.cumprod and np.cumsum along axis 0 but several times faster
    cum = np.empty((cfg.horizon + 1, n_paths))  # C(0..horizon)
    cum[0] = 1.0
    for t in range(cfg.horizon):
        _annual_growth(normals[:, t * spy : (t + 1) * spy].T, drift, scale, cum[t + 1])
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
    for i in generations:
        _check_generation(i, cfg)
    _path_count(cfg, normals)
    return {i: _simulate_window(i, cfg, drift, scale, normals) for i in generations}
