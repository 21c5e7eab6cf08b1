"""Collective defined-contribution fund: the batch simulator.

The fund pools the benefit accounts of overlapping working generations.
Between the annual cash-flow jumps (contributions in, lump-sum retirement
benefit out) the asset evolves by exact portfolio growth factors while every
benefit account and the liability are credited continuously at the declaration
rate, which is the expected portfolio log-return adjusted by the log funding
ratio.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .market import MarketParams, _check_integer, _increment_coefficients

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

# the ufunc buffer, in elements, of a pass of several policies: under numpy's
# 8,192 a (1, n) row times a (K, 1) column costs 3-4x more per element below
# about 3,000 paths, under 512 only below about 250 (BENCH_lattice_blocks.json)
_PASS_BUFSIZE = 512


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
        for name in ("y", "dt", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("entry_age", "retirement_age", "horizon"):
            _check_integer(name, getattr(self, name))
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
        if self.horizon <= 0:
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
    def generations_in_window(self) -> range:
        """Generations whose whole working life lies in the simulated window:
        ``n_generations`` to ``horizon``."""
        return range(self.n_generations, self.horizon + 1)

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

    ``payments[p, t - 1]`` is path ``p``'s benefit at year ``t`` (NaN once it
    is bankrupt): the ``(n_paths, horizon)`` transpose of a C-contiguous
    time-major buffer, so a year's benefits (:meth:`benefits`) are one
    contiguous row. Every other per-path array is C-contiguous by path.

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


def _path_count(cfg: FundConfig, normals: np.ndarray) -> int:
    """Rows of a draw matrix, which must be ``(n_paths >= 1, cfg.n_steps)``;
    the benchmark accounts check their draws the same way."""
    if normals.ndim != 2 or normals.shape[0] < 1 or normals.shape[1] != cfg.n_steps:
        raise ValueError(
            f"normals must have shape (n_paths >= 1, {cfg.n_steps}), got {normals.shape}"
        )
    return normals.shape[0]


def _store_year(record: np.ndarray, year: np.ndarray, first: int, dead) -> None:
    """Copy a ``(steps, n_paths)`` year buffer into columns ``first...`` of the
    row-major ``record`` in one block, after setting the ``dead`` paths (an
    index array, or None) to NaN in the buffer."""
    if dead is not None:
        year[:, dead] = np.nan
    record[:, first : first + len(year)] = year.T


def _solvency_margin(bankrupt_at: np.ndarray, min_ratio: float) -> float:
    """Minus the bankrupt fraction if any path is bankrupt, else ``min_ratio``."""
    n_dead = int(np.count_nonzero(~np.isnan(bankrupt_at)))
    return -n_dead / len(bankrupt_at) if n_dead else float(min_ratio)


def _check_window(generations, cfg: FundConfig, role: str) -> None:
    """Raise unless each of ``generations`` works its whole life inside the
    simulated window; the message begins with ``role`` ("tracked", ...)."""
    for i in generations:
        if i not in cfg.generations_in_window:
            raise ValueError(
                f"{role} generation must lie in {cfg.n_generations}..{cfg.horizon} "
                f"(working life inside the simulated window), got {i}"
            )


def _year_total(year: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the row ``out`` with the sum of a year's ``(steps, n_paths)`` draw
    rows and return it: a sequential row loop in step order, so the bits do
    not depend on the draw layout."""
    np.copyto(out, year[0])
    for z in year[1:]:
        out += z
    return out


def _year_totals(cfg: FundConfig, normals: np.ndarray) -> np.ndarray:
    """The read-only ``(horizon, n_paths)`` year totals of a draw matrix: row
    ``t`` is :func:`_year_total` of year ``t``'s draws. Summed once, they
    serve every policy scored on the matrix, with the same bits."""
    totals = np.empty((cfg.horizon, _path_count(cfg, normals)))
    for row, year in zip(totals, np.split(normals, cfg.horizon, axis=1)):
        _year_total(year.T, row)
    totals.setflags(write=False)
    return totals


def _growth_so_far(year, drift, scale, out, total=None) -> None:
    """Fill ``out`` with the portfolio's growth so far over a year of
    ``(steps, n_paths)`` draw rows at step log-returns ``drift + scale *
    z_k``: ``exp`` of their running sum in step order, then the year's own
    factor ``exp(steps*drift + scale * total)`` from the year's draw total
    (:func:`_year_total`, summed into the last row unless given). A one-row
    ``out`` gets that factor alone. The coefficients may be ``(K, 1)``
    columns, one row per policy, against ``(steps, 1, n_paths)`` draws and a
    ``(rows, K, n_paths)`` ``out``: every element takes the operations a
    scalar policy's would."""
    if len(out) > 1:
        np.multiply(year[:-1], scale, out=out[:-1])
        out[:-1] += drift
        for k in range(1, len(year) - 1):
            out[k] += out[k - 1]
        np.exp(out[:-1], out=out[:-1])
    last = np.multiply(_year_total(year, out[-1]) if total is None else total, scale, out=out[-1])
    last += len(year) * drift
    np.exp(last, out=last)


def _credit_so_far(year, log_ratio, drift, scale, theta_dt, weights, out, term) -> None:
    """Fill ``out`` with the crediting so far over a year of ``(steps,
    n_paths)`` draw rows from the post-jump log funding ratio ``log_ratio``:
    ``exp`` of the running sum of each step's ``drift + theta_dt * x_k``,
    then the year's own factor, :func:`simulate_batch`'s ``c``, from the
    ``weights`` of :func:`_simulate`: ``theta_dt * c0`` for ``x_0`` and
    ``theta_dt * scale * w_j`` for ``z_j``. A one-row ``out`` gets ``c``
    alone; ``term`` is a scratch row. Coefficients broadcast as in
    :func:`_growth_so_far`."""
    steps = len(year)
    if len(out) > 1:
        # term carries x_k; out[k + 1] holds step k's log-return until its own turn
        np.copyto(term, log_ratio)
        for k in range(steps - 1):
            np.multiply(term, theta_dt, out=out[k])
            out[k] += drift
            np.multiply(year[k], scale, out=out[k + 1])
            out[k + 1] += drift
            term += out[k + 1]
            term -= out[k]
        for k in range(1, steps - 1):
            out[k] += out[k - 1]
        np.exp(out[:-1], out=out[:-1])
    # a fixed-order sum over the draws that reach the crediting (all but the last)
    c = np.multiply(log_ratio, weights[0], out=out[-1])
    for j in range(steps - 1):
        c += np.multiply(year[j], weights[j + 1], out=term)
    c += steps * drift
    np.exp(c, out=c)


def simulate_batch(
    cfg: FundConfig,
    policy: PolicyParams,
    mkt: MarketParams,
    normals: np.ndarray,
    *,
    record_funding_ratios: bool = False,
    record_state: bool = False,
    tracked_generations: tuple[int, ...] = (),
) -> SimulationBatch:
    """Simulate one path per row of the ``(n_paths, n_steps)`` draw matrix
    ``normals``, vectorized across paths.

    Path ``p`` consumes row ``p``, so the draws of
    :func:`~cdcfund.market.normal_matrix` make path ``p`` run on
    ``RandomStream(seed, p)``; policies scored on one matrix share their
    draws (common random numbers).

    The engine steps a year at a time in log space. With ``g_k = drift +
    scale * z_k`` the exact log-return of step ``k`` and ``drift = mu_pi *
    dt``, the crediting ``exp(drift + theta*dt*x_k)`` makes the log funding
    ratio ``x = log(A/L)`` follow ``x_{k+1} = rho * x_k + scale * z_k``,
    ``rho = 1 - theta*dt``. From the post-jump ``x_0`` a year therefore
    multiplies the asset by ``exp(spy*drift + scale * sum_k z_k)`` and the
    liability and every account by ``c = exp(spy*drift + theta*dt*(c0*x_0 +
    scale * sum_j w_j*z_j))``, with ``c0 = sum_{k<spy} rho^k`` and ``w_j =
    sum_{m<spy-1-j} rho^m``, computed once per call. Both sums add the year's
    draw rows element-wise in step order, so the bits depend neither on the
    draw layout nor on the thread count. No account is stored: with ``C(t)``
    the crediting from time 0 to year ``t`` and ``R(s) = sum_{j<s} y/C(j)``
    (a ring of the ``n_generations + 1`` latest sums), generation ``i``'s
    account right after the jump at year ``t`` is ``C(t) * (R(t+1) - R(i -
    n_generations))``, or ``C(t) * (entry + R(t+1))`` for an entry
    generation, and its benefit is that account at the start of its last
    year times that year's ``c``.

    Recordings are computed only when asked for and never feed the state, so
    recording leaves the results unchanged bit for bit. A recorded sample is
    its start-of-year value times the growth so far, a ``(steps_per_year,
    n_paths)`` matrix per year whose last row is the year's own factor:
    :func:`_growth_so_far`'s for the asset, :func:`_credit_so_far`'s for
    the liability and a tracked account. A matrix no recording reads is its
    last row alone. The state is always its start-of-year value times the
    matrix, so a year-end sample is the next state, and a tracked account
    ends at its benefit, bit for bit. Each year is copied into the row-major
    record in one block. The funding ratio is never stored per path: its
    mean sums each step's row of ``A/L`` over the live paths.

    The benefits are written one contiguous row per year into a time-major
    ``(horizon, n_paths)`` buffer, whose transpose is ``payments``: a column
    write per year into path rows would touch one cache line per path. The
    dead paths are held as an index array, not a mask. The year step is
    :func:`_simulate`'s, which also steps several policies at once.
    """
    paid = np.empty((cfg.horizon, _path_count(cfg, normals)))  # every row is written

    def store(t, benefit, live):
        paid[t - 1] = benefit[0]

    bankrupt_at, [margin], recorded = _simulate(
        cfg, [policy], mkt, normals, None, store,
        record_funding_ratios=record_funding_ratios, record_state=record_state,
        tracked_generations=tracked_generations,
    )
    return SimulationBatch(
        payments=paid.T,
        bankrupt_at=bankrupt_at[0],
        horizon=cfg.horizon,
        steps_per_year=cfg.steps_per_year,
        solvency_margin=margin,
        **recorded,
    )


def _simulate(
    cfg: FundConfig,
    policies,
    mkt: MarketParams,
    normals: np.ndarray,
    year_totals,
    pay,
    *,
    record_funding_ratios: bool = False,
    record_state: bool = False,
    tracked_generations: tuple[int, ...] = (),
):
    """:func:`simulate_batch`'s engine, stepping ``K = len(policies)``
    policies through each year at once on one ``(K, n_paths)`` state.

    Row ``k`` is policy ``k`` on every path of ``normals``. Its scalars
    (drift, scale, crediting weights) are ``(K, 1)`` columns (floats for one
    policy), and a year's draws are ``(steps, 1, n_paths)`` rows, so every
    element takes the operations, in the order, of a one-policy run: each
    row has the bits of :func:`simulate_batch` for its policy. The
    ``(horizon, n_paths)`` :func:`_year_totals` of ``normals``, if given as
    ``year_totals``, save the year step its first sum, bit for bit. After each
    year-``t`` jump (``t >= 1``) it calls ``pay(t, benefit, live)`` with the
    ``(K, n_paths)`` benefits paid, NaN on bankrupt paths, and ``live``, the
    rows with no bankrupt path so far (None while no path of any row is
    bankrupt). Recordings need one policy; for more they are rejected before
    any work. Several policies step under a ufunc buffer of
    ``_PASS_BUFSIZE`` elements, and the caller's buffer size is back when
    this returns or raises. Returns the ``(K, n_paths)`` bankrupt years, each
    row's solvency margin and the recordings as :class:`SimulationBatch`
    fields.
    """
    spy = cfg.steps_per_year
    n_steps = cfg.n_steps
    n = cfg.n_generations
    _check_window(tracked_generations, cfg, "tracked")
    n_paths = _path_count(cfg, normals)
    if year_totals is not None and year_totals.shape != (cfg.horizon, n_paths):
        raise ValueError(f"year_totals must have shape {(cfg.horizon, n_paths)}, "
                         f"got {year_totals.shape}")
    if len(policies) > 1 and (record_funding_ratios or record_state or tracked_generations):
        raise ValueError(f"recordings need one policy, got {len(policies)}")

    columns = []
    for policy in policies:
        drift, scale = _increment_coefficients(mkt, policy.pi, cfg.dt)
        theta_dt = policy.theta * cfg.dt
        # the crediting weights: partial[m] = sum_{k<m} rho^k
        partial = list(itertools.accumulate(((1.0 - theta_dt) ** k for k in range(spy)),
                                            initial=0.0))
        columns.append([drift, scale, theta_dt, theta_dt * partial[spy],
                        *(theta_dt * scale * partial[spy - 1 - j] for j in range(spy - 1))])
    # (K, 1) columns; one policy keeps plain floats, as a broadcast column
    # costs each ufunc call more (about 15 us a year, 20% of a 2,000-path call)
    drift, scale, theta_dt, *weights = (np.array(columns).T[..., None] if len(columns) > 1
                                        else columns[0])
    shape = (len(policies), n_paths)

    entry = np.array([entry_cohort_account(i, cfg, mkt.r) for i in range(1, n + 1)])
    a0 = float(entry.sum())
    assets = np.full(shape, a0)
    liabilities = np.full(shape, a0)
    cum_credit = np.ones(shape)  # C(t)
    sums = np.zeros((n + 1, *shape))  # R(s) in row s % (n + 1)
    bankrupt_at = np.full(shape, np.nan)

    def account(i: int, t: int, out=None) -> np.ndarray:
        """Generation ``i``'s account right after the jump at year ``t``."""
        if i <= n:
            out = np.add(sums[(t + 1) % (n + 1)], entry[i - 1], out=out)
        else:
            out = np.subtract(sums[(t + 1) % (n + 1)], sums[(i - n) % (n + 1)], out=out)
        out *= cum_credit
        return out

    # every record column is written: column 0 here, the rest a year at a time
    mean_ratio = asset_rec = liab_rec = None
    if record_funding_ratios:
        mean_ratio = np.empty(n_steps + 1)
        mean_ratio[0] = (assets[0] / liabilities[0]).sum() / n_paths
    if record_state:
        asset_rec = np.empty((n_paths, n_steps + 1))
        liab_rec = np.empty((n_paths, n_steps + 1))
        asset_rec[:, 0] = assets[0]
        liab_rec[:, 0] = liabilities[0]
    trajectories = {i: np.empty((n_paths, n * spy + 1)) for i in tracked_generations}
    # a year's growth and crediting so far, one row where no recording reads more
    state_rows = spy if record_funding_ratios or record_state else 1
    growth = np.empty((state_rows, *shape))
    credit = np.empty((spy if tracked_generations else state_rows, *shape))
    tracked_year = np.empty((spy + 1, *shape)) if tracked_generations else None

    # Dead paths are frozen at a finite state (asset = liability = 1) at every
    # year boundary: nothing recorded reads them, and keeping them finite
    # means the loop raises no floating-point event.
    dead = None  # flat indices of the dead paths, once there are any
    live = None  # the rows without one, once there are any
    min_ratio = np.full(len(policies), math.inf)
    benefit = np.zeros(shape)
    retiring = np.empty(shape)  # the next retiree's account
    flow, ratio, term = np.empty((3, *shape))
    survived = np.empty(shape, dtype=bool)
    # several policies step under a small ufunc buffer (see _PASS_BUFSIZE)
    caller_bufsize = np.setbufsize(_PASS_BUFSIZE if len(policies) > 1 else np.getbufsize())
    try:
        for t in range(cfg.horizon + 1):
            # year-boundary jump: pay the retiree, collect contributions
            np.subtract(n * cfg.y, benefit, out=flow)
            assets += flow
            liabilities += flow
            np.divide(assets, liabilities, out=ratio)  # the post-payout funding ratio
            if live is None or len(live):
                # once a row has a dead path its margin is the bankrupt fraction,
                # so its smallest ratio is only needed while some row is all live
                np.minimum(min_ratio, ratio.min(axis=1), out=min_ratio)
            np.greater(assets, 0.0, out=survived)
            if dead is not None or not survived.all():
                bankrupt_at[np.isnan(bankrupt_at) & ~survived] = t
                solvent = np.isnan(bankrupt_at)
                dead = np.flatnonzero(~solvent)
                live = np.flatnonzero(solvent.all(axis=1))
            if t >= 1:
                if dead is not None:
                    benefit.reshape(-1)[dead] = np.nan
                pay(t, benefit, live)
            if t == cfg.horizon:
                break
            if dead is not None:
                assets.reshape(-1)[dead] = 1.0
                liabilities.reshape(-1)[dead] = 1.0
                ratio.reshape(-1)[dead] = 1.0  # their A/L

            # this year's contribution enters the running sums
            np.divide(cfg.y, cum_credit, out=term)
            np.add(sums[t % (n + 1)], term, out=sums[(t + 1) % (n + 1)])
            account(t + 1, t, out=retiring)

            # this year's draws, one contiguous row of paths per step when the
            # draws are stored time-major, against the policies' columns
            year = normals[:, t * spy : (t + 1) * spy].T[:, None]
            log_ratio = np.log(ratio, out=ratio)
            total = None if year_totals is None else year_totals[t]
            _growth_so_far(year, drift, scale, growth, total)
            _credit_so_far(year, log_ratio, drift, scale, theta_dt, weights, credit, term)

            # the year's recordings (one policy: row 0), NaN on paths dead before it began
            for i in tracked_generations:
                if i - n <= t < i:
                    np.multiply(credit, account(i, t, out=tracked_year[0]), out=tracked_year[1:])
                    lo = 0 if t == i - n else 1  # a newcomer's samples begin at its start
                    _store_year(trajectories[i], tracked_year[lo:, 0], (t - i + n) * spy + lo,
                                dead)
            # the state takes the last rows (recorded samples overwrite them with the next state)
            np.multiply(retiring, credit[-1], out=benefit)
            cum_credit *= credit[-1]
            growth *= assets
            credit *= liabilities
            np.copyto(assets, growth[-1])
            np.copyto(liabilities, credit[-1])
            first = t * spy + 1
            if record_state:
                _store_year(asset_rec, growth[:, 0], first, dead)
                _store_year(liab_rec, credit[:, 0], first, dead)
            if record_funding_ratios:
                # each step's mean over the live paths (A/L overwrites the stored
                # asset): a row sum with the dead paths at 0, or NaN when none is live
                ratio_year = np.divide(growth, credit, out=growth)[:, 0]
                span = mean_ratio[first : first + spy]
                n_live = int(np.count_nonzero(np.isnan(bankrupt_at)))
                if n_live:
                    if dead is not None:
                        ratio_year[:, dead] = 0.0
                    np.add.reduce(ratio_year, axis=1, out=span)
                    span /= n_live
                else:
                    span[:] = np.nan
    finally:
        np.setbufsize(caller_bufsize)  # also when pay raises

    margins = [_solvency_margin(row, row_min) for row, row_min in zip(bankrupt_at, min_ratio)]
    return bankrupt_at, margins, dict(mean_funding_ratio=mean_ratio, assets=asset_rec,
                                      liabilities=liab_rec, account_trajectories=trajectories)
