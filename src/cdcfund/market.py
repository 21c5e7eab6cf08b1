"""Black-Scholes market calibrations and reproducible per-path normal streams."""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MarketParams",
    "MARKET_PRESETS",
    "preset_market",
    "expected_log_return",
    "RandomStream",
    "normal_matrix",
]


def _check_integer(name: str, value) -> None:
    """Raise a ``ValueError`` that begins with ``name`` unless ``value`` is an
    integer (not a bool, and not a float however integral)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_uint64(name: str, value) -> None:
    """Raise a ``ValueError`` that begins with ``name`` unless ``value`` is an
    integer that fits in 64 unsigned bits, as a seed or stream key must."""
    _check_integer(name, value)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must fit in 64 bits, got {value}")


@dataclass(frozen=True)
class MarketParams:
    """Constant-coefficient market with one risk-free and one risky asset.

    All rates are annual: ``mu`` is the risky drift, ``r`` the risk-free rate,
    ``sigma`` the risky volatility per sqrt-year.
    """

    mu: float
    r: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("mu", "r", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        # Boundary cases r == 0 and mu == r are tolerated for analytic checks;
        # the shipped presets all satisfy mu > r > 0.
        if not self.mu >= self.r >= 0.0:
            raise ValueError(f"expected mu >= r >= 0, got mu={self.mu}, r={self.r}")


MARKET_PRESETS: dict[str, MarketParams] = {
    "M1": MarketParams(mu=0.065, r=0.02, sigma=0.15),
    "M2": MarketParams(mu=0.065, r=0.01, sigma=0.25),
    "M3": MarketParams(mu=0.065, r=0.01, sigma=0.50),
}


def preset_market(name: str) -> MarketParams:
    """Return one of the named market calibrations M1, M2 or M3."""
    try:
        return MARKET_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown market preset {name!r}; expected one of {sorted(MARKET_PRESETS)}"
        ) from None


def expected_log_return(mkt: MarketParams, pi: float) -> float:
    """Expected log-return per year of a constant-mix portfolio.

    For a fraction ``pi`` held in the risky asset this is
    ``pi*(mu - r) + r - pi**2 * sigma**2 / 2``.
    """
    return pi * (mkt.mu - mkt.r) + mkt.r - 0.5 * pi * pi * mkt.sigma * mkt.sigma


def _increment_coefficients(mkt: MarketParams, pi: float, dt: float) -> tuple[float, float]:
    """Drift and draw coefficient of the exact one-step log-return ``drift +
    scale * z`` at a validated ``dt``; raises unless ``pi`` is finite and >= 0."""
    if not math.isfinite(pi):
        raise ValueError(f"pi must be finite, got {pi}")
    if pi < 0.0:
        raise ValueError(f"pi must be >= 0 (short selling is not allowed), got {pi}")
    return expected_log_return(mkt, pi) * dt, pi * mkt.sigma * math.sqrt(dt)


class RandomStream:
    """Reproducible stream of standard-normal draws for one simulated path.

    The pair ``(seed, path_index)`` fully determines the draw sequence, and
    distinct path indices give statistically independent streams: the pair is
    used directly as the key of a counter-based Philox generator, so streams
    can be created and consumed independently (and on different threads).
    """

    def __init__(self, seed: int, path_index: int = 0):
        _check_uint64("seed", seed)
        _check_uint64("path_index", path_index)
        key = np.array([seed, path_index], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def normals(self, n: int) -> np.ndarray:
        """Draw the next ``n`` standard normals from the stream."""
        return self._gen.standard_normal(n)

    def generator(self) -> np.random.Generator:
        """Expose the underlying generator (for uniform draws etc.)."""
        return self._gen


# paths generated per block before the block is transposed into place; one
# block of monthly draws over 100 years (32 x 1200 x 8 bytes) fits in L2
_PATH_BLOCK = 32


def normal_matrix(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """Standard-normal draws for ``n_paths`` independent path streams.

    Row ``p`` holds the first ``n_steps`` draws of ``RandomStream(seed, p)``,
    so batched and single-path simulations consume bit-identical numbers.
    Storage is time-major: the result is the transpose of a C-contiguous
    ``(n_steps, n_paths)`` array, so the draws of one step across all paths
    (``out[:, step]``) are contiguous. The paths are split into one
    contiguous range per CPU of this process's affinity mask (at most one
    per path), each filled by its own thread: a path's draws depend only on
    ``(seed, p)``, so the bits do not depend on the CPU count. Every call
    generates a new read-only array; callers that score many policies on
    the same draws in this process keep it (an
    :class:`~cdcfund.objective.ObjectiveSpec` owns its matrix).
    :func:`~cdcfund.objective.evaluate_policies` never generates it: each
    block of paths is drawn where it is scored, by :func:`_normal_rows`.
    """
    _check_integer("n_paths", n_paths)
    _check_integer("n_steps", n_steps)
    if n_paths < 1:
        raise ValueError(f"n_paths must be at least 1, got {n_paths}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    out = np.empty((n_steps, n_paths))
    threads = min(_usable_cpus(), n_paths)
    if threads < 2:
        _fill_rows(seed, 0, out)
    else:
        from concurrent.futures import ThreadPoolExecutor

        bounds = [n_paths * k // threads for k in range(threads + 1)]
        with ThreadPoolExecutor(threads) as pool:
            # list() re-raises a thread's exception here
            list(pool.map(lambda lo, hi: _fill_rows(seed, lo, out[:, lo:hi]), bounds, bounds[1:]))
    out.setflags(write=False)
    return out.T


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask, or 1 where there is none."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _normal_rows(seed: int, lo: int, hi: int, n_steps: int) -> np.ndarray:
    """Rows ``lo .. hi-1`` of ``normal_matrix(seed, n_paths, n_steps)`` for
    any ``n_paths >= hi``, in the same time-major layout: row ``p - lo`` is
    stream ``(seed, p)``, so a block of paths can be drawn where it is used."""
    out = np.empty((n_steps, hi - lo))
    _fill_rows(seed, lo, out)
    out.setflags(write=False)
    return out.T


def _fill_rows(seed: int, lo: int, out: np.ndarray) -> None:
    """Fill column ``j`` of the ``(n_steps, k)`` array ``out`` with the first
    ``n_steps`` draws of stream ``(seed, lo + j)``. Each call uses its own
    generator, so calls on disjoint columns may run on different threads."""
    n_steps, n_paths = out.shape
    # one Philox generator re-keyed to (seed, p) at counter 0 for each path
    # gives the same draws as a fresh RandomStream(seed, p)
    gen = RandomStream(seed).generator()
    bitgen = gen.bit_generator
    state = bitgen.state
    counter = np.zeros(4, dtype=np.uint64)
    block = np.empty((min(_PATH_BLOCK, n_paths), n_steps))
    for start in range(0, n_paths, _PATH_BLOCK):
        rows = block[: min(_PATH_BLOCK, n_paths - start)]
        for j, row in enumerate(rows):
            key_p = np.array([seed, lo + start + j], dtype=np.uint64)
            state["state"] = {"counter": counter, "key": key_p}
            bitgen.state = state
            gen.standard_normal(out=row)
        out[:, start : start + len(rows)] = rows.T
