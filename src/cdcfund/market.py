"""Black-Scholes market calibrations and reproducible per-path normal streams."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MarketParams",
    "MARKET_PRESETS",
    "preset_market",
    "expected_log_return",
    "log_return_increment",
    "growth_factors",
    "RandomStream",
    "normal_matrix",
]


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
    """Drift and draw coefficient of the one-step log-return; raises for
    ``pi < 0`` or ``dt <= 0``."""
    if pi < 0.0:
        raise ValueError(f"short selling is not allowed: pi={pi}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return expected_log_return(mkt, pi) * dt, pi * mkt.sigma * math.sqrt(dt)


def log_return_increment(mkt: MarketParams, pi: float, dt: float, z):
    """Exact log-return of a constant-mix portfolio over one step of length ``dt``.

    ``z`` is a standard-normal draw (scalar or array). The increment is exactly
    Gaussian because the mix is constant, so there is no discretization bias:
    multiplying the portfolio value by ``exp`` of the result advances it one step.

    Raises ValueError for ``pi < 0`` (short positions are not allowed) or
    non-positive ``dt``.
    """
    drift, scale = _increment_coefficients(mkt, pi, dt)
    return drift + scale * z


def growth_factors(
    mkt: MarketParams, pi: float, dt: float, z: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Per-step multiplicative growth factors exp(log-return) for draws ``z``.

    With ``out`` the factors are computed in place in that array (of ``z``'s
    shape), which is returned; the bits equal the allocating form's.
    """
    drift, scale = _increment_coefficients(mkt, pi, dt)
    out = np.multiply(z, scale, out=out)
    out += drift
    return np.exp(out, out=out)


class RandomStream:
    """Reproducible stream of standard-normal draws for one simulated path.

    The pair ``(seed, path_index)`` fully determines the draw sequence, and
    distinct path indices give statistically independent streams: the pair is
    used directly as the key of a counter-based Philox generator, so streams
    can be created and consumed independently (and on different threads).
    """

    def __init__(self, seed: int, path_index: int = 0):
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        if not 0 <= path_index < 2**64:
            raise ValueError(f"path_index must fit in 64 bits, got {path_index}")
        self.seed = seed
        self.path_index = path_index
        key = np.array([seed, path_index], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def normals(self, n: int) -> np.ndarray:
        """Draw the next ``n`` standard normals from the stream."""
        return self._gen.standard_normal(n)

    def generator(self) -> np.random.Generator:
        """Expose the underlying generator (for uniform draws etc.)."""
        return self._gen


# Small cache of draw matrices: optimizer loops re-evaluate many candidate
# policies under common random numbers, i.e. the same (seed, n_paths, n_steps).
_MATRIX_CACHE: dict[tuple[int, int, int], np.ndarray] = {}
_MATRIX_CACHE_MAX = 4

# paths generated per block before the block is transposed into place; one
# block of monthly draws over 100 years (32 x 1200 x 8 bytes) fits in L2
_PATH_BLOCK = 32


def normal_matrix(seed: int, n_paths: int, n_steps: int) -> np.ndarray:
    """Standard-normal draws for ``n_paths`` independent path streams.

    Row ``p`` holds the first ``n_steps`` draws of ``RandomStream(seed, p)``,
    so batched and single-path simulations consume bit-identical numbers.
    Storage is time-major: the result is the transpose of a C-contiguous
    ``(n_steps, n_paths)`` array, so the draws of one step across all paths
    (``out[:, step]``) are contiguous. The returned array is cached and
    read-only.
    """
    key = (seed, n_paths, n_steps)
    cached = _MATRIX_CACHE.get(key)
    if cached is not None:
        return cached
    out = np.empty((n_steps, n_paths))
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
            key_p = np.array([seed, start + j], dtype=np.uint64)
            state["state"] = {"counter": counter, "key": key_p}
            bitgen.state = state
            gen.standard_normal(out=row)
        out[:, start : start + len(rows)] = rows.T
    out.setflags(write=False)
    out = out.T
    if len(_MATRIX_CACHE) >= _MATRIX_CACHE_MAX:
        _MATRIX_CACHE.pop(next(iter(_MATRIX_CACHE)))
    _MATRIX_CACHE[key] = out
    return out
