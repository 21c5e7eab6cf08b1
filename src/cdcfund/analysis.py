"""Welfare statistics over simulated batches.

Path-smoothness (increment-ratio roughness), nearest-rank benefit quantiles,
per-generation certainty equivalents and left-tail empirical CDFs. All
reductions are pure functions over arrays; plan comparisons are paired (fund
and benchmark share the same market draws).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .objective import certainty_equivalent, crra_utility

__all__ = [
    "ir_roughness_batch",
    "benefit_quantile",
    "generation_ce",
    "WelfareRow",
    "welfare_rows",
    "tail_cdf_points",
]

_ROUGHNESS_BLOCK = 32  # rows per block: bounds the temporaries of a long path matrix


def ir_roughness_batch(paths: np.ndarray) -> np.ndarray:
    """Increment-ratio roughness of each row of a path matrix, in [0, 1].

    Mean over consecutive increment pairs of ``|d1 + d2| / (|d1| + |d2|)``:
    1 for a monotone path, 0 for a perfectly alternating one. Pairs where
    both increments are zero are skipped; a row containing NaN, or with no
    pair left, gives NaN.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim != 2 or paths.shape[1] < 3:
        raise ValueError(f"need (n_paths, >=3) matrix, got shape {paths.shape}")
    out = np.full(len(paths), np.nan)  # rows with a NaN or no pair left keep it
    for start in range(0, len(paths), _ROUGHNESS_BLOCK):
        rows = slice(start, start + _ROUGHNESS_BLOCK)
        block = np.ascontiguousarray(paths[rows])  # row sums in one order, whatever the layout
        d = np.diff(block, axis=1)
        d1, d2 = d[:, :-1], d[:, 1:]
        denom = np.abs(d1) + np.abs(d2)
        num = np.abs(d1 + d2)
        keep = denom > 0.0
        sums = np.divide(num, denom, out=np.zeros_like(num), where=keep).sum(axis=1)
        counts = keep.sum(axis=1)
        live = (counts > 0) & ~np.isnan(block).any(axis=1)
        np.divide(sums, counts, out=out[rows], where=live)
    return out


def benefit_quantile(values, q: float) -> float:
    """Nearest-rank empirical quantile; unpaid (NaN) benefits count as zero.

    The result is always one of the observed sample values.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("empty sample")
    v = np.where(np.isnan(v), 0.0, v)
    v = np.sort(v)
    rank = int(np.ceil(q * v.size))
    return float(v[max(rank, 1) - 1])


def generation_ce(cdc_benefits, idc_benefits, gamma: float) -> tuple[float | None, float]:
    """Certainty equivalents of one generation's benefits under both plans.

    Unpaid fund benefits (bankrupt paths, NaN) make the fund-side certainty
    equivalent undefined for ``gamma >= 1`` and are reported as None; for
    ``gamma < 1`` they enter as zero benefit (zero utility).
    """
    cdc = np.asarray(cdc_benefits, dtype=float)
    idc = np.asarray(idc_benefits, dtype=float)
    ce_idc = certainty_equivalent(float(np.mean(crra_utility(idc, gamma))), gamma)
    unpaid = np.isnan(cdc) | (cdc <= 0.0)
    if unpaid.any():
        if gamma >= 1.0:
            return None, ce_idc
        eu = float(np.sum(crra_utility(cdc[~unpaid], gamma)) / cdc.size) if (~unpaid).any() else 0.0
        if eu == 0.0:
            return 0.0, ce_idc
        return certainty_equivalent(eu, gamma), ce_idc
    ce_cdc = certainty_equivalent(float(np.mean(crra_utility(cdc, gamma))), gamma)
    return ce_cdc, ce_idc


@dataclass(frozen=True)
class WelfareRow:
    """Per-generation, per-plan summary cell of the welfare table."""

    generation: int
    plan: str
    median: float
    q01: float
    ce: float | None


def welfare_rows(
    cdc_benefits_by_generation: dict[int, np.ndarray],
    idc_benefits_by_generation: dict[int, np.ndarray],
    gamma: float,
    q: float = 0.01,
) -> list[WelfareRow]:
    """Assemble the paired welfare table over the common generations."""
    rows = []
    for i in sorted(set(cdc_benefits_by_generation) & set(idc_benefits_by_generation)):
        cdc = cdc_benefits_by_generation[i]
        idc = idc_benefits_by_generation[i]
        ce_cdc, ce_idc = generation_ce(cdc, idc, gamma)
        rows.append(
            WelfareRow(i, "CDC", benefit_quantile(cdc, 0.5), benefit_quantile(cdc, q), ce_cdc)
        )
        rows.append(
            WelfareRow(i, "IDC", benefit_quantile(idc, 0.5), benefit_quantile(idc, q), ce_idc)
        )
    return rows


def tail_cdf_points(values, max_cdf: float = 0.10) -> np.ndarray:
    """Left-tail points (benefit, empirical CDF) up to cumulative mass ``max_cdf``.

    Unpaid benefits count as zero, consistent with the quantile convention.
    """
    if not 0.0 < max_cdf <= 1.0:
        raise ValueError(f"max_cdf must lie in (0, 1], got {max_cdf}")
    v = np.asarray(values, dtype=float)
    v = np.where(np.isnan(v), 0.0, v)
    v = np.sort(v)
    n = v.size
    k = max(int(np.ceil(max_cdf * n)), 1)
    ranks = np.arange(1, k + 1) / n
    return np.column_stack([v[:k], ranks])
