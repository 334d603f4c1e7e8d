"""Empirical growth-rate checks for the paper's asymptotic claims.

The paper states bounds like ``O(n log n)`` moves or ``O(n / log n)``
agents.  The benches verify these *by shape*: measure the quantity for a
range of dimensions, divide by the candidate growth function, and check the
ratio stabilizes (bounded, non-diverging).  :func:`fit_growth` also
estimates the best exponent pair ``(a, b)`` for a model
``c * n^a * (log2 n)^b`` by least squares in log space, which is how
EXPERIMENTS.md reports "who wins by what factor".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["GrowthFit", "fit_growth", "growth_ratio_table", "is_bounded_ratio"]


@dataclass(frozen=True)
class GrowthFit:
    """Result of fitting ``value ~ c * n^a * (log2 n)^b``.

    Attributes
    ----------
    exponent_n:
        The fitted power ``a`` of ``n``.
    exponent_log:
        The fitted power ``b`` of ``log2 n``.
    constant:
        The fitted multiplicative constant ``c``.
    residual:
        RMS residual in log2 space (goodness of fit; small is good).
    """

    exponent_n: float
    exponent_log: float
    constant: float
    residual: float

    def describe(self) -> str:
        """Human-readable model string."""
        return (
            f"{self.constant:.3g} * n^{self.exponent_n:.3f} "
            f"* (log n)^{self.exponent_log:.3f}  (rms resid {self.residual:.3g})"
        )


def fit_growth(dimensions: Sequence[int], values: Sequence[float]) -> GrowthFit:
    """Least-squares fit of ``values[i] ~ c * n_i^a * (log2 n_i)^b``.

    ``n_i = 2**dimensions[i]``; requires at least three samples with
    ``d >= 2`` so ``log log`` terms are defined and the system is
    determined.
    """
    ds = np.asarray(dimensions, dtype=float)
    vs = np.asarray(values, dtype=float)
    mask = (ds >= 2) & (vs > 0)
    ds, vs = ds[mask], vs[mask]
    if ds.size < 3:
        raise ValueError("need at least three samples with d >= 2 and value > 0")
    # log2(value) = log2(c) + a*d + b*log2(d)
    design = np.column_stack([np.ones_like(ds), ds, np.log2(ds)])
    target = np.log2(vs)
    coeffs, *_ = np.linalg.lstsq(design, target, rcond=None)
    predicted = design @ coeffs
    residual = float(np.sqrt(np.mean((predicted - target) ** 2)))
    return GrowthFit(
        exponent_n=float(coeffs[1]),
        exponent_log=float(coeffs[2]),
        constant=float(2.0 ** coeffs[0]),
        residual=residual,
    )


def growth_ratio_table(
    dimensions: Sequence[int],
    values: Sequence[float],
    reference: Callable[[int], float],
) -> List[Tuple[int, float, float, float]]:
    """Rows ``(d, value, reference(d), value / reference(d))``.

    The benches print these to show e.g. ``moves / (n log n)`` flattening.
    """
    rows = []
    for d, v in zip(dimensions, values):
        ref = float(reference(d))
        rows.append((d, float(v), ref, float(v) / ref if ref else float("nan")))
    return rows


def is_bounded_ratio(
    dimensions: Sequence[int],
    values: Sequence[float],
    reference: Callable[[int], float],
    *,
    tolerance: float = 1.15,
) -> bool:
    """Whether ``value / reference`` is non-diverging over the sample.

    Accepts if the final ratio is at most ``tolerance`` times the maximum
    ratio seen over the *first half* of the sample — i.e. the sequence has
    stopped climbing — a pragmatic check that the measured quantity is
    ``O(reference)`` over the measured range.
    """
    rows = growth_ratio_table(dimensions, values, reference)
    ratios = [r[3] for r in rows if np.isfinite(r[3])]
    if len(ratios) < 2:
        return True
    head = ratios[: max(1, len(ratios) // 2)]
    return ratios[-1] <= tolerance * max(head)


def ratios_to_dict(rows: List[Tuple[int, float, float, float]]) -> Dict[int, float]:
    """Convenience: ``{d: ratio}`` from :func:`growth_ratio_table` rows."""
    return {d: ratio for d, _, _, ratio in rows}
