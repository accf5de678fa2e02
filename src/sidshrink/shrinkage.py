"""Singular-value shrinkage for a low-rank matrix observed in white noise.

Model: Y = X + sigma * W with W an i x j standard normal matrix, i <= j,
beta = i / j. Provides the asymptotically calibrated hard and soft
thresholds, the asymptotically optimal Frobenius shrinker, and an unbiased
risk estimate (SURE) for soft thresholding together with its exact
piecewise-quadratic minimiser.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids an import cycle
    from .estimation import WeightedSvd, WeightPair

__all__ = [
    "METHODS",
    "ShrinkageContext",
    "make_context",
    "threshold_values",
    "soft_threshold_level",
    "shrink_values",
    "sure_risk",
    "sure_select",
    "shrink_estimate",
]

METHODS = ("hard", "soft", "optimal", "sure")

@dataclass(frozen=True)
class ShrinkageContext:
    """Shape and noise level of the weighted matrix being denoised, with
    i <= j its smaller and larger dimension."""

    i: int
    j: int
    beta: float
    sigma: float

    def __post_init__(self):
        if not 1 <= self.i <= self.j:
            raise ValueError("need 1 <= i <= j")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")


def make_context(shape: tuple[int, int], sigma: float) -> ShrinkageContext:
    i, j = sorted(shape)
    return ShrinkageContext(i=i, j=j, beta=i / j, sigma=sigma)


def soft_threshold_level(i: int, j: int, sigma: float) -> float:
    """Bulk-edge soft threshold (1 + sqrt(beta)) sigma sqrt(j)."""
    beta = i / j
    return (1.0 + math.sqrt(beta)) * sigma * math.sqrt(j)


def threshold_values(ctx: ShrinkageContext) -> tuple[float, float]:
    """(hard, soft) threshold levels for the context.

    hard = sqrt(2(beta+1) + 8 beta / (beta + 1 + sqrt(beta^2 + 14 beta + 1)))
           * sigma * sqrt(j)
    soft = (1 + sqrt(beta)) * sigma * sqrt(j)
    """
    beta = ctx.beta
    lam_hard = math.sqrt(
        2.0 * (beta + 1.0)
        + 8.0 * beta / (beta + 1.0 + math.sqrt(beta * beta + 14.0 * beta + 1.0))
    ) * ctx.sigma * math.sqrt(ctx.j)
    lam_soft = soft_threshold_level(ctx.i, ctx.j, ctx.sigma)
    return lam_hard, lam_soft


def shrink_values(s, ctx: ShrinkageContext, method: str) -> np.ndarray:
    """Apply one shrinkage rule to a descending singular-value vector."""
    s = np.asarray(s, dtype=float)
    lam_hard, lam_soft = threshold_values(ctx)
    if method == "hard":
        return np.where(s > lam_hard, s, 0.0)
    if method == "soft":
        return np.clip(s - lam_soft, 0.0, None)
    if method == "optimal":
        out = np.zeros_like(s)
        mask = s > lam_soft
        t = s[mask]
        shift = t * t - (1.0 + ctx.beta) * ctx.sigma ** 2 * ctx.j
        radicand = shift * shift - 4.0 * ctx.beta * ctx.sigma ** 4 * ctx.j ** 2
        # exactly at the bulk edge the radicand is zero; clip rounding noise
        out[mask] = np.sqrt(np.clip(radicand, 0.0, None)) / t
        return out
    if method == "sure":
        lam = sure_select(s, ctx.sigma, ctx.i, ctx.j)
        return np.clip(s - lam, 0.0, None)
    raise ValueError(f"unknown shrinkage method {method!r}")


def _check_sizes(s: np.ndarray, i: int, j: int) -> None:
    if s.size != i:
        raise ValueError("length of s must equal i")
    if i > j:
        raise ValueError("need i <= j")


@functools.lru_cache(maxsize=None)
def _piece_masks(n: int, i: int) -> tuple[np.ndarray, np.ndarray]:
    """For k = 0..n: [a < k] over a = 0..n-1, and [b >= k] over b = 0..i-1."""
    before = np.triu(np.ones((n, n + 1), dtype=bool), 1)
    from_k = np.tril(np.ones((i, n + 1)))
    for mask in (before, from_k):
        mask.setflags(write=False)  # shared by every call with these sizes
    return before, from_k


def _piece_sums(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums that fix the unbiased risk on the piece where the k largest
    positive values t of s are active, for k = 0..len(t).

    With t and all values s_b in descending order, returns t ascending and
    the rows, indexed by k,

        inv[k]      = sum_{a<k} 1/t_a
        pair[k]     = sum_{a<b<k} 1/(t_a + t_b)
        cross_m[k]  = sum_{a<k<=b} t_a^m / (t_a^2 - s_b^2),  m = 1, 2
        tail[k]     = sum_{b>=k} s_b^2

    An active pair's two divided differences sum exactly to
    1 - lam/(t_a + t_b), and an active t_a exceeds every inactive s_b, so no
    term divides by a near-zero gap. cross is exact only at the k that keep
    tied values together, the only k a threshold selects.
    """
    s_desc = np.sort(s)[::-1]
    t = s_desc[:np.count_nonzero(s_desc > 0)]
    n = t.size
    before, from_k = _piece_masks(n, s.size)
    t2 = t * t
    gap = t2[:, None] - s_desc ** 2
    inv_gap = np.divide(1.0, gap, out=np.zeros_like(gap), where=gap > 0)
    pair = np.sum(1.0 / (t[:, None] + t), axis=0, where=before[:, :n])
    sums = np.empty((5, n + 1))
    sums[:2] = np.array([1.0 / t, pair]) @ before
    sums[2:4] = np.array([t, t2]) @ np.where(before, inv_gap @ from_k, 0.0)
    sums[4] = t2 @ from_k[:n]
    return t[::-1], sums


def _piece_risk(ascending: np.ndarray, sums: np.ndarray, lam, sigma: float, i: int, j: int):
    """Unbiased risk of soft thresholding at each level in lam."""
    k = ascending.size - np.searchsorted(ascending, lam, side="right")
    inv, pair, cross_1, cross_2, tail = sums[:, k]
    # k self terms, and each active pair twice (divergence of the SVD map):
    # the Monte Carlo unbiasedness oracle rejects the single-count reading
    div = ((j - i) * (k - lam * inv) + k * k - 2.0 * lam * pair
           + 2.0 * (cross_2 - lam * cross_1))
    return -i * j * sigma * sigma + k * lam * lam + tail + 2.0 * sigma * sigma * div


def sure_risk(s, lam: float, sigma: float, i: int, j: int) -> float:
    """Unbiased risk estimate of soft thresholding at level lam.

    s is the descending singular-value vector of the observed matrix
    (length i, i <= j). Zero singular values are never active, but they
    enter the divided differences of the active ones.
    """
    s = np.asarray(s, dtype=float)
    _check_sizes(s, i, j)
    return float(_piece_risk(*_piece_sums(s), lam, sigma, i, j))


def sure_select(s, sigma: float, i: int, j: int) -> float:
    """Exact minimiser of the unbiased risk over lam in [0, s_1].

    The risk is piecewise quadratic with breakpoints at the singular
    values; the minimiser is found from the breakpoints plus the interior
    stationary point of each piece. Ties resolve toward the larger lam.
    A lam keeps the k values above it active, so the stationary points and
    the risk at every candidate come from the sums of `_piece_sums`.
    """
    s = np.asarray(s, dtype=float)
    if float(s.max(initial=0.0)) <= 0.0:
        return 0.0
    _check_sizes(s, i, j)
    ascending, sums = _piece_sums(s)
    knots = np.unique(ascending)
    lo = np.concatenate([[0.0], knots[:-1]])
    # on the piece (lo, hi) the active values are those >= hi
    count = ascending.size - np.searchsorted(ascending, knots, side="left")
    inv, pair, cross_1 = sums[:3, count]
    lam_star = sigma * sigma * ((j - i) * inv + 2.0 * (pair + cross_1)) / count
    inside = (lo < lam_star) & (lam_star < knots)
    lam = np.sort(np.concatenate([[0.0], knots, lam_star[inside]]))
    risk = _piece_risk(ascending, sums, lam, sigma, i, j)
    return float(lam[np.flatnonzero(risk == risk.min())[-1]])


def shrink_estimate(estimate: "WeightedSvd | np.ndarray", weights: "WeightPair",
                    sigma_level: float, method: str) -> np.ndarray:
    """Shrink the singular values of the weighted estimate and map back to
    original coordinates. The thresholds take the estimate's noise-model
    shape. A raw estimate is factored first."""
    if isinstance(estimate, np.ndarray):
        from .estimation import weighted_svd  # estimation imports this module
        estimate = weighted_svd(estimate, weights)
    ctx = make_context(estimate.shape, sigma_level)
    s_shr = shrink_values(estimate.values, ctx, method)
    return weights.unapply((estimate.u * s_shr) @ estimate.vt)
