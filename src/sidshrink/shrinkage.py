"""Singular-value shrinkage for a low-rank matrix observed in white noise.

Model: Y = X + sigma * W with W an i x j standard normal matrix, i <= j,
beta = i / j. Provides the asymptotically calibrated hard and soft
thresholds, the asymptotically optimal Frobenius shrinker, and an unbiased
risk estimate (SURE) for soft thresholding together with its exact
piecewise-quadratic minimiser.
"""
from __future__ import annotations

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

# relative gap below which squared singular values count as degenerate
_DEGENERATE_REL = 1e-12
_JITTER_REL = 1e-9


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


def _deduped(s: np.ndarray) -> np.ndarray:
    """Break near-degenerate squared singular-value gaps with a tiny
    deterministic relative jitter, so the divided differences in the risk
    formula stay finite. Ties among zero squares are left alone (no divided
    difference pairs them), so a second call returns its input."""
    s2 = s * s
    diff = np.abs(s2[:, None] - s2[None, :])
    thresh = _DEGENERATE_REL * np.maximum(s2[:, None], s2[None, :])
    np.fill_diagonal(diff, np.inf)
    if np.any((diff < np.maximum(thresh, np.finfo(float).tiny)) & (thresh > 0)):
        return s * (1.0 + _JITTER_REL * np.arange(s.size))
    return s


def _check_sizes(s: np.ndarray, i: int, j: int) -> None:
    if s.size != i:
        raise ValueError("length of s must equal i")
    if i > j:
        raise ValueError("need i <= j")


def sure_risk(s, lam: float, sigma: float, i: int, j: int) -> float:
    """Unbiased risk estimate of soft thresholding at level lam.

    s is the descending singular-value vector of the observed matrix
    (length i, i <= j). Zero singular values contribute nothing to the
    divergence terms.
    """
    s = _deduped(np.asarray(s, dtype=float))
    _check_sizes(s, i, j)
    value = -i * j * sigma * sigma + float(np.sum(np.minimum(lam * lam, s * s)))
    active = s > lam
    if not np.any(active):
        return value
    t = s[active]
    div = (j - i) * float(np.sum(1.0 - lam / t)) + int(np.sum(active))
    s2 = s * s
    t2 = t * t
    denom = t2[:, None] - s2[None, :]
    # skip the self pair; zero singular values still appear in the sum
    mask = np.abs(denom) > 0
    cross = np.where(mask, 1.0 / np.where(mask, denom, 1.0), 0.0)
    self_idx = np.nonzero(active)[0]
    cross[np.arange(t.size), self_idx] = 0.0
    # the pair sum carries multiplicity two (divergence of the SVD map);
    # the Monte Carlo unbiasedness oracle rejects the single-count reading
    div += 2.0 * float(np.sum(t[:, None] * (t - lam)[:, None] * cross))
    return value + 2.0 * sigma * sigma * div


def _active_sums(s: np.ndarray):
    """Sums over the k largest positive values t of s, for k = 0..len(t).

    Returns (t ascending, sum 1/t, sum t c, sum t^2 c, sum of t^2 over the
    values left out), each sum indexed by k, where
    c_a = sum_b 1/(s_a^2 - s_b^2) over the b with s_b^2 != s_a^2 does not
    depend on the threshold.
    """
    s2 = s * s
    gap = s2[:, None] - s2[None, :]
    nonzero = gap != 0
    c = np.where(nonzero, 1.0 / np.where(nonzero, gap, 1.0), 0.0).sum(axis=1)
    order = np.argsort(-s, kind="stable")[:np.count_nonzero(s > 0)]
    t, tc = s[order], s[order] * c[order]
    inv_sum = np.concatenate([[0.0], np.cumsum(1.0 / t)])
    tc_sum = np.concatenate([[0.0], np.cumsum(tc)])
    t2c_sum = np.concatenate([[0.0], np.cumsum(t * tc)])
    tail_sq = np.concatenate([np.cumsum(t[::-1] ** 2)[::-1], [0.0]])
    return t[::-1], inv_sum, tc_sum, t2c_sum, tail_sq


def sure_select(s, sigma: float, i: int, j: int) -> float:
    """Exact minimiser of the unbiased risk over lam in [0, s_1].

    The risk is piecewise quadratic with breakpoints at the singular
    values; the minimiser is found from the breakpoints plus the interior
    stationary point of each piece. Ties resolve toward the larger lam.
    A lam keeps the k values above it active, so the stationary points and
    the risk at every candidate come from prefix sums over the values in
    descending order.
    """
    s = _deduped(np.asarray(s, dtype=float))
    s_max = float(s.max(initial=0.0))
    if s_max <= 0.0:
        return 0.0
    _check_sizes(s, i, j)
    ascending, inv_sum, tc_sum, t2c_sum, tail_sq = _active_sums(s)
    knots = np.unique(ascending)
    lo = np.concatenate([[0.0], knots[:-1]])
    # on the piece (lo, hi) the active values are those >= hi
    count = ascending.size - np.searchsorted(ascending, knots, side="left")
    lam_star = sigma * sigma * ((j - i) * inv_sum[count] + 2.0 * tc_sum[count]) / count
    inside = (lo < lam_star) & (lam_star < knots)
    lam = np.sort(np.concatenate([[0.0], knots, lam_star[inside]]))
    k = ascending.size - np.searchsorted(ascending, lam, side="right")
    div = ((j - i) * (k - lam * inv_sum[k]) + k
           + 2.0 * (t2c_sum[k] - lam * tc_sum[k]))
    risk = -i * j * sigma * sigma + k * lam * lam + tail_sq[k] + 2.0 * sigma * sigma * div
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
    s_shr = shrink_values(estimate.s, ctx, method)
    return weights.unapply((estimate.u * s_shr) @ estimate.vt)
