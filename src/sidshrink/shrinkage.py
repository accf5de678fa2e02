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
        return np.maximum(s - lam_soft, 0.0)
    if method == "optimal":
        out = np.zeros_like(s)
        mask = s > lam_soft
        t = s[mask]
        shift = t * t - (1.0 + ctx.beta) * ctx.sigma ** 2 * ctx.j
        radicand = shift * shift - 4.0 * ctx.beta * ctx.sigma ** 4 * ctx.j ** 2
        # exactly at the bulk edge the radicand is zero; clip rounding noise
        out[mask] = np.sqrt(np.maximum(radicand, 0.0)) / t
        return out
    if method == "sure":
        lam = sure_select(s, ctx.sigma, ctx.i, ctx.j)
        return np.maximum(s - lam, 0.0)
    raise ValueError(f"unknown shrinkage method {method!r}")


def _check_sizes(s: np.ndarray, i: int, j: int) -> None:
    if s.size != i:
        raise ValueError("length of s must equal i")
    if i > j:
        raise ValueError("need i <= j")


@functools.lru_cache(maxsize=None)
def _piece_masks(n: int, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For k = 0..n: [a < k] over a = 0..n-1, [b >= k] over b = 0..i-1, and
    k itself."""
    before = np.triu(np.ones((n, n + 1)), 1)
    from_k = np.tril(np.ones((i, n + 1)))
    k = np.arange(n + 1.0)
    for mask in (before, from_k, k):
        mask.setflags(write=False)  # shared by every call with these sizes
    return before, from_k, k


def _piece_quadratics(s: np.ndarray, sigma: float, i: int, j: int):
    """The unbiased risk of soft thresholding on the piece where the k
    largest positive values t of s are active, k = 0..len(t):

        R_k(lam) = k lam^2 - 2 sigma^2 b_k lam + c_k,
        b_k = (j - i) inv_k + 2 (pair_k + cross_1[k]),
        c_k = -i j sigma^2 + tail_k + 2 sigma^2 ((j - i) k + k^2 + 2 cross_2[k]),

    with t and all values s_b in descending order and

        inv_k       = sum_{a<k} 1/t_a
        pair_k      = sum_{a<b<k} 1/(t_a + t_b)
        cross_m[k]  = sum_{a<k<=b} t_a^m / (t_a^2 - s_b^2),  m = 1, 2
        tail_k      = sum_{b>=k} s_b^2.

    The divergence of the SVD map counts k self terms and each active pair
    twice (the Monte Carlo unbiasedness oracle rejects the single-count
    reading); an active pair's two divided differences sum exactly to
    1 - lam/(t_a + t_b), and an active t_a exceeds every inactive s_b, so no
    term divides by a near-zero gap. cross is exact only at the k that keep
    tied values together, the only k a threshold selects. 2 pair_k is the
    sum of 1/(t_a + t_b) over all a, b < k less the k diagonal terms
    1/(2 t_a). Returns s in descending order, b and c.
    """
    s_desc = np.sort(s)[::-1]
    n = int(np.count_nonzero(s_desc > 0))
    before, from_k, k = _piece_masks(n, s.size)
    powers = np.empty((2, s.size))
    powers[0] = s_desc
    np.multiply(s_desc, s_desc, out=powers[1])
    t, t2 = powers[:, :n]
    gap = t2[:, None] - powers[1]
    gap[gap <= 0.0] = np.inf   # no inactive s_b at or above t_a
    cross = powers[:, :n] @ ((1.0 / gap) @ from_k * before)
    pairs = ((1.0 / (t[:, None] + t)) @ before * before).sum(0)
    b = ((j - i - 0.5) / t) @ before + pairs + 2.0 * cross[0]
    var = sigma * sigma
    c = t2 @ from_k[:n] + 2.0 * var * ((j - i + k) * k + 2.0 * cross[1]) - i * j * var
    return s_desc, b, c


def sure_risk(s, lam: float, sigma: float, i: int, j: int) -> float:
    """Unbiased risk estimate of soft thresholding at level lam.

    s is the singular-value vector of the observed matrix (length i,
    i <= j). Zero singular values are never active, but they enter the
    divided differences of the active ones.
    """
    s = np.asarray(s, dtype=float)
    _check_sizes(s, i, j)
    s_desc, b, c = _piece_quadratics(s, sigma, i, j)
    k = int(np.count_nonzero(s_desc[:b.size - 1] > lam))
    return float((k * lam - 2.0 * sigma * sigma * b[k]) * lam + c[k])


def sure_select(s, sigma: float, i: int, j: int) -> float:
    """Exact minimiser of the unbiased risk over lam in [0, s_1].

    The risk is piecewise quadratic with breakpoints at the singular
    values (_piece_quadratics), and jumps up to the left of each, so on the
    piece [t_k, t_(k-1)) where k values are active it is least at t_k or at
    the stationary point sigma^2 b_k / k when that lies inside; lam = s_1
    leaves no value active. Every candidate is scored from its own piece's
    quadratic, and ties resolve toward the larger lam.
    """
    s = np.asarray(s, dtype=float)
    if float(s.max(initial=0.0)) <= 0.0:
        return 0.0
    _check_sizes(s, i, j)
    s_desc, b, c = _piece_quadratics(s, sigma, i, j)
    n = b.size - 1
    k = _piece_masks(n, i)[2][1:]
    hi = s_desc[:n]
    # row 0: each piece's closed end t_k (0 past the last positive value);
    # row 1: its stationary point, moved to the nearer end when outside, so
    # it repeats t_k or gives the left limit at t_(k-1), 2 sigma^2 above the
    # risk there: neither changes the choice
    lam = np.zeros((2, n))
    lam[0, :min(n, i - 1)] = s_desc[1:n + 1]
    lo = lam[0]
    var_b = sigma * sigma * b[1:]
    np.minimum(np.maximum(var_b / k, lo), hi, out=lam[1])
    risk = (k * lam - 2.0 * var_b) * lam + c[1:]
    risk[:, lo == hi] = np.inf   # an empty piece between tied values
    best = risk.min()
    if c[0] <= best:
        return float(s_desc[0])
    return float(lam[risk == best].max())


def shrink_estimate(estimate: "WeightedSvd | np.ndarray", weights: "WeightPair",
                    sigma_level: float, method: str) -> np.ndarray:
    """Shrink the singular values of the weighted estimate and map back to
    original coordinates. The thresholds take the estimate's noise-model
    shape. A raw estimate is factored first. An estimate whose values all
    shrink to zero is the zero matrix, formed directly."""
    if isinstance(estimate, np.ndarray):
        from .estimation import weighted_svd  # estimation imports this module
        estimate = weighted_svd(estimate, weights)
    ctx = make_context(estimate.shape, sigma_level)
    s_shr = shrink_values(estimate.values, ctx, method)
    if not s_shr.any():   # every value shrunk to zero: no products to form
        return np.zeros((weights.w1_inv.shape[0], weights.w2_pinv.shape[1]))
    return weights.unapply((estimate.u * s_shr) @ estimate.vt)
