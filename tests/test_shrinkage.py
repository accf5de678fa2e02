import math

import hypothesis
import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest

from sidshrink.shrinkage import (
    make_context,
    shrink_estimate,
    shrink_values,
    soft_threshold_level,
    sure_risk,
    sure_select,
    threshold_values,
)
from sidshrink.estimation import HankelData, build_weights, estimate_noise, ls_estimate

METHODS = ("hard", "soft", "optimal", "sure")


def _ctx(i, j, sigma):
    return make_context((i, j), sigma)


# ------------------------------------------------------------- thresholds

def test_threshold_square_case_hand_values():
    # beta = 1, sigma = 1, j = 4: soft edge (1+1)*2 = 4,
    # hard edge sqrt(2*2 + 8/(2 + 4)) * 2 = sqrt(16/3) * 2
    lam_hard, lam_soft = threshold_values(_ctx(4, 4, 1.0))
    assert lam_soft == pytest.approx(4.0, rel=1e-12)
    assert lam_hard == pytest.approx(np.sqrt(16.0 / 3.0) * 2.0, rel=1e-12)


def test_threshold_high_precision_reference():
    # re-evaluate both closed forms at 50 digits
    i, j, sigma = 3, 12, 2.0  # beta = 0.25
    lam_hard, lam_soft = threshold_values(_ctx(i, j, sigma))
    mpmath.mp.dps = 50
    beta = mpmath.mpf(i) / j
    sj = mpmath.mpf(sigma) * mpmath.sqrt(j)
    soft_ref = (1 + mpmath.sqrt(beta)) * sj
    hard_ref = mpmath.sqrt(2 * (beta + 1)
                           + 8 * beta / (beta + 1 + mpmath.sqrt(beta**2 + 14 * beta + 1))) * sj
    assert lam_soft == pytest.approx(float(soft_ref), rel=1e-12)
    assert lam_hard == pytest.approx(float(hard_ref), rel=1e-12)
    assert lam_hard > lam_soft


def test_optimal_shrinker_hand_value():
    # beta = 1, sigma = 1, j = 100, s = 25:
    # eta = sqrt((625 - 200)^2 - 4*100^2) / 25 = 375 / 25 = 15
    out = shrink_values([25.0], _ctx(100, 100, 1.0), "optimal")
    assert out[0] == pytest.approx(15.0, rel=1e-12)


def test_soft_threshold_level_helper():
    assert soft_threshold_level(4, 4, 1.0) == pytest.approx(4.0)
    assert soft_threshold_level(1, 100, 0.5) == pytest.approx((1 + 0.1) * 0.5 * 10.0)


# ---------------------------------------------------------- shrink_values

def test_hard_and_soft_piecewise():
    ctx = _ctx(4, 9, 1.0)
    lam_hard, lam_soft = threshold_values(ctx)
    s = np.array([2.0 * lam_hard, 0.5 * (lam_soft + lam_hard), 0.5 * lam_soft])
    hard = shrink_values(s, ctx, "hard")
    assert hard[0] == s[0] and hard[1] == 0.0 and hard[2] == 0.0
    soft = shrink_values(s, ctx, "soft")
    assert soft[0] == pytest.approx(s[0] - lam_soft)
    assert soft[1] == pytest.approx(s[1] - lam_soft)
    assert soft[2] == 0.0


def test_optimal_vanishes_at_bulk_edge():
    ctx = _ctx(5, 20, 0.7)
    _, lam_soft = threshold_values(ctx)
    assert shrink_values([lam_soft], ctx, "optimal")[0] == 0.0
    # continuous ramp-up just above the edge
    near = shrink_values([lam_soft * (1 + 1e-6)], ctx, "optimal")[0]
    assert 0.0 < near < 0.01 * lam_soft


def test_shrinkers_are_dominated_and_ordered():
    rng = np.random.default_rng(4)
    for _ in range(30):
        i, j = 5, 12
        s = np.sort(rng.lognormal(1.0, 1.2, size=i))[::-1]
        ctx = _ctx(i, j, float(rng.uniform(0.1, 2.0)))
        for method in METHODS:
            out = shrink_values(s, ctx, method)
            assert np.all(out >= 0.0)
            assert np.all(out <= s + 1e-12)
            assert np.all(np.diff(out) <= 1e-12)  # descending preserved


def test_shrink_values_rejects_unknown_method():
    with pytest.raises(Exception):
        shrink_values([1.0], _ctx(2, 4, 1.0), "ridge")


def test_sigma_zero_is_noop():
    s = np.array([5.0, 3.0, 1.0])
    ctx = _ctx(3, 8, 1e-12)
    for method in METHODS:
        out = shrink_values(s, ctx, method)
        assert np.allclose(out, s, rtol=1e-8)


# -------------------------------------------------------------- sure_risk

@st.composite
def _spectra(draw):
    """(s, sigma, i, j): a descending spectrum of i values, some of them
    repeated or zero, and a noise level."""
    i = draw(st.integers(1, 8))
    j = draw(st.integers(i, i + 30))
    pool = draw(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=i))
    values = draw(st.lists(st.sampled_from(pool + [0.0]), min_size=i, max_size=i))
    return np.sort(values)[::-1], draw(st.floats(0.05, 5.0)), i, j


@hypothesis.given(_spectra())
def test_sure_select_is_no_worse_than_a_dense_grid(case):
    s, sigma, i, j = case
    lam = sure_select(s, sigma, i, j)
    assert 0.0 <= lam <= s[0]
    best = sure_risk(s, lam, sigma, i, j)
    # the risk's own rounding: its terms reach i j sigma^2 and sum s^2
    tol = 1e-9 * (i * j * sigma * sigma + float(np.sum(s * s)))
    grid = np.concatenate([np.linspace(0.0, s[0], 401), s])
    assert best <= min(sure_risk(s, g, sigma, i, j) for g in grid) + tol


def test_sure_risk_full_threshold_closed_form():
    # lambda above every value: estimator is zero, SURE = sum s^2 - ij sigma^2
    s = np.array([3.0, 2.0, 1.0])
    i, j, sigma = 3, 7, 0.5
    lam = 10.0
    val = sure_risk(s, lam, sigma, i, j)
    assert val == pytest.approx(float(np.sum(s**2) - i * j * sigma**2), rel=1e-12)


def test_sure_risk_single_value_closed_form():
    s, lam, sigma, j = 4.0, 1.5, 0.6, 9
    val = sure_risk([s], lam, sigma, 1, j)
    expect = -j * sigma**2 + lam**2 + 2 * sigma**2 * ((j - 1) * (1 - lam / s) + 1)
    assert val == pytest.approx(expect, rel=1e-12)


def test_sure_risk_handles_duplicate_values():
    val = sure_risk([3.0, 3.0, 2.0], 1.0, 0.5, 3, 8)
    assert np.isfinite(val)
    near = sure_risk([3.0, 3.0 + 1e-9, 2.0], 1.0, 0.5, 3, 8)
    assert val == pytest.approx(near, abs=1e-3)


def test_sure_tracks_monte_carlo_risk():
    # light version of the unbiasedness check (one lambda)
    rng = np.random.default_rng(7)
    x = (rng.standard_normal((4, 2)) * np.array([3.0, 1.5])) @ rng.standard_normal((2, 12))
    sigma = 0.5
    lam = sigma * np.sqrt(12.0)
    sure_vals = []
    risks = []
    for _ in range(700):
        y = x + sigma * rng.standard_normal(x.shape)
        u, s, vt = np.linalg.svd(y, full_matrices=False)
        sure_vals.append(sure_risk(s, lam, sigma, 4, 12))
        est = (u * np.maximum(s - lam, 0.0)) @ vt
        risks.append(np.sum((est - x) ** 2))
    assert np.mean(sure_vals) == pytest.approx(np.mean(risks), rel=0.08)


# ------------------------------------------------------------ sure_select

def test_sure_select_beats_dense_grid():
    rng = np.random.default_rng(15)
    i, j = 6, 14
    for _ in range(100):
        sigma = float(rng.uniform(0.3, 1.5))
        s = np.sort(rng.lognormal(0.5, 1.0, size=i))[::-1]
        s[0] *= rng.uniform(1.0, 6.0)  # occasional dominant value
        lam_star = sure_select(s, sigma, i, j)
        val_star = sure_risk(s, lam_star, sigma, i, j)
        grid = np.linspace(0.0, 1.05 * s[0], 1200)
        grid_vals = [sure_risk(s, lam, sigma, i, j) for lam in grid]
        assert val_star <= min(grid_vals) + 1e-7 * max(1.0, abs(min(grid_vals)))


def test_sure_select_beats_dense_grid_with_several_zero_values():
    # several exact zeros once made every call of _deduped jitter again, so
    # the knot at 5.954 was scored as its left limit and lost to 4.457
    s = np.array([128.998, 5.954, 3.925] + [0.0] * 7)
    sigma, i, j = 1.70, 10, 10
    lam_star = sure_select(s, sigma, i, j)
    val_star = sure_risk(s, lam_star, sigma, i, j)
    grid_vals = [sure_risk(s, lam, sigma, i, j) for lam in np.linspace(0.0, 1.05 * s[0], 20001)]
    assert val_star <= min(grid_vals) + 1e-7 * max(1.0, abs(min(grid_vals)))


def test_sure_select_is_continuous_at_a_duplicate():
    # a spectrum with an exact duplicate, and the same spectrum with the
    # duplicate moved by 1e-14 relative, get thresholds 1e-12 s_1 apart at
    # most: a jitter that splits ties moves the threshold by ~1e-8 s_1
    rng = np.random.default_rng(21)
    for _ in range(1000):
        i = int(rng.integers(2, 20))
        j = i + int(rng.integers(0, 30))
        sigma = float(rng.uniform(0.2, 2.0))
        s = np.sort(rng.lognormal(0.5, 1.0, size=i))[::-1]
        a = int(rng.integers(0, i - 1))
        s[a + 1] = s[a]
        nudged = s.copy()
        nudged[a + 1] *= 1.0 - 1e-14
        with np.errstate(divide="raise", invalid="raise"):
            lam = sure_select(s, sigma, i, j)
            lam_nudged = sure_select(nudged, sigma, i, j)
        assert abs(lam - lam_nudged) <= 1e-12 * s[0], (s, sigma, i, j)


def _sure_risk_mp(s, lam, sigma, i, j):
    """The textbook estimate at 50 digits, ties among positive values split
    by 1e-30 relative so every divided difference is finite."""
    with mpmath.workdps(50):
        s = [mpmath.mpf(float(x)) * (1 - mpmath.mpf(10) ** -30 * a) if x > 0
             else mpmath.mpf(0) for a, x in enumerate(s)]
        lam, sigma = mpmath.mpf(lam), mpmath.mpf(sigma)
        value = -i * j * sigma ** 2 + sum(min(lam ** 2, x ** 2) for x in s)
        div = 0
        for a, t in enumerate(s):
            if t > lam:
                div += 1 + (j - i) * (1 - lam / t)
                div += 2 * sum(t * (t - lam) / (t ** 2 - x ** 2)
                               for b, x in enumerate(s) if b != a)
        return float(value + 2 * sigma ** 2 * div)


@pytest.mark.parametrize("s, lam, sigma, j", [
    ([3.0, 3.0, 2.0], 1.5, 1.0, 8),
    ([3.0, 3.0, 2.0], 2.0, 0.5, 3),
    ([5.0, 2.0, 2.0, 2.0, 0.0], 1.0, 0.7, 9),
    ([4.0, 4.0, 1.0, 0.0, 0.0], 0.5, 1.3, 5),
    ([4.0, 4.0, 1.0, 0.0, 0.0], 4.0, 1.3, 5),
])
def test_sure_risk_with_duplicates_and_zeros_matches_high_precision(s, lam, sigma, j):
    expect = _sure_risk_mp(s, lam, sigma, len(s), j)
    assert sure_risk(s, lam, sigma, len(s), j) == pytest.approx(expect, rel=1e-12)


def test_sure_select_zeroes_pure_noise():
    rng = np.random.default_rng(16)
    sigma = 1.0
    i, j = 5, 20
    s = np.linalg.svd(sigma * rng.standard_normal((i, j)), compute_uv=False)
    lam_star = sure_select(s, sigma, i, j)
    assert lam_star >= s[0] * 0.95


def test_sure_select_keeps_dominant_value():
    sigma = 1.0
    i, j = 5, 20
    s = np.array([60.0, 4.0, 3.5, 3.0, 2.5])
    lam_star = sure_select(s, sigma, i, j)
    assert lam_star < 60.0
    kept = np.maximum(s - lam_star, 0.0)
    assert kept[0] > 50.0


# the per-piece reference splits tied values with this jitter, so its c_a
# stay finite
_DEGENERATE_REL = 1e-12
_JITTER_REL = 1e-9


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


def _sure_select_per_piece(s, sigma, i, j):
    """Reference: a stationary point per piece from explicit sums over its
    active values, then sure_risk at every candidate in ascending order."""
    s = _deduped(np.asarray(s, dtype=float))
    s_max = float(s.max(initial=0.0))
    if s_max <= 0.0:
        return 0.0
    knots = np.unique(np.concatenate([[0.0], s[s > 0], [s_max]]))
    candidates = list(knots)
    s2 = s * s
    for lo, hi in zip(knots[:-1], knots[1:]):
        mid = 0.5 * (lo + hi)
        active = s > mid
        count = int(np.sum(active))
        if count == 0:
            continue
        t = s[active]
        c_k = np.empty(t.size)
        for a, tk in enumerate(t):
            d = tk * tk - s2
            d = d[np.abs(d) > 0]
            c_k[a] = float(np.sum(1.0 / d))
        b = -2.0 * sigma * sigma * ((j - i) * float(np.sum(1.0 / t))
                                    + 2.0 * float(np.sum(t * c_k)))
        lam_star = -b / (2.0 * count)
        if lo < lam_star < hi:
            candidates.append(lam_star)
    best_lam = 0.0
    best_val = math.inf
    for lam in sorted(candidates):
        val = sure_risk(s, float(lam), sigma, i, j)
        if val <= best_val:
            best_val = val
            best_lam = float(lam)
    return best_lam


def test_sure_select_matches_per_piece_reference():
    rng = np.random.default_rng(17)
    eps = np.finfo(float).eps
    for trial in range(500):
        i = int(rng.integers(1, 12))
        j = i if trial % 5 == 0 else i + int(rng.integers(1, 30))
        sigma = float(rng.uniform(0.2, 2.0))
        s = np.sort(rng.lognormal(0.5, 1.0, size=i))[::-1]
        if trial % 3 == 0:
            s[0] *= rng.uniform(1.0, 20.0)      # dominant value
        if trial % 4 == 1 and i > 1:
            s[-int(rng.integers(1, i)):] = 0.0  # trailing zeros
        if trial % 4 == 2 and i > 1:
            a = int(rng.integers(0, i - 1))
            s[a + 1] = s[a]                     # exact duplicate: jitter path
        with np.errstate(divide="raise", invalid="raise"):
            lam = sure_select(s, sigma, i, j)
            lam_ref = _sure_select_per_piece(s, sigma, i, j)
        # the two sum the terms t_a c_a in different orders; after the jitter
        # the pairs of c_a near +-1/(jitter s^2) cancel, so allow a few ulps
        # of the summed magnitudes on top of 1e-12 s_1
        sj = _deduped(s)
        gap = sj[:, None] ** 2 - sj[None, :] ** 2
        mag = np.sum(np.abs(sj[:, None] / np.where(gap != 0, gap, np.inf)))
        tol = 1e-12 * s[0] + 4 * i * eps * sigma * sigma * mag
        assert abs(lam - lam_ref) <= tol, (trial, s, lam, lam_ref)


# acceptance-size spectra (f = 16..24 values, j = 2f) and the lam the
# parent's sort-and-search minimiser chose for each
_PINNED = {
    # soft-threshold edge ~10.8 above s_1 = 2: the zero estimate wins
    "all_collapse": (np.linspace(2.0, 0.1, 20), 1.0, 40, 2.0),
    # a triple value 7.5 on which lam lands, and a stationary point below it
    "duplicates_at_knot": ((30.0, 18.0, 11.0, 7.5, 7.5, 7.5, 4.0, 3.2, 2.5, 2.0,
                            1.6, 1.3, 1.1, 0.9, 0.7, 0.5), 1.23, 32, 7.5),
    "duplicates_interior": ((30.0, 18.0, 11.0, 7.5, 7.5, 7.5, 4.0, 3.2, 2.5, 2.0,
                             1.6, 1.3, 1.1, 0.9, 0.7, 0.5), 0.22, 32, 0.5177730969558236),
    # six trailing zeros, as an n4sid spectrum padded to min(shape) values
    "trailing_zeros_knot": ((40.0, 21.0, 9.0, 6.5, 5.0, 4.2, 3.1, 2.6, 2.2, 1.9, 1.5, 1.2,
                             1.0, 0.8, 0.6, 0.45, 0.3, 0.2) + (0.0,) * 6, 0.5, 48, 2.6),
    "trailing_zeros_interior": ((40.0, 21.0, 9.0, 6.5, 5.0, 4.2, 3.1, 2.6, 2.2, 1.9, 1.5, 1.2,
                                 1.0, 0.8, 0.6, 0.45, 0.3, 0.2) + (0.0,) * 6, 0.11, 48,
                                0.34777083588699914),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_sure_select_pinned_acceptance_size_cases(name):
    s, sigma, j, expect = _PINNED[name]
    s = np.asarray(s, dtype=float)
    i = s.size
    with np.errstate(divide="raise", invalid="raise"):
        lam = sure_select(s, sigma, i, j)
    assert lam == pytest.approx(expect, rel=0.0, abs=1e-12 * s[0])
    if expect in s:
        assert lam == expect   # a knot is returned exactly
    # the reference splits ties by up to 1e-9 * i relative
    assert lam == pytest.approx(_sure_select_per_piece(s, sigma, i, j), rel=0.0, abs=1e-8 * s[0])
    grid = np.concatenate([np.linspace(0.0, s[0], 2001), s])
    best = sure_risk(s, lam, sigma, i, j)
    assert best <= min(sure_risk(s, g, sigma, i, j) for g in grid) + 1e-9 * i * j * sigma ** 2


# --------------------------------------------------------- shrink_estimate

def _identity_weights():
    rng = np.random.default_rng(0)
    f = p = 3
    j = 40
    z = rng.standard_normal((2 * p, j))
    data = HankelData(stacked=np.vstack([rng.standard_normal((f, j)), z,
                                         rng.standard_normal((f, j))]),
                      f=f, p=p, n_i=1, n_o=1)
    return build_weights("identity", data), data


def test_hard_noop_above_threshold():
    w, _ = _identity_weights()
    rng = np.random.default_rng(17)
    m = 1e3 * rng.standard_normal((3, 6))
    out = shrink_estimate(m, w, sigma_level=1.0, method="hard")
    assert np.allclose(out, m, rtol=1e-10)


def test_zero_matrix_stays_zero():
    w, _ = _identity_weights()
    for method in METHODS:
        out = shrink_estimate(np.zeros((3, 6)), w, sigma_level=1.0, method=method)
        assert np.all(out == 0.0)


def test_orthogonal_invariance():
    w, _ = _identity_weights()
    rng = np.random.default_rng(18)
    m = rng.standard_normal((3, 6)) * 3.0
    q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    for method in METHODS:
        a = shrink_estimate(q1 @ m @ q2.T, w, 0.8, method)
        b = q1 @ shrink_estimate(m, w, 0.8, method) @ q2.T
        assert np.allclose(a, b, atol=1e-8 * max(1.0, np.abs(b).max()))


def test_transposition_consistency():
    # a tall input is shrunk as its transpose would be
    rng = np.random.default_rng(19)
    j = 40
    z = rng.standard_normal((3, j))
    data = HankelData(stacked=np.vstack([rng.standard_normal((6, j)), z,
                                         rng.standard_normal((3, j))]),
                      f=3, p=1, n_i=1, n_o=2)
    w_tall = build_weights("identity", data)
    m = rng.standard_normal((6, 3)) * 2.0
    ctx = make_context(m.shape, 0.7)
    assert (ctx.i, ctx.j) == (3, 6)
    u, s, vt = np.linalg.svd(m.T, full_matrices=False)
    for method in METHODS:
        direct = ((u * shrink_values(s, ctx, method)) @ vt).T
        out = shrink_estimate(m, w_tall, 0.7, method)
        assert np.allclose(out, direct, atol=1e-10)


def test_weighted_shrink_consistent_with_weighted_svd():
    # internal consistency: applying the weights to the output reproduces a
    # direct shrink of the weighted matrix
    rng = np.random.default_rng(20)
    f = p = 3
    j = 60
    z = rng.standard_normal((2 * p, j))
    y_f = rng.standard_normal((f, j))
    data = HankelData(stacked=np.vstack([y_f, z, rng.standard_normal((f, j))]),
                      f=f, p=p, n_i=1, n_o=1)
    ls = ls_estimate(data)
    noise = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat)
    w = build_weights("cva", data, g_f_hat=noise.g_f_hat)
    sigma = 1.0
    for method in METHODS:
        out = shrink_estimate(ls.h_fp_hat, w, sigma, method)
        weighted = w.apply(ls.h_fp_hat)
        ctx = make_context(weighted.shape, sigma)
        u, s, vt = np.linalg.svd(weighted, full_matrices=False)
        ref = (u * shrink_values(s, ctx, method)) @ vt
        assert np.allclose(w.apply(out), ref, atol=1e-8)


def test_context_validation():
    with pytest.raises(Exception):
        make_context((4, 2), -1.0)
    ctx = make_context((8, 3), 1.0)
    assert (ctx.i, ctx.j) == (3, 8)
