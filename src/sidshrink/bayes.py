"""Gibbs-sampled Bayesian alternating least squares for the past-to-future
map of a SISO model.

The chain alternates three conditional draws: the observability/Markov block
[Gamma_f H_f] (matrix ridge regression with the noise factor as row scale),
the reachability block L_p (generalised ridge, projected onto the row space
of the past regressor), and the lower-triangular Toeplitz noise factor G_f
(drawn on the group via its inverse's last row, with a chi-distributed
diagonal coordinate). The reported estimate averages Gamma_f L_p over the
post-burn-in iterations, optionally Rao-Blackwellised with the conditional
means.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
# the iteration calls LAPACK directly: each scipy.linalg wrapper costs more
# than the small solve it wraps
from scipy.linalg.lapack import dgeqrf, dpotrf, dpotrs, dtrtrs

from .errors import ConfigError, DataError, NumericalError
from .estimation import HankelData
from .linalg import (
    SelectorPair,
    build_selectors,
    checked,
    frobenius,
    psd_sqrt,
    toeplitz_from_col,
    toeplitz_project,
)

__all__ = [
    "GibbsConfig",
    "GibbsState",
    "GibbsEstimate",
    "init_gibbs",
    "step_gamma_hf",
    "step_lp",
    "step_gf",
    "HankelForm",
    "hankel_form",
    "run_gibbs",
]

GF_VARIANTS = ("hankel_exact", "independent")


@dataclass(frozen=True)
class GibbsConfig:
    rank: int
    n_total: int = 250          # last iteration index kept
    n_burn: int = 1             # iterates 1..n_burn are discarded
    gf_variant: str = "independent"
    rao_blackwell: bool = True

    def __post_init__(self):
        if self.gf_variant not in GF_VARIANTS:
            raise ConfigError(f"unknown gf variant {self.gf_variant!r}")
        if not 0 <= self.n_burn < self.n_total:
            raise ConfigError("need 0 <= n_burn < n_total")
        if self.rank < 1:
            raise ConfigError("rank must be positive")


@dataclass
class GibbsState:
    """The sampled blocks (gamma_f, h_f), l_p and g_f; the rest stays fixed
    for the whole chain: the data enter as factor_t = R~', the transpose of
    a triangular factor of the stacked [Y_f; Z_p; U_f] rows with R~'R~ =
    stacked stacked', as that Gram's blocks (yz = Y_f Z_p', ...), as
    y_zpinv = Y_f Z_p^+ and u_zpinv = U_f Z_p^+ (formed as yz (R'R)^-1 and
    uz (R'R)^-1), and as z_factor, the triangular R of Z_p with R'R =
    Z_p Z_p'. The "hankel_exact" noise update reads the data through a
    HankelForm instead, which run_gibbs builds and keeps outside the
    state."""

    gamma_f: np.ndarray
    h_f: np.ndarray
    l_p: np.ndarray
    g_f: np.ndarray
    lambda_gamma: np.ndarray
    lambda_h: np.ndarray
    lambda_l: np.ndarray
    selectors: SelectorPair
    z_factor: np.ndarray
    factor_t: np.ndarray
    yz: np.ndarray
    yu: np.ndarray
    zz: np.ndarray
    zu: np.ndarray
    uu: np.ndarray
    y_zpinv: np.ndarray
    u_zpinv: np.ndarray


@dataclass(frozen=True)
class GibbsEstimate:
    h_fp_bayes: np.ndarray
    chain_diagnostics: np.ndarray = field(repr=False)


def init_gibbs(h_fp_hat: np.ndarray, h_f_hat: np.ndarray, data: HankelData,
               rank: int) -> GibbsState:
    """First iterate and fixed prior scales from a rank-r SVD of the
    reconstructed future prediction h_fp_hat Z_p.

    With R = data.z_factor, h_fp_hat Z_p = (h_fp_hat R') Q' for Q with
    orthonormal columns, so the f x 2p matrix h_fp_hat R' has the same
    singular values and U, and l_p = (sqrt(s) V') R'^-1 equals the split
    of the f x N SVD composed with Z_p^+. Gamma and L split the truncated
    SVD symmetrically; G_f starts at the identity. The prior precisions
    (lambda_gamma = diag(i / s_k), lambda_l = diag(j / s_k), lambda_h =
    I i^2 / tr(h_f' h_f)) stay fixed for the whole chain. SISO only; a
    (near) rank-deficient Z_p raises NumericalError.

    The only pass over the N data columns is one QR of the stacked rows,
    taken in the order [Z_p; U_f; Y_f] so that a NaN in Y_f leaves the Z_p
    and U_f columns of its R clean. R's columns put back in stacked order
    give R~, and the Gram blocks come from R~'R~. The Gram is never
    factored itself: a Cholesky factor of it would square its condition
    number.
    """
    if data.n_i != 1 or data.n_o != 1:
        raise ConfigError("the Bayesian estimator supports SISO data only")
    i = data.f
    j = data.n_cols
    if not 1 <= rank <= min(i, data.z_p.shape[0]):
        raise ValueError(f"rank {rank} outside [1, {min(i, data.z_p.shape[0])}]")
    z_factor = data.full_rank_z_factor("Gibbs chain")
    u, s, vt = np.linalg.svd(h_fp_hat @ z_factor.T, full_matrices=False)
    s_r = np.maximum(s[:rank], max(s[0], np.finfo(float).tiny) * 1e-12)
    root = np.sqrt(s_r)
    gamma = u[:, :rank] * root
    l_p = scipy.linalg.solve_triangular(z_factor, (root[:, None] * vt[:rank]).T).T
    trace_h = max(float(np.trace(h_f_hat.T @ h_f_hat)), np.finfo(float).tiny)
    y, z, u = data.row_slices
    order = np.arange(data.stacked.shape[0])
    order = np.concatenate([order[z], order[u], order[y]])
    qr = checked(dgeqrf(data.stacked[order].T, overwrite_a=1), "QR of the stacked data")
    factor_t = np.empty((order.size, min(qr.shape)))
    factor_t[order] = np.triu(qr[:order.size]).T
    gram = factor_t @ factor_t.T
    # (Z_p Z_p')^-1 from R alone: Y_f or U_f may hold NaN, which the chain
    # reports at its first iteration
    zz_inv = scipy.linalg.cho_solve((z_factor, False), np.eye(z_factor.shape[0]))
    return GibbsState(
        gamma_f=gamma,
        h_f=toeplitz_project(h_f_hat),
        l_p=l_p,
        g_f=np.eye(i),
        lambda_gamma=np.diag(i / s_r),
        lambda_h=np.eye(i) * (i * i / trace_h),
        lambda_l=np.diag(j / s_r),
        selectors=build_selectors(i, j),
        z_factor=z_factor,
        factor_t=factor_t,
        yz=gram[y, z], yu=gram[y, u], zz=gram[z, z], zu=gram[z, u], uu=gram[u, u],
        y_zpinv=gram[y, z] @ zz_inv, u_zpinv=gram[u, z] @ zz_inv,
    )


def _gamma_hf_parts(state: GibbsState):
    """Posterior mean and the lower Cholesky factor L of the precision for
    the [Gamma_f H_f] draw.

    The noise factor enters as G_f = g_f[0,0] g_bar: the scalar
    gamma = 1 / g_f[0,0]^2 weights the likelihood and g_bar shapes the rows.
    For the regressor reg = [L_p Z_p; U_f], reg reg' and Y_f reg' come from
    the Gram blocks. A precision that is not positive definite raises
    NumericalError. The mean is not checked for NaN: one in Y_f reaches the
    draw, and run_gibbs reports the draw.
    """
    gamma_scalar = 1.0 / (state.g_f[0, 0] ** 2)
    r = state.l_p.shape[0]
    gram = np.empty((r + state.uu.shape[0],) * 2)
    gram[:r, :r] = state.lambda_gamma + gamma_scalar * (state.l_p @ state.zz @ state.l_p.T)
    gram[:r, r:] = gamma_scalar * (state.l_p @ state.zu)
    gram[r:, :r] = gram[:r, r:].T
    gram[r:, r:] = state.lambda_h + gamma_scalar * state.uu
    gram = (gram + gram.T) / 2.0
    chol = checked(dpotrf(gram, lower=1), "[Gamma_f H_f] precision not positive definite")
    y_reg = np.empty((state.yu.shape[0], gram.shape[0]))
    y_reg[:, :r] = state.yz @ state.l_p.T
    y_reg[:, r:] = state.yu
    mean = gamma_scalar * checked(dpotrs(chol, y_reg.T, lower=1, overwrite_b=1),
                                  "[Gamma_f H_f] mean").T
    return mean, chol


def step_gamma_hf(state: GibbsState, rng: np.random.Generator):
    """Conditional mean of gamma_f and the draw of (gamma_f, h_f), with the
    h_f draw projected back onto lower-triangular Toeplitz matrices. The
    chain never reads the mean of h_f; _gamma_hf_parts holds it.

    With the precision L L', the rows of xi L^-1 have covariance
    (L L')^-1; one triangular solve forms them."""
    mean, chol = _gamma_hf_parts(state)
    xi = rng.standard_normal(mean.shape)
    g_bar = state.g_f / state.g_f[0, 0]
    root_xi = checked(dtrtrs(chol, xi.T, lower=1, trans=1, overwrite_b=1),
                      "[Gamma_f H_f] draw").T
    draw = mean + g_bar @ root_xi
    r = state.l_p.shape[0]
    return mean[:, :r], (draw[:, :r], toeplitz_project(draw[:, r:]))


def step_lp(state: GibbsState, rng: np.random.Generator):
    """Conditional mean and draw of l_p given the current gamma_f, h_f and
    the previous noise factor.

    The GLS mean solves (Gamma' S^-1 Gamma + lambda_l) q = Gamma' S^-1 (Y_f -
    H_f U_f) with S = G_f G_f'. Mean and draw are returned composed with the
    past-regressor pseudo-inverse, in regressor coordinates, so the right
    side is formed from S^-1 Gamma, y_zpinv and u_zpinv. One inverse root
    prec^-1/2 gives both: the mean is prec^-1/2 (prec^-1/2 rhs), and the
    draw's noise is prec^-1/2 xi R'^-1 for r x 2p normals xi, whose rows
    have covariance R^-1 R'^-1 = (Z_p Z_p')^-1 = Z_p^+' Z_p^+, the law of
    r x N normals times Z_p^+.
    """
    sinv_gamma = checked(dpotrs(state.g_f, state.gamma_f, lower=1), "S^-1 Gamma_f")
    # psd_sqrt symmetrises prec
    prec = state.gamma_f.T @ sinv_gamma + state.lambda_l
    rhs = sinv_gamma.T @ state.y_zpinv - (sinv_gamma.T @ state.h_f) @ state.u_zpinv
    root = psd_sqrt(prec, inverse=True)
    mean = root @ (root @ rhs)
    xi = rng.standard_normal(mean.shape)
    xi_r = checked(dtrtrs(state.z_factor, xi.T, overwrite_b=1), "L_p draw").T
    return mean, mean + root @ xi_r


def _skew(m: np.ndarray) -> np.ndarray:
    """Row k of m shifted right by k places: out[k, k + l] = m[k, l], zeros elsewhere."""
    rows, cols = m.shape
    buf = np.zeros((rows, cols + rows))
    buf[:, :cols] = m
    return buf.ravel()[: rows * (cols + rows - 1)].reshape(rows, cols + rows - 1)


def _antidiagonal_sums(resid: np.ndarray) -> np.ndarray:
    """The (i+j-1) x i matrix s = b_w' (E' (x) I) b_t of an i x j residue:
    column m holds the anti-diagonal sums of the first m+1 rows of E
    shifted down by i-1-m rows, s[d, m] = sum over a <= m of
    E[a, d - (i-1-m) - a]."""
    i, j = resid.shape
    # row m: anti-diagonal sums of the first m+1 rows of the residue
    sums = np.cumsum(_skew(resid), axis=0)
    return _skew(sums[::-1])[::-1, :i + j - 1].T


def _omega_hankel(resid: np.ndarray) -> np.ndarray:
    """Quadratic form of the Hankel-aware likelihood.

    Equals b_t' (E (x) I) b_w (b_w' b_w)^-1 b_w' (E' (x) I) b_t without
    forming the Kronecker products: s' D^-1 s for the anti-diagonal sums s
    and D = b_w' b_w, the diagonal of anti-diagonal multiplicities.
    """
    s = _antidiagonal_sums(resid)
    omega = s.T @ (s / _multiplicity(*resid.shape))
    return (omega + omega.T) / 2.0


@dataclass(frozen=True)
class HankelForm:
    """The Hankel-aware quadratic form of a residue E = C stacked as a
    function of the f x R coefficients C alone, so that no iteration
    forms E's N columns; hankel_form builds it once per chain.

    Every stacked row is a window of one signal, so rows f-1..N-1 of the
    anti-diagonal sums s of E equal W G(C), with W the (N-f+1) x
    n_sig(2f+p-1) signal windows and G(C) the sums, over a <= m, of
    C[a, q] into entry (base[q] + m - a, m), and each of those rows has
    multiplicity f. With root = R_W / sqrt(f), R_W the triangular (or,
    when W has fewer rows than columns, trapezoidal) factor of a QR of W,
    root G is a factor of their part of the form. The other 2(f-1) rows
    of s read only E's first and last f-1 columns, C edge_columns, and
    are scaled by edge_scale, one over the root of their multiplicity.

    Both kinds of sum are running sums down the f + 1 rows that gather
    lays out from C and C edge_columns (flat, then a 0.0 slot): G's below
    a row of zeros, the edge's anti-diagonal sums from row 0. pick reads
    G and then the 2(f-1) edge rows of s from them.
    """

    root: np.ndarray
    gather: np.ndarray
    pick: np.ndarray
    edge_columns: np.ndarray
    edge_scale: np.ndarray
    n_cols: int

    def omega(self, coef: np.ndarray) -> np.ndarray:
        """_omega_hankel(coef @ stacked) up to rounding."""
        i = coef.shape[0]
        n_win = self.root.shape[1]
        values = np.empty(coef.size + i * self.edge_columns.shape[1] + 1)
        values[:coef.size] = coef.ravel()
        np.matmul(coef, self.edge_columns, out=values[coef.size:-1].reshape(i, -1))
        values[-1] = 0.0
        terms = values.take(self.gather).cumsum(axis=0).take(self.pick)
        factor = np.empty((self.root.shape[0] + terms.shape[0] - n_win, i))
        np.matmul(self.root, terms[:n_win], out=factor[:self.root.shape[0]])
        np.multiply(terms[n_win:], self.edge_scale, out=factor[self.root.shape[0]:])
        omega = factor.T @ factor
        return (omega + omega.T) / 2.0


def hankel_form(data: HankelData) -> HankelForm:
    """The HankelForm of data's stacked rows: one QR of the signal windows
    and the gather and pick indices. Column m of s sums residue rows
    a <= m shifted by m - a, so C[a, q] lands in G at signal lag
    base[q] + m - a, and the windows need 2f + p - 1 lags.

    gather row a + 1 holds C[a, q] in column base[q] - a + f - 1, so G's
    entry at window column l and column m is the running sum down to row
    m + 1 in column l - m + f - 1 (a stacked row's lag is at most f + p - 1,
    so each signal keeps its own 2f + p - 1 columns). Each such sum starts
    from 0.0 and adds C's entries in increasing a, the order of a bincount
    over the (a, m, q) triples; the zeros between them change no bits.
    Rows 0..f-1 of the last 3(f-1) columns hold the skewed edge residue of
    _antidiagonal_sums. The form needs N >= f and stacked rows that are
    Hankel windows; either failing raises DataError."""
    i, j = data.f, data.n_cols
    if j < i:
        raise DataError(f"the hankel_exact noise update needs N >= f columns, have N = {j} "
                        f"< f = {i}")
    n_lags = 2 * i + data.p - 1
    windows, base = data.signal_windows(n_lags)
    qr = checked(dgeqrf(windows, overwrite_a=1), "QR of the signal windows")
    n_rows, n_edge, n_win = base.size, 2 * (i - 1), windows.shape[1]
    width = n_win + n_edge + i - 1
    a = np.arange(i)[:, None]
    gather = np.full((i + 1, width), i * (n_rows + n_edge))    # the 0.0 slot
    gather[a + 1, base - a + i - 1] = a * n_rows + np.arange(n_rows)
    gather[a, n_win + a + np.arange(n_edge)] = i * n_rows + a * n_edge + np.arange(n_edge)
    # G[l, m], 0.0 (entry 0 of the sums) past a signal's columns, then the
    # edge rows d of s, s[d, m] = sums[m, d - (f-1-m)], 0.0 outside the skew
    m = np.arange(i)
    l = np.arange(n_win)[:, None]
    d = np.r_[np.arange(i - 1), np.arange(2 * i - 2, 3 * i - 3)][:, None]
    c = d - (i - 1 - m)
    pick = np.vstack([np.where(l % n_lags - m + i - 1 < n_lags, (m + 1) * width + l - m + i - 1, 0),
                      np.where((c >= 0) & (c < n_edge + i - 1), m * width + n_win + c, 0)])
    edge = np.r_[np.arange(i - 1), np.arange(j - i + 1, j)]
    weight = np.r_[np.arange(1, i), np.arange(i - 1, 0, -1)]
    return HankelForm(
        root=np.triu(qr[:min(qr.shape)]) / np.sqrt(i),
        gather=gather,
        pick=pick,
        edge_columns=data.stacked[:, edge],
        edge_scale=1.0 / np.sqrt(weight)[:, None],
        n_cols=j,
    )


@functools.lru_cache(maxsize=None)
def _multiplicity(i: int, j: int) -> np.ndarray:
    """Column of anti-diagonal multiplicities of an i x j matrix, the
    diagonal of b_w' b_w."""
    n_coef = i + j - 1
    w = np.minimum(np.minimum(np.arange(1, n_coef + 1), np.arange(n_coef, 0, -1)), min(i, j))
    w = w[:, None]
    w.setflags(write=False)     # shared by every call with this (i, j)
    return w


@functools.lru_cache(maxsize=None)
def _subdiagonal_index(i: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into an i x i matrix: gather[k, d] reads entry
    (k + d, k), the k-th term of the d-th subdiagonal (entry 0 where
    k + d >= i), and scatter[a, b] reads (min(a, b), |a - b|) of the
    gathered layout."""
    k, d = np.indices((i, i))
    gather = np.where(k + d < i, (k + d) * i + k, 0)
    scatter = np.minimum(k, d) * i + np.abs(k - d)
    for a in (gather, scatter):
        a.setflags(write=False)     # shared by every call with this i
    return gather, scatter


def _omega_independent(resid: np.ndarray) -> np.ndarray:
    """Quadratic form b_t' (E E' (x) I) b_t via partial diagonal sums of the
    residue Gram matrix: entry (m, m + d) sums the first m+1 terms of the
    d-th subdiagonal of E E'. Any F with F F' = E E' gives the same form.

    The subdiagonals are gathered into the columns of one i x i array and
    summed down them; the padding below a column's last term is summed too
    but never read."""
    gather, scatter = _subdiagonal_index(resid.shape[0])
    partial = (resid @ resid.T).take(gather).cumsum(axis=0)
    return partial.take(scatter)


def _invert_toeplitz_symbol(q: np.ndarray) -> np.ndarray:
    """First column of the inverse of the lower-triangular Toeplitz matrix
    with first column q (the inverse is lower-triangular Toeplitz too)."""
    e_0 = np.zeros(q.shape[0])
    e_0[0] = 1.0
    return checked(dtrtrs(toeplitz_from_col(q), e_0, lower=1, overwrite_b=1),
                   "noise-factor symbol is singular")


def _gf_from_nu(omega: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map the standardised coordinate vector nu to the noise-factor draw.

    Solves row @ chol(omega) = nu for the last row of G_f^-1, rebuilds the
    full lower-triangular Toeplitz inverse, and inverts it exactly on the
    group. Returns (g_f, row).
    """
    om_l, info = dpotrf(omega, lower=1)
    if info != 0:
        min_eig = float(np.linalg.eigvalsh((omega + omega.T) / 2.0)[0])
        raise NumericalError(
            f"noise-update quadratic form not positive definite "
            f"(min eigenvalue {min_eig:.3e})"
        )
    row = checked(dtrtrs(om_l, nu, lower=1, trans=1), "noise-factor row")
    # row[::-1][d] is the subdiagonal-d coefficient of G_f^-1
    return toeplitz_from_col(_invert_toeplitz_symbol(row[::-1])), row


def step_gf(state: GibbsState, resid: np.ndarray, rng: np.random.Generator,
            variant: str, *, n_cols: int | None = None,
            form: HankelForm | None = None) -> np.ndarray:
    """Draw the noise factor G_f given the current residues.

    The last coordinate of nu is chi-distributed: chi_(j+1) under the
    Hankel-aware variant, chi_(ij-i+2) when entries are treated as
    independent. Writes the draw to state.g_f.

    Under "independent" the likelihood reads only E E', so resid may be any
    factor F with F F' = E E' when n_cols gives E's column count j.
    "hankel_exact" reads E's anti-diagonals: resid is E itself, or, with
    form = hankel_form(data), the coefficients C of E = C data.stacked.
    Each variant rejects the other's keyword with ConfigError.
    """
    i, j = resid.shape
    if variant == "hankel_exact":
        if n_cols is not None:
            raise ConfigError("the hankel_exact noise update needs the residue itself")
        if form is None:
            omega = _omega_hankel(resid)
        else:
            omega, j = form.omega(resid), form.n_cols
        chi_dof = j + 1
    elif variant == "independent":
        if form is not None:
            raise ConfigError("the independent noise update reads no Hankel form")
        j = j if n_cols is None else n_cols
        omega, chi_dof = _omega_independent(resid), i * j - i + 2
    else:
        raise ConfigError(f"unknown gf variant {variant!r}")
    nu = np.empty(i)
    nu[:-1] = rng.standard_normal(i - 1)
    nu[-1] = np.sqrt(rng.chisquare(chi_dof))
    state.g_f = _gf_from_nu(omega, nu)[0]
    return state.g_f


def run_gibbs(data: HankelData, h_fp_hat: np.ndarray, h_f_hat: np.ndarray,
              config: GibbsConfig, rng: np.random.Generator) -> GibbsEstimate:
    """Run the chain and average Gamma_f L_p over iterations
    n_burn+1 .. n_total.

    With rao_blackwell=True each kept iteration contributes
    (E[Gamma^(n)] L^(n-1) + Gamma^(n) E[L^(n)]) / 2, using the conditional
    means computed alongside the draws; the sum is kept doubled and halved
    in the final division, which gives the same bits as halving each term
    (a power of two scales every partial sum exactly, barring overflow and
    subnormals). Divergence (non-finite draw) raises
    NumericalError with the iteration index.

    No iteration reads the N data columns: the noise update gets the
    f x R residue coefficients C, times factor_t under "independent" and
    through the chain's one hankel_form(data) under "hankel_exact".
    """
    state = init_gibbs(h_fp_hat, h_f_hat, data, config.rank)
    scale = 2.0 if config.rao_blackwell else 1.0
    accum = np.zeros_like(h_fp_hat, dtype=float)
    if config.n_burn == 0:
        # burn-in of zero keeps the deterministic first iterate as well
        accum += scale * (state.gamma_f @ state.l_p)
    diagnostics = [frobenius(state.gamma_f @ state.l_p)]
    # [I, -Gamma L_p, -H_f] @ stacked = Y_f - Gamma L_p Z_p - H_f U_f; the
    # identity block is filled once, the others each iteration. Under
    # "independent" the same coefficients C times factor_t give C R~', a
    # factor of the residue Gram C R~'R~ C'; under "hankel_exact" the
    # form reads C itself. So no iteration reads the N data columns
    independent = config.gf_variant == "independent"
    form = None if independent else hankel_form(data)
    y, z, u = data.row_slices
    resid_coef = np.zeros((data.f, data.stacked.shape[0]))
    resid_coef[:, y] = np.eye(data.f)
    for n in range(2, config.n_total + 1):
        gamma_mean, (gamma_draw, h_draw) = step_gamma_hf(state, rng)
        # each draw is checked before the next conditional consumes it, so a
        # blown-up iterate is reported here instead of deep inside a solver
        if not (np.isfinite(gamma_draw).all() and np.isfinite(h_draw).all()):
            raise NumericalError(f"chain diverged at iteration {n}")
        l_prev, state.gamma_f, state.h_f = state.l_p, gamma_draw, h_draw

        l_mean, l_draw = step_lp(state, rng)
        if not np.isfinite(l_draw).all():
            raise NumericalError(f"chain diverged at iteration {n}")
        state.l_p = l_draw

        product = gamma_draw @ l_draw
        np.negative(product, out=resid_coef[:, z])
        np.negative(h_draw, out=resid_coef[:, u])
        if independent:
            step_gf(state, resid_coef @ state.factor_t, rng, "independent", n_cols=data.n_cols)
        else:
            step_gf(state, resid_coef, rng, "hankel_exact", form=form)

        if not np.isfinite(state.g_f).all():
            raise NumericalError(f"chain diverged at iteration {n}")
        diagnostics.append(frobenius(product))
        if n > config.n_burn:
            if config.rao_blackwell:
                accum += gamma_mean @ l_prev + gamma_draw @ l_mean
            else:
                accum += product
    estimate = accum / (scale * (config.n_total - config.n_burn))
    return GibbsEstimate(h_fp_bayes=estimate, chain_diagnostics=np.asarray(diagnostics))
