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

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConfigError, NumericalError
from .estimation import RCOND, HankelData
from .linalg import SelectorPair, build_selectors, psd_sqrt, toeplitz_from_col, toeplitz_project

__all__ = [
    "GibbsConfig",
    "GibbsState",
    "GibbsEstimate",
    "init_gibbs",
    "step_gamma_hf",
    "step_lp",
    "step_gf",
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
    for the whole chain."""

    gamma_f: np.ndarray
    h_f: np.ndarray
    l_p: np.ndarray
    g_f: np.ndarray
    lambda_gamma: np.ndarray
    lambda_h: np.ndarray
    lambda_l: np.ndarray
    selectors: SelectorPair
    z_pinv: np.ndarray


@dataclass(frozen=True)
class GibbsEstimate:
    h_fp_bayes: np.ndarray
    chain_diagnostics: np.ndarray = field(repr=False)


def init_gibbs(h_fp_hat: np.ndarray, h_f_hat: np.ndarray, data: HankelData,
               rank: int) -> GibbsState:
    """First iterate and fixed prior scales from a rank-r SVD of the
    reconstructed future prediction h_fp_hat Z_p.

    Gamma and L split the truncated SVD symmetrically; G_f starts at the
    identity. The prior precisions (lambda_gamma = diag(i / s_k),
    lambda_l = diag(j / s_k), lambda_h = I i^2 / tr(h_f' h_f)) stay fixed
    for the whole chain. SISO only.
    """
    if data.n_i != 1 or data.n_o != 1:
        raise ConfigError("the Bayesian estimator supports SISO data only")
    i = data.f
    j = data.n_cols
    if not 1 <= rank <= min(i, data.z_p.shape[0]):
        raise ValueError(f"rank {rank} outside [1, {min(i, data.z_p.shape[0])}]")
    m = h_fp_hat @ data.z_p
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    s_r = np.maximum(s[:rank], max(s[0], np.finfo(float).tiny) * 1e-12)
    root = np.sqrt(s_r)
    z_pinv = np.linalg.pinv(data.z_p, rcond=RCOND)
    gamma = u[:, :rank] * root
    l_p = (root[:, None] * vt[:rank]) @ z_pinv
    trace_h = max(float(np.trace(h_f_hat.T @ h_f_hat)), np.finfo(float).tiny)
    return GibbsState(
        gamma_f=gamma,
        h_f=toeplitz_project(h_f_hat),
        l_p=l_p,
        g_f=np.eye(i),
        lambda_gamma=np.diag(i / s_r),
        lambda_h=np.eye(i) * (i * i / trace_h),
        lambda_l=np.diag(j / s_r),
        selectors=build_selectors(i, j),
        z_pinv=z_pinv,
    )


def _gamma_hf_parts(state: GibbsState, data: HankelData):
    """Posterior mean and noise shaping for the [Gamma_f H_f] draw.

    The noise factor enters as G_f = g_f[0,0] g_bar: the scalar
    gamma = 1 / g_f[0,0]^2 weights the likelihood and g_bar shapes the rows.
    """
    gamma_scalar = 1.0 / (state.g_f[0, 0] ** 2)
    reg = np.vstack([state.l_p @ data.z_p, data.u_f])
    lam = scipy.linalg.block_diag(state.lambda_gamma, state.lambda_h)
    gram = lam + gamma_scalar * (reg @ reg.T)
    gram = (gram + gram.T) / 2.0
    mean = gamma_scalar * np.linalg.solve(gram, (data.y_f @ reg.T).T).T
    return mean, gram


def _split_gamma_hf(state: GibbsState, m: np.ndarray):
    r = state.l_p.shape[0]
    return m[:, :r], toeplitz_project(m[:, r:])


def step_gamma_hf(state: GibbsState, data: HankelData, rng: np.random.Generator):
    """Conditional mean and draw of (gamma_f, h_f), each returned as a
    (gamma_f, h_f) pair with the h_f part projected back onto
    lower-triangular Toeplitz matrices."""
    mean, gram = _gamma_hf_parts(state, data)
    xi = rng.standard_normal(mean.shape)
    g_bar = state.g_f / state.g_f[0, 0]
    draw = mean + g_bar @ xi @ psd_sqrt(gram, inverse=True)
    return _split_gamma_hf(state, mean), _split_gamma_hf(state, draw)


def step_lp(state: GibbsState, data: HankelData, rng: np.random.Generator):
    """Conditional mean and draw of l_p given the current gamma_f, h_f and
    the previous noise factor.

    The GLS mean solves (Gamma' S^-1 Gamma + lambda_l) q = Gamma' S^-1 (Y_f -
    H_f U_f) with S = G_f G_f'; the right side is formed from the f x r
    factor S^-1 Gamma. Mean and draw are composed with the past-regressor
    pseudo-inverse to land in regressor coordinates.
    """
    g = state.g_f
    tmp = scipy.linalg.solve_triangular(g, state.gamma_f, lower=True)
    sinv_gamma = scipy.linalg.solve_triangular(g, tmp, lower=True, trans="T")
    prec = state.gamma_f.T @ sinv_gamma + state.lambda_l
    prec = (prec + prec.T) / 2.0
    rhs = sinv_gamma.T @ data.y_f - (sinv_gamma.T @ state.h_f) @ data.u_f
    mean_q = np.linalg.solve(prec, rhs)
    xi = rng.standard_normal(mean_q.shape)
    draw_q = mean_q + psd_sqrt(prec, inverse=True) @ xi
    return mean_q @ state.z_pinv, draw_q @ state.z_pinv


def _antidiag_sums(m: np.ndarray) -> np.ndarray:
    rows, cols = m.shape
    idx = (np.arange(rows)[:, None] + np.arange(cols)[None, :]).ravel()
    return np.bincount(idx, weights=m.ravel(), minlength=rows + cols - 1)


def _omega_hankel(resid: np.ndarray) -> np.ndarray:
    """Quadratic form of the Hankel-aware likelihood.

    Equals b_t' (E (x) I) b_w (b_w' b_w)^-1 b_w' (E' (x) I) b_t without
    forming the Kronecker products: column m of b_w' (E' (x) I) b_t holds
    the anti-diagonal sums of E shifted down by i-1-m rows, and b_w' b_w is
    the diagonal of anti-diagonal multiplicities.
    """
    i, j = resid.shape
    n_coef = i + j - 1
    s = np.zeros((n_coef, i))
    for m in range(i):
        shift = i - 1 - m
        sums = _antidiag_sums(resid[: i - shift, :])
        s[shift: shift + sums.shape[0], m] = sums
    d = np.arange(n_coef)
    w = np.minimum.reduce([d + 1, np.full(n_coef, i), np.full(n_coef, j), n_coef - d])
    omega = s.T @ (s / w[:, None])
    return (omega + omega.T) / 2.0


def _omega_independent(resid: np.ndarray) -> np.ndarray:
    """Quadratic form b_t' (E E' (x) I) b_t via partial diagonal sums of the
    residue Gram matrix: entry (m, m') sums the first min(m, m')+1 terms of
    the |m - m'|-th subdiagonal of E E'."""
    i = resid.shape[0]
    c = resid @ resid.T
    omega = np.zeros((i, i))
    for delta in range(i):
        partial = np.cumsum(np.diagonal(c, offset=-delta))
        rows = np.arange(i - delta)
        omega[rows, rows + delta] = partial
        omega[rows + delta, rows] = partial
    return omega


def _invert_toeplitz_symbol(q: np.ndarray) -> np.ndarray:
    """Power-series inverse of a lower-triangular Toeplitz symbol, so the
    result is exactly Toeplitz."""
    n = q.shape[0]
    p = np.zeros(n)
    p[0] = 1.0 / q[0]
    for d in range(1, n):
        p[d] = -np.dot(q[1: d + 1], p[d - 1:: -1]) / q[0]
    return p


def _gf_from_nu(omega: np.ndarray, nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Map the standardised coordinate vector nu to the noise-factor draw.

    Solves row @ chol(omega) = nu for the last row of G_f^-1, rebuilds the
    full lower-triangular Toeplitz inverse, and inverts it exactly on the
    group. Returns (g_f, row).
    """
    try:
        om_l = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError as exc:
        min_eig = float(np.linalg.eigvalsh((omega + omega.T) / 2.0)[0])
        raise NumericalError(
            f"noise-update quadratic form not positive definite "
            f"(min eigenvalue {min_eig:.3e})"
        ) from exc
    row = scipy.linalg.solve_triangular(om_l, nu, lower=True, trans="T")
    i = row.shape[0]
    q = row[::-1].copy()          # q[d] = subdiagonal-d coefficient of G_f^-1
    g_col = _invert_toeplitz_symbol(q)
    return toeplitz_from_col(g_col), row


def step_gf(state: GibbsState, resid: np.ndarray, rng: np.random.Generator,
            variant: str) -> np.ndarray:
    """Draw the noise factor G_f given the current residues.

    The last coordinate of nu is chi-distributed: chi_(j+1) under the
    Hankel-aware variant, chi_(ij-i+2) when entries are treated as
    independent. Writes the draw to state.g_f.
    """
    i, j = resid.shape
    if variant == "hankel_exact":
        omega = _omega_hankel(resid)
        chi_dof = j + 1
    elif variant == "independent":
        omega = _omega_independent(resid)
        chi_dof = i * j - i + 2
    else:
        raise ConfigError(f"unknown gf variant {variant!r}")
    nu = np.empty(i)
    nu[: i - 1] = rng.standard_normal(i - 1)
    nu[i - 1] = np.sqrt(rng.chisquare(chi_dof))
    g_f, _ = _gf_from_nu(omega, nu)
    state.g_f = g_f
    return g_f


def run_gibbs(data: HankelData, h_fp_hat: np.ndarray, h_f_hat: np.ndarray,
              config: GibbsConfig, rng: np.random.Generator) -> GibbsEstimate:
    """Run the chain and average Gamma_f L_p over iterations
    n_burn+1 .. n_total.

    With rao_blackwell=True each kept iteration contributes
    (E[Gamma^(n)] L^(n-1) + Gamma^(n) E[L^(n)]) / 2, using the conditional
    means computed alongside the draws. Divergence (non-finite draw) raises
    NumericalError with the iteration index.
    """
    state = init_gibbs(h_fp_hat, h_f_hat, data, config.rank)
    n_past = data.z_p.shape[0]
    accum = np.zeros((data.f * data.n_o, n_past))
    if config.n_burn == 0:
        # burn-in of zero keeps the deterministic first iterate as well
        accum += state.gamma_f @ state.l_p
    diagnostics = [float(np.linalg.norm(state.gamma_f @ state.l_p))]
    for n in range(2, config.n_total + 1):
        (gamma_mean, _), (gamma_draw, h_draw) = step_gamma_hf(state, data, rng)
        # each draw is checked before the next conditional consumes it, so a
        # blown-up iterate is reported here instead of deep inside a solver
        if not (np.isfinite(gamma_draw).all() and np.isfinite(h_draw).all()):
            raise NumericalError(f"chain diverged at iteration {n}")
        l_prev = state.l_p
        state.gamma_f = gamma_draw
        state.h_f = h_draw

        l_mean, l_draw = step_lp(state, data, rng)
        if not np.isfinite(l_draw).all():
            raise NumericalError(f"chain diverged at iteration {n}")
        state.l_p = l_draw

        resid = data.y_f - gamma_draw @ (l_draw @ data.z_p) - h_draw @ data.u_f
        step_gf(state, resid, rng, config.gf_variant)

        if not np.isfinite(state.g_f).all():
            raise NumericalError(f"chain diverged at iteration {n}")
        diagnostics.append(float(np.linalg.norm(gamma_draw @ l_draw)))
        if n > config.n_burn:
            if config.rao_blackwell:
                accum += (gamma_mean @ l_prev + gamma_draw @ l_mean) / 2.0
            else:
                accum += gamma_draw @ l_draw
    estimate = accum / (config.n_total - config.n_burn)
    return GibbsEstimate(h_fp_bayes=estimate, chain_diagnostics=np.asarray(diagnostics))
