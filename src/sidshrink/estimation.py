"""Hankel-data assembly, least-squares estimation of the extended model,
noise estimation, weighting schemes, truncation, and order selection.

Data layout: given input/output samples u[k], y[k] (rows = time), the past
regressor stacks [U_p; Y_p] over the window k-p..k-1 and the future blocks
span k..k+f-1. The estimation target is the past-to-future map h_fp in

    Y_f = h_fp Z_p + h_f U_f + (noise),

fit jointly by least squares on the stacked regressor [Z_p; U_f].

Data ingestion format (shared with the CLI): delimited text, one row per
time step, header row with columns u_1..u_{n_i}, y_1..y_{n_o}. See dataio.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
# the weights call LAPACK directly, with the arguments scipy.linalg passes,
# so their bits are scipy's without the wrappers' checks and dispatch, a
# large share of these small factorisations
from scipy.linalg.lapack import dgesdd, dgesdd_lwork, dpotrf, dsyevr, dtrtrs

from .errors import DataError, NumericalError
from .linalg import checked, hankel_windows, toeplitz_project
from .shrinkage import soft_threshold_level

__all__ = [
    "HankelData",
    "LsEstimate",
    "NoiseEstimate",
    "WeightPair",
    "RankStar",
    "WeightedSvd",
    "assemble",
    "ls_estimate",
    "residues",
    "estimate_noise",
    "build_weights",
    "noise_level",
    "weighted_svd",
    "truncate_estimate",
    "rank_star",
    "order_heuristic_neff",
    "order_midpoint",
]

SCHEMES = ("identity", "cva", "n4sid")

# relative cutoff below which singular values are treated as zero
RCOND = 1e-10

SIGMA_FLOOR = 1e-12


@dataclass(frozen=True)
class HankelData:
    """Past/future block Hankel matrices of one realization: the rows of one
    stacked [Y_f; Z_p; U_f] array, Z_p = [U_p; Y_p], of which y_f, z_p, u_f
    and regressor = [Z_p; U_f] are row views formed on first read. Only this
    class knows that layout: row_slices gives its row ranges, and
    signal_windows the samples behind its rows, which the Hankel-aware
    noise update of the Gibbs chain reads. z_factor is the triangular
    factor of Z_p that the n4sid weights and the Gibbs chain share."""

    stacked: np.ndarray
    f: int
    p: int
    n_i: int
    n_o: int

    def __post_init__(self):
        if self.stacked.shape[0] != (self.f + self.p) * (self.n_i + self.n_o):
            raise ValueError("stacked must have (f + p)(n_i + n_o) rows")

    @functools.cached_property
    def row_slices(self) -> tuple[slice, slice, slice]:
        """The rows of Y_f, Z_p and U_f in stacked."""
        y_end = self.f * self.n_o
        z_end = y_end + self.p * (self.n_i + self.n_o)
        return slice(0, y_end), slice(y_end, z_end), slice(z_end, None)

    @functools.cached_property
    def y_f(self) -> np.ndarray:
        return self.stacked[self.row_slices[0]]

    @functools.cached_property
    def z_p(self) -> np.ndarray:
        return self.stacked[self.row_slices[1]]

    @functools.cached_property
    def u_f(self) -> np.ndarray:
        return self.stacked[self.row_slices[2]]

    @functools.cached_property
    def regressor(self) -> np.ndarray:
        """[Z_p; U_f], the rows the LS fit regresses Y_f on."""
        return self.stacked[self.row_slices[1].start:]

    @property
    def n_cols(self) -> int:
        return self.stacked.shape[1]

    @functools.cached_property
    def z_factor(self) -> np.ndarray:
        """Upper-triangular R of a thin QR of z_p', so that R'R = Z_p Z_p';
        formed on first read and shared read-only by the n4sid weights and
        the Gibbs chain. identity and cva never read it."""
        out = np.linalg.qr(self.z_p.T, mode="r")
        out.setflags(write=False)
        return out

    def signal_windows(self, n_lags: int) -> tuple[np.ndarray, np.ndarray]:
        """The T = N + f + p - 1 samples behind stacked, as windows.

        Returns (windows, base): windows[t, k * n_lags + l] is sample t + l
        of signal k (the n_i inputs, then the n_o outputs) for the
        T - n_lags + 1 windows that fit, and stacked row q holds signal k
        from lag l, base[q] = k * n_lags + l, so that stacked[q, t + d] =
        windows[t, base[q] + d]. Rows that are not windows of one record
        raise DataError; n_lags must lie in [f + p, T].
        """
        f, p, n_i, n_o, n = self.f, self.p, self.n_i, self.n_o, self.n_cols
        signal, lag = [], []
        # (first lag, block rows, channels, first signal) of Y_f, U_p, Y_p, U_f
        for first_lag, rows, n_ch, first_signal in (
                (p, f, n_o, n_i), (0, p, n_i, 0), (0, p, n_o, n_i), (p, f, n_i, 0)):
            q = np.arange(rows * n_ch)
            signal.append(first_signal + q % n_ch)
            lag.append(first_lag + q // n_ch)
        signal, lag = np.concatenate(signal), np.concatenate(lag)
        samples = np.empty((n + f + p - 1, n_i + n_o))
        samples[lag + n - 1, signal] = self.stacked[:, -1]
        first = lag == 0
        samples[:n, signal[first]] = self.stacked[first].T
        rebuilt = hankel_windows(samples, n)[lag, signal]
        # NaN samples are windows too; the exact test alone is the fast path
        if not (np.array_equal(rebuilt, self.stacked)
                or np.array_equal(rebuilt, self.stacked, equal_nan=True)):
            raise DataError("the stacked rows are not windows of one input/output record")
        if not f + p <= n_lags <= samples.shape[0]:
            raise ValueError(f"n_lags {n_lags} outside [{f + p}, {samples.shape[0]}]")
        n_windows = samples.shape[0] - n_lags + 1
        # built as the C-ordered transpose, so windows is in Fortran order,
        # the order LAPACK reads without a copy
        windows_t = hankel_windows(samples, n_windows).transpose(1, 0, 2)
        return windows_t.reshape(-1, n_windows).T, signal * n_lags + lag

    def full_rank_z_factor(self, caller: str) -> np.ndarray:
        """z_factor, or NumericalError naming the caller when Z_p is (near)
        rank deficient."""
        diag = np.abs(np.diag(self.z_factor))
        if diag.min() <= RCOND * diag.max():
            raise NumericalError(f"{caller}: Z_p is rank deficient")
        return self.z_factor


@dataclass(frozen=True)
class LsEstimate:
    h_fp_hat: np.ndarray
    h_f_hat: np.ndarray
    data: HankelData = field(repr=False, compare=False)

    @functools.cached_property
    def residues(self) -> np.ndarray:
        """Y_f - h_fp_hat Z_p - h_f_hat U_f, formed on first read: the
        pipeline never reads it (estimate_noise forms its own)."""
        return residues(self.data, self.h_fp_hat, self.h_f_hat)   # the module function


@dataclass(frozen=True)
class NoiseEstimate:
    g_hat_sq: np.ndarray   # residue covariance E E' / (j - dof)

    @property
    def g_f_hat(self) -> np.ndarray:
        """Toeplitz-projected Cholesky factor of g_hat_sq, formed on each read;
        rank_star's per-rank estimates never read it."""
        return toeplitz_project(_chol_psd(self.g_hat_sq))


@dataclass(frozen=True)
class WeightPair:
    """Row/column weights (w1, w2) for one scheme, with cached inverses.

    n_cols is the column count of the weighted estimate in the noise model:
    w2's own for identity and cva, N under n4sid, whose square w2 stands in
    for the 2p x N matrix Z_p with the same Frobenius norm of h w2 for
    every h.

    factor1 caches lambda_max(w2' (Z_p Pi Z_p')^-1 w2), Pi the orthogonal
    projector onto the complement of the future-input row space, for the
    noise-level computation: exactly 1.0 under cva, whose w2 is the
    symmetric root of Z_p Pi Z_p'; 1 / (1 - cos^2 theta_1) under n4sid,
    theta_1 the smallest principal angle between the row spaces of U_f and
    Z_p; and a congruence with Z_p Pi Z_p' under identity. It is None
    when Z_p Pi Z_p' is singular to working accuracy, 1 - cos^2 theta_1 at
    or below RCOND, under n4sid and identity alike.
    """

    w1: np.ndarray
    w2: np.ndarray
    w1_inv: np.ndarray
    w2_pinv: np.ndarray
    n_cols: int
    factor1: float | None = field(default=None, compare=False)

    def apply(self, h: np.ndarray) -> np.ndarray:
        return self.w1 @ h @ self.w2

    def unapply(self, m: np.ndarray) -> np.ndarray:
        return self.w1_inv @ m @ self.w2_pinv


@dataclass(frozen=True)
class RankStar:
    r_star: int
    sigma_level: float
    converged: bool


def assemble(u, y, f: int, p: int) -> HankelData:
    """Build the past/future Hankel blocks from aligned input/output samples.

    U_p spans samples k-p..k-1 and U_f spans k..k+f-1 for k = p, giving
    N = T - f - p + 1 columns. The windows of [u y], one strided view, are
    copied once into one C-contiguous [Y_f; U_p; Y_p; U_f] buffer, and every
    block, Z_p = [U_p; Y_p] included, is a row view of it.
    """
    u = np.asarray(u, dtype=float)
    y = np.asarray(y, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if y.ndim == 1:
        y = y[:, None]
    if u.shape[0] != y.shape[0]:
        raise DataError("inputs and outputs must have equal length")
    t = u.shape[0]
    if f < 1 or p < 1:
        raise ValueError("horizons must be positive")
    n = t - f - p + 1
    if n < 1:
        raise DataError(f"need at least f + p = {f + p} samples, have {t}")
    # f + p windows of [u y]: the first p are the past block rows, the rest the future
    n_i = u.shape[1]
    win = hankel_windows(np.concatenate((u, y), axis=1), n)
    parts = (win[p:, n_i:], win[:p, :n_i], win[:p, n_i:], win[p:, :n_i])  # Y_f, U_p, Y_p, U_f
    edges = np.cumsum([0] + [w.shape[0] * w.shape[1] for w in parts]).tolist()
    buf = np.empty((edges[-1], n))
    for win, a, b in zip(parts, edges, edges[1:]):
        buf[a:b].reshape(win.shape)[...] = win
    return HankelData(stacked=buf, f=f, p=p, n_i=n_i, n_o=y.shape[1])


def residues(data: HankelData, h_fp_hat: np.ndarray, h_f_hat: np.ndarray) -> np.ndarray:
    return data.y_f - h_fp_hat @ data.z_p - h_f_hat @ data.u_f


def ls_estimate(data: HankelData) -> LsEstimate:
    """Joint least squares of Y_f on the stacked regressor [Z_p; U_f].

    The stacked regressor must have full row rank within tolerance;
    otherwise NumericalError reports the condition number. Singular values
    below RCOND * s_max are treated as zero in the solve. A failed solve
    raises DataError when the stacked data hold a non-finite value (found
    only then, so finite data pay no check) and NumericalError otherwise.
    A non-finite value in Y_f alone does not fail the solve: it shows in
    the f x (2p + f) coefficients, which are checked instead of the N
    data columns, and raises DataError too.
    """
    try:
        coeff, _, _, svals = np.linalg.lstsq(data.regressor.T, data.y_f.T, rcond=RCOND)
    except np.linalg.LinAlgError as exc:
        if not np.isfinite(data.stacked).all():
            raise DataError("least squares: non-finite value in the stacked data") from exc
        raise NumericalError(f"least squares failed: {exc}") from exc
    if svals[-1] <= RCOND * svals[0]:
        cond = np.inf if svals[-1] == 0 else svals[0] / svals[-1]
        raise NumericalError(
            f"stacked regressor rank deficient (condition number {cond:.3e})"
        )
    if not np.isfinite(coeff).all():
        raise DataError("least squares: non-finite coefficients from a non-finite "
                        "or overflowing value in the data")
    coeff = coeff.T
    n_past = data.z_p.shape[0]
    h_fp_hat = coeff[:, :n_past]
    h_f_hat = coeff[:, n_past:]
    return LsEstimate(h_fp_hat=h_fp_hat, h_f_hat=h_f_hat, data=data)


def _chol_psd(m: np.ndarray) -> np.ndarray:
    """Cholesky factor with an escalating jitter fallback for semidefinite
    inputs (noise covariances can be numerically singular on near-noiseless
    data)."""
    a = (m + m.T) / 2.0
    scale = max(float(np.trace(a)) / a.shape[0], np.finfo(float).tiny)
    jitter = 0.0
    for _ in range(8):
        try:
            return np.linalg.cholesky(a + jitter * np.eye(a.shape[0]))
        except np.linalg.LinAlgError:
            jitter = scale * 1e-14 if jitter == 0.0 else jitter * 100.0
    raise NumericalError("residue covariance is not positive semidefinite")


def _dof(f: int, n_i: int, n_o: int, rank_used: int | None) -> int:
    if rank_used is None:
        return f * (n_o + 2 * n_i)
    r = rank_used
    full = f * (n_i + n_o)
    return f * n_i + full - (full - (f + n_i + n_o) * r + r * r)


def estimate_noise(data: HankelData, h_fp_hat: np.ndarray, h_f_hat: np.ndarray,
                   rank_used: int | None = None) -> NoiseEstimate:
    """Residue covariance; its Toeplitz-projected Cholesky factor is the
    g_f_hat property.

    The divisor j - dof uses the full regressor count when rank_used is
    None, otherwise the reduced count for a rank-r truncated estimate.
    """
    dof = _dof(data.f, data.n_i, data.n_o, rank_used)
    j = data.n_cols
    if j <= dof:
        raise DataError(f"too few columns for noise estimation: {j} <= dof {dof}")
    resid = residues(data, h_fp_hat, h_f_hat)
    g_hat_sq = resid @ resid.T / (j - dof)
    g_hat_sq = (g_hat_sq + g_hat_sq.T) / 2.0
    return NoiseEstimate(g_hat_sq=g_hat_sq)


def _zpz_perp(data: HankelData) -> tuple[np.ndarray, np.ndarray]:
    """(Z_p Pi Z_p', Z_p Z_p') with Pi the projector onto the orthogonal
    complement of the U_f row space, computed from an orthonormal basis of
    U_f' (no N x N projector is ever formed). The basis is
    scipy.linalg.orth(U_f') bit for bit: the left vectors of dgesdd's thin
    SVD whose values exceed max(M, N) eps s_1. Only cva (its w2) and
    identity (factor1) read them; n4sid needs no N x f basis."""
    a = data.u_f.T
    lwork = checked(dgesdd_lwork(*a.shape, compute_uv=1, full_matrices=0),
                    "SVD workspace of U_f'")
    svd = dgesdd(a, compute_uv=1, full_matrices=0, lwork=int(lwork))
    u, s = checked(svd, "SVD of U_f'"), svd[1]
    q = u[:, :np.sum(s > s.max(initial=0.0) * (np.finfo(float).eps * max(a.shape)))]
    zq = data.z_p @ q
    zz = data.z_p @ data.z_p.T
    out = zz - zq @ zq.T
    return (out + out.T) / 2.0, zz


def _identity_factor1(zpz: np.ndarray, zz: np.ndarray) -> float | None:
    """lambda_max((Z_p Pi Z_p')^-1), the identity weights' factor1, as the top
    eigenvalue of L^-1 L^-T, zpz = L L' (the congruence with w2 = I); None
    when Z_p Pi Z_p' is singular to working accuracy. L is C-ordered, so
    each solve hands dtrtrs L' as an upper factor with trans=1, as
    scipy.linalg.solve_triangular does.

    Whether that Cholesky happens to succeed on a singular Z_p Pi Z_p'
    depends on rounding, so singularity is decided, as under n4sid, from
    the share of Z_p's energy that the projection leaves: min over v of
    v'Z_p Pi Z_p'v / v'Z_p Z_p'v = 1 - cos^2 theta_1 =
    lambda_min(M^-1 (Z_p Pi Z_p') M^-T), zz = Z_p Z_p' = M M', at or
    below RCOND.
    """
    try:
        chol = np.linalg.cholesky(zpz)
    except np.linalg.LinAlgError:
        return None
    x = checked(dtrtrs(chol.T, np.eye(zpz.shape[0]), lower=0, trans=1), "L^-1 solve")
    gram = checked(dtrtrs(chol.T, x.T, lower=0, trans=1), "L^-1 L^-T solve")
    m = dpotrf(zz, lower=1)
    if m[-1] != 0:
        return None
    x = checked(dtrtrs(m[0], zpz, lower=1), "identity M^-1 Z_p Pi Z_p' solve")
    share = checked(dtrtrs(m[0], x.T, lower=1), "identity M^-1 Z_p Pi Z_p' M^-T solve")
    if np.linalg.eigvalsh((share + share.T) / 2.0)[0] <= RCOND:
        return None
    return float(np.linalg.eigvalsh((gram + gram.T) / 2.0)[-1])


def _n4sid_factor1(data: HankelData, r: np.ndarray) -> float | None:
    """lambda_max(w2' (Z_p Pi Z_p')^-1 w2) for the n4sid w2 = R', R'R =
    Z_p Z_p', from the f x (2p + f) product U_f [Z_p; U_f]', the only
    N-column work.

    With Z_p' = Q R and U_f' = Q_u L_u' (L_u L_u' = U_f U_f'), Z_p Pi Z_p'
    = R' (I - K'K) R for K = Q_u' Q = L_u^-1 (U_f Z_p') R^-1, whose
    singular values are the cosines of the principal angles between the
    row spaces of U_f and Z_p (Bjorck & Golub 1973). So the factor is
    1 / (1 - s_1^2), s_1^2 the top eigenvalue of K's smaller Gram, and
    None when 1 - s_1^2 <= RCOND: a Z_p direction lies in the U_f row
    space to working accuracy. U_f U_f' has U_f's singular values squared,
    so a Cholesky pivot at or below RCOND times the largest means U_f has
    no full row rank and raises NumericalError.
    """
    n_past = r.shape[0]
    cross = data.u_f @ data.regressor.T         # [U_f Z_p', U_f U_f']
    l_u = checked(dpotrf(cross[:, n_past:], lower=1), "n4sid Cholesky of U_f U_f'")
    pivots = np.diag(l_u) ** 2
    if pivots.min() <= RCOND * pivots.max():
        raise NumericalError("n4sid scheme: U_f is rank deficient")
    x = checked(dtrtrs(l_u, cross[:, :n_past], lower=1), "n4sid L_u^-1 U_f Z_p' solve")
    # K' from R' K' = X', R' the lower factor w2
    k_t = checked(dtrtrs(r.T, x.T, lower=1), "n4sid R'^-1 X' solve")
    gram = k_t.T @ k_t if k_t.shape[1] <= k_t.shape[0] else k_t @ k_t.T
    sine_sq = 1.0 - float(np.linalg.eigvalsh(gram)[-1])
    return 1.0 / sine_sq if sine_sq > RCOND else None


def build_weights(scheme: str, data: HankelData,
                  g_f_hat: np.ndarray | None = None) -> WeightPair:
    """Weight pair for one scheme.

    identity: w1 = I, w2 = I; factor1 from the congruence with
              Z_p Pi Z_p', None when the principal angle between U_f and
              Z_p leaves it singular (_identity_factor1).
    cva:      w1 = g_f_hat^-1, w2 = (Z_p Pi Z_p')^(1/2), the symmetric root
              from one eigh, so factor1 is 1.0 with no further factorisation.
    n4sid:    w1 = I, w2 = R' with R = data.z_factor, the triangular factor
              of a thin QR of Z_p', so that R'R = Z_p Z_p' and ||h R'|| =
              ||h Z_p|| for every h; w2_pinv is its triangular inverse, and
              factor1 = 1 / (1 - cos^2 theta_1) from the principal angles
              between U_f and Z_p (_n4sid_factor1), with no SVD of U_f'. A
              (near) rank-deficient Z_p or U_f raises NumericalError.

    The SVD, Cholesky and triangular solves call LAPACK directly and skip
    scipy's finiteness check, so the data must be finite; a nonzero LAPACK
    info raises NumericalError naming the step. The triangular factors
    g_f_hat and R are C-ordered, so each is solved as the transposed
    system.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    n_rows = data.f * data.n_o
    n_past = data.z_p.shape[0]
    eye_rows = np.eye(n_rows)
    if scheme == "n4sid":
        r = data.full_rank_z_factor("n4sid scheme")
        w2_pinv = checked(dtrtrs(r.T, np.eye(n_past), lower=1, trans=1),
                          "n4sid W2 inverse solve").T
        return WeightPair(w1=eye_rows, w2=r.T, w1_inv=eye_rows, w2_pinv=w2_pinv,
                          n_cols=data.n_cols, factor1=_n4sid_factor1(data, r))
    zpz, zz = _zpz_perp(data)
    if scheme == "identity":
        w1 = eye_rows
        w1_inv = eye_rows
        w2 = np.eye(n_past)
        w2_pinv = np.eye(n_past)
    else:  # cva
        if g_f_hat is None:
            raise ValueError("cva weights need g_f_hat")
        if np.min(np.abs(np.diag(g_f_hat))) <= RCOND * np.max(np.abs(np.diag(g_f_hat))):
            raise NumericalError("cva scheme: estimated noise factor is singular")
        w1 = checked(dtrtrs(g_f_hat.T, eye_rows, lower=0, trans=1), "cva W1 solve")
        w1_inv = np.asarray(g_f_hat, dtype=float)
        evals, evecs = np.linalg.eigh(zpz)
        if evals[0] <= RCOND * max(evals[-1], np.finfo(float).tiny):
            raise NumericalError("cva scheme: Z_p Pi Z_p' is singular")
        w2 = (evecs * np.sqrt(evals)) @ evecs.T
        w2_pinv = (evecs / np.sqrt(evals)) @ evecs.T
    return WeightPair(
        w1=w1, w2=w2, w1_inv=w1_inv, w2_pinv=w2_pinv, n_cols=n_past,
        # under cva zpz = V L V' and w2 = V L^(1/2) V', so w2' zpz^-1 w2 = I
        # exactly; the congruence would return 1 only to within ~1e-9
        factor1=1.0 if scheme == "cva" else _identity_factor1(zpz, zz),
    )


def noise_level(weights: WeightPair, g_hat_sq: np.ndarray) -> float:
    """Scalar noise level of the weighted estimate:

        sigma^2 = lambda_max(w2' (Z_p Pi Z_p')^-1 w2) * lambda_max(w1 GG' w1')

    floored at SIGMA_FLOOR so thresholds stay finite on noiseless data. The
    first factor is weights.factor1, 1.0 under cva, so there sigma^2 =
    lambda_max(w1 GG' w1'). The second is LAPACK dsyevr's top eigenvalue
    alone, which costs about half of a full eigvalsh at f = 20.
    """
    if weights.factor1 is None:
        raise NumericalError("noise level undefined: Z_p Pi Z_p' is singular")
    m = weights.w1 @ g_hat_sq @ weights.w1.T
    n = m.shape[0]
    factor2 = float(checked(dsyevr((m + m.T) / 2.0, compute_v=0, range="I", il=n, iu=n),
                            "noise level eigenvalue")[0])
    if factor2 < 0.0:
        factor2 = 0.0
    return max(math.sqrt(weights.factor1 * factor2), SIGMA_FLOOR)


@dataclass(frozen=True)
class WeightedSvd:
    """The factorisation of the weighted LS estimate m = w1 H w2, formed
    once per identification: u and vt from a thin SVD, and values, the one
    spectrum that r*, the order rules, truncation and the shrinkers read,
    from a values-only SVD. The thin SVD's own values differ by up to
    2.7e-15 s_1, and order_heuristic_neff of those keeps another order on
    16 of the 300 cva acceptance realizations.

    shape is the estimate's shape in the noise model, (rows, weights.n_cols),
    which sets every threshold; it is m.shape except under n4sid. There the
    factorisation is zero-padded to min(shape) values when m has fewer
    columns than rows: the wide W1 H Z_p has rank at most the row count of
    Z_p, and its further values are rounding noise.
    """

    shape: tuple[int, int]
    values: np.ndarray
    u: np.ndarray
    vt: np.ndarray


def weighted_svd(h_fp_hat: np.ndarray, weights: WeightPair) -> WeightedSvd:
    """Weight the LS estimate and factor it: thin SVD vectors, values only."""
    m = weights.apply(h_fp_hat)
    u, _, vt = np.linalg.svd(m, full_matrices=False)
    values = np.linalg.svd(m, compute_uv=False)
    shape = (m.shape[0], weights.n_cols)
    pad = min(shape) - values.size
    if pad > 0:
        values = np.pad(values, (0, pad))
        u, vt = np.pad(u, ((0, 0), (0, pad))), np.pad(vt, ((0, pad), (0, 0)))
    return WeightedSvd(shape=shape, values=values, u=u, vt=vt)


def truncate_estimate(estimate: WeightedSvd | np.ndarray, weights: WeightPair,
                      r: int) -> np.ndarray:
    """Best rank-r approximation in the weighted norm, mapped back to the
    original coordinates. A raw estimate is factored first."""
    svd = weighted_svd(estimate, weights) if isinstance(estimate, np.ndarray) else estimate
    if not 1 <= r <= svd.values.size:
        raise ValueError(f"rank {r} outside [1, {svd.values.size}]")
    m_r = (svd.u[:, :r] * svd.values[:r]) @ svd.vt[:r]
    return weights.unapply(m_r)


def rank_star(data: HankelData, ls: LsEstimate, weights: WeightPair,
              svd: WeightedSvd | None = None) -> RankStar:
    """Self-consistent truncation rank.

    For each candidate rank r the estimate is truncated, the noise factor
    and level are re-estimated from the truncated residues (reduced dof),
    and the soft threshold is recomputed; r* is the smallest r for which the
    number of weighted singular values above the threshold drops below r.
    If no rank satisfies the rule the full rank is returned with
    converged=False. `svd` is weighted_svd(ls.h_fp_hat, weights), formed
    here when not given.
    """
    if svd is None:
        svd = weighted_svd(ls.h_fp_hat, weights)
    dim_i, dim_j = min(svd.shape), max(svd.shape)
    for r in range(1, dim_i + 1):
        h_trunc = truncate_estimate(svd, weights, r)
        noise = estimate_noise(data, h_trunc, ls.h_f_hat, rank_used=r)
        sigma_r = noise_level(weights, noise.g_hat_sq)
        if np.count_nonzero(svd.values > soft_threshold_level(dim_i, dim_j, sigma_r)) < r:
            return RankStar(r_star=r, sigma_level=sigma_r, converged=True)
    return RankStar(r_star=dim_i, sigma_level=sigma_r, converged=False)


def order_heuristic_neff(s) -> int:
    """Order estimate from an effective-count tail fit.

    n_eff = (sum s)^2 / sum s^2 is rounded down; a line is fit to
    ln s_l on l = floor(n_eff)+1 .. i (1-based), and the estimate is the
    largest l whose singular value lies strictly above the fitted line.
    Degenerate fits (fewer than 2 usable points) fall back to floor(n_eff).
    """
    s = np.asarray(s, dtype=float)
    if np.sum(s > 0) < 3:
        raise DataError("order_heuristic_neff needs at least 3 positive singular values, "
                        f"got {int(np.sum(s > 0))}")
    total = float(np.sum(s))
    n_eff = total * total / float(np.sum(s * s))
    m = int(math.floor(n_eff))
    i = s.shape[0]
    ell = np.arange(m + 1, i + 1)
    tail = s[m:]
    keep = tail > 0
    if np.sum(keep) < 2:
        return max(1, min(m, i))
    slope, intercept = np.polyfit(ell[keep], np.log(tail[keep]), 1)
    fitted = np.exp(slope * np.arange(1, i + 1) + intercept)
    above = np.nonzero(s > fitted)[0]
    if above.size == 0:
        return max(1, min(m, i))
    return int(above[-1] + 1)


def order_midpoint(s) -> int:
    """Order estimate by the log-midpoint rule: the largest l with
    s_l strictly above exp((ln s_1 + ln s_i)/2). A zero trailing value is
    substituted by the smallest positive value times 1e-3."""
    s = np.asarray(s, dtype=float)
    if s.size < 2 or s[0] <= 0:
        return 1
    s_last = s[-1]
    if s_last <= 0:
        positive = s[s > 0]
        s_last = float(positive.min()) * 1e-3
    thr = math.exp((math.log(s[0]) + math.log(s_last)) / 2.0)
    above = np.nonzero(s > thr)[0]
    if above.size == 0:
        return 1
    return int(above[-1] + 1)
