"""Discrete-time LTI state-space models: random sampling, steady-state
Kalman gain, simulation, and the exact extended-model decomposition used as
ground truth by the benchmark.

Model convention (innovation / process-noise form):

    x[k+1] = A x[k] + B u[k] + w[k],   w ~ N(0, R_w)
    y[k]   = C x[k] + D u[k] + v[k],   v ~ N(0, R_v)

with steady-state innovation covariance Sigma and Kalman gain K so that the
equivalent predictor uses A_K = A - K C.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .linalg import frobenius, psd_sqrt

__all__ = [
    "StateSpaceModel",
    "SystemSpec",
    "TrueDecomposition",
    "kalman_gain",
    "sample_system",
    "simulate",
    "default_burn_in",
    "true_decomposition",
]

_RICCATI_TOL = 1e-12   # relative change of P at which kalman_gain stops
_RICCATI_MAX_ITER = 10000   # doubling steps kalman_gain takes before it gives up
_SAMPLE_TRIES = 50     # draws sample_system makes before it gives up
_BURN_IN_CAP = 10000   # longest burn-in default_burn_in returns


@dataclass(frozen=True)
class StateSpaceModel:
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    k: np.ndarray        # steady-state Kalman gain
    sigma: np.ndarray    # innovation covariance C P C' + R_v
    r_w: np.ndarray
    r_v: np.ndarray

    @property
    def n_x(self) -> int:
        return self.a.shape[0]

    @property
    def n_i(self) -> int:
        return self.b.shape[1]

    @property
    def n_o(self) -> int:
        return self.c.shape[0]

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.a))))

    def predictor_radius(self) -> float:
        return float(np.max(np.abs(np.linalg.eigvals(self.a - self.k @ self.c))))


@dataclass(frozen=True)
class SystemSpec:
    """Random-system sampling protocol for the benchmark."""

    nx_range: tuple[int, int] = (1, 10)
    n_i: int = 1
    n_o: int = 1
    snr_log10_range: tuple[float, float] = (-1.0, 2.0)


@dataclass(frozen=True)
class TrueDecomposition:
    """Exact extended-model matrices for horizons (f, p). The benchmark
    scores h_fp alone, so h_f and g_f are formed on first read."""

    model: StateSpaceModel
    gamma_f: np.ndarray   # (f*n_o, n_x) extended observability matrix
    l_p: np.ndarray       # (n_x, p*(n_i+n_o)) predictor reachability, [input block | output block]
    h_fp: np.ndarray      # gamma_f @ l_p
    f: int
    p: int

    @functools.cached_property
    def h_f(self) -> np.ndarray:
        """Lower block-triangular Toeplitz of {D, CB, CAB, ...}."""
        return _block_toeplitz(self._markov_blocks(self.model.d, self.model.b), self.f)

    @functools.cached_property
    def g_f(self) -> np.ndarray:
        """Noise Toeplitz of {I, CK, CAK, ...} times I_f (x) Sigma^(1/2)."""
        model = self.model
        blocks = self._markov_blocks(np.eye(model.n_o), model.k)
        return (_block_toeplitz(blocks, self.f)
                @ np.kron(np.eye(self.f), psd_sqrt(model.sigma)))

    def _markov_blocks(self, lead: np.ndarray, gain: np.ndarray) -> np.ndarray:
        """lead, then C A^r gain for r < f - 1 from the observability rows."""
        n_o = self.model.n_o
        later = self.gamma_f[:-n_o] @ gain
        return np.concatenate([lead[None], later.reshape(self.f - 1, n_o, gain.shape[1])])


def kalman_gain(a, c, r_w, r_v):
    """Steady-state Kalman gain by structured doubling.

    Solves P = A P A' - A P C' (C P C' + R_v)^-1 C P A' + R_w. Doubling step
    k holds E_k, G_k and P_k, where P_k is the fixed-point iterate 2^k steps
    from P = 0:

        W = I + G P,  E' = E W^-1 E,  G' = G + E W^-1 G E',  P' = P + E' P W^-1 E

    from E = A', G = C' R_v^-1 C, P = R_w, until the relative Frobenius change
    of P is at or below _RICCATI_TOL, or NumericalError after _RICCATI_MAX_ITER
    steps. R_v must be nonsingular. Returns (k, sigma) with sigma = C P C' + R_v
    and k = A P C' sigma^-1.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    r_w = np.atleast_2d(np.asarray(r_w, dtype=float))
    r_v = np.atleast_2d(np.asarray(r_v, dtype=float))
    n_x = a.shape[0]
    eye = np.eye(n_x)
    try:
        g = c.T @ np.linalg.solve(r_v, c)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"measurement noise covariance singular: {exc}") from exc
    e, p = a.T, r_w
    e_g = np.empty((n_x, 2 * n_x))   # [E, G], refilled every step
    residual = np.inf
    for _ in range(_RICCATI_MAX_ITER):
        e_g[:, :n_x] = e
        e_g[:, n_x:] = g
        try:
            # W^-1 [E, G] in one solve
            sol = np.linalg.solve(eye + g @ p, e_g)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"doubling step singular: {exc}") from exc
        w_e, w_g = sol[:, :n_x], sol[:, n_x:]
        p_new = p + e.T @ p @ w_e
        p_new = (p_new + p_new.T) / 2.0
        g = e @ w_g @ e.T + g
        g = (g + g.T) / 2.0
        e = e @ w_e
        residual = frobenius(p_new - p)
        p = p_new
        if residual <= _RICCATI_TOL * frobenius(p_new):
            sigma = c @ p @ c.T + r_v
            k = np.linalg.solve(sigma, (a @ p @ c.T).T).T
            return k, sigma
        if not np.isfinite(residual):
            break
    raise NumericalError(f"Riccati doubling did not converge: last residual {residual:.3e}")


def sample_system(spec: SystemSpec, rng: np.random.Generator):
    """Draw a random stable system plus benchmark sizes.

    Returns (model, snr, n_samples, i_horizon) where snr is the input
    variance (log10 uniform on the configured range), n_samples =
    floor(80 sqrt(n_x)) and i_horizon = floor(n_samples / 10).

    A is a standard normal matrix rescaled so its spectral radius equals a
    Uniform(0,1) draw; B, C are standard normal; D = 0; noise covariances are
    M M' for standard normal half-matrices M. Draws that produce a
    numerically nilpotent A or a failing Riccati solve are resampled, up to
    _SAMPLE_TRIES draws in all.
    """
    lo, hi = spec.nx_range
    for _ in range(_SAMPLE_TRIES):
        n_x = int(rng.integers(lo, hi + 1))
        a_raw = rng.standard_normal((n_x, n_x))
        lam_a = rng.uniform(0.0, 1.0)
        b = rng.standard_normal((n_x, spec.n_i))
        c = rng.standard_normal((spec.n_o, n_x))
        rv_half = rng.standard_normal((spec.n_o, spec.n_o))
        rw_half = rng.standard_normal((n_x, n_x))
        snr = float(10.0 ** rng.uniform(*spec.snr_log10_range))

        radius = float(np.max(np.abs(np.linalg.eigvals(a_raw))))
        if radius < 1e-8:
            continue
        a = a_raw / radius * lam_a
        r_v = rv_half @ rv_half.T
        r_w = rw_half @ rw_half.T
        if np.linalg.eigvalsh(r_v)[0] <= 1e-12 * max(np.linalg.norm(r_v), 1e-300):
            continue
        try:
            k, sigma = kalman_gain(a, c, r_w, r_v)
        except NumericalError:
            continue
        model = StateSpaceModel(
            a=a, b=b, c=c, d=np.zeros((spec.n_o, spec.n_i)),
            k=k, sigma=sigma, r_w=r_w, r_v=r_v,
        )
        n_samples = int(math.floor(80.0 * math.sqrt(n_x)))
        return model, snr, n_samples, n_samples // 10
    raise NumericalError(f"no valid system after {_SAMPLE_TRIES} attempts")


def default_burn_in(model: StateSpaceModel) -> int:
    """Burn-in long enough for near-stationarity: 10 ceil(1/(1-rho)),
    capped at _BURN_IN_CAP."""
    rho = model.spectral_radius()
    if rho >= 1.0:
        return _BURN_IN_CAP
    return int(min(_BURN_IN_CAP, 10 * math.ceil(1.0 / (1.0 - rho))))


def simulate(model: StateSpaceModel, inputs, rng: np.random.Generator,
             burn_in: int = 0) -> np.ndarray:
    """Simulate the model from x[0] = 0 over the full input sequence.

    The first burn_in steps are warm-up: the state evolves through them but
    their outputs are dropped, so the returned outputs align with
    inputs[burn_in:]. Noise draws are vectorised up front, which keeps the
    stream consumption independent of the state trajectory. The input terms
    B u and D u are formed for all steps at once. One loop runs the state
    recursion alone, writing A x[k], then + B u[k], then + w[k] into the next
    row of a state buffer. C x[k] is then formed for every kept step in one
    batched (1 x n_x)(n_x x n_o) product, before D u[k] + v[k] are added.
    Unlike a plain states @ C', the batched product rounds as a per-step
    C @ x[k] does, so the outputs keep their bits.
    """
    u = np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    t_total = u.shape[0]
    if not 0 <= burn_in < t_total:
        raise ValueError("burn_in must lie in [0, len(inputs))")
    w_half = psd_sqrt(model.r_w)
    v_half = psd_sqrt(model.r_v)
    w = rng.standard_normal((t_total, model.n_x)) @ w_half.T
    v = rng.standard_normal((t_total, model.n_o)) @ v_half.T
    a = model.a
    bu = u @ model.b.T
    du = u @ model.d.T
    states = np.zeros((t_total, model.n_x))
    for x, nxt, bu_t, w_t in zip(states, states[1:], bu, w):
        a.dot(x, out=nxt)
        nxt += bu_t
        nxt += w_t
    kept = states[burn_in:]
    cx = np.matmul(kept[:, None, :], model.c.T)[:, 0, :]
    return cx + du[burn_in:] + v[burn_in:]


def _block_toeplitz(blocks: np.ndarray, f: int) -> np.ndarray:
    """Lower block-triangular Toeplitz with blocks[m] on block subdiagonal m."""
    r, c = blocks.shape[1:]
    padded = np.concatenate([np.zeros((1, r, c)), blocks])
    lag = np.arange(f)[:, None] - np.arange(f)[None, :]
    # entry 0 of padded is the zero block above the diagonal
    tiles = padded[np.where(lag >= 0, lag + 1, 0)]
    return tiles.transpose(0, 2, 1, 3).reshape(f * r, f * c)


def _power_stack(first: np.ndarray, a: np.ndarray, count: int) -> np.ndarray:
    """The blocks first @ a^r for r = 0..count-1, stacked by rows, by
    repeated squaring: the blocks for r < m times a^m are those for
    m <= r < 2m, so log2(count) products fill them."""
    rows = first.shape[0]
    out = np.empty((count * rows, first.shape[1]))
    out[:rows] = first
    power, done = a, 1
    while done < count:
        take = min(done, count - done)
        np.matmul(out[:take * rows], power, out=out[done * rows:(done + take) * rows])
        done += take
        if done < count:
            power = power @ power
    return out


def true_decomposition(model: StateSpaceModel, f: int, p: int) -> TrueDecomposition:
    """Exact extended-model matrices at horizons (f, p).

    gamma_f stacks C A^r; l_p concatenates the input-driven and
    output-driven predictor reachability blocks (input block first, matching
    a past regressor stacked as [U_p; Y_p]); h_fp is their exact product.
    Both are built by repeated squaring (_power_stack): Gamma_f from C and
    A, and both reachability blocks in one recursion over the columns
    [B - KD, K] with A_K = A - KC, so a product reorders its terms against
    a loop of single powers but agrees with it to rounding.
    """
    if f < 1 or p < 1:
        raise ValueError("horizons must be positive")
    n_x = model.n_x
    if f <= n_x or p <= n_x:
        warnings.warn("horizons not larger than the state order; the extended "
                      "model truncation error may dominate", stacklevel=2)
    a, b, c, d, k = model.a, model.b, model.c, model.d, model.k
    gamma_f = _power_stack(c, a, f)
    # rows r: (A_K^r [B - KD, K])', from the transposed recursion; L_p' is
    # the input blocks, then the output blocks, each from r = p-1 down
    reach = _power_stack(np.concatenate((b - k @ d, k), axis=1).T, (a - k @ c).T, p)
    r = reach.reshape(p, -1, n_x)[::-1]
    l_p = np.concatenate((r[:, :model.n_i].reshape(-1, n_x),
                          r[:, model.n_i:].reshape(-1, n_x))).T
    return TrueDecomposition(model=model, gamma_f=gamma_f, l_p=l_p, h_fp=gamma_f @ l_p,
                             f=f, p=p)
