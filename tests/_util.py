"""Shared helpers for the test suite."""
import warnings

import numpy as np

from sidshrink.estimation import assemble
from sidshrink.linalg import psd_sqrt
from sidshrink.systems import StateSpaceModel, kalman_gain, simulate


def siso_model(a, b, c, r_w, r_v, d=None):
    """StateSpaceModel from raw matrices; K and Sigma come from the DARE."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float).reshape(a.shape[0], -1)
    c = np.asarray(c, dtype=float).reshape(-1, a.shape[0])
    r_w = np.atleast_2d(np.asarray(r_w, dtype=float))
    r_v = np.atleast_2d(np.asarray(r_v, dtype=float))
    if d is None:
        d = np.zeros((c.shape[0], b.shape[1]))
    k, sigma = kalman_gain(a, c, r_w, r_v)
    return StateSpaceModel(a=a, b=b, c=c, d=np.atleast_2d(d), k=k,
                           sigma=sigma, r_w=r_w, r_v=r_v)


def shift_model(n_x):
    """Noiseless model with nilpotent A (lower shift): A^n_x = 0 exactly,
    so the past-horizon truncation bias vanishes for p >= n_x."""
    a = np.diag(np.ones(n_x - 1), -1) if n_x > 1 else np.zeros((1, 1))
    return StateSpaceModel(
        a=a, b=np.ones((n_x, 1)), c=np.ones((1, n_x)), d=np.zeros((1, 1)),
        k=np.zeros((n_x, 1)), sigma=np.zeros((1, 1)),
        r_w=np.zeros((n_x, n_x)), r_v=np.zeros((1, 1)))


def sim_dataset(model, n_cols, f, p, rng, burn_in=0, u_std=1.0):
    """Simulate and assemble: returns (u, y, HankelData) with n_cols columns."""
    t = f + p + n_cols - 1 + burn_in
    u = rng.standard_normal(t) * u_std
    y = simulate(model, u, rng, burn_in=burn_in)
    return u[burn_in:], y, assemble(u[burn_in:], y, f, p)


def simulate_per_step(model, inputs, rng, burn_in):
    """Reference: the per-step loop that forms every output, burn-in
    included, from C x + D u + v and then advances the state."""
    u = np.asarray(inputs, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    t_total = u.shape[0]
    w = rng.standard_normal((t_total, model.n_x)) @ psd_sqrt(model.r_w).T
    v = rng.standard_normal((t_total, model.n_o)) @ psd_sqrt(model.r_v).T
    x = np.zeros(model.n_x)
    y = np.empty((t_total, model.n_o))
    a, b, c, d = model.a, model.b, model.c, model.d
    for t in range(t_total):
        y[t] = c @ x + d @ u[t] + v[t]
        x = a @ x + b @ u[t] + w[t]
    return y[burn_in:]


def quiet_decomposition(model, f, p):
    """true_decomposition silencing the short-horizon warning on purpose-built
    nilpotent instances where f = p = n_x."""
    from sidshrink.systems import true_decomposition
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return true_decomposition(model, f, p)


def projection_gap(data, h_fp_hat):
    """Relative gap between the pinv-based estimate and the explicit
    oblique-projection formula Y_f Pi Z' (Z Pi Z')^-1."""
    q, _ = np.linalg.qr(data.u_f.T)
    pi_perp = np.eye(data.n_cols) - q @ q.T
    zpz = data.z_p @ pi_perp @ data.z_p.T
    h_proj = np.linalg.solve(zpz.T, (data.y_f @ pi_perp @ data.z_p.T).T).T
    return np.linalg.norm(h_proj - h_fp_hat) / max(np.linalg.norm(h_proj), 1e-300)


def mann_kendall_z(x):
    """Normal-approximation Mann-Kendall trend statistic (no tie correction)."""
    x = np.asarray(x, dtype=float)
    n = x.size
    s = 0.0
    for k in range(n - 1):
        s += np.sign(x[k + 1:] - x[k]).sum()
    var_s = n * (n - 1) * (2 * n + 5) / 18.0
    if s > 0:
        s -= 1.0
    elif s < 0:
        s += 1.0
    return s / np.sqrt(var_s)


def truth_power_loop(model, f, p):
    """Reference: Gamma_f and L_p from one power of A or A_K at a time,
    [A_K^(p-1) B_K, ..., A_K B_K, B_K] for B_K = B - KD and then for K."""
    a, b, c, d, k = model.a, model.b, model.c, model.d, model.k
    a_k = a - k @ c
    obs = [c]
    for _ in range(f - 1):
        obs.append(obs[-1] @ a)

    def reach(bmat):
        cols = [bmat]
        for _ in range(p - 1):
            cols.append(a_k @ cols[-1])
        return np.hstack(cols[::-1])

    return np.vstack(obs), np.hstack([reach(b - k @ d), reach(k)])
