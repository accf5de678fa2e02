import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from _util import quiet_decomposition, shift_model, sim_dataset, simulate_per_step, siso_model
from sidshrink.systems import (
    SystemSpec,
    default_burn_in,
    kalman_gain,
    sample_system,
    simulate,
    true_decomposition,
)


def _random_stable(rng, n_x, n_o=1, rho=0.8):
    a = rng.standard_normal((n_x, n_x))
    a *= rho / max(np.abs(np.linalg.eigvals(a)))
    c = rng.standard_normal((n_o, n_x))
    m = rng.standard_normal((n_x, n_x))
    r_w = m @ m.T
    mv = rng.standard_normal((n_o, n_o))
    r_v = mv @ mv.T + 0.1 * np.eye(n_o)
    return a, c, r_w, r_v


def test_kalman_gain_matches_riccati_solver():
    # reference: scipy DARE on the dual (filtering) problem
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a, c, r_w, r_v = _random_stable(rng, 4)
        k, sigma = kalman_gain(a, c, r_w, r_v)
        p = scipy.linalg.solve_discrete_are(a.T, c.T, r_w, r_v)
        sigma_ref = c @ p @ c.T + r_v
        k_ref = a @ p @ c.T @ np.linalg.inv(sigma_ref)
        assert np.allclose(k, k_ref, atol=1e-8 * max(1.0, np.abs(k_ref).max()))
        assert np.allclose(sigma, sigma_ref, rtol=1e-8)


def test_kalman_gain_stabilizes_predictor():
    for seed in range(5):
        rng = np.random.default_rng(10 + seed)
        a, c, r_w, r_v = _random_stable(rng, 3)
        k, sigma = kalman_gain(a, c, r_w, r_v)
        assert max(np.abs(np.linalg.eigvals(a - k @ c))) < 1.0
        assert np.allclose(sigma, sigma.T)
        assert np.linalg.eigvalsh(sigma)[0] > 0.0


def test_sample_system_respects_protocol():
    rng = np.random.default_rng(0)
    spec = SystemSpec()
    for _ in range(20):
        model, snr, n_samples, i_horizon = sample_system(spec, rng)
        n_x = model.n_x
        assert 1 <= n_x <= 10
        assert n_samples == int(np.floor(80.0 * np.sqrt(n_x)))
        assert i_horizon == n_samples // 10
        assert 0.1 <= snr <= 100.0
        assert np.all(model.d == 0.0)
        assert max(np.abs(np.linalg.eigvals(model.a))) < 1.0
        assert max(np.abs(np.linalg.eigvals(model.a - model.k @ model.c))) < 1.0


def test_sample_system_is_deterministic():
    spec = SystemSpec()
    m1, snr1, n1, i1 = sample_system(spec, np.random.default_rng(7))
    m2, snr2, n2, i2 = sample_system(spec, np.random.default_rng(7))
    assert snr1 == snr2 and n1 == n2 and i1 == i2
    assert np.array_equal(m1.a, m2.a) and np.array_equal(m1.k, m2.k)


def test_default_burn_in_formula():
    model = siso_model([[0.5]], [[1.0]], [[1.0]], [[0.1]], [[0.1]])
    assert default_burn_in(model) == 20  # 10 * ceil(1 / 0.5)
    slow = siso_model([[0.99999]], [[1.0]], [[1.0]], [[0.1]], [[0.1]])
    assert default_burn_in(slow) == 10000  # cap


def test_simulate_noiseless_impulse_gives_markov_parameters():
    model = shift_model(3)
    u = np.zeros(12)
    u[0] = 1.0
    y = simulate(model, u, np.random.default_rng(0))
    assert y[0, 0] == 0.0  # D = 0
    for m in range(1, 12):
        a_pow = np.linalg.matrix_power(model.a, m - 1)
        assert y[m, 0] == pytest.approx((model.c @ a_pow @ model.b)[0, 0], abs=1e-12)


def test_simulate_burn_in_drops_exact_prefix():
    # noise draws are vectorised up front, so the stream does not depend on
    # where the output window starts
    model = siso_model([[0.5]], [[1.0]], [[1.0]], [[0.2]], [[0.3]])
    u = np.random.default_rng(1).standard_normal(50)
    full = simulate(model, u, np.random.default_rng(9), burn_in=0)
    tail = simulate(model, u, np.random.default_rng(9), burn_in=7)
    assert np.array_equal(tail, full[7:])


def test_simulate_variance_matches_lyapunov():
    a = np.array([[0.6, 0.2], [0.0, 0.4]])
    b = np.array([[1.0], [0.5]])
    c = np.array([[1.0, -0.7]])
    model = siso_model(a, b, c, 0.2 * np.eye(2), [[0.3]])
    su = 1.5
    px = scipy.linalg.solve_discrete_lyapunov(a, b @ b.T * su**2 + model.r_w)
    var_true = float((c @ px @ c.T + model.r_v)[0, 0])
    rng = np.random.default_rng(21)
    y = simulate(model, rng.standard_normal(30000) * su, rng, burn_in=300)
    assert np.var(y) == pytest.approx(var_true, rel=0.05)


def test_simulate_protocol_systems_match_per_step_loop_exactly():
    # the benchmark's risks and orders depend on these outputs bit for bit
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model, snr, n_samples, horizon = sample_system(SystemSpec(), rng)
        burn = default_burn_in(model)
        assert burn > 0 and not model.d.any()
        u = rng.normal(0.0, math.sqrt(snr), size=(burn + n_samples + 2 * horizon, 1))
        y = simulate(model, u, np.random.default_rng(100 + seed), burn_in=burn)
        ref = simulate_per_step(model, u, np.random.default_rng(100 + seed), burn)
        assert np.array_equal(y, ref)


def test_simulate_mimo_with_feedthrough_matches_per_step_loop():
    # B u and D u sum two products, which may round differently when formed
    # for all steps at once
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model, *_ = sample_system(SystemSpec(n_i=2, n_o=2), rng)
        model = dataclasses.replace(model, d=rng.standard_normal((2, 2)))
        u = rng.standard_normal((150, 2))
        y = simulate(model, u, np.random.default_rng(seed), burn_in=25)
        ref = simulate_per_step(model, u, np.random.default_rng(seed), 25)
        assert y.shape == ref.shape == (125, 2)
        np.testing.assert_allclose(y, ref, rtol=1e-13, atol=1e-13 * np.abs(ref).max())


def test_simulate_rejects_bad_burn_in():
    model = shift_model(2)
    with pytest.raises(ValueError):
        simulate(model, np.zeros(5), np.random.default_rng(0), burn_in=5)


def test_true_decomposition_blocks():
    rng = np.random.default_rng(2)
    a, c, r_w, r_v = _random_stable(rng, 3)
    b = rng.standard_normal((3, 1))
    model = siso_model(a, b, c, r_w, r_v)
    f, p = 4, 5
    td = true_decomposition(model, f, p)

    # observability stack
    for r in range(f):
        assert np.allclose(td.gamma_f[r], c @ np.linalg.matrix_power(a, r))

    # h_fp factors through the predictor reachability map
    assert np.allclose(td.h_fp, td.gamma_f @ td.l_p, atol=1e-12)

    # predictor form: A_K = A - KC, B_K = [B - KD, K], input block first
    a_k = a - model.k @ c
    b_u = b - model.k @ model.d
    for q in range(p):
        pw = np.linalg.matrix_power(a_k, p - 1 - q)
        assert np.allclose(td.l_p[:, q:q + 1], pw @ b_u)
        assert np.allclose(td.l_p[:, p + q:p + q + 1], pw @ model.k)

    # h_f lower block Toeplitz of {D, CB, CAB, ...}
    for r in range(f):
        for q in range(f):
            block = td.h_f[r:r + 1, q:q + 1]
            if r == q:
                assert np.allclose(block, model.d)
            elif r > q:
                pw = np.linalg.matrix_power(a, r - q - 1)
                assert np.allclose(block, c @ pw @ b)
            else:
                assert np.all(block == 0.0)

    # g_f: Toeplitz of {I, CK, CAK, ...} times sqrt of the innovation cov
    sig_half = scipy.linalg.sqrtm(model.sigma).real
    for r in range(f):
        for q in range(f):
            block = td.g_f[r:r + 1, q:q + 1]
            if r == q:
                assert np.allclose(block, sig_half)
            elif r > q:
                pw = np.linalg.matrix_power(a, r - q - 1)
                assert np.allclose(block, c @ pw @ model.k @ sig_half)
            else:
                assert np.all(block == 0.0)


def test_h_fp_rank_equals_state_order():
    f = p = 3
    for n_x in (1, 2, 3):
        for seed in range(4):
            rng = np.random.default_rng(100 + 10 * n_x + seed)
            a, c, r_w, r_v = _random_stable(rng, n_x)
            b = rng.standard_normal((n_x, 1))
            model = siso_model(a, b, c, r_w, r_v)
            td = quiet_decomposition(model, f, p)
            s = np.linalg.svd(td.h_fp, compute_uv=False)
            rank = int(np.sum(s > 1e-10 * s[0]))
            assert rank == n_x


def test_shift_model_prediction_is_exact():
    # nilpotent A with f = p = n_x: zero truncation bias, so the finite
    # predictor reproduces the noiseless output exactly
    n_x = 3
    model = shift_model(n_x)
    td = quiet_decomposition(model, n_x, n_x)
    rng = np.random.default_rng(3)
    u, y, data = sim_dataset(model, 50, n_x, n_x, rng)
    pred = td.h_fp @ data.z_p + td.h_f @ data.u_f
    assert np.allclose(pred, data.y_f, atol=1e-12)
