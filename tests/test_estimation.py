import re

import hypothesis
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg

from _util import projection_gap, quiet_decomposition, shift_model, sim_dataset, siso_model
from sidshrink.bayes import init_gibbs
from sidshrink.bench import draw_realization
from sidshrink import estimation
from sidshrink.errors import DataError, NumericalError
from sidshrink.estimation import (
    HankelData,
    _dof,
    _max_eig_congruence,
    _zpz_perp,
    assemble,
    build_weights,
    estimate_noise,
    ls_estimate,
    noise_level,
    order_heuristic_neff,
    order_midpoint,
    rank_star,
    residues,
    truncate_estimate,
    weighted_svd,
)
from sidshrink.linalg import build_hankel
from sidshrink.shrinkage import soft_threshold_level
from sidshrink.systems import true_decomposition


def _random_dataset(seed, f=3, p=3, n_cols=60):
    """Small stable SISO realization for property checks."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 2))
    a *= 0.7 / max(np.abs(np.linalg.eigvals(a)))
    model = siso_model(a, rng.standard_normal((2, 1)), rng.standard_normal((1, 2)),
                       np.eye(2) * 0.3, [[0.4]])
    _, _, data = sim_dataset(model, n_cols, f, p, rng, burn_in=50)
    return data


def _synthetic(seed, f, p, j, noise=0.05, svals=(30.0, 20.0)):
    """HankelData with y_f built from an explicit low-rank map of z_p."""
    rng = np.random.default_rng(seed)
    row_scale = np.linspace(1.0, 0.3, 2 * p)
    z = rng.standard_normal((2 * p, j)) * row_scale[:, None]
    u_f = rng.standard_normal((f, j))
    q1, _ = np.linalg.qr(rng.standard_normal((f, len(svals))))
    q2, _ = np.linalg.qr(rng.standard_normal((2 * p, len(svals))))
    h = (q1 * np.asarray(svals)) @ q2.T
    y_f = h @ z + noise * rng.standard_normal((f, j))
    data = HankelData(stacked=np.vstack([y_f, z, u_f]), f=f, p=p, n_i=1, n_o=1)
    return data, h


# ---------------------------------------------------------------- assemble

def test_assemble_ramp_layout():
    u = np.arange(8.0)
    y = 2.0 * np.arange(8.0) + 1.0
    data = assemble(u, y, f=2, p=2)
    assert data.n_cols == 5
    # z_p stacks U_p on top of Y_p
    assert np.array_equal(data.z_p[:2, 0], [0, 1])
    assert np.array_equal(data.u_f[:, 0], [2, 3])
    assert np.array_equal(data.z_p[2:, 0], [1, 3])
    assert np.array_equal(data.y_f[:, 0], [5, 7])
    # columns slide by one sample
    assert np.array_equal(data.z_p[:2, 1], [1, 2])


def test_assemble_boundary_and_errors():
    data = assemble(np.arange(5.0), np.arange(5.0), f=2, p=3)
    assert data.n_cols == 1
    with pytest.raises(DataError):
        assemble(np.arange(4.0), np.arange(4.0), f=2, p=3)
    with pytest.raises(DataError):
        assemble(np.arange(6.0), np.arange(5.0), f=2, p=2)
    with pytest.raises(ValueError):
        assemble(np.arange(6.0), np.arange(6.0), f=0, p=2)


@pytest.mark.parametrize("n_i, n_o, one_dim", [(1, 1, True), (1, 1, False), (2, 2, False)])
def test_assemble_blocks_are_row_views_of_one_buffer(n_i, n_o, one_dim):
    rng = np.random.default_rng(5 + n_i)
    t, f, p = 57, 4, 3
    u = rng.standard_normal((t, n_i))
    y = rng.standard_normal((t, n_o))
    data = assemble(u[:, 0] if one_dim else u, y[:, 0] if one_dim else y, f, p)
    n = t - f - p + 1
    buf = data.stacked
    assert buf.flags.c_contiguous and buf.shape == ((f + p) * (n_i + n_o), n)
    for block in (data.y_f, data.z_p, data.u_f, data.regressor):
        assert block.base is buf
    # [Y_f; U_p; Y_p; U_f], each block bit for bit the build_hankel copy
    u_p, y_p = build_hankel(u, p, n, 0), build_hankel(y, p, n, 0)
    same = np.vstack([build_hankel(y, f, n, p), u_p, y_p, build_hankel(u, f, n, p)])
    assert np.array_equal(buf.view(np.uint64), same.view(np.uint64))
    # the two row halves of Z_p
    assert np.array_equal(data.z_p[:p * n_i], u_p) and np.array_equal(data.z_p[p * n_i:], y_p)
    assert np.array_equal(data.regressor, buf[f * n_o:])


@st.composite
def _records(draw):
    """(u, y, f, p): a record of T >= f + p samples, n_i inputs and n_o
    outputs, with any float values, nan and inf included."""
    f, p = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    t = f + p + draw(st.integers(0, 20))
    u = draw(hnp.arrays(np.float64, (t, draw(st.integers(1, 3))), elements=st.floats()))
    y = draw(hnp.arrays(np.float64, (t, draw(st.integers(1, 3))), elements=st.floats()))
    return u, y, f, p


@hypothesis.given(_records())
def test_assemble_row_views_are_the_build_hankel_blocks(record):
    u, y, f, p = record
    data = assemble(u, y, f, p)
    n = u.shape[0] - f - p + 1
    blocks = {"y_f": build_hankel(y, f, n, p), "u_f": build_hankel(u, f, n, p),
              "z_p": np.vstack([build_hankel(u, p, n, 0), build_hankel(y, p, n, 0)])}
    blocks["regressor"] = np.vstack([blocks["z_p"], blocks["u_f"]])
    for name, block in blocks.items():
        view = getattr(data, name)
        assert np.shares_memory(view, data.stacked)
        assert np.array_equal(view.view(np.uint64), block.view(np.uint64)), name


@pytest.mark.parametrize("n_i, n_o, n_lags", [(1, 1, 7), (1, 1, 12), (2, 3, 10), (1, 2, 57)])
def test_signal_windows_are_the_samples_behind_the_rows(n_i, n_o, n_lags):
    rng = np.random.default_rng(n_i + 4 * n_o)
    t, f, p = 57, 4, 3
    u, y = rng.standard_normal((t, n_i)), rng.standard_normal((t, n_o))
    data = assemble(u, y, f, p)
    windows, base = data.signal_windows(n_lags)
    signals = np.hstack([u, y])
    assert windows.shape == (t - n_lags + 1, (n_i + n_o) * n_lags)
    for k in range(n_i + n_o):
        assert np.array_equal(windows[:, k * n_lags:(k + 1) * n_lags],
                              build_hankel(signals[:, k], t - n_lags + 1, n_lags))
    # stacked[q, t + d] = windows[t, base[q] + d] wherever both exist
    for q in range(data.stacked.shape[0]):
        for d in range(n_lags - base[q] % n_lags):
            m = min(windows.shape[0], data.n_cols - d)
            assert np.array_equal(data.stacked[q, d:d + m], windows[:m, base[q] + d])
    with pytest.raises(ValueError, match="n_lags"):
        data.signal_windows(f + p - 1)
    with pytest.raises(ValueError, match="n_lags"):
        data.signal_windows(t + 1)


def test_signal_windows_reject_rows_that_are_not_windows():
    rng = np.random.default_rng(2)
    u, y = rng.standard_normal(40), rng.standard_normal(40)
    data = assemble(u, y, 3, 2)
    nan_data = assemble(u, np.where(np.arange(40) == 17, np.nan, y), 3, 2)
    assert np.isnan(nan_data.signal_windows(8)[0]).any()
    for stacked in (data.stacked[:, ::-1], data.stacked[[1, 0, *range(2, 10)]],
                    data.stacked + np.eye(10, data.n_cols, 5) * 1e-12):
        bad = HankelData(stacked=np.ascontiguousarray(stacked), f=3, p=2, n_i=1, n_o=1)
        with pytest.raises(DataError, match="not windows"):
            bad.signal_windows(8)


def test_hand_built_blocks_are_row_views_of_stacked():
    f, p = 3, 2
    stacked = np.random.default_rng(0).standard_normal((10, 30))
    data = HankelData(stacked=stacked, f=f, p=p, n_i=1, n_o=1)
    assert data.n_cols == 30
    for block, rows in ((data.y_f, slice(0, 3)), (data.z_p, slice(3, 7)),
                        (data.u_f, slice(7, 10)), (data.regressor, slice(3, 10))):
        assert np.shares_memory(block, stacked)
        assert np.array_equal(block, stacked[rows])
    with pytest.raises(ValueError):
        HankelData(stacked=stacked[:9], f=f, p=p, n_i=1, n_o=1)


def test_ls_residues_are_formed_on_read():
    data = _random_dataset(4)
    ls = ls_estimate(data)
    assert "residues" not in vars(ls)
    assert np.array_equal(ls.residues, residues(data, ls.h_fp_hat, ls.h_f_hat))
    assert ls.residues is ls.residues


# -------------------------------------------------------------- ls_estimate

def _record_with_nan(seed=0, t=60, at=20):
    rng = np.random.default_rng(seed)
    u, y = rng.standard_normal(t), rng.standard_normal(t)
    y[at] = np.nan
    return assemble(u, y, 3, 3)


def test_ls_on_non_finite_data_is_a_data_error():
    with pytest.raises(DataError, match="non-finite"):
        ls_estimate(_record_with_nan())


def test_ls_with_a_non_finite_y_f_alone_is_a_data_error():
    # a finite regressor solves; the nan shows only in the coefficients
    data = _record_with_nan(at=-1)
    assert np.isfinite(data.regressor).all()
    with pytest.raises(DataError, match="non-finite"):
        ls_estimate(data)


def test_ls_failure_on_finite_data_is_a_numerical_error(monkeypatch):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    monkeypatch.setattr(np.linalg, "lstsq", failing)
    rng = np.random.default_rng(0)
    with pytest.raises(NumericalError, match="did not converge"):
        ls_estimate(assemble(rng.standard_normal(60), rng.standard_normal(60), 3, 3))


def test_ls_recovers_exact_linear_map():
    rng = np.random.default_rng(9)
    f, p, j = 4, 3, 80
    z = rng.standard_normal((2 * p, j))
    u_f = rng.standard_normal((f, j))
    m_true = rng.standard_normal((f, 2 * p + f))
    y_f = m_true[:, :2 * p] @ z + m_true[:, 2 * p:] @ u_f
    data = HankelData(stacked=np.vstack([y_f, z, u_f]), f=f, p=p, n_i=1, n_o=1)
    ls = ls_estimate(data)
    assert np.allclose(ls.h_fp_hat, m_true[:, :2 * p], atol=1e-9)
    assert np.allclose(ls.h_f_hat, m_true[:, 2 * p:], atol=1e-9)
    assert np.abs(ls.residues).max() < 1e-9


def test_noiseless_nilpotent_recovery():
    # A nilpotent with p = n_x: the regressor stays full rank and the
    # truncation bias is exactly zero, so LS recovers the true map
    n_x = 4
    model = shift_model(n_x)
    td = quiet_decomposition(model, n_x, n_x)
    rng = np.random.default_rng(5)
    _, _, data = sim_dataset(model, 293, n_x, n_x, rng)
    ls = ls_estimate(data)
    rel = np.linalg.norm(ls.h_fp_hat - td.h_fp) / np.linalg.norm(td.h_fp)
    assert rel < 1e-8
    rel_f = np.linalg.norm(ls.h_f_hat - td.h_f) / max(np.linalg.norm(td.h_f), 1.0)
    assert rel_f < 1e-8


def test_noiseless_long_past_is_rank_deficient():
    # for p > n_x the noiseless past outputs are an exact linear function of
    # past inputs and the initial state, so the stacked regressor drops rank
    # by p - n_x and the guard must fire
    from sidshrink.systems import StateSpaceModel
    model = StateSpaceModel(
        a=np.array([[0.5]]), b=np.ones((1, 1)), c=np.ones((1, 1)),
        d=np.zeros((1, 1)), k=np.zeros((1, 1)), sigma=np.zeros((1, 1)),
        r_w=np.zeros((1, 1)), r_v=np.zeros((1, 1)))
    rng = np.random.default_rng(2)
    _, _, data = sim_dataset(model, 120, 3, 3, rng)
    with pytest.raises(NumericalError, match="rank deficient"):
        ls_estimate(data)


def test_ls_noise_floor_scaling():
    # independent white u and y: coefficients are pure noise at scale 1/sqrt(N)
    rng = np.random.default_rng(7)
    n = 2000
    u = rng.standard_normal(n + 12)
    y = rng.standard_normal(n + 12)
    ls = ls_estimate(assemble(u, y, 6, 6))
    assert np.abs(ls.h_fp_hat).max() <= 4.0 / np.sqrt(n)
    rms = float(np.sqrt(np.mean(ls.h_fp_hat**2)))
    assert 0.5 / np.sqrt(n) < rms < 1.5 / np.sqrt(n)


def test_projection_identity_on_random_datasets():
    # pinv route == explicit oblique projection route
    for seed in range(50):
        data = _random_dataset(seed)
        ls = ls_estimate(data)
        assert projection_gap(data, ls.h_fp_hat) < 1e-8


def test_residues_orthogonal_to_regressor():
    for seed in range(10):
        data = _random_dataset(seed, f=4, p=4, n_cols=80)
        ls = ls_estimate(data)
        reg = np.vstack([data.z_p, data.u_f])
        cross = np.linalg.norm(ls.residues @ reg.T)
        bound = 1e-8 * np.linalg.norm(data.y_f) * np.linalg.norm(reg)
        assert cross <= bound


# ------------------------------------------------------------ estimate_noise

def test_noise_dof_counts():
    data = _random_dataset(0, f=4, p=4, n_cols=90)
    ls = ls_estimate(data)
    dof = {r: _dof(data.f, data.n_i, data.n_o, r) for r in (None, 1, 2)}
    assert dof[None] == 12  # f (n_o + 2 n_i) = 3f
    assert dof[1] == 9  # f + (f + 2) r - r^2 at r = 1
    assert dof[2] == dof[None]  # the two counts agree at r = 2 (SISO)
    # estimate_noise divides the residue Gram by N - dof
    gram_trace = np.sum(residues(data, ls.h_fp_hat, ls.h_f_hat) ** 2)
    for r, count in dof.items():
        noise = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat, rank_used=r)
        scaled = np.trace(noise.g_hat_sq) * (data.n_cols - count)
        assert scaled == pytest.approx(gram_trace, rel=1e-12)


def test_noise_rejects_short_data():
    data = _random_dataset(1, f=4, p=4, n_cols=90)
    ls = ls_estimate(data)
    short = HankelData(stacked=data.stacked[:, :12], f=4, p=4, n_i=1, n_o=1)
    with pytest.raises(DataError):
        estimate_noise(short, ls.h_fp_hat, ls.h_f_hat)


def test_noise_recovers_known_covariance():
    # long realization of a known innovation model; compare against the
    # population G_f G_f' from the decomposition
    model = siso_model([[0.5]], [[1.0]], [[1.0]], [[0.3]], [[0.5]])
    f = p = 3
    td = true_decomposition(model, f, p)
    gg_true = td.g_f @ td.g_f.T
    rng = np.random.default_rng(11)
    _, _, data = sim_dataset(model, 6001, f, p, rng, burn_in=200)
    ls = ls_estimate(data)
    est = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat)
    rel = np.linalg.norm(est.g_hat_sq - gg_true) / np.linalg.norm(gg_true)
    assert rel < 0.15


def test_noise_factor_is_lower_toeplitz():
    data = _random_dataset(3, f=5, p=5, n_cols=120)
    ls = ls_estimate(data)
    est = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat)
    g = est.g_f_hat
    assert np.all(np.triu(g, 1) == 0.0)
    for d in range(5):
        diag = np.diagonal(g, -d)
        assert np.allclose(diag, diag[0])
    assert g[0, 0] > 0.0


# ------------------------------------------------------------- build_weights

def test_identity_weights_are_noops():
    data = _random_dataset(4)
    w = build_weights("identity", data)
    m = np.random.default_rng(0).standard_normal((3, 6))
    assert np.array_equal(w.apply(m), m)
    assert np.array_equal(w.unapply(m), m)


def test_cva_weights_reconstruct():
    data = _random_dataset(5, f=4, p=4, n_cols=100)
    ls = ls_estimate(data)
    noise = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat)
    w = build_weights("cva", data, g_f_hat=noise.g_f_hat)
    assert np.allclose(w.w1 @ noise.g_f_hat, np.eye(4), atol=1e-8)
    # w2 is the symmetric square root of Z_p Pi Z_p'
    q, _ = np.linalg.qr(data.u_f.T)
    pi_perp = np.eye(data.n_cols) - q @ q.T
    zpz = data.z_p @ pi_perp @ data.z_p.T
    assert np.allclose(w.w2 @ w.w2, zpz, atol=1e-6 * np.abs(zpz).max())


def test_n4sid_weights_and_roundtrip():
    data = _random_dataset(6, f=4, p=4, n_cols=100)
    w = build_weights("n4sid", data)
    # w2 is a lower-triangular square factor of Z_p Z_p', so it weights
    # every h with the norm Z_p gives it
    zz = data.z_p @ data.z_p.T
    assert np.array_equal(w.w2, np.tril(w.w2))
    assert np.allclose(w.w2 @ w.w2.T, zz, rtol=0.0, atol=1e-12 * np.abs(zz).max())
    m = np.random.default_rng(1).standard_normal((4, 8))
    assert np.linalg.norm(w.apply(m)) == pytest.approx(np.linalg.norm(m @ data.z_p), rel=1e-12)
    # z_p has full row rank, so unapply(apply(.)) is exact
    assert np.allclose(w.unapply(w.apply(m)), m, atol=1e-8)


def _max_eig_congruence_wide(zpz, w2):
    """lambda_max(w2' zpz^-1 w2) from the solve against all of w2's columns."""
    x = scipy.linalg.solve_triangular(np.linalg.cholesky(zpz), w2, lower=True)
    gram = x @ x.T
    return float(np.linalg.eigvalsh((gram + gram.T) / 2.0)[-1])


def _protocol_weights(run_ids):
    """(data, g_f_hat, zpz, {scheme: weights}) of protocol realizations."""
    for run_id in run_ids:
        draw = draw_realization(0, run_id, 0)
        data = assemble(draw.u, draw.y, draw.f, draw.p)
        ls = ls_estimate(data)
        g_f_hat = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat).g_f_hat
        yield data, g_f_hat, _zpz_perp(data), {
            scheme: build_weights(scheme, data, g_f_hat=g_f_hat)
            for scheme in ("identity", "cva", "n4sid")}


def test_small_side_lambda_max_equals_the_wide_form():
    checked = 0
    for _, _, zpz, weights in _protocol_weights(range(12)):
        for scheme in ("identity", "n4sid"):
            w = weights[scheme]
            ref = _max_eig_congruence_wide(zpz, w.w2)
            assert w.factor1 == pytest.approx(ref, rel=1e-12, abs=0.0)
            checked += 1
    assert checked == 24


def test_cva_factor1_is_one_by_construction():
    """w2 is the symmetric root of Z_p Pi Z_p', so w2' (Z_p Pi Z_p')^-1 w2 = I:
    factor1 is exactly 1, and the congruence reads 1 to rounding."""
    for _, _, zpz, weights in _protocol_weights(range(12)):
        w = weights["cva"]
        assert w.factor1 == 1.0
        assert _max_eig_congruence_wide(zpz, w.w2) == pytest.approx(1.0, rel=0.0, abs=1e-8)
        assert _max_eig_congruence(zpz, w.w2) == pytest.approx(1.0, rel=0.0, abs=1e-8)


def _zpz_perp_scipy(data):
    q = scipy.linalg.orth(data.u_f.T)
    zq = data.z_p @ q
    out = data.z_p @ data.z_p.T - zq @ zq.T
    return (out + out.T) / 2.0


def _max_eig_congruence_scipy(zpz, w2):
    chol = np.linalg.cholesky(zpz)
    x = scipy.linalg.solve_triangular(chol, w2 @ w2.T, lower=True)
    gram = scipy.linalg.solve_triangular(chol, x.T, lower=True)
    return float(np.linalg.eigvalsh((gram + gram.T) / 2.0)[-1])


def test_direct_lapack_weights_are_the_scipy_forms_bit_for_bit():
    """The weights call dgesdd and dtrtrs with the arguments scipy.linalg
    passes, so every weight equals the scipy.linalg form exactly."""
    for data, g_f_hat, zpz, weights in _protocol_weights(range(10)):
        assert np.array_equal(zpz, _zpz_perp_scipy(data))
        n_rows, n_past = g_f_hat.shape[0], data.z_p.shape[0]
        assert np.array_equal(weights["cva"].w1, scipy.linalg.solve_triangular(
            g_f_hat, np.eye(n_rows), lower=True))
        assert np.array_equal(weights["n4sid"].w2_pinv, scipy.linalg.solve_triangular(
            data.z_factor, np.eye(n_past), lower=False).T)
        for w in weights.values():
            assert _max_eig_congruence(zpz, w.w2) == _max_eig_congruence_scipy(zpz, w.w2)


@pytest.mark.parametrize("routine, scheme, step", [
    ("dgesdd", "identity", "SVD of U_f'"),
    ("dtrtrs", "cva", "cva W1 solve"),
    ("dtrtrs", "n4sid", "n4sid W2 inverse solve"),
    ("dtrtrs", "identity", "L^-1 w2 w2' solve"),
])
def test_lapack_info_raises_numerical_error_naming_the_step(monkeypatch, routine, scheme,
                                                             step):
    data = _random_dataset(8, f=4, p=4, n_cols=100)
    ls = ls_estimate(data)
    g_f_hat = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat).g_f_hat
    real = getattr(estimation, routine)
    monkeypatch.setattr(estimation, routine, lambda *args, **kwargs: (
        *real(*args, **kwargs)[:-1], 2))
    with pytest.raises(NumericalError, match=re.escape(f"{step} (LAPACK info 2)")):
        build_weights(scheme, data, g_f_hat=g_f_hat)


def test_lambda_max_is_none_when_zpz_is_singular():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 50))
    z = np.vstack([z, z[:1]])           # a repeated row: Z Z' is singular
    zpz = z @ z.T
    assert _max_eig_congruence(zpz, np.eye(4)) is None
    assert _max_eig_congruence(zpz, z) is None
    data = HankelData(stacked=np.vstack([rng.standard_normal((2, 50)), z,
                                         rng.standard_normal((2, 50))]),
                      f=2, p=2, n_i=1, n_o=1)
    assert build_weights("identity", data).factor1 is None


def test_z_factor_is_formed_once_and_shared():
    data = _random_dataset(6, f=4, p=4, n_cols=100)
    r = data.z_factor
    ref = np.linalg.qr(data.z_p.T, mode="r")
    assert np.array_equal(r.view(np.uint64), ref.view(np.uint64))
    assert data.z_factor is r and not r.flags.writeable
    assert np.allclose(r.T @ r, data.z_p @ data.z_p.T, rtol=1e-12, atol=0.0)
    ls = ls_estimate(data)
    assert init_gibbs(ls.h_fp_hat, ls.h_f_hat, data, 1).z_factor is r
    assert np.shares_memory(build_weights("n4sid", data).w2, r)


def test_unknown_scheme_rejected():
    data = _random_dataset(7)
    with pytest.raises(ValueError, match="scheme"):
        build_weights("pls", data)


# -------------------------------------------------------------- noise_level

def test_noise_level_direction_search():
    # sigma^2 = max over unit directions u, v of
    # (u' W1 GG' W1' u)(v' W2' (Z Pi Z')^-1 W2 v)
    data = _random_dataset(8, f=4, p=4, n_cols=100)
    ls = ls_estimate(data)
    noise = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat)
    w = build_weights("identity", data)
    sigma = noise_level(w, noise.g_hat_sq)

    q, _ = np.linalg.qr(data.u_f.T)
    pi_perp = np.eye(data.n_cols) - q @ q.T
    zpz_inv = np.linalg.inv(data.z_p @ pi_perp @ data.z_p.T)
    rng = np.random.default_rng(0)
    best = 0.0
    # random directions never exceed the level; the top eigenvectors attain it
    dirs_u = list(rng.standard_normal((200, 4)))
    dirs_v = list(rng.standard_normal((200, 8)))
    dirs_u.append(np.linalg.eigh(noise.g_hat_sq)[1][:, -1])
    dirs_v.append(np.linalg.eigh(zpz_inv)[1][:, -1])
    for du in dirs_u:
        du = du / np.linalg.norm(du)
        left = float(du @ noise.g_hat_sq @ du)
        for dv in dirs_v:
            dv = dv / np.linalg.norm(dv)
            right = float(dv @ zpz_inv @ dv)
            best = max(best, left * right)
            assert left * right <= sigma**2 * (1 + 1e-10)
    assert best == pytest.approx(sigma**2, rel=1e-10)


def test_noise_level_is_one_under_cva():
    # both congruences collapse to identities under the cva weights
    data = _random_dataset(9, f=4, p=4, n_cols=110)
    ls = ls_estimate(data)
    noise = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat)
    w = build_weights("cva", data, g_f_hat=noise.g_f_hat)
    sigma = noise_level(w, noise.g_f_hat @ noise.g_f_hat.T)
    assert sigma == pytest.approx(1.0, rel=1e-6)


def test_noise_level_floor():
    data = _random_dataset(10)
    w = build_weights("identity", data)
    assert noise_level(w, np.zeros((3, 3))) == 1e-12


# --------------------------------------------------------- truncate_estimate

def test_truncate_full_rank_is_identity():
    data = _random_dataset(11, f=4, p=4, n_cols=90)
    ls = ls_estimate(data)
    w = build_weights("identity", data)
    out = truncate_estimate(ls.h_fp_hat, w, r=4)
    rel = np.linalg.norm(out - ls.h_fp_hat) / np.linalg.norm(ls.h_fp_hat)
    assert rel < 1e-10


def test_truncate_matches_svd_truncation():
    rng = np.random.default_rng(12)
    data = _random_dataset(12, f=4, p=4, n_cols=90)
    w = build_weights("identity", data)
    m = rng.standard_normal((4, 8))
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    for r in (1, 2, 3):
        ref = (u[:, :r] * s[:r]) @ vt[:r]
        assert np.allclose(truncate_estimate(m, w, r), ref, atol=1e-12)
    with pytest.raises(ValueError):
        truncate_estimate(m, w, 0)
    with pytest.raises(ValueError):
        truncate_estimate(m, w, 5)


def test_truncate_is_weighted_best_approximation():
    data = _random_dataset(13, f=4, p=4, n_cols=100)
    ls = ls_estimate(data)
    noise = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat)
    w = build_weights("cva", data, g_f_hat=noise.g_f_hat)
    r = 2
    out = truncate_estimate(ls.h_fp_hat, w, r)
    err = np.linalg.norm(w.apply(ls.h_fp_hat - out))
    rng = np.random.default_rng(13)
    for _ in range(10):
        alt = rng.standard_normal((4, r)) @ rng.standard_normal((r, 8))
        assert err <= np.linalg.norm(w.apply(ls.h_fp_hat - alt)) + 1e-12


# ------------------------------------------------------------------ rank_star

def test_rank_star_pure_noise():
    rng = np.random.default_rng(5)
    f = p = 4
    j = 300
    z = rng.standard_normal((2 * p, j))
    u_f = rng.standard_normal((f, j))
    y_f = 0.7 * rng.standard_normal((f, j))
    data = HankelData(stacked=np.vstack([y_f, z, u_f]), f=f, p=p, n_i=1, n_o=1)
    ls = ls_estimate(data)
    w = build_weights("identity", data)
    svd = weighted_svd(ls.h_fp_hat, w)
    rs = rank_star(data, ls, w, svd)
    assert rs.r_star == 1
    assert np.sum(svd.values > soft_threshold_level(4, 8, rs.sigma_level)) == 0
    assert rs.converged


def test_rank_star_strong_rank_two_signal():
    data, _ = _synthetic(42, f=5, p=5, j=800)
    ls = ls_estimate(data)
    w = build_weights("identity", data)
    svd = weighted_svd(ls.h_fp_hat, w)
    rs = rank_star(data, ls, w, svd)
    assert rs.r_star == 3
    assert np.sum(svd.values > soft_threshold_level(5, 10, rs.sigma_level)) == 2
    assert rs.converged


def test_rank_star_self_consistency():
    # replay the defining rule from scratch through the public pieces
    data, _ = _synthetic(42, f=5, p=5, j=800)
    ls = ls_estimate(data)
    w = build_weights("identity", data)
    rs = rank_star(data, ls, w, weighted_svd(ls.h_fp_hat, w))
    s_all = np.linalg.svd(w.apply(ls.h_fp_hat), compute_uv=False)
    for r in range(1, rs.r_star + 1):
        trunc = truncate_estimate(ls.h_fp_hat, w, r)
        noise = estimate_noise(data, trunc, ls.h_f_hat, rank_used=r)
        sigma_r = noise_level(w, noise.g_hat_sq)
        lam = soft_threshold_level(5, 10, sigma_r)
        count = int(np.sum(s_all > lam))
        if r < rs.r_star:
            assert count >= r
        else:
            assert count < r
            assert count == np.sum(s_all > soft_threshold_level(5, 10, rs.sigma_level))
            assert sigma_r == pytest.approx(rs.sigma_level, rel=1e-12)


def test_rank_star_no_fixed_point_flag():
    # exactly rank-f noiseless map: every truncation below full rank leaves
    # signal in the residues, full rank drives sigma to the floor, so the
    # count never drops below r
    rng = np.random.default_rng(8)
    f = p = 4
    j = 400
    z = rng.standard_normal((2 * p, j))
    u_f = rng.standard_normal((f, j))
    q1, _ = np.linalg.qr(rng.standard_normal((f, f)))
    q2, _ = np.linalg.qr(rng.standard_normal((2 * p, f)))
    h = (q1 * np.array([300.0, 100.0, 30.0, 10.0])) @ q2.T
    data = HankelData(stacked=np.vstack([h @ z, z, u_f]), f=f, p=p, n_i=1, n_o=1)
    ls = ls_estimate(data)
    w = build_weights("identity", data)
    svd = weighted_svd(ls.h_fp_hat, w)
    rs = rank_star(data, ls, w, svd)
    assert not rs.converged
    assert rs.r_star == 4
    assert np.sum(svd.values > soft_threshold_level(4, 8, rs.sigma_level)) == 4


# ----------------------------------------------------------- order heuristics

def test_neff_flat_spectrum_falls_back():
    s = np.full(8, 3.0)
    # n_eff = i exactly, fit window is empty
    assert order_heuristic_neff(s) == 8


def test_neff_detects_late_deviation():
    # steep tail with one clearly elevated value; the fit line stays well
    # below it and the points after it fall back under the line
    lns = -0.4 * np.arange(1, 13)
    lns[9] += 1.2
    s = np.exp(lns)
    assert order_heuristic_neff(s) == 10
    # scale invariance
    assert order_heuristic_neff(137.0 * s) == 10


def test_neff_needs_three_positive_values():
    with pytest.raises(ValueError):
        order_heuristic_neff([1.0, 0.5, 0.0])


def test_midpoint_hand_examples():
    # threshold 10 with a strict inequality keeps only the first value
    assert order_midpoint([100.0, 10.0, 1.0]) == 1
    s = np.exp([4.0, 3.0, 1.0, 0.0])
    assert order_midpoint(s) == 2
    assert order_midpoint(5.0 * s) == 2


def test_midpoint_zero_tail_substitution():
    # trailing zero replaced by min positive * 1e-3
    assert order_midpoint([8.0, 4.0, 0.0]) == 2


def test_midpoint_matches_direct_scan():
    rng = np.random.default_rng(14)
    for _ in range(25):
        s = np.sort(rng.lognormal(0.0, 1.5, size=9))[::-1]
        thr = np.exp(0.5 * (np.log(s[0]) + np.log(s[-1])))
        above = np.nonzero(s > thr)[0]
        expect = int(above[-1]) + 1 if above.size else 1
        assert order_midpoint(s) == expect
