import hypothesis
import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg

from _util import mann_kendall_z, quiet_decomposition, shift_model, sim_dataset, siso_model
from sidshrink import bayes
from sidshrink.bayes import (
    GibbsConfig,
    _gamma_hf_parts,
    _gf_from_nu,
    _invert_toeplitz_symbol,
    _omega_hankel,
    _omega_independent,
    init_gibbs,
    run_gibbs,
    step_gamma_hf,
    step_gf,
    step_lp,
)
from sidshrink.errors import ConfigError, DataError, NumericalError
from sidshrink.estimation import HankelData, assemble, ls_estimate
from sidshrink.linalg import build_selectors, psd_sqrt, toeplitz_from_col, toeplitz_project, vec


def _dataset(seed=0, f=3, p=3, n_cols=40):
    rng = np.random.default_rng(seed)
    model = siso_model([[0.5]], [[1.0]], [[1.0]], [[0.2]], [[0.3]])
    _, _, data = sim_dataset(model, n_cols, f, p, rng, burn_in=30)
    return data


def _state(seed=0, rank=2, **kw):
    data = _dataset(seed, **kw)
    ls = ls_estimate(data)
    return data, ls, init_gibbs(ls.h_fp_hat, ls.h_f_hat, data, rank)


class _FixedRng:
    """Deterministic stand-in: fixed normal vector and chi-square draw."""

    def __init__(self, normals, chi):
        self._normals = np.asarray(normals, dtype=float)
        self._chi = float(chi)

    def standard_normal(self, size=None):
        flat = self._normals
        if size is None:
            return float(flat[0])
        out = np.broadcast_to(flat[:int(np.prod(size))].reshape(size), size)
        return np.array(out)

    def chisquare(self, dof):
        return self._chi


# ------------------------------------------------------------------ config

def test_config_validation():
    with pytest.raises(ConfigError):
        GibbsConfig(rank=1, gf_variant="toeplitz")
    with pytest.raises(ConfigError):
        GibbsConfig(rank=1, n_total=10, n_burn=10)
    with pytest.raises(ConfigError):
        GibbsConfig(rank=1, n_burn=-1)
    with pytest.raises(ConfigError):
        GibbsConfig(rank=0)


# -------------------------------------------------------------- init_gibbs

def test_init_rejects_multivariable_data():
    rng = np.random.default_rng(1)
    j = 30
    z = rng.standard_normal((8, j))
    data = HankelData(stacked=np.vstack([rng.standard_normal((4, j)), z,
                                         rng.standard_normal((4, j))]),
                      f=2, p=2, n_i=2, n_o=2)
    with pytest.raises(ConfigError):
        init_gibbs(rng.standard_normal((4, 8)), rng.standard_normal((4, 4)), data, 1)


def test_init_rank_bounds():
    data, ls, _ = _state()
    with pytest.raises(ValueError):
        init_gibbs(ls.h_fp_hat, ls.h_f_hat, data, 0)
    with pytest.raises(ValueError):
        init_gibbs(ls.h_fp_hat, ls.h_f_hat, data, 4)


def test_init_factorizes_reconstruction():
    # the SVD runs on h R' (f x 2p) and the data maps on (R'R)^-1; both must
    # agree with the f x N SVD and with pinv(Z_p) formed here
    data, ls, state = _state(rank=2)
    m = ls.h_fp_hat @ data.z_p
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    ref = (u[:, :2] * s[:2]) @ vt[:2]
    got = state.gamma_f @ state.l_p @ data.z_p
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    # symmetric split of the singular values
    assert np.allclose(np.linalg.norm(state.gamma_f, axis=0) ** 2, s[:2], rtol=1e-8)
    pinv = np.linalg.pinv(data.z_p)
    for mapped, block in ((state.y_zpinv, data.y_f), (state.u_zpinv, data.u_f)):
        expect = block @ pinv
        assert np.abs(mapped - expect).max() <= 1e-12 * np.abs(expect).max()
    assert state.z_factor is data.z_factor


def test_init_rejects_a_rank_deficient_z_p():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 50))
    z = np.vstack([z, z[:1]])           # a repeated row
    data = HankelData(stacked=np.vstack([rng.standard_normal((2, 50)), z,
                                         rng.standard_normal((2, 50))]),
                      f=2, p=2, n_i=1, n_o=1)
    with pytest.raises(NumericalError, match="Gibbs chain: Z_p is rank deficient"):
        init_gibbs(rng.standard_normal((2, 4)), rng.standard_normal((2, 2)), data, 1)


def test_init_prior_scales():
    data, ls, state = _state(rank=2)
    s = np.linalg.svd(ls.h_fp_hat @ data.z_p, compute_uv=False)
    i, j = data.f, data.n_cols
    assert np.allclose(np.diag(state.lambda_gamma), i / s[:2], rtol=1e-10)
    assert np.allclose(np.diag(state.lambda_l), j / s[:2], rtol=1e-10)
    trace_h = float(np.trace(ls.h_f_hat.T @ ls.h_f_hat))
    assert np.allclose(state.lambda_h, np.eye(i) * i * i / trace_h, rtol=1e-10)
    assert np.array_equal(state.g_f, np.eye(i))


def test_init_scale_homogeneity():
    data, ls, state = _state(rank=2)
    scaled = init_gibbs(3.7 * ls.h_fp_hat, ls.h_f_hat, data, 2)
    assert np.allclose(np.diag(scaled.lambda_gamma),
                       np.diag(state.lambda_gamma) / 3.7, rtol=1e-10)


def test_init_floors_rank_deficient_prior():
    # ranks beyond the data's are floored, so the prior precisions stay finite
    data, ls, _ = _state()
    rank_one = np.outer(np.arange(1.0, 4.0), np.ones(6))
    state = init_gibbs(rank_one, ls.h_f_hat, data, 3)
    for lam in (np.diag(state.lambda_gamma), np.diag(state.lambda_l)):
        assert np.all(np.isfinite(lam)) and np.all(lam > 0.0)


# ------------------------------------------------------------- step means

def test_gamma_hf_ridge_to_ls_limit():
    data, ls, state = _state(rank=2)
    state.lambda_gamma = np.eye(2) * 1e-12
    state.lambda_h = np.eye(3) * 1e-12
    state.g_f = np.eye(3)
    mean, _ = _gamma_hf_parts(state)
    reg = np.vstack([state.l_p @ data.z_p, data.u_f])
    coeff, *_ = np.linalg.lstsq(reg.T, data.y_f.T, rcond=None)
    coeff = coeff.T
    assert np.allclose(mean[:, :2], coeff[:, :2], atol=1e-6)
    assert np.allclose(toeplitz_project(mean[:, 2:]), toeplitz_project(coeff[:, 2:]), atol=1e-6)
    assert np.array_equal(step_gamma_hf(state, np.random.default_rng(0))[0], mean[:, :2])


def test_gamma_hf_strong_prior_shrinks_to_zero():
    data, ls, state = _state(rank=2)
    state.lambda_gamma = np.eye(2) * 1e12
    state.lambda_h = np.eye(3) * 1e12
    mean, _ = _gamma_hf_parts(state)
    assert np.abs(mean[:, :2]).max() < 1e-6
    assert np.abs(toeplitz_project(mean[:, 2:])).max() < 1e-6


def test_gamma_hf_precision_not_positive_definite_is_a_numerical_error():
    _, _, state = _state(rank=2)
    state.lambda_gamma = -1e12 * np.eye(2)
    with pytest.raises(NumericalError, match="precision not positive definite"):
        step_gamma_hf(state, np.random.default_rng(0))


def test_lp_gls_collapse():
    data, ls, state = _state(rank=2)
    state.lambda_l = np.eye(2) * 1e-12
    state.g_f = np.eye(3)
    l_det, _ = step_lp(state, np.random.default_rng(0))
    target = data.y_f - state.h_f @ data.u_f
    coeff, *_ = np.linalg.lstsq(state.gamma_f, target, rcond=None)
    assert np.allclose(l_det, coeff @ np.linalg.pinv(data.z_p), atol=1e-6)


def test_lp_orthonormal_closed_form():
    data, ls, state = _state(rank=2)
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 2)))
    state.gamma_f = q
    state.lambda_l = np.eye(2)
    state.g_f = np.eye(3)
    l_det, _ = step_lp(state, np.random.default_rng(0))
    expect = 0.5 * q.T @ (data.y_f - state.h_f @ data.u_f) @ np.linalg.pinv(data.z_p)
    assert np.allclose(l_det, expect, atol=1e-10)


def test_lp_toeplitz_noise_matches_dense_gls():
    data, ls, state = _state(rank=2)
    state.g_f = toeplitz_from_col([1.3, -0.6, 0.25])
    state.gamma_f = state.gamma_f + 0.3
    s_inv = np.linalg.inv(state.g_f @ state.g_f.T)
    prec = state.gamma_f.T @ s_inv @ state.gamma_f + state.lambda_l
    target = data.y_f - state.h_f @ data.u_f
    expect = np.linalg.solve(prec, state.gamma_f.T @ s_inv @ target) @ np.linalg.pinv(data.z_p)
    rng = np.random.default_rng(8)
    n = 4000
    draws = np.empty((n,) + expect.shape)
    for t in range(n):
        l_mean, draws[t] = step_lp(state, rng)
    assert np.allclose(l_mean, expect, rtol=1e-9, atol=1e-12 * np.abs(expect).max())
    se = draws.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(draws.mean(axis=0) - expect) <= 4.0 * se)
    # column-major vec: Cov = (Z_p Z_p')^-1 (x) prec^-1
    vecs = draws.transpose(0, 2, 1).reshape(n, -1)
    cov_ref = np.kron(np.linalg.inv(data.z_p @ data.z_p.T), np.linalg.inv(prec))
    emp_cov = np.cov(vecs.T, ddof=1)
    se_cov = np.sqrt((np.outer(np.diag(cov_ref), np.diag(cov_ref)) + cov_ref**2) / n)
    assert np.all(np.abs(emp_cov - cov_ref) <= 4.0 * se_cov)


def test_steps_leave_priors_untouched():
    data, ls, state = _state(rank=2)
    lam_g = state.lambda_gamma.copy()
    lam_h = state.lambda_h.copy()
    lam_l = state.lambda_l.copy()
    rng = np.random.default_rng(0)
    step_gamma_hf(state, rng)
    step_lp(state, rng)
    step_gf(state, np.random.default_rng(1).standard_normal((3, data.n_cols)), rng,
            "independent")
    assert np.array_equal(state.lambda_gamma, lam_g)
    assert np.array_equal(state.lambda_h, lam_h)
    assert np.array_equal(state.lambda_l, lam_l)


# -------------------------------------------------- sampler law (gamma draw)

def test_gamma_draw_mean_and_covariance():
    data, ls, state = _state(rank=2)
    # a non-identity noise factor: rows are shaped by g_bar = G_f / G_f[0,0]
    # and the likelihood is weighted by gamma = 1 / G_f[0,0]^2
    state.g_f = toeplitz_from_col([1.3, -0.6, 0.25])
    g_bar = state.g_f / 1.3
    gamma = 1.0 / 1.3**2
    reg = np.vstack([state.l_p @ data.z_p, data.u_f])
    gram = np.zeros((5, 5))
    gram[:2, :2] = state.lambda_gamma
    gram[2:, 2:] = state.lambda_h
    gram += gamma * reg @ reg.T
    mean_ref = gamma * data.y_f @ reg.T @ np.linalg.inv(gram)
    assert np.allclose(_gamma_hf_parts(state)[0], mean_ref, rtol=1e-9)
    rng = np.random.default_rng(123)
    n = 10000
    draws = np.empty((n, 6))  # vec of the 3 x 2 gamma block
    for t in range(n):
        _, (gamma_draw, _) = step_gamma_hf(state, rng)
        draws[t] = vec(gamma_draw)
    emp_mean = draws.mean(axis=0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(emp_mean - vec(mean_ref[:, :2])) <= 4.0 * se)
    # column-major vec: Cov = (gram^-1 gamma block) (x) row covariance, rows iid here
    cov_ref = np.kron(np.linalg.inv(gram)[:2, :2], g_bar @ g_bar.T)
    emp_cov = np.cov(draws.T, ddof=1)
    se_cov = np.sqrt((np.outer(np.diag(cov_ref), np.diag(cov_ref)) + cov_ref**2) / n)
    assert np.all(np.abs(emp_cov - cov_ref) <= 4.5 * se_cov)


def test_gamma_draw_is_the_mean_plus_its_replayed_normals():
    # the law test above cannot tell xi L^-1 from xi L^-T; replaying the
    # draw's normals can: draw - mean = g_bar xi L^-1 with L L' the precision
    _, _, state = _state(rank=2)
    state.g_f = toeplitz_from_col([1.3, -0.6, 0.25])
    g_bar = state.g_f / 1.3
    mean, chol = _gamma_hf_parts(state)
    inv_l = np.linalg.inv(chol)
    for seed in range(5):
        _, (gamma_draw, h_draw) = step_gamma_hf(state, np.random.default_rng(seed))
        noise = g_bar @ np.random.default_rng(seed).standard_normal(mean.shape) @ inv_l
        assert np.abs(gamma_draw - mean[:, :2] - noise[:, :2]).max() <= 1e-12
        assert np.abs(h_draw - toeplitz_project(mean[:, 2:] + noise[:, 2:])).max() <= 1e-12


# ------------------------------------------------------------ noise factor

def test_omega_matrices_match_dense_kronecker_forms():
    rng = np.random.default_rng(0)
    for (i, j) in [(2, 5), (3, 4), (4, 6)]:
        e = rng.standard_normal((i, j))
        sel = build_selectors(i, j)
        m = np.kron(e.T, np.eye(i)) @ sel.b_t
        om_ind = m.T @ m
        assert np.allclose(_omega_independent(e), om_ind, atol=1e-12)
        d_inv = np.linalg.inv(sel.b_w.T @ sel.b_w)
        om_han = m.T @ sel.b_w @ d_inv @ sel.b_w.T @ m
        assert np.allclose(_omega_hankel(e), om_han, atol=1e-12)


def test_omega_hankel_running_sum_is_the_cumsum_form_bit_for_bit():
    rng = np.random.default_rng(14)
    for _ in range(50):
        i, j = int(rng.integers(1, 9)), int(rng.integers(1, 40))
        e = rng.standard_normal((i, j)) * rng.uniform(0.01, 100.0)
        n_coef = i + j - 1
        sums = np.cumsum(bayes._skew(e), axis=0)
        s = bayes._skew(sums[::-1])[::-1, :n_coef].T
        w = np.minimum(np.minimum(np.arange(1, n_coef + 1), np.arange(n_coef, 0, -1)), min(i, j))
        omega = s.T @ (s / w[:, None])
        assert np.array_equal(_omega_hankel(e), (omega + omega.T) / 2.0)


def _row_loop_antidiagonal_sums(resid):
    """_antidiagonal_sums with its running sum as one row add per row."""
    i, j = resid.shape
    sums = bayes._skew(resid)
    for m in range(1, i):
        np.add(sums[m - 1], sums[m], out=sums[m])
    return bayes._skew(sums[::-1])[::-1, :i + j - 1].T


def test_antidiagonal_sums_equal_the_row_loop_bit_for_bit():
    rng = np.random.default_rng(15)
    for _ in range(200):
        i, j = int(rng.integers(1, 26)), int(rng.integers(1, 60))
        e = rng.standard_normal((i, j)) * 10.0 ** rng.uniform(-3.0, 3.0, (i, j))
        e[rng.random((i, j)) < 0.05] = -0.0
        assert np.array_equal(bayes._antidiagonal_sums(e), _row_loop_antidiagonal_sums(e))


def _bincount_hankel_omega(data, coef):
    """HankelForm.omega with G(C) summed by one bincount over the (a, m, q)
    triples, a <= m, in that order, and the edge sums by the row loop."""
    i = data.f
    form = bayes.hankel_form(data)
    _, base = data.signal_windows(2 * i + data.p - 1)
    a, m = np.triu_indices(i)
    source = (a[:, None] * base.size + np.arange(base.size)).ravel()
    target = ((base + (m - a)[:, None]) * i + m[:, None]).ravel()
    g = np.bincount(target, coef.take(source), form.root.shape[1] * i)
    s = _row_loop_antidiagonal_sums(coef @ form.edge_columns)
    factor = np.vstack([form.root @ g.reshape(-1, i),
                        np.vstack([s[:i - 1], s[2 * i - 2:]]) * form.edge_scale])
    omega = factor.T @ factor
    return (omega + omega.T) / 2.0


@hypothesis.example(f=20, p=20, extra=0, seed=0)
@hypothesis.given(f=st.integers(1, 9), p=st.integers(1, 9), extra=st.sampled_from([0, 1, 2, 9, 31]),
                  seed=st.integers(0, 2**32 - 1))
def test_hankel_form_sums_in_bincount_order(f, p, extra, seed):
    # bit for bit: the running sums down the gathered rows add C's entries
    # in the bincount's order, and the zeros between them change no bits
    rng = np.random.default_rng(seed)
    t = f + extra + f + p - 1
    data = assemble(rng.standard_normal(t), rng.standard_normal(t) * rng.uniform(0.1, 10.0), f, p)
    coef = rng.standard_normal((f, data.stacked.shape[0])) * 10.0 ** rng.uniform(-3.0, 3.0)
    coef[:, :f] = np.eye(f)
    coef[rng.random(coef.shape) < 0.05] = -0.0
    assert np.array_equal(bayes.hankel_form(data).omega(coef), _bincount_hankel_omega(data, coef))


def _dense_hankel_omega(resid):
    """The Hankel-aware form through the explicit selector matrices."""
    i, j = resid.shape
    sel = build_selectors(i, j)
    m = np.kron(resid.T, np.eye(i)) @ sel.b_t
    omega = m.T @ sel.b_w @ np.linalg.solve(sel.b_w.T @ sel.b_w, sel.b_w.T @ m)
    return (omega + omega.T) / 2.0


def _assert_form_matches(f, p, n, seed):
    rng = np.random.default_rng(seed)
    t = n + f + p - 1
    data = assemble(rng.standard_normal(t), rng.standard_normal(t) * rng.uniform(0.1, 10.0), f, p)
    coef = rng.standard_normal((f, data.stacked.shape[0]))
    coef[:, :f] = np.eye(f)     # the chain's [I, -Gamma L_p, -H_f] has this block
    got = bayes.hankel_form(data).omega(coef)
    refs = [_omega_hankel(coef @ data.stacked)]
    if f * n <= 400:
        refs.append(_dense_hankel_omega(coef @ data.stacked))
    for ref in refs:
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@hypothesis.example(f=4, p=2, extra=0, seed=1)
@hypothesis.example(f=3, p=6, extra=1, seed=2)
@hypothesis.given(f=st.integers(1, 7), p=st.integers(1, 7), extra=st.sampled_from([0, 1, 2, 9, 31]),
                  seed=st.integers(0, 2**32 - 1))
def test_hankel_form_is_the_residue_form(f, p, extra, seed):
    # N = f and N = f + 1 leave fewer windows than window columns, so the
    # windows' QR factor is trapezoidal
    _assert_form_matches(f, p, f + extra, seed)


def test_hankel_form_is_the_residue_form_at_the_long_record_size():
    _assert_form_matches(20, 20, 1961, 0)


def test_hankel_exact_chain_rejects_rows_that_are_not_windows():
    data, ls, _ = _state(rank=1)
    swapped = HankelData(stacked=data.stacked[[1, 0, *range(2, data.stacked.shape[0])]],
                         f=data.f, p=data.p, n_i=1, n_o=1)
    cfg = GibbsConfig(rank=1, n_total=5, gf_variant="hankel_exact")
    with pytest.raises(DataError, match="not windows"):
        run_gibbs(swapped, ls.h_fp_hat, ls.h_f_hat, cfg, np.random.default_rng(0))
    # the independent update reads only the residue Gram, which needs no windows
    run_gibbs(swapped, ls.h_fp_hat, ls.h_f_hat, GibbsConfig(rank=1, n_total=5),
              np.random.default_rng(0))


def test_hankel_exact_chain_needs_as_many_columns_as_rows():
    # f = 5 future rows over N = 3 columns: Z_p (2 x 3) still has full rank
    rng = np.random.default_rng(3)
    f, p, n = 5, 1, 3
    data = assemble(rng.standard_normal(n + f + p - 1), rng.standard_normal(n + f + p - 1), f, p)
    h_fp, h_f = rng.standard_normal((f, 2 * p)), np.eye(f)
    with pytest.raises(DataError, match="N >= f"):
        run_gibbs(data, h_fp, h_f, GibbsConfig(rank=1, n_total=5, gf_variant="hankel_exact"),
                  np.random.default_rng(0))
    with pytest.raises(DataError, match="N >= f"):
        bayes.hankel_form(data)


def test_step_gf_variants_reject_each_others_data_form():
    data, _, state = _state(rank=2)
    coef = np.random.default_rng(9).standard_normal((3, data.stacked.shape[0]))
    with pytest.raises(ConfigError, match="Hankel form"):
        step_gf(state, coef, np.random.default_rng(0), "independent", form=bayes.hankel_form(data))


def test_step_gf_form_draws_what_the_residue_draws():
    data, _, _ = _state(rank=2)
    coef = np.random.default_rng(10).standard_normal((3, data.stacked.shape[0]))
    _, _, state = _state(rank=2)
    ref = step_gf(state, coef @ data.stacked, np.random.default_rng(8), "hankel_exact").copy()
    _, _, state = _state(rank=2)
    got = step_gf(state, coef, np.random.default_rng(8), "hankel_exact",
                  form=bayes.hankel_form(data))
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_invert_toeplitz_symbol_gives_the_inverse():
    rng = np.random.default_rng(21)
    for n in range(1, 25):
        q = 0.3 * rng.standard_normal(n) * 0.7 ** np.arange(n)
        q[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        p = _invert_toeplitz_symbol(q)
        prod = toeplitz_from_col(q) @ toeplitz_from_col(p)
        assert np.abs(prod - np.eye(n)).max() <= 1e-12


@pytest.mark.parametrize("variant", ["independent", "hankel_exact"])
def test_noise_update_form_not_positive_definite_is_a_numerical_error(variant):
    # a zero residue gives a zero quadratic form; the direct LAPACK call must
    # raise the typed error that single_run retries on, not LinAlgError
    _, _, state = _state(rank=2)
    with pytest.raises(NumericalError, match="quadratic form not positive definite"):
        step_gf(state, np.zeros((3, 40)), np.random.default_rng(0), variant)
    with pytest.raises(NumericalError, match="quadratic form not positive definite"):
        _gf_from_nu(np.array([[1.0, 2.0], [2.0, 1.0]]), np.array([0.3, 1.2]))


def test_toeplitz_symbol_with_a_zero_lead_is_a_numerical_error():
    with pytest.raises(NumericalError, match="symbol is singular"):
        _invert_toeplitz_symbol(np.array([0.0, 1.0, 0.5]))


def test_gf_change_of_variables():
    rng = np.random.default_rng(2)
    i, j = 4, 9
    e = rng.standard_normal((i, j)) * 1.3
    omega = _omega_hankel(e)
    om_l = np.linalg.cholesky(omega)
    for _ in range(20):
        nu = np.concatenate([rng.standard_normal(i - 1),
                             [np.sqrt(rng.chisquare(j + 1))]])
        g, row = _gf_from_nu(omega, nu)
        # row solves row' = Omega_L^-T nu, i.e. row @ Omega_L = nu
        assert np.abs(row @ om_l - nu).max() < 1e-10
        # the draw parameterizes the last row of G^-1
        assert np.abs(np.linalg.inv(g)[-1] - row).max() < 1e-8
        # G is lower-triangular Toeplitz with positive diagonal
        assert np.all(np.triu(g, 1) == 0.0)
        assert np.allclose(g, toeplitz_from_col(g[:, 0]))
        assert g[0, 0] > 0.0


def test_gf_scalar_case():
    e = np.array([[1.2, -0.4, 2.2, 0.3]])
    omega = _omega_hankel(e)
    assert omega.shape == (1, 1)
    assert omega[0, 0] == pytest.approx(float(np.sum(e**2)))
    nu = np.array([1.7])
    g, row = _gf_from_nu(omega, nu)
    assert row[0] == pytest.approx(1.7 / np.sqrt(np.sum(e**2)))
    assert g[0, 0] == pytest.approx(np.sqrt(np.sum(e**2)) / 1.7)


def test_step_gf_scale_equivariance():
    data, ls, state = _state(rank=2)
    resid = np.random.default_rng(4).standard_normal((3, data.n_cols))
    stub = _FixedRng(np.array([0.3, -0.8, 0.0, 0.0]), chi=float(data.n_cols))
    g1 = step_gf(state, resid, stub, "hankel_exact").copy()
    _, _, state2 = _state(rank=2)
    g2 = step_gf(state2, 2.5 * resid, stub, "hankel_exact")
    assert np.allclose(g2, 2.5 * g1, rtol=1e-10)


def test_step_gf_updates_state():
    data, ls, state = _state(rank=2)
    resid = np.random.default_rng(5).standard_normal((3, data.n_cols))
    g = step_gf(state, resid, np.random.default_rng(6), "independent")
    assert state.g_f is g


def test_step_gf_factor_form_draws_what_the_residue_draws():
    # "independent" reads only E E': any F with F F' = E E' and E's column
    # count gives the same draw from the same stream
    data, _, _ = _state(rank=2)
    e = np.random.default_rng(7).standard_normal((3, data.n_cols)) * 0.4
    r_t = np.linalg.qr(e.T, mode="r").T
    for factor in (r_t, np.hstack([r_t, np.zeros((3, 2))]), -r_t[:, ::-1]):
        _, _, state = _state(rank=2)
        ref = step_gf(state, e, np.random.default_rng(8), "independent").copy()
        _, _, state = _state(rank=2)
        got = step_gf(state, factor, np.random.default_rng(8), "independent",
                      n_cols=data.n_cols)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_step_gf_factor_form_is_not_the_hankel_likelihood():
    data, _, state = _state(rank=2)
    e = np.random.default_rng(7).standard_normal((3, data.n_cols))
    with pytest.raises(ConfigError, match="hankel_exact"):
        step_gf(state, e, np.random.default_rng(0), "hankel_exact", n_cols=data.n_cols)


def test_step_gf_rejects_unknown_variant():
    data, ls, state = _state(rank=2)
    with pytest.raises(ConfigError):
        step_gf(state, np.zeros((3, data.n_cols)), np.random.default_rng(0), "mixed")


# -------------------------------------------------------------- run_gibbs

def test_run_gibbs_single_iterate_is_init_product():
    data, ls, state = _state(rank=2)
    est = run_gibbs(data, ls.h_fp_hat, ls.h_f_hat,
                    GibbsConfig(rank=2, n_total=1, n_burn=0), np.random.default_rng(0))
    assert np.allclose(est.h_fp_bayes, state.gamma_f @ state.l_p, atol=1e-12)
    assert est.chain_diagnostics.shape == (1,)


def test_run_gibbs_is_deterministic():
    data, ls, _ = _state(rank=1)
    cfg = GibbsConfig(rank=1, n_total=40, n_burn=5)
    a = run_gibbs(data, ls.h_fp_hat, ls.h_f_hat, cfg, np.random.default_rng(11))
    b = run_gibbs(data, ls.h_fp_hat, ls.h_f_hat, cfg, np.random.default_rng(11))
    assert np.array_equal(a.h_fp_bayes, b.h_fp_bayes)
    assert np.array_equal(a.chain_diagnostics, b.chain_diagnostics)


def test_run_gibbs_recovers_noiseless_map():
    # nilpotent n_x = f = p = 2: the true map is exactly rank 2 and the
    # posterior concentrates tightly around it
    model = shift_model(2)
    td = quiet_decomposition(model, 2, 2)
    rng = np.random.default_rng(5)
    _, _, data = sim_dataset(model, 297, 2, 2, rng)
    ls = ls_estimate(data)
    cfg = GibbsConfig(rank=2, n_total=250, n_burn=1)
    est = run_gibbs(data, ls.h_fp_hat, ls.h_f_hat, cfg, np.random.default_rng(9))
    rel = np.linalg.norm(est.h_fp_bayes - td.h_fp) / np.linalg.norm(td.h_fp)
    assert rel < 0.05


def test_run_gibbs_flags_divergence():
    data, ls, _ = _state(rank=1)
    bad = HankelData(stacked=np.vstack([data.y_f * np.nan, data.regressor]),
                     f=data.f, p=data.p, n_i=1, n_o=1)
    with pytest.raises(NumericalError, match="iteration"):
        run_gibbs(bad, ls.h_fp_hat, ls.h_f_hat,
                  GibbsConfig(rank=1, n_total=5, n_burn=0), np.random.default_rng(0))


def test_chain_is_stationary_after_burn_in():
    # trend test on the second half of the chain diagnostics
    model = siso_model([[0.5]], [[1.0]], [[1.0]], [[0.2]], [[0.3]])
    rng = np.random.default_rng(17)
    _, _, data = sim_dataset(model, 343, 4, 4, rng, burn_in=50)
    ls = ls_estimate(data)
    est = run_gibbs(data, ls.h_fp_hat, ls.h_f_hat,
                    GibbsConfig(rank=1, n_total=250, n_burn=50), np.random.default_rng(3))
    half = est.chain_diagnostics[125:]
    assert abs(mann_kendall_z(half)) < 2.576  # 1% two-sided


def test_rao_blackwell_reduces_chain_variance():
    data, ls, _ = _state(rank=1, n_cols=60)
    seeds = range(6)
    rb, raw = [], []
    for s in seeds:
        cfg_rb = GibbsConfig(rank=1, n_total=60, n_burn=10, rao_blackwell=True)
        cfg_raw = GibbsConfig(rank=1, n_total=60, n_burn=10, rao_blackwell=False)
        rb.append(run_gibbs(data, ls.h_fp_hat, ls.h_f_hat, cfg_rb,
                            np.random.default_rng(s)).h_fp_bayes)
        raw.append(run_gibbs(data, ls.h_fp_hat, ls.h_f_hat, cfg_raw,
                             np.random.default_rng(s)).h_fp_bayes)
    var_rb = np.var(np.stack(rb), axis=0).mean()
    var_raw = np.var(np.stack(raw), axis=0).mean()
    assert var_rb <= var_raw


# ------------------------------------------- chain on sufficient statistics

def _project_per_diagonal(m):
    return toeplitz_from_col([np.diagonal(m, -d).mean() for d in range(m.shape[0])])


def _omega_hankel_per_row(resid):
    i, j = resid.shape
    n_coef = i + j - 1
    s = np.zeros((n_coef, i))
    for m in range(i):
        idx = (np.arange(m + 1)[:, None] + np.arange(j)[None, :]).ravel()
        s[i - 1 - m:, m] = np.bincount(idx, weights=resid[: m + 1].ravel(), minlength=m + j)
    w = np.array([min(d + 1, i, j, n_coef - d) for d in range(n_coef)], dtype=float)
    omega = s.T @ (s / w[:, None])
    return (omega + omega.T) / 2.0


def _omega_independent_per_diagonal(resid):
    i = resid.shape[0]
    c = resid @ resid.T
    omega = np.zeros((i, i))
    for d in range(i):
        partial = np.cumsum(np.diagonal(c, offset=-d))
        rows = np.arange(i - d)
        omega[rows, rows + d] = partial
        omega[rows + d, rows] = partial
    return omega


def _symbol_inverse_series(q):
    p = np.zeros(q.shape[0])
    p[0] = 1.0 / q[0]
    for d in range(1, q.shape[0]):
        p[d] = -np.dot(q[1: d + 1], p[d - 1:: -1]) / q[0]
    return p


def _chain_on_data(data, ls, config, rng):
    """The chain with every conditional formed from Y_f, Z_p and U_f (f x N
    and r x N products each iteration), L_p mapped by pinv(Z_p), explicit
    inverses of the Cholesky factors and per-diagonal noise-update forms:
    the oracle for run_gibbs, drawing in the same order."""
    state = init_gibbs(ls.h_fp_hat, ls.h_f_hat, data, config.rank)
    gamma, h, l_p, g = state.gamma_f, state.h_f, state.l_p, state.g_f
    y_f, z_p, u_f = data.y_f, data.z_p, data.u_f
    z_pinv = np.linalg.pinv(z_p)
    # the L_p noise is r x 2p normals times R'^-1, R'R = Z_p Z_p'
    r_inv_t = np.linalg.inv(np.linalg.qr(z_p.T, mode="r")).T
    r, (i, j) = config.rank, y_f.shape
    accum = np.zeros((i, z_p.shape[0]))
    if config.n_burn == 0:
        accum += gamma @ l_p
    diagnostics = [np.linalg.norm(gamma @ l_p)]
    for n in range(2, config.n_total + 1):
        gs = 1.0 / g[0, 0] ** 2
        reg = np.vstack([l_p @ z_p, u_f])
        gram = scipy.linalg.block_diag(state.lambda_gamma, state.lambda_h) + gs * (reg @ reg.T)
        gram = (gram + gram.T) / 2.0
        mean = gs * np.linalg.solve(gram, (y_f @ reg.T).T).T
        xi = rng.standard_normal(mean.shape)
        draw = mean + (g / g[0, 0]) @ xi @ np.linalg.inv(np.linalg.cholesky(gram))
        gamma_mean, l_prev = mean[:, :r], l_p
        gamma, h = draw[:, :r], _project_per_diagonal(draw[:, r:])

        tmp = scipy.linalg.solve_triangular(g, gamma, lower=True)
        sinv_gamma = scipy.linalg.solve_triangular(g, tmp, lower=True, trans="T")
        prec = gamma.T @ sinv_gamma + state.lambda_l
        prec = (prec + prec.T) / 2.0
        mean_q = np.linalg.solve(prec, sinv_gamma.T @ y_f - (sinv_gamma.T @ h) @ u_f)
        l_mean = mean_q @ z_pinv
        xi_q = rng.standard_normal((r, z_p.shape[0]))
        l_p = l_mean + psd_sqrt(prec, inverse=True) @ (xi_q @ r_inv_t)

        resid = y_f - gamma @ (l_p @ z_p) - h @ u_f
        if config.gf_variant == "hankel_exact":
            omega, dof = _omega_hankel_per_row(resid), j + 1
        else:
            omega, dof = _omega_independent_per_diagonal(resid), i * j - i + 2
        nu = np.concatenate([rng.standard_normal(i - 1), [np.sqrt(rng.chisquare(dof))]])
        row = scipy.linalg.solve_triangular(np.linalg.cholesky(omega), nu, lower=True, trans="T")
        g = toeplitz_from_col(_symbol_inverse_series(row[::-1]))

        diagnostics.append(np.linalg.norm(gamma @ l_p))
        if n > config.n_burn:
            if config.rao_blackwell:
                accum += (gamma_mean @ l_prev + gamma @ l_mean) / 2.0
            else:
                accum += gamma @ l_p
    return accum / (config.n_total - config.n_burn), np.asarray(diagnostics)


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("rao_blackwell", [True, False])
@pytest.mark.parametrize("variant", ["independent", "hankel_exact"])
def test_run_gibbs_matches_the_chain_on_data(variant, rao_blackwell, rank):
    data, ls, _ = _state(seed=3, rank=rank, f=4, p=4, n_cols=60)
    cfg = GibbsConfig(rank=rank, n_total=40, n_burn=5, gf_variant=variant,
                      rao_blackwell=rao_blackwell)
    est = run_gibbs(data, ls.h_fp_hat, ls.h_f_hat, cfg, np.random.default_rng(12))
    ref, ref_diag = _chain_on_data(data, ls, cfg, np.random.default_rng(12))
    assert np.abs(est.h_fp_bayes - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.allclose(est.chain_diagnostics, ref_diag, rtol=1e-12, atol=0.0)


# --------------------------------------- chain that rebuilds every iteration

def _step_gamma_hf_rebuilding(state, rng):
    """The [Gamma_f H_f] step with its precision put together by np.block
    and factored in place of a fill, and both the mean and the draw of H_f
    projected."""
    gs = 1.0 / (state.g_f[0, 0] ** 2)
    lzu = gs * (state.l_p @ state.zu)
    gram = np.block([[state.lambda_gamma + gs * (state.l_p @ state.zz @ state.l_p.T), lzu],
                     [lzu.T, state.lambda_h + gs * state.uu]])
    gram = (gram + gram.T) / 2.0
    chol = np.linalg.cholesky(gram)
    y_reg = np.hstack([state.yz @ state.l_p.T, state.yu])
    mean = gs * scipy.linalg.cho_solve((chol, True), y_reg.T).T
    xi = rng.standard_normal(mean.shape)
    root_xi = scipy.linalg.solve_triangular(chol, xi.T, lower=True, trans="T").T
    draw = mean + (state.g_f / state.g_f[0, 0]) @ root_xi
    r = state.l_p.shape[0]
    return ((mean[:, :r], toeplitz_project(mean[:, r:])),
            (draw[:, :r], toeplitz_project(draw[:, r:])))


def _stacked_factor_t(data):
    """R' of a QR of the stacked rows taken as [Z_p; U_f; Y_f], its rows put
    back in [Y_f; Z_p; U_f] order, so that its Gram is stacked stacked'."""
    n_rows = data.stacked.shape[0]
    r_t = scipy.linalg.qr(np.vstack([data.regressor, data.y_f]).T, mode="r")[0][:n_rows].T
    return np.vstack([r_t[-data.f:], r_t[:-data.f]])


def _run_gibbs_rebuilding(data, ls, config, rng):
    """run_gibbs with everything formed afresh in each iteration: the
    precision, the projected H_f mean, [I, -Gamma L_p, -H_f] and the data
    form the residue coefficients go through: under "independent" the QR of
    the data whose factor they multiply, under "hankel_exact" the windows
    form of the Hankel-aware likelihood."""
    state = init_gibbs(ls.h_fp_hat, ls.h_f_hat, data, config.rank)
    accum = np.zeros_like(ls.h_fp_hat)
    if config.n_burn == 0:
        accum += state.gamma_f @ state.l_p
    diagnostics = [float(np.linalg.norm(state.gamma_f @ state.l_p))]
    for n in range(2, config.n_total + 1):
        (gamma_mean, _), (gamma_draw, h_draw) = _step_gamma_hf_rebuilding(state, rng)
        l_prev, state.gamma_f, state.h_f = state.l_p, gamma_draw, h_draw
        l_mean, l_draw = step_lp(state, rng)
        state.l_p = l_draw
        coef = np.hstack([np.eye(data.f), -gamma_draw @ l_draw, -h_draw])
        if config.gf_variant == "independent":
            step_gf(state, coef @ _stacked_factor_t(data), rng, "independent",
                    n_cols=data.n_cols)
        else:
            step_gf(state, coef, rng, "hankel_exact", form=bayes.hankel_form(data))
        diagnostics.append(float(np.linalg.norm(gamma_draw @ l_draw)))
        if n > config.n_burn:
            if config.rao_blackwell:
                accum += (gamma_mean @ l_prev + gamma_draw @ l_mean) / 2.0
            else:
                accum += gamma_draw @ l_draw
    return accum / (config.n_total - config.n_burn), np.asarray(diagnostics)


@pytest.mark.parametrize("size", ["small", "long"])
@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("rao_blackwell", [True, False])
@pytest.mark.parametrize("variant", ["independent", "hankel_exact"])
def test_run_gibbs_equals_the_rebuilding_chain_bit_for_bit(variant, rao_blackwell, rank, size,
                                                           monkeypatch):
    if size == "small":
        data, ls, _ = _state(seed=3, rank=rank, f=4, p=4, n_cols=60)
        cfg = GibbsConfig(rank=rank, n_total=40, n_burn=5, gf_variant=variant,
                          rao_blackwell=rao_blackwell)
    else:
        # the size of a 2000-sample record at f = p = 20; the chain never
        # reads the 621 MB of selectors init_gibbs would build for it
        monkeypatch.setattr(bayes, "build_selectors", lambda i, n: None)
        data, ls, _ = _state(seed=4, rank=rank, f=20, p=20, n_cols=1961)
        cfg = GibbsConfig(rank=rank, n_total=6, n_burn=1, gf_variant=variant,
                          rao_blackwell=rao_blackwell)
    est = run_gibbs(data, ls.h_fp_hat, ls.h_f_hat, cfg, np.random.default_rng(12))
    ref, ref_diag = _run_gibbs_rebuilding(data, ls, cfg, np.random.default_rng(12))
    assert np.array_equal(est.h_fp_bayes, ref)
    assert np.array_equal(est.chain_diagnostics, ref_diag)
