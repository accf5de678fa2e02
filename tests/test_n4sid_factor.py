"""The n4sid weights on the square triangular factor R' of Z_p (R'R = Z_p Z_p'):
every map that the wide W1 H Z_p defines (truncation, the shrinkers, r*, the
noise level) is the same map on the f x 2p W1 H R', as long as the noise
model keeps its f x N shape. Its noise-level factor comes from the
principal angles between the row spaces of U_f and Z_p, with no N-column
basis."""
import re

import numpy as np
import pytest
import scipy.linalg

from _util import siso_model, sim_dataset
from sidshrink import estimation
from sidshrink.bayes import GibbsConfig
from sidshrink.bench import METHOD_NAMES, draw_realization, identify
from sidshrink.errors import NumericalError
from sidshrink.estimation import (
    HankelData,
    RankStar,
    _zpz_perp,
    assemble,
    build_weights,
    estimate_noise,
    ls_estimate,
    noise_level,
    rank_star,
    truncate_estimate,
    weighted_svd,
)
from sidshrink.shrinkage import METHODS, make_context, shrink_estimate, shrink_values, soft_threshold_level

REL = 1e-12


class WideOracle:
    """The n4sid pipeline on W1 H Z_p itself, with Z_p's pseudo-inverse as
    the unweighting, as the weights were before the factor form."""

    def __init__(self, data):
        self.data = data
        self.pinv = np.linalg.pinv(data.z_p)
        x = np.linalg.solve(np.linalg.cholesky(_zpz_perp(data)[0]), data.z_p)
        self.factor1 = float(np.linalg.eigvalsh(x @ x.T)[-1])

    def factor(self, h):
        return np.linalg.svd(h @ self.data.z_p, full_matrices=False)

    def truncate(self, h, r):
        u, s, vt = self.factor(h)
        return (u[:, :r] * s[:r]) @ vt[:r] @ self.pinv

    def shrink(self, h, sigma, method):
        u, s, vt = self.factor(h)
        m = h @ self.data.z_p
        return (u * shrink_values(s, make_context(m.shape, sigma), method)) @ vt @ self.pinv

    def sigma(self, g_hat_sq):
        return np.sqrt(self.factor1 * np.linalg.eigvalsh(g_hat_sq)[-1])

    def rank_star(self, ls):
        s = self.factor(ls.h_fp_hat)[1]
        i, j = sorted((ls.h_fp_hat.shape[0], self.data.n_cols))
        for r in range(1, i + 1):
            noise = estimate_noise(self.data, self.truncate(ls.h_fp_hat, r), ls.h_f_hat,
                                   rank_used=r)
            sigma = self.sigma(noise.g_hat_sq)
            if np.sum(s > soft_threshold_level(i, j, sigma)) < r:
                return RankStar(r_star=r, sigma_level=sigma, converged=True)
        return RankStar(r_star=i, sigma_level=sigma, converged=False)


def _close(a, b, rel=REL):
    return np.linalg.norm(a - b) <= rel * np.linalg.norm(b)


@pytest.mark.parametrize("run_id", range(4))
def test_factor_form_gives_the_wide_form_maps(run_id):
    draw = draw_realization(0, run_id, 0)
    data = assemble(draw.u, draw.y, draw.f, draw.p)
    ls = ls_estimate(data)
    weights = build_weights("n4sid", data)
    svd = weighted_svd(ls.h_fp_hat, weights)
    wide = WideOracle(data)
    assert svd.vt.shape[1] == 2 * data.p
    assert svd.shape == (data.f, data.n_cols)
    assert weights.factor1 == pytest.approx(wide.factor1, rel=REL, abs=0.0)
    assert np.allclose(svd.values, wide.factor(ls.h_fp_hat)[1], rtol=REL, atol=0.0)
    expect = wide.rank_star(ls)
    got = rank_star(data, ls, weights, svd)
    assert (got.r_star, got.converged) == (expect.r_star, expect.converged)
    assert got.sigma_level == pytest.approx(expect.sigma_level, rel=REL, abs=0.0)
    for r in range(1, expect.r_star + 3):
        assert _close(truncate_estimate(svd, weights, r), wide.truncate(ls.h_fp_hat, r))
    for method in METHODS:
        assert _close(shrink_estimate(svd, weights, got.sigma_level, method),
                      wide.shrink(ls.h_fp_hat, got.sigma_level, method))


def test_z_factor_is_read_by_n4sid_and_the_chain_only():
    draw = draw_realization(0, 0, 0)
    data = assemble(draw.u, draw.y, draw.f, draw.p)
    methods = tuple(m for m in METHOD_NAMES if m != "bayes")
    identify(data, "cva", methods, GibbsConfig(rank=1), np.random.default_rng(0))
    assert "z_factor" not in data.__dict__
    got = identify(data, "n4sid", methods, GibbsConfig(rank=1), np.random.default_rng(0))
    r = data.__dict__["z_factor"]
    assert np.shares_memory(got.weights.w2, r)
    # the chain reads the same factor, formed once
    identify(data, "cva", ("bayes",), GibbsConfig(rank=1, n_total=4, n_burn=1),
             np.random.default_rng(0))
    assert data.z_factor is r
    fresh = assemble(draw.u, draw.y, draw.f, draw.p)
    identify(fresh, "identity", ("bayes",), GibbsConfig(rank=1, n_total=4, n_burn=1),
             np.random.default_rng(0))
    assert "z_factor" in fresh.__dict__


def test_n4sid_weights_reject_a_rank_deficient_z_p():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 50))
    z = np.vstack([z, z[:1]])           # a repeated row
    data = HankelData(stacked=np.vstack([rng.standard_normal((2, 50)), z,
                                         rng.standard_normal((2, 50))]),
                      f=2, p=2, n_i=1, n_o=1)
    with pytest.raises(NumericalError, match="n4sid"):
        build_weights("n4sid", data)


def test_padded_spectrum_is_the_wide_one_up_to_rounding():
    # SISO with f > 2p: W1 H Z_p is f x N of rank 2p, its last f - 2p values
    # are rounding noise, and the factor form pads them as zeros
    rng = np.random.default_rng(3)
    model = siso_model([[0.6, 0.2], [-0.1, 0.5]], [[1.0], [0.5]], [[1.0, -0.4]],
                       np.eye(2) * 0.2, [[0.3]])
    f, p = 10, 3
    _, _, data = sim_dataset(model, 300, f, p, rng, burn_in=50)
    ls = ls_estimate(data)
    weights = build_weights("n4sid", data)
    svd = weighted_svd(ls.h_fp_hat, weights)
    wide = WideOracle(data)
    s_wide = wide.factor(ls.h_fp_hat)[1]
    assert svd.shape == (f, data.n_cols)
    assert svd.values.shape == (f,)
    assert svd.u.shape == (f, f) and svd.vt.shape == (f, 2 * p)
    assert np.all(svd.values[2 * p:] == 0.0)
    assert np.allclose(svd.values[:2 * p], s_wide[:2 * p], rtol=REL, atol=0.0)
    assert np.all(s_wide[2 * p:] <= 1e-13 * s_wide[0])
    g_hat_sq = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat).g_hat_sq
    assert noise_level(weights, g_hat_sq) == pytest.approx(wide.sigma(g_hat_sq), rel=REL)
    expect = wide.rank_star(ls)
    got = rank_star(data, ls, weights, svd)
    assert (got.r_star, got.converged) == (expect.r_star, expect.converged)
    assert got.sigma_level == pytest.approx(expect.sigma_level, rel=REL, abs=0.0)
    for r in (1, 2 * p, f):
        assert _close(truncate_estimate(svd, weights, r), wide.truncate(ls.h_fp_hat, r))
    for method in METHODS:
        assert _close(shrink_estimate(svd, weights, got.sigma_level, method),
                      wide.shrink(ls.h_fp_hat, got.sigma_level, method), rel=1e-10)


# ------------------------------------------- factor1 from the principal angle

def _stacked(rng, f, p, n_cols, z_in_u=None, u_repeat=False):
    """A SISO HankelData of independent normal rows; z_in_u scales U_f's
    second row into Z_p's third, u_repeat repeats U_f's first row."""
    y, z, u = (rng.standard_normal((rows, n_cols)) for rows in (f, 2 * p, f))
    if z_in_u is not None:
        z[2] = z_in_u * u[1]
    if u_repeat:
        u[-1] = u[0]
    return HankelData(stacked=np.vstack([y, z, u]), f=f, p=p, n_i=1, n_o=1)


@pytest.mark.parametrize("run_id", (0, 57, 123, 299))
def test_factor1_is_one_over_the_smallest_principal_angle_sine_squared(run_id):
    draw = draw_realization(0, run_id, 0)
    data = assemble(draw.u, draw.y, draw.f, draw.p)
    theta_1 = scipy.linalg.subspace_angles(data.u_f.T, data.z_p.T).min()
    factor1 = build_weights("n4sid", data).factor1
    assert factor1 == pytest.approx(1.0 / np.sin(theta_1) ** 2, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("seed", range(6))
def test_factor1_is_none_when_a_z_p_row_lies_in_the_u_f_row_space(seed):
    # both blocks keep full row rank, but Z_p Pi Z_p' is singular: 1 - s_1^2
    # reads +-1e-15, where the congruence failed on some seeds and returned
    # ~1e15 on others
    rng = np.random.default_rng(seed)
    data = _stacked(rng, 3, 3, 60, z_in_u=10.0 ** rng.uniform(-3, 3))
    assert np.linalg.matrix_rank(data.z_p) == 6 and np.linalg.matrix_rank(data.u_f) == 3
    weights = build_weights("n4sid", data)
    assert weights.factor1 is None
    with pytest.raises(NumericalError, match="singular"):
        noise_level(weights, np.eye(3))


def test_identity_factor1_is_none_when_a_z_p_row_lies_in_the_u_f_row_space():
    # the same singular Z_p Pi Z_p': the congruence's Cholesky used to fail
    # on 110 of these 200 cases and to return 2.7e7 to 3.7e19 on the rest;
    # the principal-angle cut gives None on all of them
    factors = []
    for seed in range(200):
        rng = np.random.default_rng(seed)
        data = _stacked(rng, 3, 3, 60, z_in_u=10.0 ** rng.uniform(-3, 3))
        factors.append(build_weights("identity", data).factor1)
    assert factors == [None] * 200


def test_identity_factor1_is_the_congruence_on_regular_data():
    data = _stacked(np.random.default_rng(3), 3, 3, 60)
    x = np.linalg.solve(np.linalg.cholesky(_zpz_perp(data)[0]), np.eye(6))
    expect = float(np.linalg.eigvalsh(x @ x.T)[-1])
    assert build_weights("identity", data).factor1 == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_n4sid_weights_reject_a_rank_deficient_u_f(seed):
    # U_f U_f' is singular: its Cholesky fails, or leaves a pivot of rounding size
    data = _stacked(np.random.default_rng(seed), 3, 3, 60, u_repeat=True)
    with pytest.raises(NumericalError, match=r"n4sid.*U_f"):
        build_weights("n4sid", data)


@pytest.mark.parametrize("routine, call, step", [
    ("dpotrf", 0, "n4sid Cholesky of U_f U_f'"),
    ("dtrtrs", 1, "n4sid L_u^-1 U_f Z_p' solve"),
    ("dtrtrs", 2, "n4sid R'^-1 X' solve"),
])
def test_factor1_lapack_info_raises_numerical_error_naming_the_step(monkeypatch, routine,
                                                                     call, step):
    data = _stacked(np.random.default_rng(8), 4, 4, 100)
    real, calls = getattr(estimation, routine), []

    def failing_once(*args, **kwargs):
        calls.append(routine)
        out = real(*args, **kwargs)
        return (*out[:-1], 2) if len(calls) == call + 1 else out

    monkeypatch.setattr(estimation, routine, failing_once)
    with pytest.raises(NumericalError, match=re.escape(f"{step} (LAPACK info 2)")):
        build_weights("n4sid", data)
