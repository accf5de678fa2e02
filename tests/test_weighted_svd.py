"""One weighted SVD per identification: r*, truncation and shrinkage read
the factorisation that weighted_svd forms once, and give, bit for bit, what
factoring the weighted estimate in every call gave. Its values are the one
spectrum: each shrinker's estimate and reported order come from the same
shrunk vector."""
import numpy as np
import pytest

from sidshrink.bayes import GibbsConfig
from sidshrink.bench import BenchConfig, identify, single_run
from sidshrink.estimation import (
    RankStar,
    assemble,
    estimate_noise,
    ls_estimate,
    noise_level,
    rank_star,
    truncate_estimate,
    weighted_svd,
)
from sidshrink.shrinkage import METHODS, make_context, shrink_estimate, shrink_values, soft_threshold_level

RUNS = range(3)


# each oracle takes the singular vectors from a thin SVD and the spectrum
# from a values-only SVD of the weighted estimate m
def _per_call_truncate(h_fp_hat, weights, r):
    m = weights.apply(h_fp_hat)
    u, _, vt = np.linalg.svd(m, full_matrices=False)
    s = np.linalg.svd(m, compute_uv=False)
    return weights.unapply((u[:, :r] * s[:r]) @ vt[:r])


def _per_call_shrink(h_fp_hat, weights, sigma_level, method):
    # the noise model's shape: N columns under n4sid, whose w2 is 2p x 2p
    m = weights.apply(h_fp_hat)
    ctx = make_context((m.shape[0], weights.n_cols), sigma_level)
    transposed = m.shape[0] > m.shape[1]
    u, _, vt = np.linalg.svd(m.T if transposed else m, full_matrices=False)
    s = np.linalg.svd(m, compute_uv=False)
    denoised = (u * shrink_values(s, ctx, method)) @ vt
    return weights.unapply(denoised.T if transposed else denoised)


def _per_call_rank_star(data, ls, weights):
    m = weights.apply(ls.h_fp_hat)
    s_all = np.linalg.svd(m, compute_uv=False)
    shape = (m.shape[0], weights.n_cols)
    dim_i, dim_j = min(shape), max(shape)
    for r in range(1, dim_i + 1):
        h_trunc = _per_call_truncate(ls.h_fp_hat, weights, r)
        noise = estimate_noise(data, h_trunc, ls.h_f_hat, rank_used=r)
        sigma_r = noise_level(weights, noise.g_hat_sq)
        count = int(np.sum(s_all > soft_threshold_level(dim_i, dim_j, sigma_r)))
        if count < r:
            return RankStar(r_star=r, sigma_level=sigma_r, converged=True)
    return RankStar(r_star=dim_i, sigma_level=sigma_r, converged=False)


def _realization(scheme, run_id):
    config = BenchConfig(runs=1, scheme=scheme, methods=("heuristic_neff",))
    _, payload = single_run(config, run_id, keep_payload=True)
    data = assemble(payload.u, payload.y, payload.f, payload.p)
    return data, ls_estimate(data), payload.weights


@pytest.mark.parametrize("run_id", RUNS)
@pytest.mark.parametrize("scheme", ["identity", "cva", "n4sid"])
def test_shared_svd_matches_per_call_factorisation_exactly(scheme, run_id):
    data, ls, weights = _realization(scheme, run_id)
    svd = weighted_svd(ls.h_fp_hat, weights)
    for r in range(1, svd.values.size + 1):
        assert np.array_equal(truncate_estimate(svd, weights, r),
                              _per_call_truncate(ls.h_fp_hat, weights, r))
    expect = _per_call_rank_star(data, ls, weights)
    assert rank_star(data, ls, weights, svd) == expect
    assert rank_star(data, ls, weights) == expect
    for method in METHODS:
        assert np.array_equal(shrink_estimate(svd, weights, expect.sigma_level, method),
                              _per_call_shrink(ls.h_fp_hat, weights, expect.sigma_level, method))


@pytest.mark.parametrize("run_id", RUNS)
@pytest.mark.parametrize("scheme", ["identity", "cva", "n4sid"])
def test_values_match_the_values_only_svd_bit_for_bit(scheme, run_id):
    # the full SVD's s differs from these values in the last bits, enough to
    # change order_heuristic_neff on some protocol realizations
    _, ls, weights = _realization(scheme, run_id)
    svd = weighted_svd(ls.h_fp_hat, weights)
    m = weights.apply(ls.h_fp_hat)
    assert np.array_equal(svd.values, np.linalg.svd(m, compute_uv=False))


@pytest.mark.parametrize("run_id", RUNS)
@pytest.mark.parametrize("scheme", ["identity", "cva", "n4sid"])
def test_identify_shrinks_and_counts_one_spectrum(scheme, run_id):
    data, _, _ = _realization(scheme, run_id)
    ident = identify(data, scheme, METHODS, GibbsConfig(rank=1), np.random.default_rng(0))
    svd = ident.svd
    ctx = make_context(svd.shape, ident.rank.sigma_level)
    for method in METHODS:
        v = shrink_values(svd.values, ctx, method)
        assert np.array_equal(ident.estimates[method],
                              ident.weights.unapply((svd.u * v) @ svd.vt))
        assert ident.orders[method] == np.count_nonzero(v)
