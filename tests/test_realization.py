"""The realization draw: bench.draw_realization, the state-only simulate
loop, the doubling Kalman gain, the Markov blocks of true_decomposition,
and the callers that share the draw (single_run, cli simulate)."""
import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from _util import quiet_decomposition, simulate_per_step, truth_power_loop
from sidshrink import bench, cli, estimation, systems
from sidshrink.bayes import GibbsConfig
from sidshrink.bench import BenchConfig, draw_realization, single_run
from sidshrink.dataio import read_timeseries
from sidshrink.errors import NumericalError
from sidshrink.estimation import (
    NoiseEstimate,
    assemble,
    build_weights,
    estimate_noise,
    ls_estimate,
    rank_star,
    weighted_svd,
)
from sidshrink.linalg import toeplitz_project
from sidshrink.systems import (
    SystemSpec,
    default_burn_in,
    kalman_gain,
    sample_system,
    simulate,
    true_decomposition,
)


def _system_stream(seed, run_id, attempt):
    return np.random.default_rng(np.random.SeedSequence([seed, run_id, attempt]).spawn(2)[0])


def _first_run_per_order(seed=0):
    """n_x -> the first protocol run id at `seed` whose system has that order."""
    runs = {}
    for run_id in range(200):
        model, *_ = sample_system(SystemSpec(), _system_stream(seed, run_id, 0))
        runs.setdefault(model.n_x, run_id)
        if len(runs) == 10:
            return runs
    raise AssertionError(f"orders {sorted(runs)} only")


# ---------------------------------------------------------------- simulate

def test_protocol_draws_match_per_step_loop_for_every_order():
    # the benchmark's risks and orders depend on these outputs bit for bit
    for n_x, run_id in sorted(_first_run_per_order().items()):
        draw = draw_realization(0, run_id, 0)
        rng = _system_stream(0, run_id, 0)
        model, snr, n_samples, horizon = sample_system(SystemSpec(), rng)
        burn = default_burn_in(model)
        assert model.n_x == draw.model.n_x == n_x and burn > 0
        u = rng.normal(0.0, math.sqrt(snr), size=(burn + n_samples + 2 * horizon, 1))
        assert np.array_equal(draw.u, u[burn:])
        assert np.array_equal(draw.y, simulate_per_step(model, u, rng, burn))


def test_simulate_without_burn_in_matches_per_step_loop():
    # burn_in = len(u) - 1 keeps one output: the last row of the state buffer
    for n_x in range(1, 11):
        rng = np.random.default_rng(n_x)
        model, snr, n_samples, _ = sample_system(SystemSpec(nx_range=(n_x, n_x)), rng)
        u = rng.normal(0.0, math.sqrt(snr), size=(n_samples, 1))
        for burn in (0, n_samples - 1):
            y = simulate(model, u, np.random.default_rng(50 + n_x), burn_in=burn)
            assert y.shape == (n_samples - burn, 1)
            assert np.array_equal(
                y, simulate_per_step(model, u, np.random.default_rng(50 + n_x), burn))


def test_simulate_two_outputs_matches_per_step_loop():
    # n_o = 2 sums C x over two columns of the batched product; kept apart
    # from the single-output tests because the protocol never draws it
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model, snr, n_samples, _ = sample_system(SystemSpec(n_o=2), rng)
        u = rng.normal(0.0, math.sqrt(snr), size=(n_samples + 30, 1))
        y = simulate(model, u, np.random.default_rng(seed), burn_in=30)
        assert np.array_equal(y, simulate_per_step(model, u, np.random.default_rng(seed), 30))


# ------------------------------------------------------------- kalman_gain

def _fixed_point_steps(a, c, r_w, r_v, tol=1e-12):
    """Steps of P <- A P A' - A P C' (C P C' + R_v)^-1 C P A' + R_w from
    P = R_w until the relative change is at or below tol."""
    p = r_w
    for step in range(1, 20000):
        apc = a @ p @ c.T
        p_new = a @ p @ a.T - apc @ np.linalg.solve(c @ p @ c.T + r_v, apc.T) + r_w
        p_new = (p_new + p_new.T) / 2.0
        if np.linalg.norm(p_new - p) <= tol * np.linalg.norm(p_new):
            return step
        p = p_new
    raise AssertionError("fixed point did not converge")


def test_kalman_gain_doubles_through_a_slow_draw(monkeypatch):
    # the protocol draw with the slowest fixed point (seed 0, run 4,
    # attempt 1: 1298 steps), its A rescaled to spectral radius 0.999
    model, *_ = sample_system(SystemSpec(), _system_stream(0, 4, 1))
    a = model.a / model.spectral_radius() * 0.999
    c, r_w, r_v = model.c, model.r_w, model.r_v
    assert _fixed_point_steps(a, c, r_w, r_v) > 1000
    monkeypatch.setattr(systems, "_RICCATI_MAX_ITER", 20)
    k, sigma = kalman_gain(a, c, r_w, r_v)
    p = scipy.linalg.solve_discrete_are(a.T, c.T, r_w, r_v)
    sigma_ref = c @ p @ c.T + r_v
    k_ref = a @ p @ c.T @ np.linalg.inv(sigma_ref)
    assert np.linalg.norm(k - k_ref) <= 1e-10 * np.linalg.norm(k_ref)
    assert np.linalg.norm(sigma - sigma_ref) <= 1e-10 * np.linalg.norm(sigma_ref)
    monkeypatch.setattr(systems, "_RICCATI_MAX_ITER", 2)
    with pytest.raises(NumericalError):
        kalman_gain(a, c, r_w, r_v)


def test_kalman_gain_rejects_singular_measurement_noise():
    a, c = np.array([[0.5, 0.1], [0.0, 0.3]]), np.array([[1.0, 1.0]])
    with pytest.raises(NumericalError):
        kalman_gain(a, c, np.eye(2), np.zeros((1, 1)))


def test_kalman_gain_rejects_singular_doubling_step():
    # G = C' R_v^-1 C = 1 and P = R_w = -1, so the first W = I + G P is 0
    with pytest.raises(NumericalError, match="doubling step singular"):
        kalman_gain(0.5, 1.0, -1.0, 1.0)


# ------------------------------------------------------ true_decomposition

def test_markov_blocks_match_power_loop():
    for spec, seed in ((SystemSpec(), 3), (SystemSpec(), 8), (SystemSpec(n_i=2, n_o=2), 1)):
        rng = np.random.default_rng(seed)
        model, _, _, f = sample_system(spec, rng)
        td = true_decomposition(model, f, f)
        n_o, n_i = model.n_o, model.n_i
        sig_half = scipy.linalg.sqrtm(model.sigma).real
        cur = model.c
        for lag in range(1, f):
            h_ref, g_ref = cur @ model.b, cur @ model.k @ sig_half
            h_blk = td.h_f[lag * n_o:(lag + 1) * n_o, :n_i]
            g_blk = td.g_f[lag * n_o:(lag + 1) * n_o, :n_o]
            assert np.abs(h_blk - h_ref).max() <= 1e-12 * max(1.0, np.abs(h_ref).max())
            assert np.abs(g_blk - g_ref).max() <= 1e-12 * max(1.0, np.abs(g_ref).max())
            cur = cur @ model.a
        # every block on one subdiagonal is the same Markov parameter
        assert np.array_equal(td.h_f[n_o:2 * n_o, :n_i], td.h_f[-n_o:, -2 * n_i:-n_i])
        # f = 1 leaves no Markov block past D
        assert np.array_equal(quiet_decomposition(model, 1, 1).h_f, model.d)


def _assert_truth_matches_power_loop(model, f, p):
    td = quiet_decomposition(model, f, p)
    gamma_ref, l_ref = truth_power_loop(model, f, p)
    for got, ref in ((td.gamma_f, gamma_ref), (td.l_p, l_ref)):
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # h_fp is the product of the two returned factors, bit for bit
    assert np.array_equal(td.h_fp, td.gamma_f @ td.l_p)


def test_truth_by_repeated_squaring_matches_the_power_loop():
    # the 300 systems of the seed-0 protocol, at their horizons
    for run_id in range(300):
        model, _, _, f = sample_system(SystemSpec(), _system_stream(0, run_id, 0))
        _assert_truth_matches_power_loop(model, f, f)


@pytest.mark.parametrize("f, p", [(1, 1), (2, 7), (7, 2), (16, 16), (25, 13)])
def test_truth_by_repeated_squaring_matches_the_power_loop_mimo_with_feedthrough(f, p):
    model, _, _, _ = sample_system(SystemSpec(n_i=2, n_o=3), np.random.default_rng(4))
    d = np.random.default_rng(5).standard_normal((3, 2))
    _assert_truth_matches_power_loop(dataclasses.replace(model, d=d), f, p)


def _no_toeplitz(*args, **kwargs):
    raise AssertionError("built a Markov Toeplitz block that nothing reads")


def test_scored_path_builds_no_unread_truth(tmp_path, monkeypatch, capsys):
    # single_run and cli simulate read h_fp alone; h_f and g_f wait for a reader
    monkeypatch.setattr(systems, "_block_toeplitz", _no_toeplitz)
    cfg = BenchConfig(runs=1, scheme="cva", methods=("heuristic_neff", "soft"), seed=0)
    record, payload = single_run(cfg, 0, keep_payload=True)
    assert record.attempts == 1 and np.isfinite(payload.h_fp_true).all()
    assert cli.main(["simulate", "--seed", "4", "--out", str(tmp_path / "sim.csv")]) == 0
    capsys.readouterr()
    td = true_decomposition(draw_realization(0, 0, 0).model, payload.f, payload.p)
    with pytest.raises(AssertionError, match="Markov Toeplitz"):
        td.h_f


# ------------------------------------------------------------ noise factor

def test_rank_star_forms_no_noise_factor(monkeypatch):
    draw = draw_realization(0, 2, 0)
    data = assemble(draw.u, draw.y, draw.f, draw.p)
    ls = ls_estimate(data)
    noise = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat)
    assert "g_f_hat" not in NoiseEstimate.__dataclass_fields__
    assert np.array_equal(noise.g_f_hat,
                          toeplitz_project(estimation._chol_psd(noise.g_hat_sq)))
    weights = build_weights("cva", data, g_f_hat=noise.g_f_hat)
    svd = weighted_svd(ls.h_fp_hat, weights)

    factors, calls = [], []
    chol, noise_fn = estimation._chol_psd, estimation.estimate_noise
    monkeypatch.setattr(estimation, "_chol_psd", lambda m: factors.append(m) or chol(m))
    # rank_star looks estimate_noise up as a module global on every rank
    monkeypatch.setattr(estimation, "estimate_noise",
                        lambda *a, **kw: calls.append(kw) or noise_fn(*a, **kw))
    rank_star(data, ls, weights, svd)
    assert factors == [] and len(calls) >= 1


@pytest.mark.parametrize("scheme, expected", [("identity", 0), ("cva", 1), ("n4sid", 0)])
def test_identify_estimates_full_rank_noise_only_under_cva(monkeypatch, scheme, expected):
    draw = draw_realization(0, 2, 0)
    data = assemble(draw.u, draw.y, draw.f, draw.p)
    calls, noise_fn = [], bench.estimate_noise
    monkeypatch.setattr(bench, "estimate_noise",
                        lambda *a, **kw: calls.append(kw) or noise_fn(*a, **kw))
    bench.identify(data, scheme, ("heuristic_neff",), GibbsConfig(rank=1),
                   np.random.default_rng(0))
    assert len(calls) == expected


# -------------------------------------------------------- draw and callers

def test_single_run_scores_the_drawn_realization():
    cfg = BenchConfig(runs=3, scheme="cva", methods=("heuristic_neff", "soft"), seed=0)
    for run_id in range(3):
        record, payload = single_run(cfg, run_id, keep_payload=True)
        draw = draw_realization(0, run_id, record.attempts - 1)
        assert record.n_x == draw.model.n_x and record.snr == draw.snr
        assert np.array_equal(payload.u, draw.u) and np.array_equal(payload.y, draw.y)
        assert np.array_equal(payload.h_fp_true,
                              true_decomposition(draw.model, draw.f, draw.p).h_fp)


def test_single_run_spawns_each_attempts_streams_once(monkeypatch):
    calls = []
    streams = bench._streams
    monkeypatch.setattr(bench, "_streams", lambda *a: calls.append(a) or streams(*a))
    cfg = BenchConfig(runs=3, methods=("heuristic_neff", "bayes"), seed=0,
                      gibbs=GibbsConfig(rank=1, n_total=6))
    record, payload = single_run(cfg, 2, keep_payload=True)
    assert calls == [(0, 2, a) for a in range(record.attempts)]
    # the chain still reads the attempt's second stream
    attempt = record.attempts - 1
    chain = np.random.default_rng(np.random.SeedSequence([0, 2, attempt]).spawn(2)[1])
    draw = draw_realization(0, 2, attempt)
    ident = bench.identify(assemble(draw.u, draw.y, draw.f, draw.p), cfg.scheme,
                           cfg.methods, cfg.gibbs, chain)
    assert np.array_equal(payload.estimates["bayes"], ident.estimates["bayes"])


def _no_identify(*args, **kwargs):
    raise AssertionError("simulate ran an estimator")


def test_cli_simulate_writes_the_draw_without_estimators(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "identify", _no_identify)
    monkeypatch.setattr(cli, "identify", _no_identify)
    out = tmp_path / "sim.csv"
    assert cli.main(["simulate", "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    u, y, meta = read_timeseries(out)
    draw = draw_realization(4, 0, 0)
    assert np.array_equal(u, draw.u) and np.array_equal(y, draw.y)
    assert (meta["f"], meta["p"], meta["nx"]) == (draw.f, draw.p, draw.model.n_x)


def test_cli_simulate_redraws_only_a_failed_draw(tmp_path, monkeypatch, capsys):
    attempts = []

    def failing_first(seed, run_id, attempt):
        attempts.append(attempt)
        if attempt == 0:
            raise NumericalError("injected")
        return draw_realization(seed, run_id, attempt)

    monkeypatch.setattr(cli, "draw_realization", failing_first)
    out = tmp_path / "sim.csv"
    assert cli.main(["simulate", "--seed", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert attempts == [0, 1]
    u, y, _ = read_timeseries(out)
    assert np.array_equal(y, draw_realization(4, 0, 1).y)
