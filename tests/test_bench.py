import math

import numpy as np
import pytest

from sidshrink import bench
from sidshrink.bayes import GibbsConfig
from sidshrink.bench import (
    METHOD_NAMES,
    BenchConfig,
    RunRecord,
    aggregate_risk,
    identify,
    realization_risk,
    run_benchmark,
    single_run,
)
from sidshrink.errors import ConfigError, DataError
from sidshrink.estimation import HankelData, assemble, build_weights
from sidshrink.systems import sample_system

FAST_METHODS = ("heuristic_neff", "heuristic_midpoint", "hard", "soft",
                "optimal", "sure")


def _identity_weights():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 20))
    data = HankelData(stacked=np.vstack([rng.standard_normal((2, 20)), z,
                                         rng.standard_normal((2, 20))]),
                      f=2, p=2, n_i=1, n_o=1)
    return build_weights("identity", data)


def _cfg(**kw):
    kw.setdefault("gibbs", GibbsConfig(rank=1, n_total=30, n_burn=5))
    kw.setdefault("methods", FAST_METHODS)
    kw.setdefault("runs", 3)
    return BenchConfig(**kw)


def test_config_validation():
    with pytest.raises(ConfigError):
        BenchConfig(runs=0)
    with pytest.raises(ConfigError):
        BenchConfig(scheme="pca")
    with pytest.raises(ConfigError):
        BenchConfig(methods=("heuristic_neff", "lasso"))
    with pytest.raises(ConfigError):
        BenchConfig(methods=("hard", "soft"))  # reference missing
    with pytest.raises(ConfigError):
        BenchConfig(parallelism=0)
    with pytest.raises(ConfigError, match="got -1"):
        BenchConfig(seed=-1)


def test_realization_risk_hand_value():
    w = _identity_weights()
    h_true = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    h_est = np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0]])
    assert realization_risk(h_true, h_est, w) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        realization_risk(h_true, np.zeros((3, 4)), w)


def test_aggregate_risk_values():
    gmean, se, n_used, n_excl = aggregate_risk([2.0, 8.0], [1.0, 1.0])
    assert gmean == pytest.approx(4.0)
    assert n_used == 2 and n_excl == 0
    assert se > 1.0

    gmean, _, _, _ = aggregate_risk([4.0, 0.25], [1.0, 1.0])
    assert gmean == pytest.approx(1.0)


def test_aggregate_risk_exclusions():
    gmean, se, n_used, n_excl = aggregate_risk([2.0, 0.0, np.inf, np.nan],
                                               [1.0, 1.0, 1.0, 1.0])
    assert gmean == pytest.approx(2.0)
    assert n_used == 1 and n_excl == 3
    assert math.isnan(se)  # one survivor has no spread estimate

    gmean, se, n_used, n_excl = aggregate_risk([0.0], [1.0])
    assert math.isnan(gmean) and n_used == 0 and n_excl == 1

    with pytest.raises(ValueError):
        aggregate_risk([1.0, 2.0], [1.0])


def test_single_run_is_reproducible():
    cfg = _cfg(runs=1, seed=5)
    a = single_run(cfg, run_id=0)
    b = single_run(cfg, run_id=0)
    assert a == b
    assert isinstance(a, RunRecord)
    assert a.attempts >= 1
    assert set(a.risks) == set(FAST_METHODS)
    assert all(np.isfinite(v) and v > 0 for v in a.risks.values())
    assert 1 <= a.n_x <= 10


def test_single_run_payload_shapes():
    cfg = _cfg(runs=1, seed=2, methods=("heuristic_neff", "soft"))
    record, payload = single_run(cfg, run_id=0, keep_payload=True)
    f, p = payload.f, payload.p
    assert payload.h_fp_true.shape == (f, 2 * p)
    assert set(payload.estimates) == {"heuristic_neff", "soft"}
    for est in payload.estimates.values():
        assert est.shape == payload.h_fp_true.shape
    assert payload.u.shape[0] == payload.y.shape[0]  # burn-in already dropped
    # risk recomputes from the payload pieces
    risk = realization_risk(payload.h_fp_true, payload.estimates["soft"],
                            payload.weights)
    assert risk == pytest.approx(record.risks["soft"])


def test_run_benchmark_summary_structure():
    cfg = _cfg(runs=4, seed=1)
    report = run_benchmark(cfg)
    assert [r.run_id for r in report.per_run] == [0, 1, 2, 3]
    summary = report.summary
    assert summary["scheme"] == "identity"
    assert summary["runs"] == 4
    assert summary["reference"] == "heuristic_neff"
    # the reference normalizes to exactly 1
    assert summary["methods"]["heuristic_neff"]["normalized_risk"] == 1.0
    for method in FAST_METHODS:
        block = summary["methods"][method]
        assert block["n_used"] + block["n_excluded"] == 4
        assert block["normalized_risk"] > 0
    assert summary["wall_time_s"] > 0


def test_run_benchmark_is_deterministic():
    cfg = _cfg(runs=3, seed=9)
    r1 = run_benchmark(cfg)
    r2 = run_benchmark(cfg)
    for a, b in zip(r1.per_run, r2.per_run):
        assert a == b


def test_identity_risk_is_plain_frobenius_error():
    cfg = _cfg(runs=2, seed=4)
    for rid in range(cfg.runs):
        record, payload = single_run(cfg, rid, keep_payload=True)
        for method, est in payload.estimates.items():
            plain = float(np.linalg.norm(payload.h_fp_true - est, "fro") ** 2)
            assert record.risks[method] == pytest.approx(plain, rel=1e-12, abs=1e-300)


def test_cva_risk_is_numpy_frobenius_norm_bit_for_bit():
    cfg = _cfg(runs=1, scheme="cva", seed=0)
    record, payload = single_run(cfg, 0, keep_payload=True)
    for method, est in payload.estimates.items():
        weighted = payload.weights.apply(payload.h_fp_true - est)
        assert record.risks[method] == np.linalg.norm(weighted, "fro") ** 2


def test_single_run_scores_what_identify_returns():
    cfg = _cfg(runs=2, seed=3, methods=METHOD_NAMES)
    for rid in range(cfg.runs):
        record, payload = single_run(cfg, rid, keep_payload=True)
        # the chain's stream of the attempt that succeeded
        _, gibbs_ss = np.random.SeedSequence([cfg.seed, rid, record.attempts - 1]).spawn(2)
        ident = identify(assemble(payload.u, payload.y, payload.f, payload.p), "identity",
                         METHOD_NAMES, cfg.gibbs, np.random.default_rng(gibbs_ss))
        assert record.r_star == ident.rank.r_star
        assert record.orders == ident.orders
        for method in METHOD_NAMES:
            assert record.risks[method] == realization_risk(
                payload.h_fp_true, ident.estimates[method], ident.weights)


def test_bayes_method_runs_end_to_end():
    cfg = _cfg(runs=1, seed=7,
               methods=("heuristic_neff", "bayes"),
               gibbs=GibbsConfig(rank=1, n_total=25, n_burn=5))
    record = single_run(cfg, run_id=0)
    assert record.risks["bayes"] > 0
    assert np.isfinite(record.risks["bayes"])


def test_short_horizon_is_config_error_without_redraw(monkeypatch):
    calls = []

    def horizon_at_n_x(spec, rng):
        model, snr, n_samples, _ = sample_system(spec, rng)
        calls.append(model.n_x)
        return model, snr, n_samples, model.n_x

    monkeypatch.setattr(bench, "sample_system", horizon_at_n_x)
    with pytest.raises(ConfigError, match="horizon"):
        single_run(_cfg(runs=1), run_id=0)
    assert len(calls) == 1


def test_method_names_cover_the_reference():
    assert "heuristic_neff" in METHOD_NAMES
    assert len(METHOD_NAMES) == 7


def test_identify_on_non_finite_data_is_a_data_error():
    rng = np.random.default_rng(0)
    u, y = rng.standard_normal(60), rng.standard_normal(60)
    y[20] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        bench.identify(assemble(u, y, 3, 3), "identity", ("hard",), GibbsConfig(rank=1),
                       np.random.default_rng(0))


@pytest.mark.parametrize("scheme", ("identity", "cva", "n4sid"))
def test_identify_with_a_non_finite_last_output_is_a_data_error(scheme):
    # y[-1] sits in Y_f only, so the least-squares solve itself succeeds
    rng = np.random.default_rng(0)
    u, y = rng.standard_normal(60), rng.standard_normal(60)
    y[-1] = np.nan
    with pytest.raises(DataError, match="non-finite"):
        bench.identify(assemble(u, y, 3, 3), scheme, ("hard",), GibbsConfig(rank=1),
                       np.random.default_rng(0))
