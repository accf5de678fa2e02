import json

import numpy as np
import pytest

from sidshrink.bayes import GibbsConfig, run_gibbs
from sidshrink.bench import METHOD_NAMES, identify
from sidshrink.cli import _METHOD_MAP, build_parser, main, parse_config
from sidshrink.dataio import read_matrices, read_timeseries, write_timeseries
from sidshrink.errors import ConfigError
from sidshrink.estimation import (
    assemble,
    build_weights,
    estimate_noise,
    ls_estimate,
    rank_star,
    weighted_svd,
)


def _run(argv):
    return main(argv)


# --------------------------------------------------------------- parsing

def test_missing_subcommand_is_usage_error(capsys):
    assert _run([]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert _run(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("sidshrink ")


def test_config_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"runs": 7, "scheme": "cva", "seed": 3}))
    parser = build_parser()
    args = parser.parse_args(["benchmark", "--config", str(cfg), "--runs", "9"])
    resolved = parse_config(args)
    assert resolved["runs"] == 9      # flag wins
    assert resolved["scheme"] == "cva"  # file wins over default
    assert resolved["seed"] == 3


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"runz": 7}))
    assert _run(["benchmark", "--config", str(cfg), "--runs", "1"]) == 3
    assert "unknown config keys" in capsys.readouterr().err


def test_config_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{runs: 7")
    assert _run(["benchmark", "--config", str(cfg)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("values", [
    {"runs": "5"}, {"nf": "x"}, {"runs": True}, {"seed": 1.0},
    {"rao_blackwell": 1}, {"gf_variant": ["x"]}, {"methods": [["hard"]]},
])
def test_config_wrongly_typed_value_rejected(tmp_path, capsys, values):
    # a bool is an int to isinstance, and must still be rejected as one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert _run(["benchmark", "--config", str(cfg), "--runs", "1"]) == 3
    assert "wrongly typed config values" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "identify", "benchmark"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_config_error(tmp_path, simulated, capsys, command, source):
    # numpy's seeding rejects a negative seed with a ValueError
    argv = [command] + ([str(simulated)] if command == "identify" else [])
    argv += ["--out", str(tmp_path / "out.csv")]
    if command == "benchmark":
        argv += ["--runs", "1"]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        argv += ["--config", str(cfg)]
    assert _run(argv) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_method_spelling_mapped():
    parser = build_parser()
    args = parser.parse_args(["identify", "x.csv", "--method", "heuristic"])
    assert parse_config(args)["method"] == "heuristic_neff"


# -------------------------------------------------------------- simulate

def test_simulate_writes_data_and_truth(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert _run(["simulate", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    u, y, meta = read_timeseries(out)
    assert u.shape == y.shape
    assert meta["command"] == "simulate"
    assert meta["seed"] == 3
    mats, meta2 = read_matrices(tmp_path / "sim_truth.csv")
    assert meta2["nx"] == meta["nx"]
    assert mats["h_fp_true"].shape == (meta["f"], 2 * meta["p"])
    assert mats["a"].shape == (meta["nx"], meta["nx"])


def test_simulate_same_seed_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert _run(["simulate", "--seed", "12", "--out", str(a)]) == 0
    assert _run(["simulate", "--seed", "12", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a_truth.csv").read_bytes() \
        == (tmp_path / "b_truth.csv").read_bytes()


# -------------------------------------------------------------- identify

@pytest.fixture()
def simulated(tmp_path):
    out = tmp_path / "sim.csv"
    assert _run(["simulate", "--seed", "4", "--out", str(out)]) == 0
    return out


def test_identify_matches_library_pipeline(tmp_path, simulated, capsys):
    out = tmp_path / "ident.csv"
    code = _run(["identify", str(simulated), "--method", "soft", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    mats, meta = read_matrices(out)
    u, y, sim_meta = read_timeseries(simulated)
    data = assemble(u, y, int(sim_meta["f"]), int(sim_meta["p"]))
    ls = ls_estimate(data)
    assert np.allclose(mats["h_fp_ls"], ls.h_fp_hat, atol=1e-10)
    assert mats["h_fp_est"].shape == ls.h_fp_hat.shape
    assert mats["r_star"][0, 0] >= 1
    assert meta["method"] == "soft"


def test_identify_order_outputs(tmp_path, simulated, capsys):
    out = tmp_path / "ident.csv"
    assert _run(["identify", str(simulated), "--method", "heuristic",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    mats, _ = read_matrices(out)
    order = mats["order"][0, 0]
    assert order == int(order) and order >= 1
    s = mats["singular_values"].ravel()
    assert np.all(np.diff(s) <= 1e-12)


def test_identify_bayes_chain_draws_from_seed(tmp_path, simulated, capsys):
    est = {}
    for seed in (5, 6):
        out = tmp_path / f"bayes{seed}.csv"
        assert _run(["identify", str(simulated), "--method", "bayes", "--nf", "30",
                     "--seed", str(seed), "--out", str(out)]) == 0
        est[seed] = read_matrices(out)[0]["h_fp_est"]
    capsys.readouterr()
    u, y, meta = read_timeseries(simulated)
    data = assemble(u, y, int(meta["f"]), int(meta["p"]))
    ls = ls_estimate(data)
    noise = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat)
    weights = build_weights("identity", data, g_f_hat=noise.g_f_hat)
    r_star = rank_star(data, ls, weights, weighted_svd(ls.h_fp_hat, weights)).r_star
    expect = run_gibbs(data, ls.h_fp_hat, ls.h_f_hat, GibbsConfig(rank=r_star, n_total=30),
                       np.random.default_rng(5)).h_fp_bayes
    assert np.array_equal(est[5], expect)
    assert not np.array_equal(est[6], est[5])


def _simulated_data(path):
    u, y, meta = read_timeseries(path)
    return assemble(u, y, int(meta["f"]), int(meta["p"]))


def test_identify_command_writes_what_identify_returns(tmp_path, simulated, capsys):
    # one library call with every method gives, bit for bit, what one CLI
    # run per method writes: the chain reads the seed's stream alone
    ident = identify(_simulated_data(simulated), "identity", METHOD_NAMES,
                     GibbsConfig(rank=1, n_total=30), np.random.default_rng(5))
    for spelling, method in _METHOD_MAP.items():
        out = tmp_path / f"{spelling}.csv"
        assert _run(["identify", str(simulated), "--method", spelling, "--nf", "30",
                     "--seed", "5", "--out", str(out)]) == 0
        mats = read_matrices(out)[0]
        assert np.array_equal(mats["h_fp_est"], ident.estimates[method]), spelling
        assert np.array_equal(mats["order"], [[ident.orders[method]]]), spelling
        assert np.array_equal(mats["r_star"], [[ident.rank.r_star]])
        assert np.array_equal(mats["sigma"], [[ident.rank.sigma_level]])
    capsys.readouterr()


def test_method_spellings_cover_every_method_and_identify_rejects_others(simulated, capsys):
    assert set(_METHOD_MAP.values()) == set(METHOD_NAMES)
    with pytest.raises(ConfigError, match="lasso"):
        identify(_simulated_data(simulated), "identity", ("lasso",),
                 GibbsConfig(rank=1), np.random.default_rng(0))
    capsys.readouterr()


def test_identify_missing_file(tmp_path, capsys):
    assert _run(["identify", str(tmp_path / "nope.csv")]) == 3
    capsys.readouterr()


def test_identify_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("u_1,y_1\n1.0,2.0\nbroken\n")
    assert _run(["identify", str(bad)]) == 3
    capsys.readouterr()


def test_identify_degenerate_data_is_numerical_error(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    write_timeseries(path, np.zeros((80, 1)), np.zeros((80, 1)),
                     config={"f": 3, "p": 3})
    assert _run(["identify", str(path)]) == 4
    capsys.readouterr()


@pytest.mark.parametrize("value", [np.nan, -np.inf])
@pytest.mark.parametrize("column", ["u", "y"])
def test_identify_non_finite_record_is_data_error(tmp_path, capfd, value, column):
    rng = np.random.default_rng(0)
    u, y = rng.standard_normal((80, 1)), rng.standard_normal((80, 1))
    (u if column == "u" else y)[36, 0] = value
    path = tmp_path / "non_finite.csv"
    write_timeseries(path, u, y, config={"f": 3, "p": 3})
    for argv in (["--method", "hard", "--scheme", "cva"],
                 ["--method", "bayes", "--scheme", "n4sid", "--nf", "4"]):
        assert _run(["identify", str(path), "--out", str(tmp_path / "out.csv"), *argv]) == 3
        err = capfd.readouterr().err
        assert f"{path}: non-finite sample in data row 37" in err
        assert "Traceback" not in err and "DLASCL" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("header, message", [
    ('{"f": "abc"}', "f='abc'"),
    ('{"f": null}', "f=None"),
    ('{"p": 2.7}', "p=2.7"),          # not silently truncated to 2
    ('{"f": true}', "f=True"),
    ('{"f": 0, "p": 3}', "f=0"),
    ('[1, 2]', "config header must be a JSON object"),
])
def test_identify_malformed_header_is_data_error(tmp_path, capsys, header, message):
    path = tmp_path / "bad_header.csv"
    write_timeseries(path, np.ones((80, 1)), np.ones((80, 1)))
    text = path.read_text().splitlines(keepends=True)
    path.write_text(text[0] + f"# config: {header}\n" + "".join(text[1:]))
    assert _run(["identify", str(path), "--out", str(tmp_path / "out.csv")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_identify_too_short_dataset(tmp_path, capsys):
    path = tmp_path / "short.csv"
    write_timeseries(path, np.ones((5, 1)), np.ones((5, 1)))
    assert _run(["identify", str(path)]) == 3
    capsys.readouterr()


# ------------------------------------------------------------- benchmark

def test_benchmark_end_to_end(tmp_path, capsys):
    out = tmp_path / "runs.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "methods": ["heuristic", "midpoint", "soft"],
        "nf": 20,
        "no": 2,
    }))
    code = _run(["benchmark", "--runs", "3", "--seed", "1",
                 "--config", str(cfg), "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "config:" in printed
    assert "normalized_risk" in printed
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0].startswith("run_id,")
    assert len(rows) == 1 + 3 * 3  # header + runs x methods
    summary_text = (tmp_path / "runs_summary.json").read_text()
    payload = json.loads("\n".join(l for l in summary_text.splitlines()
                                   if not l.startswith("#")))
    assert payload["methods"]["heuristic_neff"]["normalized_risk"] == 1.0
    assert payload["runs"] == 3


def test_benchmark_rejects_bad_scheme(capsys):
    # argparse validates the choice list before any work happens
    assert _run(["benchmark", "--scheme", "pls"]) == 2
    capsys.readouterr()
