import json

import numpy as np
import pytest

from sidshrink.dataio import (
    format_float,
    read_matrices,
    read_timeseries,
    write_matrices,
    write_run_records,
    write_summary,
    write_timeseries,
)
from sidshrink.bench import RunRecord
from sidshrink.errors import DataError


def test_format_float_roundtrips_exactly():
    for v in (0.1, 1.0 / 3.0, -2.5e-17, 1e300, 123456789.123456789):
        assert float(format_float(v)) == v


def test_timeseries_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    u = rng.standard_normal((25, 1))
    y = rng.standard_normal((25, 1))
    path = tmp_path / "ts.csv"
    write_timeseries(path, u, y, config={"seed": 3, "snr": 0.25})
    u2, y2, meta = read_timeseries(path)
    assert np.array_equal(u2, u)  # bit-exact via repr
    assert np.array_equal(y2, y)
    assert meta == {"seed": 3, "snr": 0.25}


def test_timeseries_multichannel_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    u = rng.standard_normal((10, 2))
    y = rng.standard_normal((10, 3))
    path = tmp_path / "ts.csv"
    write_timeseries(path, u, y)
    u2, y2, _ = read_timeseries(path)
    assert np.array_equal(u2, u) and np.array_equal(y2, y)


def test_timeseries_write_is_deterministic(tmp_path):
    u = np.arange(6.0).reshape(-1, 1)
    y = np.sqrt(np.arange(6.0)).reshape(-1, 1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_timeseries(p1, u, y, config={"seed": 1})
    write_timeseries(p2, u, y, config={"seed": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_timeseries_error_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("u_1,y_1\n1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match=r":3:"):
        read_timeseries(path)
    path.write_text("u_1,y_1\n1.0,2.0\nx,2.0\n")
    with pytest.raises(DataError, match=r":3:"):
        read_timeseries(path)


def test_timeseries_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n")
    with pytest.raises(DataError, match="column header"):
        read_timeseries(path)
    path.write_text("u_1,y_1\n")
    with pytest.raises(DataError, match="no data rows"):
        read_timeseries(path)
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_timeseries(path)


def test_matrices_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    mats = {
        "a": rng.standard_normal((3, 3)),
        "wide": rng.standard_normal((2, 5)),
        "scalar": 4.25,
    }
    path = tmp_path / "m.csv"
    write_matrices(path, mats, config={"cmd": "t"})
    out, meta = read_matrices(path)
    assert meta == {"cmd": "t"}
    assert np.array_equal(out["a"], mats["a"])
    assert np.array_equal(out["wide"], mats["wide"])
    assert out["scalar"].shape == (1, 1) and out["scalar"][0, 0] == 4.25


def test_matrices_truncation_detected(tmp_path):
    path = tmp_path / "m.csv"
    write_matrices(path, {"a": np.eye(3)})
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop the final row
    with pytest.raises(DataError, match="truncated"):
        read_matrices(path)


def test_matrices_malformed_section(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("vector,a,2\n1.0\n2.0\n")
    with pytest.raises(DataError, match="matrix"):
        read_matrices(path)


def test_run_records_layout(tmp_path):
    rec = RunRecord(run_id=0, n_x=2, snr=1.5, attempts=1, r_star=1,
                    rank_converged=True,
                    risks={"heuristic_neff": 2.0, "soft": 1.0},
                    orders={"heuristic_neff": 3, "soft": 0})
    path = tmp_path / "runs.csv"
    write_run_records(path, [rec], scheme="identity", config={"runs": 1})
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "run_id,nx,snr,scheme,method,risk,risk_ref,r_star,rank_converged,order"
    assert len(lines) == 3  # one line per method
    assert lines[1] == "0,2,1.5,identity,heuristic_neff,2.0,2.0,1,1,3"
    assert lines[2] == "0,2,1.5,identity,soft,1.0,2.0,1,1,0"


def test_summary_json_roundtrip(tmp_path):
    path = tmp_path / "summary.json"
    summary = {"methods": {"soft": {"normalized_risk": 0.5, "se_mult": float("nan")}}}
    write_summary(path, summary, config={"seed": 0})
    payload = "\n".join(l for l in path.read_text().splitlines()
                        if not l.startswith("#"))
    loaded = json.loads(payload)
    # non-finite floats are mapped to null for strict JSON
    assert loaded["methods"]["soft"]["se_mult"] is None
    assert loaded["methods"]["soft"]["normalized_risk"] == 0.5
