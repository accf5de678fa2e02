import json
import re

import hypothesis
import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest

from sidshrink.dataio import (
    _header_lines,
    _parse_rows,
    _read_lines,
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


@pytest.mark.parametrize("header", ["[1, 2]", "3", '"f"', "null"])
def test_config_header_must_be_a_json_object(tmp_path, header):
    path = tmp_path / "data.csv"
    path.write_text(f"# sidshrink 0\n# config: {header}\nu_1,y_1\n1.0,2.0\n")
    with pytest.raises(DataError) as err:
        read_timeseries(path)
    assert str(err.value) == f"{path}:2: config header must be a JSON object"


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


# ------------------------------------------- the per-line reader and writer

def _read_lines_per_line(path):
    meta, body = {}, []
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if line.startswith("#"):
                text = line[1:].strip()
                if text.startswith("config:"):
                    meta = json.loads(text[len("config:"):].strip())
                continue
            if line.strip():
                body.append((line_no, line))
    return meta, body


def _read_timeseries_per_line(path):
    """read_timeseries converting one value at a time, with its errors."""
    meta, body = _read_lines_per_line(path)
    if not body:
        raise DataError(f"{path}: empty data file")
    header_no, header = body[0]
    names = [c.strip() for c in header.split(",")]
    n_u = sum(1 for c in names if c.startswith("u_"))
    n_y = sum(1 for c in names if c.startswith("y_"))
    rows = []
    for line_no, line in body[1:]:
        parts = line.split(",")
        if len(parts) != n_u + n_y:
            raise DataError(
                f"{path}:{line_no}: expected {n_u + n_y} values, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: no data rows")
    table = np.asarray(rows)
    return table[:, :n_u], table[:, n_u:], meta


def _write_rows_per_element(fh, m):
    for row in m:
        fh.write(",".join(format_float(v) for v in row) + "\n")


def _write_timeseries_per_element(path, u, y, config=None):
    u, y = np.atleast_2d(u), np.atleast_2d(y)
    cols = [f"u_{k + 1}" for k in range(u.shape[1])] + [f"y_{k + 1}" for k in range(y.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        for line in _header_lines(config):
            fh.write(line + "\n")
        fh.write(",".join(cols) + "\n")
        _write_rows_per_element(fh, np.hstack([u, y]))


def _write_matrices_per_element(path, matrices, config=None):
    with open(path, "w", encoding="utf-8") as fh:
        for line in _header_lines(config):
            fh.write(line + "\n")
        for name, value in matrices.items():
            m = np.atleast_2d(np.asarray(value, dtype=float))
            fh.write(f"matrix,{name},{m.shape[0]},{m.shape[1]}\n")
            _write_rows_per_element(fh, m)


def _same_bits(a, b):
    """Equal shapes and equal IEEE bit patterns (tells -0.0 from 0.0 and
    compares nan payloads)."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _record(tmp_path):
    """A 2000-sample SISO record with an f/p/nx header, as the benchmark's
    identify records are written."""
    rng = np.random.default_rng(7)
    path = tmp_path / "record.csv"
    write_timeseries(path, rng.normal(0.0, 1.3, (2000, 1)), rng.standard_normal((2000, 1)),
                     config={"f": 20, "p": 20, "nx": 3})
    return path


HAND_WRITTEN = (
    "# sidshrink 0.1.0\r\n"
    "# config: {\"f\": 2}\r\n"
    "u_1,u_2,y_1\r\n"
    "1e-3,-2.5E+7,+4\r\n"
    "\r\n"
    "-0.0,0.0,1_000\r\n"
    "# a comment inside the body\r\n"
    "inf,-inf,nan\r\n"
    "   \r\n"
    " 7 ,\t8.25\t,-nan\r\n"
    "Infinity,1_0.5,4.9e-324\r\n"
    "1e400,-1e-400,123456789.123456789"
)


def test_reader_equals_the_per_line_parser(tmp_path):
    hand = tmp_path / "hand.csv"
    hand.write_bytes(HAND_WRITTEN.encode("utf-8"))
    for path in (_record(tmp_path), hand):
        u, y, meta = read_timeseries(path)
        u_ref, y_ref, meta_ref = _read_timeseries_per_line(path)
        assert _same_bits(u, u_ref) and _same_bits(y, y_ref)
        assert meta == meta_ref
    assert u.shape == (6, 2) and np.signbit(u[1, 0]) and np.isnan(y[2, 0])


@pytest.mark.parametrize("text", [
    HAND_WRITTEN,
    "#",
    "u_1,y_1\n1,2\n# config: {\"f\": 3}",                # a config header last
    "# config: {\"f\": 1}\n#config:{\"f\": 2}\nu_1,y_1\n1,2\n",   # the last one wins
    "matrix,a#config: 1,1,1\n# note #2\n1.0#\n\n  #x\n",    # '#' not first on its line
    "\n\n u_1,y_1 \r\n\r\n1,2",
])
def test_read_lines_equals_the_per_line_reader(tmp_path, text):
    path = tmp_path / "lines.csv"
    path.write_bytes(text.encode("utf-8"))
    meta, body, line_no = _read_lines(path)
    meta_ref, body_ref = _read_lines_per_line(path)
    assert meta == meta_ref
    assert [(line_no(k), line) for k, line in enumerate(body)] == body_ref


def test_bad_config_header_after_the_data_names_its_line(tmp_path):
    path = tmp_path / "late.csv"
    path.write_text("# sidshrink 0\nu_1,y_1\n1.0,2.0\n\n# config: {oops\n3.0,4.0\n")
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}:5: bad config header"):
        read_timeseries(path)


def test_parse_rows_equals_the_array_conversion(tmp_path):
    # the float() pass gives the bits of np.array(strings, dtype=float)
    hand = tmp_path / "hand.csv"
    hand.write_bytes(HAND_WRITTEN.encode("utf-8"))
    for path, n_cols in ((_record(tmp_path), 2), (hand, 3)):
        _, body, line_no = _read_lines(path)
        values = ",".join(body[1:]).split(",")
        ref = np.array(values, dtype=float).reshape(-1, n_cols)
        assert _same_bits(_parse_rows(path, body, slice(1, None), n_cols, line_no), ref)


def test_parse_rows_takes_what_only_float_accepts(tmp_path):
    # the C parser rejects digit underscores; float() takes them
    path = tmp_path / "underscore.csv"
    path.write_text("u_1,y_1\n1.5,2_5\n-0.0,1e-320\n")
    u, y, _ = read_timeseries(path)
    assert _same_bits(u, np.array([[1.5], [-0.0]])) and _same_bits(y, np.array([[25.0], [1e-320]]))


def _finite_columns(n_rows):
    return st.integers(1, 3).flatmap(lambda k: hnp.arrays(
        np.float64, (n_rows, k), elements=st.floats(allow_nan=False, allow_infinity=False)))


@hypothesis.given(st.integers(1, 30).flatmap(
    lambda n: st.tuples(_finite_columns(n), _finite_columns(n))))
def test_timeseries_roundtrip_property(tmp_path_factory, uy):
    u, y = uy
    path = tmp_path_factory.mktemp("roundtrip") / "record.csv"
    write_timeseries(path, u, y, config={"f": 2})
    u_back, y_back, meta = read_timeseries(path)
    assert _same_bits(u_back, u) and _same_bits(y_back, y) and meta == {"f": 2}


@pytest.mark.parametrize("body, line", [
    ("u_1,y_1\n1.0,2.0\n\n1.0,x\n3.0,4.0\n", 4),          # bad value
    ("u_1,y_1\n1.0,2.0\n# note\n3.0\n3.0,4.0\n", 4),      # short row
    ("u_1,y_1\n1.0,2.0\n3.0,4.0,5.0\n", 3),               # long row
    ("u_1,y_1\r\n1.0,2.0\r\n1.0,0x10\r\n", 3),            # hex is not float()
    ("u_1,y_1\n1.0,2.0\n1.0,\n", 3),                      # empty value
    ("u_1,y_1\n1.0,2.0,\n1.0\n", 2),                      # the first bad row wins
])
def test_reader_errors_equal_the_per_line_parser(tmp_path, body, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(body.encode("utf-8"))
    with pytest.raises(DataError) as ref:
        _read_timeseries_per_line(path)
    with pytest.raises(DataError) as new:
        read_timeseries(path)
    assert str(new.value) == str(ref.value)
    assert str(new.value).startswith(f"{path}:{line}: ")


@pytest.mark.parametrize("text", ["u_1,y_1\n", "u_1,y_1\n\n# only comments\n", "", "# x\n\n"])
def test_reader_empty_body_errors_equal_the_per_line_parser(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with pytest.raises(DataError) as ref:
        _read_timeseries_per_line(path)
    with pytest.raises(DataError) as new:
        read_timeseries(path)
    assert str(new.value) == str(ref.value)


def test_writers_equal_the_per_element_writer(tmp_path):
    rng = np.random.default_rng(3)
    u = rng.standard_normal((2000, 1))
    y = np.vstack([rng.standard_normal((1995, 1)), [[-0.0], [np.inf], [-np.inf], [np.nan], [1e-310]]])
    config = {"f": 20, "p": 20, "nx": 3}
    write_timeseries(tmp_path / "new.csv", u, y, config=config)
    _write_timeseries_per_element(tmp_path / "ref.csv", u, y, config=config)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    mats = {"h": rng.standard_normal((20, 40)), "row": y[-6:].T, "scalar": 4.25,
            "int": np.arange(3).reshape(1, 3), "neg_zero": -0.0}
    write_matrices(tmp_path / "new_m.csv", mats, config={"command": "identify"})
    _write_matrices_per_element(tmp_path / "ref_m.csv", mats, config={"command": "identify"})
    assert (tmp_path / "new_m.csv").read_bytes() == (tmp_path / "ref_m.csv").read_bytes()
