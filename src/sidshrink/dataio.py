"""Delimited text formats shared by the library and the CLI.

Every emitted file starts with '#' metadata lines: the artifact version and
a JSON snapshot of the resolved configuration. Floats are written with
repr(), which round-trips IEEE doubles exactly, so a simulate/identify
cycle through files loses no precision.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ._version import __version__
from .errors import DataError

__all__ = [
    "format_float",
    "write_timeseries",
    "read_timeseries",
    "write_matrices",
    "read_matrices",
    "write_run_records",
    "write_summary",
]


def format_float(value: float) -> str:
    return repr(float(value))


def _header_lines(config: dict | None) -> list[str]:
    lines = [f"# sidshrink {__version__}"]
    if config is not None:
        lines.append("# config: " + json.dumps(_sanitize(config), sort_keys=True))
    return lines


def _sanitize(obj):
    """JSON-compatible copy: non-finite floats become None."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _hash_lines(text: str):
    """(offset, line) of every line of text that starts with '#'. Such
    lines are few, and a one-character find is a memchr, so no Python step
    runs per other line (a find of "\\n#" stops at every line break)."""
    at = text.find("#")
    while at >= 0:
        end = text.find("\n", at)
        if at == 0 or text[at - 1] == "\n":
            yield at, text[at:end if end >= 0 else None]
        at = text.find("#", at + 1) if end >= 0 else -1


def _read_lines(path):
    """Return (meta dict, body, line_no).

    body is one filtered list of the lines that are neither blank nor '#'
    lines; '#' lines may stand anywhere, and a '# config:' one sets meta.
    line_no(k) is the file line number of body[k], found by a scan of the
    file's lines that only an error message pays for.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    meta = {}
    for at, line in _hash_lines(text):
        payload = line[1:].strip()
        if not payload.startswith("config:"):
            continue
        number = text.count("\n", 0, at) + 1
        where = f"{path}:{number}"
        try:
            meta = json.loads(payload[len("config:"):].strip())
        except json.JSONDecodeError as exc:
            raise DataError(f"{where}: bad config header: {exc}") from exc
        if not isinstance(meta, dict):
            raise DataError(f"{where}: config header must be a JSON object")
    lines = text.split("\n")
    body = [line for line in lines if line.strip() and line[0] != "#"]

    def line_no(k: int) -> int:
        return [n for n, line in enumerate(lines, start=1)
                if line.strip() and line[0] != "#"][k]

    return meta, body, line_no


def _parse_rows(path, body: list[str], rows: slice, n_cols: int, line_no) -> np.ndarray:
    """body[rows] as a float array of n_cols columns; line_no(k) is the
    file line number of body[k], asked for only to name a bad line.

    np.loadtxt parses every row in one C pass. Its values go through
    PyOS_string_to_double, the parser behind float(), so they have
    float()'s bits; it rejects a few strings that float() accepts (digit
    underscores as in 1_0, non-ASCII digits, a carriage return inside a
    row). On any failure every value goes through float() in one pass
    that writes straight into the array. Only when a row has the wrong
    number of values or a value does not convert are the rows scanned one
    by one, to name the first bad line.
    """
    texts = body[rows]
    try:
        table = np.loadtxt(texts, dtype=float, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        table = None    # float() may still accept every value
    if table is not None and table.shape == (len(texts), n_cols):
        return table
    if all(line.count(",") == n_cols - 1 for line in texts):
        values = ",".join(texts).split(",")
        try:
            return np.fromiter(map(float, values), float, len(values)).reshape(-1, n_cols)
        except ValueError:
            pass    # the scan below names the line
    for k, line in enumerate(texts, start=rows.start or 0):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise DataError(f"{path}:{line_no(k)}: expected {n_cols} values, got {len(parts)}")
        try:
            [float(v) for v in parts]
        except ValueError as exc:
            raise DataError(f"{path}:{line_no(k)}: {exc}") from exc
    raise DataError(f"{path}: values do not convert to floats")


def _write_rows(fh, m: np.ndarray) -> None:
    """One line per row of m, each value written with repr()."""
    fh.write("".join(",".join(map(repr, row)) + "\n" for row in m.tolist()))


def write_timeseries(path, u: np.ndarray, y: np.ndarray, config: dict | None = None) -> None:
    u = np.atleast_2d(np.asarray(u, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    if u.shape[0] != y.shape[0]:
        raise ValueError(f"u has {u.shape[0]} rows, y has {y.shape[0]}")
    cols = [f"u_{k + 1}" for k in range(u.shape[1])] + \
           [f"y_{k + 1}" for k in range(y.shape[1])]
    with open(path, "w", encoding="utf-8") as fh:
        for line in _header_lines(config):
            fh.write(line + "\n")
        fh.write(",".join(cols) + "\n")
        _write_rows(fh, np.hstack([u, y]))


def read_timeseries(path) -> tuple[np.ndarray, np.ndarray, dict]:
    """Returns (u, y, metadata). Column header u_1..u_k,y_1..y_m required."""
    meta, body, line_no = _read_lines(path)
    if not body:
        raise DataError(f"{path}: empty data file")
    header = body[0]
    names = [c.strip() for c in header.split(",")]
    n_u = sum(1 for c in names if c.startswith("u_"))
    n_y = sum(1 for c in names if c.startswith("y_"))
    expected = [f"u_{k + 1}" for k in range(n_u)] + [f"y_{k + 1}" for k in range(n_y)]
    if n_u == 0 or n_y == 0 or names != expected:
        raise DataError(
            f"{path}:{line_no(0)}: expected column header u_1..u_{max(n_u, 1)},"
            f"y_1..y_{max(n_y, 1)}, got {header!r}")
    if len(body) == 1:
        raise DataError(f"{path}: no data rows")
    table = _parse_rows(path, body, slice(1, None), n_u + n_y, line_no)
    return table[:, :n_u], table[:, n_u:], meta


def write_matrices(path, matrices: dict, config: dict | None = None) -> None:
    """Sections of the form 'matrix,<name>,<rows>,<cols>' followed by rows.

    Scalars are stored as 1x1 matrices.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for line in _header_lines(config):
            fh.write(line + "\n")
        for name, value in matrices.items():
            m = np.atleast_2d(np.asarray(value, dtype=float))
            fh.write(f"matrix,{name},{m.shape[0]},{m.shape[1]}\n")
            _write_rows(fh, m)


def read_matrices(path) -> tuple[dict, dict]:
    meta, body, line_no = _read_lines(path)
    matrices = {}
    idx = 0
    while idx < len(body):
        parts = body[idx].split(",")
        if len(parts) != 4 or parts[0] != "matrix":
            raise DataError(f"{path}:{line_no(idx)}: expected 'matrix,<name>,<rows>,<cols>'")
        name = parts[1]
        try:
            rows, cols = int(parts[2]), int(parts[3])
        except ValueError as exc:
            raise DataError(f"{path}:{line_no(idx)}: bad shape: {exc}") from exc
        if rows < 1 or cols < 1:
            raise DataError(f"{path}:{line_no(idx)}: bad shape {rows}x{cols}")
        if idx + rows >= len(body):
            raise DataError(f"{path}:{line_no(idx)}: section {name!r} truncated")
        matrices[name] = _parse_rows(path, body, slice(idx + 1, idx + 1 + rows), cols,
                                     line_no)
        idx += 1 + rows
    return matrices, meta


def write_run_records(path, records, scheme: str, config: dict | None = None) -> None:
    """Per-run benchmark table:
    run_id,nx,snr,scheme,method,risk,risk_ref,r_star,rank_converged,order.

    r_star is the run's self-consistent truncation rank (estimation.rank_star);
    rank_converged is 0 when no rank met its rule and r_star is the full
    rank, else 1; order is the rank the method's estimate kept (bench.identify).
    """
    from .bench import REFERENCE_METHOD   # local import: bench pulls in heavy deps

    with open(path, "w", encoding="utf-8") as fh:
        for line in _header_lines(config):
            fh.write(line + "\n")
        fh.write("run_id,nx,snr,scheme,method,risk,risk_ref,r_star,rank_converged,order\n")
        for rec in records:
            ref = rec.risks[REFERENCE_METHOD]
            for method, risk in rec.risks.items():
                fh.write(f"{rec.run_id},{rec.n_x},{format_float(rec.snr)},{scheme},"
                         f"{method},{format_float(risk)},{format_float(ref)},"
                         f"{rec.r_star},{int(rec.rank_converged)},{rec.orders[method]}\n")


def write_summary(path, summary: dict, config: dict | None = None) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for line in _header_lines(config):
            fh.write(line + "\n")
        fh.write(json.dumps(_sanitize(summary), indent=2, sort_keys=True) + "\n")
