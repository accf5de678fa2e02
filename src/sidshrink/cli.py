"""Command-line front end: simulate a benchmark realization, identify a
dataset from a file, or run the Monte Carlo benchmark.

Exit codes: 0 ok, 2 usage/configuration, 3 data, 4 numerical.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .bayes import GibbsConfig
from .bench import (
    MAX_ATTEMPTS,
    METHOD_NAMES,
    BenchConfig,
    draw_realization,
    identify,
    run_benchmark,
)
from .dataio import (
    _sanitize,
    read_timeseries,
    write_matrices,
    write_run_records,
    write_summary,
    write_timeseries,
)
from .errors import ConfigError, DataError, NumericalError
from .systems import true_decomposition
# perfbench/tracing.py wraps these names in this module; cli itself calls only assemble
from .bayes import run_gibbs  # noqa: F401
from .estimation import (  # noqa: F401
    assemble,
    build_weights,
    estimate_noise,
    ls_estimate,
    order_heuristic_neff,
    order_midpoint,
    rank_star,
    truncate_estimate,
)
from .shrinkage import shrink_estimate  # noqa: F401

# flag spellings -> internal identifiers
_METHOD_MAP = {
    "heuristic": "heuristic_neff",
    "midpoint": "heuristic_midpoint",
    "hard": "hard",
    "soft": "soft",
    "optimal": "optimal",
    "sure": "sure",
    "bayes": "bayes",
}
_GF_MAP = {"hankel": "hankel_exact", "independent": "independent"}

_DEFAULTS = {
    "runs": 300,
    "scheme": "identity",
    "seed": 0,
    "nf": 250,
    "no": 1,
    "gf_variant": "independent",
    "rao_blackwell": True,
    "threads": 1,
    "method": "optimal",
    "methods": list(METHOD_NAMES),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sidshrink",
        description="Subspace identification with singular-value shrinkage "
                    "and Bayesian averaging.")
    parser.add_argument("--version", action="version", version=f"sidshrink {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--scheme", choices=("identity", "cva", "n4sid"), default=None)
        p.add_argument("--gf-variant", dest="gf_variant",
                       choices=tuple(_GF_MAP), default=None)
        p.add_argument("--nf", type=int, default=None, help="Gibbs chain length")
        p.add_argument("--no", type=int, default=None, help="Gibbs burn-in")

    p_sim = sub.add_parser("simulate", help="draw one benchmark realization to files")
    common(p_sim)

    p_id = sub.add_parser("identify", help="identify a dataset from a file")
    p_id.add_argument("data", help="time-series data file (u/y columns)")
    p_id.add_argument("--method", choices=tuple(_METHOD_MAP), default=None)
    common(p_id)

    p_bench = sub.add_parser("benchmark", help="run the Monte Carlo benchmark")
    p_bench.add_argument("--runs", type=int, default=None)
    p_bench.add_argument("--threads", type=int, default=None)
    common(p_bench)
    return parser


def _load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
    except FileNotFoundError as exc:
        raise DataError(f"config file not found: {path}") from exc
    except ValueError as exc:   # JSONDecodeError, or UnicodeDecodeError on bytes not UTF-8
        raise DataError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(loaded, dict):
        raise DataError(f"{path}: config must be a JSON object")
    unknown = sorted(set(loaded) - set(_DEFAULTS))
    if unknown:
        raise DataError(f"{path}: unknown config keys: {', '.join(unknown)}")
    wrong = sorted(key for key, value in loaded.items() if not _typed_like(value, _DEFAULTS[key]))
    if wrong:
        raise DataError(f"{path}: wrongly typed config values: "
                        + ", ".join(f"{key}={loaded[key]!r}" for key in wrong))
    return loaded


def _typed_like(value, default) -> bool:
    """value has default's JSON type: a bool is not an int, and a list holds
    strings."""
    if isinstance(default, list):
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    return type(value) is type(default)


def parse_config(args: argparse.Namespace) -> dict:
    """Resolve settings: flags override file values override defaults. A
    negative seed is a ConfigError: numpy's seeding rejects it."""
    resolved = dict(_DEFAULTS)
    if getattr(args, "config", None):
        resolved.update(_load_config_file(args.config))
    for key in ("runs", "seed", "scheme", "gf_variant", "nf", "no",
                "threads", "method"):
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    if resolved["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {resolved['seed']}")
    resolved["gf_variant"] = _GF_MAP.get(resolved["gf_variant"], resolved["gf_variant"])
    resolved["method"] = _METHOD_MAP.get(resolved["method"], resolved["method"])
    resolved["methods"] = [_METHOD_MAP.get(m, m) for m in resolved["methods"]]
    return resolved


def _gibbs_config(resolved: dict) -> GibbsConfig:
    """Chain settings from the resolved config; identify sets the rank to r*."""
    return GibbsConfig(rank=1, n_total=resolved["nf"], n_burn=resolved["no"],
                       gf_variant=resolved["gf_variant"],
                       rao_blackwell=resolved["rao_blackwell"])


def _bench_config(resolved: dict, runs: int | None = None) -> BenchConfig:
    return BenchConfig(runs=runs if runs is not None else resolved["runs"],
                       scheme=resolved["scheme"],
                       methods=tuple(resolved["methods"]),
                       gibbs=_gibbs_config(resolved),
                       seed=resolved["seed"],
                       parallelism=resolved["threads"])


def _sibling(out: Path, tail: str) -> Path:
    """The file beside out named out's stem + tail; ConfigError when --out
    names no file (".", "/")."""
    if not out.name:
        raise ConfigError(f"--out {str(out)!r} names no file")
    return out.with_name(out.stem + tail)


def cmd_simulate(args: argparse.Namespace) -> int:
    """Write realization 0 of the benchmark protocol at the configured seed:
    the first attempt whose draw succeeds, with no estimator run."""
    resolved = parse_config(args)
    config = _bench_config(resolved, runs=1)
    last_error = None
    for attempt in range(MAX_ATTEMPTS):
        try:
            draw = draw_realization(config.seed, 0, attempt)
            break
        except NumericalError as exc:
            last_error = exc
    else:
        raise NumericalError(f"no realization after {MAX_ATTEMPTS} attempts; "
                             f"last error: {last_error}")
    model = draw.model
    h_fp_true = true_decomposition(model, draw.f, draw.p).h_fp
    n_samples = draw.u.shape[0] - draw.f - draw.p
    meta = {
        "command": "simulate",
        "version": __version__,
        "seed": resolved["seed"],
        "scheme": resolved["scheme"],
        "f": draw.f,
        "p": draw.p,
        "n_samples": n_samples,
        "snr": draw.snr,
        "nx": model.n_x,
    }
    out = Path(args.out if args.out else "simulated.csv")
    truth_path = _sibling(out, "_truth" + (out.suffix or ".csv"))
    write_timeseries(out, draw.u, draw.y, config=meta)
    write_matrices(truth_path, {
        "a": model.a, "b": model.b, "c": model.c, "d": model.d,
        "k": model.k, "sigma": model.sigma, "h_fp_true": h_fp_true,
    }, config=meta)
    print(f"wrote {out} and {truth_path} (nx={model.n_x}, N={n_samples})")
    return 0


def cmd_identify(args: argparse.Namespace) -> int:
    resolved = parse_config(args)
    u, y, meta = read_timeseries(args.data)
    # the weights call LAPACK without scipy's finiteness check
    finite = np.isfinite(u).all(axis=1) & np.isfinite(y).all(axis=1)
    if not finite.all():
        raise DataError(f"{args.data}: non-finite sample in data row "
                        f"{int(np.argmin(finite)) + 1}")
    t_samples = u.shape[0]
    f, p = meta.get("f", t_samples // 10), meta.get("p", t_samples // 10)
    if not all(type(h) is int and h >= 1 for h in (f, p)):
        raise DataError(f"{args.data}: horizons f and p must be positive integers, "
                        f"got f={f!r}, p={p!r} ({t_samples} rows)")
    method = resolved["method"]
    # only the chain reads a generator
    rng = np.random.default_rng(resolved["seed"]) if method == "bayes" else None
    ident = identify(assemble(u, y, f, p), resolved["scheme"], (method,),
                     _gibbs_config(resolved), rng)
    order = ident.orders[method]

    out = Path(args.out if args.out else "identified.csv")
    header = {
        "command": "identify",
        "version": __version__,
        "method": method,
        "scheme": resolved["scheme"],
        "f": f,
        "p": p,
        "n_samples": t_samples,
        "seed": resolved["seed"],
    }
    write_matrices(out, {
        "h_fp_ls": ident.ls.h_fp_hat,
        "h_fp_est": ident.estimates[method],
        "singular_values": ident.svd.values.reshape(1, -1),
        "sigma": np.array([[ident.rank.sigma_level]]),
        "r_star": np.array([[float(ident.rank.r_star)]]),
        "order": np.array([[float(order)]]),
    }, config=header)
    print(f"wrote {out} (method={method}, order={order}, r*={ident.rank.r_star})")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    resolved = parse_config(args)
    config = _bench_config(resolved)
    echo = {k: resolved[k] for k in sorted(resolved)}
    out = Path(args.out if args.out else "benchmark_runs.csv")
    summary_path = _sibling(out, "_summary.json")
    print("config: " + json.dumps(_sanitize(echo), sort_keys=True))
    report = run_benchmark(config)
    write_run_records(out, report.per_run, config.scheme, config=echo)
    write_summary(summary_path, report.summary, config=echo)
    print(json.dumps(_sanitize(report.summary), indent=2, sort_keys=True))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses for every call in a process."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "identify":
            return cmd_identify(args)
        if args.command == "benchmark":
            return cmd_benchmark(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
