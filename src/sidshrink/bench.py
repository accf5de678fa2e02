"""Monte Carlo benchmark: random systems, the full identification pipeline
per realization, weighted risk per method, and geometric-mean risk
normalized to the effective-rank heuristic.

Every run owns a random stream derived from (seed, run id, attempt), so
serial and parallel execution produce identical reports and a failed run
(singular regressor, diverged chain) is replaced by a fresh draw on the
next attempt without disturbing other runs.
"""
from __future__ import annotations

import functools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .bayes import GibbsConfig, run_gibbs
from .errors import ConfigError, DataError, NumericalError
from .estimation import (
    SCHEMES,
    HankelData,
    LsEstimate,
    RankStar,
    WeightedSvd,
    WeightPair,
    assemble,
    build_weights,
    estimate_noise,
    ls_estimate,
    order_heuristic_neff,
    order_midpoint,
    rank_star,
    truncate_estimate,
    weighted_svd,
)
from .linalg import frobenius
from .shrinkage import METHODS as SHRINKERS, make_context, shrink_estimate, shrink_values
from .systems import (
    StateSpaceModel,
    SystemSpec,
    default_burn_in,
    sample_system,
    simulate,
    true_decomposition,
)

__all__ = [
    "METHOD_NAMES",
    "REFERENCE_METHOD",
    "BenchConfig",
    "Identification",
    "Realization",
    "RunRecord",
    "RiskReport",
    "realization_risk",
    "aggregate_risk",
    "draw_realization",
    "identify",
    "run_benchmark",
    "single_run",
]

METHOD_NAMES = (
    "heuristic_neff",
    "heuristic_midpoint",
    "hard",
    "soft",
    "optimal",
    "sure",
    "bayes",
)
REFERENCE_METHOD = "heuristic_neff"

# attempts per run before the whole benchmark gives up
MAX_ATTEMPTS = 30


@dataclass(frozen=True)
class BenchConfig:
    runs: int = 300
    scheme: str = "identity"
    methods: tuple[str, ...] = METHOD_NAMES
    gibbs: GibbsConfig = field(default_factory=lambda: GibbsConfig(rank=1))
    seed: int = 0
    parallelism: int = 1

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown weight scheme {self.scheme!r}")
        unknown = [m for m in self.methods if m not in METHOD_NAMES]
        if unknown:
            raise ConfigError(f"unknown methods: {unknown}")
        if REFERENCE_METHOD not in self.methods:
            raise ConfigError(f"methods must include the reference {REFERENCE_METHOD!r}")
        if self.parallelism < 1:
            raise ConfigError("parallelism must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RunRecord:
    run_id: int
    n_x: int
    snr: float
    attempts: int
    r_star: int
    rank_converged: bool
    risks: dict[str, float]
    orders: dict[str, int]


@dataclass(frozen=True)
class RiskReport:
    per_run: list[RunRecord]
    summary: dict


@dataclass(frozen=True)
class RunPayload:
    """Raw realization data, kept only on request; perfbench and the tests
    read it."""
    u: np.ndarray
    y: np.ndarray
    f: int
    p: int
    h_fp_true: np.ndarray
    estimates: dict[str, np.ndarray]
    weights: WeightPair


def realization_risk(h_true: np.ndarray, h_est: np.ndarray, weights: WeightPair) -> float:
    if h_true.shape != h_est.shape:
        raise ValueError(f"shape mismatch {h_true.shape} vs {h_est.shape}")
    return frobenius(weights.apply(h_true - h_est)) ** 2


def aggregate_risk(risks, reference_risks) -> tuple[float, float, int, int]:
    """Geometric mean of risk ratios with a multiplicative standard error.

    Nonpositive or non-finite ratios are excluded. Returns
    (gmean, se_mult, n_used, n_excluded); se_mult is NaN when fewer than two
    ratios survive.
    """
    risks = np.asarray(risks, dtype=float)
    refs = np.asarray(reference_risks, dtype=float)
    if risks.shape != refs.shape:
        raise ValueError("risk sequences must have equal length")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = risks / refs
    keep = np.isfinite(ratios) & (risks > 0) & (refs > 0)
    n_excluded = int(np.size(ratios) - np.count_nonzero(keep))
    logs = np.log(ratios[keep])
    if logs.size == 0:
        return math.nan, math.nan, 0, n_excluded
    gmean = float(np.exp(np.mean(logs)))
    if logs.size < 2:
        return gmean, math.nan, int(logs.size), n_excluded
    se = float(np.exp(np.std(logs, ddof=1) / np.sqrt(logs.size)))
    return gmean, se, int(logs.size), n_excluded


@dataclass(frozen=True)
class Identification:
    """What identify returns; orders holds the rank each estimate kept."""
    ls: LsEstimate
    weights: WeightPair
    svd: WeightedSvd
    rank: RankStar
    estimates: dict[str, np.ndarray]
    orders: dict[str, int]


def identify(data: HankelData, scheme: str, methods: tuple[str, ...],
             gibbs: GibbsConfig, rng: np.random.Generator | None) -> Identification:
    """LS estimate, noise (cva only), weights, one weighted SVD and r*, then
    each method's estimate and the rank it kept: the rule's order for a
    heuristic, the count of svd.values a shrinker leaves nonzero, r* for bayes.
    The chain runs at rank r* and is the only reader of rng, which may be
    None when methods hold no bayes."""
    ls = ls_estimate(data)
    g_f_hat = None
    if scheme == "cva":
        g_f_hat = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat).g_f_hat
    weights = build_weights(scheme, data, g_f_hat=g_f_hat)
    svd = weighted_svd(ls.h_fp_hat, weights)
    rank = rank_star(data, ls, weights, svd)
    ctx = make_context(svd.shape, rank.sigma_level)
    estimates, orders = {}, {}
    for method in methods:
        if method in ("heuristic_neff", "heuristic_midpoint"):
            order = (order_heuristic_neff(svd.values) if method == "heuristic_neff"
                     else order_midpoint(svd.values))
            estimates[method] = truncate_estimate(svd, weights, order)
        elif method in SHRINKERS:
            # method stays positional: the benchmark's tracer reads args[3]
            estimates[method] = shrink_estimate(svd, weights, rank.sigma_level, method)
            order = int(np.count_nonzero(shrink_values(svd.values, ctx, method) > 0))
        elif method == "bayes":
            chain = replace(gibbs, rank=rank.r_star)
            estimates[method] = run_gibbs(data, ls.h_fp_hat, ls.h_f_hat, chain, rng).h_fp_bayes
            order = rank.r_star
        else:
            raise ConfigError(f"unknown method {method!r}")
        orders[method] = order
    return Identification(ls=ls, weights=weights, svd=svd, rank=rank,
                          estimates=estimates, orders=orders)


@dataclass(frozen=True)
class Realization:
    """One sampled system and its simulated record; u and y start after the
    burn-in, and f = p is the protocol's horizon."""
    model: StateSpaceModel
    snr: float
    u: np.ndarray
    y: np.ndarray
    f: int
    p: int


def _streams(seed: int, run_id: int, attempt: int) -> list[np.random.SeedSequence]:
    """The (system, chain) seed sequences of one attempt."""
    return np.random.SeedSequence([seed, run_id, attempt]).spawn(2)


def draw_realization(seed: int, run_id: int, attempt: int) -> Realization:
    """Sample a system and simulate its record from the attempt's system
    stream. A horizon that does not exceed the state dimension is a
    protocol fault, not a bad draw, and raises ConfigError."""
    return _draw(_streams(seed, run_id, attempt)[0])


def _draw(system_stream: np.random.SeedSequence) -> Realization:
    rng = np.random.default_rng(system_stream)
    model, snr, n_samples, i_horizon = sample_system(SystemSpec(), rng)
    f = p = i_horizon
    if f <= model.n_x:
        raise ConfigError(f"future horizon {f} must exceed the state "
                          f"dimension {model.n_x}")
    burn = default_burn_in(model)
    total = burn + n_samples + f + p
    u_full = rng.normal(0.0, math.sqrt(snr), size=(total, model.n_i))
    y = simulate(model, u_full, rng, burn_in=burn)
    return Realization(model=model, snr=snr, u=u_full[burn:], y=y, f=f, p=p)


def single_run(config: BenchConfig, run_id: int, keep_payload: bool = False):
    """One Monte Carlo realization: draw, identify, score.

    Retries with a fresh stream on numerical or data failure; the attempt
    index is folded into the seed so retries are reproducible. A protocol
    fault raises ConfigError without a retry. Returns RunRecord, or
    (RunRecord, RunPayload) when keep_payload is set.
    """
    last_error = None
    for attempt in range(MAX_ATTEMPTS):
        try:
            system_stream, chain_stream = _streams(config.seed, run_id, attempt)
            draw = _draw(system_stream)
            # only the chain reads a generator
            chain_rng = np.random.default_rng(chain_stream) if "bayes" in config.methods else None
            ident = identify(assemble(draw.u, draw.y, draw.f, draw.p), config.scheme,
                             config.methods, config.gibbs, chain_rng)
            truth = true_decomposition(draw.model, draw.f, draw.p)
            record = RunRecord(
                run_id=run_id,
                n_x=draw.model.n_x,
                snr=draw.snr,
                attempts=attempt + 1,
                r_star=ident.rank.r_star,
                rank_converged=ident.rank.converged,
                risks={m: realization_risk(truth.h_fp, est, ident.weights)
                       for m, est in ident.estimates.items()},
                orders=ident.orders,
            )
            if keep_payload:
                payload = RunPayload(u=draw.u, y=draw.y, f=draw.f, p=draw.p, h_fp_true=truth.h_fp,
                                     estimates=ident.estimates, weights=ident.weights)
                return record, payload
            return record
        except (NumericalError, DataError) as exc:
            last_error = exc
    raise NumericalError(
        f"run {run_id} failed {MAX_ATTEMPTS} attempts; last error: {last_error}")


def run_benchmark(config: BenchConfig) -> RiskReport:
    """Execute all runs (optionally in a process pool) and aggregate.

    The report summary normalizes every method's geometric-mean risk to the
    effective-rank heuristic; the reference row is exactly 1.
    """
    start = time.perf_counter()
    run = functools.partial(single_run, config)
    if config.parallelism > 1:
        chunk = max(1, config.runs // (4 * config.parallelism))
        with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
            records = list(pool.map(run, range(config.runs), chunksize=chunk))
    else:
        records = list(map(run, range(config.runs)))
    wall = time.perf_counter() - start

    refs = np.array([r.risks[REFERENCE_METHOD] for r in records])
    methods_summary = {}
    for method in config.methods:
        vals = np.array([r.risks[method] for r in records])
        gmean, se, n_used, n_excl = aggregate_risk(vals, refs)
        methods_summary[method] = {
            "normalized_risk": gmean,
            "se_mult": se,
            "n_used": n_used,
            "n_excluded": n_excl,
        }
    summary = {
        "scheme": config.scheme,
        "runs": config.runs,
        "seed": config.seed,
        "reference": REFERENCE_METHOD,
        "methods": methods_summary,
        "resample_attempts": int(sum(r.attempts - 1 for r in records)),
        "wall_time_s": wall,
    }
    return RiskReport(per_run=records, summary=summary)
