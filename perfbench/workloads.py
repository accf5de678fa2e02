"""The benchmark's workloads: inputs made from the seed, one operation, and
the check of its outputs against the reference table in reference.json.

Import this module only after the BLAS thread count is pinned (run.py does
that), because it imports numpy.

Monte Carlo workloads draw their realizations from the acceptance protocol
(BenchConfig seed 0, run ids 0..299) and the workload seed only orders them.
The order is a golden-ratio stride through the realizations sorted by state
order n_x, so every stretch of a run mixes cheap and costly systems in the
same proportion and the op rate does not depend on which seed was drawn.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from pathlib import Path

import numpy as np

from sidshrink import bench, cli
from sidshrink.bayes import GibbsConfig
from sidshrink.bench import METHOD_NAMES, BenchConfig
from sidshrink.dataio import read_matrices, write_timeseries
from sidshrink.errors import DataError
from sidshrink.systems import (SystemSpec, default_burn_in, sample_system, simulate,
                               true_decomposition)

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# the acceptance protocol's realizations
UNIVERSE = 300
# warm-up input: the first run id past the universe whose system has the
# largest state order (n_x = 10), so the warm-up already reaches the peak
# memory of any realization and peak_rss_mb does not depend on the seed
WARMUP_RUN = 320
MC_CONFIGS = {
    "mc_identity": BenchConfig(runs=UNIVERSE, scheme="identity", methods=METHOD_NAMES,
                               gibbs=GibbsConfig(rank=1, n_total=250, n_burn=1), seed=0),
    "mc_cva_fast": BenchConfig(runs=UNIVERSE, scheme="cva",
                               methods=tuple(m for m in METHOD_NAMES if m != "bayes"),
                               seed=0),
}

# identify_long: one SISO record of RECORD_T samples, f = p = 20, so the
# Hankel matrices have N = RECORD_T - 39 = 1961 columns. --nf 100 keeps the
# chain the larger part of a bayes call while a run still completes more
# than 100 calls.
RECORD_T = 2000
RECORD_F = RECORD_P = 20
RECORDS = 10                      # records with a reference; RECORDS is the warm-up
IDENTIFY_NF = 100
# the two costly calls sit apart so a partly finished cycle is rare
VARIANTS = (
    ("heuristic", ["--method", "heuristic"]),
    ("bayes", ["--method", "bayes"]),
    ("midpoint", ["--method", "midpoint"]),
    ("hard", ["--method", "hard"]),
    ("soft", ["--method", "soft"]),
    ("bayes_hankel", ["--method", "bayes", "--gf-variant", "hankel"]),
    ("optimal", ["--method", "optimal"]),
    ("sure", ["--method", "sure"]),
)
STOCHASTIC = ("bayes", "bayes_hankel")
# Chain seeds: cycle k of a run passes --seed k, so each cycle draws a new
# chain; the reference draws its chains from seeds CHAIN_REF_SEED onwards.
CHAIN_REF_SEED = 10_000
CHAIN_REF_DRAWS = 16

# relative tolerance for values that must repeat the seed commit's numbers;
# loose enough for a reordered floating-point sum, far below any real change
REL_TOL = 1e-6
# width, in standard errors, of the band a run's mean chain statistic (the
# mean bayes log-risk, and the identify_long chain statistics) must stay in
BAYES_BAND_Z = 4.0


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def stride_order(n_x: list[int], seed: int) -> list[int]:
    """Visit order of indices 0..len(n_x)-1 for one seed (see module doc)."""
    rng = random.Random(seed)
    ranked = sorted(range(len(n_x)), key=lambda k: (n_x[k], rng.random()))
    n = len(ranked)
    stride = round(n * (math.sqrt(5) - 1) / 2)
    while math.gcd(stride, n) != 1:
        stride += 1
    start = rng.randrange(n)
    return [ranked[(start + k * stride) % n] for k in range(n)]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


class MonteCarlo:
    """Closed loop over bench.single_run; one operation is one scored
    realization. Methods, scheme and chain settings come from MC_CONFIGS."""

    cycle = 1

    def __init__(self, name: str, seed: int, reference: dict, out_dir: Path):
        self.config = MC_CONFIGS[name]
        self.reference = reference[name]
        runs = self.reference["runs"]
        self.order = stride_order([r["n_x"] for r in runs], seed)
        self.trace_ops = 20 if name == "mc_identity" else len(runs)
        self.bayes_log_ratios: list[float] = []

    def prepare(self) -> None:
        """Nothing to generate: the realizations come from the seeds."""

    def items(self):
        return itertools.cycle(self.order)

    def warmup(self) -> None:
        bench.single_run(self.config, WARMUP_RUN, keep_payload=True)

    def run(self, run_id: int):
        return bench.single_run(self.config, run_id, keep_payload=True)

    def signature(self, result) -> tuple:
        record, _ = result
        return (record.r_star, tuple(record.risks.items()))

    def check(self, run_id: int, result) -> list[str]:
        record, payload = result
        ref = self.reference["runs"][run_id]
        problems = []
        if record.run_id != run_id or record.n_x != ref["n_x"]:
            problems.append(f"run {run_id}: realization differs from the reference")
        if record.r_star != ref["r_star"]:
            problems.append(f"run {run_id}: r* {record.r_star} != {ref['r_star']}")
        if set(payload.estimates) != set(self.config.methods):
            problems.append(f"run {run_id}: methods {sorted(payload.estimates)}")
        for method, est in payload.estimates.items():
            if est.shape != payload.h_fp_true.shape or not np.isfinite(est).all():
                problems.append(f"run {run_id}: {method} estimate bad shape or not finite")
        for method, risk in record.risks.items():
            if method == "bayes":
                if not (math.isfinite(risk) and risk > 0):
                    problems.append(f"run {run_id}: bayes risk {risk}")
                else:
                    self.bayes_log_ratios.append(math.log(risk / ref["risks"]["bayes"]))
            elif not _close(risk, ref["risks"][method]):
                problems.append(f"run {run_id}: {method} risk {risk!r} != "
                                f"{ref['risks'][method]!r}")
        return problems

    def finish(self) -> list[str]:
        """Mean bayes log-risk ratio within its Monte Carlo standard-error
        band: a chain drawing from the same law passes, a biased one fails.
        Both the reference and a new chain are draws, hence the sqrt(2)."""
        if not self.bayes_log_ratios:
            return []
        n = len(self.bayes_log_ratios)
        mean = sum(self.bayes_log_ratios) / n
        limit = BAYES_BAND_Z * math.sqrt(2.0) * self.reference["bayes_log_sd"] / math.sqrt(n)
        if abs(mean) > limit:
            return [f"bayes mean log-risk ratio {mean:.4f} outside +-{limit:.4f} "
                    f"over {n} realizations"]
        return []


def record_system():
    """The one random stable SISO system behind every identify_long record:
    the sampling protocol's first draw from the record stream."""
    model, snr, _, _ = sample_system(
        SystemSpec(), np.random.default_rng(np.random.SeedSequence([RECORD_T, 0])))
    return model, snr


def true_h_fp() -> np.ndarray:
    """The records' true H_fp at f = RECORD_F, p = RECORD_P."""
    return true_decomposition(record_system()[0], RECORD_F, RECORD_P).h_fp


def make_record(index: int, path: Path) -> None:
    """Write record `index`: RECORD_T samples, after burn-in, of
    record_system(), with f and p in the file header. The index only
    changes the input and noise draws, so every record costs about the same
    to identify."""
    model, snr = record_system()
    rng = np.random.default_rng(np.random.SeedSequence([RECORD_T, 0, index]))
    burn = default_burn_in(model)
    u = rng.normal(0.0, math.sqrt(snr), size=(burn + RECORD_T, 1))
    y = simulate(model, u, rng, burn_in=burn)
    write_timeseries(path, u[burn:], y, config={"f": RECORD_F, "p": RECORD_P, "nx": model.n_x})


def identify_argv(record: Path, out: Path, flags: list[str], chain_seed: int = 0) -> list[str]:
    return ["identify", str(record), "--scheme", "n4sid", "--nf", str(IDENTIFY_NF),
            "--seed", str(chain_seed), *flags, "--out", str(out)]


def chain_stats(estimate: np.ndarray, h_true: np.ndarray) -> dict[str, float]:
    """Statistics of one chain's estimate that the reference holds a band
    for: the log risk against the true map, and the log norm of the
    estimate (the hankel variant's estimate is so small that its risk
    hardly depends on the chain, its norm does)."""
    return {"log_risk": math.log(float(np.linalg.norm(estimate - h_true)) ** 2),
            "log_norm": math.log(float(np.linalg.norm(estimate)))}


class IdentifyLong:
    """Closed loop over sidshrink.cli.main(["identify", ...]): each operation
    reads the record file and writes one result file. The seed picks the
    record (seed mod RECORDS); a run completes whole cycles through
    VARIANTS, and cycle k runs the chain with --seed k."""

    cycle = len(VARIANTS)
    trace_ops = len(VARIANTS) * 2

    def __init__(self, name: str, seed: int, reference: dict, out_dir: Path):
        self.index = seed % RECORDS
        self.reference = reference[name]["records"][self.index]
        self.chain_sd = reference[name]["chain_sd"]
        self.out_dir = out_dir
        self.record = out_dir / f"record-{self.index}.csv"
        self.warm_record = out_dir / f"record-{RECORDS}.csv"
        self.draws = {label: [] for label in STOCHASTIC}

    def prepare(self) -> None:
        make_record(self.index, self.record)
        make_record(RECORDS, self.warm_record)
        self.h_true = true_h_fp()

    def items(self):
        for chain_seed in itertools.count():
            for variant in VARIANTS:
                yield variant, chain_seed

    def _call(self, record: Path, variant, chain_seed: int) -> tuple[int, Path]:
        label, flags = variant
        out = self.out_dir / f"identify-{label}.csv"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(identify_argv(record, out, flags, chain_seed))
        return code, out

    def warmup(self) -> None:
        # a variant that bypasses the chain: the chain's 621 MB of selectors
        # make its time swing by +-30 % from call to call, which set-up time
        # would inherit
        code, _ = self._call(self.warm_record, VARIANTS[0], 0)
        if code != 0:
            raise RuntimeError(f"warm-up identify exited with {code}")

    def run(self, item):
        return self._call(self.record, *item)

    def signature(self, result) -> bytes:
        return result[1].read_bytes()

    def check(self, item, result) -> list[str]:
        label = item[0][0]
        code, out = result
        if code != 0:
            return [f"{label}: identify exited with {code}"]
        try:
            mats, _ = read_matrices(out)
            maps = (mats["h_fp_ls"], mats["h_fp_est"])
            r_star = int(mats["r_star"][0, 0])
            order = int(mats["order"][0, 0])
        except (OSError, DataError, KeyError, IndexError, ValueError) as exc:
            return [f"{label}: output does not parse: {exc!r}"]
        ref = self.reference
        problems = []
        for key, m in zip(("h_fp_ls", "h_fp_est"), maps):
            if m.shape != (RECORD_F, 2 * RECORD_P) or not np.isfinite(m).all():
                problems.append(f"{label}: {key} bad shape or not finite")
        if r_star != ref["r_star"]:
            problems.append(f"{label}: r* {r_star} != {ref['r_star']}")
        if order != ref["variants"][label]["order"]:
            problems.append(f"{label}: order {order} != {ref['variants'][label]['order']}")
        if problems:
            return problems
        if label in STOCHASTIC:
            self.draws[label].append(chain_stats(maps[1], self.h_true))
        else:
            norm = float(np.linalg.norm(maps[1]))
            if not _close(norm, ref["variants"][label]["est_norm"]):
                problems.append(f"{label}: estimate norm {norm!r} differs from the reference")
        return problems

    def finish(self) -> list[str]:
        """Each chain statistic's mean over the run's chains within its
        Monte Carlo standard-error band around the reference mean of
        CHAIN_REF_DRAWS chains: a chain drawing from the same law passes, a
        biased one fails. Both means are estimates, hence 1/n + 1/K."""
        problems = []
        for label, draws in self.draws.items():
            if not draws:
                continue
            n = len(draws)
            for stat, ref_mean in self.reference["chain_mean"][label].items():
                mean = sum(d[stat] for d in draws) / n
                limit = (BAYES_BAND_Z * self.chain_sd[label][stat]
                         * math.sqrt(1.0 / n + 1.0 / CHAIN_REF_DRAWS))
                if abs(mean - ref_mean) > limit:
                    problems.append(f"{label}: mean {stat} {mean:.5f} outside "
                                    f"{ref_mean:.5f} +- {limit:.5f} over {n} chains")
        return problems


# mc_identity is not in BENCHMARK.json: at about two realizations a second
# its op rate and tail latency follow the host's CPU drift more than the
# bounds allow. It stays here to be run and traced by hand.
WORKLOADS = {"mc_cva_fast": MonteCarlo, "identify_long": IdentifyLong, "mc_identity": MonteCarlo}


# layers whose traced functions each run on the workload; every other
# layer's functions must record zero calls there
LAYERS_USED = {
    "mc_identity": {"bench", "systems", "estimation", "shrinkage", "bayes", "linalg"},
    "mc_cva_fast": {"bench", "systems", "estimation", "shrinkage"},
    "identify_long": {"cli", "dataio", "estimation", "shrinkage", "bayes", "linalg"},
}
