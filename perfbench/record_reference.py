"""Record the reference table the benchmark checks its outputs against.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are known good; it overwrites
perfbench/reference.json. For every Monte Carlo realization it stores n_x,
r* and each method's risk. For the bayes method it also runs a second,
independent chain on the same data, and stores the pooled chain-to-chain
standard deviation of the log risk, which sets the band the bayes risk of a
changed chain must stay in. For identify_long it stores r*, the order and
the estimate's Frobenius norm of every variant on every record, and, for
the two bayes variants, the mean of each chain statistic
(workloads.chain_stats) over CHAIN_REF_DRAWS chains per record and its
chain-to-chain standard deviation pooled over the records.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import replace

import run

run.pin_blas()
run.use_checkout_source()

import numpy as np  # noqa: E402

from sidshrink import bench, cli  # noqa: E402
from sidshrink.bayes import run_gibbs  # noqa: E402
from sidshrink.dataio import read_matrices  # noqa: E402
from sidshrink.estimation import assemble, build_weights, estimate_noise, ls_estimate, rank_star  # noqa: E402

import workloads  # noqa: E402


def replicate_bayes_risk(config, record, payload) -> float:
    """Risk of a second chain on the realization's data, from a stream the
    benchmark never uses."""
    data = assemble(payload.u, payload.y, payload.f, payload.p)
    ls = ls_estimate(data)
    noise = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat)
    weights = build_weights(config.scheme, data, g_f_hat=noise.g_f_hat)
    info = rank_star(data, ls, weights)
    rng = np.random.default_rng(np.random.SeedSequence(
        [config.seed, record.run_id, record.attempts - 1, 1, 1]))
    cfg = replace(config.gibbs, rank=info.r_star)
    est = run_gibbs(data, ls.h_fp_hat, ls.h_f_hat, cfg, rng=rng).h_fp_bayes
    return bench.realization_risk(payload.h_fp_true, est, payload.weights)


def record_mc(name: str) -> dict:
    config = workloads.MC_CONFIGS[name]
    runs = []
    sq_diffs = []
    for run_id in range(workloads.UNIVERSE):
        record, payload = bench.single_run(config, run_id, keep_payload=True)
        runs.append({"run_id": run_id, "n_x": record.n_x, "r_star": record.r_star,
                     "attempts": record.attempts, "risks": record.risks})
        if "bayes" in record.risks:
            rep = replicate_bayes_risk(config, record, payload)
            sq_diffs.append(math.log(rep / record.risks["bayes"]) ** 2)
        print(f"{name} {run_id}", file=sys.stderr, flush=True)
    out = {"runs": runs}
    if sq_diffs:
        out["bayes_log_sd"] = math.sqrt(sum(sq_diffs) / (2 * len(sq_diffs)))
    return out


def identify(path, out, flags, chain_seed=0) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(workloads.identify_argv(path, out, flags, chain_seed))
    if code != 0:
        raise SystemExit(f"{path} {flags}: identify exited with {code}")
    mats, _ = read_matrices(out)
    return mats


def record_identify() -> dict:
    run.OUT_DIR.mkdir(exist_ok=True)
    path = run.OUT_DIR / "reference-record.csv"
    out = run.OUT_DIR / "reference-identify.csv"
    h_true = workloads.true_h_fp()
    records = []
    # squared deviations of each chain statistic from its record's mean
    sq_devs = {label: {} for label in workloads.STOCHASTIC}
    for index in range(workloads.RECORDS):
        workloads.make_record(index, path)
        entry = {"index": index, "variants": {}, "chain_mean": {}}
        for label, flags in workloads.VARIANTS:
            mats = identify(path, out, flags)
            entry["r_star"] = int(mats["r_star"][0, 0])
            entry["variants"][label] = {
                "order": int(mats["order"][0, 0]),
                "est_norm": float(np.linalg.norm(mats["h_fp_est"])),
            }
            if label not in workloads.STOCHASTIC:
                continue
            draws = [workloads.chain_stats(identify(path, out, flags, seed)["h_fp_est"], h_true)
                     for seed in range(workloads.CHAIN_REF_SEED,
                                       workloads.CHAIN_REF_SEED + workloads.CHAIN_REF_DRAWS)]
            means = {stat: sum(d[stat] for d in draws) / len(draws) for stat in draws[0]}
            entry["chain_mean"][label] = means
            for stat, mean in means.items():
                sq_devs[label].setdefault(stat, []).extend((d[stat] - mean) ** 2 for d in draws)
        records.append(entry)
        print(f"identify_long {index}", file=sys.stderr, flush=True)
    dof = workloads.RECORDS * (workloads.CHAIN_REF_DRAWS - 1)
    chain_sd = {label: {stat: math.sqrt(sum(v) / dof) for stat, v in stats.items()}
                for label, stats in sq_devs.items()}
    return {"records": records, "chain_sd": chain_sd}


def main() -> None:
    reference = {name: record_mc(name) for name in workloads.MC_CONFIGS}
    reference["identify_long"] = record_identify()
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
