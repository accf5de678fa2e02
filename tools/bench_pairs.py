"""Measure a change against its parent with perfbench, in alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --label NAME \
        [--pairs 10] [--confirm SEED:PAIRS ...] [--what TEXT]

DIR is a checkout of each commit. For every workload of BENCHMARK.json,
every pair runs `python3 perfbench/run.py --workload W --seed 0 --seconds T
--trace 0` in both checkouts, one after the other, with T the benchmark's
run_seconds, and alternates which side goes first. A run's result file is
removed before the run and read from the checkout's perfbench/out/ as soon
as it ends, so a run that writes none stops the tool. --confirm adds pairs
of the first workload at another seed, such as one not used while the
change was written. Then each side runs every workload once at --trace 1
and seed 0. --what is the record's description of the change.

The summary goes to BENCH_<label>.json in the current directory:

- pairs: per workload and seed, every run's end-to-end metrics and, per
  metric, the change/parent ratios, the change's wins (ties count for
  neither), both sides' quartiles and the ratio of the medians;
- traced: the per-layer metrics of each side's --trace 1 run;
- result_files: the full result file of pair 0 of each workload and seed,
  and of each --trace 1 run.

A gain holds for a metric when the change wins at least nine tenths of the
pairs and the medians differ, in the better direction, by more than the
parent's interquartile range; `gain_holds` records that, and
`within_bound` whether the change's median is no worse than the parent's
by more than the metric's bound in BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SIDES = ("parent", "change")
SEED = 0
CHILD_TIMEOUT_S = 1800


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run in a checkout; returns the result file it wrote.

    run.py exits with 1 both when its result is incorrect (the file is
    written) and when it raises (no file), so only a file written by this
    run counts: the one from an earlier run is removed first."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    path = checkout / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.unlink(missing_ok=True)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode not in (0, 1) or not path.is_file():
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(path.read_text(encoding="utf-8"))
    print(f"{checkout.name} {workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"{json.dumps({k: v['value'] for k, v in result['metrics'].items()}) if not trace else ''}",
          flush=True)
    return result


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise_metric(spec: dict, parent: list[float], change: list[float]) -> dict:
    higher = spec["better"] == "higher"
    ratios = [c / p if p else float("nan") for p, c in zip(parent, change)]
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gain = (cq["median"] - pq["median"]) if higher else (pq["median"] - cq["median"])
    worse_by = -gain / pq["median"] if pq["median"] else 0.0
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent": parent,
        "change": change,
        "change_over_parent": ratios,
        "change_wins": wins,
        "parent_quartiles": pq,
        "change_quartiles": cq,
        "median_change_over_parent": cq["median"] / pq["median"] if pq["median"] else None,
        "gain_holds": wins >= 0.9 * len(parent) and gain > pq["q3"] - pq["q1"],
        "within_bound": worse_by <= spec["bound"],
    }


def summarise_pairs(end_to_end: list[dict], order: list[str], runs: dict) -> dict:
    n = len(order)
    summary = {
        "n_pairs": n,
        "first_in_pair": order,
        "blas_threads": sorted({r["env"]["blas_threads"] for side in SIDES for r in runs[side]}),
        "all_correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "speed_factor": {side: [r["speed_factor"] for r in runs[side]] for side in SIDES},
        "unscaled": {side: [r["raw"] for r in runs[side]] for side in SIDES},
        "metrics": {},
    }
    for spec in end_to_end:
        name = spec["name"]
        summary["metrics"][name] = summarise_metric(
            spec, *([r["metrics"][name]["value"] for r in runs[side]] for side in SIDES))
    return summary


def traced_summary(result: dict) -> dict:
    flat = {"correct": result["correct"], "problems": result["problems"],
            "blas_threads": result["env"]["blas_threads"]}
    flat.update({name: entry["value"] for name, entry in result["metrics"].items()})
    flat["layer_self_s"] = result["layer_self_s"]
    flat["traced_op_s"] = result["traced_op_s"]
    return flat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--confirm", nargs="*", default=[], metavar="SEED:PAIRS",
                        help="extra pairs at other seeds, for the first workload")
    parser.add_argument("--what", default="")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    plan = [(w, SEED, args.pairs) for w in workloads]
    for item in args.confirm:
        seed, pairs = (int(x) for x in item.split(":"))
        plan.append((workloads[0], seed, pairs))

    record = {"what": args.what, "machine": "", "pairs": {}, "traced": {}, "result_files": {}}
    for workload, seed, n_pairs in plan:
        runs = {side: [] for side in SIDES}
        order = []
        for k in range(n_pairs):
            sides = SIDES if k % 2 == 0 else SIDES[::-1]
            order.append(sides[0])
            for side in sides:
                result = run_once(checkouts[side], workload, seed, 0)
                runs[side].append(result)
                if k == 0:
                    record["result_files"][f"{side}/{workload}/seed{seed}/trace0/pair0"] = result
        record["pairs"][f"{workload}/seed{seed}"] = summarise_pairs(
            BENCHMARK["end_to_end"], order, runs)
    for workload in workloads:
        record["traced"][workload] = {}
        for side in SIDES:
            result = run_once(checkouts[side], workload, SEED, 1)
            record["traced"][workload][side] = traced_summary(result)
            record["result_files"][f"{side}/{workload}/seed{SEED}/trace1"] = result
    env = next(iter(record["result_files"].values()))["env"]
    record["machine"] = (f"{env['nproc']}-CPU host, numpy {env['numpy']}, scipy {env['scipy']}, "
                         f"{env['blas']}, {env['blas_threads']} BLAS thread; op times scaled by "
                         "each run's CPU probe (speed_factor), setup_s unscaled")
    out = Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for key, pairs in record["pairs"].items():
        for name, m in pairs["metrics"].items():
            print(f"{key} {name}: parent {m['parent_quartiles']['median']:.4g} change "
                  f"{m['change_quartiles']['median']:.4g} ({m['median_change_over_parent']:.4f}), "
                  f"wins {m['change_wins']}/{pairs['n_pairs']}, gain_holds {m['gain_holds']}, "
                  f"within_bound {m['within_bound']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
