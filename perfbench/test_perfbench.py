"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

Each test runs perfbench/run.py in a fresh process, as the benchmark is run.
"""
import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("mc_identity", "mc_cva_fast", "identify_long")
COUNT_SUFFIXES = (".calls", ".errors", ".iterations", ".bytes")


def bench(workload, trace, seconds=0.5, seed=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(result):
    return {k: m["value"] for k, m in result["metrics"].items()}


@functools.cache
def traced(workload):
    """Per-layer metrics of one traced run at seed 0, shared by the tests."""
    return values(result_of(bench(workload, trace=1)))


def test_benchmark_json_lists_the_runner_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == {"mc_cva_fast", "identify_long"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


def test_stride_order_is_a_seeded_permutation():
    n_x = [r["n_x"] for r in workloads.load_reference()["mc_identity"]["runs"]]
    order = workloads.stride_order(n_x, 3)
    assert sorted(order) == list(range(len(n_x)))
    assert order == workloads.stride_order(n_x, 3)
    assert order != workloads.stride_order(n_x, 4)


def test_warmup_run_has_the_largest_state_order():
    n_x = [r["n_x"] for r in workloads.load_reference()["mc_cva_fast"]["runs"]]
    record = workloads.bench.single_run(workloads.MC_CONFIGS["mc_cva_fast"], workloads.WARMUP_RUN)
    assert record.n_x == max(n_x)


def test_identify_long_chain_band_rejects_a_shifted_chain():
    workload = workloads.IdentifyLong("identify_long", 3, workloads.load_reference(), HERE)
    ref = workload.reference["chain_mean"]
    sd = workload.chain_sd
    for label in workloads.STOCHASTIC:
        workload.draws[label] = [dict(ref[label])] * 25
    assert workload.finish() == []
    # the mean log risk 2 % off, about 2 chain-to-chain SDs for the bayes variant
    shifted = dict(ref["bayes"], log_risk=ref["bayes"]["log_risk"] + 0.02)
    workload.draws["bayes"] = [shifted] * 25
    problems = workload.finish()
    assert len(problems) == 1 and "log_risk" in problems[0]
    assert 0.02 > 2 * sd["bayes"]["log_risk"] * (1 / 25 + 1 / workloads.CHAIN_REF_DRAWS) ** 0.5


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload):
    result = result_of(bench(workload, trace=0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in values(result).values())


@pytest.mark.parametrize("workload", ("mc_cva_fast", "identify_long"))
def test_traced_counts_repeat_exactly(workload):
    # a traced run fails its own check when traced and untraced outputs differ
    first = traced(workload)
    second = values(result_of(bench(workload, trace=1)))
    assert set(first) == set(tracing.PER_LAYER)
    counts = [k for k in first if k.endswith(COUNT_SUFFIXES) or k == "bench.attempts"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_mc_cva_fast_never_enters_the_chain():
    metrics = traced("mc_cva_fast")
    chain = {k: v for k, v in metrics.items()
             if k.startswith(("bayes.", "linalg.")) and not k.endswith(".self_s")}
    assert chain and not any(chain.values())
    assert metrics["estimation.rank_star.iterations"] > 0


def test_mc_identity_time_is_mostly_the_chain():
    metrics = traced("mc_identity")
    self_s = {k: v for k, v in metrics.items() if k.endswith(".self_s")}
    chain = sum(v for k, v in self_s.items() if k.startswith(("bayes.", "linalg.")))
    assert chain > 0.5 * sum(self_s.values())
    assert metrics["bayes.iterations"] == 20 * 249
    assert metrics["bench.useful_attempt_ratio"] == 1.0


def test_identify_long_builds_the_dense_selectors():
    metrics = traced("identify_long")
    i, n = workloads.RECORD_F, workloads.RECORD_T - workloads.RECORD_F - workloads.RECORD_P + 1
    per_call = 8 * (i * i * i + i * n * (i + n - 1))
    assert metrics["linalg.build_selectors.calls"] == 4
    assert metrics["linalg.build_selectors.bytes"] == 4 * per_call


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("mc_cva_fast", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
