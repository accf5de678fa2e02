"""Every committed BENCH_*.json holds checked perfbench/run.py results: both
workloads of BENCHMARK.json at --trace 0 and at --trace 1, each correct and
measured with one BLAS thread."""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# a result file's trace level shows in its metric names
TRACE_METRICS = {
    0: {m["name"] for m in BENCHMARK["end_to_end"]},
    1: {m["name"] for m in BENCHMARK["per_layer"]},
}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_file_holds_correct_results_of_every_workload(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    results = list(record["result_files"].values())
    covered = set()
    for result in results:
        assert result["correct"] is True
        assert result["env"]["blas_threads"] == 1
        covered |= {(result["workload"], trace) for trace, names in TRACE_METRICS.items()
                    if set(result["metrics"]) == names}
    expected = {(w["name"], trace) for w in BENCHMARK["workloads"] for trace in TRACE_METRICS}
    assert expected <= covered
