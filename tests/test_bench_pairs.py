"""tools/bench_pairs.py reads only the result file that a run wrote itself."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

RESULT_NAME = "result-w-seed0-trace0.json"
INCORRECT = {"correct": False, "metrics": {"op_per_s": {"value": 2.0}}}


def _checkout(tmp_path: Path, run_py: str) -> Path:
    (tmp_path / "perfbench" / "out").mkdir(parents=True)
    (tmp_path / "perfbench" / "run.py").write_text(run_py, encoding="utf-8")
    return tmp_path


def test_a_run_that_raises_is_not_read_as_the_earlier_result(tmp_path):
    checkout = _checkout(tmp_path, "raise RuntimeError('run failed')\n")
    stale = checkout / "perfbench" / "out" / RESULT_NAME
    stale.write_text(json.dumps({"correct": True, "metrics": {}}), encoding="utf-8")
    with pytest.raises(RuntimeError, match="exited with 1"):
        bench_pairs.run_once(checkout, "w", 0, 0)
    assert not stale.exists()


def test_an_incorrect_run_that_writes_its_result_is_read(tmp_path):
    checkout = _checkout(tmp_path, (
        "import json, sys\n"
        f"open('perfbench/out/{RESULT_NAME}', 'w').write({json.dumps(json.dumps(INCORRECT))})\n"
        "sys.exit(1)\n"))
    assert bench_pairs.run_once(checkout, "w", 0, 0) == INCORRECT
