"""sidshrink benchmark runner.

    python3 perfbench/run.py --workload mc_cva_fast --seed 0 --seconds 50 --trace 0

Runs one workload on the library in src/ of this
checkout, in a single process with BLAS pinned to one thread, and checks
every operation's output against perfbench/reference.json. Operations run
closed-loop and serially: the next starts when the previous one returns.

--trace 0 reports the end-to-end metrics: operations run until their
summed time reaches --seconds (identify_long finishes its cycle of
variants), and setup_s is the median wall time of SETUP_SAMPLES fresh
processes that import, make the inputs and run one warm-up operation.
Operation times are scaled to a reference CPU speed (see PROBE_REF_S);
setup_s is not.

--trace 1 reports the per-layer metrics: each operation of a fixed list (so
counts repeat exactly for a seed) runs untraced and traced, in alternating
order, and both runs must give identical outputs; the difference in op rate
is the tracing overhead.

The last line of standard output is one JSON object; run artifacts (result,
spans, record files) go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150
# On a shared 2-vCPU VM the CPU speed drifted by up to 25 % over minutes,
# whatever ran.
# A fixed probe runs between operations and every operation time is scaled
# by PROBE_REF_S / (geometric mean probe time of the run): the time the run
# would have taken at the probe's reference speed, its geometric mean on a
# 2-vCPU x86-64 VM. As speeds combine by ratios, the geometric mean suits
# them, and it gives the few very slow probes less weight than the
# arithmetic mean: over ten runs per workload it gave the narrowest spreads
# of op_per_s, op_ms.p50 and op_ms.p90 together. The scaled values are
# relative to that VM and mean nothing as absolute times elsewhere. The
# probe imports nothing from the library, so no change to it moves the
# probe. Set-up time is left unscaled: it is mostly imports and process
# start, and scaling it by probes taken between the set-up processes
# widened its spread.
PROBE_REF_S = 3.2e-3
PROBE_EVERY_S = 0.5

# metric name -> unit, for --trace 0
END_TO_END = {
    "setup_s": "s",
    "op_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}


def pin_blas() -> None:
    """One BLAS thread: the thread count alone moves wall time by 1.5-2.4x
    on this library's small matrices. It must be set before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"


def use_checkout_source() -> None:
    """Import sidshrink from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sidshrink" / "__init__.py").is_file():
        raise SystemExit(f"error: no sidshrink source under {src}")
    sys.path.insert(0, str(src))


def environment() -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            threads = fn()
    return {
        "blas_threads": threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


class Probe:
    """An interpreted loop plus small LAPACK calls, the library's own mix."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        sym = rng.standard_normal((40, 40))
        self._sym = sym @ sym.T
        self._wide = rng.standard_normal((20, 400))
        self._linalg = np.linalg
        self._last = -float("inf")
        self.times: list[float] = []

    def _once(self) -> float:
        start = time.perf_counter()
        total = 0
        for k in range(20000):
            total += k
        for _ in range(2):
            self._linalg.eigh(self._sym)
            self._linalg.svd(self._wide, full_matrices=False)
        return time.perf_counter() - start

    def sample(self, force: bool = False) -> None:
        """Time the probe if PROBE_EVERY_S has passed since the last time.
        The mean of three repeats keeps the interruptions by other tenants
        of the host, which the operations suffer too."""
        if force or time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.times.append(statistics.fmean(self._once() for _ in range(3)))
            self._last = time.perf_counter()

    def factor(self) -> float:
        return PROBE_REF_S / statistics.geometric_mean(self.times)


def setup(workloads, name: str, seed: int):
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](name, seed, workloads.load_reference(), OUT_DIR)
    workload.prepare()
    workload.warmup()
    return workload


def setup_seconds(name: str, seed: int) -> float:
    """Median wall time of fresh processes that only set up."""
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                        "--seed", str(seed), "--setup-only"],
                       stdout=subprocess.DEVNULL, check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_op(workload, op_id: int, item):
    """One timed operation; returns (latency_s, result or None if it raised)."""
    start = time.perf_counter()
    try:
        result = workload.run(item)
    except Exception:   # a raising operation is counted as failed, not fatal
        result = None
        print(f"op {op_id} raised: {traceback.format_exc()}", file=sys.stderr)
    return time.perf_counter() - start, result


def op_failed(workload, op_id: int, item, result) -> bool:
    problems = ["raised"] if result is None else workload.check(item, result)
    for problem in problems:
        print(f"check failed: op {op_id}: {problem}", file=sys.stderr)
    return bool(problems)


def timed_run(workloads, name: str, seed: int, seconds: float) -> dict:
    import numpy as np

    setup_s = setup_seconds(name, seed)
    workload = setup(workloads, name, seed)
    probe = Probe()
    items_iter = workload.items()
    latencies, failed, busy = [], 0, 0.0
    while busy < seconds or len(latencies) % workload.cycle:
        item = next(items_iter)
        probe.sample()
        latency, result = run_op(workload, len(latencies), item)
        failed += op_failed(workload, len(latencies), item, result)
        latencies.append(latency)
        busy += latency
    probe.sample(force=True)
    run_problems = workload.finish()
    raw_ms = np.asarray(latencies) * 1e3
    raw = {
        "op_per_s": len(latencies) / busy,
        "op_ms.p50": float(np.percentile(raw_ms, 50)),
        "op_ms.p90": float(np.percentile(raw_ms, 90)),
    }
    factor = probe.factor()
    metrics = {"setup_s": setup_s}
    metrics.update((k, v / factor if k == "op_per_s" else v * factor) for k, v in raw.items())
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "correct": failed == 0 and not run_problems,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
        "problems": run_problems,
        "speed_factor": factor,
        "probe_ms": [t * 1e3 for t in probe.times],
        "raw": raw,
        "latencies_ms": raw_ms.tolist(),
    }


def traced_run(workloads, name: str, seed: int) -> dict:
    import tracing

    workload = setup(workloads, name, seed)
    items = list(itertools.islice(workload.items(), workload.trace_ops))
    tracer = tracing.Tracer()
    plain_lat, traced_lat, failed, problems = [], [], 0, []
    for op_id, item in enumerate(items):
        # alternate which run goes first, so drift during the run cancels;
        # outputs are read before the other run overwrites them
        signatures = {}
        for traced in ((False, True) if op_id % 2 == 0 else (True, False)):
            if traced:
                tracer.op_id = op_id
                tracer.install()
                try:
                    latency, result = run_op(workload, op_id, item)
                finally:
                    tracer.uninstall()
                traced_lat.append(latency)
                failed += op_failed(workload, op_id, item, result)
            else:
                latency, result = run_op(workload, op_id, item)
                plain_lat.append(latency)
            signatures[traced] = None if result is None else workload.signature(result)
        if signatures[False] != signatures[True]:
            problems.append(f"op {op_id}: traced output differs from untraced output")
    problems += workload.finish()
    problems += tracer.coverage_problems(workloads.LAYERS_USED[name])
    overhead = len(items) / sum(plain_lat) - len(items) / sum(traced_lat)
    values = tracer.metrics(overhead)
    tracer.write_spans(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(items),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": tracing.PER_LAYER[k][0]} for k, v in values.items()},
        "problems": problems,
        "layer_self_s": {layer: sum(v for k, v in values.items()
                                    if k.startswith(layer + ".") and k.endswith(".self_s"))
                         for layer in tracing.LAYERS},
        "traced_op_s": sum(traced_lat),
    }


def report(result: dict, env: dict, trace: bool) -> None:
    """Human-readable lines; the caller prints the JSON line after them."""
    print("env: " + json.dumps(env, sort_keys=True))
    for problem in result["problems"]:
        print(f"problem: {problem}")
    if trace:
        total = result["traced_op_s"]
        shares = ", ".join(f"{layer} {100 * s / total:.1f}%"
                           for layer, s in sorted(result["layer_self_s"].items(),
                                                  key=lambda kv: -kv[1]))
        print(f"self time of {total:.3f} s traced: {shares}")
    else:
        for key, metric in result["metrics"].items():
            print(f"{key:12s} {metric['value']:.6g} {metric['unit']}")
        print(f"failed_frac  {result['failed'] / result['attempted']:.6g} fraction "
              f"({result['failed']} of {result['attempted']} operations)")
        print(f"samples      {result['attempted']} operations timed")
        print(f"op times above are scaled by {result['speed_factor']:.4f}, the probe's reference "
              f"time over its geometric mean in this run; unscaled: {json.dumps(result['raw'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("mc_cva_fast", "identify_long", "mc_identity"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and exit (used to time set-up)")
    args = parser.parse_args(argv)

    pin_blas()
    use_checkout_source()
    import workloads

    if args.setup_only:
        setup(workloads, args.workload, args.seed)
        return 0
    if args.trace:
        result = traced_run(workloads, args.workload, args.seed)
    else:
        result = timed_run(workloads, args.workload, args.seed, args.seconds)
    env = environment()
    report(result, env, bool(args.trace))
    with open(OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env, **result},
                  fh, indent=1)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
