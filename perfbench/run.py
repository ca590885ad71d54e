"""Run one arelax benchmark workload, or all of them, and print the metrics.

    python3 perfbench/run.py --workload mlp4_mnist --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from a checkout of the repository: arelax is imported from its `src`
directory. Every metric is printed by name with its unit, then the
environment, and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones (see
perfbench/README.md). A full record of each run, environment included, is
written to perfbench/out/.

The exit code is non-zero when a baseline workload (mlp4_mnist, gradcheck)
has a failed step or check; the variant workloads report failures in
`failed` without changing the exit code. With --workload all, each
workload runs in its own process and the last line merges their results
under "<workload>." prefixes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_THREADS = 1    # one BLAS thread: steadier timings on a small shared machine
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("mlp4_mnist", "cnn_cifar_psi", "gradcheck", "mlp4_unfrozen")


def pin_blas_threads() -> int:
    """Set the BLAS thread count (never above the CPUs this process may
    use) in this process's environment, before numpy is first imported."""
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ[THREAD_VARS[0]]),
        "cpu": cpu,
    }


def _line(name: str, value, unit: str) -> str:
    v = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<44} {v:>14} {unit}"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, SRC)
    import arelax
    if os.path.dirname(os.path.dirname(os.path.abspath(arelax.__file__))) != SRC:
        print(f"perfbench: imported arelax from {arelax.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    w = workloads.WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    env = environment()
    metrics, extra, run = workloads.run_workload(w, seed, seconds, trace, OUT)
    print(f"perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("metrics:")
    for k, (v, unit) in metrics.items():
        print(_line(k, v, unit))
    print("report only:")
    for k, (v, unit) in extra.items():
        print(_line(k, v, unit))
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for f in run.failures:
        print(f"FAILED: {f}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "env": env,
              "report": {k: {"value": v, "unit": unit} for k, (v, unit) in extra.items()},
              "step_s": run.steps, "traced_step_s": run.traced_steps, "eval_s": run.eval_times,
              "failures": run.failures, **result}
    with open(os.path.join(OUT, f"{name}_seed{seed}_trace{int(trace)}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 1 if (run.failed and w.baseline) else 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        status = max(status, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
            print(f"perfbench: {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 2
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return status


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="arelax benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if a.seed < 0 or a.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isdir(os.path.join(SRC, "arelax")):
        print(f"perfbench: no arelax sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    if a.workload == "all":
        return run_all(a.seed, a.seconds, bool(a.trace))
    return run_one(a.workload, a.seed, a.seconds, bool(a.trace))


if __name__ == "__main__":
    sys.exit(main())
