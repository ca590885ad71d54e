"""Repeat benchmark runs over seeds and summarise them into a BENCH file.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seeds 1 \
        --out perfbench/results/BENCH_<label>.json
    python3 perfbench/spread.py --compare BENCH_before.json BENCH_after.json

For each workload (default: all in BENCHMARK.json) and seed, run.py runs in
its own process, one after another. Each end-to-end metric is summarised by
its median, quartiles (`statistics.quantiles(n=4)`) and spread, the
interquartile distance as a share of the median; a spread at or above a
third of the metric's bound is flagged as not steady. Traced runs on
--trace-seeds give per-layer medians. The metrics each run prints as
"report only" (read from its record in perfbench/out/) get medians too.

--compare prints, per workload and end-to-end metric, how far the second
file's median moved from the first's in the metric's worse direction,
flagged when beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    last = proc.stdout.rstrip("\n").split("\n")[-1]
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        raise SystemExit(f"{workload} seed {seed}: no result line (exit {proc.returncode})")
    if proc.returncode or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, correct={result['correct']}")
    with open(os.path.join(HERE, "out", f"{workload}_seed{seed}_trace{trace}.json")) as f:
        result["report"] = json.load(f)["report"]
    return result


def medians(runs: list[dict], key: str) -> dict:
    """Median and sample count of each metric under `key` across runs."""
    out = {}
    for name, m in runs[0][key].items():
        values = [r[key][name]["value"] for r in runs if name in r[key]]
        out[name] = {"unit": m["unit"], "median": statistics.median(values), "n": len(values)}
    return out


def summarize(spec: dict, workloads: list[str], seeds: list[int], trace_seeds: list[int]) -> dict:
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    out: dict = {"seconds": spec["run_seconds"], "seeds": seeds, "trace_seeds": trace_seeds,
                 "workloads": {}}
    for w in workloads:
        runs = [run_once(w, s, spec["run_seconds"], 0) for s in seeds]
        e2e = {}
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = stats.quartiles(values)
            e2e[name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": stats.spread(values), "bound": m["bound"], "values": values}
            flag = "" if e2e[name]["spread"] < m["bound"] / 3 else "  NOT STEADY"
            print(f"{w:<14} {name:<20} median {med:>12.6g} {m['unit']:<5} "
                  f"spread {e2e[name]['spread']:.4f} (bound {m['bound']}){flag}", flush=True)
        traced = [run_once(w, s, spec["run_seconds"], 1) for s in trace_seeds]
        out["workloads"][w] = {
            "end_to_end": e2e,
            "end_to_end_report": medians(runs, "report"),
            "per_layer": medians(traced, "metrics") if traced else {},
            "per_layer_report": medians(traced, "report") if traced else {},
            "attempted": sum(r["attempted"] for r in runs + traced),
            "failed": sum(r["failed"] for r in runs + traced),
        }
    return out


def compare(spec: dict, first: dict, second: dict) -> int:
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    worse_count = 0
    for w, a in first["workloads"].items():
        b = second["workloads"].get(w)
        if b is None:
            continue
        for name, ma in a["end_to_end"].items():
            mb = b["end_to_end"][name]
            change = (mb["median"] - ma["median"]) / abs(ma["median"])
            worse = change if better[name] == "lower" else -change
            flag = "  WORSE THAN BOUND" if worse > ma["bound"] else ""
            worse_count += bool(flag)
            print(f"{w:<14} {name:<20} {ma['median']:>12.6g} -> {mb['median']:<12.6g} "
                  f"worse by {worse:+.4f} (bound {ma['bound']}){flag}")
    return 1 if worse_count else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seeds", nargs="*", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace-seeds", nargs="*", type=int, default=[])
    ap.add_argument("--label", default="")
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    a = ap.parse_args()
    spec = load_spec()
    if a.compare:
        with open(a.compare[0]) as f1, open(a.compare[1]) as f2:
            return compare(spec, json.load(f1), json.load(f2))
    workloads = a.workloads or [w["name"] for w in spec["workloads"]]
    summary = summarize(spec, workloads, a.seeds, a.trace_seeds)
    summary["label"] = a.label
    env_file = os.path.join(HERE, "out", f"{workloads[0]}_seed{a.seeds[0]}_trace0.json")
    with open(env_file) as f:
        summary["env"] = json.load(f)["env"]
    if a.out:
        with open(a.out, "w") as f:
            json.dump(summary, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
