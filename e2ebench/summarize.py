#!/usr/bin/env python3
"""Records one trajectory point: repeated runs of every workload, summarized.

    python3 e2ebench/summarize.py --label <name> [--runs 10] [--traced 1] \
        [--workloads w1,w2] --out e2ebench/trajectory/<name>.json

Each workload runs --runs times untraced, with seeds 1..runs, and then
--traced times traced. For each end-to-end metric the point keeps every
value, and the median, first and third quartile as
statistics.quantiles(values, n=4) gives them, and the spread
(q3 - q1) / median. For each per-layer metric it keeps the median of the
traced runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    provenance = next((l for l in lines if l.startswith("provenance:")), "")
    return json.loads(lines[-1]), provenance


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2")
    seconds = spec["run_seconds"]

    point = {"label": args.label, "run_seconds": seconds, "runs": args.runs,
             "traced_runs": args.traced, "workloads": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.runs + 1):
            result, provenance = run(workload, seed, seconds, 0)
            results.append(result)
            point.setdefault("provenance", provenance)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.6g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {},
            "per_layer": {},
        }
        entry["error_rate"] = entry["failed"] / entry["attempted"]
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            entry["end_to_end"][m["name"]] = dict(unit=m["unit"],
                                                  **summarize(values))
        traced = [run(workload, seed, seconds, 1)[0]
                  for seed in range(1, args.traced + 1)]
        for m in spec["per_layer"] if traced else []:
            values = [r["metrics"][m["name"]]["value"] for r in traced]
            entry["per_layer"][m["name"]] = {
                "unit": m["unit"], "median": statistics.median(values)}
        point["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(point, indent=1) + "\n")


if __name__ == "__main__":
    main()
