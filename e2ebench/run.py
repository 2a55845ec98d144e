#!/usr/bin/env python3
"""End-to-end benchmark of the hpcs simulator: one command, four workloads.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --workload all --seed 1      # every workload, one table

It builds the e2ebench binary (e2ebench/CMakeLists.txt, Release) and the hpcs
libraries from the checkout's sources into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs it.  The binary's
report ends with one JSON line, which this script checks and prints last.
See e2ebench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["sched-backfill", "gateway-hedged", "gateway-observed", "artery-paper"]
# The first run in a checkout compiles the libraries; later runs only relink.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (ROOT / target).resolve()


def run_logged(cmd, log, timeout):
    with open(log, "a") as out:
        try:
            return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=timeout, cwd=ROOT).returncode
        except subprocess.TimeoutExpired:
            return None


def build(path):
    """Configures (once) and builds e2ebench in `path`; returns it."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no hpcs sources at {ROOT} (need CMakeLists.txt and src/)", 2)
    path.mkdir(parents=True, exist_ok=True)
    log = path / "e2ebench-build.log"
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (path / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(path),
                      "-DCMAKE_BUILD_TYPE=Release", "-DHPCS_SANITIZE=OFF"])
    steps.append(["cmake", "--build", str(path), "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        code = run_logged(cmd, log, BUILD_TIMEOUT_S)
        if code != 0:
            tail = log.read_text(errors="replace").splitlines()[-30:]
            print("\n".join(tail), file=sys.stderr)
            fail(f"build step failed ({'timeout' if code is None else code}): "
                 f"{' '.join(cmd)}")
    exe = path / "e2ebench"
    if not exe.is_file():
        fail(f"build produced no binary at {exe}")
    return exe


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        return None
    spec = json.loads(spec_file.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(exe, build_path, args, workload):
    cmd = [str(exe), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--references", str(args.references)]
    if args.trace:
        spans = build_path / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans-out", str(spans / f"{workload}.json")]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    if args.emit_references:
        cmd.append("--emit-references")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: e2ebench exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"{workload}: e2ebench exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        fail(f"{workload}: e2ebench printed nothing")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
    expected = expected_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        missing = sorted(expected - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - expected)
        fail(f"{workload}: metrics differ from BENCHMARK.json: "
             f"missing {missing}, extra {extra}")
    return lines[:-1], result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--references", type=Path,
                        default=BENCH_DIR / "references.txt",
                        help="reference digests (tests pass a perturbed copy)")
    parser.add_argument("--threads", type=int, default=0,
                        help="alya pool size (default min(4, usable CPUs))")
    parser.add_argument("--emit-references", action="store_true",
                        help="print this run's digests as reference lines")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]", 2)
    args.references = args.references.resolve()

    build_path = build_dir()
    exe = build(build_path)
    if args.workload != "all":
        report, result = run_binary(exe, build_path, args, args.workload)
        print("\n".join(report))
        print(json.dumps(result))
        return

    # One process per workload, so each peak RSS is that workload's alone.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        report, result = run_binary(exe, build_path, args, workload)
        print(f"== {workload}\n" + "\n".join(report))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
        rows.append((workload, report, result))
    if not args.trace:
        print(f"\n{'workload':<18} {'host_ref [ref]':>15} {'host_s [s]':>11} "
              f"{'setup_s [s]':>12} {'peak_rss_mb [MB]':>17} "
              f"{'error_rate [ratio]':>19}")
        for workload, report, result in rows:
            m = result["metrics"]
            host_s = next(line.split()[1] for line in report
                          if line.startswith("host_s ") and "median" in line)
            error_rate = result["failed"] / result["attempted"]
            print(f"{workload:<18} {m['host_ref']['value']:>15.1f} "
                  f"{float(host_s):>11.4f} {m['setup_s']['value']:>12.5f} "
                  f"{m['peak_rss_mb']['value']:>17.1f} {error_rate:>19.4f}")
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
