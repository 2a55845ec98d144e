"""Tests of the benchmark's own checks.

Run from the root of a checkout (builds the benchmark binary on first use):

    python3 -m unittest discover -s e2ebench/tests -v
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
REFERENCES = BENCH_DIR / "references.txt"


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def bench(*args, cwd=ROOT):
    return subprocess.run(RUN + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=900)


def reference_line(workload, cell, op):
    for line in REFERENCES.read_text().splitlines():
        fields = line.split()
        if fields[:2] == [workload, str(cell)] and fields[3] == op:
            return line
    raise AssertionError(f"no reference for {workload} cell {cell} {op}")


class ReferenceChecks(unittest.TestCase):
    ARGS = ["--workload", "sched-backfill", "--seed", "1", "--seconds", "0.5",
            "--trace", "0"]

    def run_with(self, references):
        proc = bench(*self.ARGS, "--references", str(references))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return proc.stdout, json.loads(proc.stdout.splitlines()[-1])

    def test_matching_reference_passes(self):
        out, result = self.run_with(REFERENCES)
        self.assertTrue(result["correct"], out)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["metrics"]["success_rate"]["value"], 1)
        self.assertNotIn(" 0 digests matched", out)

    def test_perturbed_reference_counts_as_failure(self):
        # Cell 100 is the first cell of run seed 1.
        line = reference_line("sched-backfill", 100, "cell")
        digest = line.split()[4]
        flipped = ("1" if digest[0] != "1" else "2") + digest[1:]
        perturbed = build_dir() / "perturbed-references.txt"
        perturbed.parent.mkdir(parents=True, exist_ok=True)
        perturbed.write_text(
            REFERENCES.read_text().replace(line, line.replace(digest, flipped)))
        out, result = self.run_with(perturbed)
        self.assertFalse(result["correct"])
        # Cell 100 misses in the warm-up and in each of the (at least
        # three) rounds; the other cells still match.
        self.assertGreaterEqual(result["failed"], 4)
        self.assertLess(result["failed"], result["attempted"])
        self.assertLess(result["metrics"]["success_rate"]["value"], 1)
        self.assertIn("!= reference " + flipped, out)


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        build_dir().mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=build_dir()))
        try:
            shutil.copytree(BENCH_DIR, scratch / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", scratch)
            proc = subprocess.run(
                [sys.executable, str(scratch / BENCH_DIR.name / "run.py"),
                 "--workload", "sched-backfill", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=scratch, capture_output=True, text=True, timeout=120)
        finally:
            shutil.rmtree(scratch)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
