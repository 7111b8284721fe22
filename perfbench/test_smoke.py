"""The benchmark's own test: a tiny-size smoke run of every workload.

    python3 perfbench/test_smoke.py

Checks that each workload, traced and untraced, exits 0, reports no failed
op, prints every metric of BENCHMARK.json with its unit (in the table and
in the final JSON line), and that a directory holding only the benchmark
exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


class SmokeRun(unittest.TestCase):
    def check(self, workload: str, trace: int, section: str):
        proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--tiny")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        table = {line.split()[0]: line.split()[2] for line in lines[:-1]
                 if line.split() and line.split()[0] in want}
        self.assertEqual(table, want)

    def test_workloads(self):
        for w in SPEC["workloads"]:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    self.check(w["name"], trace, section)

    def test_refuses_without_library(self):
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
            proc = run(bare, "--workload", "complexes", "--seed", "1", "--seconds", "1",
                       "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
