"""Run the benchmark's own smoke test against the library in src/: every
workload, at tiny size, must pass the output checks that its ops pin (the
negative control's witness among them)."""
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))


def test_benchmark_smoke_test_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "test_smoke.py")],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
