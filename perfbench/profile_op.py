"""Profile the ops of one named stage of a workload under cProfile.

    python3 perfbench/profile_op.py --workload complexes --stage cubecomplexes.flag

Runs the workload's set-up and one pass; the profiler is on only while ops
of the named stage run.  Prints the 25 costliest functions by own time,
on the inputs of seed 1.
cProfile slows every Python call, so use it to find hot spots and the
benchmark to measure them.
"""
from __future__ import annotations

import argparse
import pstats
import sys
import tempfile

import harness
from run import WORKLOADS, load


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--stage", required=True, choices=harness.STAGES)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(harness.ROOT / "src"))
    harness.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as tmp:
        _, passes = harness.run_workload(load(args.workload), 1, 0, False,
                                         harness.Path(tmp), profile_stage=args.stage)
    rec = passes[0][2]
    if rec.failed:
        print(f"{rec.failed} ops failed: {rec.failures}", file=sys.stderr)
    if not rec.profiler.getstats():
        print(f"workload {args.workload} has no {args.stage} ops", file=sys.stderr)
        return 2
    pstats.Stats(rec.profiler).strip_dirs().sort_stats("tottime").print_stats(25)
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
