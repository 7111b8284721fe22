"""Time each acceptance criterion once, in-process (not a gated benchmark).

    python3 perfbench/criteria.py [--only 10,12]

Runs on the suite's own seed.  Prints one line per criterion with its
verdict and wall time, then a JSON object {criterion: seconds}.  Criteria
10 and 12 take about a minute each on a 2-core machine, so a full run takes
several minutes.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

import harness


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--only", default="", help="comma-separated criterion numbers")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(harness.ROOT / "src"))
    acc = harness.fresh_library().acceptance
    numbers = ([int(x) for x in args.only.split(",")] if args.only
               else range(1, len(acc.ALL_CRITERIA) + 1))
    seconds = {}
    ok = True
    for number in numbers:
        t0 = time.perf_counter()
        result = acc.run_criterion(number, acc.DEFAULT_SEED)
        seconds[number] = time.perf_counter() - t0
        ok &= result.passed
        print(f"{seconds[number]:8.2f} s  {result.line()}", flush=True)
    print(json.dumps({"seed": acc.DEFAULT_SEED, "seconds": seconds, "all_passed": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
