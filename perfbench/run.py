"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload complexes --seed 1 --seconds 36 --trace 0

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the per-layer
ones.  Lines before it give the input summary, the run record and a
human-readable table.  The exit code is 0 when every op gave its pinned
output, 1 when some did not, 2 on a usage error or a checkout without the
library.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import importlib
import json
import statistics
import sys
import tempfile

import harness

WORKLOADS = ("complexes", "chart-points", "roots-words")


def load(name: str):
    """The workload module: complexes.py, chart_points.py or roots_words.py."""
    return importlib.import_module(name.replace("-", "_"))


def best_latencies(recs) -> list[float]:
    """Each op at its best latency over the given passes, as timeit takes
    the best of its repeats.  Every pass runs the same op list, so op i has
    one latency per pass.  On a shared machine the slower readings come from
    other tenants, whose load changes the speed of this one by up to 1.9x
    for seconds to minutes."""
    return [min(op) for op in zip(*(rec.latencies for rec in recs))]


def end_to_end(setups, passes) -> tuple[dict, dict]:
    """The end-to-end metrics, and the op latency percentiles in ms, which
    are printed but not gated: they vary too much on a shared machine."""
    best = best_latencies(rec for traced, _, rec in passes if not traced)
    return {
        "wall_s": (sum(best), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (harness.peak_rss_mib(), "MiB"),
    }, {f"op_p{q}_ms": harness.percentile(best, q) * 1e3 for q in (50, 90)}


def per_layer(passes) -> dict:
    """Self time and calls per stage and per layer from the traced passes;
    counts, coverage and tracing overhead beside them."""
    traced = [(wall, rec) for t, wall, rec in passes if t]
    per_pass = []
    for wall, rec in traced:
        selfs = harness.self_times(rec.spans, *rec.bounds)
        calls = {}
        for span in rec.spans:
            calls[span[0]] = calls.get(span[0], 0) + 1
        per_pass.append((selfs, calls))
    out = {}
    for stage in harness.STAGES:
        out[f"{stage}.busy_s"] = (statistics.median(s.get(stage, 0.0) for s, _ in per_pass), "s")
        out[f"{stage}.calls"] = (statistics.median(c.get(stage, 0) for _, c in per_pass), "count")
    for layer in harness.LAYERS:
        busy = [sum(v for k, v in s.items() if k.startswith(layer + ".")) for s, _ in per_pass]
        out[f"{layer}.busy_s"] = (statistics.median(busy), "s")
    last = traced[-1][1].counts
    for name, unit in harness.COUNTS.items():
        out[name] = (last.get(name, 0), unit)
    # wall_s as end_to_end computes it, over the traced and the untraced passes
    traced_wall = sum(best_latencies(rec for _, rec in traced))
    untraced_wall = sum(best_latencies(rec for t, _, rec in passes if not t))
    # every op is a span, so spans cover all of wall_s by construction; the
    # coverage is the stricter share of a whole traced pass, the benchmark's
    # checks and glue included, that lies inside spans
    coverage = statistics.median(1 - s["bench.pass"] / wall
                                 for (wall, _), (s, _) in zip(traced, per_pass))
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    out["trace.coverage"] = (coverage, "fraction")
    return out


def write_spans(workload: str, seed: int, passes) -> str:
    """One JSON array per span after a header line naming the fields; span
    0 of each traced pass is the pass itself, the parent of its op spans."""
    path = harness.OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"fields": ["pass", "name", "start", "end", "parent", "op"]}) + "\n")
        for index, (traced, _, rec) in enumerate(passes):
            if traced:
                fh.write(json.dumps([index, "bench.pass", *rec.bounds, None, None]) + "\n")
                for span in rec.spans:
                    fh.write(json.dumps([index, *span]) + "\n")
    return str(path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="sets the number of passes: as many as fit at the workload's "
                         "nominal pass time, at least two")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke run: tiny inputs, one pass (two when traced)")
    args = ap.parse_args(argv)

    if not (harness.ROOT / "src" / harness.PACKAGE / "__init__.py").is_file():
        print(f"error: no library under {harness.ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(harness.ROOT / "src"))
    workload = load(args.workload)

    start = harness.run_record("start")
    harness.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.OUT_DIR) as tmp:
        setups, passes = harness.run_workload(
            workload, args.seed, args.seconds, bool(args.trace), harness.Path(tmp), args.tiny)
    end = harness.run_record("end")

    attempted = sum(rec.attempted for _, _, rec in passes)
    failed = sum(rec.failed for _, _, rec in passes)
    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics, percentiles = end_to_end(setups, passes)
    print("run_record " + json.dumps({"start": start, "end": end, "passes": len(passes),
                                      "pass_wall_s": [w for _, w, _ in passes],
                                      "setup_s": setups}))
    if args.trace:
        print("spans written to " + write_spans(args.workload, args.seed, passes))
    for _, _, rec in passes:
        for line in rec.failures:
            print("FAILED " + line)
    print(f"{'failed_ratio':40s} {failed / attempted:.6f} fraction ({failed}/{attempted} ops)")
    if not args.trace:
        for name, value in percentiles.items():
            print(f"{name:40s} {value:.6g} ms (not gated)")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
