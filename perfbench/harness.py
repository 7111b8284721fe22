"""Shared machinery of the benchmark: a fresh import of the library per pass,
the op recorder with its optional spans, the pass loop, and the run record.

A *pass* is one execution of a workload's fixed op list.  Before every pass
the library is imported afresh (its modules are dropped from ``sys.modules``)
and the workload's inputs are generated again from the seed, so each pass
starts from the same cold state a command-line user starts from: empty
``lru_cache`` tables, no interned objects, no per-tree caches.  The time of
that set-up is one sample of ``setup_s``.

One client runs the ops in a closed loop on one thread: the next op starts
only after the previous one returned, so no op ever waits for another and
no waiting time is reported.
"""
from __future__ import annotations

import cProfile
import contextlib
import gc
import importlib
import io
import os
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
PACKAGE = "cactusflower"
MODULES = (
    "scalars", "combinatorics", "forests", "projective", "cubecomplexes",
    "groups", "realgeometry", "rootsystems", "acceptance", "cli",
)

# Every layer stage the workloads record, as <module>.<stage>.  Each yields
# the per-layer metrics <stage>.busy_s (self time) and <stage>.calls.
STAGES = (
    "forests.enumerate", "forests.canon", "forests.flip_collapse", "forests.navigate",
    "cubecomplexes.build", "cubecomplexes.flag", "cubecomplexes.isometry",
    "cubecomplexes.presentation", "cubecomplexes.subdivision",
    "cubecomplexes.negative_control",
    "realgeometry.theta_shared", "realgeometry.theta_fresh", "realgeometry.star",
    "realgeometry.inverse",
    "projective.construct", "projective.membership_member",
    "projective.membership_perturbed", "projective.strata",
    "scalars.rank",
    "rootsystems.build", "rootsystems.face_centres", "rootsystems.xi",
    "rootsystems.related",
    "groups.evaluate", "groups.diagram", "groups.rewrite", "groups.presentation",
    "cli.main",
)
LAYERS = tuple(dict.fromkeys(s.split(".")[0] for s in STAGES))
_STAGE_SET = frozenset(STAGES)

# Work counts recorded by the workloads at layer boundaries: name -> unit.
COUNTS = {
    "forests.enumerate.forests": "count",
    "cubecomplexes.build.subcubes": "count",
    "cubecomplexes.build.useful_ratio": "fraction",
    "rootsystems.faces": "count",
    "rootsystems.face_vertices": "count",
    "groups.rewrite.proven_ratio": "fraction",
}

MIN_PASSES = 2
SETUP_REPEATS = 5


def pass_count(workload, seconds: float, trace: bool, tiny: bool = False,
               profiling: bool = False) -> int:
    """How many passes a run makes: as many as ``seconds`` holds at the
    workload's nominal pass time (``PASS_S``, set-up included, on a 2-core
    x86-64 VM), and at least MIN_PASSES.  The count depends only on the
    arguments, never on how fast the run goes, so every run of a workload
    takes its best-of over the same number of passes."""
    if tiny or profiling:
        return 2 if trace else 1
    return max(MIN_PASSES, int(seconds // workload.PASS_S))


def fresh_library() -> types.SimpleNamespace:
    """Import every library module afresh and return them by short name."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
    )


class Pass:
    """Runs and records the ops of one pass.

    ``op(stage, fn, *args, check=...)`` calls ``fn(*args)`` and times it.
    The check runs after the clock stops; an op fails when it raises or its
    check is not true.  With tracing on, every op leaves a span
    ``(stage, start, end, parent, op_id)`` whose parent is the pass span.
    """

    def __init__(self, traced: bool = False, profile_stage: str | None = None):
        self.traced = traced
        self.spans: list[tuple] = []
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counts: dict[str, float] = {}
        self.profile_stage = profile_stage
        self.profiler = cProfile.Profile() if profile_stage else None
        self.bounds = (0.0, 0.0)  # perf_counter at the start and end of the pass

    def op(self, stage, fn, *args, check=None, what=""):
        if stage not in _STAGE_SET:
            raise KeyError(f"unknown stage {stage!r}")
        profiling = self.profiler is not None and stage == self.profile_stage
        error = None
        if profiling:
            self.profiler.enable()
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # the op failed; record it and go on
            result, error = None, exc
        t1 = time.perf_counter()
        if profiling:
            self.profiler.disable()
        self.latencies.append(t1 - t0)
        if self.traced:
            self.spans.append((stage, t0, t1, 0, self.attempted + 1))
        self.attempted += 1
        if error is None and check is not None:
            try:
                if not check(result):
                    error = "wrong output"
            except Exception as exc:
                error = exc
        if error is not None:
            self._fail(f"{stage} {what}: {error!r}")
        return result

    def expect(self, ok: bool, what: str) -> None:
        """A check over the outputs of several ops; a miss counts as one
        failed op."""
        if not ok:
            self._fail(f"{what}: wrong output")

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)

    def count(self, name: str, value) -> None:
        if name not in COUNTS:
            raise KeyError(f"unknown count {name!r}")
        self.counts[name] = value


def cli_call(lib, argv):
    """``cactusflower.cli.main(argv)`` in-process; returns (code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(list(argv))
    return code, out.getvalue()


def self_times(spans, pass_start, pass_end) -> dict[str, float]:
    """Self time per span name: duration minus the time covered by children.

    Span 0 is the pass itself; op spans name it as their parent."""
    spans = [("bench.pass", pass_start, pass_end, None, 0)] + list(spans)
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans[1:]:
        child_time[parent] += t1 - t0
    out: dict[str, float] = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (t1 - t0) - child_time[i]
    return out


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop.  It only flags a noisy or
    throttled run in the run record; no metric is rescaled by it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def git_sha() -> str:
    """The commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(phase: str) -> dict:
    rec = {"phase": phase, "loadavg": list(os.getloadavg()),
           "reference_loop_s": reference_loop()}
    if phase == "start":
        rec.update(python=platform.python_version(), nproc=os.cpu_count(),
                   git_sha=git_sha())
    return rec


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload, seed: int, seconds: float, trace: bool, tmp: Path,
                 tiny: bool = False, profile_stage: str | None = None):
    """Set up and run ``pass_count`` passes.

    With tracing, passes alternate untraced / traced, so one run yields both
    the untraced wall time and the traced one.  Returns (setups, passes)
    with passes a list of (traced, wall_s, Pass)."""
    setups = []

    def set_up():
        gc.collect()  # the previous library generation is cyclic garbage
        t0 = time.perf_counter()
        lib = fresh_library()
        inputs = workload.setup(lib, seed, tmp, tiny)
        setups.append(time.perf_counter() - t0)
        return lib, inputs

    for _ in range(SETUP_REPEATS):
        lib, inputs = set_up()
    print("inputs " + workload.summary(inputs), flush=True)

    passes = []
    for _ in range(pass_count(workload, seconds, trace, tiny, profile_stage is not None)):
        if passes:
            lib, inputs = set_up()
        traced = trace and len(passes) % 2 == 1
        rec = Pass(traced=traced, profile_stage=profile_stage)
        gc.collect()
        t0 = time.perf_counter()
        workload.run_pass(lib, inputs, rec)
        rec.bounds = (t0, time.perf_counter())
        passes.append((traced, rec.bounds[1] - t0, rec))
    return setups, passes


def percentile(values, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def cli_op(p: Pass, lib, argv, code: int, check=None):
    """One ``cli.main`` op that must exit with ``code`` (0 pass, 1 failed
    verification, 2 usage error) and whose stdout must satisfy ``check``."""
    return p.op("cli.main", cli_call, lib, argv,
                check=lambda res: res[0] == code and (check is None or check(res[1])),
                what=" ".join(argv))
