#!/usr/bin/env python3
"""Benchmark of mutualsec: design kernel, subset search and simulator.

    python3 perfbench/run.py --workload design_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src`
directory.  Workloads (see workloads.py): design_sweep, subset_search,
simulate.  One run, in one process:

1. set-up, timed SETUP_PROBES times in fresh interpreters (start, imports,
   input generation), reported as the median;
2. one untimed warm-up pass over every operation;
3. one untimed pass under tracemalloc over the operations marked in
   workloads.py, for the memory peaks;
4. timed passes, tracemalloc off, repeated until --seconds have passed;
5. with --trace 1, half of --seconds goes to traced passes instead, which
   give the per-layer metrics and the tracing overhead.

Timings are scaled to a reference kernel (fixed interpreter work shaped
like the library's, no mutualsec code), read before and after every
operation and, within long ones, between design calls every READ_EVERY_S:
scaled = raw * NOMINAL_REF_MS / (median of the nearest readings).  On a
shared machine whose speed drifts between modes, the ratio to the kernel
holds steadier than the raw time.  Time in array-bound operations is scaled
the same way by a second kernel of array work shaped like the simulator's
(NOMINAL_ARRAY_REF_MS), read just before and after each such operation: the
interpreter-bound kernel does not follow the speed of large-array work.
Raw values are printed beside the scaled ones.

The last line of stdout is one JSON object: correct, attempted, failed (the
output checks) and metrics.  The lines before it give provenance, a summary
with units, and the raw values.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("design_sweep", "subset_search", "simulate")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11
READ_EVERY_S = 0.1
# Typical reference-kernel readings on the 2-vCPU machine the bounds were
# set on; scaled values read about as raw ones did there.
NOMINAL_REF_MS = 2.7
NOMINAL_ARRAY_REF_MS = 10.5

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_mb", "MB"),
    ("design_p50_us", "us"),
)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def ref_kernel() -> float:
    """Fixed interpreter work shaped like the library's, with no mutualsec
    code: golden-section searches over scalar numpy functions (closed-form
    and interpolated) under errstate, a vectorized scan, fancy-indexed
    column sums and a sort of small frozen dataclasses."""
    import numpy as np

    rng = np.random.default_rng(0)
    rates = rng.random((48, 48))
    table_t, table_eps = np.linspace(0.0, 10.0, 12), np.linspace(0.4, 0.01, 12)
    acc = 0.0
    for r in range(2):
        def h(t):
            t = np.asarray(t, dtype=float)
            eps = np.interp(t, table_t, table_eps) if r else 0.1 / (t + 0.2)
            denom = 1.0 - 2.0 * eps
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                out = np.exp(0.2 * t) / denom
            return float(np.where(denom > 0, out, np.inf))

        a, b = 1e-9, 10.0
        x1, x2 = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
        f1, f2 = h(x1), h(x2)
        for _ in range(50):
            if f1 < f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - GOLDEN * (b - a)
                f1 = h(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + GOLDEN * (b - a)
                f2 = h(x2)
        ts = np.geomspace(1e-6, 10.0, 1024)
        acc += float(np.argmin(np.exp(0.2 * ts) / ts)) + f1
        for k in range(20):
            idx = np.fromiter(range(k % 7, 48, 3), dtype=int)
            acc += float(rates[np.ix_(idx, idx)].sum(axis=0).min())
            items = sorted((_Pair(float(x), -float(x)) for x in rates[k, :16]),
                           key=lambda p: p.a)
            acc += items[0].a + len(set(items))
    return acc


@dataclass(frozen=True)
class _Pair:
    a: float
    b: float


def array_ref_kernel() -> float:
    """Fixed array work shaped like the simulator's, with no mutualsec code:
    uniform draws over periods x members, comparisons, a select, a small
    matrix product and a discounted sum.  The interpreter-bound kernel does
    not follow the speed of such work; this one does."""
    import numpy as np

    rng = np.random.default_rng(0)
    u = rng.random((50_000, 8))
    rates = rng.random((8, 8))
    high = (u < 0.9) == (u[:, ::-1] > 0.05)
    p = np.where(high, 0.2, 0.7)
    deployed = high.astype(float) @ rates
    cost = p * deployed + 0.3 * (rates.sum(axis=0) - deployed)
    disc = np.exp(-0.01 * np.arange(len(u)))
    return float((disc[:, None] * cost).sum())


class RefClock:
    """Readings of one reference kernel in time order.  A duration is scaled
    by the median of the `near` readings closest to its midpoint.  `inside`
    totals the time spent on readings taken within an operation, which is
    taken out of the operation's time."""

    def __init__(self, kernel=ref_kernel, nominal_ms: float = NOMINAL_REF_MS,
                 near: int = 7) -> None:
        self.kernel = kernel
        self.nominal_ms = nominal_ms
        self.near = near
        self.times: list[float] = []
        self.values: list[float] = []
        self.inside = 0.0

    def read(self) -> float:
        """Take one reading; return the time it took."""
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2.0)
        self.values.append(t1 - t0)
        return t1 - t0

    def ref_at(self, t: float) -> float:
        i = bisect.bisect(self.times, t)
        lo = min(max(i - self.near // 2, 0), max(len(self.times) - self.near, 0))
        return statistics.median(self.values[lo:lo + self.near])

    def scale(self, raw: float, midpoint: float) -> float:
        return raw * self.nominal_ms * 1e-3 / self.ref_at(midpoint)


def design_calls(clock: RefClock, calls: list, read: bool):
    """Record the midpoint and duration of every optimal_design call,
    wherever it is made from (through the tracing wrapper, if one is in
    place).  With `read`, also take a reference reading between two calls
    of the main thread once READ_EVERY_S has passed since the last, so long
    operations such as brute force are scaled call by call rather than by
    readings seconds away."""
    import tracing
    from mutualsec import design

    main_thread = threading.main_thread()

    def wrap(_name, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                calls.append(((t0 + t1) / 2.0, t1 - t0))
                if (read and t1 - clock.times[-1] >= READ_EVERY_S
                        and threading.current_thread() is main_thread):
                    clock.inside += clock.read()

        return timed

    return tracing.patched(wrap, [("design.optimal_design", design.optimal_design)])


@dataclass
class Pass:
    wall_raw: float = 0.0
    wall: float = 0.0
    refs: list = field(default_factory=list)
    array_refs: list = field(default_factory=list)
    design_raw: list = field(default_factory=list)
    design: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def run_pass(ops, tracer=None) -> Pass:
    """One pass over the operations, with a reference reading before the
    first and after each one, and, untraced, between design calls (inside a
    span a reading would count as layer time).  Each design call is scaled
    by the readings around it, and the rest of an operation's time by the
    readings around the operation.  Those are the interpreter kernel's 7
    nearest, so one jittery reading moves nothing, except for array-bound
    operations: the mean of the array kernel's readings just before and just
    after, which follow the speed of large-array work from second to
    second."""
    result = Pass()
    clock = RefClock()
    arrays = RefClock(array_ref_kernel, NOMINAL_ARRAY_REF_MS, near=2)
    gc.collect()
    clock.read()
    records = []
    for op in ops:
        calls: list = []
        inside = clock.inside
        span = (contextlib.nullcontext() if tracer is None
                else tracer.span("bench.op", op=op.name))
        if op.array_bound:
            arrays.read()
        t0 = time.perf_counter()
        with span, design_calls(clock, calls, read=tracer is None):
            out = op.fn()
        t1 = time.perf_counter()
        if op.array_bound:
            arrays.read()
        records.append((op, t0, t1, clock.inside - inside, calls))
        result.outputs[op.name] = out
        gc.collect()
        clock.read()
    for op, t0, t1, inside, calls in records:
        raw = t1 - t0 - inside
        rest = raw - sum(d for _, d in calls)
        scaled = [clock.scale(d, t) for t, d in calls]
        result.wall_raw += raw
        result.wall += sum(scaled)
        rest_clock = arrays if op.array_bound else clock
        result.wall += rest_clock.scale(rest, (t0 + t1) / 2.0)
        result.design_raw.extend(d for _, d in calls)
        result.design.extend(scaled)
    result.refs = clock.values
    result.array_refs = arrays.values
    if tracer is not None:
        result.spans = tracer.spans
    return result


def warm_up(ops) -> dict:
    """Every operation once, untimed; returns the outputs."""
    outputs = {}
    for op in ops:
        gc.collect()
        outputs[op.name] = op.fn()
    return outputs


def memory_pass(ops) -> dict:
    """Peak traced memory of each operation marked `memory`, above what was
    live before it, in MB.  Untimed, and after the warm-up, so one-time
    imports and caches are not counted."""
    peaks = {}
    tracemalloc.start()
    try:
        for op in ops:
            if op.memory:
                gc.collect()
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                op.fn()
                peaks[op.name] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()
    return peaks


def setup_times(workload: str, seed: int) -> tuple[list, list]:
    """Raw and scaled set-up times of fresh interpreters, each measured from
    the spawn until the child reports its inputs ready."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", workload, "--seed", str(seed)]
    clock = RefClock()
    probes = []
    for _ in range(SETUP_PROBES):
        gc.collect()
        for _ in range(3):
            clock.read()
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, cwd=ROOT) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        probes.append((t0, t1))
    for _ in range(3):
        clock.read()
    raw = [t1 - t0 for t0, t1 in probes]
    scaled = [clock.scale(t1 - t0, (t0 + t1) / 2.0) for t0, t1 in probes]
    return raw, scaled


def timed_passes(ops, seconds: float, traced: bool = False) -> list:
    """Passes until `seconds` have gone by, at least one."""
    import tracing

    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        if traced:
            tracer = tracing.Tracer()
            with tracing.patched(tracer.wrap):
                passes.append(run_pass(ops, tracer))
        else:
            passes.append(run_pass(ops))
    return passes


def git_sha() -> str:
    """HEAD's commit, read from the checkout's .git directory (loose ref,
    else packed-refs); "unknown" where there is none."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown"


def prepare_environment() -> None:
    """BLAS pinned to one thread; MUTUALSEC_THREADS left unset so the CLI
    sweep pool keeps its default.  Must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("MUTUALSEC_THREADS", None)
    if not (SRC / "mutualsec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'mutualsec'}; "
                 "run from a mutualsec checkout")
    if not (ROOT / "configs").is_dir():
        sys.exit(f"perfbench: no configs directory at {ROOT / 'configs'}")
    sys.path.insert(0, str(SRC))
    import mutualsec

    if Path(mutualsec.__file__).resolve().parent != (SRC / "mutualsec").resolve():
        sys.exit(f"perfbench: imported mutualsec from {mutualsec.__file__}, "
                 f"not from {SRC}")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    prepare_environment()
    import numpy as np

    import tracing
    import workloads

    inputs, ops = workloads.build(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup_raw, setup_scaled = setup_times(args.workload, args.seed)
    warm = warm_up(ops)
    peaks = memory_pass(ops)
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    passes = timed_passes(ops, untraced_seconds)
    traced = timed_passes(ops, args.seconds / 2, traced=True) if args.trace else []

    checks = workloads.Checks()
    first = passes[0].outputs
    workloads.CHECKERS[args.workload](checks, inputs, first)
    reference = workloads.digest(first)
    for outputs in [warm, *(p.outputs for p in passes[1:] + traced)]:
        checks.expect(workloads.digest(outputs) == reference,
                      "a pass gave different outputs for the same inputs")
    if args.workload == "simulate":
        again = workloads.avg_costs(warm)
        for path, cost in workloads.avg_costs(first).items():
            checks.expect(again[path] == cost,
                          f"{path}: same seed gave avg_cost {cost} and {again[path]}")

    wall = statistics.median(p.wall for p in passes)
    e2e = {
        "setup_s": statistics.median(setup_scaled),
        "wall_s": wall,
        "peak_mb": max(peaks.values()),
        "design_p50_us": 1e6 * statistics.median(
            [x for p in passes for x in p.design]),
    }
    raw = {
        "setup_raw_s": statistics.median(setup_raw),
        "wall_raw_s": statistics.median(p.wall_raw for p in passes),
        "design_p50_raw_us": 1e6 * statistics.median(
            [x for p in passes for x in p.design_raw]),
        "ref_ms": 1e3 * statistics.median(r for p in passes for r in p.refs),
    }
    array_refs = [r for p in passes for r in p.array_refs]
    if array_refs:
        raw["array_ref_ms"] = 1e3 * statistics.median(array_refs)
    if args.trace:
        per_pass = [tracing.layer_metrics(p.spans, p.outputs, peaks) for p in traced]
        for count in tracing.EXACT_COUNTS:
            checks.expect(len({m[count] for m in per_pass}) == 1,
                          f"{count} differs between traced passes")
        layers = tracing.median_metrics(per_pass)
        layers["bench.ref_ms"] = raw["ref_ms"]
        layers["bench.wall_raw_s"] = raw["wall_raw_s"]
        layers["bench.setup_raw_s"] = raw["setup_raw_s"]
        layers["bench.trace_overhead_s"] = (
            statistics.median(p.wall for p in traced) - wall)
        metrics = {name: metric(layers[name], unit)
                   for name, unit in tracing.PER_LAYER}
    else:
        metrics = {name: metric(e2e[name], unit) for name, unit in END_TO_END}

    fail_frac = len(checks.failures) / checks.attempted
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
        | {"MUTUALSEC_THREADS": os.environ.get("MUTUALSEC_THREADS")},
        "bench.ref_ms": raw["ref_ms"],
        "passes": len(passes),
        "traced_passes": len(traced),
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"raw": raw, "fail_frac": fail_frac,
                      "pass_wall_s": [p.wall for p in passes],
                      "pass_wall_raw_s": [p.wall_raw for p in passes],
                      "setup_s": setup_scaled, "setup_raw_s": setup_raw,
                      "peaks_mb": peaks}))
    for name, unit in END_TO_END:
        print(f"{args.workload:14s} {name:14s} {e2e[name]:14.6f} {unit}")
    print(f"{args.workload:14s} {'fail_frac':14s} {fail_frac:14.6f} ratio")
    for failure in checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)

    print(json.dumps({"correct": not checks.failures,
                      "attempted": checks.attempted,
                      "failed": len(checks.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
