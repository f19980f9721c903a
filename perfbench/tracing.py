"""Spans around calls into the layers, and the per-layer metrics built on them.

Tracing replaces, for the length of one pass, the module attributes through
which callers reach a layer's public functions (for example
`mutualsec.strategy.optimal_design`), so calls made inside the library are
timed too.  Nothing in the package's source changes.  Spans stay in memory
and are turned into metrics when the pass ends.
"""

from __future__ import annotations

import contextlib
import inspect
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import mutualsec
from mutualsec import cli, design, network, sim, strategy
from workloads import monitor_key

MODULES = (mutualsec, design, network, strategy, sim, cli)

# (span name, function): every module attribute that is the function itself
# gets wrapped, so each caller's lookup is covered.
TRACED = (
    ("design.optimal_design", design.optimal_design),
    ("design.minimize_loss_factor", design.minimize_loss_factor),
    ("design.feasible_period_interval", design.feasible_period_interval),
    ("network.critical_traffic", network.critical_traffic),
    ("network.critical_members", network.critical_members),
    ("network.has_mct", network.has_mct),
    ("strategy.brute_force_optimal", strategy.brute_force_optimal),
    ("strategy.iterative_deletion", strategy.iterative_deletion),
    ("strategy.core_periphery_threshold", strategy.core_periphery_threshold),
    ("sim.simulate", sim.simulate),
    ("sim.deviation_gain", sim.deviation_gain),
    ("sim.run_strategy_comparison", sim.run_strategy_comparison),
)

CLI_COMMANDS = ("sweep", "id", "bruteforce", "mct", "threshold", "simulate")

PER_LAYER = (
    ("design.optimal_design.calls", "count"),
    ("design.optimal_design.busy_s", "s"),
    ("design.optimal_design.p50_us", "us"),
    ("design.optimal_design.p90_us", "us"),
    ("design.optimal_design.rational_p50_us", "us"),
    ("design.optimal_design.tabulated_p50_us", "us"),
    ("design.minimize_loss_factor.p50_us", "us"),
    ("design.feasible_period_interval.p50_us", "us"),
    ("design.feasible_share", "ratio"),
    ("design.nu_crit_reuse_share", "ratio"),
    ("network.has_mct.busy_s", "s"),
    ("network.has_mct.subsets", "count"),
    ("network.critical_traffic.p50_us", "us"),
    ("network.critical_members.p50_us", "us"),
    ("strategy.brute_force_optimal.busy_s", "s"),
    ("strategy.brute_force_optimal.self_s", "s"),
    ("strategy.brute_force_optimal.evaluations", "count"),
    ("strategy.brute_force_optimal.feasible_share", "ratio"),
    ("strategy.iterative_deletion.busy_s", "s"),
    ("strategy.iterative_deletion.self_s", "s"),
    ("strategy.iterative_deletion.iterations", "count"),
    ("strategy.iterative_deletion.evaluations", "count"),
    ("strategy.core_periphery_threshold.busy_s", "s"),
    ("sim.simulate.rating_ms", "ms"),
    ("sim.simulate.trigger_ms", "ms"),
    ("sim.simulate.tft_ms", "ms"),
    ("sim.simulate.rating_peak_mb", "MB"),
    ("sim.simulate.trigger_peak_mb", "MB"),
    ("sim.simulate.tft_peak_mb", "MB"),
    ("sim.as_periods", "count"),
    ("sim.rng_draws", "count"),
    ("sim.deviation_gain.busy_s", "s"),
    ("sim.run_strategy_comparison.busy_s", "s"),
    ("sim.run_strategy_comparison.design_calls", "count"),
    *((f"cli.{c}_ms", "ms") for c in CLI_COMMANDS),
    ("cli.sweep.points_per_s", "1/s"),
    ("cli.output_bytes", "bytes"),
    ("cli.nonzero_exits", "count"),
    ("bench.ref_ms", "ms"),
    ("bench.wall_raw_s", "s"),
    ("bench.setup_raw_s", "s"),
    ("bench.trace_overhead_s", "s"),
)

# Counts that must repeat exactly between two traced passes of one seed.
# network.has_mct.subsets is left out: has_mct reports no count, so the
# metric is 2**n - 1 worked out from its input and could not differ.
EXACT_COUNTS = (
    "design.optimal_design.calls",
    "strategy.brute_force_optimal.evaluations",
    "sim.rng_draws",
)


@dataclass
class Span:
    name: str
    parent: "Span | None"
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sim_path(profile) -> str:
    kinds = set(profile.kinds())
    if kinds == {"tit-for-tat"}:
        return "tft"
    if kinds == {"grim-trigger"}:
        return "trigger"
    return "rating"


def _attrs(name: str, bound: dict, result, span: Span) -> None:
    """Work counts a span carries, read from its arguments and result."""
    a = span.attrs
    if name == "design.optimal_design":
        a["kind"] = bound["mon"].kind
        a["feasible"] = result.feasible
        a["key"] = (bound["env"], monitor_key(bound["mon"]))
    elif name == "network.critical_traffic":
        parent = span.parent
        if parent is not None and parent.name == "design.optimal_design":
            parent.attrs["nu_crit"] = result
    elif name == "network.has_mct":
        # has_mct counts nothing itself: every nonempty subset of n members.
        a["subsets"] = (1 << bound["tm"].n) - 1
    elif name == "strategy.brute_force_optimal":
        a["evaluations"] = result.evaluations
    elif name == "strategy.iterative_deletion":
        a["iterations"] = len(result.trace.iterations)
        a["evaluations"] = result.evaluations
    elif name == "sim.simulate":
        h, n = bound["horizon"], bound["tm"].n
        a["path"] = _sim_path(bound["profile"])
        a["as_periods"] = h * n
        a["rng_draws"] = h * n + (h * n * n if a["path"] == "tft" else 0)


class Tracer:
    """Collects spans from the calling thread and from worker threads; a
    span's parent is the open span of the same thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        s = Span(name, stack[-1] if stack else None, 0.0, attrs=attrs)
        self.spans.append(s)
        stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            _attrs(name, signature.bind(*args, **kwargs).arguments, result, s)
            return result

        return traced


@contextlib.contextmanager
def patched(wrap, functions=TRACED):
    """Replace each (span name, function) pair's function, wherever a module
    exposes it under the span name's last part, by wrap(span_name, fn);
    restore the originals on exit."""
    saved = []
    try:
        for name, fn in functions:
            wrapper = wrap(name, fn)
            attr = name.rpartition(".")[2]
            for module in MODULES:
                if getattr(module, attr, None) is fn:
                    saved.append((module, attr, fn))
                    setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# ---- per-layer metrics ----------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def _self_time(span: Span, children: dict) -> float:
    kids = children.get(id(span), ())
    return span.duration - _covered([(k.start, k.end) for k in kids])


def _p(values: list[float], q: float) -> float:
    """q-th percentile in microseconds; 0 when there are no calls."""
    return 1e6 * float(np.percentile(values, q)) if values else 0.0


def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _under(span: Span, name: str) -> bool:
    s = span.parent
    while s is not None:
        if s.name == name:
            return True
        s = s.parent
    return False


def layer_metrics(spans: list[Span], outputs: dict, peaks: dict) -> dict:
    """Per-layer metrics of one traced pass.  `outputs` maps operation names
    to results; `peaks` maps them to their tracemalloc peak in MB.  A layer
    the workload never calls reads 0."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def spans_of(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s.duration for s in spans_of(name))

    def durations(name, pred=lambda s: True):
        return [s.duration for s in spans_of(name) if pred(s)]

    m: dict[str, float] = {}
    od = spans_of("design.optimal_design")
    m["design.optimal_design.calls"] = len(od)
    m["design.optimal_design.busy_s"] = busy("design.optimal_design")
    m["design.optimal_design.p50_us"] = _p(durations("design.optimal_design"), 50)
    m["design.optimal_design.p90_us"] = _p(durations("design.optimal_design"), 90)
    for kind in ("rational", "tabulated"):
        m[f"design.optimal_design.{kind}_p50_us"] = _p(durations(
            "design.optimal_design", lambda s: s.attrs["kind"] == kind), 50)
    for name in ("design.minimize_loss_factor", "design.feasible_period_interval",
                 "network.critical_traffic", "network.critical_members"):
        m[f"{name}.p50_us"] = _p(durations(name), 50)
    m["design.feasible_share"] = _share(sum(s.attrs["feasible"] for s in od), len(od))
    seen, reused = set(), 0
    for s in sorted(od, key=lambda s: s.start):
        key = (*s.attrs["key"], s.attrs.get("nu_crit"))
        reused += key in seen
        seen.add(key)
    m["design.nu_crit_reuse_share"] = _share(reused, len(od))

    m["network.has_mct.busy_s"] = busy("network.has_mct")
    m["network.has_mct.subsets"] = sum(s.attrs["subsets"] for s in spans_of("network.has_mct"))

    for name in ("strategy.brute_force_optimal", "strategy.iterative_deletion"):
        m[f"{name}.busy_s"] = busy(name)
        m[f"{name}.self_s"] = sum(_self_time(s, children) for s in spans_of(name))
        m[f"{name}.evaluations"] = sum(s.attrs["evaluations"] for s in spans_of(name))
    bf_designs = [s for s in od if _under(s, "strategy.brute_force_optimal")]
    m["strategy.brute_force_optimal.feasible_share"] = _share(
        sum(s.attrs["feasible"] for s in bf_designs), len(bf_designs))
    m["strategy.iterative_deletion.iterations"] = sum(
        s.attrs["iterations"] for s in spans_of("strategy.iterative_deletion"))
    m["strategy.core_periphery_threshold.busy_s"] = busy("strategy.core_periphery_threshold")

    sims = spans_of("sim.simulate")
    for path in ("rating", "trigger", "tft"):
        op = f"simulate:{path}"
        m[f"sim.simulate.{path}_ms"] = 1e3 * sum(
            s.duration for s in sims
            if s.attrs["path"] == path and s.parent is not None
            and s.parent.attrs.get("op") == op)
        m[f"sim.simulate.{path}_peak_mb"] = peaks.get(op, 0.0)
    m["sim.as_periods"] = sum(s.attrs["as_periods"] for s in sims)
    m["sim.rng_draws"] = sum(s.attrs["rng_draws"] for s in sims)
    m["sim.deviation_gain.busy_s"] = busy("sim.deviation_gain")
    m["sim.run_strategy_comparison.busy_s"] = busy("sim.run_strategy_comparison")
    m["sim.run_strategy_comparison.design_calls"] = sum(
        _under(s, "sim.run_strategy_comparison") for s in od)

    cli_ops = [s for s in spans_of("bench.op") if s.attrs["op"].startswith("cli.")]
    for command in CLI_COMMANDS:
        m[f"cli.{command}_ms"] = 1e3 * sum(
            s.duration for s in cli_ops
            if s.attrs["op"].startswith(f"cli.{command}:"))
    sweep_rows = sum(outputs[s.attrs["op"]].text.count("\n") - 1
                     for s in cli_ops if s.attrs["op"].startswith("cli.sweep:"))
    m["cli.sweep.points_per_s"] = _share(sweep_rows, m["cli.sweep_ms"] / 1e3)
    cli_outputs = [outputs[s.attrs["op"]] for s in cli_ops]
    m["cli.output_bytes"] = sum(len(o.text.encode()) for o in cli_outputs)
    m["cli.nonzero_exits"] = sum(o.code != 0 for o in cli_outputs)
    return m


def median_metrics(runs: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
