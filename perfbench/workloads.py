"""Seeded inputs, operations and output checks of the three workloads.

A workload is a list of operations, each one call (or a short run of calls)
into a public function of `mutualsec` or into `cli.main`.  The inputs come
from the seed alone; the cost of a pass is meant not to depend on it, so
instance shapes are fixed and only values are drawn.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import mutualsec
from mutualsec import cli, design, network, sim, strategy

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

P_HIGH, P_LOW = 0.3, 0.05
GAP = P_HIGH - P_LOW


@dataclass
class Op:
    """One step of a pass.  `memory` marks the steps the tracemalloc pass
    runs.  `array_bound` marks steps whose time goes to large arrays: they
    are scaled by the array reference kernel, since the interpreter-bound
    one follows their speed only over a whole run."""

    name: str
    fn: Callable[[], object]
    memory: bool = True
    array_bound: bool = False


@dataclass
class CliOutput:
    command: str
    code: int
    text: str


def call_cli(argv: list[str]) -> CliOutput:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return CliOutput(argv[0], code, buf.getvalue())


def _config(name: str) -> str:
    return str(CONFIGS / f"{name}.json")


# ---- instance generators ----------------------------------------------------


def _random_connected(rng, n: int, p: float, levels: np.ndarray) -> np.ndarray:
    """Symmetric rates on a ring plus random chords, drawn from `levels`."""
    r = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1) or rng.random() < p:
                r[i, j] = r[j, i] = rng.choice(levels)
    return r


def _tabulated(rng) -> mutualsec.MonitoringModel:
    """Decreasing convex table on an even period grid: each step's drop is a
    fixed fraction of the one before."""
    ts = np.linspace(0.0, rng.uniform(6.0, 12.0), 12)
    eps0 = rng.uniform(0.25, 0.45)
    ratio = rng.uniform(0.4, 0.7)
    drops = ratio ** np.arange(len(ts) - 1)
    drops *= eps0 * rng.uniform(0.85, 0.97) / drops.sum()
    es = eps0 - np.concatenate(([0.0], np.cumsum(drops)))
    return mutualsec.MonitoringModel.tabulated(list(zip(ts.tolist(), es.tolist())))


def _headroom_min(beta: float, w0: float) -> float:
    """min over T of exp(beta*T) / (1 - 2*eps(T)) for the rational family,
    on a fine grid: about the smallest gap*nu/c that admits an IC design."""
    t = np.geomspace(1e-4, 60.0, 40000)
    return float((np.exp(beta * t) * (t + 2 * w0) / t).min())


def _subset_nu(rates: np.ndarray) -> np.ndarray:
    n = rates.shape[0]
    masks = np.arange(1, 1 << n)
    members = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    inbound = members.astype(float) @ rates
    return np.where(members, inbound, np.inf).min(axis=1)


# ---- design_sweep -------------------------------------------------------------

# (kind, n, shape parameter): ring degree or core-periphery (cores, leaves).
SWEEP_TOPOLOGIES = (
    ("complete", 4, None), ("complete", 12, None),
    ("complete", 32, None), ("complete", 64, None),
    ("ring_lattice", 8, 4), ("ring_lattice", 16, 6),
    ("ring_lattice", 40, 8), ("ring_lattice", 64, 10),
    ("core_periphery", 4, (4, 0)), ("core_periphery", 12, (6, 1)),
    ("core_periphery", 32, (8, 3)), ("core_periphery", 64, (16, 3)),
    ("random", 6, None), ("random", 16, None),
    ("random", 36, None), ("random", 64, None),
)
SWEEP_BETAS = (0.1, 0.2, 0.35, 0.5)
# gap * nu_crit / c: the headroom a point leaves for the IC constraint.
SWEEP_BOUNDS = (1.6, 2.2, 3.0, 4.5)
SWEEP_W0 = (0.05, 0.15, 0.4)
SWEEP_CONFIGS = ("benchmark_error_sweep", "degree_error_sweep")


@dataclass
class SweepPoint:
    env: mutualsec.Environment
    mon: mutualsec.MonitoringModel
    tm: mutualsec.TrafficMatrix
    nu_crit: float


def _sweep_topology(rng, kind: str, n: int, shape) -> mutualsec.TrafficMatrix:
    rate = rng.uniform(0.5, 2.0)
    if kind == "complete":
        return mutualsec.TrafficMatrix.complete(n, rate)
    if kind == "ring_lattice":
        return mutualsec.TrafficMatrix.ring_lattice(n, shape, rate)
    if kind == "core_periphery":
        return mutualsec.TrafficMatrix.restricted_core_periphery(*shape, rate)
    levels = np.round(rng.uniform(0.5, 2.0, 8), 3)
    return mutualsec.TrafficMatrix(_random_connected(rng, n, 0.3, levels))


def design_sweep_inputs(seed: int) -> list[SweepPoint]:
    """4 topology kinds x 4 sizes, each priced at 4 betas x 4 headroom levels
    x 6 monitors (3 rational, 3 tabulated): 1536 points, every value
    jittered so no (environment, monitor, critical traffic) repeats."""
    rng = np.random.default_rng([seed, 1])
    points = []
    for kind, n, shape in SWEEP_TOPOLOGIES:
        tm = _sweep_topology(rng, kind, n, shape)
        nu = float(tm.rates.sum(axis=0).min())
        for beta in SWEEP_BETAS:
            for bound in SWEEP_BOUNDS:
                for m in range(6):
                    env = mutualsec.Environment(
                        P_HIGH, P_LOW,
                        GAP * nu / (bound * rng.uniform(0.95, 1.05)),
                        beta * rng.uniform(0.9, 1.1))
                    if m < 3:
                        mon = mutualsec.MonitoringModel.rational(
                            SWEEP_W0[m] * rng.uniform(0.9, 1.1))
                    else:
                        mon = _tabulated(rng)
                    points.append(SweepPoint(env, mon, tm, nu))
    keys = {(p.env, monitor_key(p.mon), p.nu_crit) for p in points}
    if len(keys) != len(points):
        raise RuntimeError("design_sweep grid repeats a point")
    return points


def monitor_key(mon) -> tuple:
    """Hashable identity of a monitoring model's curve."""
    if mon.kind == "rational":
        return ("rational", mon.w0)
    return ("tabulated", mon._ts.tobytes(), mon._eps.tobytes())


def _price_points(points: list[SweepPoint]) -> Callable[[], list]:
    def run():
        return [design.optimal_design(p.env, p.mon, p.tm) for p in points]
    return run


def design_sweep_ops(points: list[SweepPoint]) -> list[Op]:
    per_topology = len(points) // len(SWEEP_TOPOLOGIES)
    ops = []
    # 24-point chunks keep each step near 50 ms, so the reference kernel
    # runs often enough to follow the machine's speed changes.  The
    # tracemalloc pass, which slows the design kernel six-fold, takes the
    # first chunk of each n=64 topology, where the kernel's arrays are
    # largest.  It skips the sweeps: their thread pool overlaps allocations
    # by how the threads happen to be scheduled, which moved their peak by
    # a fifth from run to run.
    for start in range(0, len(points), 24):
        chunk = points[start:start + 24]
        ops.append(Op(f"grid[{start}]", _price_points(chunk),
                      memory=start % per_topology == 0 and chunk[0].tm.n == 64))
    for name in SWEEP_CONFIGS:
        ops.append(Op(f"cli.sweep:{name}",
                      lambda name=name: call_cli(["sweep", "--config", _config(name)]),
                      memory=False))
    return ops


# ---- subset_search ------------------------------------------------------------

BRUTE_FORCE_SIZES = (10, 12)
MCT_SIZE = 17
DELETION_SIZE = 600
# Rates on a 1/16 grid: ties make critical traffic repeat across subsets
# (about 95% of brute-force designs repeat an already priced one) without
# making the feasible share jump from seed to seed.
SUBSET_RATES = np.arange(8, 49) / 16.0
# Subsets below this quantile of critical traffic admit no IC design, so
# about 70% are feasible on every seed: the pass costs the same from seed to
# seed, and the median design call is a feasible one rather than the edge
# between the cheap infeasible calls and the feasible ones.
FEASIBLE_QUANTILE = 0.3


@dataclass
class SubsetInstance:
    env: mutualsec.Environment
    mon: mutualsec.MonitoringModel
    tm: mutualsec.TrafficMatrix


@dataclass
class SubsetInputs:
    brute: list[SubsetInstance]
    mct: mutualsec.TrafficMatrix
    deletion: SubsetInstance


def _brute_instance(rng, n: int) -> SubsetInstance:
    rates = _random_connected(rng, n, 0.6, SUBSET_RATES)
    beta = rng.uniform(0.15, 0.3)
    w0 = rng.uniform(0.05, 0.3)
    nu_q = float(np.quantile(_subset_nu(rates), FEASIBLE_QUANTILE))
    c = GAP * nu_q / _headroom_min(beta, w0)
    return SubsetInstance(mutualsec.Environment(P_HIGH, P_LOW, c, beta),
                          mutualsec.MonitoringModel.rational(w0),
                          mutualsec.TrafficMatrix(rates))


def subset_search_inputs(seed: int) -> SubsetInputs:
    rng = np.random.default_rng([seed, 2])
    brute = [_brute_instance(rng, n) for n in BRUTE_FORCE_SIZES]
    mct = mutualsec.TrafficMatrix(
        _random_connected(rng, MCT_SIZE, 0.6, SUBSET_RATES))
    n = DELETION_SIZE
    dense = rng.uniform(0.5, 1.5, (n, n))
    dense = (dense + dense.T) / 2.0
    np.fill_diagonal(dense, 0.0)
    deletion = SubsetInstance(
        mutualsec.Environment(P_HIGH, P_LOW, rng.uniform(0.2, 0.4),
                              rng.uniform(0.15, 0.3)),
        mutualsec.MonitoringModel.rational(rng.uniform(0.05, 0.3)),
        mutualsec.TrafficMatrix(dense))
    return SubsetInputs(brute, mct, deletion)


def subset_search_ops(inp: SubsetInputs) -> list[Op]:
    ops = []
    for b in inp.brute:
        # tracemalloc slows the design kernel six-fold; brute force holds
        # one design at a time, so the deletion step on the same instance
        # stands for its memory.
        ops.append(Op(f"brute_force_optimal[n={b.tm.n}]",
                      lambda b=b: strategy.brute_force_optimal(b.env, b.mon, b.tm),
                      memory=False))
        ops.append(Op(f"iterative_deletion[n={b.tm.n}]",
                      lambda b=b: strategy.iterative_deletion(
                          b.env, b.mon, b.tm, check_assumptions=False)))
    ops.append(Op(f"has_mct[n={inp.mct.n}]",
                  lambda: network.has_mct(inp.mct)))
    d = inp.deletion
    ops.append(Op(f"iterative_deletion[n={d.tm.n}]",
                  lambda: strategy.iterative_deletion(
                      d.env, d.mon, d.tm, check_assumptions=False)))
    for command, name in (("id", "six_as_deletion"),
                          ("bruteforce", "six_as_deletion"),
                          ("mct", "square_mct_true"),
                          ("mct", "square_mct_false"),
                          ("threshold", "core_periphery_threshold")):
        ops.append(Op(f"cli.{command}:{name}",
                      lambda c=command, n=name: call_cli([c, "--config", _config(n)])))
    return ops


# ---- simulate -------------------------------------------------------------------

RATING_N, LONG_HORIZON = 8, 10**6
TFT_N, TFT_HORIZON = 40, 10**4
DEVIATION_HORIZON, DEVIATION_SEEDS = 20000, 8
COMPARISON_HORIZON, COMPARISON_SEEDS = 5000, 8
COMPARISON_BETAS = (0.1, 0.15, 0.2, 0.25, 0.3)
SIM_CONFIGS = ("reference_simulation", "strategy_beta_comparison")


@dataclass
class SimInputs:
    env: mutualsec.Environment
    mon: mutualsec.MonitoringModel
    tm: mutualsec.TrafficMatrix
    tft_tm: mutualsec.TrafficMatrix
    tft_period: float
    path_seed: int


def simulate_inputs(seed: int) -> SimInputs:
    rng = np.random.default_rng([seed, 3])
    env = mutualsec.Environment(P_HIGH, P_LOW, rng.uniform(0.2, 0.4),
                                rng.uniform(0.15, 0.3))
    mon = mutualsec.MonitoringModel.rational(rng.uniform(0.05, 0.2))
    tm = mutualsec.TrafficMatrix.complete(RATING_N, rng.uniform(0.8, 1.5))
    tft_tm = mutualsec.TrafficMatrix.complete(TFT_N, rng.uniform(0.8, 1.5))
    return SimInputs(env, mon, tm, tft_tm, rng.uniform(0.8, 1.2),
                     int(rng.integers(2**31)))


def _rating_path(inp: SimInputs):
    result = design.optimal_design(inp.env, inp.mon, inp.tm)
    report = sim.simulate(result.design(),
                          sim.BehaviorProfile.compliant(inp.tm.n),
                          inp.env, inp.mon, inp.tm, LONG_HORIZON, inp.path_seed)
    return result, report


def _trigger_path(inp: SimInputs):
    result = design.optimal_design(inp.env, inp.mon, inp.tm)
    return sim.simulate(result.design(),
                        sim.BehaviorProfile.uniform(inp.tm.n, "grim-trigger"),
                        inp.env, inp.mon, inp.tm, LONG_HORIZON, inp.path_seed)


def _tft_path(inp: SimInputs):
    n = inp.tft_tm.n
    plan = mutualsec.RatingDesign(inp.tft_period, P_HIGH, P_LOW,
                                  mutualsec.Subset.full(n))
    return sim.simulate(plan, sim.BehaviorProfile.uniform(n, "tit-for-tat"),
                        inp.env, inp.mon, inp.tft_tm, TFT_HORIZON, inp.path_seed)


def _deviation(inp: SimInputs):
    plan = design.optimal_design(inp.env, inp.mon, inp.tm).design()
    return sim.deviation_gain(plan, inp.env, inp.mon, inp.tm, 0,
                              DEVIATION_HORIZON,
                              range(inp.path_seed, inp.path_seed + DEVIATION_SEEDS))


def _comparison(inp: SimInputs):
    return sim.run_strategy_comparison(
        "rating", inp.env, inp.mon, inp.tm, inp.tft_period, COMPARISON_HORIZON,
        range(inp.path_seed, inp.path_seed + COMPARISON_SEEDS), COMPARISON_BETAS)


def simulate_ops(inp: SimInputs) -> list[Op]:
    ops = [
        Op("simulate:rating", lambda: _rating_path(inp), array_bound=True),
        Op("simulate:trigger", lambda: _trigger_path(inp), array_bound=True),
        Op("simulate:tft", lambda: _tft_path(inp), array_bound=True),
        Op("deviation_gain", lambda: _deviation(inp), array_bound=True),
        Op("run_strategy_comparison", lambda: _comparison(inp), array_bound=True),
    ]
    for name in SIM_CONFIGS:
        ops.append(Op(f"cli.simulate:{name}",
                      lambda name=name: call_cli(["simulate", "--config", _config(name)]),
                      array_bound=True))
    return ops


WORKLOADS = {
    "design_sweep": (design_sweep_inputs, design_sweep_ops),
    "subset_search": (subset_search_inputs, subset_search_ops),
    "simulate": (simulate_inputs, simulate_ops),
}


def build(workload: str, seed: int):
    make_inputs, make_ops = WORKLOADS[workload]
    inputs = make_inputs(seed)
    return inputs, make_ops(inputs)


# ---- output checks --------------------------------------------------------------


class Checks:
    """Counts output checks; failures keep a short reason for stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _check_cli(checks: Checks, name: str, out: CliOutput) -> object:
    checks.expect(out.code == 0, f"{name}: exit code {out.code}")
    try:
        if out.command == "sweep":
            return list(csv.DictReader(io.StringIO(out.text)))
        return json.loads(out.text)
    except (ValueError, csv.Error) as e:
        checks.expect(False, f"{name}: output does not parse: {e}")
        return None


def _check_design_sweep(checks: Checks, points, outputs: dict) -> None:
    results = [r for name, out in outputs.items()
               if name.startswith("grid[") for r in out]
    checks.expect(len(results) == len(points), "grid: result count")
    for p, r in zip(points, results):
        if p.mon.kind != "rational" or not r.feasible:
            continue
        interval = design.feasible_period_interval(p.env, p.mon, p.nu_crit)
        exact = min(max(1.0 / p.env.beta, interval.lo), interval.hi)
        checks.expect(abs(r.t_star - exact) <= 1e-6 * exact,
                      f"grid: rational T* {r.t_star} vs exact {exact}")
    for name, out in outputs.items():
        if name.startswith("cli."):
            rows = _check_cli(checks, name, out)
            checks.expect(bool(rows), f"{name}: no rows")


def _check_subset_search(checks: Checks, inp: SubsetInputs, outputs: dict) -> None:
    for b in inp.brute:
        n = b.tm.n
        bf = outputs[f"brute_force_optimal[n={n}]"]
        checks.expect(bf.evaluations == 1 << n, f"brute force n={n}: evaluations")
        if design.validate_assumptions(b.env, b.mon, b.tm).all_ok:
            deletion = outputs[f"iterative_deletion[n={n}]"]
            checks.expect(bf.subset == deletion.subset,
                          f"n={n}: brute force {bf.subset.members} != "
                          f"deletion {deletion.subset.members}")
    ok, witness = outputs[f"has_mct[n={inp.mct.n}]"]
    if not ok:
        full = network.critical_traffic(inp.mct, mutualsec.Subset.full(inp.mct.n))
        checks.expect(network.critical_traffic(inp.mct, witness) > full,
                      "has_mct: witness does not beat the full set")
    for name, out in outputs.items():
        if name.startswith("cli."):
            payload = _check_cli(checks, name, out)
            if name.startswith("cli.mct:") and payload is not None:
                checks.expect(payload["mct"] == name.endswith("_true"),
                              f"{name}: mct is {payload['mct']}")


def _mc_tolerance(result, report, inp: SimInputs) -> float:
    """Six standard errors of the compliant rating path's average cost, plus
    the bias of its fixed first-period rating."""
    eps = float(inp.mon.epsilon(result.t_star))
    spread = (result.p0_star - result.p1_star) * inp.tm.rates.sum(axis=0)
    var = float((spread ** 2).sum()) * eps * (1 - eps) / report.horizon
    return 6.0 * math.sqrt(var) + float(spread.sum()) * eps / report.horizon


def _check_simulate(checks: Checks, inp: SimInputs, outputs: dict) -> None:
    result, report = outputs["simulate:rating"]
    gap = abs(report.avg_cost - result.j_star)
    checks.expect(gap <= _mc_tolerance(result, report, inp),
                  f"rating path: avg_cost {report.avg_cost} vs j* {result.j_star}")
    for name, out in outputs.items():
        if name.startswith("cli."):
            _check_cli(checks, name, out)


CHECKERS = {
    "design_sweep": _check_design_sweep,
    "subset_search": _check_subset_search,
    "simulate": _check_simulate,
}


def avg_costs(outputs: dict) -> dict:
    """avg_cost of every simulator path, for the same-seed identity check."""
    out = {}
    for name, value in outputs.items():
        if name.startswith("simulate:"):
            report = value[1] if isinstance(value, tuple) else value
            out[name] = report.avg_cost
    return out


def digest(outputs: dict) -> str:
    """Hash of a pass's outputs, to check that passes agree."""
    h = hashlib.sha256()
    for name, value in outputs.items():
        text = (f"{value.code}:{value.text}" if isinstance(value, CliOutput)
                else repr(value))
        h.update(name.encode())
        h.update(text.encode())
    return h.hexdigest()
