"""Command-line front end.

Every command reads a single JSON config file; a few flags override the
file (``--seed``, ``--horizon``, ``--out``, ``--format``, and repeated
``--set dotted.key=value`` for anything else).  AS indices are 1-based in
configs and in all output, matching how interconnection diagrams are
usually labeled; the library itself is 0-based.

Exit codes: 0 success, 1 config error, 2 no feasible design, 3 internal
error.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .design import (
    DesignResult,
    Environment,
    MonitoringModel,
    RatingDesign,
    first_best,
    optimal_design,
    validate_assumptions,
)
from .network import (
    Subset,
    TrafficMatrix,
    critical_traffic,
    has_mct,
    load_edge_csv,
    load_matrix_csv,
)
from .sim import (
    Behavior,
    BehaviorProfile,
    run_benchmark,
    run_strategy_comparison,
    simulate,
)
from .strategy import (
    brute_force_optimal,
    core_periphery_threshold,
    iterative_deletion,
)

__all__ = ["main"]


class ConfigError(ValueError):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON: {e}")
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a JSON object")
    return cfg


def _apply_overrides(cfg: dict, sets: list[str]) -> None:
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set: expected key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set: {key}: {p} is not an object")
        node[parts[-1]] = value


def _require(cfg: dict, section: str) -> dict:
    if section not in cfg:
        raise ConfigError(f"{section}: section missing")
    if not isinstance(cfg[section], dict):
        raise ConfigError(f"{section}: must be a JSON object")
    return cfg[section]


def _int_field(name: str, value) -> int:
    """An integer config value; anything non-numeric, non-finite or
    fractional is a config error naming the field."""
    if isinstance(value, int):
        return int(value)
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    if not number.is_integer():
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return int(number)


def _seeds_field(value) -> int | list[int]:
    """simulate.seeds: a positive count (seeds 0, 1, ...) or a nonempty
    list of non-negative integer seeds."""
    name = "simulate.seeds"
    if not isinstance(value, list):
        count = _int_field(name, value)
        if count < 1:
            raise ConfigError(f"{name}: expected a positive count, "
                              f"got {value!r}")
        return count
    seeds = [_int_field(name, v) for v in value]
    if not seeds or min(seeds) < 0:
        raise ConfigError(f"{name}: expected a nonempty list of non-negative "
                          f"integers, got {value!r}")
    return seeds


def _build_environment(cfg: dict) -> Environment:
    sec = _require(cfg, "environment")
    try:
        return Environment(
            p_high=float(sec["p_high"]),
            p_low=float(sec["p_low"]),
            c=float(sec["c"]),
            beta=float(sec["beta"]),
        )
    except KeyError as e:
        raise ConfigError(f"environment.{e.args[0]}: missing")
    except (TypeError, ValueError) as e:
        raise ConfigError(f"environment: {e}")


def _build_monitoring(cfg: dict) -> MonitoringModel:
    sec = _require(cfg, "monitoring")
    kind = sec.get("kind", "rational")
    try:
        if kind == "rational":
            if "w0" not in sec:
                raise ConfigError("monitoring.w0: missing")
            return MonitoringModel.rational(float(sec["w0"]))
        if kind == "tabulated":
            if "path" in sec:
                pts = np.loadtxt(sec["path"], delimiter=",", ndmin=2)
                points = [(float(t), float(e)) for t, e in pts]
            elif "points" in sec:
                points = [(float(t), float(e)) for t, e in sec["points"]]
            else:
                raise ConfigError("monitoring: tabulated needs points or path")
            return MonitoringModel.tabulated(points)
    except ConfigError:
        raise
    except (TypeError, ValueError, OSError) as e:
        raise ConfigError(f"monitoring: {e}")
    raise ConfigError(f"monitoring.kind: unknown kind {kind!r}")


def _build_network(cfg: dict) -> TrafficMatrix:
    sec = _require(cfg, "network")
    kind = sec.get("kind")
    if kind is None:
        raise ConfigError("network.kind: missing")
    try:
        if kind == "complete":
            return TrafficMatrix.complete(int(sec["n"]), float(sec["rate"]))
        if kind == "regular":
            # Uniform-degree shorthand: complete graph on degree + 1 nodes.
            return TrafficMatrix.complete(int(sec["degree"]) + 1,
                                          float(sec["rate"]))
        if kind == "ring_lattice":
            return TrafficMatrix.ring_lattice(int(sec["n"]),
                                              int(sec["degree"]),
                                              float(sec["rate"]))
        if kind == "line":
            return TrafficMatrix.line(int(sec["n"]), float(sec["rate"]))
        if kind == "star":
            return TrafficMatrix.star(int(sec["n"]), float(sec["rate"]))
        if kind == "core_periphery":
            return TrafficMatrix.restricted_core_periphery(
                int(sec["cores"]), int(sec["periphery_per_core"]),
                float(sec["rate"]))
        if kind == "edges":
            if "path" in sec:
                return load_edge_csv(sec["path"], n=sec.get("n"))
            edges = []
            for item in sec["edges"]:
                i, j, rate = item[0], item[1], item[2]
                if i < 1 or j < 1:
                    raise ConfigError("network.edges: indices are 1-based")
                edges.append((int(i) - 1, int(j) - 1, float(rate)))
            n = int(sec["n"])
            return TrafficMatrix.from_edges(n, edges,
                                            directed=bool(sec.get("directed",
                                                                  False)))
        if kind == "matrix":
            if "path" in sec:
                return load_matrix_csv(sec["path"])
            return TrafficMatrix.from_matrix(np.asarray(sec["rates"],
                                                        dtype=float))
    except ConfigError:
        raise
    except KeyError as e:
        raise ConfigError(f"network.{e.args[0]}: missing")
    except (TypeError, ValueError, OSError) as e:
        raise ConfigError(f"network: {e}")
    raise ConfigError(f"network.kind: unknown kind {kind!r}")


def _build_subset(cfg: dict, n: int) -> Subset | None:
    if "subset" not in cfg:
        return None
    raw = cfg["subset"]
    if not isinstance(raw, list) or not raw:
        raise ConfigError("subset: must be a nonempty list of 1-based indices")
    members = []
    for v in raw:
        if not isinstance(v, int) or v < 1 or v > n:
            raise ConfigError(f"subset: index {v!r} out of range 1..{n}")
        members.append(v - 1)
    return Subset.of(members, n)


def _ones(indices) -> list[int]:
    return [int(i) + 1 for i in indices]


def _design_dict(result: DesignResult) -> dict:
    return {
        "feasible": result.feasible,
        "subset": _ones(result.subset.members),
        "t_star": result.t_star,
        "p0_star": result.p0_star,
        "p1_star": result.p1_star,
        "g_star": result.g_star,
        "j_star": result.j_star,
        "binding_as": (None if result.binding_as is None
                       else result.binding_as + 1),
        "diagnostic": result.diagnostic,
    }


def _emit(payload: str, out: str | None) -> None:
    if out is None or out == "-":
        try:
            sys.stdout.write(payload)
            if not payload.endswith("\n"):
                sys.stdout.write("\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader went away (e.g. `| head`).  Point stdout at devnull
            # so the flush at interpreter exit does not fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        with open(out, "w") as fh:
            fh.write(payload)
            if not payload.endswith("\n"):
                fh.write("\n")


def _json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False)


def _csv_rows(header: list[str], rows: list[list]) -> str:
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return str(int(v))
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _require_json(args) -> None:
    if args.format != "json":
        raise ConfigError("format: only json is supported for this command")


def cmd_design(cfg: dict, args) -> int:
    _require_json(args)
    env = _build_environment(cfg)
    mon = _build_monitoring(cfg)
    tm = _build_network(cfg)
    subset = _build_subset(cfg, tm.n) or Subset.full(tm.n)
    result = optimal_design(env, mon, tm, subset)
    report = validate_assumptions(env, mon, tm, subset)
    payload = _design_dict(result)
    payload["j_first_best"] = first_best(env, tm)
    payload["assumptions"] = report.to_dict()
    _emit(_json(payload), args.out)
    return 0 if result.feasible else 2


def cmd_mct(cfg: dict, args) -> int:
    _require_json(args)
    tm = _build_network(cfg)
    limit = _int_field("mct_limit", cfg.get("mct_limit", 20))
    try:
        ok, witness = has_mct(tm, limit=limit)
    except ValueError as e:
        raise ConfigError(f"mct_limit: {e}")
    payload = {
        "mct": ok,
        "witness": None if witness is None else _ones(witness.members),
        "n": tm.n,
        "critical_traffic_full": critical_traffic(tm, Subset.full(tm.n)),
    }
    _emit(_json(payload), args.out)
    return 0


def cmd_id(cfg: dict, args) -> int:
    _require_json(args)
    env = _build_environment(cfg)
    mon = _build_monitoring(cfg)
    tm = _build_network(cfg)
    result = iterative_deletion(env, mon, tm)
    trace = result.trace
    iterations = []
    for it in trace.iterations:
        row = {
            "subset": _ones(it.subset.members),
            "critical_traffic": it.critical_traffic,
            "critical_ases": _ones(it.critical_ases),
            "evaluated": it.evaluated,
            "skip_reason": it.skip_reason,
            "design": None if it.design is None else _design_dict(it.design),
        }
        iterations.append(row)
    payload = {
        "chosen_iteration": trace.chosen,
        "subset": _ones(result.subset.members),
        "evaluations": result.evaluations,
        "design": _design_dict(result.design),
        "iterations": iterations,
    }
    _emit(_json(payload), args.out)
    return 0 if trace.chosen is not None else 2


def cmd_bruteforce(cfg: dict, args) -> int:
    _require_json(args)
    env = _build_environment(cfg)
    mon = _build_monitoring(cfg)
    tm = _build_network(cfg)
    cap = _int_field("bruteforce_cap", cfg.get("bruteforce_cap", 16))
    try:
        result = brute_force_optimal(env, mon, tm, cap=cap)
    except ValueError as e:
        raise ConfigError(f"bruteforce_cap: {e}")
    payload = {
        "subset": _ones(result.subset.members),
        "evaluations": result.evaluations,
        "design": _design_dict(result.design),
    }
    _emit(_json(payload), args.out)
    return 0


def cmd_threshold(cfg: dict, args) -> int:
    env = _build_environment(cfg)
    mon = _build_monitoring(cfg)
    sec = _require(cfg, "threshold")
    try:
        result = core_periphery_threshold(
            env, mon,
            periphery_per_core=int(sec["periphery_per_core"]),
            rate=float(sec["rate"]),
            k_max=int(sec["k_max"]),
        )
    except KeyError as e:
        raise ConfigError(f"threshold.{e.args[0]}: missing")
    except (TypeError, ValueError) as e:
        raise ConfigError(f"threshold: {e}")
    rows = [
        {
            "cores": r.cores,
            "n": r.n,
            "j_full": r.j_full,
            "j_core": r.j_core,
            "exact_diff": r.exact_diff,
            "closed_form_diff": r.closed_form_diff,
        }
        for r in result.rows
    ]
    if args.format == "csv":
        header = ["cores", "n", "j_full", "j_core", "exact_diff",
                  "closed_form_diff"]
        table = [[row[h] for h in header] for row in rows]
        _emit(_csv_rows(header, table), args.out)
    else:
        payload = {
            "k_star": result.k_star,
            "n_star": result.n_star,
            "note": result.note,
            "rows": rows,
        }
        _emit(_json(payload), args.out)
    return 0


def _parse_profile(spec, n: int) -> BehaviorProfile:
    if isinstance(spec, str):
        return BehaviorProfile.uniform(n, spec)
    if isinstance(spec, list):
        if len(spec) != n:
            raise ConfigError(
                f"simulate.profile: expected {n} entries, got {len(spec)}")
        behaviors = []
        for item in spec:
            if isinstance(item, str):
                behaviors.append(Behavior(item))
            elif isinstance(item, dict):
                behaviors.append(Behavior(item["kind"],
                                          item.get("at_period")))
            else:
                raise ConfigError("simulate.profile: entries must be "
                                  "strings or objects")
        return BehaviorProfile(tuple(behaviors))
    raise ConfigError("simulate.profile: must be a string or a list")


def _parse_design(cfg: dict, sec: dict, env, mon, tm) -> RatingDesign:
    spec = sec.get("design", "optimal")
    subset = _build_subset(cfg, tm.n) or Subset.full(tm.n)
    if spec == "optimal":
        result = optimal_design(env, mon, tm, subset)
        if not result.feasible:
            raise ConfigError(
                "simulate.design: no feasible design for this instance; "
                f"{result.diagnostic}")
        return result.design()
    if isinstance(spec, dict):
        try:
            members = spec.get("subset")
            sub = (subset if members is None
                   else _build_subset({"subset": members}, tm.n))
            return RatingDesign(float(spec["T"]), float(spec["p0"]),
                                float(spec["p1"]), sub)
        except KeyError as e:
            raise ConfigError(f"simulate.design.{e.args[0]}: missing")
        except ValueError as e:
            raise ConfigError(f"simulate.design: {e}")
    raise ConfigError("simulate.design: must be \"optimal\" or an object "
                      "with T, p0, p1")


def cmd_simulate(cfg: dict, args) -> int:
    env = _build_environment(cfg)
    mon = _build_monitoring(cfg)
    tm = _build_network(cfg)
    sec = _require(cfg, "simulate")
    mode = sec.get("mode", "profile")

    def int_setting(key: str, override, default: int) -> int:
        if override is not None:
            return override
        name = f"simulate.{key}" if key in sec else key
        return _int_field(name, sec.get(key, cfg.get(key, default)))

    horizon = int_setting("horizon", args.horizon, 1000)
    seed = int_setting("seed", args.seed, 0)
    want_ts = bool(sec.get("time_series", False)) or args.time_series is not None

    if mode == "profile":
        _require_json(args)
        design = _parse_design(cfg, sec, env, mon, tm)
        profile = _parse_profile(sec.get("profile", "compliant"), tm.n)
        try:
            report = simulate(design, profile, env, mon, tm, horizon, seed,
                              time_series=want_ts)
        except ValueError as e:
            raise ConfigError(f"simulate: {e}")
    elif mode == "benchmark":
        _require_json(args)
        kind = sec.get("benchmark")
        if kind is None:
            raise ConfigError("simulate.benchmark: missing")
        fixed = sec.get("fixed")
        if fixed is not None:
            fixed = tuple(float(x) for x in fixed)
        try:
            report = run_benchmark(kind, env, mon, tm, horizon, seed,
                                   fixed, time_series=want_ts)
        except ValueError as e:
            raise ConfigError(f"simulate: {e}")
    elif mode == "comparison":
        seeds = _seeds_field(sec.get("seeds", 5))
        try:
            rows = run_strategy_comparison(
                sec["kind"], env, mon, tm,
                T=float(sec.get("T", 1.0)),
                horizon=horizon,
                seeds=seeds,
                beta_grid=[float(b) for b in sec["beta_grid"]],
            )
        except KeyError as e:
            raise ConfigError(f"simulate.{e.args[0]}: missing")
        except ValueError as e:
            raise ConfigError(f"simulate: {e}")
        if args.format == "csv":
            header = ["beta", "kind", "avg_cost", "avg_cost_std",
                      "punishment_fraction", "seeds"]
            table = [[r.beta, r.kind, r.avg_cost, r.avg_cost_std,
                      r.punishment_fraction, r.seeds] for r in rows]
            _emit(_csv_rows(header, table), args.out)
        else:
            _emit(_json([r.__dict__ for r in rows]), args.out)
        return 0
    else:
        raise ConfigError(f"simulate.mode: unknown mode {mode!r}")

    _emit(report.to_json(indent=2, allow_nan=False), args.out)
    if args.time_series is not None:
        report.write_time_series_csv(args.time_series)
    return 0


def _sweep_point(cfg: dict, names: list[str], values: tuple) -> dict:
    point = copy.deepcopy(cfg)
    for name, value in zip(names, values):
        if name == "w0":
            point.setdefault("monitoring", {})["w0"] = value
        elif name == "beta":
            point.setdefault("environment", {})["beta"] = value
        elif name == "d":
            net = point.setdefault("network", {})
            if net.get("kind") == "ring_lattice":
                net["degree"] = value
            else:
                net["kind"] = "regular"
                net["degree"] = value
                net.setdefault("rate", 1.0)
                net.pop("n", None)
        elif name == "n":
            point.setdefault("network", {})["n"] = value
        else:
            raise ConfigError(f"sweep.parameters: unknown parameter {name!r}")
    env = _build_environment(point)
    mon = _build_monitoring(point)
    tm = _build_network(point)
    subset = _build_subset(point, tm.n) or Subset.full(tm.n)
    result = optimal_design(env, mon, tm, subset)
    jfb = first_best(env, tm)
    row = {name: value for name, value in zip(names, values)}
    row.update({
        "n": tm.n,
        "critical_traffic": critical_traffic(tm, subset),
        "feasible": result.feasible,
        "t_star": result.t_star,
        "g_star": result.g_star,
        "p0_star": result.p0_star,
        "p1_star": result.p1_star,
        "j_star": result.j_star,
        "j_first_best": jfb,
        "normalized_cost": (None if result.j_star is None
                            else result.j_star / jfb),
    })
    return row


def cmd_sweep(cfg: dict, args) -> int:
    sec = _require(cfg, "sweep")
    params = sec.get("parameters")
    if not isinstance(params, dict) or not params:
        raise ConfigError("sweep.parameters: must map parameter names to "
                          "value lists")
    names = list(params.keys())
    grids = []
    for name in names:
        vals = params[name]
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"sweep.parameters.{name}: must be a nonempty "
                              "list")
        grids.append(vals)
    rows = [_sweep_point(cfg, names, v) for v in itertools.product(*grids)]
    columns = names + ["n", "critical_traffic", "feasible", "t_star",
                       "g_star", "p0_star", "p1_star", "j_star",
                       "j_first_best", "normalized_cost"]
    seen = set()
    header = [c for c in columns if not (c in seen or seen.add(c))]
    if args.format == "json":
        _emit(_json(rows), args.out)
    else:
        table = [[row[h] for h in header] for row in rows]
        _emit(_csv_rows(header, table), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mutualsec",
        description="Design and simulate rating-based incentives for "
                    "mutual security investment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "design": "compute the cost-minimizing incentive-compatible design",
        "mct": "check whether any proper subset beats the whole collection's "
               "critical traffic",
        "id": "run the deletion search over deployment sets",
        "bruteforce": "exhaustively search deployment sets (small n)",
        "threshold": "scan core-periphery sizes for the full-deployment "
                     "break-even point",
        "simulate": "run the seeded repeated-game simulator",
        "sweep": "evaluate the optimal design over a parameter grid",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--format", choices=("json", "csv"),
                       default="csv" if name == "sweep" else "json",
                       help="output format")
        p.add_argument("--set", action="append", default=[], dest="sets",
                       metavar="KEY=VALUE",
                       help="override a config field (dotted path, JSON "
                            "value)")
        if name == "simulate":
            p.add_argument("--horizon", type=int, default=None,
                           help="override the config horizon")
            p.add_argument("--time-series", default=None, metavar="PATH",
                           help="also write a per-period CSV")
        else:
            p.set_defaults(horizon=None, time_series=None)
    return parser


_COMMANDS = {
    "design": cmd_design,
    "mct": cmd_mct,
    "id": cmd_id,
    "bruteforce": cmd_bruteforce,
    "threshold": cmd_threshold,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
        _apply_overrides(cfg, args.sets)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
