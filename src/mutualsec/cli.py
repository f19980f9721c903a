"""Command-line front end.

Every command reads a single JSON config file; a few flags override the
file (``--out``, ``--format``, ``--seed`` and ``--horizon`` for
``simulate``, and repeated ``--set dotted.key=value`` for anything else).
AS indices are 1-based in configs and in all output, matching how
interconnection diagrams are usually labeled; the library itself is
0-based.

Exit codes: 0 success, 1 config or usage error, 2 no feasible design, 3
internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import fields
from functools import cache, partial

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
)
from .sim import (
    Behavior,
    BehaviorProfile,
    ComparisonRow,
    run_benchmark,
    run_strategy_comparison,
    simulate,
)
from .strategy import (
    ThresholdRow,
    brute_force_optimal,
    core_periphery_threshold,
    iterative_deletion,
)

__all__ = ["main"]


class ConfigError(ValueError):
    pass


_ABSENT = object()


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config: file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: invalid JSON: {e}")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"config: {e}")
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


def _field(sec: dict, section: str, key: str, read, default=_ABSENT):
    """read(f"{section}.{key}", sec[key]).  An absent key gives `default`,
    or is a config error when there is none."""
    if key not in sec:
        if default is _ABSENT:
            raise ConfigError(f"{section}.{key}: missing")
        return default
    return read(f"{section}.{key}", sec[key])


@contextlib.contextmanager
def _section(name: str):
    """Report a library ValueError, or a file or CSV error, as a config
    error in section `name`."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, OSError, csv.Error) as e:
        raise ConfigError(f"{name}: {e}")


def _number(value) -> float | None:
    """float(value), or None for a boolean or anything non-numeric."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _int_field(name: str, value) -> int:
    """An integer config value; a boolean, or anything non-numeric,
    non-finite or fractional, is a config error naming the field."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _number(value)
    if number is None or not number.is_integer():
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return int(number)


def _float_field(name: str, value) -> float:
    """A number config value (NaN and inf pass, for the library to
    reject); a boolean, or anything non-numeric, is a config error."""
    number = _number(value)
    if number is None:
        raise ConfigError(f"{name}: expected a number, got {value!r}")
    return number


def _instance_of(kind: type, what: str):
    """A reader for a value that must already be a `kind`."""
    def read(name: str, value):
        if not isinstance(value, kind):
            raise ConfigError(f"{name}: expected {what}, got {value!r}")
        return value
    return read


_bool_field = _instance_of(bool, "true or false")
_str_field = _instance_of(str, "a string")


def _list_of(read):
    """A reader for a JSON list whose items are each read by `read`."""
    def read_list(name: str, value) -> list:
        if not isinstance(value, list):
            raise ConfigError(f"{name}: expected a list, got {value!r}")
        return [read(name, item) for item in value]
    return read_list


def _tuple_of(shape: str, *reads):
    """A reader for a fixed-length JSON list such as [T, eps], item k read
    by reads[k]."""
    def read_tuple(name: str, value) -> tuple:
        if not isinstance(value, list) or len(value) != len(reads):
            raise ConfigError(f"{name}: expected {shape}, got {value!r}")
        return tuple(read(name, item) for read, item in zip(reads, value))
    return read_tuple


_point_field = _tuple_of("[T, eps] pairs", _float_field, _float_field)
_fixed_field = _tuple_of("[T, p0, p1]", _float_field, _float_field,
                         _float_field)


def _edge_field(name: str, value) -> tuple[int, int, float]:
    """An edge [i, j, rate] with 1-based integer indices, made 0-based."""
    i, j, rate = _tuple_of("[i, j, rate] triples", _int_field, _int_field,
                           _float_field)(name, value)
    if i < 1 or j < 1:
        raise ConfigError(f"{name}: indices are 1-based")
    return i - 1, j - 1, rate


def _subset_field(name: str, value, n: int) -> Subset:
    """A nonempty list of 1-based AS indices in 1..n, made 0-based."""
    members = _list_of(_int_field)(name, value)
    if not members or not all(1 <= v <= n for v in members):
        raise ConfigError(f"{name}: expected a nonempty list of 1-based "
                          f"indices in 1..{n}, got {value!r}")
    with _section(name):
        return Subset.of([v - 1 for v in members], n)


def _seeds_field(name: str, value) -> int | list[int]:
    """A positive count (seeds 0, 1, ...) or a nonempty list of
    non-negative integer seeds."""
    if isinstance(value, list):
        seeds = _list_of(_int_field)(name, value)
        valid = bool(seeds) and min(seeds) >= 0
    else:
        seeds = _int_field(name, value)
        valid = seeds >= 1
    if not valid:
        raise ConfigError(f"{name}: expected a positive count or a nonempty "
                          f"list of non-negative integers, got {value!r}")
    return seeds


def _csv_rows(path: str) -> list[list[str]]:
    """The rows of CSV file `path`, cells stripped, blank rows left out."""
    with open(path, newline="") as fh:
        rows = [[cell.strip() for cell in row] for row in csv.reader(fh)]
    return [row for row in rows if any(row)]


def _csv_cell(row: str, column: str, text: str, read, what: str):
    """Cell `text` of an edge CSV row, read by `read`, and finite."""
    with contextlib.suppress(ConfigError):
        value = read(column, text)
        if math.isfinite(value):
            return value
    raise ValueError(f"{row}: column {column} must be {what}, got {text!r}")


def _edge_csv(path: str, n: int | None) -> TrafficMatrix:
    """Edge CSV `path`: rows i,j,rate[,directed], 1-based, made 0-based,
    after an optional header; the size is the largest index, or n."""
    rows = _csv_rows(path)
    if not rows:
        raise ValueError("edge CSV is empty")
    if all(_number(cell) is None for cell in rows[0][:3]):
        rows = rows[1:]  # a header
    edges = []
    for rec in rows:
        row = f"edge CSV row {','.join(rec)!r}"
        if len(rec) < 3:
            raise ValueError(f"{row}: needs at least i,j,rate")
        i = _csv_cell(row, "i", rec[0], _int_field, "a 1-based integer") - 1
        j = _csv_cell(row, "j", rec[1], _int_field, "a 1-based integer") - 1
        rate = _csv_cell(row, "rate", rec[2], _float_field, "a finite number")
        if i < 0 or j < 0:
            raise ValueError(f"{row}: indices are 1-based")
        flag = rec[3].lower() if len(rec) > 3 else ""
        if flag not in ("", "0", "false", "1", "true"):
            raise ValueError(f"{row}: directed flag must be 0, 1, true, "
                             "false or empty")
        edges.append((i, j, rate))
        if flag in ("", "0", "false"):
            edges.append((j, i, rate))
    size = max((max(i, j) + 1 for i, j, _ in edges), default=0)
    if n is not None and n < size:
        raise ValueError(f"edge CSV references AS {size} but n={n}")
    return TrafficMatrix.from_edges(size if n is None else n, edges,
                                    directed=True)


def _build_environment(cfg: dict) -> Environment:
    get = partial(_field, _require(cfg, "environment"), "environment")
    with _section("environment"):
        return Environment(**{key: get(key, _float_field)
                              for key in ("p_high", "p_low", "c", "beta")})


def _build_monitoring(cfg: dict) -> MonitoringModel:
    sec = _require(cfg, "monitoring")
    get = partial(_field, sec, "monitoring")
    kind = sec.get("kind", "rational")
    with _section("monitoring"):
        if kind == "rational":
            return MonitoringModel.rational(get("w0", _float_field))
        if kind == "tabulated":
            if "path" in sec:
                points = _list_of(_point_field)(
                    "monitoring.path", _csv_rows(get("path", _str_field)))
            elif "points" in sec:
                points = get("points", _list_of(_point_field))
            else:
                raise ConfigError("monitoring: tabulated needs points or path")
            return MonitoringModel.tabulated(points)
    raise ConfigError(f"monitoring.kind: unknown kind {kind!r}")


def _build_network(cfg: dict) -> TrafficMatrix:
    sec = _require(cfg, "network")
    get = partial(_field, sec, "network")
    kind = get("kind", _str_field)
    count = lambda key: get(key, _int_field)
    rate = lambda: get("rate", _float_field)
    with _section("network"):
        if kind == "complete":
            return TrafficMatrix.complete(count("n"), rate())
        if kind == "regular":
            # Uniform-degree shorthand: complete graph on degree + 1 nodes.
            return TrafficMatrix.complete(count("degree") + 1, rate())
        if kind == "ring_lattice":
            return TrafficMatrix.ring_lattice(count("n"), count("degree"),
                                              rate())
        if kind == "line":
            return TrafficMatrix.line(count("n"), rate())
        if kind == "star":
            return TrafficMatrix.star(count("n"), rate())
        if kind == "core_periphery":
            return TrafficMatrix.restricted_core_periphery(
                count("cores"), count("periphery_per_core"), rate())
        if kind == "edges":
            if "path" in sec:
                return _edge_csv(get("path", _str_field),
                                 get("n", _int_field, None))
            edges = get("edges", _list_of(_edge_field))
            return TrafficMatrix.from_edges(
                count("n"), edges, directed=get("directed", _bool_field, False))
        if kind == "matrix":
            rates = _list_of(_list_of(_float_field))
            if "path" in sec:
                return TrafficMatrix(rates(
                    "network.path", _csv_rows(get("path", _str_field))))
            return TrafficMatrix(get("rates", rates))
    raise ConfigError(f"network.kind: unknown kind {kind!r}")


def _build_instance(cfg: dict
                    ) -> tuple[Environment, MonitoringModel, TrafficMatrix]:
    """The environment, monitor and network, read in that order."""
    return _build_environment(cfg), _build_monitoring(cfg), _build_network(cfg)


def _build_subset(cfg: dict, n: int) -> Subset:
    """The top-level `subset`, or everyone."""
    if "subset" not in cfg:
        return Subset.full(n)
    return _subset_field("subset", cfg["subset"], n)


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
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader went away (e.g. `| head`).  Point stdout at devnull
            # so the flush at interpreter exit does not fail again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        _write(out, payload, "--out")


def _write(path: str, text: str, section: str) -> None:
    with _section(section), open(path, "w") as fh:
        fh.write(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _csv(header: list[str], rows) -> str:
    """CSV text: the header, then each row's cells in header order."""

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return str(int(v))
        return str(v)  # a float's shortest round-trip form, as repr

    lines = [",".join(header)]
    lines.extend(",".join(map(cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def _table(args, header: list[str], rows: list[dict], payload) -> str:
    """`rows` as CSV under `header`, or `payload` as JSON, as --format
    asks."""
    if args.format == "json":
        return _json(payload)
    return _csv(header, ([row[h] for h in header] for row in rows))


def _require_json(args) -> None:
    if args.format != "json":
        raise ConfigError("format: only json is supported for this command")


def cmd_design(cfg: dict, args) -> tuple[str, int]:
    env, mon, tm = _build_instance(cfg)
    subset = _build_subset(cfg, tm.n)
    result = optimal_design(env, mon, tm, subset)
    report = validate_assumptions(env, mon, tm, subset)
    payload = _design_dict(result)
    payload["j_first_best"] = first_best(env, tm)
    payload["assumptions"] = assumptions = {
        c.name: {"passed": c.passed, "detail": c.detail,
                 **({} if c.passed else {"ases": _ones(c.ases)})}
        for c in report.checks}
    if report.subset_note:
        assumptions["subset_note"] = report.subset_note
    return _json(payload), 0 if result.feasible else 2


def cmd_mct(cfg: dict, args) -> tuple[str, int]:
    tm = _build_network(cfg)
    ok, witness = has_mct(tm)
    payload = {
        "mct": ok,
        "witness": None if witness is None else _ones(witness.members),
        "n": tm.n,
        "critical_traffic_full": critical_traffic(tm, Subset.full(tm.n)),
    }
    return _json(payload), 0


def cmd_id(cfg: dict, args) -> tuple[str, int]:
    env, mon, tm = _build_instance(cfg)
    result = iterative_deletion(env, mon, tm)
    trace = result.trace
    iterations = [{
        "subset": _ones(it.subset.members),
        "critical_traffic": it.critical_traffic,
        "critical_ases": _ones(it.critical_ases),
        "evaluated": it.evaluated,
        "skip_reason": it.skip_reason,
        "design": None if it.design is None else _design_dict(it.design),
    } for it in trace.iterations]
    payload = {
        "chosen_iteration": trace.chosen,
        "subset": _ones(result.subset.members),
        "evaluations": result.evaluations,
        "design": _design_dict(result.design),
        "iterations": iterations,
    }
    return _json(payload), 0 if trace.chosen is not None else 2


def cmd_bruteforce(cfg: dict, args) -> tuple[str, int]:
    env, mon, tm = _build_instance(cfg)
    cap = _int_field("bruteforce_cap", cfg.get("bruteforce_cap", 16))
    with _section("bruteforce_cap"):
        result = brute_force_optimal(env, mon, tm, cap=cap)
    payload = {
        "subset": _ones(result.subset.members),
        "evaluations": result.evaluations,
        "design": _design_dict(result.design),
    }
    return _json(payload), 0


def cmd_threshold(cfg: dict, args) -> tuple[str, int]:
    env, mon = _build_environment(cfg), _build_monitoring(cfg)
    get = partial(_field, _require(cfg, "threshold"), "threshold")
    with _section("threshold"):
        result = core_periphery_threshold(
            env, mon,
            periphery_per_core=get("periphery_per_core", _int_field),
            rate=get("rate", _float_field),
            k_max=get("k_max", _int_field),
        )
    rows = [r.__dict__ for r in result.rows]
    payload = {"k_star": result.k_star, "n_star": result.n_star,
               "note": result.note, "rows": rows}
    return _table(args, [f.name for f in fields(ThresholdRow)], rows,
                  payload), 0


def _parse_profile(spec, n: int) -> BehaviorProfile:
    with _section("simulate.profile"):
        if isinstance(spec, str):
            return BehaviorProfile.uniform(n, spec)
        if not isinstance(spec, list):
            raise ValueError("must be a string or a list")
        if len(spec) != n:
            raise ValueError(f"expected {n} entries, got {len(spec)}")
        behaviors = []
        for item in spec:
            if isinstance(item, str):
                behaviors.append(Behavior(item))
            elif isinstance(item, dict):
                if "kind" not in item:
                    raise ValueError("entry needs 'kind'")
                get = partial(_field, item, "simulate.profile")
                behaviors.append(Behavior(item["kind"],
                                          get("at_period", _int_field, None)))
            else:
                raise ValueError("entries must be strings or objects")
        return BehaviorProfile(tuple(behaviors))


def _parse_design(cfg: dict, sec: dict, env, mon, tm) -> RatingDesign:
    spec = sec.get("design", "optimal")
    subset = _build_subset(cfg, tm.n)
    if spec == "optimal":
        result = optimal_design(env, mon, tm, subset)
        if not result.feasible:
            raise ConfigError(
                "simulate.design: no feasible design for this instance; "
                f"{result.diagnostic}")
        return result.design()
    if isinstance(spec, dict):
        get = partial(_field, spec, "simulate.design")
        sub = get("subset", partial(_subset_field, n=tm.n), subset)
        with _section("simulate.design"):
            return RatingDesign(get("T", _float_field), get("p0", _float_field),
                                get("p1", _float_field), sub)
    raise ConfigError("simulate.design: must be \"optimal\" or an object "
                      "with T, p0, p1")


def cmd_simulate(cfg: dict, args) -> tuple[str, int]:
    env, mon, tm = _build_instance(cfg)
    sec = _require(cfg, "simulate")
    get = partial(_field, sec, "simulate")
    mode = sec.get("mode", "profile")

    def int_setting(key: str, override, default: int, least: int) -> int:
        if override is not None:
            name, value = f"--{key}", override
        else:
            name = f"simulate.{key}" if key in sec else key
            value = _int_field(name, sec.get(key, cfg.get(key, default)))
        if value < least:
            raise ConfigError(f"{name}: must be at least {least}, got {value}")
        return value

    horizon = int_setting("horizon", args.horizon, 1000, 1)
    seed = int_setting("seed", args.seed, 0, 0)
    ts_field = get("time_series", _bool_field, False)
    want_ts = ts_field or args.time_series is not None
    if mode in ("profile", "benchmark"):
        _require_json(args)

    if mode == "profile":
        design = _parse_design(cfg, sec, env, mon, tm)
        profile = _parse_profile(sec.get("profile", "compliant"), tm.n)
        with _section("simulate"):
            report = simulate(design, profile, env, mon, tm, horizon, seed,
                              time_series=want_ts)
    elif mode == "benchmark":
        kind = get("benchmark", _str_field)
        fixed = get("fixed", _fixed_field, None)
        with _section("simulate"):
            report = run_benchmark(kind, env, mon, tm, horizon, seed,
                                   fixed, time_series=want_ts)
    elif mode == "comparison":
        # A comparison runs simulate.seeds and reports no single path.
        for name, given in (("--seed", args.seed is not None),
                            ("simulate.seed", "seed" in sec),
                            ("seed", "seed" in cfg),
                            ("--time-series", args.time_series is not None),
                            ("simulate.time_series", ts_field)):
            if given:
                raise ConfigError(f"{name}: not used in comparison mode")
        seeds = get("seeds", _seeds_field, 5)
        with _section("simulate"):
            rows = run_strategy_comparison(
                get("kind", _str_field), env, mon, tm,
                T=get("T", _float_field, 1.0),
                horizon=horizon,
                seeds=seeds,
                beta_grid=get("beta_grid", _list_of(_float_field)),
            )
        rows = [r.__dict__ for r in rows]
        return _table(args, [f.name for f in fields(ComparisonRow)], rows,
                      rows), 0
    else:
        raise ConfigError(f"simulate.mode: unknown mode {mode!r}")

    d = report.to_dict()
    # AS indices 1-based, in a copy: to_dict returns the report's own meta
    meta = d["meta"] = copy.deepcopy(d["meta"])
    for sec, key in ((meta, "deploying"), (meta["design"], "subset")):
        if key in sec:
            sec[key] = _ones(sec[key])
    # the time series first, so that a failed write leaves no report behind
    if args.time_series is not None:
        ts = d["time_series"]
        _write(args.time_series, _csv(list(ts), zip(*ts.values())),
               "--time-series")
    return _json(d), 0


_SWEEP_SECTIONS = {"w0": "monitoring", "beta": "environment",
                   "d": "network", "n": "network"}


def _unread_sweep_kind(cfg: dict, names: list[str], name: str) -> str | None:
    """The monitor or network kind that never reads swept parameter
    `name` (as `d` leaves it, when `d` is swept too), or None."""
    sec = cfg.get(_SWEEP_SECTIONS.get(name))
    kind = sec.get("kind") if isinstance(sec, dict) else None
    if name == "w0" and kind == "tabulated":
        return "a tabulated monitor"
    if name == "n":
        if "d" in names and kind != "ring_lattice":
            kind = "regular"
        if kind in ("regular", "core_periphery", "matrix"):
            return f"a {kind} network"
    return None


def _once(built: dict, key: tuple, make):
    """built[key], made by make() on its first use; a key that holds a list
    or object value (which the build rejects) is not kept."""
    try:
        return built[key]
    except KeyError:
        part = built[key] = make()
        return part
    except TypeError:
        return make()


def _sweep_point(cfg: dict, names: list[str], values: tuple,
                 built: dict) -> dict:
    """The sweep row at `values` of parameters `names`.  The point's config
    shares cfg's sections but copies those a parameter writes, so cfg is
    left as it was.  Each section is built in the order _build_instance
    reads them, once per distinct (type, value) of the parameters that
    write it, and the subset, its critical traffic and the first best once
    per network (and environment) built: `built` holds what the earlier
    points built."""
    point = dict(cfg)
    for name, value in zip(names, values):
        if name not in _SWEEP_SECTIONS:
            raise ConfigError(f"sweep.parameters: unknown parameter {name!r}")
        section = _SWEEP_SECTIONS[name]
        point.setdefault(section, {})
        sec = _require(point, section)
        if sec is cfg.get(section):
            sec = point[section] = dict(sec)
        if name == "d":
            sec["degree"] = value
            if sec.get("kind") != "ring_lattice":
                sec["kind"] = "regular"
                sec.setdefault("rate", 1.0)
                sec.pop("n", None)
        else:
            sec[name] = value
    env_key, mon_key, net_key = (
        (section, *((type(value), value)
                    for name, value in zip(names, values)
                    if _SWEEP_SECTIONS[name] == section))
        for section in ("environment", "monitoring", "network"))
    env = _once(built, env_key, lambda: _build_environment(point))
    mon = _once(built, mon_key, lambda: _build_monitoring(point))
    tm = _once(built, net_key, lambda: _build_network(point))
    subset = _once(built, ("subset", net_key),
                   lambda: _build_subset(point, tm.n))
    result = optimal_design(env, mon, tm, subset)
    jfb = _once(built, ("first_best", env_key, net_key),
                lambda: first_best(env, tm))
    nu = _once(built, ("critical_traffic", net_key),
               lambda: critical_traffic(tm, subset))
    row = {name: value for name, value in zip(names, values)}
    row.update({
        "n": tm.n,
        "critical_traffic": nu,
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


def cmd_sweep(cfg: dict, args) -> tuple[str, int]:
    sec = _require(cfg, "sweep")
    params = sec.get("parameters")
    if not isinstance(params, dict) or not params:
        raise ConfigError("sweep.parameters: must map parameter names to "
                          "value lists")
    names = list(params)
    for name, vals in params.items():
        if not isinstance(vals, list) or not vals:
            raise ConfigError(f"sweep.parameters.{name}: must be a nonempty "
                              "list")
    for name in names:
        unread = _unread_sweep_kind(cfg, names, name)
        if unread is not None:
            raise ConfigError(f"sweep.parameters.{name}: {unread} does not "
                              f"read {name}, so every row would be the same")
    built = {}
    rows = [_sweep_point(cfg, names, v, built)
            for v in itertools.product(*params.values())]
    return _table(args, list(rows[0]), rows, rows), 0


# name -> (handler, help text), in the order the usage lists them.  A
# handler returns (output text, exit code) and main writes the text.
_COMMANDS = {
    "design": (cmd_design,
               "compute the cost-minimizing incentive-compatible design"),
    "mct": (cmd_mct, "check whether any proper subset beats the whole "
                     "collection's critical traffic"),
    "id": (cmd_id, "run the deletion search over deployment sets"),
    "bruteforce": (cmd_bruteforce,
                   "exhaustively search deployment sets (small n)"),
    "threshold": (cmd_threshold, "scan core-periphery sizes for the "
                                 "full-deployment break-even point"),
    "simulate": (cmd_simulate, "run the seeded repeated-game simulator"),
    "sweep": (cmd_sweep, "evaluate the optimal design over a parameter grid"),
}
# the commands that can write a CSV table
_CSV_COMMANDS = ("threshold", "sweep", "simulate")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, but 2 means "no feasible design"
    here: exit 1, as for a config error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@cache  # built on the first call; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mutualsec",
        description="Design and simulate rating-based incentives for "
                    "mutual security investment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--out", default=None,
                       help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"),
                       default="csv" if name == "sweep" else "json",
                       help="output format")
        p.add_argument("--set", action="append", default=[], dest="sets",
                       metavar="KEY=VALUE",
                       help="override a config field (dotted path, JSON "
                            "value)")
        if name == "simulate":
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
            p.add_argument("--horizon", type=int, default=None,
                           help="override the config horizon")
            p.add_argument("--time-series", default=None, metavar="PATH",
                           help="also write a per-period CSV")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # A library warning is printed after the command as its message alone,
    # without the path and line of the code that raised it; other warnings
    # are shown as the filters say.
    caught = []
    show = warnings.showwarning

    def record(message, category, *rest):
        if issubclass(category, UserWarning):
            caught.append(f"warning: {message}")
        else:
            show(message, category, *rest)

    with warnings.catch_warnings():
        warnings.showwarning = record
        code = _run(args)
    for line in caught:
        print(line, file=sys.stderr)
    return code


def _run(args) -> int:
    try:
        cfg = _load_config(args.config)
        _apply_overrides(cfg, args.sets)
        if args.command not in _CSV_COMMANDS:
            _require_json(args)
        text, code = _COMMANDS[args.command][0](cfg, args)
        _emit(text, args.out)
        return code
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
