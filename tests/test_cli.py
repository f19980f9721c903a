import argparse
import dataclasses
import errno
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mutualsec import (
    Behavior,
    BehaviorProfile,
    Environment,
    MonitoringModel,
    Subset,
    TrafficMatrix,
    brute_force_optimal,
    feasible_period_interval,
    has_mct,
    iterative_deletion,
    optimal_design,
    simulate,
)
from mutualsec import cli, design
from mutualsec.cli import main

from support import REFERENCE_ENV, random_connected_matrix, write_matrix_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"


def child_env():
    """Environment for a child `python -m mutualsec`: this checkout's `src`
    first on PYTHONPATH, so the child imports the code under test."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def printed_report(rep) -> str:
    """What `simulate` prints for library report `rep`: its to_dict() as
    JSON, with the AS indices in its meta 1-based."""
    d = rep.to_dict()
    meta = d["meta"] = json.loads(json.dumps(d["meta"]))
    if "deploying" in meta:
        meta["deploying"] = [i + 1 for i in meta["deploying"]]
    if "subset" in meta["design"]:
        meta["design"]["subset"] = [i + 1 for i in meta["design"]["subset"]]
    return json.dumps(d, indent=2, allow_nan=False) + "\n"


def reference_config(tmp_path, **extra):
    payload = {
        "environment": {"p_high": 0.3, "p_low": 0.05, "c": 0.3, "beta": 0.2},
        "monitoring": {"kind": "rational", "w0": 0.1},
        "network": {"kind": "complete", "n": 8, "rate": 1.0},
    }
    payload.update(extra)
    return write_config(tmp_path, payload)


class TestDesignCommand:
    def test_matches_library(self, tmp_path, capsys):
        cfg = reference_config(tmp_path)
        assert main(["design", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        lib = optimal_design(REFERENCE_ENV, MonitoringModel.rational(0.1),
                             TrafficMatrix.complete(8, 1.0))
        assert out["j_star"] == lib.j_star
        assert out["t_star"] == lib.t_star
        assert out["p0_star"] == lib.p0_star
        assert out["binding_as"] == lib.binding_as + 1
        assert out["subset"] == list(range(1, 9))
        assert out["j_first_best"] == pytest.approx(5.2)
        assert out["assumptions"]["monitor"]["passed"]

    def test_error_rounding_to_one_half(self, tmp_path, capsys):
        # w0/(T + 2*w0) rounds to 1/2 at T*, so a p0 priced with 1 - 2*eps
        # divided by zero; the headroom exp(beta*T) * (1 + 2*w0/T) does not
        cfg = write_config(tmp_path, {
            "environment": {"p_high": 0.3, "p_low": 0.05,
                            "c": 7.685937207009908e-23,
                            "beta": 1.0328861041058042},
            "monitoring": {"kind": "rational", "w0": 5.7925029599558264e+20},
            "network": {"kind": "complete", "n": 2, "rate": 1.0},
        })
        assert main(["design", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["t_star"] == pytest.approx(0.968, abs=5e-4)
        assert out["p0_star"] == 0.29999999999999993

    def test_table_within_ulps_of_one_half(self, tmp_path, capsys):
        # 1 - 2*eps is a few ulps here and rounds to 0 on much of the first
        # piece, where the high edge's Newton iterate used to land
        env = Environment(p_high=0.3, p_low=0.05, c=0.07181946893595247,
                          beta=0.6995171801458919)
        table = [[0, 0.5], [8.237060802188033, 0.4999999999999997],
                 [16.78041312235522, 0.4999999999999997]]
        rate = 8191622292050104.0
        cfg = write_config(tmp_path, {
            "environment": dataclasses.asdict(env),
            "monitoring": {"kind": "tabulated", "points": table},
            "network": {"kind": "complete", "n": 2, "rate": rate},
        })
        assert main(["design", "--config", cfg]) == 0
        t_star = json.loads(capsys.readouterr().out)["t_star"]
        # a dense float scan of h(t) <= bound at the critical traffic
        mon = MonitoringModel.tabulated(table)
        bound = env.gap * rate / env.c
        fits = lambda t: design._headroom(env, mon, t) <= bound
        scan = np.linspace(0.0, 20.0, 100001).tolist()
        feasible = [t for t in scan if fits(t)]
        interval = feasible_period_interval(env, mon, rate)
        assert interval.lo == t_star
        assert fits(t_star) and not fits(math.nextafter(t_star, 0.0))
        assert fits(interval.hi)
        assert not fits(math.nextafter(interval.hi, math.inf))
        assert all(fits(t) for t in scan if interval.lo <= t <= interval.hi)
        assert min(feasible) > t_star
        assert design._loss_at(env, mon, t_star) <= min(
            design._loss_at(env, mon, t) for t in feasible)

    def test_out_file(self, tmp_path):
        cfg = reference_config(tmp_path)
        out = tmp_path / "result.json"
        assert main(["design", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["feasible"]

    def test_unwritable_out(self, tmp_path, capsys):
        cfg = reference_config(tmp_path)
        out = tmp_path / "missing" / "result.json"
        assert main(["design", "--config", cfg, "--out", str(out)]) == 1
        assert "config error: --out:" in capsys.readouterr().err

    def test_config_error_names_field(self, tmp_path, capsys):
        cfg = reference_config(tmp_path)
        cases = [
            ("design", "environment.p_low=0.9", "p_low"),
            ("design", "environment.beta=NaN", "beta must be"),
            ("design", "environment.c=Infinity", "c must be"),
            ("design", "monitoring.w0=NaN", "w0 must be"),
            ("design", 'monitoring={"kind": "tabulated", '
             '"points": [[0, 0.5], [NaN, 0.2]]}', "periods and errors"),
            ("design", 'monitoring={"kind": "tabulated", '
             '"points": [[1, 0.3], [2, 0.1], [3, 0.05]]}',
             "monitoring: tabulated errors must be convex"),
            ("design", 'monitoring={"kind": "tabulated", '
             '"points": [[0, 0.5], [2e-323, 0.0], [1, 0.0]]}',
             "monitoring: tabulated periods are too close together"),
            ("design", 'network={"kind": "complete", "n": 3, "rate": 1e308}',
             "network: traffic totals must be finite"),
            ("mct", 'network={"kind": "complete", "n": 3, "rate": 1e308}',
             "network: traffic totals must be finite"),
            ("id", 'network={"kind": "complete", "n": 3, "rate": 1e308}',
             "network: traffic totals must be finite"),
            ("simulate", 'simulate={"design": {"T": NaN, "p0": 0.2, '
             '"p1": 0.05}}', "simulate.design: T must be finite"),
            ("sweep", 'sweep={"parameters": {"w0": [0.1, NaN]}}',
             "w0 must be"),
            ("design", "environment.c",
             "--set: expected key=value, got 'environment.c'"),
            ("design", "environment.c.x=1",
             "--set: environment.c.x: c is not an object"),
            ("design", "environment=3", "environment: must be a JSON object"),
            ("design", 'environment={"p_high": 0.3, "p_low": 0.05, "c": 0.3}',
             "environment.beta: missing"),
            ("design", 'monitoring={"kind": "tabulated"}',
             "monitoring: tabulated needs points or path"),
            ("design", "monitoring.kind=odd",
             "monitoring.kind: unknown kind 'odd'"),
            ("design", 'network={"kind": "star", "n": 0, "rate": 1.0}',
             "network: traffic matrix needs at least 2 ASs"),
            ("simulate", 'simulate={"profile": 3}',
             "simulate.profile: must be a string or a list"),
            ("simulate", 'simulate={"profile": [3, 3, 3, 3, 3, 3, 3, 3]}',
             "simulate.profile: entries must be strings or objects"),
            ("simulate", 'simulate={"design": 3}',
             'simulate.design: must be "optimal" or an object'),
            ("sweep", 'sweep={"parameters": [1]}',
             "sweep.parameters: must map parameter names to value lists"),
            ("sweep", 'sweep={"parameters": {"w0": []}}',
             "sweep.parameters.w0: must be a nonempty list"),
        ]
        for command, setting, field in cases:
            code = main([command, "--config", cfg, "--set", setting])
            err = capsys.readouterr().err
            assert code == 1, setting
            assert field in err, (setting, err)

    def test_tabulated_monitor_from_file(self, tmp_path, capsys):
        # a curve read from CSV designs exactly as the same points inline
        points = [[0.0, 0.4], [2.0, 0.2], [6.0, 0.1]]
        path = tmp_path / "curve.csv"
        path.write_text("".join(f"{t},{e}\n" for t, e in points))
        cfg = reference_config(tmp_path)
        outputs = []
        for monitoring in ({"kind": "tabulated", "path": str(path)},
                           {"kind": "tabulated", "points": points}):
            code = main(["design", "--config", cfg,
                         "--set", f"monitoring={json.dumps(monitoring)}"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert json.loads(outputs[0])["feasible"]
        assert outputs[0] == outputs[1]

    def test_infeasible_exit_code(self, tmp_path, capsys):
        cfg = reference_config(tmp_path)
        code = main(["design", "--config", cfg, "--set", "environment.c=9"])
        assert code == 2
        out = json.loads(capsys.readouterr().out)
        assert out["feasible"] is False

    def test_huge_w0_is_infeasible(self, capsys):
        # 2*w0/beta overflows here, and so did the headroom's minimizer,
        # whose NaN once passed for a feasible design that failed ic_check
        code = main(["design", "--config",
                     str(CONFIGS / "reference_design.json"),
                     "--set", "monitoring.w0=1e300",
                     "--set", "environment.beta=1e-10"])
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        assert json.loads(out)["feasible"] is False

    @pytest.mark.parametrize("sets", [
        ["monitoring.w0=5e-324", "environment.beta=1e300"],
        ["monitoring.w0=8e307", "environment.beta=1e-10",
         "network.rate=1e300"],
    ])
    def test_rational_at_float_range_edges(self, capsys, sets):
        # a ZeroDivisionError and an inf loss factor once exited 3
        code = main(["design", "--config",
                     str(CONFIGS / "reference_design.json"),
                     *(arg for s in sets for arg in ("--set", s))])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        out = json.loads(out)
        assert all(math.isfinite(out[key]) for key in (
            "t_star", "p0_star", "p1_star", "g_star", "j_star"))

    def test_missing_config(self, capsys):
        assert main(["design", "--config", "/nonexistent.json"]) == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ('{"environment": ', "config: invalid JSON"),
        ("[1, 2]", "config: top level must be a JSON object"),
    ])
    def test_unreadable_config(self, tmp_path, capsys, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["design", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"config error: {message}")

    def test_config_is_a_directory(self, tmp_path, capsys):
        assert main(["design", "--config", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"config error: config: [Errno {errno.EISDIR}] "
                       f"{os.strerror(errno.EISDIR)}: '{tmp_path}'\n")

    def test_config_of_undecodable_bytes(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\x81{\xff}")
        with pytest.raises(UnicodeDecodeError) as decoding:
            path.read_text()  # the encoding open() uses by default
        assert main(["design", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"config error: config: {decoding.value}\n")

    def test_csv_not_supported(self, tmp_path, capsys):
        cfg = reference_config(tmp_path)
        assert main(["design", "--config", cfg, "--format", "csv"]) == 1

    def test_subset_config(self, tmp_path, capsys):
        cfg = reference_config(tmp_path, subset=[1, 2, 3])
        assert main(["design", "--config", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["subset"] == [1, 2, 3]

    def test_assumptions_block(self, tmp_path, capsys):
        # each check's passed and detail, the failing ASs 1-based, then the
        # subset's note, in this order
        cfg = reference_config(tmp_path, subset=[1, 2, 3])
        assert main(["design", "--config", cfg, "--set", "environment.c=0.5",
                     "--set", 'network={"kind": "star", "n": 6, '
                     '"rate": 1.0}']) == 2
        assumptions = json.loads(capsys.readouterr().out)["assumptions"]
        assert list(assumptions) == ["monitor", "viability", "social_gain",
                                     "subset_note"]
        assert assumptions == {
            "monitor": {"passed": True, "detail": (
                "rational family w0=0.1: decreasing and convex with "
                "epsilon(0)=1/2 analytically")},
            "viability": {"passed": False, "detail": (
                "cost covers no achievable benefit for 5 of 6 ASs"),
                "ases": [2, 3, 4, 5, 6]},
            "social_gain": {"passed": False, "detail": (
                "no IC design exists for the full set, loss factor "
                "undefined"), "ases": []},
            "subset_note": "subset critical traffic 1",
        }
        for check in ("viability", "social_gain"):
            assert list(assumptions[check]) == ["passed", "detail", "ases"]

    def test_subset_out_of_range(self, tmp_path, capsys):
        cfg = reference_config(tmp_path, subset=[9])
        assert main(["design", "--config", cfg]) == 1
        assert "subset" in capsys.readouterr().err


class TestNetworkLoading:
    @pytest.mark.parametrize("network, n", [
        ({"kind": "complete", "n": 4, "rate": 1.0}, 4),
        ({"kind": "regular", "degree": 3, "rate": 1.0}, 4),
        ({"kind": "ring_lattice", "n": 6, "degree": 2, "rate": 1.0}, 6),
        ({"kind": "line", "n": 3, "rate": 1.0}, 3),
        ({"kind": "star", "n": 5, "rate": 2.0}, 5),
        ({"kind": "core_periphery", "cores": 3, "periphery_per_core": 1,
          "rate": 1.0}, 6),
        ({"kind": "edges", "n": 3, "edges": [[1, 2, 1.0], [2, 3, 2.0]]}, 3),
        ({"kind": "matrix", "rates": [[0, 1], [1, 0]]}, 2),
    ], ids=lambda v: v["kind"] if isinstance(v, dict) else str(v))
    def test_every_network_kind(self, tmp_path, capsys, network, n):
        cfg = write_config(tmp_path, {"network": network})
        assert main(["mct", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == n

    def test_matrix_file(self, tmp_path, capsys):
        tm = TrafficMatrix.complete(4, 2.0)
        mpath = tmp_path / "m.csv"
        write_matrix_csv(tm, mpath)
        cfg = reference_config(tmp_path)
        override = json.dumps({"kind": "matrix", "path": str(mpath)})
        code = main(["mct", "--config", cfg, "--set", f"network={override}"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["n"] == 4

    def test_edge_file(self, tmp_path, capsys):
        epath = tmp_path / "e.csv"
        epath.write_text("i,j,rate\n1,2,1.0\n2,3,2.0\n")
        cfg = write_config(tmp_path, {
            "network": {"kind": "edges", "path": str(epath)},
        })
        assert main(["mct", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["n"] == 3

    def test_unknown_kind(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"network": {"kind": "hypercube"}})
        assert main(["mct", "--config", cfg]) == 1
        assert "network.kind" in capsys.readouterr().err

    def test_one_based_edges_reject_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "network": {"kind": "edges", "n": 3,
                        "edges": [[0, 1, 1.0]]},
        })
        assert main(["mct", "--config", cfg]) == 1
        assert "1-based" in capsys.readouterr().err


@pytest.fixture
def read_network(tmp_path, capsys, monkeypatch):
    """Run `mct` on a config with the given network section, and return
    its exit code, stderr and the matrix that it read (None if none)."""
    seen = []
    real = cli.has_mct
    monkeypatch.setattr(cli, "has_mct", lambda tm: seen.append(tm) or real(tm))

    def run(network):
        seen.clear()
        code = main(["mct", "--config",
                     write_config(tmp_path, {"network": network})])
        err = capsys.readouterr().err
        return code, err, (seen[0] if seen else None)

    return run


def edge_file(tmp_path, text, **network):
    """An edges network section reading `text` from a CSV file."""
    path = tmp_path / "e.csv"
    path.write_text(text)
    return {"kind": "edges", "path": str(path), **network}


class TestFileFormats:
    """The CSV files that a `path` field names, read through the CLI."""

    def test_matrix_round_trip(self, tmp_path, read_network):
        tm = random_connected_matrix(np.random.default_rng(3), 5)
        path = tmp_path / "m.csv"
        write_matrix_csv(tm, path)
        assert read_network({"kind": "matrix", "path": str(path)}) == \
            (0, "", tm)

    def test_edge_header(self, tmp_path, read_network):
        network = edge_file(tmp_path, "i,j,rate\n1,2,2.5\n2,3,1.0\n")
        assert read_network(network) == (0, "", TrafficMatrix.from_edges(
            3, [(0, 1, 2.5), (1, 2, 1.0)]))

    def test_edge_directed_flag_and_n(self, tmp_path, read_network):
        text = "1,2,2.5,1\n2,3,1.0,0\n"
        want = TrafficMatrix.from_edges(
            4, [(0, 1, 2.5), (1, 2, 1.0), (2, 1, 1.0)], directed=True)
        assert read_network(edge_file(tmp_path, text, n=4)) == (0, "", want)
        assert read_network(edge_file(tmp_path, text, n=2)) == (
            1, "config error: network: edge CSV references AS 3 but n=2\n",
            None)

    def test_edge_flag_spellings(self, tmp_path, read_network):
        network = edge_file(tmp_path, "1,2,1.0,TRUE\n2,3,2.0,FALSE\n"
                                      "3,4,3.0,\n4,1,4.0,True\n")
        assert read_network(network) == (0, "", TrafficMatrix.from_edges(
            4, [(0, 1, 1.0), (1, 2, 2.0), (2, 1, 2.0), (2, 3, 3.0),
                (3, 2, 3.0), (3, 0, 4.0)], directed=True))
        network = edge_file(tmp_path, "1,2,1.0,0\n2,3,2.0,no\n")
        assert read_network(network) == (
            1, "config error: network: edge CSV row '2,3,2.0,no': directed "
               "flag must be 0, 1, true, false or empty\n", None)

    @pytest.mark.parametrize("text", ["", "\n \n", ",,\n , ,\n"],
                             ids=["empty", "blank", "commas"])
    def test_empty_edge_file(self, tmp_path, read_network, text):
        assert read_network(edge_file(tmp_path, text)) == (
            1, "config error: network: edge CSV is empty\n", None)

    def test_blank_lines_are_skipped(self, tmp_path, read_network):
        network = edge_file(tmp_path, "\n1,2,1.0\n\n 2 , 3 , 2.0 \n,\n")
        assert read_network(network) == (0, "", TrafficMatrix.from_edges(
            3, [(0, 1, 1.0), (1, 2, 2.0)]))
        path = tmp_path / "m.csv"
        path.write_text("0,1\n\n1,0\n\n")
        assert read_network({"kind": "matrix", "path": str(path)}) == \
            (0, "", TrafficMatrix.line(2, 1.0))

    def test_edge_index_follows_the_integer_rule(self, tmp_path,
                                                 read_network):
        # as an inline [i, j, rate] does, an integral float is an index
        network = edge_file(tmp_path, "1,2.0,1.0\n2e0,3,2.0\n")
        assert read_network(network) == (0, "", TrafficMatrix.from_edges(
            3, [(0, 1, 1.0), (1, 2, 2.0)]))

    @pytest.mark.parametrize("row, message", [
        ("1.5,2,1.0", "row '1.5,2,1.0': column i must be a 1-based integer, "
                      "got '1.5'"),
        ("1,x,1.0", "row '1,x,1.0': column j must be a 1-based integer, "
                    "got 'x'"),
        ("1,2,abc", "row '1,2,abc': column rate must be a finite number, "
                    "got 'abc'"),
        ("1,2,nan", "row '1,2,nan': column rate must be a finite number, "
                    "got 'nan'"),
        ("1,2,-inf", "row '1,2,-inf': column rate must be a finite number, "
                     "got '-inf'"),
        ("0,2,1.0", "row '0,2,1.0': indices are 1-based"),
        ("1,2", "row '1,2': needs at least i,j,rate"),
    ])
    def test_edge_errors_name_row_and_column(self, tmp_path, read_network,
                                             row, message):
        network = edge_file(tmp_path, f"1,3,1.0\n{row}\n")
        assert read_network(network) == (
            1, f"config error: network: edge CSV {message}\n", None)

    def test_edge_zero_index(self, tmp_path, read_network):
        assert read_network(edge_file(tmp_path, "0,1,2.0\n")) == (
            1, "config error: network: edge CSV row '0,1,2.0': indices are "
               "1-based\n", None)

    def test_bad_first_row_is_not_a_header(self, tmp_path, read_network):
        assert read_network(edge_file(tmp_path, "x,2,1.0\n2,3,1.0\n")) == (
            1, "config error: network: edge CSV row 'x,2,1.0': column i must "
               "be a 1-based integer, got 'x'\n", None)

    def test_unreadable_csv_is_a_config_error(self, tmp_path, read_network):
        # a cell beyond the csv module's field limit
        code, err, _ = read_network(edge_file(tmp_path, "1" * 200_000))
        assert code == 1
        assert err.startswith("config error: network: field larger than")

    def test_matrix_cell_names_the_path_field(self, tmp_path, read_network):
        path = tmp_path / "m.csv"
        path.write_text("0,abc\n1,0\n")
        assert read_network({"kind": "matrix", "path": str(path)}) == (
            1, "config error: network.path: expected a number, got 'abc'\n",
            None)

    @pytest.mark.parametrize("text, err", [
        ("\n0.0,0.4\n\n 2.0 , 0.2 \n6.0,0.1\n\n", ""),
        ("0.0,0.4\n2.0,abc\n6.0,0.1\n",
         "config error: monitoring.path: expected a number, got 'abc'\n"),
        ("# T,eps\n0.0,0.4\n2.0,0.2\n6.0,0.1\n",
         "config error: monitoring.path: expected a number, got '# T'\n"),
    ], ids=["blank-lines", "non-numeric", "comment"])
    def test_curve_file(self, tmp_path, capsys, text, err):
        path = tmp_path / "curve.csv"
        path.write_text(text)
        inline = {"kind": "tabulated",
                  "points": [[0.0, 0.4], [2.0, 0.2], [6.0, 0.1]]}
        cfg = reference_config(tmp_path)
        outputs = []
        for monitoring in ({"kind": "tabulated", "path": str(path)}, inline):
            code = main(["design", "--config", cfg,
                         "--set", f"monitoring={json.dumps(monitoring)}"])
            outputs.append((code, *capsys.readouterr()))
        if err:
            assert outputs[0] == (1, "", err)
        else:
            assert outputs[0] == outputs[1]
            assert outputs[0][0] == 0


class TestMctCommand:
    def test_square_examples(self, capsys):
        assert main(["mct", "--config",
                     str(CONFIGS / "square_mct_true.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mct"] is True and out["witness"] is None
        assert main(["mct", "--config",
                     str(CONFIGS / "square_mct_false.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mct"] is False
        assert out["witness"] == [2, 3, 4]

    def test_core_periphery_at_scale(self, capsys):
        code = main(["mct", "--config", str(CONFIGS / "square_mct_true.json"),
                     "--set", 'network={"kind": "core_periphery", "cores": 30, '
                     '"periphery_per_core": 2, "rate": 1.0}'])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["n"], out["mct"]) == (90, False)
        assert out["witness"] == list(range(1, 31))


class TestIdCommand:
    def test_six_as_trace(self, capsys):
        assert main(["id", "--config",
                     str(CONFIGS / "six_as_deletion.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["subset"] == [3, 4, 5, 6]
        assert out["chosen_iteration"] == 2
        assert [it["critical_traffic"] for it in out["iterations"]] == \
            [2.0, 3.0, 14.0, 14.0, 12.0]
        assert [it["evaluated"] for it in out["iterations"]] == \
            [True, True, True, False, False]

    def test_as_that_sends_nothing(self, tmp_path, capsys):
        # runs under the suite's error::RuntimeWarning filter, so a division
        # by the silent AS's zero outbound rate would exit 3.  The deletion
        # search's validity warning, printed to stderr as its message
        # alone, names no library (0-based) index.
        cfg = reference_config(tmp_path, network={
            "kind": "edges", "n": 3, "directed": True,
            "edges": [[1, 2, 4], [2, 1, 4], [1, 3, 4], [2, 3, 4]]})
        assert main(["id", "--config", cfg]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["subset"] == [1, 2, 3]
        assert err.startswith("warning: validity conditions fail; ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert "0-based" not in err
        assert main(["design", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "0-based" not in out
        assumptions = json.loads(out)["assumptions"]
        # AS 3 (1-based) sends nothing; only the failing check lists ASs
        assert assumptions["social_gain"]["passed"] is False
        assert assumptions["social_gain"]["ases"] == [3]
        assert "ases" not in assumptions["viability"]

    def test_nothing_feasible_exit_2(self, tmp_path, capsys):
        cfg = reference_config(tmp_path)
        code = main(["id", "--config", cfg, "--set", "environment.c=9"])
        assert code == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["subset"] == []
        # the message alone: no source path, line number or source line
        assert err.startswith("warning: validity conditions fail; ")
        assert "cli.py" not in err and "UserWarning" not in err

    @pytest.mark.filterwarnings("always::FutureWarning")
    def test_other_warnings_reach_the_previous_handler(self, capsys,
                                                       monkeypatch):
        # only a library UserWarning is printed as "warning: <message>";
        # any other category goes to the handler main found installed
        shown = []
        handler = cli._COMMANDS["mct"][0]

        def warns(cfg, args):
            warnings.warn("numpy is changing", FutureWarning)
            return handler(cfg, args)

        monkeypatch.setitem(cli._COMMANDS, "mct",
                            (warns, cli._COMMANDS["mct"][1]))
        monkeypatch.setattr(warnings, "showwarning",
                            lambda message, category, *rest:
                            shown.append((str(message), category)))
        assert main(["mct", "--config",
                     str(CONFIGS / "square_mct_true.json")]) == 0
        assert shown == [("numpy is changing", FutureWarning)]
        assert "warning:" not in capsys.readouterr().err


class TestBruteforceCommand:
    def test_small_instance(self, tmp_path, capsys):
        cfg = reference_config(tmp_path)
        code = main(["bruteforce", "--config", cfg,
                     "--set", "network.n=5"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["subset"] == [1, 2, 3, 4, 5]
        assert out["evaluations"] == 2 ** 5

    def test_cap(self, tmp_path, capsys):
        cfg = reference_config(tmp_path)
        code = main(["bruteforce", "--config", cfg,
                     "--set", "network.n=18"])
        assert code == 1
        assert "config error: bruteforce_cap:" in capsys.readouterr().err

    def test_raised_cap(self, tmp_path, capsys):
        cfg = reference_config(tmp_path)
        code = main(["bruteforce", "--config", cfg, "--set", "network.n=18",
                     "--set", "bruteforce_cap=18"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["subset"] == list(range(1, 19))
        assert out["evaluations"] == 2 ** 18


class TestIntegerFields:
    @pytest.mark.parametrize("command, config, setting, field", [
        ("simulate", "reference_simulation", "simulate.horizon=NaN",
         "simulate.horizon"),
        ("simulate", "reference_simulation", "simulate.horizon=Infinity",
         "simulate.horizon"),
        ("simulate", "reference_simulation", "simulate.seed=1.5",
         "simulate.seed"),
        ("bruteforce", "six_as_deletion", "bruteforce_cap=NaN",
         "bruteforce_cap"),
        ("simulate", "reference_simulation", "simulate.horizon=true",
         "simulate.horizon"),
        ("design", "reference_design", "network.n=8.5", "network.n"),
        ("design", "reference_design", 'network={"kind": "ring_lattice", '
         '"n": 8, "degree": 2.5, "rate": 1.0}', "network.degree"),
        ("design", "reference_design", 'network={"kind": "core_periphery", '
         '"cores": true, "periphery_per_core": 1, "rate": 1.0}',
         "network.cores"),
        ("design", "reference_design", 'network={"kind": "core_periphery", '
         '"cores": 3, "periphery_per_core": 1.5, "rate": 1.0}',
         "network.periphery_per_core"),
        ("threshold", "core_periphery_threshold",
         "threshold.periphery_per_core=1.5", "threshold.periphery_per_core"),
        ("threshold", "core_periphery_threshold", "threshold.k_max=true",
         "threshold.k_max"),
        # out of range where they enter; a flag row is passed as is
        ("simulate", "reference_simulation", "--horizon=0", "--horizon"),
        ("simulate", "reference_simulation", "simulate.horizon=-3",
         "simulate.horizon"),
        ("simulate", "reference_simulation", "--seed=-1", "--seed"),
        ("simulate", "reference_simulation", "simulate.seed=-2",
         "simulate.seed"),
    ])
    def test_non_integers_are_config_errors(self, capsys, command, config,
                                            setting, field):
        flag = [setting] if setting.startswith("--") else ["--set", setting]
        code = main([command, "--config", str(CONFIGS / f"{config}.json"),
                     *flag])
        assert code == 1
        assert f"config error: {field}:" in capsys.readouterr().err

    def test_integral_values_accepted(self, capsys):
        code = main(["simulate", "--config",
                     str(CONFIGS / "reference_simulation.json"),
                     "--set", "simulate.seed=3.0",
                     "--set", "simulate.horizon=\"50\""])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert (out["seed"], out["horizon"]) == (3, 50)


class TestThresholdCommand:
    def test_json_summary(self, capsys):
        assert main(["threshold", "--config",
                     str(CONFIGS / "core_periphery_threshold.json")]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["k_star"] == 11
        assert out["n_star"] == 22
        assert len(out["rows"]) == 28

    def test_csv_rows(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        assert main(["threshold", "--config",
                     str(CONFIGS / "core_periphery_threshold.json"),
                     "--format", "csv", "--out", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("cores,n,j_full,j_core")
        assert len(lines) == 29

    def test_csv_leaves_missing_values_empty(self, capsys):
        # no core size has a feasible full-deployment design at this cost
        assert main(["threshold", "--config",
                     str(CONFIGS / "core_periphery_threshold.json"),
                     "--format", "csv", "--set", "environment.c=1.5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == ["3,6,,,,", "4,8,,,,"]

    def test_three_leaves_per_core(self, capsys):
        # l = 3 scans from K = 4, the smallest core with 3 leaves per node
        assert main(["threshold", "--config",
                     str(CONFIGS / "core_periphery_threshold.json"),
                     "--set", "threshold.periphery_per_core=3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [r["cores"] for r in out["rows"]] == list(range(4, 31))
        assert out["rows"][0]["n"] == 16
        assert (out["k_star"], out["n_star"]) == (29, 116)

    def test_k_max_must_exceed_leaves_per_core(self, capsys):
        assert main(["threshold", "--config",
                     str(CONFIGS / "core_periphery_threshold.json"),
                     "--set", "threshold.periphery_per_core=3",
                     "--set", "threshold.k_max=3"]) == 1
        assert "k_max" in capsys.readouterr().err

    def test_missing_section(self, tmp_path, capsys):
        cfg = reference_config(tmp_path)
        assert main(["threshold", "--config", cfg]) == 1
        assert "threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, field", [
        ("threshold.k_max=2", "k_max"),
        ("threshold.periphery_per_core=0", "periphery_per_core"),
        ("threshold.rate=-1", "rate"),
        ("threshold.rate=NaN", "rate"),
        ("environment.c=Infinity", "c must be"),
    ])
    def test_bad_values_are_config_errors(self, capsys, setting, field):
        code = main(["threshold", "--config",
                     str(CONFIGS / "core_periphery_threshold.json"),
                     "--set", setting])
        assert code == 1
        assert field in capsys.readouterr().err


class TestSimulateCommand:
    def test_profile_mode(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        ts = tmp_path / "ts.csv"
        code = main(["simulate", "--config",
                     str(CONFIGS / "reference_simulation.json"),
                     "--horizon", "200", "--seed", "4",
                     "--out", str(out), "--time-series", str(ts)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["horizon"] == 200
        assert rep["seed"] == 4
        assert len(ts.read_text().strip().splitlines()) == 201

    @pytest.mark.parametrize("profile", ["compliant", "grim-trigger",
                                         "tit-for-tat"])
    def test_time_series_is_the_reports_columns(self, tmp_path, capsys,
                                                 profile):
        # stdout is the report's to_dict() with 1-based meta, and the CSV
        # its time series, written by hand here: repr for a float, empty
        # for null, digits for an int
        ts = tmp_path / "ts.csv"
        code = main(["simulate", "--config",
                     str(CONFIGS / "reference_simulation.json"),
                     "--horizon", "300", "--seed", "3",
                     "--set", f"simulate.profile={json.dumps(profile)}",
                     "--time-series", str(ts)])
        out = capsys.readouterr().out
        assert code == 0
        env, mon, tm = REFERENCE_ENV, MonitoringModel.rational(0.1), \
            TrafficMatrix.complete(8, 1.0)
        rep = simulate(optimal_design(env, mon, tm).design(),
                       BehaviorProfile.uniform(8, profile), env, mon, tm,
                       300, 3, time_series=True)
        assert out == printed_report(rep)
        series = rep.to_dict()["time_series"]
        assert list(series) == ["period", "total_cost", "trigger_fired",
                                "mean_rating"]
        lines = ["period,total_cost,trigger_fired,mean_rating"]
        for k, cost, fired, rating in zip(*series.values()):
            assert type(k) is int and type(fired) is int
            assert type(cost) is float
            lines.append(f"{k},{cost!r},{fired},"
                         + ("" if rating is None else repr(rating)))
        assert ts.read_bytes() == ("\n".join(lines) + "\n").encode()
        if profile == "grim-trigger":
            assert set(series["trigger_fired"]) == {0, 1}
            assert set(series["mean_rating"]) == {None}
        elif profile == "compliant":
            assert None not in series["mean_rating"]

    def test_time_series_dash_is_a_file_name(self, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["simulate", "--config",
                     str(CONFIGS / "reference_simulation.json"),
                     "--horizon", "20", "--time-series", "-"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["horizon"] == 20
        lines = (tmp_path / "-").read_text().splitlines()
        assert lines[0] == "period,total_cost,trigger_fired,mean_rating"
        assert len(lines) == 21

    @pytest.mark.parametrize("config, setting, message", [
        ("reference_simulation", "simulate.horizon=10000000000000000000",
         "horizon must be below 2**63"),
        ("strategy_beta_comparison", "simulate.T=1e308",
         "horizon 4000 times T 1e+308 overflows"),
    ])
    def test_overflowing_runs_are_config_errors(self, capsys, config,
                                                setting, message):
        code = main(["simulate", "--config", str(CONFIGS / f"{config}.json"),
                     "--set", setting])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err.startswith(f"config error: simulate: {message}")
        assert err.count("\n") == 1  # no numpy warning on the way

    def test_a_large_period_within_range_runs(self, capsys):
        assert main(["simulate", "--config",
                     str(CONFIGS / "strategy_beta_comparison.json"),
                     "--set", "simulate.T=1e300"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert {row["avg_cost"] for row in json.loads(out)} == {33.6}

    def test_unwritable_time_series(self, tmp_path, capsys):
        ts = tmp_path / "missing" / "ts.csv"
        out = tmp_path / "rep.json"
        code = main(["simulate", "--config",
                     str(CONFIGS / "reference_simulation.json"),
                     "--horizon", "20", "--out", str(out),
                     "--time-series", str(ts)])
        assert code == 1
        assert "config error: --time-series:" in capsys.readouterr().err
        assert not out.exists()

    def test_benchmark_mode(self, tmp_path, capsys):
        cfg = reference_config(tmp_path, simulate={
            "mode": "benchmark", "benchmark": "no-otc",
            "horizon": 100, "seed": 0,
        })
        assert main(["simulate", "--config", cfg]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["avg_cost"] == pytest.approx(16.8, abs=1e-9)
        assert rep["meta"]["benchmark"] == "no-otc"

    def test_comparison_mode_csv(self, tmp_path, capsys):
        cfg = reference_config(tmp_path, simulate={
            "mode": "comparison", "kind": "trigger", "T": 1.0,
            "horizon": 100, "seeds": 2, "beta_grid": [0.2, 0.3],
        })
        assert main(["simulate", "--config", cfg, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("beta,kind,avg_cost")
        assert len(lines) == 3

    @pytest.mark.parametrize("seeds", ["0", "2.5", '"a"', "[]", "[1, -2]",
                                       '[1, "x"]'])
    def test_bad_comparison_seeds(self, capsys, seeds):
        code = main(["simulate", "--config",
                     str(CONFIGS / "strategy_beta_comparison.json"),
                     "--set", f"simulate.seeds={seeds}"])
        assert code == 1
        assert "config error: simulate.seeds:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, field", [
        (["--seed", "5"], "--seed"),
        (["--time-series", "ts.csv"], "--time-series"),
        (["--set", "simulate.time_series=true"], "simulate.time_series"),
        (["--set", "simulate.seed=5"], "simulate.seed"),
        (["--set", "seed=5"], "seed"),
    ])
    def test_comparison_rejects_single_run_inputs(self, tmp_path, capsys,
                                                  flags, field):
        # a comparison runs simulate.seeds and has no single path to write
        flags = [str(tmp_path / f) if f.endswith(".csv") else f
                 for f in flags]
        code = main(["simulate", "--config",
                     str(CONFIGS / "strategy_beta_comparison.json"), *flags])
        out, err = capsys.readouterr()
        assert code == 1
        assert f"config error: {field}:" in err
        assert out == "" and not list(tmp_path.iterdir())

    def test_comparison_seed_list(self, capsys):
        code = main(["simulate", "--config",
                     str(CONFIGS / "strategy_beta_comparison.json"),
                     "--set", "simulate.seeds=[3, 4]",
                     "--set", "simulate.horizon=50"])
        assert code == 0
        assert [r["seeds"] for r in json.loads(capsys.readouterr().out)] == \
            [2, 2, 2]

    def test_explicit_design(self, tmp_path, capsys):
        cfg = reference_config(tmp_path, simulate={
            "mode": "profile",
            "design": {"T": 5.0, "p0": 0.2, "p1": 0.05},
            "profile": "never-deploy",
            "horizon": 50, "seed": 1,
        })
        assert main(["simulate", "--config", cfg]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["avg_cost"] == pytest.approx(16.8, abs=1e-9)

    def test_profile_list_matches_library(self, tmp_path, capsys):
        spec = (["compliant"] * 5
                + [{"kind": "one-shot-deviator", "at_period": 3},
                   "persistent-deviator", {"kind": "never-deploy"}])
        cfg = reference_config(tmp_path, simulate={
            "mode": "profile", "profile": spec, "horizon": 40, "seed": 2,
        })
        assert main(["simulate", "--config", cfg]) == 0
        mon = MonitoringModel.rational(0.1)
        tm = TrafficMatrix.complete(8, 1.0)
        profile = BehaviorProfile(
            (Behavior("compliant"),) * 5
            + (Behavior("one-shot-deviator", 3),
               Behavior("persistent-deviator"), Behavior("never-deploy")))
        rep = simulate(optimal_design(REFERENCE_ENV, mon, tm).design(),
                       profile, REFERENCE_ENV, mon, tm, 40, 2)
        out = capsys.readouterr().out
        assert out == printed_report(rep)

    def test_optimal_design_needs_a_feasible_instance(self, tmp_path, capsys):
        cfg = reference_config(tmp_path, simulate={"horizon": 10})
        code = main(["simulate", "--config", cfg, "--set", "environment.c=5"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("config error: simulate.design: no feasible "
                              "design for this instance")

    def test_bad_profile_length(self, tmp_path, capsys):
        cfg = reference_config(tmp_path, simulate={
            "mode": "profile", "profile": ["compliant"] * 3,
            "horizon": 10,
        })
        assert main(["simulate", "--config", cfg]) == 1
        assert "profile" in capsys.readouterr().err

    @pytest.mark.parametrize("config, settings, field", [
        ("reference_simulation", ['simulate.profile="bogus"'],
         "simulate.profile"),
        ("reference_simulation",
         [f"simulate.profile={json.dumps([{'at_period': 1}] * 8)}"],
         "simulate.profile"),
        ("reference_simulation", ["simulate.mode=benchmark",
                                  "simulate.benchmark=fixed",
                                  'simulate.fixed=["a", 1, 2]'],
         "simulate.fixed"),
        ("strategy_beta_comparison", ["simulate.T=null"], "simulate.T"),
    ])
    def test_bad_fields_are_config_errors(self, capsys, config, settings,
                                          field):
        argv = ["simulate", "--config", str(CONFIGS / f"{config}.json")]
        for setting in settings:
            argv += ["--set", setting]
        assert main(argv) == 1
        assert f"config error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("settings", [
        ['simulate.design={"T": 1.0, "p0": 3.0, "p1": -2.0}'],
        ["simulate.mode=benchmark", "simulate.benchmark=fixed",
         "simulate.fixed=[1.0, 3.0, -2.0]"],
    ])
    def test_prices_outside_the_range_are_config_errors(self, capsys,
                                                        settings):
        argv = ["simulate", "--config",
                str(CONFIGS / "reference_simulation.json"), "--horizon", "50"]
        for setting in settings:
            argv += ["--set", setting]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("config error: simulate: design prices must satisfy "
                       "p_low <= p1 <= p0 <= p_high\n")

    def test_unknown_benchmark(self, tmp_path, capsys):
        cfg = reference_config(tmp_path, simulate={
            "mode": "benchmark", "benchmark": "magic", "horizon": 10,
        })
        assert main(["simulate", "--config", cfg]) == 1

    def test_unknown_mode(self, tmp_path, capsys):
        cfg = reference_config(tmp_path, simulate={"mode": "dream"})
        assert main(["simulate", "--config", cfg]) == 1
        assert "mode" in capsys.readouterr().err


class TestSweepCommand:
    def test_degree_error_grid(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config",
                     str(CONFIGS / "degree_error_sweep.json"),
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["d", "w0"]
        assert len(lines) == 19
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        norm = {(int(r["d"]), float(r["w0"])): float(r["normalized_cost"])
                for r in rows}
        for w0 in (0.1, 0.2, 0.3):
            for d in range(5, 10):
                assert norm[(d + 1, w0)] < norm[(d, w0)]
        for d in range(5, 11):
            assert norm[(d, 0.1)] < norm[(d, 0.2)] < norm[(d, 0.3)]

    def test_json_format(self, tmp_path, capsys):
        cfg = reference_config(tmp_path, sweep={
            "parameters": {"w0": [0.1, 0.2]},
        })
        assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        assert rows[0]["w0"] == 0.1
        assert rows[0]["g_star"] < rows[1]["g_star"]

    def test_unknown_parameter(self, tmp_path, capsys):
        cfg = reference_config(tmp_path, sweep={
            "parameters": {"phase_of_moon": [1]},
        })
        assert main(["sweep", "--config", cfg]) == 1

    @pytest.mark.parametrize("section, parameters, name", [
        ({"network": {"kind": "core_periphery", "cores": 4,
                      "periphery_per_core": 1, "rate": 1.0}},
         {"n": [4, 8, 12]}, "n"),
        ({"network": {"kind": "regular", "degree": 5, "rate": 1.0}},
         {"n": [4, 8]}, "n"),
        ({"network": {"kind": "matrix", "rates": [[0, 1], [1, 0]]}},
         {"n": [4, 8]}, "n"),
        ({}, {"d": [5, 6], "n": [4, 8]}, "n"),  # d makes the net regular
        ({}, {"n": [4, 8], "d": [5, 6]}, "n"),
        ({"monitoring": {"kind": "tabulated",
                         "points": [[0.0, 0.4], [10.0, 0.0]]}},
         {"w0": [0.1, 0.5, 2.0]}, "w0"),
    ])
    def test_unread_parameter_exits_1(self, tmp_path, capsys, monkeypatch,
                                      section, parameters, name):
        # refused before any point is evaluated, not printed as equal rows
        def evaluated(*args):
            raise AssertionError("a point was evaluated")

        monkeypatch.setattr(cli, "_sweep_point", evaluated)
        cfg = reference_config(tmp_path, sweep={"parameters": parameters},
                               **section)
        assert main(["sweep", "--config", cfg]) == 1
        assert f"config error: sweep.parameters.{name}:" in \
            capsys.readouterr().err

    def test_ring_lattice_reads_n_with_d(self, tmp_path, capsys):
        cfg = reference_config(
            tmp_path, network={"kind": "ring_lattice", "n": 8, "degree": 2,
                               "rate": 1.0},
            sweep={"parameters": {"d": [2, 4], "n": [8, 10]}})
        assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [(r["d"], r["n"]) for r in rows] == [(2, 8), (2, 10), (4, 8),
                                                   (4, 10)]

    def test_deterministic_row_order(self, tmp_path, capsys):
        cfg = reference_config(tmp_path, sweep={
            "parameters": {"n": [4, 5, 6], "w0": [0.1, 0.2]},
        })
        assert main(["sweep", "--config", cfg, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        key = [(r["n"], r["w0"]) for r in rows]
        assert key == [(4, 0.1), (4, 0.2), (5, 0.1), (5, 0.2),
                       (6, 0.1), (6, 0.2)]

    def test_config_left_unmodified(self):
        cfg = {
            "environment": {"p_high": 0.3, "p_low": 0.05, "c": 0.3,
                            "beta": 0.2},
            "monitoring": {"kind": "rational", "w0": 0.1},
            "network": {"kind": "complete", "n": 8, "rate": 1.0},
            "sweep": {"parameters": {"d": [3, 4], "w0": [0.1, 0.2],
                                     "beta": [0.1, 0.3]}},
        }
        before = json.dumps(cfg)
        args = argparse.Namespace(format="json")
        rows = json.loads(cli.cmd_sweep(cfg, args)[0])
        assert json.dumps(cfg) == before
        assert [r["n"] for r in rows] == [4] * 4 + [5] * 4

    @pytest.mark.parametrize("degrees", [[1, True], [True, 1]])
    def test_bool_after_equal_int_is_rejected(self, tmp_path, capsys,
                                              degrees):
        # True == 1, but the network built for d = 1 is not reused for it
        cfg = reference_config(tmp_path, sweep={
            "parameters": {"d": degrees}})
        assert main(["sweep", "--config", cfg]) == 1
        assert "config error: network.degree: expected an integer, got " \
            "True" in capsys.readouterr().err

    def test_path_network_is_read_once(self, tmp_path, capsys, monkeypatch):
        edges = tmp_path / "edges.csv"
        edges.write_text("1,2,1.0\n2,3,2.0\n3,4,3.0\n4,1,1.5\n")
        reads = []
        csv_rows = cli._csv_rows
        monkeypatch.setattr(cli, "_csv_rows",
                            lambda path: reads.append(path) or csv_rows(path))
        cfg = reference_config(
            tmp_path, network={"kind": "edges", "path": str(edges)},
            sweep={"parameters": {"w0": [0.05 * k for k in range(1, 11)]}})
        assert main(["sweep", "--config", cfg]) == 0
        assert reads == [str(edges)]
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11 and all(",4," in line for line in lines[1:])

    @pytest.mark.parametrize("name", ["benchmark_error_sweep",
                                      "degree_error_sweep", "tabulated_sweep"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reuse_prints_what_fresh_builds_print(self, capsys, monkeypatch,
                                                  name, fmt):
        # each section is built once per distinct value of the parameters
        # that write it, and the rows are those of points built afresh
        argv = ["sweep", "--config", str(CONFIGS / f"{name}.json"),
                "--format", fmt]
        builds = []
        for section in ("environment", "monitoring", "network"):
            build = getattr(cli, f"_build_{section}")
            monkeypatch.setattr(
                cli, f"_build_{section}",
                lambda cfg, section=section, build=build:
                builds.append(section) or build(cfg))
        assert main(argv) == 0
        reused = capsys.readouterr().out
        params = json.loads((CONFIGS / f"{name}.json").read_text())[
            "sweep"]["parameters"]
        points = math.prod(map(len, params.values()))
        for section in ("environment", "monitoring", "network"):
            swept = [v for p, v in params.items()
                     if cli._SWEEP_SECTIONS[p] == section]
            assert builds.count(section) == math.prod(map(len, swept))
        sweep_point = cli._sweep_point
        monkeypatch.setattr(cli, "_sweep_point",
                            lambda cfg, names, values, built:
                            sweep_point(cfg, names, values, {}))
        builds.clear()
        assert main(argv) == 0
        assert capsys.readouterr().out == reused
        assert len(builds) == 3 * points

    def test_subset_and_prices_once_per_network(self, monkeypatch):
        # degree_error_sweep: 6 degrees by 3 w0s, one environment; the
        # subset, its critical traffic and the first best are read once
        # for each of the 6 networks
        calls = []
        for name in ("_build_subset", "critical_traffic", "first_best"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name,
                                lambda *a, name=name, real=real:
                                calls.append(name) or real(*a))
        assert main(["sweep", "--config",
                     str(CONFIGS / "degree_error_sweep.json")]) == 0
        assert sorted(calls) == sorted(
            ["_build_subset", "critical_traffic", "first_best"] * 6)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = reference_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "mutualsec", "design", "--config", cfg],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["feasible"]

    def test_closed_stdout_pipe(self, tmp_path):
        cfg = reference_config(tmp_path)
        with subprocess.Popen(
                [sys.executable, "-m", "mutualsec", "design", "--config", cfg],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=child_env()) as proc:
            proc.stdout.close()  # the reader leaves before the child writes
            err = proc.stderr.read()
            assert proc.wait() == 0
        assert err == b""


    def test_reader_leaving_mid_output(self):
        # the report (a 10,000-period time series) is far larger than a
        # pipe's buffer, so the write fails part way through
        with subprocess.Popen(
                [sys.executable, "-m", "mutualsec", "simulate", "--config",
                 str(CONFIGS / "reference_simulation.json"),
                 "--set", "simulate.time_series=true"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env=child_env()) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait() == 0
        assert err == b""

    @pytest.mark.parametrize("argv, code", [
        (["mct", "--config", str(CONFIGS / "square_mct_true.json")], 0),
        (["design", "--config", str(CONFIGS / "reference_design.json"),
          "--set", "environment.c=9"], 2),
    ])
    def test_closed_stdout_keeps_the_exit_code(self, argv, code):
        # the read end is closed before the child starts, so its first
        # write to stdout fails with a broken pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "mutualsec", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE,
                                  env=child_env())
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, b"")


class TestOneBasedIndices:
    """README: AS indices are 1-based in configs and in all output, so each
    printed index is the library's 0-based one plus one."""

    @staticmethod
    def instance(name):
        # the instance of a bundled edges config, read by the library
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        net = cfg["network"]
        tm = TrafficMatrix.from_edges(
            net["n"], [(i - 1, j - 1, r) for i, j, r in net["edges"]])
        if "environment" not in cfg:
            return tm
        return (Environment(**cfg["environment"]),
                MonitoringModel.rational(cfg["monitoring"]["w0"]), tm)

    @staticmethod
    def ones(indices):
        return [i + 1 for i in indices]

    def run(self, capsys, *argv):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    def design_fields(self, result):
        return {"subset": self.ones(result.subset.members),
                "binding_as": (None if result.binding_as is None
                               else result.binding_as + 1)}

    def assert_design(self, printed, result):
        assert {k: printed[k] for k in ("subset", "binding_as")} == \
            self.design_fields(result)

    def test_search_commands(self, capsys):
        six = str(CONFIGS / "six_as_deletion.json")
        env, mon, tm = self.instance("six_as_deletion")
        out = self.run(capsys, "design", "--config", six,
                       "--set", "subset=[3,4,6]")
        lib = optimal_design(env, mon, tm, Subset.of([2, 3, 5]))
        assert out["subset"] == [3, 4, 6] and lib.binding_as is not None
        self.assert_design(out, lib)

        out = self.run(capsys, "id", "--config", six)
        lib = iterative_deletion(env, mon, tm)
        assert out["subset"] == self.ones(lib.subset.members) == [3, 4, 5, 6]
        self.assert_design(out["design"], lib.design)
        for printed, it in zip(out["iterations"], lib.trace.iterations,
                               strict=True):
            assert printed["subset"] == self.ones(it.subset.members)
            assert printed["critical_ases"] == self.ones(it.critical_ases)
            if it.design is not None:
                self.assert_design(printed["design"], it.design)

        out = self.run(capsys, "bruteforce", "--config", six)
        lib = brute_force_optimal(env, mon, tm)
        assert len(lib.subset) < tm.n
        assert out["subset"] == self.ones(lib.subset.members)
        self.assert_design(out["design"], lib.design)

        out = self.run(capsys, "mct", "--config",
                       str(CONFIGS / "square_mct_false.json"))
        _, witness = has_mct(self.instance("square_mct_false"))
        assert out["witness"] == self.ones(witness.members) == [2, 3, 4]

    @pytest.mark.parametrize("profile", ["compliant", "grim-trigger"])
    def test_simulated_design_subset(self, capsys, monkeypatch, profile):
        reports = []
        real = cli.simulate
        monkeypatch.setattr(cli, "simulate",
                            lambda *a, **k: reports.append(real(*a, **k))
                            or reports[-1])
        out = self.run(capsys, "simulate", "--config",
                       str(CONFIGS / "reference_simulation.json"),
                       "--set", "subset=[2,3,4]", "--horizon", "5",
                       "--set", f"simulate.profile={json.dumps(profile)}")
        assert out["meta"]["design"]["subset"] == [2, 3, 4]
        # the report itself keeps the library's indices
        assert reports[0].meta["design"]["subset"] == [1, 2, 3]

    def test_tit_for_tat_deploying(self, tmp_path, capsys):
        # a star whose hub is AS 3: only the hub deploys
        cfg = reference_config(tmp_path, network={
            "kind": "edges", "n": 5,
            "edges": [[3, 1, 2.0], [3, 2, 2.0], [3, 4, 2.0], [3, 5, 2.0]]},
            simulate={"design": {"T": 5.0, "p0": 0.2, "p1": 0.05},
                      "profile": "tit-for-tat", "horizon": 5})
        out = self.run(capsys, "simulate", "--config", cfg)
        assert out["meta"]["deploying"] == [3]

    def test_benchmark_keeps_the_report_meta(self, capsys, monkeypatch):
        # run_benchmark copies the simulated meta shallowly, so the CLI
        # must not convert the design block in place
        reports = []
        real = cli.run_benchmark
        monkeypatch.setattr(cli, "run_benchmark",
                            lambda *a, **k: reports.append(real(*a, **k))
                            or reports[-1])
        out = self.run(capsys, "simulate", "--config",
                       str(CONFIGS / "reference_simulation.json"),
                       "--horizon", "5", "--set", 'simulate.mode="benchmark"',
                       "--set", 'simulate.benchmark="optimal"')
        assert out["meta"]["design"]["subset"] == list(range(1, 9))
        assert reports[0].meta["design"]["subset"] == list(range(8))


class TestJsonOnlyCommands:
    @pytest.mark.parametrize("command", ["design", "mct", "id", "bruteforce"])
    def test_csv_exits_1_before_any_section(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {})
        assert main([command, "--config", cfg, "--format", "csv"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("config error: format: only json is supported for "
                       "this command\n")

    @pytest.mark.parametrize("mode", ["profile", "benchmark"])
    def test_simulate_single_runs_are_json_only(self, capsys, mode):
        # checked once horizon, seed and time_series are read
        argv = ["simulate", "--config",
                str(CONFIGS / "reference_simulation.json"), "--format", "csv",
                "--set", f"simulate.mode={mode}"]
        assert main(argv) == 1
        assert "config error: format:" in capsys.readouterr().err
        assert main(argv + ["--horizon", "0"]) == 1
        assert "config error: --horizon:" in capsys.readouterr().err


class TestRepeatedCalls:
    def test_override_does_not_reach_the_next_call(self, tmp_path, capsys):
        # main builds its parser once per process
        cfg = reference_config(tmp_path)
        assert main(["design", "--config", cfg,
                     "--set", "environment.c=0.2"]) == 0
        first = capsys.readouterr().out
        assert main(["design", "--config", cfg]) == 0
        second = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "mutualsec", "design", "--config", cfg],
            capture_output=True, text=True, env=child_env(), check=True)
        assert second == fresh.stdout != first


class TestUsageErrors:
    # argparse's own exit code, 2, would read as "no feasible design"
    @pytest.mark.parametrize("argv", [
        ["design", "--config", str(CONFIGS / "reference_design.json"),
         "--bogus"],
        ["design"],
        ["nosuchcommand"],
        ["simulate", "--config", str(CONFIGS / "reference_simulation.json"),
         "--horizon", "ten"],
    ])
    def test_exit_1(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage: mutualsec" in capsys.readouterr().err

    @pytest.mark.parametrize("command, config", [
        ("design", "reference_design"),
        ("mct", "square_mct_true"),
        ("id", "six_as_deletion"),
        ("bruteforce", "six_as_deletion"),
        ("threshold", "core_periphery_threshold"),
        ("sweep", "benchmark_error_sweep"),
    ])
    def test_seed_is_simulate_only(self, capsys, command, config):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(CONFIGS / f"{config}.json"),
                  "--seed", "5"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


class TestInternalError:
    def test_exit_3(self, capsys, monkeypatch):
        # an exception that is not a config error names its type on stderr
        # and leaves stdout empty
        def broken(cfg, args):
            raise KeyError("lost")

        monkeypatch.setitem(cli._COMMANDS, "mct",
                            (broken, cli._COMMANDS["mct"][1]))
        code = main(["mct", "--config",
                     str(CONFIGS / "square_mct_true.json")])
        out, err = capsys.readouterr()
        assert code == 3
        assert err == "internal error: KeyError: 'lost'\n"
        assert out == ""


GOLDEN = Path(__file__).with_name("cli_golden.json")
BUNDLED_RUNS = [
    ("design", "reference_design"),
    ("mct", "square_mct_true"),
    ("mct", "square_mct_false"),
    ("id", "six_as_deletion"),
    ("bruteforce", "six_as_deletion"),
    ("threshold", "core_periphery_threshold"),
    ("simulate", "reference_simulation"),
    ("simulate", "strategy_beta_comparison"),
    ("sweep", "benchmark_error_sweep"),
    ("sweep", "degree_error_sweep"),
    ("sweep", "tabulated_sweep"),
]
# A float literal: digits with a fraction or an exponent.  Integers stay
# part of the text, which must match exactly.
FLOAT = re.compile(r"(-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+))")


def assert_same_output(got: str, want: str, label: str):
    """Equal text outside float literals; floats within 1e-12 relative."""
    got_parts, want_parts = FLOAT.split(got), FLOAT.split(want)
    assert got_parts[0::2] == want_parts[0::2], label
    got_floats = [float(v) for v in got_parts[1::2]]
    want_floats = [float(v) for v in want_parts[1::2]]
    assert got_floats == pytest.approx(want_floats, rel=1e-12, abs=0), label


class TestBundledRuns:
    def test_outputs_match_golden(self, capsys):
        # cli_golden.json holds each bundled run's exit code, stdout and
        # stderr as printed before the typed config reader.  The design
        # and sweep runs print design-kernel output alone, which
        # design_golden.json pins bit for bit, so their text must match
        # exactly.
        golden = json.loads(GOLDEN.read_text())
        assert [f"{c}:{n}" for c, n in BUNDLED_RUNS] == list(golden)
        for command, name in BUNDLED_RUNS:
            label = f"{command}:{name}"
            code = main([command, "--config", str(CONFIGS / f"{name}.json")])
            out, err = capsys.readouterr()
            want = golden[label]
            assert (code, err) == (want["code"], want["stderr"]), label
            if command in ("design", "sweep"):
                assert out == want["stdout"], label
            assert_same_output(out, want["stdout"], label)


class TestTypedFields:
    @pytest.mark.parametrize("command, config, setting, field", [
        ("design", "reference_design", "network.rate=true", "network.rate"),
        ("design", "reference_design", "environment.beta=true",
         "environment.beta"),
        ("design", "reference_design", "monitoring.w0=true", "monitoring.w0"),
        ("threshold", "core_periphery_threshold", "threshold.rate=true",
         "threshold.rate"),
        ("simulate", "reference_simulation",
         'simulate.design={"T": true, "p0": 0.2, "p1": 0.05}',
         "simulate.design.T"),
        ("simulate", "strategy_beta_comparison", "simulate.beta_grid=[true]",
         "simulate.beta_grid"),
        ("mct", "square_mct_true",
         'network={"kind": "matrix", "rates": [[0, true], [1, 0]]}',
         "network.rates"),
        ("sweep", "benchmark_error_sweep",
         'sweep={"parameters": {"w0": [true]}}', "monitoring.w0"),
        # a list value cannot key the sections a sweep reuses
        ("sweep", "benchmark_error_sweep",
         'sweep={"parameters": {"w0": [0.1, [0.2]]}}', "monitoring.w0"),
        ("design", "reference_design", "subset=[true, 2]", "subset"),
        ("mct", "square_mct_true", "network.edges=[[1.5, 2, 1.0]]",
         "network.edges"),
        ("mct", "square_mct_true", 'network.directed="false"',
         "network.directed"),
        ("simulate", "reference_simulation", 'simulate.time_series="no"',
         "simulate.time_series"),
        ("mct", "square_mct_true", "network.edges=[[1, 2]]", "network.edges"),
        ("simulate", "reference_simulation",
         'simulate.design={"T": null, "p0": 0.2, "p1": 0.05}',
         "simulate.design.T"),
        ("simulate", "strategy_beta_comparison", "simulate.beta_grid=2",
         "simulate.beta_grid"),
        ("simulate", "reference_simulation", "simulate.profile="
         + json.dumps([{"kind": "one-shot-deviator", "at_period": 1.5}]
                      + ["compliant"] * 7),
         "simulate.profile.at_period"),
        ("mct", "square_mct_true", 'network.edges=[["a", 2, 1.0]]',
         "network.edges"),
        ("design", "reference_design", 'monitoring={"kind": "tabulated", '
         '"points": [[0, 0.4, 9], [1, 0.2]]}', "monitoring.points"),
    ])
    def test_misread_values_are_config_errors(self, capsys, command, config,
                                              setting, field):
        code = main([command, "--config", str(CONFIGS / f"{config}.json"),
                     "--set", setting])
        assert code == 1
        assert f"config error: {field}:" in capsys.readouterr().err
