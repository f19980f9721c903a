import dataclasses
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mutualsec import (
    Behavior,
    BehaviorProfile,
    Environment,
    MonitoringModel,
    RatingDesign,
    Subset,
    TrafficMatrix,
    deviation_gain,
    first_best,
    optimal_design,
    run_benchmark,
    run_strategy_comparison,
    security_cost,
    simulate,
)

from support import (
    reference_instance,
    whole_horizon_rating_run,
    whole_horizon_tft_run,
    whole_horizon_trigger_run,
)

PERFECT = MonitoringModel.tabulated([(0.0, 0.0), (10.0, 0.0)])


def reference_design():
    env, mon, tm = reference_instance()
    return optimal_design(env, mon, tm).design(), env, mon, tm


class TestBehaviorProfile:
    def test_kinds_validated(self):
        with pytest.raises(ValueError):
            Behavior("slacker")
        with pytest.raises(ValueError):
            Behavior("one-shot-deviator")
        with pytest.raises(ValueError):
            Behavior("compliant", at_period=3)
        b = Behavior("one-shot-deviator", at_period=2)
        assert b.at_period == 2

    @pytest.mark.parametrize("at_period", [1.5, True, "3"])
    def test_one_shot_period_must_be_an_integer(self, at_period):
        with pytest.raises(ValueError, match="integer at_period"):
            Behavior("one-shot-deviator", at_period=at_period)

    def test_constructors(self):
        p = BehaviorProfile.compliant(4)
        assert len(p) == 4
        assert set(p.kinds()) == {"compliant"}
        q = p.replace(2, Behavior("never-deploy"))
        assert q.kinds()[2] == "never-deploy"
        assert p.kinds()[2] == "compliant"

    def test_length_checked(self):
        d, env, mon, tm = reference_design()
        with pytest.raises(ValueError, match="behaviors"):
            simulate(d, BehaviorProfile.compliant(5), env, mon, tm, 10, 0)

    def test_pairwise_schemes_must_be_uniform(self):
        d, env, mon, tm = reference_design()
        mixed = BehaviorProfile.compliant(8).replace(
            0, Behavior("tit-for-tat"))
        with pytest.raises(ValueError, match="uniform"):
            simulate(d, mixed, env, mon, tm, 10, 0)


class TestDeterminism:
    def test_same_seed_same_report(self):
        d, env, mon, tm = reference_design()
        for kind in ("compliant", "grim-trigger", "tit-for-tat"):
            p = BehaviorProfile.uniform(8, kind)
            a = simulate(d, p, env, mon, tm, 300, 42, time_series=True)
            b = simulate(d, p, env, mon, tm, 300, 42, time_series=True)
            assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        d, env, mon, tm = reference_design()
        p = BehaviorProfile.compliant(8)
        a = simulate(d, p, env, mon, tm, 300, 1)
        b = simulate(d, p, env, mon, tm, 300, 2)
        assert a.avg_cost != b.avg_cost


class TestArguments:
    @pytest.mark.parametrize("name", ["horizon", "seed"])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True), 2.0,
                                       np.float64(3.0), "3", None])
    def test_rejects_non_integers(self, name, value):
        d, env, mon, tm = reference_design()
        args = {"horizon": 5, "seed": 0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            simulate(d, BehaviorProfile.compliant(8), env, mon, tm,
                     args["horizon"], args["seed"])

    def test_numpy_integers_are_stored_as_int(self):
        d, env, mon, tm = reference_design()
        p = BehaviorProfile.compliant(8)
        rep = simulate(d, p, env, mon, tm, np.int64(3), np.uint32(7))
        assert type(rep.horizon) is int and type(rep.seed) is int
        assert json.loads(rep.to_json())["seed"] == 7
        assert rep.to_dict() == simulate(d, p, env, mon, tm, 3, 7).to_dict()


class TestRatingPath:
    def test_single_period_accounting(self):
        # ratings start high, so the first period's books are exact
        env, _, _ = reference_instance()
        tm = TrafficMatrix.complete(4, 1.0)
        d = RatingDesign(2.0, 0.2, 0.05, Subset.full(4))
        rep = simulate(d, BehaviorProfile.compliant(4), env,
                       MonitoringModel.rational(0.1), tm, 1, 0)
        expected = (0.05 * 3 + env.c) * 4
        assert rep.avg_cost == pytest.approx(expected, abs=1e-12)

    def test_error_free_monitor_matches_analytic_cost(self):
        env, _, tm = reference_instance()
        d = RatingDesign(5.0, 0.17, 0.05, Subset.full(8))
        rep = simulate(d, BehaviorProfile.compliant(8), env, PERFECT, tm,
                       500, 3)
        analytic = security_cost(d, env, PERFECT, tm)
        assert rep.avg_cost == pytest.approx(analytic, abs=1e-9)
        assert rep.rating_high_fraction == (1.0,) * 8

    def test_never_deploy_equals_cap_price_cost(self):
        env, mon, tm = reference_instance()
        d = RatingDesign(1.0, env.p_high, env.p_high, Subset.of([]))
        a = simulate(d, BehaviorProfile.never_deploy(8), env, mon, tm, 400, 0)
        b = simulate(d, BehaviorProfile.never_deploy(8), env, mon, tm, 400, 9)
        assert a.avg_cost == pytest.approx(16.8, abs=1e-9)
        # costs carry no sampling noise, so seeds cannot change them
        assert a.avg_cost == b.avg_cost
        assert a.avg_cost_per_as == b.avg_cost_per_as

    def test_deviator_rating_tracks_error_rate(self):
        d, env, mon, tm = reference_design()
        p = BehaviorProfile.compliant(8).replace(
            2, Behavior("persistent-deviator"))
        rep = simulate(d, p, env, mon, tm, 20000, 5)
        eps = float(mon.epsilon(d.T))
        frac = rep.rating_high_fraction[2]
        # the deviator's signal reads high only when the monitor errs
        assert abs(frac - eps) < 5 * math.sqrt(eps * (1 - eps) / 20000) + 1e-4
        others = [rep.rating_high_fraction[i] for i in range(8) if i != 2]
        assert min(others) > 0.9

    def test_one_shot_deviation_is_local_in_time(self):
        d, env, mon, tm = reference_design()
        base = BehaviorProfile.compliant(8)
        dev = base.replace(0, Behavior("one-shot-deviator", at_period=5))
        a = simulate(d, base, env, mon, tm, 30, 11, time_series=True)
        b = simulate(d, dev, env, mon, tm, 30, 11, time_series=True)
        diff = np.nonzero(np.asarray(a.time_series["total_cost"])
                          != np.asarray(b.time_series["total_cost"]))[0]
        assert set(diff) <= {5, 6}

    def test_discounted_utility_sign_and_scale(self):
        d, env, mon, tm = reference_design()
        rep = simulate(d, BehaviorProfile.compliant(8), env, mon, tm, 200, 0)
        delta = math.exp(-env.beta * d.T)
        bound = max(rep.avg_cost_per_as) * d.T / (1 - delta)
        for u in rep.discounted_utility:
            assert -bound * 1.01 < u < 0

    def test_final_state(self):
        d, env, mon, tm = reference_design()
        rep = simulate(d, BehaviorProfile.compliant(8), env, mon, tm, 50, 0)
        st = rep.final_state
        assert st.period == 50
        assert len(st.ratings) == 8
        assert st.tft_grudges is None
        assert not st.trigger_fired


class TestTriggerPath:
    def test_perfect_monitor_never_fires(self):
        env, _, tm = reference_instance()
        d = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(8))
        rep = simulate(d, BehaviorProfile.uniform(8, "grim-trigger"),
                       env, PERFECT, tm, 500, 0)
        assert rep.punishment_fraction == 0.0
        assert not rep.final_state.trigger_fired
        assert rep.avg_cost == pytest.approx(first_best(env, tm), abs=1e-9)

    def test_noisy_monitor_fires_and_absorbs(self):
        env, mon, tm = reference_instance()
        d = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(8))
        rep = simulate(d, BehaviorProfile.uniform(8, "grim-trigger"),
                       env, mon, tm, 3000, 1, time_series=True)
        assert rep.punishment_fraction > 0.99
        assert rep.final_state.trigger_fired
        fired = np.asarray(rep.time_series["trigger_fired"], dtype=bool)
        first = int(np.argmax(fired))
        assert fired[first:].all()
        assert not fired[:first].any()
        # punished periods cost the cap price on all traffic
        costs = np.asarray(rep.time_series["total_cost"])
        assert costs[-1] == pytest.approx(16.8, abs=1e-9)

    def test_ratings_not_reported(self):
        env, mon, tm = reference_instance()
        d = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(8))
        rep = simulate(d, BehaviorProfile.uniform(8, "grim-trigger"),
                       env, mon, tm, 100, 0)
        assert rep.rating_high_fraction is None


class TestTitForTatPath:
    def test_deploys_when_patient(self):
        env, _, tm = reference_instance()
        d = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(8))
        rep = simulate(d, BehaviorProfile.uniform(8, "tit-for-tat"),
                       env, PERFECT, tm, 400, 0)
        assert rep.meta["deploying"] == list(range(8))
        # perfect observation means no spurious grudges
        assert rep.meta["mean_grudges_per_period"] == 0.0
        assert rep.avg_cost == pytest.approx(first_best(env, tm), abs=1e-9)

    def test_collapses_when_impatient(self):
        env, mon, tm = reference_instance()
        impatient = Environment(p_high=env.p_high, p_low=env.p_low,
                                c=env.c, beta=4.0)
        d = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(8))
        rep = simulate(d, BehaviorProfile.uniform(8, "tit-for-tat"),
                       impatient, mon, tm, 200, 0)
        assert rep.meta["deploying"] == []
        assert rep.avg_cost == pytest.approx(16.8, abs=1e-9)

    def test_noise_drives_grudges(self):
        env, mon, tm = reference_instance()
        d = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(8))
        rep = simulate(d, BehaviorProfile.uniform(8, "tit-for-tat"),
                       env, mon, tm, 10000, 2)
        eps = float(mon.epsilon(1.0))
        expected = eps * 8 * 7  # observable ordered pairs
        assert rep.meta["mean_grudges_per_period"] == \
            pytest.approx(expected, rel=0.05)

    def test_one_way_traffic_warns(self):
        env, mon, _ = reference_instance()
        tm = TrafficMatrix.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0),
                                          (0, 2, 1.0)], directed=True)
        d = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(3))
        with pytest.warns(UserWarning, match="reciprocal"):
            simulate(d, BehaviorProfile.uniform(3, "tit-for-tat"),
                     env, mon, tm, 10, 0)


class TestDeviationGain:
    def test_ic_design_never_profits(self):
        d, env, mon, tm = reference_design()
        g = deviation_gain(d, env, mon, tm, 0, horizon=1500, seeds=10)
        assert not g.significantly_positive
        assert g.as_index == 0
        assert len(g.gains) == 10
        assert g.mean == pytest.approx(g.deviant_mean - g.compliant_mean,
                                       abs=1e-12)

    def test_weak_design_detected(self):
        d, env, mon, tm = reference_design()
        weak = RatingDesign(d.T, d.p1 + (d.p0 - d.p1) / 2, d.p1, d.subset)
        g = deviation_gain(weak, env, mon, tm, 0, horizon=1500, seeds=10)
        assert g.significantly_positive
        assert g.mean > 0

    def test_seed_list_accepted(self):
        d, env, mon, tm = reference_design()
        g = deviation_gain(d, env, mon, tm, 1, horizon=200, seeds=[3, 5, 8])
        assert len(g.gains) == 3
        with pytest.raises(ValueError):
            deviation_gain(d, env, mon, tm, 1, horizon=200, seeds=[])

    @pytest.mark.parametrize("i", [-1, 8])
    def test_as_index_checked(self, i):
        d, env, mon, tm = reference_design()
        with pytest.raises(ValueError, match="out of range"):
            deviation_gain(d, env, mon, tm, i, horizon=10, seeds=1)


class TestBenchmarks:
    def test_no_otc_matches_rating_independent_exactly(self):
        env, mon, tm = reference_instance()
        a = run_benchmark("no-otc", env, mon, tm, 500, 7)
        b = run_benchmark("rating-independent", env, mon, tm, 500, 7)
        assert a.avg_cost == b.avg_cost
        assert a.avg_cost_per_as == b.avg_cost_per_as

    def test_ordering_on_reference(self):
        env, mon, tm = reference_instance()
        opt = run_benchmark("optimal", env, mon, tm, 20000, 3)
        wb = run_benchmark("worst-best", env, mon, tm, 20000, 3)
        nd = run_benchmark("no-otc", env, mon, tm, 20000, 3)
        assert opt.avg_cost < wb.avg_cost < nd.avg_cost
        assert nd.avg_cost == pytest.approx(16.8, abs=1e-9)

    def test_fixed_benchmark_branches(self):
        env, mon, tm = reference_instance()
        good = run_benchmark("fixed", env, mon, tm, 200, 0,
                             fixed=(5.0, env.p_high, env.p_low))
        assert "IC" in good.meta["note"]
        assert good.meta["design"]["subset"] == list(range(8))
        bad = run_benchmark("fixed", env, mon, tm, 200, 0,
                            fixed=(5.0, 0.06, env.p_low))
        assert bad.avg_cost == pytest.approx(16.8, abs=1e-9)
        with pytest.raises(ValueError):
            run_benchmark("fixed", env, mon, tm, 200, 0)

    def test_unknown_kind(self):
        env, mon, tm = reference_instance()
        with pytest.raises(ValueError):
            run_benchmark("free-lunch", env, mon, tm, 100, 0)

    def test_infeasible_falls_back(self):
        mon = MonitoringModel.rational(0.1)
        env = Environment(p_high=0.3, p_low=0.05, c=5.0, beta=0.2)
        tm = TrafficMatrix.complete(8, 1.0)
        rep = run_benchmark("optimal", env, mon, tm, 100, 0)
        assert rep.avg_cost == pytest.approx(16.8, abs=1e-9)
        assert "nobody deploys" in rep.meta["note"]


class TestStrategyComparison:
    def test_row_structure(self):
        env, mon, tm = reference_instance()
        rows = run_strategy_comparison("trigger", env, mon, tm, T=1.0,
                                       horizon=400, seeds=3,
                                       beta_grid=[0.2, 0.4])
        assert [r.beta for r in rows] == [0.2, 0.4]
        assert all(r.kind == "trigger" for r in rows)
        assert all(r.punishment_fraction is not None for r in rows)
        assert all(r.seeds == 3 for r in rows)

    def test_rating_kind_reoptimizes(self):
        env, mon, tm = reference_instance()
        rows = run_strategy_comparison("rating", env, mon, tm, T=1.0,
                                       horizon=2000, seeds=2,
                                       beta_grid=[0.2])
        r = optimal_design(env, mon, tm)
        assert rows[0].avg_cost == pytest.approx(r.j_star, rel=0.01)

    def test_rating_designs_once_per_beta(self, monkeypatch):
        # the design does not depend on the seed, so each beta prices it once
        from mutualsec import sim

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].beta)
            return optimal_design(*args, **kwargs)

        env, mon, tm = reference_instance()
        monkeypatch.setattr(sim, "optimal_design", counted)
        rows = run_strategy_comparison("rating", env, mon, tm, T=1.0,
                                       horizon=50, seeds=4,
                                       beta_grid=[0.2, 0.3])
        assert calls == [0.2, 0.3]
        assert [r.seeds for r in rows] == [4, 4]

    def test_infeasible_rating_runs_the_no_otc_benchmark(self):
        # c = 5 admits no IC design, so nobody deploys at either beta
        mon = MonitoringModel.rational(0.1)
        env = Environment(p_high=0.3, p_low=0.05, c=5.0, beta=0.2)
        tm = TrafficMatrix.complete(8, 1.0)
        rows = run_strategy_comparison("rating", env, mon, tm, T=1.0,
                                       horizon=60, seeds=[3, 4],
                                       beta_grid=[0.2, 0.5])
        for row in rows:
            env_b = Environment(0.3, 0.05, 5.0, row.beta)
            costs = [run_benchmark("no-otc", env_b, mon, tm, 60, s).avg_cost
                     for s in (3, 4)]
            assert row.avg_cost == np.mean(costs)
            assert row.avg_cost_std == np.std(costs, ddof=1)

    def test_tft_costs_do_not_depend_on_the_seed_when_nobody_deploys(self):
        # the bundled comparison's instance: at beta 2.5 nobody deploys, so
        # every period costs the cap price on all traffic, 8 * 0.3 * 14
        env = Environment(p_high=0.3, p_low=0.05, c=0.3, beta=2.5)
        mon = MonitoringModel.rational(0.1)
        tm = TrafficMatrix.complete(8, 2.0)
        rows = run_strategy_comparison("tft", env, mon, tm, T=1.0,
                                       horizon=4000, seeds=6,
                                       beta_grid=[2.5])
        assert rows[0].avg_cost_std == 0.0
        assert rows[0].avg_cost == pytest.approx(33.6, rel=1e-15)

    @pytest.mark.parametrize("seeds", [0, []])
    def test_needs_a_seed(self, seeds):
        env, mon, tm = reference_instance()
        with pytest.raises(ValueError, match="at least one seed"):
            run_strategy_comparison("trigger", env, mon, tm, T=1.0,
                                    horizon=10, seeds=seeds, beta_grid=[0.2])

    def test_unknown_kind(self):
        env, mon, tm = reference_instance()
        with pytest.raises(ValueError):
            run_strategy_comparison("bribery", env, mon, tm, T=1.0,
                                    horizon=10, seeds=1, beta_grid=[0.2])


class TestTimeSeries:
    def test_columns_and_csv(self, tmp_path):
        d, env, mon, tm = reference_design()
        rep = simulate(d, BehaviorProfile.compliant(8), env, mon, tm, 40, 0,
                       time_series=True)
        ts = rep.time_series
        assert set(ts) == {"period", "total_cost", "trigger_fired",
                           "mean_rating"}
        assert len(ts["total_cost"]) == 40
        path = tmp_path / "ts.csv"
        rep.write_time_series_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "period,total_cost,trigger_fired,mean_rating"
        assert len(lines) == 41
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(ts["total_cost"][0])

    def test_requires_time_series_run(self):
        d, env, mon, tm = reference_design()
        rep = simulate(d, BehaviorProfile.compliant(8), env, mon, tm, 10, 0)
        with pytest.raises(ValueError):
            rep.write_time_series_csv("/tmp/nope.csv")

    def test_json_round_trip(self):
        d, env, mon, tm = reference_design()
        rep = simulate(d, BehaviorProfile.uniform(8, "grim-trigger"),
                       env, mon, tm, 30, 0, time_series=True)
        parsed = json.loads(rep.to_json())
        assert parsed["avg_cost"] == rep.avg_cost
        # rating columns are null for schemes without ratings
        assert parsed["time_series"]["mean_rating"][0] is None


# ---- streamed runs ---------------------------------------------------------

GOLDEN = Path(__file__).with_name("sim_golden.json")


def _golden_cases():
    """Named simulate() argument tuples whose horizons fall before, on and
    across block edges, covering every behavior kind and all three paths."""
    env, mon, tm = reference_instance()
    rated = optimal_design(env, mon, tm).design()
    plan = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(8))
    mixed = BehaviorProfile((
        Behavior("one-shot-deviator", at_period=0),
        Behavior("compliant"),
        Behavior("persistent-deviator"),
        Behavior("one-shot-deviator", at_period=8192),
        Behavior("compliant"),
        Behavior("never-deploy"),
        Behavior("always-deploy"),
        Behavior("one-shot-deviator", at_period=1024),
    ))
    quiet = MonitoringModel.rational(1e-5)  # grim trigger fires late
    runs = {
        "compliant": (rated, BehaviorProfile.compliant(8), mon),
        "mixed": (rated, mixed, mon),
        "trigger": (plan, BehaviorProfile.uniform(8, "grim-trigger"), mon),
        "trigger-quiet": (plan, BehaviorProfile.uniform(8, "grim-trigger"),
                          quiet),
        "tft": (plan, BehaviorProfile.uniform(8, "tit-for-tat"), mon),
    }
    for name, (design, profile, monitor) in runs.items():
        for horizon in (1, 1025, 8193, 30000):
            for seed in (2, 4):
                yield (f"{name}/H={horizon}/seed={seed}",
                       (design, profile, env, monitor, tm, horizon, seed))
    tm40 = TrafficMatrix.complete(40, 1.0)
    plan40 = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(40))
    for seed in (2, 4):
        yield (f"tft-n40/H=1000/seed={seed}",
               (plan40, BehaviorProfile.uniform(40, "tit-for-tat"), env, mon,
                tm40, 1000, seed))


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()


def _fingerprint(rep) -> dict:
    """JSON-ready summary of a time-series report: every report field, the
    final state, the integer time-series columns as digests, and the
    total-cost column sampled at fixed periods plus its sum."""
    out = rep.to_dict()
    del out["time_series"]
    out["final_state"] = json.loads(json.dumps(dataclasses.asdict(
        rep.final_state)))
    ts = rep.time_series
    h, n = rep.horizon, len(rep.avg_cost_per_as)
    cost = np.asarray(ts["total_cost"])
    rating = np.asarray(ts["mean_rating"], dtype=float)
    picks = {0, 1, h - 2, h - 1, *range(0, h, max(1, h // 16))}
    picks |= {m + d for m in (1024, 8192, 16384, 24576) for d in (-1, 0, 1)}
    out["ts"] = {
        "period": _digest(ts["period"]),
        "trigger_fired": _digest(ts["trigger_fired"]),
        "high_ratings": _digest(np.where(np.isnan(rating), -1,
                                         np.rint(rating * n))),
        "total_cost_sum": float(cost.sum()),
        "total_cost": {str(k): float(cost[k]) for k in sorted(picks)
                       if 0 <= k < h},
    }
    return out


def _assert_matches(got, want, path="report"):
    """Integers, booleans, strings and None exactly; floats within 1e-12
    relative."""
    if isinstance(want, float):
        assert isinstance(got, float), path
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0), \
            f"{path}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), path
        for k in want:
            _assert_matches(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{k}]")
    else:
        assert type(got) is type(want) and got == want, \
            f"{path}: {got!r} != {want!r}"


class TestStreaming:
    """Runs are streamed in fixed-size period blocks; the reports must not
    depend on the block length."""

    def test_matches_whole_horizon_reports(self):
        # sim_golden.json holds _fingerprint of each case as reported by the
        # simulator before it was streamed (whole-horizon arrays).
        golden = json.loads(GOLDEN.read_text())
        cases = dict(_golden_cases())
        assert cases.keys() == golden.keys()
        for name, args in cases.items():
            rep = simulate(*args, time_series=True)
            _assert_matches(json.loads(json.dumps(_fingerprint(rep))),
                            golden[name], name)

    @pytest.mark.parametrize("elements", [1, 7, 64, 1000])
    def test_block_length_does_not_matter(self, monkeypatch, elements):
        from mutualsec import sim

        cases = [args for name, args in _golden_cases()
                 if "H=1025/" in name or name.startswith("tft-n40/")]
        default = [_fingerprint(simulate(*a, time_series=True))
                   for a in cases]
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", elements)
        for args, want in zip(cases, default):
            got = _fingerprint(simulate(*args, time_series=True))
            _assert_matches(got, want)

    @staticmethod
    def _peak_bytes(kind, n, horizon):
        """Traced peak of one uniform-profile run on the reference env."""
        env, mon, tm = reference_instance(n=n)
        d = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(n))
        profile = BehaviorProfile.uniform(n, kind)
        tracemalloc.start()
        try:
            simulate(d, profile, env, mon, tm, horizon, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("kind,n,horizon", [
        ("tit-for-tat", 40, 10_000),
        ("compliant", 8, 200_000),
        ("grim-trigger", 8, 200_000),
    ])
    def test_memory_does_not_grow_with_horizon(self, kind, n, horizon):
        assert self._peak_bytes(kind, n, horizon) < 16 * 2**20

    def test_tit_for_tat_block_allocates_no_float_cubes(self):
        # A block's observations fill one reused (b, n, n) float buffer of
        # about _BLOCK_ELEMENTS floats; no (b, n, n) float temporary is
        # built beside it.
        from mutualsec import sim

        peak = self._peak_bytes("tit-for-tat", 40, 10_000)
        assert peak < 2.5 * 8 * sim._BLOCK_ELEMENTS


# ---- whole-horizon reference -----------------------------------------------

def _assert_matches_reference(rep, ref, columns=("total_cost",)):
    """Every report field within 1e-12 relative (integers, None and
    strings exactly) and the given time-series columns likewise."""
    got = rep.to_dict()
    for key in ("horizon", "period_length", "seed", "avg_cost",
                "avg_cost_per_as", "discounted_utility",
                "rating_high_fraction", "punishment_fraction"):
        _assert_matches(got[key], ref[key], key)
    assert rep.final_state.period == rep.horizon
    for key in columns:
        np.testing.assert_allclose(rep.time_series[key], ref[key],
                                   rtol=1e-12, atol=0.0, err_msg=key)


def _shots(spec):
    """Profile of one-shot deviators at the given periods (None: compliant)."""
    return BehaviorProfile(tuple(
        Behavior("compliant") if t is None
        else Behavior("one-shot-deviator", at_period=t) for t in spec))


def _reference_cases():
    """Named simulate() argument tuples for the rating path: blocks with
    several ASs deviating in one period, discount weights that are exactly
    0.0, all normal, or subnormal where the only cost falls."""
    env, mon, tm = reference_instance()
    rated = optimal_design(env, mon, tm).design()
    # 8 ASs, 8192-period blocks: ASs deviate together at a block's first
    # period, its last and the next block's first.
    together = _shots([0, 0, 8191, 8191, 8192, 8192, 8192, None])
    partial = dataclasses.replace(rated, subset=Subset((0, 1, 2, 3, 4)))
    for name, design in (("full", rated), ("partial", partial)):
        for seed in (2, 4):
            yield (f"together/{name}/seed={seed}",
                   (design, together, env, mon, tm, 10_000, seed))
    plan = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(8))
    mixed = BehaviorProfile((
        Behavior("one-shot-deviator", at_period=3),
        Behavior("persistent-deviator"),
        Behavior("never-deploy"),
        Behavior("always-deploy"),
        *[Behavior("compliant")] * 4,
    ))
    for name, beta in (("delta=0", 800.0), ("delta~1", 1e-6)):
        env_b = dataclasses.replace(env, beta=beta)
        yield (f"{name}/together", (plan, together, env_b, mon, tm, 10_000, 1))
        yield (f"{name}/mixed", (plan, mixed, env_b, mon, tm, 20_000, 1))
    # 64 ASs, 1024-period blocks; AS 63 receives no traffic, so its only
    # cost is its one-shot deployment at period 1060, in a block whose
    # weights are all subnormal or zero.
    n = 64
    rates = np.ones((n, n)) - np.eye(n)
    rates[:, n - 1] = 0.0
    lonely = TrafficMatrix(rates)
    design = RatingDesign(1.0, env.p_high, env.p_low, Subset(tuple(range(63))))
    shot = _shots([None] * 63 + [1060])
    yield ("subnormal", (design, shot,
                         dataclasses.replace(env, beta=math.log(2.0)), mon,
                         lonely, 1100, 3))


class TestWholeHorizonReference:
    """Every report field against a from-scratch whole-horizon run."""

    @pytest.mark.parametrize("name,args", list(_reference_cases()),
                             ids=[name for name, _ in _reference_cases()])
    def test_matches_reference(self, name, args):
        ref = whole_horizon_rating_run(*args)
        rep = simulate(*args, time_series=True)
        _assert_matches_reference(rep, ref, ("total_cost", "mean_rating"))
        assert list(rep.final_state.ratings) == ref["final_ratings"]
        assert rep.final_state.tft_grudges is None
        assert not rep.final_state.trigger_fired

    def test_weight_regimes(self):
        cases = dict(_reference_cases())
        env = cases["delta=0/mixed"][2]
        assert math.exp(-env.beta * 1.0) == 0.0
        env = cases["delta~1/mixed"][2]
        assert math.exp(-env.beta * 1.0) ** 20_000 > 0.9
        # the lonely AS's utility is one subnormal discounted deployment
        rep = simulate(*cases["subnormal"])
        assert 0.0 < -rep.discounted_utility[63] < 2.0 ** -1022


def _plan(env, tm):
    return RatingDesign(1.0, env.p_high, env.p_low, Subset.full(tm.n))


def _tft_cases():
    """Named (design, env, mon, tm) tit-for-tat instances: ASs 0 and 1
    deploy and AS 2 does not; nobody deploys; one-way links, among them
    a filtered link that its sender cannot observe back."""
    env, mon, tm = reference_instance()
    mixed = TrafficMatrix([[0, 5, .1], [5, 0, .1], [.1, .1, 0]])
    one_way = TrafficMatrix([[0, 5, 1], [5, 0, 0], [0, 2, 0]])
    impatient = dataclasses.replace(env, beta=4.0)
    return {
        "mixed": (_plan(env, mixed), env, mon, mixed),
        "nobody": (_plan(env, tm), impatient, mon, tm),
        "one-way": (_plan(env, one_way), env, mon, one_way),
    }


def _trigger_cases():
    """Named (design, env, mon, tm) grim-trigger instances: a monitor that
    fires within a few periods, one that fires after the first block (or
    not at all), a perfect one and a partial deployment set."""
    env, mon, tm = reference_instance()
    plan = _plan(env, tm)
    partial = dataclasses.replace(plan, subset=Subset((0, 1, 2, 3, 4)))
    return {
        "noisy": (plan, env, mon, tm),
        "quiet": (plan, env, MonitoringModel.rational(1e-5), tm),
        "perfect": (plan, env, PERFECT, tm),
        "partial": (partial, env, mon, tm),
    }


def _edge_horizons(width):
    """Horizons of one and two periods and on each side of a block edge."""
    from mutualsec import sim

    edge = sim._BLOCK_ELEMENTS // width
    return [1, 2, edge - 1, edge, edge + 1]


def _horizon_cases(cases, width):
    return [(name, h) for name, (_, _, _, tm) in cases.items()
            for h in _edge_horizons(width(tm.n))]


def _assert_tft_matches(rep, ref):
    _assert_matches_reference(rep, ref)
    assert rep.meta["deploying"] == ref["deploying"]
    assert rep.meta["mean_grudges_per_period"] == \
        ref["mean_grudges_per_period"]
    assert list(rep.final_state.tft_grudges) == ref["tft_grudges"]


def _assert_trigger_matches(rep, ref):
    _assert_matches_reference(rep, ref)
    assert rep.meta["first_bad_period"] == ref["first_bad_period"]
    assert rep.final_state.trigger_fired == \
        (ref["first_bad_period"] < rep.horizon)
    np.testing.assert_array_equal(rep.time_series["trigger_fired"],
                                  ref["trigger_fired"])


@pytest.mark.filterwarnings("ignore:tit-for-tat punishment needs reciprocal")
class TestWholeHorizonTitForTat:
    """Tit-for-tat reports against a whole-horizon quality-array run."""

    def test_cases_cover_deployment_patterns(self):
        deploying = {name: whole_horizon_tft_run(*args, 5, 0)["deploying"]
                     for name, args in _tft_cases().items()}
        assert deploying == {"mixed": [0, 1], "nobody": [],
                             "one-way": [0, 1]}

    @pytest.mark.parametrize("name,horizon",
                             _horizon_cases(_tft_cases(), lambda n: n * n))
    @pytest.mark.parametrize("seed", [2, 4])
    def test_matches_reference(self, name, horizon, seed):
        design, env, mon, tm = _tft_cases()[name]
        profile = BehaviorProfile.uniform(tm.n, "tit-for-tat")
        rep = simulate(design, profile, env, mon, tm, horizon, seed,
                       time_series=True)
        _assert_tft_matches(rep, whole_horizon_tft_run(
            design, env, mon, tm, horizon, seed))

    @pytest.mark.parametrize("elements", [1, 7, 20])
    @pytest.mark.parametrize("name", list(_tft_cases()))
    def test_small_blocks(self, monkeypatch, name, elements):
        from mutualsec import sim

        design, env, mon, tm = _tft_cases()[name]
        profile = BehaviorProfile.uniform(tm.n, "tit-for-tat")
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", elements)
        rep = simulate(design, profile, env, mon, tm, 97, 3,
                       time_series=True)
        _assert_tft_matches(rep, whole_horizon_tft_run(design, env, mon, tm,
                                                       97, 3))


class TestWholeHorizonTrigger:
    """Grim-trigger reports against a whole-horizon cost-matrix run."""

    def test_cases_cover_firing_patterns(self):
        # first "deviate" signal of each case at seeds 2 and 4 over 20,000
        # periods (8192-period blocks)
        first = {name: [whole_horizon_trigger_run(*args, 20_000, seed)
                        ["first_bad_period"] for seed in (2, 4)]
                 for name, args in _trigger_cases().items()}
        assert first == {"noisy": [2, 0], "quiet": [19484, 14145],
                         "perfect": [20_000, 20_000], "partial": [2, 0]}

    @pytest.mark.parametrize(
        "name,horizon",
        _horizon_cases(_trigger_cases(), lambda n: n) + [("quiet", 20_000)])
    @pytest.mark.parametrize("seed", [2, 4])
    def test_matches_reference(self, name, horizon, seed):
        design, env, mon, tm = _trigger_cases()[name]
        profile = BehaviorProfile.uniform(tm.n, "grim-trigger")
        rep = simulate(design, profile, env, mon, tm, horizon, seed,
                       time_series=True)
        _assert_trigger_matches(rep, whole_horizon_trigger_run(
            design, env, mon, tm, horizon, seed))

    @pytest.mark.parametrize("elements", [1, 7, 20])
    @pytest.mark.parametrize("name", list(_trigger_cases()))
    def test_small_blocks(self, monkeypatch, name, elements):
        from mutualsec import sim

        design, env, mon, tm = _trigger_cases()[name]
        profile = BehaviorProfile.uniform(tm.n, "grim-trigger")
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", elements)
        rep = simulate(design, profile, env, mon, tm, 97, 3,
                       time_series=True)
        _assert_trigger_matches(rep, whole_horizon_trigger_run(
            design, env, mon, tm, 97, 3))
