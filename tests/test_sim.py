import dataclasses
import hashlib
import json
import math
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

from support import reference_instance

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

    @pytest.mark.parametrize("kind,n,horizon", [
        ("tit-for-tat", 40, 10_000),
        ("compliant", 8, 200_000),
    ])
    def test_memory_does_not_grow_with_horizon(self, kind, n, horizon):
        import tracemalloc

        env, mon, tm = reference_instance(n=n)
        d = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(n))
        profile = BehaviorProfile.uniform(n, kind)
        tracemalloc.start()
        try:
            simulate(d, profile, env, mon, tm, horizon, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
