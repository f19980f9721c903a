import dataclasses
import hashlib
import itertools
import json
import math
import re
import sys
import tracemalloc
import warnings
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
    ic_check,
    optimal_design,
    run_benchmark,
    run_strategy_comparison,
    security_cost,
    simulate,
)

from support import (
    drawn_flags,
    drawn_periods,
    live_periods,
    reference_deviation_gain,
    reference_instance,
    reference_strategy_comparison,
    settle_lag,
    settle_period,
    whole_horizon_rating_run,
    whole_horizon_tft_run,
    whole_horizon_trigger_run,
)

PERFECT = MonitoringModel.tabulated([(0.0, 0.0), (10.0, 0.0)])
COIN = MonitoringModel.tabulated([(0.0, 0.5), (10.0, 0.5)])  # eps = 1/2


def as_json(report) -> str:
    """A report's JSON text, as README tells library users to write it."""
    return json.dumps(report.to_dict())


def zero_weight_period(beta_t: float) -> int:
    """A bound past the first period whose discount weight exp(-beta_t)
    ** t underflows to 0.0, as the simulator's ledger takes it."""
    return math.ceil(1075 * math.log(2.0) / beta_t) + 1


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

    def test_rejects_a_horizon_below_one(self):
        d, env, mon, tm = reference_design()
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            simulate(d, BehaviorProfile.compliant(8), env, mon, tm, 0, 0)

    def test_rejects_a_horizon_beyond_64_bits(self):
        # the generator's counts are 64-bit; below 2**63 every path runs
        d, env, mon, tm = reference_design()
        for kind in ("compliant", "grim-trigger", "tit-for-tat"):
            profile = BehaviorProfile.uniform(8, kind)
            with pytest.raises(ValueError, match=r"horizon must be below "
                               r"2\*\*63, got 9223372036854775808$"):
                simulate(d, profile, env, mon, tm, 2**63, 0)
            rep = simulate(d, profile, env, mon, tm, 2**63 - 1, 0)
            assert math.isfinite(rep.avg_cost)

    @pytest.mark.parametrize("T, horizon", [
        (1e308, 4000),  # horizon * T is inf
        (1e306, 100),  # horizon * T is finite, the costs over it are not
    ])
    def test_rejects_cost_sums_that_overflow(self, T, horizon):
        env = Environment(p_high=0.3, p_low=0.05, c=0.3, beta=2.3)
        mon = MonitoringModel.rational(0.1)
        tm = TrafficMatrix.complete(8, 2.0)
        d = RatingDesign(T, env.p_high, env.p_low, Subset.full(8))
        match = re.escape(f"horizon {horizon} times T {T!r} overflows")
        for kind in ("compliant", "grim-trigger", "tit-for-tat"):
            with pytest.raises(ValueError, match=match):
                simulate(d, BehaviorProfile.uniform(8, kind), env, mon, tm,
                         horizon, 0)
        with pytest.raises(ValueError, match=match):
            run_strategy_comparison("tft", env, mon, tm, T, horizon, 2, [2.3])
        # within the float range it runs, warning-free: nobody deploys
        row, = run_strategy_comparison("tft", env, mon, tm, 1e300, 4000, 2,
                                       [2.3])
        assert (row.avg_cost, row.avg_cost_std) == (33.6, 0.0)

    def test_rejects_a_negative_seed(self):
        d, env, mon, tm = reference_design()
        with pytest.raises(ValueError, match="seed must be non-negative, "
                                             "got -1"):
            simulate(d, BehaviorProfile.compliant(8), env, mon, tm, 5, -1)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            deviation_gain(d, env, mon, tm, 0, 5, [0, -3])
        with pytest.raises(ValueError, match="seed must be non-negative"):
            run_strategy_comparison("tft", env, mon, tm, 1.0, 5, [-2], [0.2])

    @pytest.mark.parametrize("p0, p1", [(3.0, -2.0), (0.2, 0.0),
                                        (0.5, 0.05)])
    def test_rejects_prices_outside_the_range(self, p0, p1):
        # reference_instance has p_low 0.05 and p_high 0.3
        _, env, mon, tm = reference_design()
        d = RatingDesign(1.0, p0, p1, Subset.full(8))
        with pytest.raises(ValueError, match="design prices must satisfy"):
            simulate(d, BehaviorProfile.compliant(8), env, mon, tm, 5, 0)
        with pytest.raises(ValueError, match="design prices must satisfy"):
            run_benchmark("fixed", env, mon, tm, 5, 0, fixed=(1.0, p0, p1))

    def test_rejects_a_subset_beyond_the_matrix(self):
        # every path, tit-for-tat too although it prices no subset
        d, env, mon, tm = reference_design()
        d = dataclasses.replace(d, subset=Subset((3, 9)))
        match = r"design subset \[3, 9\] has an AS out of range for n=8"
        for kind in ("compliant", "grim-trigger", "tit-for-tat"):
            with pytest.raises(ValueError, match=match):
                simulate(d, BehaviorProfile.uniform(8, kind), env, mon, tm,
                         5, 0)
        with pytest.raises(ValueError, match=match):
            deviation_gain(d, env, mon, tm, 0, 5, 2)

    def test_numpy_integers_are_stored_as_int(self):
        d, env, mon, tm = reference_design()
        p = BehaviorProfile.compliant(8)
        rep = simulate(d, p, env, mon, tm, np.int64(3), np.uint32(7))
        assert type(rep.horizon) is int and type(rep.seed) is int
        assert json.loads(as_json(rep))["seed"] == 7
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

    def test_one_seed_is_never_significant(self):
        # a single gain has no standard error, so however far from zero it
        # lies, neither one-sided test can pass; at seed 7 it is positive,
        # the rare sign for this IC design
        d, env, mon, tm = reference_design()
        g = deviation_gain(d, env, mon, tm, 0, horizon=1500, seeds=[7])
        assert g.mean > 0
        assert (g.std, g.stderr) == (0.0, 0.0)
        assert not g.significantly_positive
        assert not g.significantly_negative

    def test_seed_list_accepted(self):
        d, env, mon, tm = reference_design()
        g = deviation_gain(d, env, mon, tm, 1, horizon=200, seeds=[3, 5, 8])
        assert len(g.gains) == 3
        with pytest.raises(ValueError):
            deviation_gain(d, env, mon, tm, 1, horizon=200, seeds=[])

    def test_numpy_count_is_a_count(self):
        d, env, mon, tm = reference_design()
        got = deviation_gain(d, env, mon, tm, 1, horizon=50,
                             seeds=np.int64(2))
        assert got == deviation_gain(d, env, mon, tm, 1, horizon=50, seeds=2)

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_bool_is_not_a_count(self, flag):
        d, env, mon, tm = reference_design()
        with pytest.raises(ValueError, match="seeds"):
            deviation_gain(d, env, mon, tm, 1, horizon=50, seeds=flag)

    @pytest.mark.parametrize("count", [3.0, np.float64(3.0)])
    def test_float_is_not_a_count(self, count):
        d, env, mon, tm = reference_design()
        with pytest.raises(ValueError, match=r"seeds .*got .*3\.0"):
            deviation_gain(d, env, mon, tm, 1, horizon=50, seeds=count)

    @pytest.mark.parametrize("i", [-1, 8])
    def test_as_index_checked(self, i):
        d, env, mon, tm = reference_design()
        with pytest.raises(ValueError, match="out of range"):
            deviation_gain(d, env, mon, tm, i, horizon=10, seeds=1)

    @pytest.mark.parametrize("i", [True, np.True_, 1.0, "1"])
    def test_as_index_must_be_an_integer(self, i):
        d, env, mon, tm = reference_design()
        with pytest.raises(ValueError, match="integer"):
            deviation_gain(d, env, mon, tm, i, horizon=10, seeds=1)

    def test_numpy_as_index_reported_as_int(self):
        d, env, mon, tm = reference_design()
        got = deviation_gain(d, env, mon, tm, np.int64(2), horizon=50,
                             seeds=2)
        assert type(got.as_index) is int
        assert got == deviation_gain(d, env, mon, tm, 2, horizon=50, seeds=2)


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

    def test_worst_best_falls_back_when_maximal_spread_is_infeasible(self):
        mon = MonitoringModel.rational(0.1)
        env = Environment(p_high=0.3, p_low=0.05, c=5.0, beta=0.2)
        tm = TrafficMatrix.complete(8, 1.0)
        rep = run_benchmark("worst-best", env, mon, tm, 100, 0)
        assert rep.avg_cost == pytest.approx(16.8, abs=1e-9)
        assert rep.meta["note"] == ("maximal spread infeasible; falling back "
                                    "to no deployment")
        assert rep.meta["design"]["subset"] == []

    def test_fixed_checks_the_least_inbound_as(self):
        # AS 2 (inbound 0.6) is the only AS the design does not hold, so a
        # fixed run must check it, not AS 0, and fall back to nobody deploying
        env, mon, _ = reference_instance()
        tm = TrafficMatrix([[0, 2, 0.3, 0.5], [2, 0, 0.2, 1], [1, 3, 0, 2],
                            [0.2, 1, 0.1, 0]])
        fixed = (1.0, env.p_high, env.p_low)
        d = RatingDesign(*fixed, Subset.full(4))
        assert [ic_check(d, env, mon, tm, i) for i in range(4)] == \
            [True, True, False, True]
        rep = run_benchmark("fixed", env, mon, tm, 50, 1, fixed=fixed)
        assert rep.meta["note"] == "fixed design is not IC; nobody deploys"
        assert rep.meta["design"]["subset"] == []
        assert rep.avg_cost == pytest.approx(env.p_high * 13.3, rel=1e-12)


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

    @pytest.mark.parametrize("beta, feasible", [(0.2, True), (40.0, False)])
    def test_rating_runs_the_optimal_benchmark(self, beta, feasible):
        # both run the full-set optimum, or nobody deploying without one
        env, mon, tm = reference_instance()
        env_b = dataclasses.replace(env, beta=beta)
        assert optimal_design(env_b, mon, tm).feasible == feasible
        row, = run_strategy_comparison("rating", env, mon, tm, T=1.0,
                                       horizon=60, seeds=[5],
                                       beta_grid=[beta])
        rep = run_benchmark("optimal", env_b, mon, tm, 60, 5)
        assert row.avg_cost == rep.avg_cost

    def test_numpy_count_is_a_count(self):
        env, mon, tm = reference_instance()
        rows = [run_strategy_comparison("trigger", env, mon, tm, T=1.0,
                                        horizon=40, seeds=seeds,
                                        beta_grid=[0.2, 0.4])
                for seeds in (np.int64(2), 2)]
        assert rows[0] == rows[1]

    def test_bool_is_not_a_count(self):
        env, mon, tm = reference_instance()
        with pytest.raises(ValueError, match="seeds"):
            run_strategy_comparison("trigger", env, mon, tm, T=1.0,
                                    horizon=10, seeds=True, beta_grid=[0.2])

    def test_float_is_not_a_count(self):
        env, mon, tm = reference_instance()
        with pytest.raises(ValueError, match=r"seeds .*got .*3\.0"):
            run_strategy_comparison("trigger", env, mon, tm, T=1.0,
                                    horizon=10, seeds=3.0, beta_grid=[0.2])

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


class TestPlan:
    """`deviation_gain` and `run_strategy_comparison` prepare each run's
    seed-independent parts once and run every seed from them; each report
    is the one `simulate` gives."""

    def test_deviation_gain_is_a_loop_of_simulate_calls(self):
        d, env, mon, tm = reference_design()
        # 1500 periods run past the first zero weight, so the tail is booked
        assert zero_weight_period(env.beta * d.T) < 1500
        for i, horizon, seeds in ((0, 1500, [4, 0, 9]), (5, 37, [2]),
                                  (3, 1500, [4, 0, 4, 9])):
            assert deviation_gain(d, env, mon, tm, i, horizon, seeds) == \
                reference_deviation_gain(d, env, mon, tm, i, horizon, seeds)

    @pytest.mark.parametrize("horizon", [600, 4000])
    @pytest.mark.parametrize("seeds", [[4, 0, 9], [4, 0, 4, 9]])
    @pytest.mark.parametrize("kind, beta_grid", [
        ("rating", [0.2, 40.0]),  # no IC design at 40: nobody deploys
        ("tft", [2.3, 2.5]),  # nobody deploys at 2.5
        ("trigger", [0.2, 0.4]),
    ])
    def test_comparison_is_a_loop_of_simulate_calls(self, kind, beta_grid,
                                                    seeds, horizon):
        # the bundled comparison's instance; 4000 periods run past the
        # first zero weight at every beta and period here, the latest
        # being beta 0.2 at T = 1 (the rating design's T is 5 there)
        assert zero_weight_period(0.2) < 4000
        env = Environment(p_high=0.3, p_low=0.05, c=0.3, beta=2.3)
        mon = MonitoringModel.rational(0.1)
        tm = TrafficMatrix.complete(8, 2.0)
        args = (kind, env, mon, tm, 1.0, horizon, seeds, beta_grid)
        assert run_strategy_comparison(*args) == \
            reference_strategy_comparison(*args)

    def test_each_seed_is_seeded_once_per_call(self, monkeypatch):
        d, env, mon, tm = reference_design()
        seeded = []
        fresh = np.random.default_rng

        def counting(seed=None):
            seeded.append(seed)
            return fresh(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        deviation_gain(d, env, mon, tm, 0, 300, [4, 0, 9])
        assert seeded == [4, 0, 9]
        seeded.clear()
        run_strategy_comparison("trigger", env, mon, tm, 1.0, 300,
                                [4, 0, 9], [0.2, 0.3])
        assert seeded == [4, 0, 9]
        seeded.clear()
        simulate(d, BehaviorProfile.compliant(8), env, mon, tm, 300, 4)
        assert seeded == [4]

    @pytest.mark.parametrize("seeds", [[-1], [0, 2.5]])
    def test_a_bad_horizon_is_reported_before_a_bad_seed(self, seeds):
        d, env, mon, tm = reference_design()
        match = "horizon must be at least 1"
        with pytest.raises(ValueError, match=match):
            deviation_gain(d, env, mon, tm, 0, 0, seeds)
        for kind in ("rating", "tft", "trigger"):
            with pytest.raises(ValueError, match=match):
                run_strategy_comparison(kind, env, mon, tm, 1.0, 0, seeds,
                                        [0.2])

    @pytest.mark.parametrize("seeds, message", [
        ([0, -1], "seed must be non-negative, got -1"),
        ([3, 2.5], "seed must be an integer, got 2.5"),
    ])
    def test_a_bad_seed_alone_keeps_its_message(self, seeds, message):
        d, env, mon, tm = reference_design()
        match = re.escape(message) + "$"
        with pytest.raises(ValueError, match=match):
            deviation_gain(d, env, mon, tm, 0, 50, seeds)
        for kind in ("rating", "tft", "trigger"):
            with pytest.raises(ValueError, match=match):
                run_strategy_comparison(kind, env, mon, tm, 1.0, 50, seeds,
                                        [0.2, 0.3])

    @pytest.mark.parametrize("profile", [
        BehaviorProfile.compliant(8),
        BehaviorProfile.compliant(8).replace(
            2, Behavior("one-shot-deviator", 3)),
        BehaviorProfile.uniform(8, "grim-trigger"),
        BehaviorProfile.uniform(8, "tit-for-tat"),
    ], ids=["compliant", "one-shot", "trigger", "tft"])
    def test_a_repeated_seed_repeats_the_report(self, profile):
        from mutualsec import sim

        d, env, mon, tm = reference_design()
        run = sim._prepare(d, profile, env, mon, tm, 40)
        rng = np.random.default_rng(3)
        starts = {s: np.random.default_rng(s).bit_generator.state
                  for s in (1, 3)}

        def report(seed, time_series):
            # the main stream from a start state put back; a time series
            # from a fresh child of spawn key 0, as `simulate` spawns it
            rng.bit_generator.state = starts[seed]
            spread = (np.random.default_rng(
                np.random.SeedSequence(seed).spawn(1)[0])
                if time_series else None)
            return sim.SimReport(seed=seed, **run(rng, spread)[2]())

        for time_series in (False, True):
            a, b, c = (report(s, time_series) for s in (3, 1, 3))
            assert as_json(a) == as_json(c) != as_json(b)
            assert as_json(a) == as_json(simulate(
                d, profile, env, mon, tm, 40, 3, time_series=time_series))
            # nothing mutable is shared between reports
            for value in a.meta.values():
                if isinstance(value, (list, dict)):
                    value.clear()
            a.meta.clear()
            if time_series:
                a.time_series["total_cost"][:] = -1.0
            assert as_json(c) == as_json(simulate(
                d, profile, env, mon, tm, 40, 3, time_series=time_series))

    @pytest.mark.parametrize("subset", [
        Subset(()), Subset.full(8), Subset((1, 4, 6))],
        ids=["no-otc", "full", "proper"])
    def test_recommended_mask_is_isin(self, subset):
        from mutualsec import sim

        got = sim._mask(8, subset.members)
        assert got.dtype == bool
        np.testing.assert_array_equal(
            got, np.isin(np.arange(8), subset.members))

    def test_one_way_warning_once_per_plan_at_the_callers_line(self):
        env, mon, _ = reference_instance()
        tm = TrafficMatrix.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0),
                                          (0, 2, 1.0)], directed=True)
        d = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(3))
        tft = BehaviorProfile.uniform(3, "tit-for-tat")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            run_strategy_comparison("tft", env, mon, tm, 1.0, 9, 3, [1, 2])
            simulate(d, tft, env, mon, tm, 10, 0)
        assert [(w.filename, w.lineno) for w in caught] == \
            [(__file__, line)] * 2 + [(__file__, line + 1)]
        assert all("reciprocal" in str(w.message) for w in caught)


class TestTimeSeries:
    def test_json_round_trip(self):
        d, env, mon, tm = reference_design()
        rep = simulate(d, BehaviorProfile.uniform(8, "grim-trigger"),
                       env, mon, tm, 30, 0, time_series=True)
        parsed = json.loads(as_json(rep))
        assert parsed["avg_cost"] == rep.avg_cost
        ts = parsed["time_series"]
        # rating columns are null for schemes without ratings
        assert ts["mean_rating"] == [None] * 30
        # period and trigger_fired are integers
        assert ts["period"] == list(range(30))
        fired = rep.time_series["trigger_fired"]
        assert ts["trigger_fired"] == [int(f) for f in fired]
        assert set(ts["trigger_fired"]) == {0, 1}
        assert all(type(v) is int for v in ts["period"] + ts["trigger_fired"])
        assert ts["total_cost"] == rep.time_series["total_cost"].tolist()


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


def _settling_cases():
    """Named simulate() argument tuples whose live prefix ends at a chunk's
    edges and past them: tit-for-tat at 4 ASs (16 links, 2048-period
    blocks), where beta T = 0.2 gives lag = 200 and chunks of 201 periods
    that end at periods 200, 401, 602, ..., and at the block's end; lags of
    3 and past a block; and one-shot deviations inside a rating run's
    prefix."""
    env, mon, tm = reference_instance(n=4)
    tft = BehaviorProfile.uniform(4, "tit-for-tat")
    # (w0, seed): the last link reads its first 1 in period 200, the first
    # chunk's last row; in period 402, so that settle is 602, the third
    # chunk's last period; or in period 2846, in the second block
    for name, w0, seed in (("on-first-chunk-row", 0.01, 207),
                           ("on-chunk-edge", 0.005, 1461),
                           ("past-first-block", 0.001, 2)):
        yield name, (_plan(env, tm), tft, env, MonitoringModel.rational(w0),
                     tm, 5000, seed)
    # observations never wrong: no link reads a 1, so the chunks run to zero
    yield "no-settle", (_plan(env, tm), tft, env, PERFECT, tm, 5000, 3)
    # beta T = 13: lag 3 and zero 59, where links of rate 1e7 keep every AS
    # deploying
    fast = dataclasses.replace(env, beta=13.0)
    busy = TrafficMatrix.complete(4, 1e7)
    yield "lag=3", (_plan(fast, busy), tft, fast, mon, busy, 300, 5)
    # beta T = 1e-3: lag 45,032, past a block and past the horizon
    slow = dataclasses.replace(env, beta=1e-3)
    yield "lag-past-block", (_plan(slow, tm), tft, slow, mon, tm, 3000, 5)
    # ratings start high, so the prefix runs through lag: deviations early
    # in it, on its last period and the one before
    d, env8, mon8, tm8 = reference_design()
    lag = settle_lag(env8, d.T)
    yield "one-shot-in-prefix", (
        d, _shots([5, None, lag, None, lag - 1, None, None, 1]), env8, mon8,
        tm8, 1000, 3)


def _counting_uniforms(monkeypatch):
    """A one-item list counting the uniforms that `random` draws on every
    generator np.random.default_rng makes."""
    drawn = [0]
    make = np.random.default_rng

    class Counting:
        def __init__(self, seed=None):
            self._rng = make(seed)

        def random(self, *, out):
            drawn[0] += out.size
            return self._rng.random(out=out)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    return drawn


def _tft_settle(design, env, mon, tm, horizon, seed):
    """(lag, settle) of a tit-for-tat run in which every AS deploys, from
    its live flags drawn on a fresh generator."""
    size = tm.n ** 2
    zero = live_periods(env, design.T, horizon)
    eps = float(mon.epsilon(design.T))
    flags = np.random.default_rng(seed).random((zero, size)) < eps
    return (settle_lag(env, design.T),
            settle_period(env, design.T, np.zeros(size), flags))


class TestStreaming:
    """Runs are streamed in fixed-size period blocks; the reports must not
    depend on the block length."""

    def test_matches_whole_horizon_reports(self):
        # sim_golden.json holds _fingerprint of each case as reported by the
        # simulator before it was streamed (whole-horizon arrays), each
        # checked against the whole-horizon references.  The meta block
        # holds the design and exact counts of the draws, no rounded sum,
        # so it must match exactly.
        golden = json.loads(GOLDEN.read_text())
        cases = dict(_golden_cases())
        assert cases.keys() == golden.keys()
        for name, args in cases.items():
            rep = simulate(*args, time_series=True)
            got = json.loads(json.dumps(_fingerprint(rep)))
            assert got["meta"] == golden[name]["meta"], name
            _assert_matches(got, golden[name], name)

    @pytest.mark.parametrize("elements", [1, 7, 64, 1000])
    def test_block_length_does_not_matter(self, monkeypatch, elements):
        from mutualsec import sim

        cases = [args for name, args in _golden_cases()
                 if "H=1025/" in name or name.startswith("tft-n40/")]
        # two shots past the zero-weight period, whose spans merge into
        # one of periods 8191-8193 that one-period blocks split at 8192
        d, env, mon, tm = reference_design()
        late = _shots([None, 8191, None, 8192, *[None] * 4])
        cases.append((d, late, env, mon, tm, 9000, 2))
        cases += [args for _, args in _settling_cases()]
        default = [_fingerprint(simulate(*a, time_series=True))
                   for a in cases]
        monkeypatch.setattr(sim, "_BLOCK_ELEMENTS", elements)
        for args, want in zip(cases, default):
            got = _fingerprint(simulate(*args, time_series=True))
            _assert_matches(got, want)

    @pytest.mark.filterwarnings("ignore:tit-for-tat punishment needs")
    def test_settling_cases_settle_where_named(self):
        from mutualsec import sim

        assert sim._BLOCK_ELEMENTS // 16 == 2048
        settles = {}
        for name, args in _settling_cases():
            d, _, env, mon, tm, horizon, seed = args
            if name != "one-shot-in-prefix":
                # every AS deploys, so every link starts at 0
                assert whole_horizon_tft_run(d, env, mon, tm, 5, 0)[
                    "deploying"] == [0, 1, 2, 3], name
                settles[name] = _tft_settle(d, env, mon, tm, horizon, seed)
        assert settles["on-first-chunk-row"] == (200, 400)
        assert settles["on-chunk-edge"] == (200, 602)
        lag, settle = settles["past-first-block"]
        assert lag == 200 and 2048 <= settle - lag < 3727 - lag
        assert settles["no-settle"] == (200, None)
        lag, settle = settles["lag=3"]
        assert lag == 3 and settle < 59
        lag, settle = settles["lag-past-block"]
        assert lag > 2048 and settle > 3000

    def test_settling_cases_match_whole_horizon(self):
        for name, args in _settling_cases():
            if name == "one-shot-in-prefix":
                _assert_rating_matches(args)
                continue
            design, _, env, mon, tm, horizon, seed = args
            rep = simulate(*args, time_series=True)
            _assert_tft_matches(rep, whole_horizon_tft_run(
                design, env, mon, tm, horizon, seed))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 207])
    def test_settling_run_draws_exactly_its_booking(self, monkeypatch, seed):
        # tit-for-tat at 4 ASs, lag 200, settling in the first block: the
        # prefix is filled in chunks of 201 periods, none of which runs
        # past settle, so the run draws the periods it books and no more.
        env, mon, tm = reference_instance(w0=0.01, n=4)
        design, horizon = _plan(env, tm), 5000
        _, settle = _tft_settle(design, env, mon, tm, horizon, seed)
        assert settle < 2048
        booked = len(drawn_periods(env, design.T, horizon, settle=settle))
        drawn = _counting_uniforms(monkeypatch)
        simulate(design, BehaviorProfile.uniform(4, "tit-for-tat"), env, mon,
                 tm, horizon, seed)
        assert drawn[0] == 16 * booked

    def test_comparison_config_draws_what_it_books(self, monkeypatch,
                                                   tmp_path):
        # 18 tit-for-tat runs of 64 links (lag 16 or 17) book 906 periods,
        # 888 of them drawn (period 0 reads the start): 56,832 uniforms.
        # Drawing each first block through zero and again through settle
        # drew 301,440.
        from mutualsec.cli import main

        config = (Path(__file__).resolve().parent.parent / "configs"
                  / "strategy_beta_comparison.json")
        drawn = _counting_uniforms(monkeypatch)
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "rows.json")]) == 0
        assert drawn[0] == 56_832

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

    def test_tit_for_tat_at_200_ases_runs_in_a_few_mb(self):
        # the README's claim: 10,000 periods at 200 ASs, 40,000 links
        assert self._peak_bytes("tit-for-tat", 200, 10_000) < 4 * 2**20

    def test_tail_adds_nothing_to_the_peak(self):
        # the live prefix's block buffer is released before the tail is
        # counted, so a run whose horizon passes the zero-weight period
        # peaks no higher than one whose horizon ends there.  The traced
        # peak moves by tens of bytes from run to run, and a buffer kept
        # through the tail adds its n x n count arrays (over 12 KB here).
        env, _, _ = reference_instance()
        zero = live_periods(env, 1.0, 10**6)
        assert zero + 1 < 10_000
        self._peak_bytes("tit-for-tat", 40, zero + 1)  # first-call set-up
        ends = self._peak_bytes("tit-for-tat", 40, zero + 1)
        assert self._peak_bytes("tit-for-tat", 40, 10_000) <= ends + 1024

    def test_tit_for_tat_block_allocates_no_float_cubes(self):
        # A block's observations fill one reused (b, n, n) float buffer of
        # about _BLOCK_ELEMENTS floats; no (b, n, n) float temporary is
        # built beside it.
        from mutualsec import sim

        self._peak_bytes("tit-for-tat", 40, 10_000)  # first-call imports
        peak = self._peak_bytes("tit-for-tat", 40, 10_000)
        assert peak < 1.45 * 8 * sim._BLOCK_ELEMENTS


# ---- discount weights --------------------------------------------------------

_DELTAS = (0.0, 5e-324, 1e-300, math.exp(-1.0), 1.0 - 1e-12,
           float(np.nextafter(1.0, 0.0)), 1.0)

# Windows booked in turn over 800 periods: one block; blocks whose edges
# fall just before, on and after exp(-1)'s first zero weight (period 746)
# and the ledger's bound for it (747); and one-period blocks at the start.
_WINDOWS = (
    ((0, 800),),
    ((0, 745), (745, 746), (746, 747), (747, 800)),
    ((0, 740), (740, 752), (752, 800)),
    ((0, 747), (747, 748), (748, 749), (749, 800)),
    ((0, 1), (1, 2), (2, 3), (3, 800)),
    ((0, 1), (1, 800)),
)


# a ledger's lo and adds rows when only its zero or lag is read
_NO_ENTRY = (np.zeros(1), np.zeros(1))


def _booked_weights(delta, windows, horizon=800):
    """The ledger's discounted counts when period t reads 1 in entry t and 0
    elsewhere: entry t holds exactly the weight booked for t."""
    from mutualsec import sim

    ledger = sim._Ledger(horizon, 1.0, delta, np.zeros(horizon),
                         np.zeros(horizon)).open(None)
    for start, stop in windows:
        x = np.zeros((stop - start, horizon))
        x[np.arange(stop - start), np.arange(start, stop)] = 1.0
        ledger.add(start, x)
    return ledger.sums[1]


class TestDiscountWeights:
    """A block's weights are the powers delta ** t bit for bit, 0.0 where
    they underflow; a block that starts where they surely do computes
    none."""

    @pytest.mark.parametrize("windows", _WINDOWS)
    @pytest.mark.parametrize("delta", _DELTAS)
    def test_weights_are_the_powers_bit_for_bit(self, delta, windows):
        got = _booked_weights(delta, windows)
        want = delta ** np.arange(800, dtype=float)
        assert got.tobytes() == want.tobytes()

    def test_bound_passes_the_first_zero(self):
        from mutualsec import sim

        for delta in _DELTAS[:4] + (math.exp(-3.7), math.exp(-0.01)):
            zero = sim._Ledger(10**6, 1.0, delta, *_NO_ENTRY).zero
            powers = delta ** np.arange(zero + 1, dtype=float)
            first = int(np.flatnonzero(powers == 0.0)[0])
            assert first <= zero <= first + 2, delta

    @pytest.mark.parametrize("beta_t", [1e-20, 1e-3, 1.0, 3.7, 745.5, 800.0])
    def test_reports_equal_untrimmed(self, monkeypatch, beta_t):
        from mutualsec import sim

        env, mon, tm = reference_instance()
        env = dataclasses.replace(env, beta=beta_t)
        plan = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(8))
        mixed = BehaviorProfile.compliant(8).replace(
            2, Behavior("persistent-deviator")).replace(
            5, Behavior("one-shot-deviator", at_period=500))
        profiles = (BehaviorProfile.compliant(8), mixed,
                    BehaviorProfile.uniform(8, "grim-trigger"),
                    BehaviorProfile.uniform(8, "tit-for-tat"))
        quiet = MonitoringModel.rational(1e-5)  # grim trigger fires late
        runs = [(plan, p, env, m, tm, 20_000, 3)
                for p in profiles for m in (mon, quiet)]
        trimmed = [simulate(*args) for args in runs]
        # the reference computes every weight of a block it books, as if
        # none were known to underflow; the live prefix, which ends at the
        # same bound, stays where it is
        weights = sim._Ledger.weights

        def untrimmed_weights(self, *args):
            zero, self.zero = self.zero, math.inf
            try:
                return weights(self, *args)
            finally:
                self.zero = zero

        monkeypatch.setattr(sim._Ledger, "weights", untrimmed_weights)
        for args, rep in zip(runs, trimmed):
            assert rep == simulate(*args)

    @pytest.mark.parametrize("kind", ["compliant", "grim-trigger",
                                      "tit-for-tat"])
    def test_first_block_powers_stop_near_underflow(self, monkeypatch, kind):
        # beta * T = 1: delta ** t is 0.0 from t = 746, while a block of
        # the rating and trigger paths at n = 8 holds 8192 periods.  Every
        # rating reads 1 in period 0, so a rating run settles at period
        # lag = 39 and powers only periods 0-39; tit-for-tat under a
        # perfect monitor never reads a wrong observation, so it never
        # settles and its prefix runs through the zero-weight period.
        from mutualsec import sim

        class CountingNumpy:
            powered = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def power(self, base, exponent, **kwargs):
                CountingNumpy.powered += np.size(exponent)
                return np.power(base, exponent, **kwargs)

        env, mon, tm = reference_instance()
        env = dataclasses.replace(env, beta=1.0)
        plan = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(8))
        profile = BehaviorProfile.uniform(8, kind)
        if kind == "tit-for-tat":
            mon = PERFECT
        monkeypatch.setattr(sim, "np", CountingNumpy())
        simulate(plan, profile, env, mon, tm, 20_000, 1)
        if kind == "compliant":
            assert settle_lag(env, 1.0) == 39
            assert CountingNumpy.powered == 40
        else:
            assert 746 <= CountingNumpy.powered <= 750


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


def _assert_rating_matches(args):
    """A rating run with a time series against the whole-horizon reference;
    returns the report."""
    ref = whole_horizon_rating_run(*args)
    rep = simulate(*args, time_series=True)
    _assert_matches_reference(rep, ref, ("total_cost", "mean_rating"))
    assert list(rep.final_state.ratings) == ref["final_ratings"]
    return rep


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
    # signals that are always right (p = 1) or a coin flip (p = 1/2), the
    # latter at 7 ASs
    yield ("eps=0/mixed", (plan, mixed, env, PERFECT, tm, 20_000, 1))
    tm7 = TrafficMatrix.complete(7, 1.0)
    plan7 = RatingDesign(1.0, env.p_high, env.p_low, Subset.full(7))
    yield ("eps=1/2/mixed", (plan7, BehaviorProfile(
        mixed.behaviors[:7]), env, COIN, tm7, 20_000, 1))
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


class TestDrawRule:
    """A drawn flag is 1 where the generator's next uniform k / 2**53 is
    below p, so with probability ceil(p * 2**53) / 2**53."""

    @pytest.mark.parametrize("p", [0.0, 5e-324, 2.0 ** -60, 0.5,
                                   1.0 - 2.0 ** -53, 1.0])
    def test_block_is_uniforms_below_p(self, p):
        # delta = 1: every period is read one by one, in one block; period
        # 0 reads `first`, period t the uniforms of row t - 1
        from mutualsec import sim

        horizon, size, seed = 400, 13, 5
        ledger = sim._Ledger(horizon, 1.0, 1.0, np.zeros(size),
                             np.ones(size)).open(None)
        blocks = []
        add = ledger.add
        ledger.add = lambda start, x: (blocks.append((start, x.copy())),
                                       add(start, x))
        sim._stream(np.random.default_rng(seed), ledger, np.zeros(size), p,
                    [], {})
        (start, block), = blocks
        want = np.random.default_rng(seed).random((horizon - 1, size)) < p
        assert start == 0 and block.dtype == np.float64
        assert block.tobytes() == np.concatenate(
            (np.zeros((1, size)), want)).tobytes()


class TestWholeHorizonReference:
    """Every report field against a from-scratch whole-horizon run."""

    @pytest.mark.parametrize("name,args", list(_reference_cases()),
                             ids=[name for name, _ in _reference_cases()])
    def test_matches_reference(self, name, args):
        rep = _assert_rating_matches(args)
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
        # observations never wrong (p = 0) or wrong half the time
        "eps=0": (_plan(env, mixed), env, PERFECT, mixed),
        "eps=1/2": (_plan(env, mixed), env, COIN, mixed),
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
                             "one-way": [0, 1], "eps=0": [0, 1],
                             "eps=1/2": [0, 1]}

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

    def test_one_period_blocks_at_129_ases(self):
        # 129 * 128 = 16,512 links, so at the default block size every
        # block is one period long
        from mutualsec import sim

        env, mon, _ = reference_instance()
        tm = TrafficMatrix.complete(129, 1.0)
        assert sim._BLOCK_ELEMENTS // (129 * 128) == 1
        design = _plan(env, tm)
        profile = BehaviorProfile.uniform(tm.n, "tit-for-tat")
        rep = simulate(design, profile, env, mon, tm, 30, 6,
                       time_series=True)
        _assert_tft_matches(rep, whole_horizon_tft_run(design, env, mon, tm,
                                                       30, 6))


class TestWholeHorizonTrigger:
    """Grim-trigger reports against a whole-horizon cost-matrix run."""

    # Seeds chosen so that the quiet monitor covers all three firing
    # patterns: a first "deviate" signal past the live prefix (seed 0),
    # inside it (seed 2) and never (seed 4).
    SEEDS = (0, 2, 4)

    def test_cases_cover_firing_patterns(self):
        # first "deviate" signal of each case over 20,000 periods, whose
        # live prefix ends at period 3727
        design, env, _, _ = _trigger_cases()["quiet"]
        assert live_periods(env, design.T, 20_000) == 3727
        first = {name: [whole_horizon_trigger_run(*args, 20_000, seed)
                        ["first_bad_period"] for seed in self.SEEDS]
                 for name, args in _trigger_cases().items()}
        assert first == {"noisy": [1, 0, 4], "quiet": [8499, 1623, 20_000],
                         "perfect": [20_000] * 3, "partial": [1, 0, 4]}

    @pytest.mark.parametrize(
        "name,horizon",
        _horizon_cases(_trigger_cases(), lambda n: n) + [("quiet", 20_000)])
    @pytest.mark.parametrize("seed", SEEDS)
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


# ---- live prefix and tail counts --------------------------------------------

def _cost_rows(design, env, tm, actions, rated_high):
    """Per-AS cost of one period (model formula): traffic from a sender
    that deploys costs p1 or p0 by the receiver's rating, other traffic
    p_high, and deploying costs c, all times T."""
    deployed_in = actions.astype(float) @ tm.rates
    price = np.where(rated_high, design.p1, design.p0)
    return (price * deployed_in + env.p_high * (tm.inbound - deployed_in)
            + actions * env.c) * design.T


def _geometric_fired(q, horizon):
    """Mean and variance of the trigger's fired periods max(0, H-1-F),
    where P(F = f) = (1 - q) ** f * q: P(K >= k) = P(F <= H-1-k)."""
    k = np.arange(1, horizon)
    tail = 1.0 - (1.0 - q) ** (horizon - k)  # P(K >= k)
    mean = tail.sum()
    return mean, ((2 * k - 1) * tail).sum() - mean ** 2


class TestTailDistribution:
    """Runs against the closed forms, over 400 seeds (mostly tail, and for
    grim trigger also one inside the live prefix): the Monte Carlo mean
    within 4 exact standard errors."""

    SEEDS = range(400)

    def _runs(self, design, profile, env, mon, tm, horizon):
        return [simulate(design, profile, env, mon, tm, horizon, s)
                for s in self.SEEDS]

    @pytest.mark.parametrize("deviator", [None, 2])
    def test_rating_totals(self, deviator):
        d, env, mon, tm = reference_design()
        horizon = 20_000
        assert live_periods(env, d.T, horizon) < horizon // 20
        profile = BehaviorProfile.compliant(8)
        actions = np.ones(8, dtype=bool)
        if deviator is not None:
            profile = profile.replace(deviator,
                                      Behavior("persistent-deviator"))
            actions[deviator] = False
        eps = float(mon.epsilon(d.T))
        p = np.where(actions, 1.0 - eps, eps)  # P(rated high), t >= 1
        hi = _cost_rows(d, env, tm, actions, True)
        lo = _cost_rows(d, env, tm, actions, False)
        mean = horizon * lo + (hi - lo) * (1 + (horizon - 1) * p)
        var = (horizon - 1) * (hi - lo) ** 2 * p * (1 - p)
        totals = np.array([r.avg_cost_per_as for r in self._runs(
            d, profile, env, mon, tm, horizon)]) * horizon * d.T
        se = np.sqrt(var / len(totals))
        assert np.all(np.abs(totals.mean(axis=0) - mean) < 4 * se)
        # the sample variance's relative standard error is about 7%
        np.testing.assert_allclose(totals.var(axis=0, ddof=1), var, rtol=0.3)

    def test_rating_totals_with_a_late_shot(self):
        # AS 2 deviates once at period t, in the counted part: period t's
        # costs leave the two rows for every AS, and AS 2's signal drawn
        # in period t (read in t + 1) reads high with probability eps
        d, env, mon, tm = reference_design()
        horizon, t, i = 20_000, 10_000, 2
        assert live_periods(env, d.T, horizon) + 1 < t
        profile = BehaviorProfile.compliant(8).replace(
            i, Behavior("one-shot-deviator", at_period=t))
        p = 1.0 - float(mon.epsilon(d.T))
        steady = np.ones(8, dtype=bool)
        shot = steady.copy()
        shot[i] = False
        hi, lo = (_cost_rows(d, env, tm, steady, r) for r in (True, False))
        shot_hi, shot_lo = (_cost_rows(d, env, tm, shot, r)
                            for r in (True, False))
        high = 1 + (horizon - 1) * p - (2 * p - 1) * (np.arange(8) == i)
        # every period on the two rows, then period t's row swapped
        mean = (horizon * lo + (hi - lo) * high - (lo + (hi - lo) * p)
                + shot_lo + (shot_hi - shot_lo) * p)
        var = ((horizon - 2) * (hi - lo) ** 2
               + (shot_hi - shot_lo) ** 2) * p * (1 - p)
        runs = self._runs(d, profile, env, mon, tm, horizon)
        totals = np.array([r.avg_cost_per_as for r in runs]) * horizon * d.T
        se = np.sqrt(var / len(totals))
        assert np.all(np.abs(totals.mean(axis=0) - mean) < 4 * se)
        counts = np.array([r.rating_high_fraction for r in runs]) * horizon
        se = math.sqrt((horizon - 1) * p * (1 - p) / len(counts))
        assert np.all(np.abs(counts.mean(axis=0) - high) < 4 * se)

    @pytest.mark.filterwarnings("ignore:tit-for-tat punishment needs")
    @pytest.mark.parametrize("name", ["mixed", "one-way"])
    def test_tit_for_tat_totals(self, name):
        d, env, mon, tm = _tft_cases()[name]
        horizon = 20_000
        assert live_periods(env, d.T, horizon) < horizon // 5
        eps = float(mon.epsilon(d.T))
        rates, sends = tm.rates, tm.rates > 0
        observable = sends.T  # [j, i]: j sees i's action
        # the break-even rule on inbound traffic from reciprocal partners
        deploy = (math.exp(-env.beta * d.T) * env.gap
                  * (rates * sends.T).sum(axis=0) > env.c)
        # a sender that deploys filters unless its last observation of the
        # receiver reads "deviate": wrong (eps) about one that deploys,
        # right (1 - eps) about one that does not; never in period 0
        held = rates * (deploy[:, None] & observable)
        grudge = np.where(deploy, eps, 1.0 - eps)
        first = _cost_rows(d, env, tm, deploy, True)
        later = first + env.gap * d.T * grudge * held.sum(axis=0)
        mean = first + (horizon - 1) * later
        var = ((horizon - 1) * (env.gap * d.T) ** 2 * eps * (1 - eps)
               * (held ** 2).sum(axis=0))
        totals = np.array([r.avg_cost_per_as for r in self._runs(
            d, BehaviorProfile.uniform(tm.n, "tit-for-tat"), env, mon, tm,
            horizon)]) * horizon * d.T
        # an AS no deploying partner observes has no noise but rounding
        se = np.sqrt(var / len(totals))
        assert np.all(np.abs(totals.mean(axis=0) - mean)
                      <= 4 * se + 1e-12 * mean)
        assert np.any(var > 0)

    @pytest.mark.parametrize("horizon", [2_000, 20_000])
    def test_trigger_fired_periods(self, horizon):
        # the geometric wait covers every horizon: one that ends inside the
        # live prefix, and one over which most runs fire past it
        design, env, mon, tm = _trigger_cases()["quiet"]
        live = live_periods(env, design.T, 10**6)
        assert (horizon < live) == (horizon == 2_000)
        eps = float(mon.epsilon(design.T))
        q = 1.0 - (1.0 - eps) ** tm.n
        assert (1.0 - q) ** live > 0.5
        mean, var = _geometric_fired(q, horizon)
        runs = self._runs(design, BehaviorProfile.uniform(tm.n,
                                                          "grim-trigger"),
                          env, mon, tm, horizon)
        fired = np.array([r.punishment_fraction for r in runs]) * horizon
        assert abs(fired.mean() - mean) < 4 * math.sqrt(var / len(fired))
        # a fired period costs the cap price on all traffic, the others
        # p_low and deployment
        pre = (env.p_low * tm.inbound.sum() + tm.n * env.c) * design.T
        post = env.p_high * tm.inbound.sum() * design.T
        for r, k in zip(runs, fired):
            assert r.avg_cost * horizon * design.T == pytest.approx(
                (horizon - k) * pre + k * post, rel=1e-12)


def _ts_invariance_cases():
    yield from _golden_cases()
    d, env, mon, tm = reference_design()
    late = BehaviorProfile.compliant(8).replace(
        4, Behavior("one-shot-deviator", at_period=2000))
    for seed in (2, 4):
        yield (f"late-shot/seed={seed}", (d, late, env, mon, tm, 5000, seed))


class TestTimeSeriesInvariance:
    """A time series spreads tail counts from a child of the seed; it
    changes no other field."""

    @pytest.mark.parametrize("name,args", list(_ts_invariance_cases()),
                             ids=[name for name, _ in _ts_invariance_cases()])
    def test_other_fields_equal(self, name, args):
        with_ts = simulate(*args, time_series=True)
        assert dataclasses.replace(with_ts, time_series=None) == \
            simulate(*args)
        total = np.asarray(with_ts.time_series["total_cost"]).sum()
        assert math.isclose(total, with_ts.avg_cost * with_ts.horizon,
                            rel_tol=1e-12)

    def test_late_shot_lies_past_the_zero_weight(self):
        # the late shot is read in a span of its own between two counted
        # gaps, and its run matches the whole-horizon reference
        d, env, mon, tm = reference_design()
        assert live_periods(env, d.T, 5000) == 747
        # every rating reads 1 in period 0, so the run settles at lag = 39
        assert settle_lag(env, d.T) == 39
        assert drawn_periods(env, d.T, 5000, [2000], 39) == {
            *range(39), 1999, 2000, 4998}
        late = dict(_ts_invariance_cases())["late-shot/seed=2"]
        _assert_rating_matches(late)


class TestTailEdges:
    """The prefix and the tail around their boundary, and extreme
    monitors, discount rates and horizons."""

    @staticmethod
    def _shot_profile(at_period):
        """AS 2 deviates persistently and AS 5 once, at `at_period`."""
        return BehaviorProfile.compliant(8).replace(
            2, Behavior("persistent-deviator")).replace(
            5, Behavior("one-shot-deviator", at_period=at_period))

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2, 3])
    @pytest.mark.parametrize("name", ["compliant", "mixed"])
    def test_rating_around_the_prefix(self, name, offset):
        # mixed: the shot's span ends on the zero-weight period
        d, env, mon, tm = reference_design()
        zero = live_periods(env, d.T, 10**6)
        profile = {"compliant": BehaviorProfile.compliant(8),
                   "mixed": self._shot_profile(zero - 1)}[name]
        _assert_rating_matches(
            (d, profile, env, mon, tm, zero + offset, 7))

    @pytest.mark.parametrize("anchor,offset", [
        ("zero", 1), ("zero", 2), ("zero", 3),
        ("end", -4), ("end", -3), ("end", -2), ("end", -1),
        ("settle", -1), ("settle", 0), ("settle", 1)])
    def test_rating_shot_past_the_prefix(self, anchor, offset):
        # the shot's span next to the zero-weight period or one or two
        # periods after it, next to, one before or merged with the last
        # period, and just before, at or just after the period the run
        # settles in (every rating reads 1 in period 0)
        d, env, mon, tm = reference_design()
        zero = live_periods(env, d.T, 10**6)
        horizon = zero + 40
        shot = {"zero": zero, "end": horizon,
                "settle": settle_lag(env, d.T)}[anchor] + offset
        _assert_rating_matches((d, self._shot_profile(shot), env, mon,
                                     tm, horizon, 7))

    @pytest.mark.parametrize("shot", [10_000, 990_000])
    def test_late_shot_books_few_rows(self, monkeypatch, shot):
        # however late the shot, periods are booked one by one only
        # through the period the run settles in (lag, as every rating
        # reads 1 in period 0), in the shot's span of two and in the last
        # period
        from mutualsec import sim

        d, env, mon, tm = reference_design()
        horizon = 10**6
        rows = 0
        add = sim._Ledger.add

        def counting_add(self, start, x):
            nonlocal rows
            rows += len(x)
            add(self, start, x)

        monkeypatch.setattr(sim._Ledger, "add", counting_add)
        profile = BehaviorProfile.compliant(8).replace(
            4, Behavior("one-shot-deviator", at_period=shot))
        simulate(d, profile, env, mon, tm, horizon, 1)
        assert rows == settle_lag(env, d.T) + 4

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2, 40])
    @pytest.mark.parametrize("kind", ["rating", "tit-for-tat",
                                      "grim-trigger", "quiet-trigger"])
    def test_booked_periods_tile_the_horizon(self, monkeypatch, kind,
                                             offset):
        # `add` and `tail` book every period once and in order: the live
        # prefix, the shots' spans, the gaps between spans and the last
        # period (for grim trigger, the fired run past the prefix, or with
        # a quiet monitor the run before it fires)
        from mutualsec import sim

        d, env, mon, tm = reference_design()
        if kind == "quiet-trigger":
            kind, mon = "grim-trigger", MonitoringModel.rational(1e-5)
        zero = live_periods(env, d.T, 10**6)
        horizon = zero + offset
        booked = []
        add, tail = sim._Ledger.add, sim._Ledger.tail

        def booking_add(self, start, x):
            booked.append((start, start + len(x)))
            add(self, start, x)

        def booking_tail(self, start, stop, count):
            booked.append((start, stop))
            tail(self, start, stop, count)

        monkeypatch.setattr(sim._Ledger, "add", booking_add)
        monkeypatch.setattr(sim._Ledger, "tail", booking_tail)
        if kind == "rating":
            # shots at period 0, past the live prefix and in the last period
            profile = _shots([0, None, zero + 1, None, horizon - 1,
                              None, None, None])
        else:
            profile = BehaviorProfile.uniform(8, kind)
        simulate(d, profile, env, mon, tm, horizon, 7, time_series=True)
        periods = [t for start, stop in booked for t in range(start, stop)]
        assert periods == list(range(horizon))

    @pytest.mark.filterwarnings("ignore:tit-for-tat punishment needs")
    @pytest.mark.parametrize("offset", [-1, 0, 1, 2, 3])
    @pytest.mark.parametrize("name", ["mixed", "one-way"])
    def test_tit_for_tat_around_the_prefix(self, name, offset):
        design, env, mon, tm = _tft_cases()[name]
        horizon = live_periods(env, design.T, 10**6) + offset
        rep = simulate(design, BehaviorProfile.uniform(tm.n, "tit-for-tat"),
                       env, mon, tm, horizon, 7, time_series=True)
        _assert_tft_matches(rep, whole_horizon_tft_run(design, env, mon, tm,
                                                       horizon, 7))

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2, 3])
    @pytest.mark.parametrize("name", ["quiet", "perfect"])
    def test_trigger_around_the_prefix(self, name, offset):
        design, env, mon, tm = _trigger_cases()[name]
        horizon = live_periods(env, design.T, 10**6) + offset
        rep = simulate(design, BehaviorProfile.uniform(tm.n, "grim-trigger"),
                       env, mon, tm, horizon, 7, time_series=True)
        _assert_trigger_matches(rep, whole_horizon_trigger_run(
            design, env, mon, tm, horizon, 7))

    @pytest.mark.parametrize("kind", ["compliant", "grim-trigger",
                                      "tit-for-tat"])
    def test_one_period(self, kind):
        env, mon, tm = reference_instance()
        rep = simulate(_plan(env, tm), BehaviorProfile.uniform(8, kind), env,
                       mon, tm, 1, 3, time_series=True)
        # period 0 reads no draw: ratings high, no grudge, nothing fired
        first = _cost_rows(_plan(env, tm), env, tm, np.ones(8, dtype=bool),
                           True)
        assert rep.avg_cost == pytest.approx(first.sum(), rel=1e-12)
        assert rep.punishment_fraction in (None, 0.0)

    def test_perfect_monitor(self):
        # eps = 0: the binomial counts take p = 1 and the trigger never
        # fires
        env, _, tm = reference_instance()
        plan = _plan(env, tm)
        horizon = 50_000
        assert live_periods(env, plan.T, horizon) < horizon
        dev = BehaviorProfile.compliant(8).replace(
            3, Behavior("persistent-deviator"))
        rep = simulate(plan, dev, env, PERFECT, tm, horizon, 1)
        assert rep.rating_high_fraction == (1.0,) * 3 + (1 / horizon,) + \
            (1.0,) * 4
        rep = simulate(plan, BehaviorProfile.uniform(8, "grim-trigger"), env,
                       PERFECT, tm, horizon, 1, time_series=True)
        assert rep.punishment_fraction == 0.0
        assert rep.meta["first_bad_period"] == horizon
        assert not np.any(rep.time_series["trigger_fired"])
        rep = simulate(plan, BehaviorProfile.uniform(8, "tit-for-tat"), env,
                       PERFECT, tm, horizon, 1)
        assert rep.meta["mean_grudges_per_period"] == 0.0
        assert rep.avg_cost == pytest.approx(first_best(env, tm), rel=1e-12)

    def test_no_discounting_draws_every_period(self):
        # delta = 1.0: no weight is ever 0.0, so the whole horizon is the
        # prefix and the signals are one plain draw of 8 uniforms per period
        env, mon, tm = reference_instance()
        env = dataclasses.replace(env, beta=1e-20)
        plan = _plan(env, tm)
        assert math.exp(-env.beta * plan.T) == 1.0
        horizon, seed = 5000, 3
        assert live_periods(env, plan.T, horizon) == horizon
        rep = simulate(plan, BehaviorProfile.compliant(8), env, mon, tm,
                       horizon, seed)
        eps = float(mon.epsilon(plan.T))
        signal = np.random.default_rng(seed).random((horizon - 1, 8)) < \
            1.0 - eps
        high = 1 + signal.sum(axis=0)
        assert rep.rating_high_fraction == tuple(high / horizon)
        assert rep.final_state.ratings == tuple(signal[-1].astype(int))

    def test_very_long_compliant_run(self):
        d, env, mon, tm = reference_design()
        horizon = 10**12
        rep = simulate(d, BehaviorProfile.compliant(8), env, mon, tm,
                       horizon, 5)
        eps = float(mon.epsilon(d.T))
        se = math.sqrt(eps * (1 - eps) / horizon)
        for frac in rep.rating_high_fraction:
            assert abs(frac - (1 - eps)) < 5 * se + 1 / horizon
        assert rep.avg_cost == pytest.approx(
            security_cost(d, env, mon, tm), rel=1e-5)


# ---- settling ----------------------------------------------------------------

def _counting_rows(monkeypatch):
    """A one-item list counting the periods `_Ledger.add` books."""
    from mutualsec import sim

    rows = [0]
    add = sim._Ledger.add

    def counting_add(self, start, x):
        rows[0] += len(x)
        add(self, start, x)

    monkeypatch.setattr(sim._Ledger, "add", counting_add)
    return rows


def _stream_entries(delta, horizon, seed, p, first):
    """Run `_stream` on entries that read `first` in period 0, with no
    flips; returns the ledger, the final flags and the first period booked
    from a count (None if none)."""
    from mutualsec import sim

    first = np.asarray(first, dtype=float)
    ledger = sim._Ledger(horizon, 1.0, delta, np.zeros(first.size),
                         np.ones(first.size)).open(None)
    starts = []
    tail = ledger.tail

    def recording_tail(start, stop, count):
        starts.append(start)
        tail(start, stop, count)

    ledger.tail = recording_tail
    final, _ = sim._stream(np.random.default_rng(seed), ledger, first, p,
                           [], {})
    return ledger, final, (starts or [None])[0]


def _assert_stream_matches(seed, p, size, horizon=5000):
    """`_stream` on `size` entries starting at 0, delta = exp(-0.2),
    against `drawn_flags`; returns the settle period it finds."""
    env, _, _ = reference_instance()
    delta = math.exp(-env.beta)
    flags = drawn_flags(seed, env, 1.0, (), p,
                        np.zeros((horizon, size), dtype=bool), np.zeros(size))
    read = np.concatenate((np.zeros((1, size), dtype=bool), flags[:-1]))
    ledger, final, tail_start = _stream_entries(delta, horizon, seed, p,
                                                np.zeros(size))
    settle = settle_period(env, 1.0, np.zeros(size), flags[:3727])
    assert tail_start == settle + 1 < 3727
    np.testing.assert_array_equal(ledger.sums[0], read.sum(axis=0))
    np.testing.assert_array_equal(final, read[-1])
    weights = delta ** np.arange(horizon)
    np.testing.assert_allclose(ledger.sums[1], weights @ read, rtol=1e-12,
                               atol=0.0)
    assert math.isclose(ledger.weight, weights.sum(), rel_tol=1e-12)
    return settle


class TestSettle:
    """The prefix ends lag periods after the one in which the last entry
    reads its first 1, or at the zero-weight period, whichever is first;
    the periods after it are booked from counts and change no discounted
    sum."""

    def test_lag_is_minimal_in_log_space(self):
        # delta ** lag / (1 - delta) <= 2**-55 with lag least, checked in
        # 60-digit arithmetic over rates -ln(delta) from 2**-40 to 690
        from decimal import Decimal, localcontext

        from mutualsec import sim

        deltas = [1e-300, 1.0 - 2.0 ** -40, math.exp(-1.0), 0.5]
        deltas += [math.exp(-r) for r in np.geomspace(2.0 ** -40, 690.0, 300)]
        with localcontext() as ctx:
            ctx.prec = 60
            for delta in deltas:
                lag = sim._Ledger(10, 1.0, delta, *_NO_ENTRY).lag
                d = Decimal(delta)
                rate = -d.ln()
                need = 55 * Decimal(2).ln() - (1 - d).ln()
                assert (lag - 1) * rate < need <= lag * rate, delta

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_no_lag_without_a_discount_in_between(self, delta):
        from mutualsec import sim

        assert sim._Ledger(10, 1.0, delta, *_NO_ENTRY).lag is None
        ledger, final, tail_start = _stream_entries(delta, 50, 3, 0.5, [1.0])
        # delta = 0 reads periods 0 and 1 and the last; delta = 1 all 50
        assert tail_start == (2 if delta == 0.0 else None)
        assert ledger.weight == (1.0 if delta == 0.0 else 50.0)

    def test_never_wrong_tit_for_tat_reads_through_zero(self, monkeypatch):
        # p = 0: a link that starts unpunished never reads a 1, so the run
        # never settles and reads periods 0 through zero one by one
        design, env, mon, tm = _tft_cases()["eps=0"]
        horizon = 10_000
        zero = live_periods(env, design.T, horizon)
        assert zero == 3727
        rows = _counting_rows(monkeypatch)
        rep = simulate(design, BehaviorProfile.uniform(tm.n, "tit-for-tat"),
                       env, mon, tm, horizon, 5, time_series=True)
        assert rows[0] == zero + 2  # and the last period
        _assert_tft_matches(rep, whole_horizon_tft_run(design, env, mon, tm,
                                                       horizon, 5))

    @pytest.mark.parametrize("deviator", [None, 3])
    def test_certain_signals_settle_at_lag(self, monkeypatch, deviator):
        # p = 1: every rating reads 1 in period 0 (and ever after, or never
        # again for a steady deviator), so the run settles at lag
        d, env, _, tm = reference_design()
        profile = BehaviorProfile.compliant(8)
        if deviator is not None:
            profile = profile.replace(deviator,
                                      Behavior("persistent-deviator"))
        lag = settle_lag(env, d.T)
        rows = _counting_rows(monkeypatch)
        rep = _assert_rating_matches((d, profile, env, PERFECT, tm, 5000, 1))
        assert rows[0] == lag + 2  # periods 0 through lag, and the last
        high = [1.0] * 8
        if deviator is not None:
            high[deviator] = 1 / 5000
        assert rep.rating_high_fraction == tuple(high)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("p", [0.01, 0.3])
    def test_one_entry(self, p, seed):
        # one entry that starts at 0: the run settles lag periods after its
        # first 1, inside the first block of 32768 periods, whose chunks
        # are drawn through settle only
        _assert_stream_matches(seed, p, 1)

    @pytest.mark.parametrize("seed,same_block", [(2, True), (196, True),
                                                 (44, False)])
    def test_settle_in_a_later_block(self, seed, same_block):
        # 64 entries, 512-period blocks, lag 200: the last first 1 falls in
        # a later block, filled in chunks of 201 periods.  With seeds 2 and
        # 196 settle falls in that block too, which is cut at settle; with
        # seed 44 it falls in the block after it, cut at settle likewise.
        env, _, _ = reference_instance()
        settle = _assert_stream_matches(seed, 0.004, 64)
        last_first = settle - settle_lag(env, 1.0)
        assert last_first >= 512
        assert (last_first // 512 == settle // 512) == same_block

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    def test_horizon_around_settle(self, offset):
        d, env, mon, tm = reference_design()
        horizon = settle_lag(env, d.T) + offset
        _assert_rating_matches((d, BehaviorProfile.compliant(8), env, mon, tm,
                                horizon, 7))

    @pytest.mark.filterwarnings("ignore:tit-for-tat punishment needs")
    @pytest.mark.parametrize("seed", [1, 200])
    def test_settle_in_the_first_block(self, seed):
        # Settle falls in the first block, 3640 periods of 9 links, which
        # is filled in chunks through it.
        from mutualsec import sim

        design, env, mon, tm = _tft_cases()["mixed"]
        eps = float(mon.epsilon(design.T))
        horizon = 5000
        block = sim._BLOCK_ELEMENTS // 9
        zero = live_periods(env, design.T, horizon)
        flags = np.random.default_rng(seed).random((zero, 9)) < eps
        # the links into AS 2, which does not deploy, start at 1
        settle = settle_period(env, design.T, [0, 0, 1] * 3, flags)
        # flags drawn in periods before settle are read through it
        assert settle < block - 1
        rep = simulate(design, BehaviorProfile.uniform(3, "tit-for-tat"), env,
                       mon, tm, horizon, seed, time_series=True)
        _assert_tft_matches(rep, whole_horizon_tft_run(design, env, mon, tm,
                                                       horizon, seed))

    @pytest.mark.parametrize("block", [1, 7, 64])
    @pytest.mark.parametrize("beta_t", [0.2, 1.0, 3.7])
    def test_later_periods_leave_the_sums(self, beta_t, block):
        # once a run settles, booking every entry as 1 in every period from
        # settle to zero, in blocks, leaves each discounted count and the
        # weight sum bit for bit
        from mutualsec import sim

        delta = math.exp(-beta_t)
        zero = sim._Ledger(1, 1.0, delta, np.zeros(1), np.ones(1)).zero
        settled = 0
        for size, p, first, seed in itertools.product(
                (1, 9, 64), (0.02, 0.3), (0.0, 1.0), (0, 1)):
            ledger = sim._Ledger(zero + 5, 1.0, delta, np.zeros(size),
                                 np.ones(size)).open(None)
            starts = []
            tail = ledger.tail
            ledger.tail = lambda a, b, c: (starts.append(a), tail(a, b, c))
            sim._stream(np.random.default_rng(seed), ledger,
                        np.full(size, first), p, [], {})
            settle = starts[0] - 1
            if settle >= zero:
                continue
            settled += 1
            discounted, weight = ledger.sums[1].copy(), ledger.weight
            for start in range(settle, zero, block):
                stop = min(start + block, zero)
                ledger.add(start, np.ones((stop - start, size)))
            assert ledger.sums[1].tobytes() == discounted.tobytes()
            assert ledger.weight == weight
        assert settled >= 16
