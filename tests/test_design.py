import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mutualsec import (
    Environment,
    MonitoringModel,
    NotIncentiveCompatibleError,
    RatingDesign,
    Subset,
    TrafficMatrix,
    brute_force_optimal,
    critical_traffic,
    fds_sufficient,
    feasible_period_interval,
    first_best,
    ic_check,
    minimize_loss_factor,
    optimal_design,
    security_cost,
    validate_assumptions,
)
from mutualsec import design

from support import (
    REFERENCE_ENV,
    loss_factor,
    random_connected_matrix,
    random_convex_table,
    random_environment,
    random_feasible_instance,
    reference_instance,
)


class TestEnvironment:
    def test_field_validation_messages(self):
        with pytest.raises(ValueError, match="p_low"):
            Environment(p_high=0.3, p_low=-0.1, c=0.3, beta=0.2)
        with pytest.raises(ValueError, match="p_low"):
            Environment(p_high=0.3, p_low=0.8, c=0.3, beta=0.2)
        with pytest.raises(ValueError, match="p_high"):
            Environment(p_high=1.3, p_low=0.05, c=0.3, beta=0.2)
        with pytest.raises(ValueError, match="c"):
            Environment(p_high=0.3, p_low=0.05, c=0.0, beta=0.2)
        with pytest.raises(ValueError, match="beta"):
            Environment(p_high=0.3, p_low=0.05, c=0.3, beta=-1.0)

    def test_gap(self):
        assert REFERENCE_ENV.gap == pytest.approx(0.25)


class TestMonitoringModel:
    def test_rational_formula(self):
        mon = MonitoringModel.rational(0.1)
        assert float(mon.epsilon(5.0)) == pytest.approx(0.1 / 5.2, rel=1e-14)
        assert float(mon.epsilon(0.0)) == pytest.approx(0.5)
        out = mon.epsilon(np.array([1.0, 2.0, 4.0]))
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0)

    def test_scalar_epsilon_matches_array_path(self):
        # the kernel's plain-float epsilon is bit-identical to np.interp (and
        # to the rational formula) at breakpoints, between them and outside
        # the table
        rng = np.random.default_rng(21)
        for k in range(60):
            mon = (MonitoringModel.rational(float(rng.uniform(0.001, 5.0)))
                   if k % 4 == 0 else random_convex_table(rng))
            t_end = 30.0 if mon._ts is None else float(mon._ts[-1])
            points = list(rng.uniform(-1.0, t_end + 5.0, 200))
            points += [0.0, 1e-300, t_end, t_end * 2.0]
            if mon._ts is not None:
                points += mon._ts.tolist()
                points += [math.nextafter(t, math.inf) for t in mon._ts]
                points += [math.nextafter(t, -math.inf) for t in mon._ts]
            for t in points:
                assert design._epsilon(mon, t) == float(mon.epsilon(t)), t

    def test_rational_validation(self):
        with pytest.raises(ValueError, match="w0"):
            MonitoringModel.rational(0.0)

    def test_tabulated_interpolation(self):
        mon = MonitoringModel.tabulated([(0.0, 0.4), (2.0, 0.2), (4.0, 0.1)])
        assert float(mon.epsilon(1.0)) == pytest.approx(0.3)
        # endpoints held flat beyond the table
        assert float(mon.epsilon(10.0)) == pytest.approx(0.1)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            MonitoringModel.tabulated([(0.0, 0.4)])
        with pytest.raises(ValueError, match="increasing"):
            MonitoringModel.tabulated([(1.0, 0.4), (1.0, 0.3)])
        with pytest.raises(ValueError, match="non-increasing"):
            MonitoringModel.tabulated([(0.0, 0.2), (1.0, 0.3)])
        with pytest.raises(ValueError, match="0.5"):
            MonitoringModel.tabulated([(0.0, 0.7), (1.0, 0.3)])
        with pytest.raises(ValueError, match="convex"):
            MonitoringModel.tabulated(
                [(0.0, 0.4), (1.0, 0.39), (2.0, 0.2)])
        # held flat at 0.3 below T=1, so the drop at the first step is a
        # concave kink
        with pytest.raises(ValueError, match="convex"):
            MonitoringModel.tabulated([(1.0, 0.3), (2.0, 0.1), (3.0, 0.05)])
        # on an uneven grid convexity compares slopes, not value steps
        with pytest.raises(ValueError, match="convex"):
            MonitoringModel.tabulated([(0.0, 0.4), (10.0, 0.3), (11.0, 0.2)])
        MonitoringModel.tabulated([(0.0, 0.4), (1.0, 0.3), (10.0, 0.2)])
        MonitoringModel.tabulated([(1.0, 0.3), (2.0, 0.3), (3.0, 0.3)])

    def test_validity_report(self):
        ok, detail = MonitoringModel.rational(0.3).validity_report()
        assert ok and "w0" in detail
        ok, _ = MonitoringModel.tabulated([(0.0, 0.4), (1.0, 0.2)]
                                          ).validity_report()
        assert ok


class TestLossFactor:
    def test_known_values(self):
        env = Environment(p_high=0.3, p_low=0.05, c=0.3, beta=0.2)
        mon = MonitoringModel.rational(0.4)
        got = design._loss_at(env, mon, 5.0)
        # equals w0 * exp(beta T) / T for this error family
        assert got == pytest.approx(0.4 * math.e / 5.0, rel=1e-12)
        assert got == pytest.approx(0.21746254627672362, rel=1e-12)
        env2 = Environment(p_high=0.3, p_low=0.05, c=0.3, beta=0.4)
        got2 = design._loss_at(env2, MonitoringModel.rational(0.1), 2.5)
        assert got2 == pytest.approx(0.10873127313836181, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(beta=st.floats(0.05, 2.0), w0=st.floats(0.01, 1.0),
           t=st.floats(0.05, 20.0))
    def test_rational_family_identity(self, beta, w0, t):
        # e^{beta T} eps / (1 - 2 eps) collapses to w0 e^{beta T} / T when
        # eps = w0 / (T + 2 w0); the implementation computes the former
        env = Environment(p_high=0.3, p_low=0.05, c=0.3, beta=beta)
        mon = MonitoringModel.rational(w0)
        got = design._loss_at(env, mon, t)
        assert got == pytest.approx(w0 * math.exp(beta * t) / t, rel=1e-11)

    def test_infinite_where_error_reaches_half(self):
        # the rational family has epsilon(0) = 1/2; the flat table holds it
        env, mon, _ = reference_instance()
        assert design._loss_at(env, mon, 0.0) == math.inf
        flat = MonitoringModel.tabulated([(0.0, 0.5), (1.0, 0.5)])
        assert design._loss_at(env, flat, 0.5) == math.inf


class TestFeasibleInterval:
    def test_reference_contains_optimum(self):
        env, mon, tm = reference_instance()
        nu = critical_traffic(tm, Subset.full(8))
        interval = feasible_period_interval(env, mon, nu)
        assert interval is not None
        assert interval.lo > 0
        assert interval.lo <= 5.0 <= interval.hi
        # just past either endpoint the maximal-spread design loses IC
        design_hi = RatingDesign(interval.hi * 1.01, env.p_high, env.p_low,
                                 Subset.full(8))
        assert not ic_check(design_hi, env, mon, tm, 0)
        design_in = RatingDesign(interval.hi * 0.99, env.p_high, env.p_low,
                                 Subset.full(8))
        assert ic_check(design_in, env, mon, tm, 0)

    def test_rational_edges_are_tight(self):
        # both edges pass the headroom test h(T) <= bound, and moving either
        # one outward by 1e-9 relative fails it
        rng = np.random.default_rng(31)
        checked = 0
        for _ in range(1500):
            beta = math.exp(rng.uniform(math.log(0.003), math.log(6.0)))
            w0 = math.exp(rng.uniform(math.log(0.001), math.log(5.0)))
            bound = math.exp(rng.uniform(0.001, math.log(1e5)))
            env = Environment(p_high=0.3, p_low=0.05, c=0.25 / bound,
                              beta=beta)
            interval = feasible_period_interval(
                env, MonitoringModel.rational(w0), 1.0)
            if interval is None:
                continue
            bound = env.gap / env.c
            h = lambda t: math.exp(beta * t) * (1.0 + 2.0 * w0 / t)
            assert h(interval.lo) <= bound < h(interval.lo * (1 - 1e-9))
            assert h(interval.hi) <= bound < h(interval.hi * (1 + 1e-9))
            checked += 1
        assert checked > 300

    def test_tabulated_edges_are_tight(self):
        # as for rational monitors: both edges pass h(T) <= bound and moving
        # either one outward by 1e-9 relative fails it.  The first case has
        # its minimum headroom at the kink T=2 and a bound 1e-12 above it.
        rng = np.random.default_rng(32)
        kink = MonitoringModel.tabulated(
            [(0.0, 0.5), (1.0, 0.3), (2.0, 0.1), (3.0, 0.05)])
        cases = [(kink, 0.2, math.exp(0.4) / 0.8 * (1 + 1e-12))]
        while len(cases) < 300:
            mon = random_convex_table(rng)
            beta = float(rng.uniform(0.02, 1.5))
            probe = np.geomspace(1e-6, 60.0, 4000)
            eps = mon.epsilon(probe)
            h_min = float((np.exp(beta * probe) / (1 - 2 * eps)).min())
            if math.isfinite(h_min):
                cases.append((mon, beta,
                              h_min * float(rng.uniform(1.001, 1.5))))
        checked = 0
        for mon, beta, bound in cases:
            env = Environment(p_high=0.3, p_low=0.05, c=0.25 / bound,
                              beta=beta)
            interval = feasible_period_interval(env, mon, 1.0)
            assert interval is not None
            bound = env.gap / env.c
            h = lambda t: math.exp(beta * t) / (1 - 2 * float(mon.epsilon(t)))
            if interval.lo > 0:
                assert h(interval.lo) <= bound < h(interval.lo * (1 - 1e-9))
                checked += 1
            assert h(interval.hi) <= bound < h(interval.hi * (1 + 1e-9))
        assert checked > 40

    def test_infeasible_when_cost_dominates(self):
        env = Environment(p_high=0.3, p_low=0.05, c=5.0, beta=0.2)
        mon = MonitoringModel.rational(0.1)
        assert feasible_period_interval(env, mon, 7.0) is None

    def test_zero_lower_edge_with_sharp_monitor(self):
        # an error curve bounded below 1/2 at T=0 admits arbitrarily short
        # periods
        env = REFERENCE_ENV
        mon = MonitoringModel.tabulated([(0.0, 0.05), (10.0, 0.04)])
        interval = feasible_period_interval(env, mon, 7.0)
        assert interval is not None
        assert interval.lo == 0.0

    def test_flat_table_above_the_bound_is_infeasible(self):
        # h(T) = exp(beta*T) / (1 - 2*0.45) is at least 10 for every T, and
        # the reference bound is 0.25 * 7 / 0.3, below 10
        flat = MonitoringModel.tabulated([(0.0, 0.45), (10.0, 0.45)])
        assert feasible_period_interval(REFERENCE_ENV, flat, 7.0) is None
        env, _, tm = reference_instance()
        assert not optimal_design(env, flat, tm).feasible

    @pytest.mark.parametrize("nu", [0.0, -1.0])
    def test_no_critical_traffic_is_infeasible(self, nu):
        mon = MonitoringModel.rational(0.1)
        assert feasible_period_interval(REFERENCE_ENV, mon, nu) is None


class TestMinimizeLossFactor:
    def test_reference_instance(self):
        env, mon, tm = reference_instance()
        found = minimize_loss_factor(env, mon, 7.0)
        assert found is not None
        t_star, g_star = found
        assert t_star == pytest.approx(5.0, rel=1e-6)
        assert g_star == pytest.approx(0.054365636569180906, rel=1e-9)

    def test_unconstrained_minimum_at_inverse_beta(self):
        # with a tiny deployment cost the feasible range is wide and the
        # optimum sits at the interior stationary point 1/beta, where the
        # loss factor equals w0 * beta * e
        for beta, w0 in ((0.2, 0.05), (0.5, 0.02), (1.0, 0.01)):
            env = Environment(p_high=0.3, p_low=0.05, c=1e-4, beta=beta)
            mon = MonitoringModel.rational(w0)
            t_star, g_star = minimize_loss_factor(env, mon, 7.0)
            assert t_star == pytest.approx(1.0 / beta, rel=1e-6)
            assert g_star == pytest.approx(w0 * beta * math.e, rel=1e-9)

    def test_matches_dense_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            env, mon, tm = random_feasible_instance(rng)
            nu = critical_traffic(tm, Subset.full(tm.n))
            interval = feasible_period_interval(env, mon, nu)
            t_star, g_star = minimize_loss_factor(env, mon, nu)
            lo = interval.lo if interval.lo > 0 else interval.hi * 1e-9
            grid = np.linspace(lo, interval.hi, 20000)
            assert g_star <= loss_factor(env, mon, grid).min() * (1 + 1e-6)

    def test_matches_dense_grid_tabulated(self):
        # the per-piece optimum of a tabulated curve must be feasible and at
        # least as good as a dense grid evaluated with numpy's
        # interpolation.  The first case is fixed: its optimum is the last
        # breakpoint, g = 0.2161326, where a search that skips breakpoints
        # stops near T = 2.368, g = 0.2162939.
        fixed = (
            Environment(p_high=0.2891793790490087, p_low=0.12847397449277279,
                        c=0.03241867198640178, beta=0.46573371078478015),
            MonitoringModel.tabulated(list(zip(
                np.linspace(0, 2.7625722772375125, 8).tolist(),
                [0.23016433280844367, 0.18011111903206678, 0.142199166982136,
                 0.1134834062987609, 0.09173314372882349, 0.07525877875979431,
                 0.06278055233562674, 0.05332913281290086]))),
        )
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 40:
            if checked == 0:
                env, mon = fixed
            else:
                mon = random_convex_table(rng)
                beta = float(rng.uniform(0.02, 1.5))
                probe = np.geomspace(1e-6, 60.0, 4000)
                eps = mon.epsilon(probe)
                h_min = float((np.exp(beta * probe) / (1 - 2 * eps)).min())
                if not math.isfinite(h_min):
                    continue
                bound = h_min * float(rng.uniform(1.05, 4.0))
                env = Environment(p_high=0.3, p_low=0.05, c=0.25 / bound,
                                  beta=beta)
            beta = env.beta
            interval = feasible_period_interval(env, mon, 1.0)
            if interval is None:
                assert checked > 0, "the fixed case is feasible"
                continue
            t_star, g_star = minimize_loss_factor(env, mon, 1.0)
            assert interval.lo <= t_star <= interval.hi
            lo = interval.lo if interval.lo > 0 else interval.hi * 1e-9
            grid = np.linspace(lo, interval.hi, 20000)
            assert g_star <= loss_factor(env, mon, grid).min() * (1 + 1e-6)
            checked += 1

    def test_tabulated_breakpoint_optimum_is_exact(self):
        # g falls on [1, 2] and [2, 3] and rises beyond the table, and the
        # last piece's slope -0.05 is below -beta/8, so no stationary point:
        # the optimum is the breakpoint itself
        env, _, tm = reference_instance()
        mon = MonitoringModel.tabulated(
            [(0.0, 0.5), (1.0, 0.3), (2.0, 0.1), (3.0, 0.05)])
        r = optimal_design(env, mon, tm)
        assert r.t_star == 3.0
        assert r.g_star == loss_factor(env, mon, 3.0)

    def test_rational_optimum_is_clamped_inverse_beta(self):
        # g(T) = w0 exp(beta T) / T is minimized at 1/beta, so the optimum is
        # exactly 1/beta clamped into the feasible interval
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(600):
            beta = math.exp(rng.uniform(math.log(0.003), math.log(6.0)))
            w0 = math.exp(rng.uniform(math.log(0.001), math.log(5.0)))
            env = Environment(p_high=0.3, p_low=0.05,
                              c=0.25 / math.exp(rng.uniform(0.001, 11.5)),
                              beta=beta)
            mon = MonitoringModel.rational(w0)
            interval = feasible_period_interval(env, mon, 1.0)
            found = minimize_loss_factor(env, mon, 1.0)
            assert (interval is None) == (found is None)
            if found is None:
                continue
            t_star, g_star = found
            assert t_star == min(max(1.0 / beta, interval.lo), interval.hi)
            assert g_star == pytest.approx(w0 * math.exp(beta * t_star)
                                           / t_star, rel=1e-14)
            checked += 1
        assert checked > 100

    def test_none_when_infeasible(self):
        env = Environment(p_high=0.3, p_low=0.05, c=5.0, beta=0.2)
        mon = MonitoringModel.rational(0.1)
        assert minimize_loss_factor(env, mon, 7.0) is None


class TestOptimalDesign:
    def test_reference_values(self):
        env, mon, tm = reference_instance()
        r = optimal_design(env, mon, tm)
        assert r.feasible
        assert r.t_star == pytest.approx(5.0, rel=1e-6)
        assert r.p0_star == pytest.approx(0.17115770435417457, rel=1e-6)
        assert r.p1_star == 0.05
        assert r.g_star == pytest.approx(0.054365636569180906, rel=1e-9)
        assert r.j_star == pytest.approx(5.330477527766034, rel=1e-12)
        assert r.binding_as == 0
        assert first_best(env, tm) == pytest.approx(5.2)

    def test_cost_formula_consistency(self):
        # the closed-form cost equals the mixed-price accounting identity
        rng = np.random.default_rng(5)
        for _ in range(20):
            env, mon, tm = random_feasible_instance(rng)
            r = optimal_design(env, mon, tm)
            j = security_cost(r.design(), env, mon, tm)
            assert j == pytest.approx(r.j_star, rel=1e-10)

    def test_binding_constraint_is_tight(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            env, mon, tm = random_feasible_instance(rng)
            r = optimal_design(env, mon, tm)
            eps = float(mon.epsilon(r.t_star))
            nu = critical_traffic(tm, Subset.full(tm.n))
            lhs = ((1 - 2 * eps) * math.exp(-env.beta * r.t_star)
                   * (r.p0_star - r.p1_star) * nu)
            if r.p0_star < env.p_high - 1e-12:
                assert lhs == pytest.approx(env.c, rel=1e-8)
            else:
                assert lhs >= env.c * (1 - 1e-8)

    def test_price_bounds_respected(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            env, mon, tm = random_feasible_instance(rng)
            r = optimal_design(env, mon, tm)
            assert env.p_low <= r.p1_star <= r.p0_star <= env.p_high
            assert r.j_star >= first_best(env, tm) - 1e-12

    def test_subset_design(self):
        env, mon, tm = reference_instance()
        sub = Subset.of([0, 1, 2], n=8)
        r = optimal_design(env, mon, tm, sub)
        assert r.feasible
        assert r.subset == sub
        # non-members stay at the cap price, members get the discount
        full = optimal_design(env, mon, tm)
        assert r.j_star > full.j_star

    def test_empty_subset_rejected(self):
        env, mon, tm = reference_instance()
        with pytest.raises(ValueError):
            optimal_design(env, mon, tm, Subset.of([]))

    def test_infeasible_diagnostics(self):
        mon = MonitoringModel.rational(0.1)
        env = Environment(p_high=0.3, p_low=0.05, c=5.0, beta=0.2)
        tm = TrafficMatrix.complete(8, 1.0)
        r = optimal_design(env, mon, tm)
        assert not r.feasible
        assert "no assessment period" in r.diagnostic
        assert r.t_star is None
        # a subset with no internal traffic has zero critical traffic
        tm2 = TrafficMatrix.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        r2 = optimal_design(REFERENCE_ENV, mon, tm2, Subset.of([0, 2]))
        assert not r2.feasible
        assert "zero critical traffic" in r2.diagnostic

    def test_p0_decreasing_in_critical_traffic(self):
        env = REFERENCE_ENV
        mon = MonitoringModel.rational(0.1)
        previous = None
        for n in range(4, 10):
            r = optimal_design(env, mon, TrafficMatrix.complete(n, 1.0))
            if previous is not None:
                assert r.p0_star < previous
            previous = r.p0_star

    def test_loss_shrinks_with_better_monitoring(self):
        env, _, tm = reference_instance()
        previous = None
        for w0 in (0.4, 0.2, 0.1, 0.05, 0.01):
            r = optimal_design(env, MonitoringModel.rational(w0), tm)
            assert r.feasible
            if previous is not None:
                assert r.g_star < previous
            previous = r.g_star


class TestSecurityCost:
    def test_rejects_out_of_range_prices(self):
        env, mon, tm = reference_instance()
        bad = RatingDesign(5.0, 0.9, 0.05, Subset.full(8))
        with pytest.raises(ValueError):
            security_cost(bad, env, mon, tm)

    def test_not_ic_raises_with_violators(self):
        env, mon, tm = reference_instance()
        r = optimal_design(env, mon, tm)
        d = r.design()
        weak = RatingDesign(d.T, d.p1 + (d.p0 - d.p1) / 2, d.p1, d.subset)
        with pytest.raises(NotIncentiveCompatibleError) as exc:
            security_cost(weak, env, mon, tm)
        assert exc.value.violators == tuple(range(8))

    def test_empty_subset_costs_cap_price_everywhere(self):
        env, mon, tm = reference_instance()
        d = RatingDesign(1.0, env.p_high, env.p_high, Subset.of([]))
        assert security_cost(d, env, mon, tm) == pytest.approx(16.8)
        # nobody filters, so all traffic pays the cap price, to the bit
        tm = TrafficMatrix([[0, 2, 0.3], [0.7, 0, 0.1], [1, 3, 0]])
        d = RatingDesign(2.0, env.p_low, env.p_low, Subset.of([]))
        assert security_cost(d, env, mon, tm) == env.p_high * (2.3 + 0.8 + 4.0)


class TestIcRegion:
    def test_reference_beta_max(self):
        # the design stays IC while (1 - 2 eps) exp(-beta T) (p0 - p1) nu
        # >= c, so the largest such beta is log((1 - 2 eps)(p0 - p1) nu / c) / T
        env, mon, tm = reference_instance()
        d = RatingDesign(5.0, env.p_high, env.p_low, Subset.full(8))
        eps = float(mon.epsilon(d.T))
        beta_max = math.log((1 - 2 * eps) * (d.p0 - d.p1) * 7.0 / env.c) / d.T
        assert beta_max == pytest.approx(0.3448735758216155, rel=1e-9)
        lo = Environment(p_high=0.3, p_low=0.05, c=0.3, beta=beta_max * 0.999)
        hi = Environment(p_high=0.3, p_low=0.05, c=0.3, beta=beta_max * 1.001)
        assert ic_check(d, lo, mon, tm, 0)
        assert not ic_check(d, hi, mon, tm, 0)


class TestIcCheck:
    def test_non_member_always_passes(self):
        env, mon, tm = reference_instance()
        d = RatingDesign(5.0, env.p_high, env.p_low, Subset.of([0, 1], n=8))
        assert ic_check(d, env, mon, tm, 7)

    def test_index_range(self):
        env, mon, tm = reference_instance()
        d = RatingDesign(5.0, env.p_high, env.p_low, Subset.full(8))
        with pytest.raises(ValueError):
            ic_check(d, env, mon, tm, 8)


class TestAssumptions:
    def test_reference_all_ok(self):
        env, mon, tm = reference_instance()
        report = validate_assumptions(env, mon, tm)
        assert report.all_ok
        assert report.monitor.passed
        assert report.viability.passed
        assert report.social_gain.passed
        d = report.to_dict()
        assert set(d) == {"monitor", "viability", "social_gain"}
        with_subset = validate_assumptions(env, mon, tm, Subset.full(8))
        assert "subset_note" in with_subset.to_dict()

    def test_viability_flags_weak_as(self):
        # one AS with tiny traffic cannot justify the deployment cost
        arr = np.full((4, 4), 1.0)
        np.fill_diagonal(arr, 0.0)
        arr[3, :] = arr[:, 3] = 0.0
        arr[3, 0] = arr[0, 3] = 0.1
        tm = TrafficMatrix(arr)
        report = validate_assumptions(REFERENCE_ENV,
                                      MonitoringModel.rational(0.1), tm)
        assert not report.viability.passed
        assert report.viability.ases == (3,)
        assert report.social_gain.ases == ()

    def test_social_gain_fails_with_sloppy_monitor(self):
        env, _, tm = reference_instance()
        report = validate_assumptions(env, MonitoringModel.rational(5.0), tm)
        assert not report.social_gain.passed

    def test_social_gain_fails_for_an_as_that_sends_nothing(self):
        # AS 2 sends no traffic: its filtering benefits no one, so its net
        # benefit is -c
        tm = TrafficMatrix.from_edges(
            3, [(0, 1, 4.0), (1, 0, 4.0), (0, 2, 4.0), (1, 2, 4.0)],
            directed=True)
        report = validate_assumptions(REFERENCE_ENV,
                                      MonitoringModel.rational(0.1), tm)
        assert report.viability.passed
        assert not report.social_gain.passed
        assert report.social_gain.ases == (2,)
        assert report.social_gain.detail.endswith(
            "least per-AS net benefit -0.3")
        assert not report.all_ok

    def test_social_gain_fails_for_a_subnormal_sender(self):
        # its net benefit rounds to -c: a failed check, not a warning
        tm = TrafficMatrix(
            [[0.0, 4.0, 4.0], [4.0, 0.0, 4.0], [1e-310, 0.0, 0.0]])
        report = validate_assumptions(REFERENCE_ENV,
                                      MonitoringModel.rational(0.1), tm)
        assert not report.social_gain.passed
        assert "least per-AS net benefit -0.3" in report.social_gain.detail
        assert report.social_gain.ases == (2,)


def loss_rate(env, mon, tm):
    """g*(nu)·c/nu at the full set's critical traffic, or None."""
    nu = float(tm.inbound.min())
    found = minimize_loss_factor(env, mon, nu)
    return None if found is None else found[1] * env.c / nu


def random_weak_sender_instance(rng, k):
    """A random symmetric instance in which one AS sends a random fraction
    of its rates, so that some instances fail the social-gain check; odd k
    draw a rational monitor, even k a tabulated one."""
    n = int(rng.integers(3, 9))
    rates = random_connected_matrix(rng, n).rates.copy()
    rates[rng.integers(0, n)] *= rng.uniform(0.0, 0.5)
    tm = TrafficMatrix(rates)
    env = random_environment(rng, float(tm.inbound.min()))
    mon = (MonitoringModel.rational(float(rng.uniform(0.02, 0.5))) if k % 2
           else random_convex_table(rng))
    return env, mon, tm


class TestSocialGainIdentity:
    """The social-gain check fails exactly the ASs whose net benefit at
    the full set's loss rate r is negative: (p_high - p_low - r)·mu_i < c."""

    def test_failing_set_is_negative_net_benefit(self):
        rng = np.random.default_rng(31)
        seen = {"passed": 0, "failed": 0}
        for k in range(300):
            env, mon, tm = random_weak_sender_instance(rng, k)
            if k % 3:  # a silent or a subnormal sender
                rates = tm.rates.copy()
                i = rng.integers(0, tm.n)
                rates[i] = np.where(rates[i] > 0,
                                    1e-310 if k % 3 == 1 else 0.0, 0.0)
                tm = TrafficMatrix(rates)
            r = loss_rate(env, mon, tm)
            if r is None:
                continue
            check = validate_assumptions(env, mon, tm).social_gain
            want = {i for i, mu in enumerate(tm.outbound.tolist())
                    if (env.gap - r) * mu < env.c}
            assert set(check.ases) == want
            assert check.passed == (not want)
            seen["passed" if check.passed else "failed"] += 1
        assert min(seen.values()) >= 20

    def test_agrees_with_the_margin_bound(self):
        # The check used to compare g* with each AS's margin bound
        # (gap·mu_i - c)·nu/(c·mu_i), the same inequality rearranged; the
        # two may part only where a margin ties g* up to rounding.
        rng = np.random.default_rng(32)
        compared = 0
        for k in range(2000):
            env, mon, tm = random_weak_sender_instance(rng, k)
            check = validate_assumptions(env, mon, tm).social_gain
            nu = float(tm.inbound.min())
            found = minimize_loss_factor(env, mon, nu)
            if found is None:
                assert (check.passed, check.ases) == (False, ())
                continue
            g_star, mu = found[1], tm.outbound
            margins = (env.gap * mu - env.c) * nu / (env.c * mu)
            if np.any(np.abs(margins - g_star) <= 1e-12 * g_star):
                continue
            compared += 1
            assert check.passed == (g_star <= margins.min())
            assert check.ases == tuple(np.flatnonzero(margins < g_star))
        assert compared >= 1000


class TestOneTrafficTotal:
    """Every set cost prices the same total M of outbound rates."""

    @staticmethod
    def random_instances(rng, count):
        for _ in range(count):
            n = int(rng.integers(3, 41))
            rates = rng.uniform(0.0, 2.0, (n, n))
            np.fill_diagonal(rates, 0.0)
            tm = TrafficMatrix(rates)
            yield random_environment(rng, float(tm.inbound.min())), tm

    def test_no_deployment_is_the_empty_design(self):
        rng = np.random.default_rng(33)
        mon = MonitoringModel.rational(0.1)
        for env, tm in self.random_instances(rng, 200):
            empty = RatingDesign(1.0, env.p_high, env.p_low, Subset(()))
            assert design.DesignResult.no_deployment(env, tm).j_star == \
                security_cost(empty, env, mon, tm)

    def test_first_best_and_full_design_share_a_total(self):
        rng = np.random.default_rng(34)
        mon = MonitoringModel.rational(0.1)
        feasible = 0
        for env, tm in self.random_instances(rng, 200):
            total, nu = tm._outbound_total, float(tm.inbound.min())
            assert first_best(env, tm) == env.p_low * total + tm.n * env.c
            r = optimal_design(env, mon, tm)
            if r.feasible:
                feasible += 1
                assert r.j_star == (env.p_low + r.g_star * env.c / nu) \
                    * total + tm.n * env.c
        assert feasible >= 100


class TestFdsSufficient:
    def test_reference_cases(self):
        env, _, tm = reference_instance()
        assert fds_sufficient(env, MonitoringModel.rational(0.01), tm)
        infeasible_env = Environment(p_high=0.3, p_low=0.05, c=5.0, beta=0.2)
        assert not fds_sufficient(infeasible_env,
                                  MonitoringModel.rational(0.01), tm)

    def test_full_set_is_the_brute_force_optimum(self):
        # c ranges up to the least sender's whole filtering benefit, so the
        # condition holds on some instances and fails on others
        rng = np.random.default_rng(35)
        held = failed = 0
        for k in range(200):
            n = int(rng.integers(2, 11))
            tm = random_connected_matrix(rng, n)
            gap = 0.35
            c = float(rng.uniform(0.01, 1.0)) * gap * float(tm.outbound.min())
            env = Environment(p_high=0.4, p_low=0.05, c=c,
                              beta=float(rng.uniform(0.05, 0.5)))
            mon = (MonitoringModel.rational(float(rng.uniform(0.005, 0.3)))
                   if k % 2 else random_convex_table(rng))
            if not fds_sufficient(env, mon, tm):
                failed += 1
                continue
            held += 1
            assert brute_force_optimal(env, mon, tm).subset == Subset.full(n)
        assert held >= 40 and failed >= 40
