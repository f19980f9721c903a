import dataclasses
import hashlib
import json
import math
import pickle
import sys
from pathlib import Path

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
    EDGE_TABLES,
    REFERENCE_ENV,
    ZERO_BREAK,
    loss_factor,
    random_connected_matrix,
    random_convex_table,
    random_environment,
    random_feasible_instance,
    random_zero_table,
    reference_high_piece,
    reference_instance,
    reference_tabulated_minimum,
    tabulated_probes,
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
        # the table, at +-inf and NaN; the piece starts include the held 0.0
        # of tables that start after T=0
        rng = np.random.default_rng(21)
        monitors = [MonitoringModel.rational(float(rng.uniform(0.001, 5.0)))
                    if k % 4 == 0 else random_convex_table(rng)
                    for k in range(60)]
        monitors += [MonitoringModel.tabulated(table) for table in (
            [(1.5, 0.2), (4.0, 0.2)],
            [(2.0, 0.3), (3.0, 0.3 - 1e-10), (5.0, 0.3 - 1.5e-10)],
            [(1e-300, 0.4), (1e-299, 0.4), (7.0, 0.4)],
        )]
        for mon in monitors:
            t_end = 30.0 if mon._ts is None else float(mon._ts[-1])
            points = list(rng.uniform(-1.0, t_end + 5.0, 200))
            points += [0.0, -0.0, 1e-300, -1e-300, -5.0, t_end, t_end * 2.0,
                       math.inf, -math.inf, 1e-323]
            if mon._ts is not None:
                starts = [0.0] + mon._ts.tolist()
                points += starts
                points += [math.nextafter(t, math.inf) for t in starts]
                points += [math.nextafter(t, -math.inf) for t in starts]
            for t in points:
                assert design._epsilon(mon, t) == float(mon.epsilon(t)), t
            assert math.isnan(design._epsilon(mon, math.nan))
            assert math.isnan(float(mon.epsilon(math.nan)))

    def test_on_piece_epsilon_matches_the_lookup(self):
        # epsilon read on a known piece, as the design kernel walks the
        # pieces, is the float the lookup returns: at each piece's ends,
        # next to them and inside, where the right end reads the next
        # piece's first value, not the piece's own line rounded there
        rng = np.random.default_rng(22)
        monitors = [(random_convex_table if k % 2 else random_zero_table)(rng)
                    for k in range(80)]
        monitors += [MonitoringModel.tabulated(t) for t in EDGE_TABLES.values()]
        ends = 0
        for mon in monitors:
            pieces = mon._pieces
            for k, (t0, t1, e0, s) in enumerate(pieces[:-1]):
                points = [t0, t1, math.nextafter(t0, t1),
                          math.nextafter(t1, t0), *rng.uniform(t0, t1, 5)]
                for t in points:
                    assert design._on_piece(pieces, k, t) == \
                        design._epsilon(mon, t), (k, t)
                ends += s * (t1 - t0) + e0 != pieces[k + 1][2]
            t0 = pieces[-1][0]
            for t in (t0, t0 + 1.0, t0 * 1e6):
                assert design._on_piece(pieces, len(pieces) - 1, t) == \
                    design._epsilon(mon, t)
        assert ends > 10  # where the piece's own line misses by rounding

    def test_epsilon_held_at_zero_under_a_zero_breakpoint(self):
        # a piece's line can round below 0 just under the breakpoint where
        # the table reaches 0: 1 ulp under it here, -2.78e-17; both
        # lookups hold it at 0.0, and the loss factor is 0.0, not negative
        mon = MonitoringModel.tabulated(ZERO_BREAK)
        t = math.nextafter(ZERO_BREAK[-1][0], 0.0)
        t0, t1, e0, s = mon._pieces[1]  # the piece that falls to 0
        assert t0 < t < t1 and s * (t - t0) + e0 < 0.0
        assert design._on_piece(mon._pieces, 1, t).hex() == "0x0.0p+0"
        assert design._epsilon(mon, t).hex() == "0x0.0p+0"
        assert float(mon.epsilon(t)).hex() == "0x0.0p+0"
        assert design._loss_at(REFERENCE_ENV, mon, t) == 0.0
        # and over tables of the same shape, 1-6 ulps under the breakpoint
        rng = np.random.default_rng(23)
        below = 0
        for _ in range(3000):
            e0, t1 = rng.uniform(0.05, 0.5), 10.0 ** rng.uniform(-4.0, -1.0)
            e1 = e0 * rng.uniform(0.3, 0.9)
            t2 = t1 + e1 * t1 / (e0 - e1) / rng.uniform(0.05, 0.99)
            mon = MonitoringModel.tabulated([(0.0, e0), (t1, e1), (t2, 0.0)])
            t0, _, e0, s = mon._pieces[1]
            t = float(t2)
            for _ in range(6):
                t = math.nextafter(t, 0.0)
                eps = design._epsilon(mon, t)
                assert eps >= 0.0 and \
                    eps.hex() == float(mon.epsilon(t)).hex(), t
                below += s * (t - t0) + e0 < 0.0
        assert below > 0

    def test_negative_zero_table_values_read_as_zero(self):
        # -0.0 in a table is 0.0, so both lookups agree to the float hex
        # on the flat pieces too, where s*(t - t0) + e0 would lose the sign
        for table in ([(0.0, 0.2), (1.0, -0.0), (2.0, -0.0)],
                      [(1.0, -0.0), (2.0, 0.0), (3.0, -0.0)]):
            mon = MonitoringModel.tabulated(table)
            for t in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 9.0, math.inf):
                eps = design._epsilon(mon, t)
                assert eps.hex() == float(mon.epsilon(t)).hex(), t
                assert math.copysign(1.0, eps) == 1.0, t

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
        # the first slope overflows to -inf
        with pytest.raises(ValueError, match="finite slope"):
            MonitoringModel.tabulated([(0.0, 0.5), (2e-323, 0.0), (1.0, 0.0)])
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

    def test_unknown_kind_and_negative_periods(self):
        with pytest.raises(ValueError,
                           match="unknown monitoring kind: 'odd'"):
            MonitoringModel("odd")
        with pytest.raises(ValueError,
                           match="tabulated periods must be non-negative"):
            MonitoringModel.tabulated([(-1.0, 0.5), (1.0, 0.2)])

    def test_repr(self):
        assert repr(MonitoringModel.rational(0.1)) == \
            "MonitoringModel.rational(w0=0.1)"
        table = MonitoringModel.tabulated([(0.0, 0.4), (2.0, 0.2), (6.0, 0.1)])
        assert repr(table) == "MonitoringModel.tabulated(3 points)"

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


def _recorded(f, calls):
    """f, appending each argument it is called with to `calls`."""
    def g(t):
        calls.append(t)
        return f(t)
    return g


class TestNewton:
    """design._newton evaluates phi and dphi once at each iterate and keeps
    the last one it could evaluate."""

    def test_converges_evaluating_each_iterate_once(self):
        # phi = t**2 - 2 from the right: the iterates fall to sqrt(2) and
        # stop at the first step that makes no progress
        phis, dphis = [], []
        t = design._newton(_recorded(lambda t: t * t - 2.0, phis),
                           _recorded(lambda t: 2.0 * t, dphis), 3.0, -1.0)
        assert abs(t - math.sqrt(2.0)) <= 2.0 ** -51
        assert phis == dphis and len(set(phis)) == len(phis) > 3
        assert phis[-1] == t

    @pytest.mark.parametrize("where", ["phi", "dphi"])
    def test_returns_the_last_iterate_that_evaluates(self, where):
        # phi or dphi raises from the third iterate on, as a table's
        # log1p(-2*eps) does where 1 - 2*eps rounds to 0 or below
        def guarded(f):
            def g(t):
                if t < 1.6:
                    raise ValueError("math domain error")
                return f(t)
            return g

        phi, dphi = (lambda t: t * t - 2.0), (lambda t: 2.0 * t)
        if where == "phi":
            phi = guarded(phi)
        else:
            dphi = guarded(dphi)
        phis, dphis = [], []
        t = design._newton(_recorded(phi, phis), _recorded(dphi, dphis), 3.0,
                           -1.0)
        second = 3.0 - 7.0 / 6.0
        third = second - (second * second - 2.0) / (2.0 * second)
        assert t == second
        assert dphis == [3.0, second, third]
        assert phis == ([3.0, second, third] if where == "phi"
                        else [3.0, second])

    def test_returns_the_start_when_it_does_not_evaluate(self):
        def phi(t):
            raise ZeroDivisionError("float division by zero")
        assert design._newton(phi, lambda t: 1.0, 2.5, 1.0) == 2.5

    def test_stops_where_the_slope_is_zero(self):
        # phi = t**2 + 1 from t = 1 steps to 0.0 exactly, where dphi = 0
        phis, dphis = [], []
        t = design._newton(_recorded(lambda t: t * t + 1.0, phis),
                           _recorded(lambda t: 2.0 * t, dphis), 1.0, -1.0)
        assert t == 0.0 and phis == [1.0] and dphis == [1.0, 0.0]


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
            assert g_star == w0 * math.exp(beta * t_star) / t_star
            checked += 1
        assert checked > 100

    def test_rounded_t_m_above_inverse_beta(self):
        # w0 * beta of 5e16 and 6e20: the computed T_m rounds to above 1/beta;
        # with c on one of these ulps only periods from T_m up fit, so the
        # optimum is the low edge, not 1/beta
        for beta, w0, c in (
                (1.0328861041058042, 5.7925029599558264e+20,
                 float.fromhex("0x1.73ab4b48d223cp-74")),
                (0.017673632006554453, 2.927716224484108e+18,
                 float.fromhex("0x1.064d223966044p-60"))):
            env = Environment(p_high=0.3, p_low=0.05, c=c, beta=beta)
            mon = MonitoringModel.rational(w0)
            interval = feasible_period_interval(env, mon, 1.0)
            t_star, g_star = minimize_loss_factor(env, mon, 1.0)
            assert t_star == interval.lo > 1.0 / beta
            assert g_star == w0 * math.exp(beta * t_star) / t_star

    def test_t_m_is_below_inverse_beta(self):
        # over the (beta, w0) range above, the computed headroom minimizer
        # T_m = (2*w0/beta) / (w0 + sqrt(w0**2 + 2*w0/beta)) stays below
        # 1/beta, so the rational optimum never needs the low edge there
        for beta in np.geomspace(0.003, 6.0, 120).tolist():
            for w0 in np.geomspace(0.001, 5.0, 120).tolist():
                t_m = (2.0 * w0 / beta) / (w0 + math.sqrt(w0 * w0
                                                          + 2.0 * w0 / beta))
                assert t_m < 1.0 / beta, (beta, w0)

    def test_none_when_infeasible(self):
        env = Environment(p_high=0.3, p_low=0.05, c=5.0, beta=0.2)
        mon = MonitoringModel.rational(0.1)
        assert minimize_loss_factor(env, mon, 7.0) is None


def log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size)).tolist()


class TestClosedForm:
    """Where 1/beta is feasible with room to spare, a rational minimum is
    (1/beta, g(1/beta)) with no period edge found.  Every result must equal
    1/beta clamped into the interval feasible_period_interval finds by
    Newton's method, an independent path, to the bit."""

    # family: calls
    FAMILIES = {"wide": 20000, "near_tangent": 4000, "large_w0_beta": 4000}

    @staticmethod
    def cases(rng, family, count):
        """(env, mon, nu) over beta 1e-8 to 1e4, w0 1e-10 to 1e22, c
        1e-12 to 1e2 and nu 1e-6 to 1e8 ("wide"); with c set so that the
        bound lies within 1e-9 relative of h(1/beta) ("near_tangent"); or
        with w0*beta from 1e16 to 1e22 and the bound within 1e-9 below to
        1e-6 above h(1/beta) ("large_w0_beta")."""
        betas = log_uniform(rng, 1e-8, 1e4, count)
        w0s = log_uniform(rng, 1e-10, 1e22, count)
        cs = log_uniform(rng, 1e-12, 1e2, count)
        nus = log_uniform(rng, 1e-6, 1e8, count)
        rises = rng.uniform(-1e-9, 1e-9, count).tolist()
        if family == "large_w0_beta":
            w0s = [k / b for k, b in
                   zip(log_uniform(rng, 1e16, 1e22, count), betas)]
            rises = rng.uniform(-1e-9, 1e-6, count).tolist()
        for beta, w0, c, nu, rise in zip(betas, w0s, cs, nus, rises):
            env = Environment(p_high=0.3, p_low=0.05, c=c, beta=beta)
            mon = MonitoringModel.rational(w0)
            if family != "wide":
                h = design._headroom(env, mon, 1.0 / beta)
                env = dataclasses.replace(
                    env, c=env.gap * nu / (h * (1 + rise)))
            yield env, mon, nu

    def test_equals_the_clamp_on_the_searched_interval(self, monkeypatch):
        edges = []
        found_edges = design._edges
        monkeypatch.setattr(design, "_edges",
                            lambda *args: edges.append(args) or
                            found_edges(*args))
        rng = np.random.default_rng(4637)
        taken = dict.fromkeys(self.FAMILIES, 0)
        declined = dict.fromkeys(self.FAMILIES, 0)
        for family, count in self.FAMILIES.items():
            for env, mon, nu in self.cases(rng, family, count):
                interval = feasible_period_interval(env, mon, nu)
                edges.clear()
                found = minimize_loss_factor(env, mon, nu)
                assert (found is None) == (interval is None)
                if found is None:
                    continue
                t_star, g_star = found
                beta = env.beta
                assert t_star == min(max(1.0 / beta, interval.lo),
                                     interval.hi)
                assert g_star == mon.w0 * math.exp(beta * t_star) / t_star
                if not edges:
                    taken[family] += 1
                elif t_star == 1.0 / beta:
                    declined[family] += 1
        # the closed form is taken in every family and stands aside on
        # some feasible cases where 1/beta is the optimum
        assert min(taken.values()) > 100
        assert declined["near_tangent"] > 100
        assert declined["large_w0_beta"] > 100

    def test_loss_rates_equal_loss_rate(self):
        """design._loss_rates prices an array as _loss_rate prices each
        entry, to the bit, with NaN exactly where that is None or nu is
        inf; the arrays hold repeats, 0.0, inf and, around each case's nu,
        bounds within 1e-9 relative of h(1/beta)."""
        rng = np.random.default_rng(4638)
        cases = [(family, case) for family in self.FAMILIES
                 for case in self.cases(rng, family, 200)]
        for _ in range(100):
            env, _, tm = random_feasible_instance(rng, 3, 8)
            cases.append(("table", (env, random_convex_table(rng),
                                    float(tm.inbound.min()))))
        closed_side = {"table": [0, 0]}
        for family, (env, mon, nu) in cases:
            nus = np.array([nu, nu, 0.0, math.inf, 0.0, *(
                nu * (1.0 + k * 2e-10) for k in range(-6, 7)), *log_uniform(
                    rng, nu * 1e-3, nu * 1e3, 6)])
            rng.shuffle(nus)
            rates = design._loss_rates(env, mon, nus)
            assert rates.shape == nus.shape
            closed = design._closed_form(env, mon)
            side = closed_side.setdefault(family, [0, 0])
            for nu, rate in zip(nus.tolist(), rates.tolist()):
                expected = None
                if math.isfinite(nu):
                    expected = design._loss_rate(env, mon, nu)
                    side[closed is not None and
                         env.gap * nu / env.c >= closed[2]] += 1
                if expected is None:
                    assert math.isnan(rate)
                else:
                    assert rate.hex() == expected.hex()
        # the array and the search each price some values in the wide and
        # near-tangent families; tables have no closed form
        assert min(closed_side["wide"]) > 100
        assert min(closed_side["near_tangent"]) > 100
        assert closed_side["table"][1] == 0
        assert any(design._closed_form(env, mon) is None
                   for family, (env, mon, _) in cases
                   if family == "large_w0_beta")


@pytest.fixture
def edge_calls(monkeypatch):
    """The directions of the period edges found while the test runs, in
    order: -1.0 for the high edge, 1.0 for the low one."""
    calls = []
    edges = design._edges

    def recorded(*args):
        found = edges(*args)
        if found is None:
            return None
        t_m, eps_m, edge = found
        return t_m, eps_m, lambda direction: calls.append(direction) or \
            edge(direction)

    monkeypatch.setattr(design, "_edges", recorded)
    return calls


class TestTabulatedMinimum:
    """A table's minimum finds the high period edge, then the low one only
    when the loss factor at the headroom's minimizer t_m is not clearly
    beaten above t_m; every result equals the minimum over the whole
    feasible interval, reference_tabulated_minimum."""

    # sha256 of every probe's interval and minimum as float.hex, as the
    # kernel computed them when the minimum still found both edges
    PROBE_DIGEST = \
        "6075874840381a30ab3ad6744a2c467d2ac6aa88cc5299deb659e869791f7a40"

    def test_matches_the_whole_interval(self, edge_calls):
        probes = tabulated_probes(np.random.default_rng(4207), 5000)
        digest = hashlib.sha256()
        low_edges = feasible = 0
        for env, mon, nu in probes:
            edge_calls.clear()
            found = minimize_loss_factor(env, mon, nu)
            low_edges += 1.0 in edge_calls
            assert found == reference_tabulated_minimum(env, mon, nu), \
                (env, mon._ts.tolist(), mon._eps.tolist(), nu)
            interval = feasible_period_interval(env, mon, nu)
            feasible += found is not None
            digest.update(repr((
                None if interval is None else (interval.lo.hex(),
                                               interval.hi.hex()),
                None if found is None else tuple(v.hex() for v in found),
            )).encode())
        assert digest.hexdigest() == self.PROBE_DIGEST
        assert 4000 < feasible < 5000
        assert 0.1 * feasible < low_edges < 0.5 * feasible

    def test_interior_optimum_skips_the_low_edge(self, edge_calls):
        # t_m is the kink T=2 and g falls to the last breakpoint T=3,
        # strictly inside the interval
        env, _, tm = reference_instance()
        mon = MonitoringModel.tabulated(
            [(0.0, 0.5), (1.0, 0.3), (2.0, 0.1), (3.0, 0.05)])
        found = minimize_loss_factor(env, mon, 7.0)
        assert edge_calls == [-1.0]
        assert found == reference_tabulated_minimum(env, mon, 7.0)
        interval = feasible_period_interval(env, mon, 7.0)
        assert interval.lo < found[0] == 3.0 < interval.hi

    def test_minimizer_below_the_low_end(self, edge_calls):
        # a flat table's headroom is least at t_m = 0, below hi * 1e-12,
        # and g rises from there: T* is that low end
        env = Environment(p_high=0.3, p_low=0.05, c=0.25 / 3, beta=0.3)
        mon = MonitoringModel.tabulated(EDGE_TABLES["table-late-flat"])
        found = minimize_loss_factor(env, mon, 1.0)
        assert edge_calls == [-1.0]
        assert found == reference_tabulated_minimum(env, mon, 1.0)
        assert found[0] == feasible_period_interval(env, mon, 1.0).hi * 1e-12

    def test_near_tie_finds_the_low_edge(self, edge_calls):
        # t_m = 10 where the error reaches 0, so g(t_m) = 0 and nothing
        # above t_m beats it
        env = Environment(p_high=0.3, p_low=0.05, c=0.25 / 3, beta=0.04)
        mon = MonitoringModel.tabulated(EDGE_TABLES["table-to-zero"])
        found = minimize_loss_factor(env, mon, 1.0)
        assert edge_calls == [-1.0, 1.0]
        assert found == reference_tabulated_minimum(env, mon, 1.0) \
            == (10.0, 0.0)

    @pytest.mark.parametrize("env, table, nu, t_star", [
        # t_m is a kink with the low and high edges a few ulps from it: g
        # at the high edge is 1 ulp below g(t_m), within the margin, and
        # equal to g at the low edge, which wins the tie
        (Environment(p_high=0.3, p_low=0.05, c=0.3164380862023458,
                     beta=0.0012890430314021141),
         [(0.0, 0.4377720652644688), (2.0613618646169125, 0.36187510030738373),
          (4.122723729233825, 0.32663232067832654),
          (6.184085593850737, 0.31026732483581043),
          (8.24544745846765, 0.3026682338519437),
          (10.306809323084563, 0.299139593555497),
          (12.368171187701474, 0.29750106832028905),
          (14.429533052318387, 0.2967402186102416),
          (16.4908949169353, 0.29638691780727533),
          (18.552256781552213, 0.29622286246792484)],
         3.172088486903238, 14.429533052318313),
        # epsilon(t_m) = 1.26e-17: epsilon read one ulp left of the kink
        # rounds to 0, so the low edge there has g = 0
        (Environment(p_high=0.3, p_low=0.05, c=0.5279981203252796,
                     beta=3.0329849873803494e-05),
         [(0.0, 0.2570691639916013),
          (5.189822982723575, 1.2582740946900383e-17),
          (5.189823201549727, 0.0)],
         2.112324948920923, 5.189822982723574),
        # 1 - 2*epsilon(t_m) = 6.2e-11: the low edge's rounded epsilon
        # puts its g below that of every period above t_m
        (Environment(p_high=0.3, p_low=0.05, c=0.09390974609143321,
                     beta=0.30371276481335246),
         [(0.0, 0.5), (3.306490070487464, 0.4999999999688806),
          (12.847772318273055, 0.4999999999688801)],
         16475340865.022377, 3.2915774842197245),
    ])
    def test_rounding_near_t_m_finds_the_low_edge(
            self, edge_calls, env, table, nu, t_star):
        # The low edge can win by rounding alone: where g above t_m beats
        # g(t_m) by less than the 2**-40 margin, and where epsilon or
        # 1 - 2*epsilon at t_m is small, since epsilon rounded on one piece
        # and read at the next piece's start are a few 2**-53 apart.  In
        # the last two cases a period above t_m beats g(t_m) by the margin.
        mon = MonitoringModel.tabulated(table)
        found = minimize_loss_factor(env, mon, nu)
        assert edge_calls == [-1.0, 1.0]
        assert found == reference_tabulated_minimum(env, mon, nu)
        assert found[0] == t_star == feasible_period_interval(env, mon, nu).lo


def closure_value(fn, name):
    """The value of the variable `name` that closure fn reads."""
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def scanned(env, mon, nu):
    """_edges' (t_m, eps_m, k_m, k_hi) for a table at nu: t_m, epsilon(t_m),
    t_m's piece and the piece that brackets the high edge."""
    t_m, eps_m, edge = design._edges(env, mon, nu)
    return (t_m, eps_m, closure_value(edge, "k_m"),
            closure_value(edge, "k_hi"))


def candidate(env, mon, k):
    """(t, h(t)) of piece k's headroom candidate, with no cap."""
    t0, t1, e0, s = mon._pieces[k]
    t = t0 if s >= 0.0 else min(max(t0 + (0.5 + s / env.beta - e0) / s, t0),
                                t1)
    return t, design._headroom(env, mon, t,
                               design._on_piece(mon._pieces, k, t))


class TestHighEdgePiece:
    """The scan that finds a table's t_m also walks to the piece that
    brackets the high edge, k_hi, and reads epsilon(t_m): both equal what
    a separate walk and the lookup give."""

    def test_every_probe_matches_the_walk(self):
        probes = tabulated_probes(np.random.default_rng(4207), 5000)
        walked = 0
        for env, mon, nu in probes:
            if design._edges(env, mon, nu) is None:
                continue
            t_m, eps_m, k_m, k_hi = scanned(env, mon, nu)
            t0, t1 = mon._pieces[k_m][:2]
            assert t0 <= t_m <= t1
            assert eps_m == design._epsilon(mon, t_m)
            assert k_hi == reference_high_piece(env, mon, nu, k_m)
            walked += k_hi > k_m
        assert walked > 2000  # of about 4,600 feasible probes

    # At T = 1e-3 the slope steepens by 1e-7, a kink concave within the
    # convexity check's tolerance, so h rises from t_m on piece 0 to T =
    # 1e-3 and falls again on piece 1.
    CONCAVE_KINK = [(0.0, 0.4 - 0.6e-7 + 1e-4), (1e-3, 0.4 - 0.6e-7)]

    @pytest.mark.parametrize("rest", [
        # piece 1's candidate is interior
        [(2e-3, 0.4 - 0.6e-7 - (0.1 + 1e-7) * 1e-3)],
        # piece 1 falls throughout, so its candidate is its end, where
        # piece 2's start fits again
        [(1e-3 + 2e-7, 0.4 - 0.6e-7 - (0.1 + 1e-7) * 2e-7),
         (1e-2, 0.4 - 0.6e-7 - (0.1 + 1e-7) * 2e-7 - 0.09 * (9e-3 - 2e-7))],
    ])
    def test_candidate_past_t_m_off_its_start(self, rest):
        # Piece 1's candidate lies above h(t_m) and below the bound, while
        # piece 1's start does not fit: the walk must price that start,
        # not the candidate, and end at piece 0 whatever follows.
        mon = MonitoringModel.tabulated(self.CONCAVE_KINK + rest)
        env = Environment(p_high=0.3, p_low=0.05, c=0.25, beta=1.0)
        t, h = candidate(env, mon, 1)
        start = design._headroom(env, mon, 1e-3, mon._pieces[1][2])
        assert 1e-3 < t and h < start
        nu = (h + start) / 2 * env.c / env.gap
        t_m, _, k_m, k_hi = scanned(env, mon, nu)
        assert (k_m, k_hi) == (0, 0)
        assert reference_high_piece(env, mon, nu, k_m) == 0
        assert design._headroom(env, mon, t_m) < h
        interval = feasible_period_interval(env, mon, nu)
        assert interval.lo <= t_m <= interval.hi < 1e-3
        assert minimize_loss_factor(env, mon, nu) == \
            reference_tabulated_minimum(env, mon, nu)

    @pytest.mark.parametrize("table, beta, bound, k_m, k_hi, last", [
        # piece 0's candidate is its end t = 1, where piece 1's candidate,
        # its start, ties h_m: the walk goes on through the tie and stops
        # at piece 2's start, T = 11, which does not fit
        ([(0.0, 0.4), (1.0, 0.2), (11.0, 0.1), (21.0, 0.0)], 0.2, 10.0, 0,
         1, 2),
        # h falls to an interior minimum on piece 1, where log(bound)/beta
        # lies too: the minimum is on the last piece scanned
        ([(0.0, 0.4), (1.0, 0.2), (11.0, 0.0)], 0.05, 1.7, 1, 1, 1),
        # log(bound)/beta lies inside piece 0, the only piece scanned
        ([(0.0, 0.4), (1.0, 0.2), (11.0, 0.0)], 2.0, 6.0, 0, 0, 0),
    ])
    def test_named_walks(self, table, beta, bound, k_m, k_hi, last):
        mon = MonitoringModel.tabulated(table)
        env = Environment(p_high=0.3, p_low=0.05, c=0.25, beta=beta)
        nu = bound * env.c / env.gap
        t_m, eps_m, found_k_m, found_k_hi = scanned(env, mon, nu)
        assert (found_k_m, found_k_hi) == (k_m, k_hi)
        assert k_hi == reference_high_piece(env, mon, nu, k_m)
        assert eps_m == design._epsilon(mon, t_m)
        # `last` is the last piece the scan reaches, below log(bound)/beta
        t_cap = math.log(env.gap * nu / env.c) / beta
        assert mon._pieces[last][0] < t_cap <= mon._pieces[last][1]
        if k_hi > k_m:
            assert candidate(env, mon, k_m)[1] == candidate(env, mon, k_hi)[1]
        # the high edge is searched on piece k_hi: h(t_cap) does not fit
        assert design._headroom(env, mon, t_cap) > env.gap * nu / env.c
        interval = feasible_period_interval(env, mon, nu)
        assert mon._pieces[k_hi][0] <= interval.hi <= mon._pieces[k_hi][1]
        assert minimize_loss_factor(env, mon, nu) == \
            reference_tabulated_minimum(env, mon, nu)


@dataclasses.dataclass(frozen=True)
class DictDesignResult:
    """DesignResult as a plain frozen dataclass, each instance with a
    __dict__: the reference for the slotted class's behaviour."""

    subset: Subset
    feasible: bool
    t_star: float | None
    p0_star: float | None
    p1_star: float | None
    g_star: float | None
    j_star: float | None
    binding_as: int | None
    diagnostic: str | None = None


class TestDesignResult:
    ARGS = [
        (Subset.full(3), True, 5.0, 0.17, 0.05, 0.054, 5.33, 1),
        (Subset((0, 2)), False, None, None, None, None, None, None, "none"),
        (Subset(()), True, None, None, None, None, 2.5, None,
         "no deployment"),
    ]

    @pytest.mark.parametrize("args", ARGS)
    def test_behaves_as_a_plain_frozen_dataclass(self, args):
        new, old = design.DesignResult(*args), DictDesignResult(*args)
        assert [f.name for f in dataclasses.fields(new)] == \
            [f.name for f in dataclasses.fields(old)]
        assert repr(new) == repr(old).replace("DictDesignResult",
                                              "DesignResult")
        assert hash(new) == hash(old)
        assert dataclasses.astuple(new) == dataclasses.astuple(old)
        assert new == design.DesignResult(*args)
        assert new != dataclasses.replace(new, diagnostic="other")
        assert dataclasses.astuple(dataclasses.replace(new, t_star=1.0)) == \
            dataclasses.astuple(dataclasses.replace(old, t_star=1.0))
        assert new == design.DesignResult(**{
            f.name: getattr(old, f.name) for f in dataclasses.fields(old)})
        back = pickle.loads(pickle.dumps(new))
        assert type(back) is design.DesignResult and back == new
        assert dataclasses.astuple(back) == dataclasses.astuple(new)

    def test_frozen_without_a_dict(self):
        result = design.DesignResult(*self.ARGS[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.t_star = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del result.t_star
        assert not hasattr(result, "__dict__")
        assert result.t_star == 5.0


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

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_c=st.floats(-300.0, 0.0),
           tabulated=st.booleans(), log_w0=st.floats(-3.0, 21.0),
           log_rate=st.floats(-3.0, 10.0), beta=st.floats(0.01, 2.0))
    def test_feasible_designs_pass_ic_check(self, seed, log_c, tabulated,
                                            log_w0, log_rate, beta):
        # p0 - p_low can round below the boundary c*h(T*)/nu when c is tiny
        # against p_low, and gap*nu/c can overflow; neither may yield a
        # design that fails the deviation test or has no finite period
        rng = np.random.default_rng(seed)
        env = Environment(p_high=float(rng.uniform(0.3, 0.9)),
                          p_low=float(rng.uniform(0.0, 0.1)),
                          c=10.0 ** log_c, beta=beta)
        mon = (random_convex_table(rng) if tabulated
               else MonitoringModel.rational(10.0 ** log_w0))
        rate = 10.0 ** log_rate
        tm = random_connected_matrix(rng, int(rng.integers(2, 7)),
                                     lo=0.1 * rate, hi=rate)
        r = optimal_design(env, mon, tm)
        if r.feasible:
            assert math.isfinite(r.t_star)
            assert env.p_low == r.p1_star <= r.p0_star <= env.p_high
            assert ic_check(r.design(), env, mon, tm, r.binding_as)

    def test_bound_beyond_float_range(self):
        # gap*nu/c overflows at c = 1e-300; the bound is held at the largest
        # float, where the edges no longer move, so the design is the one
        # at c = 1e-290 (the table's used to come out at T* = inf, the
        # rational's at T* = 0.905 instead of 1/beta)
        tm = TrafficMatrix.complete(3, 1e10)
        for mon in (MonitoringModel.rational(0.1),
                    MonitoringModel.tabulated([(0.0, 0.4), (1.0, 0.1)])):
            tiny, small = (optimal_design(Environment(0.3, 0.05, c, 0.2),
                                          mon, tm) for c in (1e-300, 1e-290))
            assert math.isfinite(tiny.t_star)
            assert dataclasses.astuple(tiny) == dataclasses.astuple(small)

    @pytest.mark.parametrize("rate", [1.0, 1e300])
    @pytest.mark.parametrize("beta", [5e-324, 1e-300, 1e-10, 0.2, 10.0])
    @pytest.mark.parametrize("w0", [1e150, 1e154, 1.4e154, 1e200, 1e300])
    def test_huge_rational_w0(self, w0, beta, rate):
        # the headroom's minimizer (2*w0/beta) / (w0 + sqrt(w0**2 +
        # 2*w0/beta)) came out 0 once w0**2 overflowed (a division by zero
        # followed) and NaN once 2*w0/beta did (a NaN minimum passed the
        # feasibility test; at a subnormal beta, the period came out inf)
        self.assert_finite_and_ic(w0, beta, rate)

    @pytest.mark.parametrize("rate", [1.0, 1e300])
    @pytest.mark.parametrize("beta", [1e-300, 1e-10, 0.2, 1e10, 1e300,
                                      1.5e300])
    @pytest.mark.parametrize("w0", [5e-324, 1e-320, 1e-310, 1e-300, 8e307,
                                    1.7e308])
    def test_rational_at_float_range_edges(self, w0, beta, rate):
        # a subnormal w0 at beta >= 1e300 divided by a headroom minimizer
        # that underflowed to 0, and at w0 = 8e307, rate 1e300, w0 *
        # exp(beta*T*) overflowed before the division by T*, so g* was inf
        self.assert_finite_and_ic(w0, beta, rate)

    @staticmethod
    def assert_finite_and_ic(w0, beta, rate):
        env = dataclasses.replace(REFERENCE_ENV, beta=beta)
        mon = MonitoringModel.rational(w0)
        tm = TrafficMatrix.complete(4, rate)
        r = optimal_design(env, mon, tm)
        values = (r.t_star, r.p0_star, r.p1_star, r.g_star, r.j_star)
        if r.feasible:
            assert all(math.isfinite(v) for v in values)
            assert all(ic_check(r.design(), env, mon, tm, i)
                       for i in range(4))
        else:
            assert values == (None,) * 5

    def test_period_cap_beyond_float_range(self):
        # log(bound)/beta overflows at these rates and discount rates; the
        # cap is held at the largest float, so the period is 1/beta, or the
        # largest float beyond it (Newton's method from an infinite cap put
        # the high edge at the headroom's minimizer, about 1.4e153 here)
        tm = TrafficMatrix.complete(4, 1e300)
        for beta in (1e-307, 1e-310, 5e-324):
            env = dataclasses.replace(REFERENCE_ENV, beta=beta)
            for w0 in (0.1, 1e150):
                mon = MonitoringModel.rational(w0)
                r = optimal_design(env, mon, tm)
                assert r.t_star == min(1.0 / beta, sys.float_info.max)
                assert ic_check(r.design(), env, mon, tm, r.binding_as)

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

    def test_full_set_however_given(self):
        # the full set is priced from the matrix's stored Subset, critical
        # member and critical traffic: None, Subset.full(n) and a list give
        # equal results sharing the stored Subset, and on a tied least
        # inbound (ASs 1 and 3 receive 3.0) the binding AS is the first
        tm = TrafficMatrix([[0.0, 1.0, 2.0, 1.0],
                            [2.0, 0.0, 2.0, 1.0],
                            [2.0, 1.0, 0.0, 1.0],
                            [1.0, 1.0, 1.0, 0.0]])
        assert tm.inbound.tolist() == [5.0, 3.0, 5.0, 3.0]
        env = Environment(p_high=0.3, p_low=0.05, c=0.25, beta=0.2)
        for mon in (MonitoringModel.rational(0.1), MonitoringModel.tabulated(
                [(0.0, 0.4), (2.0, 0.2), (4.0, 0.1)])):
            given = [optimal_design(env, mon, tm, s)
                     for s in (None, Subset.full(4), list(range(4)))]
            assert given[0].feasible and given[0].binding_as == 1
            for r in given:
                assert dataclasses.astuple(r) == dataclasses.astuple(given[0])
                assert r.subset is tm._full
        # the stored values cannot be written: the Subset is frozen over a
        # tuple, the critical member and traffic are Python scalars read off
        # the read-only inbound vector
        with pytest.raises(dataclasses.FrozenInstanceError):
            tm._full.members = (0, 1)
        assert tm._full.members == (0, 1, 2, 3)
        assert type(tm._critical_member) is int and tm._critical_member == 1
        assert type(tm._critical_traffic) is float
        assert tm._critical_traffic == tm.inbound[1] == 3.0
        with pytest.raises(ValueError):
            tm.inbound[1] = 0.0

    def test_empty_subset_rejected(self):
        env, mon, tm = reference_instance()
        with pytest.raises(ValueError):
            optimal_design(env, mon, tm, Subset.of([]))

    def test_rating_design_validation(self):
        full = Subset.full(8)
        with pytest.raises(ValueError, match="T must be positive"):
            RatingDesign(0.0, 0.2, 0.05, full)
        with pytest.raises(ValueError, match="p1 must not exceed p0"):
            RatingDesign(1.0, 0.05, 0.2, full)

    def test_infeasible_result_has_no_design(self):
        result = design.DesignResult.infeasible(Subset.full(3), "none")
        with pytest.raises(ValueError, match="no design parameters available"):
            result.design()

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

    def test_optimal_design_at_a_tiny_cost_is_ic(self):
        # p_low + c*h(T*)/nu rounds to a p0 below the boundary here; it is
        # stepped up one ulp, so every member passes
        env = Environment(p_high=0.3, p_low=0.05, c=3e-10, beta=0.2)
        mon, tm = MonitoringModel.rational(0.1), TrafficMatrix.complete(8, 1.0)
        r = optimal_design(env, mon, tm)
        assert r.p0_star == math.nextafter(env.p_low + design._headroom(
            env, mon, r.t_star) * env.c / 7.0, 1.0)
        assert security_cost(r.design(), env, mon, tm) == pytest.approx(
            r.j_star, rel=1e-12)

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

    @pytest.mark.parametrize("i", [1.5, 1.0, True, np.True_, None])
    def test_index_must_be_an_integer(self, i):
        # 1.5 is in no subset, which once made it trivially IC
        env, mon, tm = reference_instance()
        d = RatingDesign(5.0, env.p_high, env.p_low, Subset.full(8))
        with pytest.raises(ValueError, match="integer"):
            ic_check(d, env, mon, tm, i)

    def test_overflowing_headroom_fails(self):
        # exp(beta*T) overflows at T = 1e4: no price spread deters
        env, mon, tm = reference_instance()
        for mon in (mon, MonitoringModel.tabulated([(0.0, 0.4), (1.0, 0.1)])):
            d = RatingDesign(1e4, env.p_high, env.p_low, Subset.full(8))
            assert design._headroom(env, mon, d.T) == math.inf
            assert not ic_check(d, env, mon, tm, 0)

    def test_numpy_index(self):
        env, mon, tm = reference_instance()
        d = RatingDesign(5.0, env.p_high, env.p_low, Subset.full(8))
        assert (ic_check(d, env, mon, tm, np.int64(3))
                == ic_check(d, env, mon, tm, 3))


class TestAssumptions:
    def test_reference_all_ok(self):
        env, mon, tm = reference_instance()
        report = validate_assumptions(env, mon, tm)
        assert report.all_ok
        assert report.monitor.passed
        assert report.viability.passed
        assert report.social_gain.passed
        assert report.subset_note is None
        with_subset = validate_assumptions(env, mon, tm, Subset.full(8))
        assert with_subset.subset_note == "subset critical traffic 7"

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


# ---- design golden ---------------------------------------------------------

GOLDEN = Path(__file__).with_name("design_golden.json")


def _golden_cases():
    """Named (env, monitor, traffic matrix) cases on a seeded grid: four
    rational monitors and seven tables (three random from T=0, one with
    epsilon(0) well below 1/2, so lo = 0, one reaching zero error, and two
    starting after T=0), at three discount rates and six headroom bounds
    gap * nu / c, two of them at or below the infeasible end."""
    rng = np.random.default_rng(2113)
    monitors = {f"rational-{w0}": MonitoringModel.rational(w0)
                for w0 in (0.004, 0.05, 0.3, 1.7)}
    for k in range(3):
        monitors[f"table-random-{k}"] = random_convex_table(rng)
    for name, table in EDGE_TABLES.items():
        monitors[name] = MonitoringModel.tabulated(table)
    matrices = [random_connected_matrix(rng, n) for n in (3, 5, 8)]
    matrices.append(TrafficMatrix.complete(5, 0.7))
    k = 0
    for name, mon in monitors.items():
        for beta in (0.04, 0.3, 2.0):
            for bound in (0.95, 1.05, 1.4, 3.0, 12.0, 200.0):
                tm = matrices[k % len(matrices)]
                k += 1
                nu = float(tm.inbound.min())
                p_low = float(rng.uniform(0.01, 0.1))
                p_high = float(rng.uniform(0.3, 0.9))
                env = Environment(
                    p_high=p_high, p_low=p_low,
                    c=(p_high - p_low) * nu / (bound * rng.uniform(0.98, 1.02)),
                    beta=beta * float(rng.uniform(0.9, 1.1)))
                yield f"{name}/beta={beta}/bound={bound}/n={tm.n}", env, mon, tm


def _hex(x):
    return None if x is None else float(x).hex()


def _golden_record(env, mon, tm):
    """Every float the kernel returns for the case, as float.hex: the full
    set's interval and loss-factor minimum, and the designs of the full
    set and of all ASs but the last."""
    nu = float(tm.inbound.min())
    interval = feasible_period_interval(env, mon, nu)
    found = minimize_loss_factor(env, mon, nu)
    record = {
        "nu": _hex(nu),
        "interval": None if interval is None else [_hex(interval.lo),
                                                   _hex(interval.hi)],
        "minimize": None if found is None else [_hex(v) for v in found],
    }
    for key, subset in (("full", None), ("drop_last", range(tm.n - 1))):
        r = optimal_design(env, mon, tm, subset)
        record[key] = [list(r.subset.members), r.feasible,
                       *(_hex(v) for v in (r.t_star, r.p0_star, r.p1_star,
                                           r.g_star, r.j_star)),
                       r.binding_as, r.diagnostic]
    return record


class TestDesignGolden:
    def test_matches_golden_bits(self):
        # design_golden.json holds _golden_record of each case as computed
        # by the kernel before the rational path dropped its low edge, the
        # full set was priced from stored values and table epsilon was read
        # off the stored pieces; p0_star since it is priced from the shared
        # headroom h(T*); every float must match to the bit
        golden = json.loads(GOLDEN.read_text())
        cases = {name: (env, mon, tm)
                 for name, env, mon, tm in _golden_cases()}
        assert cases.keys() == golden.keys()
        for name, args in cases.items():
            assert _golden_record(*args) == golden[name], name

    def test_grid_covers_every_kernel_branch(self):
        golden = json.loads(GOLDEN.read_text()).items()
        assert len(golden) > 190
        for kind in ("rational", "table"):
            rows = [r for name, r in golden if name.startswith(kind)]
            assert any(r["interval"] is None for r in rows)
            assert any(r["interval"] is not None for r in rows)
            assert any(not r["drop_last"][1] for r in rows)
        tables = [r for name, r in golden if name.startswith("table")]
        assert any(r["interval"] is not None and r["interval"][0] == "0x0.0p+0"
                   for r in tables)
        late = [r for name, r in golden if name.startswith("table-late")]
        assert any(r["interval"] is not None for r in late)
