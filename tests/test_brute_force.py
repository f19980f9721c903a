"""Brute force against the per-subset oracle in `support`: the batch
enumeration, the shared pricing, the exact array costs and the block path
must give the same `StrategyResult` to the bit."""

import math
import tracemalloc

import numpy as np
import pytest

from mutualsec import (
    Environment,
    MonitoringModel,
    Subset,
    TrafficMatrix,
    brute_force_optimal,
    critical_members,
    critical_traffic,
    design,
    optimal_design,
    strategy,
)
from mutualsec.design import _set_cost
from mutualsec.network import _outbound_within

from support import (
    near_tie_instance,
    random_convex_table,
    random_environment,
    random_feasible_instance,
    random_grid_matrix,
    reference_brute_force,
)


def members_of(mask, n):
    return tuple(i for i in range(n) if mask >> i & 1)


def grid_instance(rng, n):
    """A 1/16-grid matrix, so critical traffic repeats across subsets."""
    tm = random_grid_matrix(rng, n)
    env = random_environment(rng, max(float(np.median(tm.inbound)), 0.5))
    return env, MonitoringModel.rational(float(rng.uniform(0.02, 0.5))), tm


def tabulated_instance(rng):
    env, _, tm = random_feasible_instance(rng, 3, 9)
    return env, random_convex_table(rng), tm


def silent_receiver_instance(rng):
    """An AS that receives no traffic: every set holding it has zero
    critical traffic."""
    env, mon, tm = random_feasible_instance(rng, 3, 9)
    arr = tm.rates.copy()
    arr[:, int(rng.integers(tm.n))] = 0.0
    return env, mon, TrafficMatrix(arr)


def two_pairs_instance(rng):
    """Two identical disconnected pairs: each pair alone ties exactly."""
    rate = float(rng.choice([0.1, 1.0, 3.0]))
    tm = TrafficMatrix.from_edges(4, [(0, 1, rate), (2, 3, rate)])
    env = Environment(p_high=0.3, p_low=0.05,
                      c=float(rng.uniform(0.01, 0.3)) * rate, beta=0.2)
    return env, MonitoringModel.rational(float(rng.uniform(0.02, 0.3))), tm


# name: (instance maker, instances); 320 instances in all.
FAMILIES = {
    "random_feasible": (lambda rng: random_feasible_instance(rng, 3, 10), 120),
    "grid": (lambda rng: grid_instance(rng, int(rng.integers(3, 11))), 80),
    "tabulated": (tabulated_instance, 40),
    "silent_receiver": (silent_receiver_instance, 30),
    "two_pairs": (two_pairs_instance, 10),
    "near_tie": (near_tie_instance, 40),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_equals_per_subset_oracle(family):
    make, count = FAMILIES[family]
    rng = np.random.default_rng(sorted(FAMILIES).index(family) + 1500)
    for _ in range(count):
        env, mon, tm = make(rng)
        assert brute_force_optimal(env, mon, tm) == \
            reference_brute_force(env, mon, tm)


def test_near_ties_reach_large_sets():
    rng = np.random.default_rng(7)
    sizes = [len(brute_force_optimal(*near_tie_instance(rng)).subset)
             for _ in range(10)]
    assert min(sizes) >= 8


@pytest.mark.parametrize("make", [
    lambda rng, n: random_feasible_instance(rng, n, n)[2],
    lambda rng, n: random_grid_matrix(rng, n),
    lambda rng, n: silent_receiver_instance(rng)[2],
])
def test_batch_sums_match_per_subset(make):
    rng = np.random.default_rng(31)
    for n in (2, 5, 10):
        tm = make(rng, n)
        n = tm.n
        [(first, inbound, crit, mu_in, size)] = strategy._subset_blocks(tm)
        assert first == 0 and crit[0] == math.inf
        for mask in range(1, 1 << n):
            members = members_of(mask, n)
            p = Subset(members)
            assert crit[mask] == critical_traffic(tm, p)
            row = inbound[mask, list(members)]
            assert members[int(row.argmin())] == critical_members(tm, p)[0]
            assert mu_in[mask] == np.cumsum(tm.outbound[list(members)])[-1]
            assert mu_in[mask] == _outbound_within(tm, np.array(members))
            assert size[mask] == len(members)


def test_binding_as_is_first_argmin():
    rng = np.random.default_rng(5)
    env, mon, tm = random_feasible_instance(rng, 10, 10)
    [(_, inbound, _, _, _)] = strategy._subset_blocks(tm)
    feasible = 0
    for mask in range(1, 1 << tm.n):
        members = members_of(mask, tm.n)
        result = optimal_design(env, mon, tm, Subset(members))
        if result.feasible:
            feasible += 1
            row = inbound[mask, list(members)]
            assert members[int(row.argmin())] == result.binding_as
    assert feasible >= 20


def test_prices_each_critical_traffic_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return optimal_design(*args)

    monkeypatch.setattr(strategy, "optimal_design", counted)
    rng = np.random.default_rng(12)
    # a 1/16 grid, where critical traffic repeats, non-dyadic rates, and a
    # table, which has no closed form
    grid = grid_instance(rng, 12)
    plain = random_feasible_instance(rng, 11, 11)
    env, _, tm = random_feasible_instance(rng, 10, 10)
    table = (env, random_convex_table(rng), tm)
    for env, mon, tm in (grid, plain, table):
        n = tm.n
        values = {critical_traffic(tm, Subset(members_of(mask, n)))
                  for mask in range(1, 1 << n)}
        closed = design._closed_form(env, mon)
        if mon.kind == "rational":
            # optimal_design prices the values below the threshold, the
            # array the rest
            priced = {nu for nu in values
                      if env.gap * nu / env.c < closed[2]}
        else:
            assert closed is None
            priced = values
        if tm is grid[2]:
            assert len(values) < (1 << n) // 8
            assert 0 < len(priced) < len(values)
        calls.clear()
        result = brute_force_optimal(env, mon, tm)
        assert result.evaluations == 1 << n
        assert len(result.subset) > 0
        # one call per distinct critical traffic outside the closed form,
        # and one for the winner
        assert len(calls) == len(priced) + 1


def test_array_costs_equal_optimal_design():
    # Non-dyadic rates: the costs are exact only because every outbound
    # total adds its members in member order.
    rng = np.random.default_rng(2024)
    cases = [random_feasible_instance(rng, 8, 11) for _ in range(6)]
    cases += [near_tie_instance(rng) for _ in range(4)]
    compared = 0
    for env, mon, tm in cases:
        n = tm.n
        [(_, _, crit, mu_in, size)] = strategy._subset_blocks(tm)
        coefficient = np.full(1 << n, math.nan)
        j_star = np.full(1 << n, math.nan)
        for mask in range(1, 1 << n):
            result = optimal_design(env, mon, tm, Subset(members_of(mask, n)))
            if result.feasible:
                coefficient[mask] = env.p_low + \
                    result.g_star * env.c / crit[mask]
                j_star[mask] = result.j_star
        feasible = ~np.isnan(j_star)
        cost = _set_cost(env, tm, coefficient, mu_in, size)
        assert np.array_equal(cost[feasible], j_star[feasible])
        compared += int(feasible.sum())
    assert compared > 1000


@pytest.mark.parametrize("bits", [2, 3])
def test_block_path(monkeypatch, bits):
    monkeypatch.setattr(strategy, "_BLOCK_BITS", bits)
    rng = np.random.default_rng(40 + bits)
    cases = [random_feasible_instance(rng, 3, 10) for _ in range(8)]
    cases += [grid_instance(rng, int(rng.integers(4, 11))) for _ in range(8)]
    cases += [near_tie_instance(rng) for _ in range(4)]
    cases += [silent_receiver_instance(rng) for _ in range(4)]
    for env, mon, tm in cases:
        assert brute_force_optimal(env, mon, tm) == \
            reference_brute_force(env, mon, tm)


@pytest.mark.parametrize("n, limit_mb", [(16, 32), (18, 48)])
def test_memory_is_bounded(n, limit_mb):
    rng = np.random.default_rng(n)
    env = Environment(p_high=0.4, p_low=0.05, c=0.3, beta=0.2)
    mon = MonitoringModel.rational(0.1)
    tm = random_grid_matrix(rng, n)
    tracemalloc.start()
    try:
        result = brute_force_optimal(env, mon, tm, cap=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.evaluations == 1 << n
    assert peak < limit_mb * 1e6
