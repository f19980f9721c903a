"""Choosing the deployment set: deletion search, brute force, thresholds.

The deletion search exploits two monotonicity facts.  Deleting a subset's
critical members is the only way a nested subset can raise its critical
traffic, and a nested subset whose critical traffic does not exceed an
already evaluated one costs strictly more (it serves less traffic at a
no-better loss factor and pushes ambient-rate traffic outside).  So the
search walks from the full set toward the empty set, deleting all current
critical members each step, and prices out a subset only when its critical
traffic strictly exceeds everything evaluated before.

The walk itself lives in `network`, which also answers the MCT question
with it.  It hands over each step's critical members and exact critical
traffic as two lists; this module rebuilds each step's set from the one
before it and adds the pricing.  Brute force costs every subset as an
array and prices each distinct critical traffic once with
`optimal_design`.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass

from .design import (
    DesignResult,
    Environment,
    MonitoringModel,
    _set_cost,
    optimal_design,
    validate_assumptions,
)
import numpy as np

from .network import Subset, TrafficMatrix, _deletion_walk

__all__ = [
    "IdIteration",
    "IdTrace",
    "StrategyResult",
    "ThresholdResult",
    "ThresholdRow",
    "brute_force_optimal",
    "core_periphery_threshold",
    "iterative_deletion",
]


@dataclass(frozen=True)
class IdIteration:
    subset: Subset
    critical_traffic: float
    critical_ases: tuple[int, ...]
    evaluated: bool
    design: DesignResult | None
    skip_reason: str | None = None


@dataclass(frozen=True)
class IdTrace:
    iterations: tuple[IdIteration, ...]
    chosen: int | None  # index into iterations; None -> empty deployment


@dataclass(frozen=True)
class StrategyResult:
    subset: Subset
    design: DesignResult
    evaluations: int
    trace: IdTrace | None = None


def iterative_deletion(env: Environment, mon: MonitoringModel,
                       tm: TrafficMatrix, *,
                       check_assumptions: bool = True) -> StrategyResult:
    """Deletion search for the cost-minimizing deployment set.

    Starts from the full set (always priced), repeatedly deletes all
    current critical members, and prices a subset only when its critical
    traffic strictly exceeds the maximum among subsets priced so far.
    Runs until the set empties.  When no priced subset is feasible, the
    result degenerates to the empty deployment (everyone at ambient rate).
    """
    if check_assumptions:
        report = validate_assumptions(env, mon, tm)
        if not report.all_ok:
            warnings.warn(
                "validity conditions fail; the deletion search no longer "
                "guarantees optimality: " + "; ".join(
                    c.detail for c in report.checks if not c.passed),
                stacklevel=2,
            )
    iterations: list[IdIteration] = []
    best_priced = -math.inf
    evaluations = 0
    chosen, best, best_j = None, DesignResult.no_deployment(env, tm), math.inf
    crits, nus = _deletion_walk(tm)
    p = Subset.full(tm.n)
    for crit, nu in zip(crits, nus):
        if nu > best_priced:
            result = optimal_design(env, mon, tm, p)
            evaluations += 1
            best_priced = nu
            # Strictly cheaper only: ties keep the earlier, larger set.
            if result.feasible and result.j_star < best_j:
                chosen, best, best_j = len(iterations), result, result.j_star
            iterations.append(IdIteration(p, nu, crit, True, result))
        else:
            reason = (
                f"critical traffic {nu:g} does not exceed the best priced "
                f"value {best_priced:g}; a nested set with no-higher critical "
                "traffic costs strictly more"
            )
            iterations.append(IdIteration(p, nu, crit, False, None, reason))
        if len(crit) == 1:  # the common step, as one C-level copy
            i = bisect_left(p.members, crit[0])
            p = Subset._trusted(p.members[:i] + p.members[i + 1:])
        else:
            p = p.without(crit)
    return StrategyResult(best.subset, best, evaluations,
                          IdTrace(tuple(iterations), chosen))


# Brute force enumerates the subsets in blocks of at most 2**_BLOCK_BITS
# masks, which bounds its arrays at any cap.
_BLOCK_BITS = 16


def _members(mask: int, n: int) -> tuple[int, ...]:
    return tuple(i for i in range(n) if mask >> i & 1)


def _subset_blocks(tm: TrafficMatrix):
    """Yield (first mask, inbound, critical traffic, mu_in, size) for every
    subset of `tm`'s ASs, in blocks of consecutive bit masks.

    Row r of a block is the set with mask `first + r` (bit i set when AS i
    is a member).  `inbound[r]` holds every AS's inbound rate from the
    members, `mu_in[r]` the members' outbound total and `size[r]` their
    count; the empty set's critical traffic is inf.  Each sum is built by
    the recurrence sum[mask] = sum[mask without its highest member] + row
    of that member, from zero, so it adds the rows in member order as
    `network._inbound_vector` does and the critical traffic equals
    `critical_traffic` to the bit.  A table over the lowest
    min(n, _BLOCK_BITS) members is built once; each setting of the higher
    members, in ascending order, adds their rows to a copy of it one at a
    time, after the lower members as member order has it.  Those copies
    share one buffer, so a block's arrays are overwritten by the next one
    and memory holds the table and one block whatever the caller keeps.
    """
    n = tm.n
    low = min(n, _BLOCK_BITS)
    rates, outbound = tm.rates, tm.outbound
    inbound = np.zeros((1 << low, n))
    member = np.zeros((1 << low, n), dtype=bool)
    mu_in = np.zeros(1 << low)
    size = np.zeros(1 << low, dtype=np.intp)
    for b in range(low):
        rest, top = slice(0, 1 << b), slice(1 << b, 2 << b)
        np.add(inbound[rest], rates[b], out=inbound[top])
        np.add(mu_in[rest], outbound[b], out=mu_in[top])
        member[top] = member[rest]
        member[top, b] = True
        size[top] = size[rest] + 1
    spare = (np.empty_like(inbound), np.empty_like(mu_in)) if n > low else None
    for high in range(1 << (n - low)):
        rows = [low + i for i in _members(high, n - low)]
        block_in, block_mu = inbound, mu_in
        if rows:
            block_in, block_mu = spare
            np.copyto(block_in, inbound)
            np.copyto(block_mu, mu_in)
            for r in rows:
                block_in += rates[r]
                block_mu += outbound[r]
        in_high = np.zeros(n, dtype=bool)
        in_high[rows] = True
        crit = np.minimum.reduce(block_in, axis=1, where=member | in_high,
                                 initial=np.inf)
        yield high << low, block_in, crit, block_mu, size + len(rows)


def brute_force_optimal(env: Environment, mon: MonitoringModel,
                        tm: TrafficMatrix, *, cap: int = 16) -> StrategyResult:
    """Cheapest deployment set over every nonempty set plus the empty one.

    Ties prefer larger sets, then lexicographically smaller member tuples;
    `evaluations` counts the 2^n sets.  Exponential; refuses n above `cap`.

    The sets are enumerated as bit masks by `_subset_blocks`, which gives
    each set's critical traffic bit-equal to `critical_traffic`.  A
    design's `T*`, `g*` and `p0*`, and whether one is feasible at all,
    depend on the critical traffic alone, so `optimal_design` prices each
    distinct value once, on the lowest mask that has it, and every set
    with that value shares the result.  Each feasible set's cost

        J = (p_low + g*·c/nu)·mu_in + p_high·(M - mu_in) + |P|·c

    is then an array from `design._set_cost`, which prices every set cost.
    Its mu_in is summed by the recurrence, in member order, where
    `optimal_design` takes NumPy's pairwise sum, so the two can differ in
    the last bits once a set has 8 or more members; every other operation
    is the same.  Every term is non-negative and the coefficient
    p_low + g*·c/nu is below p_high (the loss rate g*·c/nu is
    eps·(p0* - p_low), under half the price gap), so an array cost is
    within (2n + 5) roundings of J + p_high·M of the exact cost, and the
    exact minimum lies within twice that above the array minimum J_min:
    far inside the window 1e-9·(J_min + p_high·M).  The exact optimum and
    every set tying with it therefore lie in the window, so each set in it
    is priced again with `optimal_design`, and the exact key (j_star,
    -size, members) picks the winner among them and the empty set.

    Memory is bounded: the blocks hold at most 2**16 sets, and the sets
    carried between blocks are the priced values and the window.  The
    run time is still exponential in n.
    """
    n = tm.n
    if n > cap:
        raise ValueError(f"brute force capped at n={cap} (got n={n})")
    total = tm._outbound_total
    # The cost coefficient p_low + g*·c/nu of each critical traffic priced
    # so far, NaN where no design is feasible.  The empty set's inf is not
    # a critical traffic and is never priced.
    coefficient = {math.inf: math.nan}
    lowest = math.inf
    window: list[tuple[float, int]] = []  # (array cost, mask)
    for first, _, crit, mu_in, size in _subset_blocks(tm):
        values, lowest_row, inverse = np.unique(crit, return_index=True,
                                                return_inverse=True)
        values = values.tolist()
        for nu, row in zip(values, lowest_row.tolist()):
            if nu not in coefficient:
                result = optimal_design(env, mon, tm, Subset._trusted(
                    _members(first + row, n)))
                coefficient[nu] = (env.p_low + result.g_star * env.c / nu
                                   if result.feasible else math.nan)
        coef = np.array([coefficient[nu] for nu in values])
        cost = _set_cost(env, tm, coef[inverse], mu_in, size)
        lowest = min(lowest, float(np.fmin.reduce(cost, initial=math.inf)))
        limit = lowest + 1e-9 * (lowest + env.p_high * total)
        near = np.flatnonzero(cost <= limit)
        window = [w for w in window if w[0] <= limit]
        window += zip(cost[near].tolist(), (first + near).tolist())
    best = DesignResult.no_deployment(env, tm)
    best_key = (best.j_star, 0, ())
    for _, mask in window:
        members = _members(mask, n)
        result = optimal_design(env, mon, tm, Subset._trusted(members))
        key = (result.j_star, -len(members), members)
        if key < best_key:
            best, best_key = result, key
    return StrategyResult(best.subset, best, 1 << n)


@dataclass(frozen=True)
class ThresholdRow:
    cores: int
    n: int
    j_full: float | None
    j_core: float | None
    exact_diff: float | None
    closed_form_diff: float | None


@dataclass(frozen=True)
class ThresholdResult:
    k_star: int
    n_star: int
    rows: tuple[ThresholdRow, ...]
    note: str


def core_periphery_threshold(env: Environment, mon: MonitoringModel, *,
                             periphery_per_core: int, rate: float,
                             k_max: int) -> ThresholdResult:
    """Smallest core count K at which recommending deployment to the core
    only beats full deployment, on restricted core-periphery topologies
    with `periphery_per_core` leaves per core node and uniform rates.

    k_star is the first K in the scanned range at which the core costs
    less than the full set, an infeasible design costing inf, and 0 only
    when no K does.  When a periphery AS's filtering benefit does not
    cover its deployment cost ((p_high - p_low) * rate <= c), the note
    says that the periphery never pays for itself; k_star is found the
    same way.  n_star = (1 + l) * k_star.  Each row carries the
    closed-form difference

        K * (g_full * c * (K + 2l - l/(K-1) - 2) - ((p_high-p_low)*l*rate - l*c))

    which agrees with the exact difference when both designs share the same
    unconstrained cost-minimizing period.
    """
    l = periphery_per_core
    if l < 1:
        raise ValueError("periphery_per_core must be at least 1")
    if k_max <= 2:
        raise ValueError("k_max must exceed 2")
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError("rate must be finite and non-negative")
    rows = []
    k_star = 0
    never_worth = env.gap * rate <= env.c
    for k in range(3, k_max + 1):
        tm = TrafficMatrix.restricted_core_periphery(k, l, rate)
        full = optimal_design(env, mon, tm)
        core = optimal_design(env, mon, tm, Subset(tuple(range(k))))
        j_full = full.j_star if full.feasible else None
        j_core = core.j_star if core.feasible else None
        exact = None
        if j_full is not None and j_core is not None:
            exact = j_full - j_core
        closed = None
        if full.feasible:
            closed = k * (
                full.g_star * env.c * (k + 2 * l - l / (k - 1) - 2)
                - (env.gap * l * rate - l * env.c)
            )
        rows.append(ThresholdRow(k, tm.n, j_full, j_core, exact, closed))
        if k_star == 0:
            full_cost = j_full if j_full is not None else math.inf
            core_cost = j_core if j_core is not None else math.inf
            if full_cost > core_cost:
                k_star = k
    if never_worth:
        note = ("the periphery never pays for its deployment cost: its "
                "filtering benefit does not cover c")
    elif k_star == 0:
        note = f"no crossover found for K up to {k_max}"
    else:
        note = "full deployment preferred strictly below k_star"
    return ThresholdResult(k_star, (1 + l) * k_star, tuple(rows), note)
