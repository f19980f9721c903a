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
with it; this module adds the pricing.  Brute force prices every subset
with `optimal_design`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .design import (
    DesignResult,
    Environment,
    MonitoringModel,
    optimal_design,
    validate_assumptions,
)
from .network import Subset, TrafficMatrix, _deletion_steps

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
                    c.detail for c in (report.monitor, report.viability,
                                       report.social_gain) if not c.passed
                ),
                stacklevel=2,
            )
    iterations: list[IdIteration] = []
    best_priced = -math.inf
    evaluations = 0
    for p, nu, crit in _deletion_steps(tm):
        if nu > best_priced:
            result = optimal_design(env, mon, tm, p)
            evaluations += 1
            best_priced = nu
            iterations.append(IdIteration(p, nu, crit, True, result))
        else:
            reason = (
                f"critical traffic {nu:g} does not exceed the best priced "
                f"value {best_priced:g}; a nested set with no-higher critical "
                "traffic costs strictly more"
            )
            iterations.append(IdIteration(p, nu, crit, False, None, reason))
    chosen: int | None = None
    best_j = math.inf
    for i, it in enumerate(iterations):
        if it.evaluated and it.design.feasible and it.design.j_star < best_j:
            best_j = it.design.j_star
            chosen = i
    trace = IdTrace(tuple(iterations), chosen)
    if chosen is None:
        empty = DesignResult.no_deployment(env, tm)
        return StrategyResult(empty.subset, empty, evaluations, trace)
    picked = iterations[chosen].design
    return StrategyResult(picked.subset, picked, evaluations, trace)


def brute_force_optimal(env: Environment, mon: MonitoringModel,
                        tm: TrafficMatrix, *, cap: int = 16) -> StrategyResult:
    """Price every nonempty deployment set plus the empty one and keep the
    cheapest.  Ties prefer larger sets, then lexicographically smaller
    member tuples.  Exponential; refuses n above `cap`."""
    n = tm.n
    if n > cap:
        raise ValueError(f"brute force capped at n={cap} (got n={n})")
    best = DesignResult.no_deployment(env, tm)
    best_key = (best.j_star, 0, ())
    evaluations = 1
    for mask in range(1, 1 << n):
        members = tuple(i for i in range(n) if mask >> i & 1)
        result = optimal_design(env, mon, tm, Subset._trusted(members))
        evaluations += 1
        if not result.feasible:
            continue
        key = (result.j_star, -len(members), members)
        if key < best_key:
            best, best_key = result, key
    return StrategyResult(best.subset, best, evaluations)


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

    k_star == 0 means the crossover never happens: either the periphery is
    not worth protecting at all ((p_high - p_low) * rate <= c) or the cost
    difference stays negative over the scanned range.  n_star = (1 + l) *
    k_star.  Each row carries the closed-form difference

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
        note = ("restricting to the core never helps: the periphery's "
                "filtering benefit does not cover its deployment cost")
        k_star = 0
    elif k_star == 0:
        note = f"no crossover found for K up to {k_max}"
    else:
        note = "full deployment preferred strictly below k_star"
    return ThresholdResult(k_star, (1 + l) * k_star, tuple(rows), note)
