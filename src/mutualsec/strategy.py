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
with it.  It hands over two arrays: the step at which each member is
deleted, and each step's exact critical traffic.  The steps priced are the
record levels, whose critical traffic exceeds every earlier step's, read
off the running maximum in one array pass; a dense network has only a few.
The trace keeps those arrays and the priced designs, and builds each
step's `IdIteration`, with its set and skip reason, only when it is read.
Brute force costs every subset exactly as an array, its loss rates from
`design._loss_rates`, and reads the optimum straight off it.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

from .design import (
    DesignResult,
    Environment,
    MonitoringModel,
    _loss_rates,
    _set_cost,
    optimal_design,
    validate_assumptions,
)
import numpy as np

from .network import (
    Subset,
    TrafficMatrix,
    _deletion_walk,
    _record_levels,
    _walk_set,
)

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


class _DeletionSteps(Sequence):
    """The deletion search's steps, an `IdIteration` each, built when read.

    Holds the walk's read-only arrays (each member's deletion step and each
    step's critical traffic), the running maximum of that traffic and the
    designs priced at the record levels: O(n) in all.  Step k's set is the
    members deleted at step k or later and its critical members those
    deleted at step k.  It equals a tuple of the same iterations, and its
    repr is that tuple's."""

    def __init__(self, step_of: np.ndarray, nus: np.ndarray,
                 best: np.ndarray, designs: dict[int, DesignResult]) -> None:
        self._step_of, self._nus, self._best = step_of, nus, best
        self._designs = designs

    def __len__(self) -> int:
        return len(self._nus)

    def __getitem__(self, k):
        picked = range(len(self))[k]
        if isinstance(picked, range):
            return tuple(map(self._step, picked))
        return self._step(picked)

    def _step(self, k: int) -> IdIteration:
        nu = float(self._nus[k])
        crit = tuple(np.flatnonzero(self._step_of == k).tolist())
        design = self._designs.get(k)
        if design is not None:
            return IdIteration(design.subset, nu, crit, True, design)
        subset = _walk_set(self._step_of, k)
        reason = (f"critical traffic {nu:g} does not exceed the best priced "
                  f"value {float(self._best[k]):g}; a nested set with "
                  "no-higher critical traffic costs strictly more")
        return IdIteration(subset, nu, crit, False, None, reason)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _DeletionSteps)):
            return NotImplemented
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class IdTrace:
    """The deletion search step by step, from the full set down.

    `iterations` holds one `IdIteration` per walk step.  The search's own
    trace builds each one only when it is read, from O(n) arrays, so a
    trace that is never read costs no O(n^2) member tuples; `len` builds
    none.  It compares equal to a trace holding a tuple of the same
    iterations."""

    iterations: Sequence[IdIteration]
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

    Walks from the full set down, deleting all current critical members
    each step, and prices only the record levels: the full set, then each
    step whose critical traffic strictly exceeds that of every step before
    it, priced or not.  The strictly cheapest feasible design wins.  When
    none is feasible, the result degenerates to the empty deployment
    (everyone at ambient rate).  The trace's steps are built from the
    walk's arrays when they are read.
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
    step_of, nus = _deletion_walk(tm)
    levels, best = _record_levels(nus)
    designs: dict[int, DesignResult] = {}
    chosen, best_j = None, math.inf
    result = DesignResult.no_deployment(env, tm)
    for k in levels.tolist():
        design = optimal_design(env, mon, tm, _walk_set(step_of, k))
        designs[k] = design
        # Strictly cheaper only: ties keep the earlier, larger set.
        if design.feasible and design.j_star < best_j:
            chosen, result, best_j = k, design, design.j_star
    trace = IdTrace(_DeletionSteps(step_of, nus, best, designs), chosen)
    return StrategyResult(result.subset, result, len(designs), trace)


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
    `network` does: the critical traffic and mu_in equal `critical_traffic`
    and `network._outbound_within` to the bit.  A table over the lowest
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
        # Column by column, about twice as fast as a masked reduce along
        # the rows; a minimum is exact in any order.
        masked = np.where(member | in_high, block_in, np.inf)
        crit = masked[:, 0].copy()
        for j in range(1, n):
            np.minimum(crit, masked[:, j], out=crit)
        yield high << low, block_in, crit, block_mu, size + len(rows)


def brute_force_optimal(env: Environment, mon: MonitoringModel,
                        tm: TrafficMatrix, *, cap: int = 16) -> StrategyResult:
    """Cheapest deployment set over every nonempty set plus the empty one.

    Ties prefer larger sets, then lexicographically smaller member tuples;
    `evaluations` counts the 2^n sets.  Exponential; refuses n above `cap`.

    The sets are enumerated as bit masks by `_subset_blocks`, which gives
    each set's critical traffic nu bit-equal to `critical_traffic`.  A
    design's loss rate r(nu), and whether one is feasible at all, depend on
    nu alone, so `design._loss_rates` prices each block's critical traffics
    as one array, NaN where no design is feasible.  Each feasible set's cost

        J = (p_low + r(nu))·mu_in + p_high·(M - mu_in) + |P|·c

    is then an array from `design._set_cost`, which prices every set cost.
    Its mu_in adds the members in member order, as `network` sums every
    outbound total, so each array cost is its set's `j_star` to the bit:
    the winner is read off the array, and `optimal_design` prices it alone.

    Memory is bounded: the blocks hold at most 2**16 sets, and only the
    tied best masks are carried between blocks.  The run time is still
    exponential in n.
    """
    n = tm.n
    if n > cap:
        raise ValueError(f"brute force capped at n={cap} (got n={n})")
    lowest = math.inf
    tied: list[int] = []  # the masks at the lowest cost
    for first, _, crit, mu_in, size in _subset_blocks(tm):
        cost = _set_cost(env, tm, env.p_low + _loss_rates(env, mon, crit),
                         mu_in, size)
        low = float(np.fmin.reduce(cost, initial=lowest))  # skips NaN
        if low < lowest:
            lowest, tied = low, []
        tied += (first + np.flatnonzero(cost == lowest)).tolist()
    best = DesignResult.no_deployment(env, tm)
    if lowest <= best.j_star:
        members = min((_members(mask, n) for mask in tied),
                      key=lambda m: (-len(m), m))
        best = optimal_design(env, mon, tm, Subset._trusted(members))
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

    The scan runs K from max(3, l + 1), the smallest core that carries l
    leaves per node, to `k_max`.  k_star is the first K in it at which the
    core costs less than the full set, an infeasible design costing inf,
    and 0 only when no K does.  When a periphery AS's filtering benefit
    does not cover its deployment cost ((p_high - p_low) * rate <= c), the
    note says that the periphery never pays for itself; k_star is found
    the same way.  n_star = (1 + l) * k_star.  Each row carries the
    closed-form difference

        K * (g_full * c * (K + 2l - l/(K-1) - 2) - ((p_high-p_low)*l*rate - l*c))

    which agrees with the exact difference when both designs share the same
    unconstrained cost-minimizing period.
    """
    l = periphery_per_core
    if l < 1:
        raise ValueError("periphery_per_core must be at least 1")
    if k_max <= max(2, l):
        raise ValueError(f"k_max must exceed 2 and periphery_per_core "
                         f"(got k_max={k_max}, periphery_per_core={l})")
    if not (math.isfinite(rate) and rate >= 0):
        raise ValueError("rate must be finite and non-negative")
    rows = []
    k_star = 0
    never_worth = env.gap * rate <= env.c
    for k in range(max(3, l + 1), k_max + 1):
        tm = TrafficMatrix.restricted_core_periphery(k, l, rate)
        full = optimal_design(env, mon, tm)
        core = optimal_design(env, mon, tm, Subset._trusted(tuple(range(k))))
        j_full, j_core = full.j_star, core.j_star  # None when infeasible
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
        # an infeasible design costs inf
        if k_star == 0 and j_core is not None and (j_full is None
                                                    or j_full > j_core):
            k_star = k
    if never_worth:
        note = ("the periphery never pays for its deployment cost: its "
                "filtering benefit does not cover c")
    elif k_star == 0:
        note = f"no crossover found for K up to {k_max}"
    else:
        note = "full deployment preferred strictly below k_star"
    return ThresholdResult(k_star, (1 + l) * k_star, tuple(rows), note)
