"""Monte Carlo simulation of rating dynamics and rival punishment schemes.

Accounting is expected-cost: malware events are never sampled, only the
public signals (and, for tit-for-tat, the pairwise observations) are
random.  Each period of length T, traffic from sender i to receiver j
carries malware probability p_{rating(j)} when i runs the service and
p_high otherwise; AS j pays (sum_i q_ij * lambda_ij) * T plus c * T when
deploying.  Signals are correct with probability 1 - epsilon(T) and the
rating is the last signal.  Per-AS utilities discount at exp(-beta*T) per
period.  Grim trigger and tit-for-tat run for comparison, under the rules
README's simulator notes give.

A period's costs are a fixed row plus one row per 1 in a 0/1 array (the
ratings, the trigger's fired flag, or tit-for-tat's wrong observations),
so a run keeps only each entry's plain and discounted count of 1s
(`_Ledger`).  Periods are read one by one only where they can change a
sum, the gaps between them booked from binomial counts (`_stream`), and
grim trigger draws only its first "deviate" signal; README's notes give
why every discounted sum stays as a period-by-period run would leave it.

Whatever does not depend on the seed is built once, by `_prepare`: the
argument checks, epsilon(T), delta, the cost rows, the ledger's `zero` and
`lag`, and each path's fixed arrays, shared read-only.  Its `run(seed)`
makes only that seed's draws, in the order `simulate` (prepare, then one
run) makes them, and builds a fresh report; `deviation_gain` and
`run_strategy_comparison` prepare each plan once and run every seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .design import (
    Environment,
    MonitoringModel,
    RatingDesign,
    _check_as_index,
    _check_prices,
    _epsilon,
    ic_check,
    minimize_loss_factor,
    optimal_design,
)
from .network import Subset, TrafficMatrix, _is_integer, critical_traffic

__all__ = [
    "Behavior",
    "BehaviorProfile",
    "ComparisonRow",
    "DeviationGain",
    "SimReport",
    "SimState",
    "deviation_gain",
    "run_benchmark",
    "run_strategy_comparison",
    "simulate",
]

KINDS = (
    "compliant",
    "persistent-deviator",
    "one-shot-deviator",
    "tit-for-tat",
    "grim-trigger",
    "never-deploy",
    "always-deploy",
)

_Z95 = 1.6448536269514722  # one-sided 95% normal quantile


@dataclass(frozen=True)
class Behavior:
    kind: str
    at_period: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown behavior kind: {self.kind!r}")
        if self.kind == "one-shot-deviator":
            at = self.at_period
            if not _is_integer(at) or at < 0:
                raise ValueError("one-shot-deviator needs an integer "
                                 "at_period >= 0")
        elif self.at_period is not None:
            raise ValueError(f"{self.kind} takes no at_period")


@dataclass(frozen=True)
class BehaviorProfile:
    behaviors: tuple[Behavior, ...]

    @classmethod
    def uniform(cls, n: int, kind: str, at_period: int | None = None
                ) -> "BehaviorProfile":
        return cls(tuple(Behavior(kind, at_period) for _ in range(n)))

    @classmethod
    def compliant(cls, n: int) -> "BehaviorProfile":
        return cls.uniform(n, "compliant")

    @classmethod
    def never_deploy(cls, n: int) -> "BehaviorProfile":
        return cls.uniform(n, "never-deploy")

    def replace(self, i: int, behavior: Behavior) -> "BehaviorProfile":
        items = list(self.behaviors)
        items[i] = behavior
        return BehaviorProfile(tuple(items))

    def kinds(self) -> tuple[str, ...]:
        return tuple(b.kind for b in self.behaviors)

    def __len__(self) -> int:
        return len(self.behaviors)


@dataclass(frozen=True)
class SimState:
    """End-of-run state: period counter, final ratings (rating runs only),
    active tit-for-tat grudges as (punisher, target) pairs, trigger flag."""

    period: int
    ratings: tuple[int, ...] | None
    tft_grudges: tuple[tuple[int, int], ...] | None
    trigger_fired: bool


@dataclass(frozen=True)
class SimReport:
    horizon: int
    period_length: float
    seed: int
    avg_cost: float
    avg_cost_per_as: tuple[float, ...]
    discounted_utility: tuple[float, ...]
    rating_high_fraction: tuple[float, ...] | None
    punishment_fraction: float | None
    final_state: SimState
    time_series: dict | None = None
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "horizon": self.horizon,
            "period_length": self.period_length,
            "seed": self.seed,
            "avg_cost": self.avg_cost,
            "avg_cost_per_as": list(self.avg_cost_per_as),
            "discounted_utility": list(self.discounted_utility),
            "rating_high_fraction": (
                None if self.rating_high_fraction is None
                else list(self.rating_high_fraction)
            ),
            "punishment_fraction": self.punishment_fraction,
            "meta": self.meta,
        }
        if self.time_series is not None:
            ts = {}
            for k, v in self.time_series.items():
                v = np.asarray(v)
                if v.dtype.kind == "f":
                    ts[k] = [None if math.isnan(x) else x for x in v.tolist()]
                else:  # period and trigger_fired, as integers
                    ts[k] = v.astype(int).tolist()
            d["time_series"] = ts
        return d


def _check_profile(profile: BehaviorProfile, n: int) -> None:
    if len(profile) != n:
        raise ValueError(
            f"profile has {len(profile)} behaviors for {n} ASs"
        )
    kinds = set(profile.kinds())
    for special in ("tit-for-tat", "grim-trigger"):
        if special in kinds and kinds != {special}:
            raise ValueError(
                f"{special} profiles must be uniform across ASs; "
                "mixing with other behaviors is not modeled"
            )


# Periods run in blocks of at most this many elements (periods x n, or
# periods x n^2 for tit-for-tat's pairwise observations), so working memory
# does not grow with the horizon.  A block is drawn in place into its float
# buffer, with nothing the size of the block beside it.
_BLOCK_ELEMENTS = 1 << 15


def _blocks(begin: int, end: int, width: int):
    """(start, stop) period ranges covering [begin, end), each
    min(end - begin, max(1, _BLOCK_ELEMENTS // width)) periods long except
    perhaps the last."""
    step = min(end - begin, max(1, _BLOCK_ELEMENTS // width))
    for start in range(begin, end, step):
        yield start, min(start + step, end)


# delta ** t is 0.0 once it falls to 2**-1075, half the least subnormal
_UNDERFLOW_LOG = 1075 * math.log(2.0)
# a sum is left as it is by adding 2**-55 of a term it holds, under a
# quarter of its last bit
_SETTLE_LOG = 55 * math.log(2.0)


class _Ledger:
    """Running sums of the 0/1 arrays a run books and, when requested, the
    time-series columns, filled in place.

    Every path's period-t cost row is lo + sum_e x[t, e] * row_e over one
    0/1 array x[t] (ratings, tit-for-tat links, or the trigger's fired
    flag), so the ledger keeps only each entry's count of 1s and its
    discounted count, as one (2, E) array `sums`, and the discount
    weights' sum `weight`; a path contracts them with its rows once at
    the end, and no path builds a per-period cost matrix.  A ledger is
    built once per plan, with the entries' rows, and `open` gives each run
    a copy with its own sums.

    Column sums are products with a vector of ones stacked on the block's
    weights (one BLAS call, where an axis-0 reduction of a tall, narrow
    block is a slow strided loop).  Discount weights are non-increasing in
    the period, and from period `zero` on, delta ** t surely underflows to
    0.0, so a block that starts at `zero` or later adds nothing to the
    discounted counts and computes no weight.  A span that `_stream` reads
    one by one and that starts before `zero` ends at `zero` at the latest
    (the prefix ends there, and a one-shot span is two periods), so a block
    powers at most one weight from `zero` on, which is 0.0.  Weights that
    are merely subnormal are still used.  Periods from `zero` on can also
    be booked from each entry's count of 1s alone (`tail`), and for 0 <
    delta < 1 so can those from `lag` periods after one in which every
    entry has read a 1: each discounted count then holds some weight w, and
    the weights from then on sum to at most delta ** lag / (1 - delta) * w
    <= 2**-55 * w, under a quarter of the count's last bit; the weight sum
    holds 1 likewise.  A run keeps a time series when `spread`, the
    generator that places such counts over their periods, is given."""

    def __init__(self, horizon: int, T: float, delta: float, lo, adds,
                 column: str | None = None) -> None:
        self.horizon = horizon
        self.T = T
        self.delta = delta
        # delta ** t rounds to 0.0 once t * -log(delta) passes
        # _UNDERFLOW_LOG; one period's margin covers the rounding of both.
        if delta == 0.0:
            self.zero = 1
        elif delta == 1.0:
            self.zero = horizon
        else:
            self.zero = math.ceil(_UNDERFLOW_LOG / -math.log(delta)) + 1
        # the least lag with delta ** lag / (1 - delta) <= 2**-55, in log
        # space; None when delta is 0 or 1 (nothing to settle)
        self.lag = None
        if 0.0 < delta < 1.0:
            self.lag = math.ceil((_SETTLE_LOG - math.log1p(-delta))
                                 / -math.log(delta))
        # period t costs sum(lo) + x[t] @ adds in total, and the
        # time-series `column`, if named, reads x[t]'s mean
        self.base = lo.sum()
        self.adds = _frozen(np.ravel(adds))
        self.column = column

    def open(self, spread: np.random.Generator | None) -> "_Ledger":
        """A copy with every sum at zero, for one run; it keeps a time
        series when `spread` is given."""
        run = object.__new__(_Ledger)
        run.__dict__.update(self.__dict__)
        run.sums = np.zeros((2, self.adds.size))
        run.weight = 0.0
        run.spread = spread
        run.ts = None
        if spread is not None:
            run.ts = {
                "period": np.arange(self.horizon),
                "total_cost": np.empty(self.horizon),
                "trigger_fired": np.zeros(self.horizon, dtype=bool),
                "mean_rating": np.full(self.horizon, np.nan),
            }
        return run

    def weights(self, start: int, b: int) -> np.ndarray | None:
        """The discount weights of periods start, ..., start + b - 1, or
        None when start is `zero` or later and every one is 0.0."""
        if start >= self.zero:
            return None
        return np.power(self.delta, np.arange(start, start + b, dtype=float))

    def add(self, start: int, x: np.ndarray) -> None:
        """Book periods start, ..., start + len(x) - 1, period t reading
        the 0/1 row x[t - start]."""
        b = len(x)
        weights = self.weights(start, b)
        if b == 1:  # the same sums without a (2, 1) @ (1, E) BLAS call
            self.sums[0] += x[0]
            if weights is not None:
                self.sums[1] += weights[0] * x[0]
                self.weight += weights[0]
        elif weights is None:
            self.sums[0] += np.ones(b) @ x
        else:
            self.sums += np.array((np.ones(b), weights)) @ x
            self.weight += weights.sum()
        if self.ts is not None:
            self.ts["total_cost"][start:start + b] = (
                self.base + x @ self.adds) / self.T
            if self.column is not None:
                self.ts[self.column][start:start + b] = x.mean(axis=1)

    def tail(self, start: int, stop: int, count: np.ndarray) -> None:
        """Book periods start, ..., stop - 1, whose weights leave the
        discounted counts as they are (see `lag`), from each entry's count
        of 1s over them.  For a time series, each entry's 1s fall on
        distinct periods drawn without replacement (or, where they are more
        than half, its 0s do), entry by entry, each 1 adding its entry's
        `adds` to the period's total cost (and 1 / E to `column`)."""
        self.sums[0] += count
        if self.ts is None:
            return
        m = stop - start
        cost, hits = np.zeros((2, m))
        for c, w in zip(np.ravel(count).tolist(), self.adds.tolist()):
            c, sign = int(c), 1.0
            if 2 * c > m:  # set every period, then draw the 0s
                cost += w
                hits += 1.0
                c, sign = m - c, -1.0
            at = self.spread.choice(m, c, replace=False)
            cost[at] += sign * w
            hits[at] += sign
        self.ts["total_cost"][start:stop] = (self.base + cost) / self.T
        if self.column is not None:
            self.ts[self.column][start:stop] = hits / self.adds.size


def _frozen(*arrays):
    """Mark arrays that a plan's runs share read-only; returns the first."""
    for a in arrays:
        a.flags.writeable = False
    return arrays[0]


def _check_seed(seed) -> int:
    if not _is_integer(seed):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


def simulate(design: RatingDesign, profile: BehaviorProfile, env: Environment,
             mon: MonitoringModel, tm: TrafficMatrix, horizon: int, seed: int,
             *, time_series: bool = False) -> SimReport:
    """Run one seeded path and report per-unit-time costs, discounted
    utilities, and scheme-specific state summaries.  Identical arguments
    and seed reproduce the report bit for bit."""
    _check_seed(seed)
    return _prepare(design, profile, env, mon, tm, horizon)(seed, time_series)


def _prepare(design, profile, env, mon, tm, horizon):
    """Check `simulate`'s arguments but the seed and build, once, what
    every seed's run shares.  Returns run(seed, time_series=False), which
    gives the report `simulate` would."""
    n = tm.n
    _check_profile(profile, n)
    if any(i >= n for i in design.subset):
        raise ValueError(f"design subset {list(design.subset.members)} has "
                         f"an AS out of range for n={n}")
    if not _is_integer(horizon):
        raise ValueError(f"horizon must be an integer, got {horizon!r}")
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if horizon >= 2 ** 63:  # the generator's counts are 64-bit
        raise ValueError(f"horizon must be below 2**63, got {horizon}")
    _check_prices(design, env)
    eps = _epsilon(mon, design.T)
    if not 0 <= eps <= 0.5:
        raise ValueError("monitoring error must lie in [0, 1/2]")
    T = design.T
    # A period costs an AS at most p_high * inbound + c per unit time; the
    # bound is taken in Python floats, which overflow to inf silently.
    scale = horizon * T
    if not math.isfinite(scale * (env.p_high * float(tm.inbound.max())
                                  + env.c)):
        raise ValueError(f"horizon {horizon} times T {T} overflows the "
                         "run's cost sums")
    delta = math.exp(-env.beta * T)
    kinds = set(profile.kinds())
    if kinds == {"tit-for-tat"}:
        ledger, path = _tft_plan(design, env, tm, horizon, eps, delta)
    elif kinds == {"grim-trigger"}:
        ledger, path = _trigger_plan(design, env, tm, horizon, eps, delta)
    else:
        ledger, path = _rating_plan(design, profile, env, tm, horizon, eps,
                                    delta)

    def run(seed, time_series=False):
        seed = _check_seed(seed)
        rng = np.random.default_rng(seed)
        # A time series places tail counts from the seed's child of spawn
        # key 0, leaving the main stream, and so every other field, as it is.
        book = ledger.open(rng.spawn(1)[0] if time_series else None)
        cost, discounted, fields = path(rng, book)
        per_as = cost / scale
        return SimReport(
            horizon=horizon, period_length=T, seed=seed,
            avg_cost=float(per_as.sum()),
            avg_cost_per_as=tuple(per_as.tolist()),
            discounted_utility=tuple((-discounted).tolist()),
            time_series=book.ts, **fields)

    return run


def _settled_row(x, unseen):
    """Clear from the bool array `unseen` its entries that read a 1 in the
    0/1 block x and return None, or, when x holds a 1 for each of them,
    return the row in which the last of them reads its first: a bisection
    on the column sums of x's leading rows, so that nothing the size of
    the block is built."""
    # a product with one row is a slow BLAS case, and needs no sum
    left = unseen & ((x[0] if len(x) == 1 else np.ones(len(x)) @ x) == 0)
    if left.any():
        unseen[:] = left
        return None
    lo, hi = 0, len(x)  # rows [0, lo) miss an unseen entry, [0, hi) do not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (unseen & (np.ones(mid) @ x[:mid] == 0)).any():
            lo = mid
        else:
            hi = mid
    return lo


def _stream(rng, ledger, horizon, first, p, flipped, flips):
    """Run a path whose period t reads a 0/1 array of E entries drawn in
    period t - 1 (`first` in period 0) and book it into `ledger`.  An
    entry drawn in period t is 1 with probability p, complemented if its
    index is in `flipped`, and xor its flips[t] entry when t is a key of
    `flips`.  Periods are read one by one in spans, taken in order: the
    prefix, each key t of `flips` and t + 1, and the last period, clipped
    to the horizon.  The prefix runs from 0 through `ledger.zero` or,
    where it comes first, through `settle` = f + `ledger.lag`, f being the
    period in which the last entry reads its first 1 (period 0 reads
    `first`); when some entry reads no 1 by `zero`, or delta is 0 or 1, it
    runs through `zero`.  A span's arrays are drawn in blocks into a
    buffer of its own and booked by `ledger.add`; the buffer is released
    before the next gap, so a gap's counts add nothing to the peak.
    `ledger.tail` books the periods of a gap between spans from each
    entry's count of 1s (one binomial draw per entry, complemented where
    flipped).  Returns the array read in the last period and those read in
    the keys of `flips`, by period.

    `settle` depends on the flags alone, not on the blocking: the prefix
    keeps, while it has not settled, only E-sized arrays of the entries
    yet to read a 1, and fills its blocks in chunks, each lag + 1 periods
    longer than the prefix before it (so they double), clipped to the
    block.  Unsettled periods put `settle` at least lag periods past
    them, so only a longer chunk can run past it: the generator state is
    saved around one, and put back to draw it again through `settle` when
    it does.  Each block is still booked whole, by one `ledger.add`.

    The draw rule: an entry is 1 where a uniform k / 2**53 is below p,
    that is with probability ceil(p * 2**53) / 2**53.  A drawn period takes
    E uniforms, entry e reading the period's e-th, filled into the block's
    float buffer and compared there in place."""

    def draw(block, start, a, b):
        """Fill rows a, ..., b - 1 of `block`, row r holding the array
        read in period start + r (drawn in the period before it)."""
        if start + a == 0:  # period 0 reads `first`, not a draw
            block[0], a = first, 1
        out = block[a:b]
        rng.random(out=out)
        np.less(out, p, out=out)
        if len(flipped):
            out[:, flipped] = 1.0 - out[:, flipped]
        for t, mask in flips.items():
            if a <= t + 1 - start < b:
                out[t + 1 - start - a] = out[t + 1 - start - a] != mask

    last = horizon - 1
    unseen = first == 0  # the entries yet to read a 1
    lag = ledger.lag
    end = min(ledger.zero, last)  # the prefix's last period, until settled
    if lag is not None and not unseen.any():
        end, lag = min(end, lag), None
    # each span as (its first period, its last), in order
    spans = [(0, end), *sorted([(last, last), *((t, t + 1) for t in flips)])]
    begin = 0  # the first period not booked yet
    shots = {}
    for s, e in spans:
        s, e = max(s, begin), min(e, last)
        if s > e:
            continue
        if begin < s:
            count = rng.binomial(s - begin, p, first.size)
            count[flipped] = s - begin - count[flipped]
            ledger.tail(begin, s, count)
        settling = s == 0 and lag is not None  # only the prefix settles
        for start, stop in _blocks(s, e + 1, first.size):
            if start > e:
                break
            if start == s:  # the first block sets the buffer's length
                buf = np.empty((stop - start, first.size))
            out = buf[:min(stop, e + 1) - start]
            at = 0  # rows [0, at) are filled
            while settling and at < len(out):
                # lag + 1 periods more than the prefix has filled
                to = min(len(out), 2 * at + start + lag + 1)
                if to - at > lag + 1:  # the chunk may run past settle
                    saved = rng.bit_generator.state
                draw(out, start, at, to)
                row = _settled_row(out[at:to], unseen)
                if row is not None:
                    settling = False
                    e = min(e, start + at + row + lag)
                    if e < start + to - 1:  # the chunk runs past settle
                        rng.bit_generator.state = saved
                        to = e + 1 - start
                        draw(out, start, at, to)
                    out = buf[:min(stop, e + 1) - start]
                at = to
            draw(out, start, at, len(out))
            ledger.add(start, out)
            shots.update((t, out[t - start].copy()) for t in flips
                         if start <= t < start + len(out))
        final = out[-1].copy()
        del buf, out
        begin = e + 1
    return final, shots


def _cost_rows(env, tm, T, actions, p_recv):
    """Each AS's cost over a period of length T when the ASs with action 1
    in `actions` deploy (a 0/1 row by AS, or a stack of them): traffic from
    a deploying sender arrives at price p_recv (per receiver, or one price),
    the rest at p_high, and a deploying AS pays c."""
    deployed_in = actions.astype(float) @ tm.rates
    return (p_recv * deployed_in + env.p_high * (tm.inbound - deployed_in)
            + actions * env.c) * T


def _mask(n, members):
    """The bool array of length n that is True at `members`."""
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    return mask


def _rating_plan(design, profile, env, tm, horizon, eps, delta):
    n = tm.n
    rec = _mask(n, design.subset.members)
    steady = rec.copy()  # each AS's action outside one-shot deviations
    flips = {}  # period -> mask of the ASs deviating once in it
    for i, b in enumerate(profile.behaviors):
        if b.kind == "persistent-deviator":
            steady[i] = ~rec[i]
        elif b.kind == "never-deploy":
            steady[i] = False
        elif b.kind == "always-deploy":
            steady[i] = True
        elif b.kind == "one-shot-deviator" and b.at_period < horizon:
            mask = flips.setdefault(int(b.at_period), np.zeros(n, dtype=bool))
            mask[i] = True

    def cost_rows(actions, ratings):
        return _cost_rows(env, tm, design.T, actions,
                          np.where(ratings, design.p1, design.p0))

    # Under steady actions an AS's cost in a period is one of two rows:
    # rated high, or rated low.
    hi, lo = cost_rows(np.array([steady, steady]), np.array([[True], [False]]))
    step = hi - lo
    # Ratings start high, and a signal reads high with probability 1 - eps
    # (eps for a deviating AS).
    first, flipped = np.ones(n), np.flatnonzero(steady != rec)
    _frozen(steady, lo, step, first, flipped, *flips.values())
    kinds = profile.kinds()

    def path(rng, ledger):
        final, shots = _stream(rng, ledger, horizon, first, 1.0 - eps,
                               flipped, flips)
        high, weighted = ledger.sums
        cost = horizon * lo + step * high
        discounted = ledger.weight * lo + step * weighted
        # A one-shot deviation flips its ASs' actions (and signals); only
        # these periods' costs leave the two rows.
        for t, x in shots.items():
            fix = cost_rows(steady ^ flips[t], x) - (lo + step * x)
            cost += fix
            weight = ledger.weights(t, 1)
            if weight is not None:
                discounted += weight[0] * fix
            if ledger.ts is not None:
                ledger.ts["total_cost"][t] += fix.sum() / design.T
        return cost, discounted, {
            "rating_high_fraction": tuple((high / horizon).tolist()),
            "punishment_fraction": None,
            "final_state": SimState(horizon,
                                    tuple(final.astype(int).tolist()),
                                    tft_grudges=None, trigger_fired=False),
            "meta": {"mode": "rating", "profile": list(kinds),
                     "design": {"T": design.T, "p0": design.p0,
                                "p1": design.p1,
                                "subset": list(design.subset.members)}},
        }

    return _Ledger(horizon, design.T, delta, lo, step, "mean_rating"), path


def _trigger_plan(design, env, tm, horizon, eps, delta):
    n = tm.n
    rec = _mask(n, design.subset.members)
    pre_cost = _cost_rows(env, tm, design.T, rec, env.p_low)
    post_cost = _cost_rows(env, tm, design.T, np.zeros(n), env.p_high)
    step = post_cost - pre_cost
    _frozen(pre_cost, step)
    shared = _Ledger(horizon, design.T, delta, pre_cost, step.sum(),
                     "trigger_fired")
    # Each period's signals read "deviate" somewhere with probability q,
    # so the first period that does is a geometric wait, drawn as one
    # number (none within the horizon: first_bad = horizon).
    q = -math.expm1(n * math.log1p(-eps))
    live = min(horizon, shared.zero)

    def path(rng, ledger):
        first_bad = (min(horizon, int(rng.geometric(q)) - 1) if q > 0.0
                     else horizon)
        # The fired flag is 0 through first_bad and 1 after it: periods
        # are booked one by one through `zero`, then as a run of 0s and
        # one of 1s.
        for start, stop in _blocks(0, live, n):
            ledger.add(start, (np.arange(start, stop) > first_bad)[:, None])
        fires = min(horizon, max(live, first_bad + 1))
        if live < fires:
            ledger.tail(live, fires, [0])
        if fires < horizon:
            ledger.tail(fires, horizon, [horizon - fires])
        fired, weighted = ledger.sums[:, 0]
        cost = horizon * pre_cost + fired * step
        discounted = ledger.weight * pre_cost + weighted * step
        return cost, discounted, {
            "rating_high_fraction": None,
            "punishment_fraction": float(fired) / horizon,
            "final_state": SimState(horizon, ratings=None, tft_grudges=None,
                                    trigger_fired=first_bad < horizon),
            "meta": {"mode": "trigger", "first_bad_period": first_bad,
                     "design": {"T": design.T,
                                "subset": list(design.subset.members)}},
        }

    return shared, path


def _tft_plan(design, env, tm, horizon, eps, delta):
    n = tm.n
    rates = tm.rates
    sends = rates > 0
    if np.any(sends & ~sends.T):
        warnings.warn(
            "tit-for-tat punishment needs reciprocal traffic; some links "
            "here are one-way and cannot be punished",
            stacklevel=4,  # the caller of simulate or the estimator
        )
    # [j, i]: j sees i's action via i -> j traffic (a C-order copy, so the
    # link arrays built from it are C order too)
    observable = sends.T.copy()
    nu_mutual = (rates * sends.T).sum(axis=0)
    deploy = delta * env.gap * nu_mutual > env.c
    deviates = ~deploy  # static actions
    # Sender j filters its traffic to i (price p_low) when it deploys and
    # did not see i deviate last period.  j's observation of i is wrong
    # ("low") with probability eps, so it reads "deviate" when wrong about
    # an AS that deploys and when right about one that does not.
    # With s[i] = sum_j held[j, i] * low[j, i] over the links j can punish,
    # i's punished traffic is s[i] if i deploys and held.sum(0)[i] - s[i]
    # if not, so its cost row is lo + step * s.
    held = rates * (deploy[:, None] & observable)
    # traffic filtered when no observation is wrong
    filtered = deploy.astype(float) @ rates - np.where(deploy, 0.0,
                                                       held.sum(axis=0))
    T = design.T
    lo = (env.p_high * tm.inbound - env.gap * filtered + deploy * env.c) * T
    step = np.where(deploy, env.gap, -env.gap) * T
    # Costs and grudges are linear in the flags, so a run only sums each
    # link's flags, plainly and discounted, and contracts them once.
    fold = held * step  # a link's flag adds this to its receiver's cost
    # Before period 0 the flags read `deviates`, which is "deviate" nowhere.
    first = np.tile(deviates, n)
    # A grudge is a low flag on an observed link into an AS that deploys,
    # or its absence on one into an AS that does not.
    sign = np.where(observable, np.where(deviates, -1.0, 1.0), 0.0).ravel()
    grudge_base = horizon * np.count_nonzero(observable & deviates)
    _frozen(observable, deviates, lo, fold, first, sign)
    deploying = np.flatnonzero(deploy).tolist()
    mutual_links = int((sends & sends.T).sum())

    def path(rng, ledger):
        final, _ = _stream(rng, ledger, horizon, first, eps, [], {})
        cost, discounted = (ledger.sums.reshape(2, n, n) * fold).sum(axis=1)
        cost += horizon * lo
        discounted += ledger.weight * lo
        grudge_count = grudge_base + ledger.sums[0] @ sign
        final = (deviates ^ (final.reshape(n, n) != 0.0)) & observable
        grudges = tuple(map(tuple, np.argwhere(final).tolist()))
        return cost, discounted, {
            "rating_high_fraction": None,
            "punishment_fraction": None,
            "final_state": SimState(horizon, ratings=None, tft_grudges=grudges,
                                    trigger_fired=False),
            "meta": {"mode": "tit-for-tat", "deploying": list(deploying),
                     "mean_grudges_per_period": int(grudge_count) / horizon,
                     "mutual_links": mutual_links, "design": {"T": T}},
        }

    return _Ledger(horizon, T, delta, lo, fold), path


@dataclass(frozen=True)
class DeviationGain:
    """Paired-seed comparison of AS i's discounted utility when it deviates
    persistently versus complying, everyone else compliant."""

    as_index: int
    gains: tuple[float, ...]
    mean: float
    std: float
    stderr: float
    compliant_mean: float
    deviant_mean: float
    significantly_positive: bool
    significantly_negative: bool


def _seed_list(seeds) -> list[int]:
    """A count n (seeds 0..n-1) or an iterable of seeds, as a nonempty list.
    A bool or a float is neither."""
    if not (_is_integer(seeds) or np.iterable(seeds)):
        raise ValueError(f"seeds must be a count or a list, got {seeds!r}")
    seeds = list(range(seeds) if _is_integer(seeds) else seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    return seeds


def deviation_gain(design: RatingDesign, env: Environment,
                   mon: MonitoringModel, tm: TrafficMatrix, i: int,
                   horizon: int, seeds) -> DeviationGain:
    """Monte Carlo estimate of the utility gain from persistent deviation.

    The same seed is reused for the compliant and deviant runs (common
    random numbers), so for an IC design the estimate concentrates at or
    below zero; significance flags are one-sided z-tests at 95%.  One seed
    gives no standard error (`std` and `stderr` read 0.0), so both flags
    are then False."""
    seeds = _seed_list(seeds)
    n = tm.n
    _check_as_index(i, n)
    i = int(i)
    base = BehaviorProfile.compliant(n)
    dev = base.replace(i, Behavior("persistent-deviator"))
    runs = [_prepare(design, p, env, mon, tm, horizon) for p in (base, dev)]
    comp_u, dev_u = ([run(s).discounted_utility[i] for s in seeds]
                     for run in runs)
    gains = [d - c for c, d in zip(comp_u, dev_u)]
    arr = np.array(gains)
    mean = float(arr.mean())
    tested = len(arr) > 1
    std = float(arr.std(ddof=1)) if tested else 0.0
    se = std / math.sqrt(len(arr))
    return DeviationGain(
        as_index=i,
        gains=tuple(gains),
        mean=mean,
        std=std,
        stderr=se,
        compliant_mean=float(np.mean(comp_u)),
        deviant_mean=float(np.mean(dev_u)),
        significantly_positive=tested and mean - _Z95 * se > 0,
        significantly_negative=tested and mean + _Z95 * se < 0,
    )


def _no_otc(env: Environment, n: int
            ) -> tuple[RatingDesign, BehaviorProfile]:
    """The no-OTC benchmark: no service anywhere, and nobody deploys."""
    return (RatingDesign(1.0, env.p_high, env.p_high, Subset(())),
            BehaviorProfile.never_deploy(n))


def _optimal_plan(env: Environment, mon: MonitoringModel, tm: TrafficMatrix
                  ) -> tuple[RatingDesign, BehaviorProfile, str]:
    """The full-set optimum played compliantly, or no-OTC when no IC design
    exists: (design, profile, note)."""
    result = optimal_design(env, mon, tm)
    if result.feasible:
        return (result.design(), BehaviorProfile.compliant(tm.n),
                "cost-minimizing IC design")
    return *_no_otc(env, tm.n), "no IC design exists; nobody deploys"


def run_benchmark(kind: str, env: Environment, mon: MonitoringModel,
                  tm: TrafficMatrix, horizon: int, seed: int,
                  fixed: tuple[float, float, float] | None = None,
                  *, time_series: bool = False) -> SimReport:
    """Simulate one of the reference schemes.

    no-otc: nobody deploys.  rating-independent: prices ignore ratings, so
    nobody deploys in equilibrium (costs match no-otc exactly).
    worst-best: maximal punishment spread (p_high, p_low) with the loss
    factor minimized over feasible periods.  fixed: given (T, p0, p1),
    compliant when IC, otherwise nobody deploys.  optimal: the
    cost-minimizing IC design."""
    n = tm.n
    full = Subset.full(n)
    never = BehaviorProfile.never_deploy(n)
    compliant = BehaviorProfile.compliant(n)

    if kind == "no-otc":
        design, profile = _no_otc(env, n)
        note = "no service anywhere"
    elif kind == "rating-independent":
        design = RatingDesign(1.0, env.p_low, env.p_low, full)
        profile = never
        note = "prices ignore ratings; deploying is dominated"
    elif kind == "worst-best":
        found = minimize_loss_factor(env, mon, critical_traffic(tm, full))
        if found is None:
            design, profile = _no_otc(env, n)
            note = "maximal spread infeasible; falling back to no deployment"
        else:
            design = RatingDesign(found[0], env.p_high, env.p_low, full)
            profile = compliant
            note = "maximal punishment spread at the loss-minimizing period"
    elif kind == "fixed":
        if fixed is None:
            raise ValueError("fixed benchmark needs (T, p0, p1)")
        t, p0, p1 = fixed
        design = RatingDesign(t, p0, p1, full)
        # the binding AS: the first of least inbound traffic
        if ic_check(design, env, mon, tm, int(tm.inbound.argmin())):
            profile = compliant
            note = "fixed design is IC; compliant play"
        else:
            design = RatingDesign(t, p0, p1, Subset(()))
            profile = never
            note = "fixed design is not IC; nobody deploys"
    elif kind == "optimal":
        design, profile, note = _optimal_plan(env, mon, tm)
    else:
        raise ValueError(f"unknown benchmark kind: {kind!r}")

    report = simulate(design, profile, env, mon, tm, horizon, seed,
                      time_series=time_series)
    meta = dict(report.meta)
    meta["benchmark"] = kind
    meta["note"] = note
    return replace(report, meta=meta)


@dataclass(frozen=True)
class ComparisonRow:
    beta: float
    kind: str
    avg_cost: float
    avg_cost_std: float
    punishment_fraction: float | None
    seeds: int


def run_strategy_comparison(kind: str, env: Environment, mon: MonitoringModel,
                            tm: TrafficMatrix, T: float, horizon: int,
                            seeds, beta_grid: Sequence[float]
                            ) -> tuple[ComparisonRow, ...]:
    """Average cost of a punishment scheme across discount rates.

    kind "rating" re-optimizes the full-set design at each beta (its own
    period); "tft" and "trigger" run at the given period T."""
    if kind not in ("tft", "trigger", "rating"):
        raise ValueError(f"unknown comparison kind: {kind!r}")
    seeds = _seed_list(seeds)
    n = tm.n
    rows = []
    for beta in beta_grid:
        env_b = replace(env, beta=float(beta))
        # The design and profile do not depend on the seed.
        if kind == "rating":
            design, profile, _ = _optimal_plan(env_b, mon, tm)
        else:
            design = RatingDesign(T, env.p_high, env.p_low, Subset.full(n))
            behavior = "tit-for-tat" if kind == "tft" else "grim-trigger"
            profile = BehaviorProfile.uniform(n, behavior)
        run = _prepare(design, profile, env_b, mon, tm, horizon)
        reports = [run(s) for s in seeds]
        arr = np.array([rep.avg_cost for rep in reports])
        punish = [rep.punishment_fraction for rep in reports
                  if rep.punishment_fraction is not None]
        rows.append(ComparisonRow(
            beta=float(beta),
            kind=kind,
            avg_cost=float(arr.mean()),
            avg_cost_std=float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
            punishment_fraction=float(np.mean(punish)) if punish else None,
            seeds=len(seeds),
        ))
    return tuple(rows)
