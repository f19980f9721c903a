"""Monte Carlo simulation of rating dynamics and rival punishment schemes.

Accounting is expected-cost: malware events are never sampled, only the
public signals (and, for tit-for-tat, the pairwise observations) are
random.  Each period of length T, traffic from sender i to receiver j
carries malware probability p_{rating(j)} when i runs the service and
p_high otherwise; AS j pays (sum_i q_ij * lambda_ij) * T plus c * T when
deploying.  Signals are correct with probability 1 - epsilon(T) and the
rating is the last signal.  Per-AS utilities discount at exp(-beta*T) per
period.

Two rival schemes are modeled for comparison.  Grim trigger: everyone
deploys and filters fully until any public signal reads "deviate", then
nobody deploys again (absorbing).  Tit-for-tat: an AS that sees its
partner skip deployment sends that partner unfiltered traffic for one
period.  Two modeling choices are deliberate and recorded here: the
pairwise observation is of the partner's deployment action (punishment
traffic does not itself trigger counter-punishment, otherwise observation
noise drives every pair to punish half the time regardless of patience),
and deployment follows the static myopic break-even rule, deploy iff
exp(-beta*T) * (p_high - p_low) * nu_mutual > c, where nu_mutual counts
inbound traffic from reciprocal partners (retaliation arrives one period
late, hence the discount).

Runs are streamed in fixed-size blocks of periods whose cost rows are added
to running totals, so memory does not grow with the horizon except for the
time-series columns, which hold one value per period when requested.

Three shortcuts keep runs cheap.  The discounted sums stop at the first
weight delta ** t that is surely 0.0 (about 745 / (beta*T) periods in),
also within a block: that weight and later ones are left 0.0 uncomputed.
Each path writes its period-t cost row as lo + step * x[t], with lo and
step fixed for the run, so a block is booked from the plain and discounted
column sums of x and no path builds a per-period cost matrix:

- rating: x holds the ratings (1.0 high, 0.0 low), between the rated-low
  and rated-high cost rows, since under steady actions an AS's cost is one
  of the two.  Blocks with one-shot deviations book their general cost
  rows as x, with lo = 0 and step = 1.
- grim trigger: x is the fired column, between the pre- and post-trigger
  cost rows.
- tit-for-tat: x is each AS's traffic from filtering partners whose last
  observation of it was wrong, contracted from the (b, n, n) 0/1
  observation block.  Each unit costs an AS that deploys gap * T (the
  partner punishes) and saves one that does not as much (the partner
  does not).

And from the first period whose weight is surely 0.0, the totals depend
only on how often each 0/1 entry is 1, not on when, except in the periods
a one-shot deviation touches and in the last period, which sets the final
state.  The rating and tit-for-tat paths share one draw rule, `_stream`:
it reads one by one the periods through that point, each one-shot period
and the period after it, and the last period, each span in blocks of its
own, and books each gap between spans from one binomial count per AS
(ratings) or per link (tit-for-tat).  Grim trigger needs only its first
"deviate" signal, which it draws as one geometric wait from period 0.
The discounted utilities are those of a whole-horizon run on the same
draws to about 1e-12 relative (the summation order depends on the
blocking).  A time series spreads each count over distinct periods drawn
by a child of the seed, so it changes no other field.
"""

from __future__ import annotations

import json
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
                vals = np.asarray(v, dtype=float).tolist()
                ts[k] = [None if math.isnan(x) else x for x in vals]
            d["time_series"] = ts
        return d

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

    def write_time_series_csv(self, path) -> None:
        if self.time_series is None:
            raise ValueError("run simulate(..., time_series=True) first")
        ts = self.time_series
        with open(path, "w", newline="") as fh:
            fh.write("period,total_cost,trigger_fired,mean_rating\n")
            for k in range(self.horizon):
                cost = repr(float(ts["total_cost"][k]))
                rating = float(ts["mean_rating"][k])
                rating_cell = "" if math.isnan(rating) else repr(rating)
                fh.write(
                    f"{k},{cost},{int(ts['trigger_fired'][k])},{rating_cell}\n"
                )


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
# does not grow with the horizon.
_BLOCK_ELEMENTS = 1 << 16


def _blocks(begin: int, end: int, width: int):
    """(start, stop) period ranges covering [begin, end), each
    min(end - begin, max(1, _BLOCK_ELEMENTS // width)) periods long except
    perhaps the last."""
    step = min(end - begin, max(1, _BLOCK_ELEMENTS // width))
    for start in range(begin, end, step):
        yield start, min(start + step, end)


# delta ** t is 0.0 once it falls to 2**-1075, half the least subnormal
_UNDERFLOW_LOG = 1075 * math.log(2.0)


class _Ledger:
    """Running totals of per-AS cost and discounted cost, high-rating counts
    and, when requested, the time-series columns, filled in place.

    A block is booked as an array x whose period-t cost row is
    lo + step * x[t], with lo and step per AS (or scalars, and x may have
    one column when a single switch moves every AS's cost).  The totals
    then need only x's column sums and discounted column sums,
    b*lo + step*(ones @ x) and weights.sum()*lo + step*(weights @ x), so
    no path builds a per-period cost matrix; the row sums are formed only
    for a time series.

    Column sums are products with a vector of ones (one BLAS call, where
    an axis-0 reduction of a tall, narrow block is a slow strided loop).
    Discount weights are non-increasing in the period, and from period
    `zero` on, delta ** t surely underflows to 0.0, so a block's weights
    are computed only for its periods before `zero` and the rest are left
    0.0 (the underflowing tail is most of a long first block and the
    slowest part to compute); a block that starts at `zero` or later adds
    nothing to the discounted cost.  Weights that are merely subnormal are
    still used.  Periods from `zero` on can also be booked from x's column
    sums alone (`tail`).  A time series is kept when `spread`, the
    generator that places such sums, is given."""

    def __init__(self, n: int, horizon: int, T: float, delta: float,
                 spread: np.random.Generator | None) -> None:
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
        self.cost = np.zeros(n)
        self.discounted = np.zeros(n)
        self.high = np.zeros(n)
        self.ts = None
        self.spread = spread
        if spread is not None:
            self.ts = {
                "period": np.arange(horizon),
                "total_cost": np.empty(horizon),
                "trigger_fired": np.zeros(horizon, dtype=bool),
                "mean_rating": np.full(horizon, np.nan),
            }

    def add(self, start: int, x: np.ndarray, lo: np.ndarray | float = 0.0,
            step: np.ndarray | float = 1.0,
            ratings: np.ndarray | None = None) -> None:
        """Book periods start, start + 1, ... whose cost rows are
        lo + step * x[t] and, for rating runs, whose rating rows are
        `ratings` (which may be x itself)."""
        b = len(x)
        stop = start + b
        ones = np.ones(b)
        sums = ones @ x
        self.cost += b * lo + step * sums
        if start < self.zero:
            weights = np.zeros(b)
            k = min(b, self.zero - start)
            np.power(self.delta, np.arange(start, start + k, dtype=float),
                     out=weights[:k])
            self.discounted += weights.sum() * lo + step * (weights @ x)
        if ratings is not None:
            self.high += sums if ratings is x else ones @ ratings
        if self.ts is not None:
            self.ts["total_cost"][start:stop] = ((lo + step * x).sum(axis=1)
                                                 / self.T)
            if ratings is not None:
                self.ts["mean_rating"][start:stop] = ratings.mean(axis=1)

    def tail(self, start: int, stop: int, count: np.ndarray | float,
             lo: np.ndarray, step: np.ndarray | float, columns=None,
             ratings: bool = False) -> None:
        """Book periods start, ..., stop - 1, all at or past `zero`, from
        x's column sums `count` alone (also as high ratings).  For a time
        series, columns = (ones, adds): the 1s of each column of some 0/1
        array fall on distinct periods drawn without replacement (or, where
        they are more than half, its 0s do), column by column in C order,
        each 1 adding its column's `adds` entry to the period's cost (and,
        with `ratings`, 1/len(lo) to its mean rating)."""
        self.cost += (stop - start) * lo + step * count
        self.high += count
        if self.ts is None or columns is None:
            return
        m = stop - start
        cost, hits = np.zeros((2, m))
        for c, w in zip(*(np.ravel(a).tolist() for a in columns)):
            c, sign = int(c), 1.0
            if 2 * c > m:  # set every period, then draw the 0s
                cost += w
                hits += 1.0
                c, sign = m - c, -1.0
            at = self.spread.choice(m, c, replace=False)
            cost[at] += sign * w
            hits[at] += sign
        self.ts["total_cost"][start:stop] = (np.sum(lo) + cost) / self.T
        if ratings:
            self.ts["mean_rating"][start:stop] = hits / len(lo)


def simulate(design: RatingDesign, profile: BehaviorProfile, env: Environment,
             mon: MonitoringModel, tm: TrafficMatrix, horizon: int, seed: int,
             *, time_series: bool = False) -> SimReport:
    """Run one seeded path and report per-unit-time costs, discounted
    utilities, and scheme-specific state summaries.  Identical arguments
    and seed reproduce the report bit for bit."""
    n = tm.n
    _check_profile(profile, n)
    if any(i >= n for i in design.subset):
        raise ValueError(f"design subset {list(design.subset.members)} has "
                         f"an AS out of range for n={n}")
    for name, value in (("horizon", horizon), ("seed", seed)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    horizon, seed = int(horizon), int(seed)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    _check_prices(design, env)
    eps = float(mon.epsilon(design.T))
    if not 0 <= eps <= 0.5:
        raise ValueError("monitoring error must lie in [0, 1/2]")
    T = design.T
    rng = np.random.default_rng(seed)
    # A time series places tail counts from a child of the seed, leaving
    # the main stream, and so every other field, as it is.
    ledger = _Ledger(n, horizon, T, math.exp(-env.beta * T),
                     rng.spawn(1)[0] if time_series else None)
    kinds = set(profile.kinds())
    if kinds == {"tit-for-tat"}:
        fields = _simulate_tft(design, env, tm, horizon, eps, rng, ledger)
    elif kinds == {"grim-trigger"}:
        fields = _simulate_trigger(design, env, tm, horizon, eps, rng, ledger)
    else:
        fields = _simulate_rating(design, profile, env, tm, horizon, eps, rng,
                                  ledger)
    per_as = ledger.cost / (horizon * T)
    return SimReport(
        horizon=horizon,
        period_length=T,
        seed=seed,
        avg_cost=float(per_as.sum()),
        avg_cost_per_as=tuple(float(x) for x in per_as),
        discounted_utility=tuple(float(-x) for x in ledger.discounted),
        time_series=ledger.ts,
        **fields,
    )


def _stream(rng, zero, horizon, first, p, flipped, flips, book, tail):
    """Run a path whose period t reads a 0/1 array drawn in period t - 1
    (`first` in period 0).  An entry drawn in period t is 1 where its
    uniform draw is below p, complemented if its flat index is in
    `flipped`, and xor its flips[t] entry when t is a key of `flips`.
    Periods are read one by one in spans, taken in order: 0 through
    `zero`, each key t of `flips` and t + 1, and the last period, clipped
    to the horizon.  A span's arrays are drawn in blocks into a buffer of
    its own and booked by book(start, arrays); the buffer is released
    before the next gap, so a gap's counts add nothing to the peak.
    tail(start, stop, count) books the periods of a gap between spans from
    each entry's count of 1s (one binomial draw per entry, complemented
    where flipped).  Returns the array read in the last period."""

    def draw(out, start):
        np.less(rng.random(out=out), p, out=out)
        entries = out.reshape(len(out), first.size)
        entries[:, flipped] = 1.0 - entries[:, flipped]
        for t, mask in flips.items():
            if start <= t < start + len(out):
                out[t - start] = out[t - start] != mask

    last = horizon - 1
    # each span as (its first period, its last), in order
    spans = sorted([(0, zero), (last, last), *((t, t + 1) for t in flips)])
    begin = 0  # the first period not booked yet
    for s, e in spans:
        s, e = max(s, begin), min(e, last)
        if s > e:
            continue
        if begin < s:
            count = rng.binomial(s - begin, p, first.size)
            count[flipped] = s - begin - count[flipped]
            tail(begin, s, count.reshape(first.shape))
        blocks = list(_blocks(s, e + 1, first.size))
        buf = np.empty((blocks[0][1] - s, *first.shape))
        for start, stop in blocks:
            out = buf[:stop - start]
            k = int(start == 0)  # period 0 reads `first`, not a draw
            out[:k] = first
            draw(out[k:], start + k - 1)
            book(start, out)
        final = out[-1].copy()
        del buf, out
        begin = e + 1
    return final


def _simulate_rating(design, profile, env, tm, horizon, eps, rng, ledger):
    n = tm.n
    rec = np.zeros(n, dtype=bool)
    rec[list(design.subset.members)] = True
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
    inbound = tm.inbound

    def cost_rows(actions, ratings):
        deployed_in = actions.astype(float) @ tm.rates
        p_recv = np.where(ratings, design.p1, design.p0)
        return (p_recv * deployed_in
                + env.p_high * (inbound - deployed_in)
                + actions * env.c) * design.T

    # Under steady actions an AS's cost in a period is one of two rows:
    # rated high, or rated low.
    hi, lo = cost_rows(np.array([steady, steady]), np.array([[True], [False]]))

    def book(start, ratings):
        shots = sorted(t for t in flips if start <= t < start + len(ratings))
        if not shots:
            ledger.add(start, ratings, lo, hi - lo, ratings)
            return
        # A one-shot deviation flips its ASs' actions (and signals); only
        # these periods' costs leave the two rows.
        rows = np.array(shots) - start
        cost = np.where(ratings, hi, lo)
        cost[rows] = cost_rows(steady ^ np.array([flips[t] for t in shots]),
                               ratings[rows])
        ledger.add(start, cost, ratings=ratings)

    def tail(start, stop, high):
        # only the number of high ratings counts
        ledger.tail(start, stop, high, lo, hi - lo, (high, hi - lo),
                    ratings=True)

    # Ratings start high, and a signal reads high with probability 1 - eps
    # (eps for a deviating AS).
    final = _stream(rng, ledger.zero, horizon, np.ones(n), 1.0 - eps,
                    np.flatnonzero(steady != rec), flips, book, tail)
    return {
        "rating_high_fraction": tuple(float(x) for x in ledger.high / horizon),
        "punishment_fraction": None,
        "final_state": SimState(horizon, tuple(int(r) for r in final),
                                tft_grudges=None, trigger_fired=False),
        "meta": {"mode": "rating", "profile": list(profile.kinds()),
                 "design": {"T": design.T, "p0": design.p0, "p1": design.p1,
                            "subset": list(design.subset.members)}},
    }


def _simulate_trigger(design, env, tm, horizon, eps, rng, ledger):
    n = tm.n
    rec = np.zeros(n, dtype=bool)
    rec[list(design.subset.members)] = True
    inbound = tm.inbound
    deployed_in = rec.astype(float) @ tm.rates
    pre_cost = (env.p_low * deployed_in
                + env.p_high * (inbound - deployed_in)
                + rec * env.c) * design.T
    post_cost = env.p_high * inbound * design.T
    # Each period's signals read "deviate" somewhere with probability q,
    # so the first period that does is a geometric wait, drawn as one
    # number (none within the horizon: first_bad = horizon).
    q = -math.expm1(n * math.log1p(-eps))
    first_bad = min(horizon, int(rng.geometric(q)) - 1) if q > 0.0 else horizon
    live = min(horizon, ledger.zero)  # periods booked with their weights
    for start, stop in _blocks(0, live, n):
        fired = np.arange(start, stop) > first_bad
        ledger.add(start, fired[:, None], pre_cost, post_cost - pre_cost)
    if live < horizon:
        ledger.tail(live, horizon, max(0, horizon - max(live, first_bad + 1)),
                    pre_cost, post_cost - pre_cost)
    if ledger.ts is not None:
        fired = np.arange(horizon) > first_bad
        ledger.ts["trigger_fired"][:] = fired
        ledger.ts["total_cost"][live:] = np.where(
            fired[live:], post_cost.sum(), pre_cost.sum()) / design.T
    return {
        "rating_high_fraction": None,
        "punishment_fraction": max(0, horizon - 1 - first_bad) / horizon,
        "final_state": SimState(horizon, ratings=None, tft_grudges=None,
                                trigger_fired=first_bad < horizon),
        "meta": {"mode": "trigger", "first_bad_period": first_bad, "design": {
            "T": design.T, "subset": list(design.subset.members)}},
    }


def _simulate_tft(design, env, tm, horizon, eps, rng, ledger):
    n = tm.n
    rates = tm.rates
    sends = rates > 0
    if np.any(sends & ~sends.T):
        warnings.warn(
            "tit-for-tat punishment needs reciprocal traffic; some links "
            "here are one-way and cannot be punished",
            stacklevel=3,
        )
    # [j, i]: j sees i's action via i -> j traffic (a C-order copy, so the
    # link arrays built from it are C order too)
    observable = sends.T.copy()
    nu_mutual = (rates * sends.T).sum(axis=0)
    deploy = math.exp(-env.beta * design.T) * env.gap * nu_mutual > env.c
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
    # A grudge is a low flag on an observed link into an AS that deploys,
    # or its absence on one into an AS that does not.
    sign = np.where(observable, np.where(deviates, -1.0, 1.0), 0.0).ravel()
    grudge_count = horizon * np.count_nonzero(observable & deviates)

    def book(start, lagged):
        nonlocal grudge_count
        grudge_count += (lagged.reshape(len(lagged), n * n) @ sign).sum()
        ledger.add(start, np.einsum("tji,ji->ti", lagged, held), lo, step)

    def tail(start, stop, wrong):
        # only how often each link's observation was wrong counts
        nonlocal grudge_count
        ledger.tail(start, stop, (held * wrong).sum(axis=0), lo, step,
                    (wrong, held * step))
        grudge_count += wrong.ravel() @ sign

    # Before period 0 the flags read `deviates`, which is "deviate" nowhere.
    first = np.broadcast_to(deviates, (n, n))
    final = _stream(rng, ledger.zero, horizon, first, eps, [], {}, book, tail)
    final = (deviates ^ (final != 0.0)) & observable
    grudges = tuple(map(tuple, np.argwhere(final).tolist()))
    return {
        "rating_high_fraction": None,
        "punishment_fraction": None,
        "final_state": SimState(horizon, ratings=None, tft_grudges=grudges,
                                trigger_fired=False),
        "meta": {"mode": "tit-for-tat",
                 "deploying": [int(i) for i in np.flatnonzero(deploy)],
                 "mean_grudges_per_period": int(grudge_count) / horizon,
                 "mutual_links": int((sends & sends.T).sum()),
                 "design": {"T": design.T}},
    }


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
    A bool is neither."""
    if isinstance(seeds, (bool, np.bool_)):
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
    below zero; significance flags are one-sided z-tests at 95%."""
    seeds = _seed_list(seeds)
    n = tm.n
    _check_as_index(i, n)
    i = int(i)
    base = BehaviorProfile.compliant(n)
    dev = base.replace(i, Behavior("persistent-deviator"))
    gains = []
    comp_u = []
    dev_u = []
    for s in seeds:
        rc = simulate(design, base, env, mon, tm, horizon, s)
        rd = simulate(design, dev, env, mon, tm, horizon, s)
        comp_u.append(rc.discounted_utility[i])
        dev_u.append(rd.discounted_utility[i])
        gains.append(dev_u[-1] - comp_u[-1])
    arr = np.array(gains)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    se = std / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
    return DeviationGain(
        as_index=i,
        gains=tuple(gains),
        mean=mean,
        std=std,
        stderr=se,
        compliant_mean=float(np.mean(comp_u)),
        deviant_mean=float(np.mean(dev_u)),
        significantly_positive=mean - _Z95 * se > 0,
        significantly_negative=mean + _Z95 * se < 0,
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
        costs = []
        punish = []
        for s in seeds:
            rep = simulate(design, profile, env_b, mon, tm, horizon, s)
            costs.append(rep.avg_cost)
            if rep.punishment_fraction is not None:
                punish.append(rep.punishment_fraction)
        arr = np.array(costs)
        rows.append(ComparisonRow(
            beta=float(beta),
            kind=kind,
            avg_cost=float(arr.mean()),
            avg_cost_std=float(arr.std(ddof=1)) if len(arr) > 1 else 0.0,
            punishment_fraction=float(np.mean(punish)) if punish else None,
            seeds=len(seeds),
        ))
    return tuple(rows)
