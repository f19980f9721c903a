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
time-series columns, which hold one value per period when requested.  The
blocks' draws continue one random stream, so a seed gives the same path as
a single whole-horizon draw; only the summation order of the float totals
depends on the blocking.  Compared with the earlier whole-horizon
simulator, those totals agree to about 1e-12 relative.

Two shortcuts keep the blocks cheap without changing a result.  The
discounted sums stop at the first block whose last weight delta ** t is
exactly 0.0 (about 745 / (beta*T) periods in): every later period adds
exactly 0.0.  And under steady actions an AS's cost in a rating period is
one of two values, rated high or rated low, so the rating path computes
those two cost rows once per run and picks between them by the ratings;
only periods with one-shot deviations are costed by the general formula.
"""

from __future__ import annotations

import json
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .design import (
    Environment,
    MonitoringModel,
    RatingDesign,
    ic_check,
    minimize_loss_factor,
    optimal_design,
)
from .network import Subset, TrafficMatrix, critical_members, critical_traffic

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
            if (isinstance(at, bool) or not isinstance(at, (int, np.integer))
                    or at < 0):
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


def _blocks(horizon: int, width: int):
    """(start, stop) period ranges covering [0, horizon), each at least one
    period long and at most _BLOCK_ELEMENTS // width periods long."""
    step = max(1, _BLOCK_ELEMENTS // width)
    for start in range(0, horizon, step):
        yield start, min(start + step, horizon)


class _Ledger:
    """Running totals of per-period cost rows (per-AS cost and discounted
    cost), high-rating counts and, when requested, the time-series columns,
    filled in place.

    Column sums are products with a vector of ones (one BLAS call, where
    an axis-0 reduction of a tall, narrow block is a slow strided loop).
    Discount weights are non-increasing in the period, so once a block's
    last weight delta ** t is exactly 0.0 every later period adds exactly
    0.0 to the discounted cost, and neither its weights nor its product
    are computed.  Weights that are merely subnormal are still used."""

    def __init__(self, n: int, horizon: int, T: float, delta: float,
                 want_ts: bool) -> None:
        self.T = T
        self.delta = delta
        self.cost = np.zeros(n)
        self.discounted = np.zeros(n)
        self.high = np.zeros(n)
        self.weighted = True  # some weight from here on may be nonzero
        self.ts = None
        if want_ts:
            self.ts = {
                "period": np.arange(horizon),
                "total_cost": np.empty(horizon),
                "trigger_fired": np.zeros(horizon, dtype=bool),
                "mean_rating": np.full(horizon, np.nan),
            }

    def add(self, start: int, cost: np.ndarray,
            ratings: np.ndarray | None = None) -> None:
        """Book the cost rows (and, for rating runs, the rating rows) of
        periods start, start + 1, ..."""
        stop = start + len(cost)
        ones = np.ones(len(cost))
        self.cost += ones @ cost
        if self.weighted:
            weights = self.delta ** np.arange(start, stop, dtype=float)
            self.discounted += weights @ cost
            self.weighted = weights[-1] != 0.0
        if ratings is not None:
            self.high += ones @ ratings
        if self.ts is not None:
            self.ts["total_cost"][start:stop] = cost.sum(axis=1) / self.T
            if ratings is not None:
                self.ts["mean_rating"][start:stop] = ratings.mean(axis=1)


def simulate(design: RatingDesign, profile: BehaviorProfile, env: Environment,
             mon: MonitoringModel, tm: TrafficMatrix, horizon: int, seed: int,
             *, time_series: bool = False) -> SimReport:
    """Run one seeded path and report per-unit-time costs, discounted
    utilities, and scheme-specific state summaries.  Identical arguments
    and seed reproduce the report bit for bit."""
    n = tm.n
    _check_profile(profile, n)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    eps = float(mon.epsilon(design.T))
    if not 0 <= eps <= 0.5:
        raise ValueError("monitoring error must lie in [0, 1/2]")
    T = design.T
    rng = np.random.default_rng(seed)
    ledger = _Ledger(n, horizon, T, math.exp(-env.beta * T), time_series)
    kinds = set(profile.kinds())
    if kinds == {"tit-for-tat"}:
        # Skip the (horizon, n) signal draws the other paths make first, so
        # a seed gives the same observations as when they were drawn.
        rng.bit_generator.advance(horizon * n)
        extra, meta = _simulate_tft(design, env, tm, horizon, eps, rng,
                                    ledger)
    elif kinds == {"grim-trigger"}:
        extra, meta = _simulate_trigger(design, env, tm, horizon, eps, rng,
                                        ledger)
    else:
        extra, meta = _simulate_rating(design, profile, env, tm, horizon,
                                       eps, rng, ledger)
    per_as = ledger.cost / (horizon * T)
    return SimReport(
        horizon=horizon,
        period_length=T,
        seed=seed,
        avg_cost=float(per_as.sum()),
        avg_cost_per_as=tuple(float(x) for x in per_as),
        discounted_utility=tuple(float(-x) for x in ledger.discounted),
        rating_high_fraction=extra.get("rating_high_fraction"),
        punishment_fraction=extra.get("punishment_fraction"),
        final_state=extra["final_state"],
        time_series=ledger.ts,
        meta=meta,
    )


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
    shot_periods = sorted(flips)
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
    steady_compliant = steady == rec
    last_signal = np.ones(n, dtype=bool)  # ratings start high
    for start, stop in _blocks(horizon, n):
        signal_high = ((rng.random((stop - start, n)) < 1.0 - eps)
                       == steady_compliant)
        shots = shot_periods[bisect_left(shot_periods, start):
                             bisect_left(shot_periods, stop)]
        if shots:
            # A one-shot deviation flips its ASs' actions, hence their
            # signals; only these periods' costs leave the two rows.
            rows = np.array(shots) - start
            flip = np.array([flips[t] for t in shots])
            signal_high[rows] ^= flip
        ratings = np.concatenate((last_signal[None], signal_high[:-1]))
        last_signal = signal_high[-1]
        cost = np.where(ratings, hi, lo)
        if shots:
            cost[rows] = cost_rows(steady ^ flip, ratings[rows])
        ledger.add(start, cost, ratings)
    state = SimState(
        period=horizon,
        ratings=tuple(int(r) for r in ratings[-1]),
        tft_grudges=None,
        trigger_fired=False,
    )
    extra = {
        "rating_high_fraction": tuple(float(x) for x in ledger.high / horizon),
        "final_state": state,
    }
    meta = {"mode": "rating", "profile": list(profile.kinds()),
            "design": {"T": design.T, "p0": design.p0, "p1": design.p1,
                       "subset": list(design.subset.members)}}
    return extra, meta


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
    first_bad = horizon  # first period with a "deviate" signal, if any
    for start, stop in _blocks(horizon, n):
        if first_bad == horizon:
            # Everyone complies until it fires; after that nothing is drawn.
            bad = ~(rng.random((stop - start, n)) < 1.0 - eps).all(axis=1)
            if bad.any():
                first_bad = start + int(np.argmax(bad))
        fired = np.arange(start, stop) > first_bad
        ledger.add(start, np.where(fired[:, None], post_cost, pre_cost))
        if ledger.ts is not None:
            ledger.ts["trigger_fired"][start:stop] = fired
    state = SimState(period=horizon, ratings=None, tft_grudges=None,
                     trigger_fired=first_bad < horizon)
    extra = {
        "punishment_fraction": max(0, horizon - 1 - first_bad) / horizon,
        "final_state": state,
    }
    meta = {"mode": "trigger", "first_bad_period": first_bad,
            "design": {"T": design.T, "subset": list(design.subset.members)}}
    return extra, meta


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
    observable = sends.T  # [j, i]: j sees i's action via i -> j traffic
    nu_mutual = (rates * sends.T).sum(axis=0)
    deploy = math.exp(-env.beta * design.T) * env.gap * nu_mutual > env.c
    deviates = ~deploy  # static actions
    grudge_count = 0
    last_obs = np.zeros((n, n), dtype=bool)  # no grudges in the first period
    for start, stop in _blocks(horizon, n * n):
        u_obs = rng.random((stop - start, n, n))  # [t, j, i]
        obs_deviate = ((deviates[None, None, :] ^ (u_obs < eps))
                       & observable[None, :, :])
        grudges = np.concatenate((last_obs[None], obs_deviate[:-1]))
        last_obs = obs_deviate[-1]
        quality = np.where(
            (~deploy[None, :, None]) | grudges, env.p_high, env.p_low
        )
        ledger.add(start, (np.einsum("tji,ji->ti", quality, rates)
                           + deploy * env.c) * design.T)
        grudge_count += np.count_nonzero(grudges)
    final_grudges = tuple(
        (int(j), int(i)) for j, i in zip(*np.nonzero(grudges[-1]))
    )
    state = SimState(period=horizon, ratings=None,
                     tft_grudges=final_grudges, trigger_fired=False)
    meta = {
        "mode": "tit-for-tat",
        "deploying": [int(i) for i in np.flatnonzero(deploy)],
        "mean_grudges_per_period": grudge_count / horizon,
        "mutual_links": int((sends & sends.T).sum()),
        "design": {"T": design.T},
    }
    return {"final_state": state}, meta


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
    """A count n (seeds 0..n-1) or an iterable of seeds, as a nonempty list."""
    seeds = list(range(seeds) if isinstance(seeds, int) else seeds)
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
    if not 0 <= i < n:
        raise ValueError(f"AS index {i} out of range")
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
    if se > 0:
        pos = mean - _Z95 * se > 0
        neg = mean + _Z95 * se < 0
    else:
        pos = mean > 0
        neg = mean < 0
    return DeviationGain(
        as_index=i,
        gains=tuple(gains),
        mean=mean,
        std=std,
        stderr=se,
        compliant_mean=float(np.mean(comp_u)),
        deviant_mean=float(np.mean(dev_u)),
        significantly_positive=pos,
        significantly_negative=neg,
    )


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
    empty = Subset(())
    never = BehaviorProfile.never_deploy(n)
    compliant = BehaviorProfile.compliant(n)

    if kind == "no-otc":
        design = RatingDesign(1.0, env.p_high, env.p_high, empty)
        profile = never
        note = "no service anywhere"
    elif kind == "rating-independent":
        design = RatingDesign(1.0, env.p_low, env.p_low, full)
        profile = never
        note = "prices ignore ratings; deploying is dominated"
    elif kind == "worst-best":
        found = minimize_loss_factor(env, mon, critical_traffic(tm, full))
        if found is None:
            design = RatingDesign(1.0, env.p_high, env.p_high, empty)
            profile = never
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
        binding = critical_members(tm, full)[0]
        if ic_check(design, env, mon, tm, binding):
            profile = compliant
            note = "fixed design is IC; compliant play"
        else:
            design = RatingDesign(t, p0, p1, empty)
            profile = never
            note = "fixed design is not IC; nobody deploys"
    elif kind == "optimal":
        result = optimal_design(env, mon, tm, full)
        if result.feasible:
            design = result.design()
            profile = compliant
            note = "cost-minimizing IC design"
        else:
            design = RatingDesign(1.0, env.p_high, env.p_high, empty)
            profile = never
            note = "no IC design exists; nobody deploys"
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
    full = Subset.full(n)
    rows = []
    for beta in beta_grid:
        env_b = replace(env, beta=float(beta))
        # The design and profile do not depend on the seed.
        if kind != "rating":
            design = RatingDesign(T, env.p_high, env.p_low, full)
            behavior = "tit-for-tat" if kind == "tft" else "grim-trigger"
            profile = BehaviorProfile.uniform(n, behavior)
        elif (result := optimal_design(env_b, mon, tm, full)).feasible:
            design = result.design()
            profile = BehaviorProfile.compliant(n)
        else:
            # the no-otc benchmark: nobody deploys
            design = RatingDesign(1.0, env.p_high, env.p_high, Subset(()))
            profile = BehaviorProfile.never_deploy(n)
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
