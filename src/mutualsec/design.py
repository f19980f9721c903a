"""Rating-system design: incentive constraints and cost-optimal parameters.

The recommendation is that every AS in a deployment set P keeps a security
service running.  Compliance is monitored imperfectly: once per assessment
period of length T a public binary signal per AS is correct with
probability 1 - epsilon(T), and the AS's public rating is set to the last
signal.  Senders filter traffic toward a receiver at quality p1 (low
malware rate) when its rating is high and p0 when low; traffic from
non-deploying senders carries malware at the ambient rate p_high.

A design (T, p0, p1) is incentive compatible (IC) for AS i in P when

    (1 - 2*epsilon(T)) * exp(-beta*T) * (p0 - p1) * nu_i(P) >= c

with nu_i(P) the inbound rate of i from within P.  The binding member is
the one with minimal nu_i(P) (critical traffic nu_crit).  Among IC designs,
long-run cost is minimized by pushing p1 to p_low, choosing p0 at the IC
boundary, and picking T to minimize the efficiency loss factor

    g(T) = exp(beta*T) * epsilon(T) / (1 - 2*epsilon(T))

over the feasible periods, i.e. those where the boundary p0 stays within
[p_low, p_high].  With r(nu) = g(T*) * c / nu the loss rate and M the total
outbound rate, the long-run cost per unit time is

    J(P) = (p_low + r(nu_crit)) * sum(mu_i, i in P)
           + p_high * sum(mu_i, i not in P) + |P| * c
         = p_high * M - sum(w_i(nu_crit), i in P),

with w_i(nu) = (p_high - p_low - r(nu)) * mu_i - c the net benefit of
enlisting AS i.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .network import (
    Subset,
    TrafficMatrix,
    _as_subset,
    _inbound_vector,
    _member_index,
    critical_traffic,
    inbound_within,
)

__all__ = [
    "AssumptionCheck",
    "AssumptionReport",
    "DesignResult",
    "Environment",
    "MonitoringModel",
    "NotIncentiveCompatibleError",
    "PeriodInterval",
    "RatingDesign",
    "feasible_period_interval",
    "fds_sufficient",
    "first_best",
    "ic_check",
    "minimize_loss_factor",
    "optimal_design",
    "security_cost",
    "validate_assumptions",
]


class NotIncentiveCompatibleError(ValueError):
    """Raised when a cost evaluation is asked for a non-IC design."""

    def __init__(self, violators: tuple[int, ...]):
        self.violators = violators
        super().__init__(
            f"design is not incentive compatible for ASs {list(violators)}"
        )


@dataclass(frozen=True)
class Environment:
    """Economic primitives: malware rates without/with filtering, the
    per-period deployment cost rate c, and the discount rate beta."""

    p_high: float
    p_low: float
    c: float
    beta: float

    def __post_init__(self) -> None:
        if not 0 <= self.p_low <= 1:
            raise ValueError("p_low must lie in [0, 1]")
        if not 0 <= self.p_high <= 1:
            raise ValueError("p_high must lie in [0, 1]")
        if self.p_low >= self.p_high:
            raise ValueError("p_low must be strictly below p_high")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ValueError("c must be positive and finite")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be positive and finite")

    @property
    def gap(self) -> float:
        return self.p_high - self.p_low


class MonitoringModel:
    """Monitoring error curve epsilon(T).

    Two kinds: the rational family epsilon(T) = w0 / (T + 2*w0), and
    tabulated curves interpolated piecewise-linearly.  Validity (the curve
    is non-increasing, convex, starts at or below 1/2) is analytic for the
    rational family and checked for tables on the curve as held on [0, inf):
    endpoint values extend flat beyond the table, so a table starting after
    0 must not drop at its first step.  The held curve is kept as linear
    pieces (t_left, t_right, epsilon(t_left), slope) for the design kernel.
    """

    def __init__(self, kind: str, w0: float | None = None, table=None) -> None:
        self.kind = kind
        self.w0 = w0
        self._ts: np.ndarray | None = None
        self._eps: np.ndarray | None = None
        if kind == "rational":
            if w0 is None or not (math.isfinite(w0) and w0 > 0):
                raise ValueError("w0 must be positive and finite")
        elif kind == "tabulated":
            ts = np.array([t for t, _ in table], dtype=float)
            es = np.array([e for _, e in table], dtype=float)
            if len(ts) < 2:
                raise ValueError("tabulated curve needs at least 2 points")
            if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(es))):
                raise ValueError("tabulated periods and errors must be finite")
            if np.any(np.diff(ts) <= 0):
                raise ValueError("tabulated periods must be strictly increasing")
            if ts[0] < 0:
                raise ValueError("tabulated periods must be non-negative")
            if np.any(es < 0) or np.any(es > 0.5):
                raise ValueError("tabulated errors must lie in [0, 0.5]")
            if np.any(np.diff(es) > 1e-12):
                raise ValueError("tabulated errors must be non-increasing")
            self._ts, self._eps = ts, es
            # Plain-float copies for scalar lookups (see design._epsilon).
            self._ts_list, self._eps_list = ts.tolist(), es.tolist()
            held = list(zip(self._ts_list, self._eps_list))
            if held[0][0] > 0:
                held.insert(0, (0.0, held[0][1]))
            self._pieces = [(t0, t1, e0, (e1 - e0) / (t1 - t0))
                            for (t0, e0), (t1, e1) in zip(held, held[1:])]
            self._pieces.append((held[-1][0], math.inf, held[-1][1], 0.0))
            # Slope steps scaled to second differences on an even grid.
            for (t0, t1, _, s0), (_, t2, _, s1) in zip(self._pieces,
                                                       self._pieces[1:-1]):
                if (s1 - s0) * 2.0 / (1.0 / (t1 - t0) + 1.0 / (t2 - t1)) < -1e-9:
                    raise ValueError("tabulated errors must be convex from "
                                     "T=0, where the first value is held")
        else:
            raise ValueError(f"unknown monitoring kind: {kind!r}")

    @classmethod
    def rational(cls, w0: float) -> "MonitoringModel":
        return cls("rational", w0=w0)

    @classmethod
    def tabulated(cls, points: Sequence[tuple[float, float]]) -> "MonitoringModel":
        return cls("tabulated", table=points)

    def epsilon(self, T):
        if self.kind == "rational":
            return self.w0 / (np.asarray(T, dtype=float) + 2 * self.w0)
        return np.interp(np.asarray(T, dtype=float), self._ts, self._eps)

    def validity_report(self) -> tuple[bool, str]:
        if self.kind == "rational":
            return True, (
                f"rational family w0={self.w0}: decreasing and convex with "
                "epsilon(0)=1/2 analytically"
            )
        tail = float(self._eps[-1])
        return True, (
            f"tabulated curve checked on {len(self._ts)} points: non-increasing, "
            f"convex, epsilon(0)<=1/2; tail value {tail} (limit not verifiable "
            "from a finite table)"
        )

    def __repr__(self) -> str:
        if self.kind == "rational":
            return f"MonitoringModel.rational(w0={self.w0})"
        return f"MonitoringModel.tabulated({len(self._ts)} points)"


@dataclass(frozen=True)
class RatingDesign:
    """A concrete rating-system parameterization for a deployment set."""

    T: float
    p0: float
    p1: float
    subset: Subset

    def __post_init__(self) -> None:
        for name in ("T", "p0", "p1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.T <= 0:
            raise ValueError("T must be positive")
        if self.p1 > self.p0:
            raise ValueError("p1 must not exceed p0")


@dataclass(frozen=True)
class PeriodInterval:
    """Closed interval of feasible assessment periods; lo == 0.0 means the
    infimum is 0 and arbitrarily small periods are feasible."""

    lo: float
    hi: float


@dataclass(frozen=True)
class DesignResult:
    subset: Subset
    feasible: bool
    t_star: float | None
    p0_star: float | None
    p1_star: float | None
    g_star: float | None
    j_star: float | None
    binding_as: int | None
    diagnostic: str | None = None

    @classmethod
    def infeasible(cls, subset: Subset, diagnostic: str) -> "DesignResult":
        return cls(subset, False, None, None, None, None, None, None, diagnostic)

    @classmethod
    def no_deployment(cls, env: Environment, tm: TrafficMatrix) -> "DesignResult":
        j = _set_cost(env, tm, 0.0, 0.0, 0)
        return cls(Subset(()), True, None, None, None, None, j, None,
                   "no deployment")

    def design(self) -> RatingDesign:
        if not self.feasible or self.t_star is None:
            raise ValueError("no design parameters available")
        return RatingDesign(self.t_star, self.p0_star, self.p1_star, self.subset)


@dataclass(frozen=True)
class AssumptionCheck:
    """One validity check; `ases` lists the (0-based) ASs that fail it."""

    name: str
    passed: bool
    detail: str
    ases: tuple[int, ...] = ()


@dataclass(frozen=True)
class AssumptionReport:
    monitor: AssumptionCheck
    viability: AssumptionCheck
    social_gain: AssumptionCheck
    subset_note: str | None = None

    @property
    def checks(self) -> tuple[AssumptionCheck, ...]:
        return (self.monitor, self.viability, self.social_gain)

    @property
    def all_ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        d = {c.name: {"passed": c.passed, "detail": c.detail}
             for c in self.checks}
        if self.subset_note:
            d["subset_note"] = self.subset_note
        return d


# ---- numeric helpers ------------------------------------------------------


def _set_cost(env: Environment, tm: TrafficMatrix, coefficient, mu_in, size):
    """J = coefficient*mu_in + p_high*(M - mu_in) + size*c, elementwise for
    arrays; every set cost is priced here, on the stored total M."""
    return coefficient * mu_in + env.p_high * (tm._outbound_total - mu_in) \
        + size * env.c


def _loss_rate(env: Environment, mon: MonitoringModel,
               nu: float) -> float | None:
    """r(nu) = g*(nu)*c/nu, or None where no design is feasible."""
    found = minimize_loss_factor(env, mon, nu)
    return None if found is None else found[1] * env.c / nu


def _epsilon(mon: MonitoringModel, t: float) -> float:
    """epsilon(t) in plain floats, equal to float(mon.epsilon(t)): the same
    formula for the rational family, and np.interp's arithmetic for tables
    (endpoint values held outside the table)."""
    if mon.kind == "rational":
        return mon.w0 / (t + 2 * mon.w0)
    if t != t:
        return t
    ts, es = mon._ts_list, mon._eps_list
    j = bisect_right(ts, t) - 1
    if j < 0:
        return es[0]
    if j == len(ts) - 1 or ts[j] == t:
        return es[j]
    slope = (es[j + 1] - es[j]) / (ts[j + 1] - ts[j])
    return slope * (t - ts[j]) + es[j]


def _loss_at(env: Environment, mon: MonitoringModel, t: float) -> float:
    """g(t) in plain floats; inf where epsilon >= 1/2 or exp overflows."""
    eps = _epsilon(mon, t)
    denom = 1.0 - 2.0 * eps
    if denom <= 0.0:
        return math.inf
    try:
        return math.exp(env.beta * t) * eps / denom
    except OverflowError:
        return math.inf


def _newton(phi, dphi, t: float, direction: float) -> float:
    """Newton's method on a convex phi, started on the outer side of a root
    so that the iterates move monotonically toward it (rightward when
    direction > 0); stops at the first step that makes no progress."""
    for _ in range(100):
        slope = dphi(t)
        if slope == 0.0:
            break
        t_new = t - phi(t) / slope
        if (t_new - t) * direction <= 0.0:
            break
        t = t_new
    return t


def _tighten(fits, t: float, t_in: float) -> float:
    """Move an edge estimate t toward t_in, where fits holds, until fits(t):
    ulp steps cover rounding, bisection the near-tangent cases where the
    float edge sits further from the root."""
    for _ in range(16):
        if fits(t):
            return t
        t = math.nextafter(t, t_in)
    for _ in range(64):
        mid = (t + t_in) / 2.0
        if fits(mid):
            t_in = mid
        else:
            t = mid
    return t_in


# ---- operations -----------------------------------------------------------


def feasible_period_interval(
    env: Environment, mon: MonitoringModel, nu_crit: float
) -> PeriodInterval | None:
    """Assessment periods admitting an IC design with prices in
    [p_low, p_high] for critical traffic nu_crit; None when empty.

    These are the periods whose headroom h(T) = exp(beta*T) / (1 -
    2*epsilon(T)) is at most bound = (p_high - p_low) * nu_crit / c, and
    both returned edges pass that test.  Only T <= log(bound)/beta can pass.

    Rational monitors: h(T) = exp(beta*T) * (1 + 2*w0/T), so
    phi(T) = log(h(T)/bound) = beta*T + log1p(2*w0/T) - log(bound) is
    convex with its minimum at T_m = (2*w0/beta) / (w0 + sqrt(w0**2 +
    2*w0/beta)).  The set is empty when phi(T_m) > 0.  Otherwise Newton's
    method on phi finds the low edge from 2*w0/(bound - 1), which lies left
    of it, and the high edge from log(bound)/beta, which lies right of it;
    each edge is then stepped inward until h(edge) <= bound.

    Tabulated monitors: epsilon is convex from T=0, so log h is convex.
    On a piece epsilon(T) = e + s*(T - t0) its minimum is where 1 - 2*epsilon
    = -2*s/beta, clamped to the piece; T_m is the best of these.  Each edge
    is Newton's method on psi(T) = beta*T - log1p(-2*epsilon(T)) -
    log(bound) along the piece that brackets it, from the piece's outer end
    (for the low edge no lower than where 1 - 2*epsilon = 1/bound), stepped
    inward as above.  lo is 0.0 when h(T) fits as T -> 0, and hi is
    log(bound)/beta when h fits there."""
    if nu_crit <= 0:
        return None
    bound = env.gap * nu_crit / env.c
    if bound <= 1.0:
        return None
    beta = env.beta
    log_bound = math.log(bound)
    t_cap = log_bound / beta
    if mon.kind == "rational":
        w0 = mon.w0
        phi = lambda t: beta * t + math.log1p(2.0 * w0 / t) - log_bound
        dphi = lambda t: beta - 2.0 * w0 / (t * (t + 2.0 * w0))
        fits = lambda t: math.exp(beta * t) * (1.0 + 2.0 * w0 / t) <= bound
        t_m = (2.0 * w0 / beta) / (w0 + math.sqrt(w0 * w0 + 2.0 * w0 / beta))
        if phi(t_m) > 0.0 or not fits(t_m):
            return None
        lo = min(_newton(phi, dphi, 2.0 * w0 / (bound - 1.0), 1.0), t_m)
        hi = max(_newton(phi, dphi, t_cap, -1.0), t_m)
        return PeriodInterval(_tighten(fits, lo, t_m), _tighten(fits, hi, t_m))

    def h(t: float) -> float:
        denom = 1.0 - 2.0 * _epsilon(mon, t)
        return math.exp(beta * t) / denom if denom > 0.0 else math.inf

    fits = lambda t: h(t) <= bound

    def edge(piece, direction: float) -> float:
        t0, t1, e0, s = piece
        eps = lambda t: e0 + s * (t - t0)
        psi = lambda t: beta * t - math.log1p(-2.0 * eps(t)) - log_bound
        dpsi = lambda t: beta + 2.0 * s / (1.0 - 2.0 * eps(t))
        if direction < 0.0:
            t = min(t1, t_cap)
        else:
            t = min(t0 if s >= 0.0 else
                    max(t0 + (0.5 - 0.5 / bound - e0) / s, t0), t_m)
        return _tighten(fits, _newton(psi, dpsi, t, direction), t_m)

    pieces = [p for p in mon._pieces if p[0] < t_cap]
    t_m = min((t0 if s >= 0.0 else
               min(max(t0 + (0.5 + s / beta - e0) / s, t0), t1, t_cap)
               for t0, t1, e0, s in pieces), key=h)
    if not fits(t_m):
        return None
    lo = 0.0 if fits(t_cap * 1e-15) else edge(
        next(p for p in pieces if fits(min(p[1], t_m))), 1.0)
    hi = t_cap if fits(t_cap) else edge(
        next(p for p in pieces if p[1] >= t_cap or not fits(max(p[1], t_m))),
        -1.0)
    return PeriodInterval(lo, hi)


def minimize_loss_factor(
    env: Environment, mon: MonitoringModel, nu_crit: float
) -> tuple[float, float] | None:
    """(T*, g*) minimizing the loss factor over feasible periods, or None.

    Rational monitors: g(T) = w0 * exp(beta*T) / T is log-convex with its
    minimum at 1/beta, so T* = min(max(1/beta, lo), hi) on the feasible
    interval [lo, hi] and g* = w0 * exp(beta*T*) / T*.

    Tabulated monitors: on a piece of slope s, d log g / dT = beta + s /
    (epsilon * (1 - 2*epsilon)) vanishes where epsilon = (1 +- sqrt(1 +
    8*s/beta)) / 4.  So T* is the best of the interval ends (the low end
    at least hi * 1e-12), the breakpoints inside and those stationary
    points, ties going to the smaller T."""
    interval = feasible_period_interval(env, mon, nu_crit)
    if interval is None:
        return None
    if mon.kind == "rational":
        t_star = min(max(1.0 / env.beta, interval.lo), interval.hi)
        return t_star, mon.w0 * math.exp(env.beta * t_star) / t_star
    lo, hi = max(interval.lo, interval.hi * 1e-12), interval.hi
    candidates = [lo, hi]
    for t0, t1, e0, s in mon._pieces:
        if t0 >= hi:
            break
        if t0 > lo:
            candidates.append(t0)
        disc = 1.0 + 8.0 * s / env.beta
        if s < 0.0 and disc >= 0.0:
            for sign in (-1.0, 1.0):
                t = t0 + ((1.0 + sign * math.sqrt(disc)) / 4.0 - e0) / s
                if max(lo, t0) < t < min(hi, t1):
                    candidates.append(t)
    g_star, t_star = min((_loss_at(env, mon, t), t) for t in candidates)
    return t_star, g_star


def ic_check(design: RatingDesign, env: Environment, mon: MonitoringModel,
             tm: TrafficMatrix, i: int) -> bool:
    """One-shot deviation test for AS i.  ASs outside the deployment set
    have nothing to deviate from and are trivially IC."""
    if not 0 <= i < tm.n:
        raise ValueError(f"AS index {i} out of range")
    if i not in design.subset:
        return True
    nu_i = inbound_within(tm, design.subset, i)
    eps = _epsilon(mon, design.T)
    lhs = (1.0 - 2.0 * eps) * math.exp(-env.beta * design.T) * (
        design.p0 - design.p1
    ) * nu_i
    return lhs >= env.c * (1.0 - 1e-9)


def optimal_design(env: Environment, mon: MonitoringModel, tm: TrafficMatrix,
                   subset=None) -> DesignResult:
    """Cost-minimizing IC design for the given deployment set (default all).

    Feasible results bind the IC constraint at the critical member:
    p1* = p_low and p0* sits exactly at the one-shot-deviation boundary."""
    p = Subset.full(tm.n) if subset is None else _as_subset(tm, subset)
    size = len(p.members)
    if size == 0:
        raise ValueError("optimal_design needs a nonempty deployment set")
    idx = _member_index(tm, p)
    inbound = _inbound_vector(tm, idx)
    k = int(inbound.argmin())
    nu_crit = float(inbound[k])
    if nu_crit <= 0:
        return DesignResult.infeasible(
            p,
            "zero critical traffic: some member receives no traffic from "
            "within the deployment set, so no rating design can deter it",
        )
    found = minimize_loss_factor(env, mon, nu_crit)
    if found is None:
        return DesignResult.infeasible(
            p,
            "no assessment period admits prices within [p_low, p_high] that "
            "satisfy the one-shot deviation constraint at this critical traffic",
        )
    t_star, g_star = found
    eps = _epsilon(mon, t_star)
    p0 = math.exp(env.beta * t_star) * env.c / ((1.0 - 2.0 * eps) * nu_crit) + env.p_low
    p0 = min(p0, env.p_high)
    # The full set's outbound total is the stored sum of the same array.
    mu_in = tm._outbound_total if idx is None else float(tm.outbound[idx].sum())
    j = _set_cost(env, tm, env.p_low + g_star * env.c / nu_crit, mu_in, size)
    return DesignResult(p, True, t_star, p0, env.p_low, g_star, j, p.members[k])


def security_cost(design: RatingDesign, env: Environment, mon: MonitoringModel,
                  tm: TrafficMatrix) -> float:
    """Long-run expected cost per unit time of compliant play under the
    design.  Rejects designs that are not IC for some member."""
    if not (env.p_low <= design.p1 <= design.p0 <= env.p_high):
        raise ValueError("design prices must satisfy p_low <= p1 <= p0 <= p_high")
    violators = tuple(
        i for i in design.subset if not ic_check(design, env, mon, tm, i)
    )
    if violators:
        raise NotIncentiveCompatibleError(violators)
    eps = _epsilon(mon, design.T)
    idx = np.fromiter(design.subset.members, dtype=np.intp)
    mu_in = float(tm.outbound[idx].sum())
    mix = (1.0 - eps) * design.p1 + eps * design.p0
    return _set_cost(env, tm, mix, mu_in, len(design.subset))


def first_best(env: Environment, tm: TrafficMatrix) -> float:
    """Cost with perfect enforcement and no monitoring loss: everyone
    deploys and fully filters."""
    return _set_cost(env, tm, env.p_low, tm._outbound_total, tm.n)


def fds_sufficient(env: Environment, mon: MonitoringModel,
                   tm: TrafficMatrix) -> bool:
    """Sufficient condition for full deployment to be an optimal
    recommendation: r(nu_full) * M <= (p_high - p_low) * min_i mu_i - c.

    Proof: J(full) = (p_low + r) * M + n*c, and a proper subset Q costs at
    least p_low * mu_Q + p_high * (M - mu_Q) + |Q| * c (its loss rate is
    non-negative), so J(full) - J(Q) <= r * M - sum_{i not in Q}
    ((p_high - p_low) * mu_i - c) <= 0: some AS lies outside Q, and each
    term is at least r * M >= 0."""
    r = _loss_rate(env, mon, float(tm.inbound.min()))
    return r is not None and \
        r * tm._outbound_total <= env.gap * float(tm.outbound.min()) - env.c


def validate_assumptions(env: Environment, mon: MonitoringModel,
                         tm: TrafficMatrix, subset=None) -> AssumptionReport:
    """Check the model-validity conditions the optimality results rely on.

    monitor: the error curve is a valid (decreasing, convex, epsilon(0) <=
    1/2) monitoring model.  viability: for every AS the deployment cost is
    below the achievable benefit, c < (p_high - p_low) * max(nu_i, mu_i).
    social_gain: every AS's net benefit at the full set's loss rate r,
    w_i = (p_high - p_low - r) * mu_i - c, is non-negative (an AS that
    sends nothing has w_i = -c); with no full-set design it fails naming
    no AS.  A failed check lists the ASs that fail it in `ases`.
    """
    ok_mon, detail_mon = mon.validity_report()
    monitor = AssumptionCheck("monitor", ok_mon, detail_mon)

    inbound, outbound = tm.inbound, tm.outbound
    failing = tuple(np.flatnonzero(
        env.c >= env.gap * np.maximum(inbound, outbound)).tolist())
    viability = AssumptionCheck(
        "viability",
        not failing,
        "c below (p_high - p_low) * max(inbound, outbound) for every AS"
        if not failing
        else f"cost covers no achievable benefit for {len(failing)} of "
             f"{tm.n} ASs",
        failing,
    )

    r = _loss_rate(env, mon, float(inbound.min()))
    if r is None:
        social = AssumptionCheck(
            "social_gain", False,
            "no IC design exists for the full set, loss factor undefined",
        )
    else:
        benefit = (env.gap - r) * outbound - env.c
        failing = tuple(np.flatnonzero(benefit < 0).tolist())
        social = AssumptionCheck(
            "social_gain", not failing,
            f"full-set loss rate {r:.6g}; least per-AS net benefit "
            f"{benefit.min():.6g}", failing)

    note = None
    if subset is not None:
        p = _as_subset(tm, subset)
        if len(p) > 0:
            nu_p = critical_traffic(tm, p)
            note = f"subset critical traffic {nu_p:.6g}"
    return AssumptionReport(monitor, viability, social, note)
