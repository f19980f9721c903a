"""Rating-system design: incentive constraints and cost-optimal parameters.

The recommendation is that every AS in a deployment set P keeps a security
service running.  Compliance is monitored imperfectly: once per assessment
period of length T a public binary signal per AS is correct with
probability 1 - epsilon(T), and the AS's public rating is set to the last
signal.  Senders filter traffic toward a receiver at quality p1 (low
malware rate) when its rating is high and p0 when low; traffic from
non-deploying senders carries malware at the ambient rate p_high.

A design (T, p0, p1) is incentive compatible (IC) for AS i in P when

    (p0 - p1) * nu_i(P) >= c * h(T),   h(T) = exp(beta*T) / (1 - 2*epsilon(T)),

with nu_i(P) the inbound rate of i from within P and h the headroom, inf
where epsilon(T) >= 1/2.  The binding member is
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
import sys
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .network import (
    Subset,
    TrafficMatrix,
    _as_subset,
    _inbound_vector,
    _is_integer,
    _member_index,
    _outbound_within,
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
    pieces (t_left, t_right, epsilon(t_left), slope) for the design kernel,
    with their starts for the lookup in design._epsilon.
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
            held = list(zip(ts.tolist(), es.tolist()))
            if held[0][0] > 0:
                held.insert(0, (0.0, held[0][1]))
            self._pieces = [(t0, t1, e0, (e1 - e0) / (t1 - t0))
                            for (t0, e0), (t1, e1) in zip(held, held[1:])]
            if not all(math.isfinite(p[3]) for p in self._pieces):
                raise ValueError("tabulated periods are too close together "
                                 "for a finite slope")
            self._pieces.append((held[-1][0], math.inf, held[-1][1], 0.0))
            self._starts = [p[0] for p in self._pieces]
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


# ---- numeric helpers ------------------------------------------------------


def _set_cost(env: Environment, tm: TrafficMatrix, coefficient, mu_in, size):
    """J = coefficient*mu_in + p_high*(M - mu_in) + size*c, elementwise for
    arrays; every set cost is priced here, on the stored total M."""
    return coefficient * mu_in + env.p_high * (tm._outbound_total - mu_in) \
        + size * env.c


def _check_prices(design: RatingDesign, env: Environment) -> None:
    if not (env.p_low <= design.p1 <= design.p0 <= env.p_high):
        raise ValueError("design prices must satisfy p_low <= p1 <= p0 <= p_high")


def _loss_rate(env: Environment, mon: MonitoringModel,
               nu: float) -> float | None:
    """r(nu) = g*(nu)*c/nu, or None where no design is feasible."""
    found = minimize_loss_factor(env, mon, nu)
    return None if found is None else found[1] * env.c / nu


def _loss_rates(env: Environment, mon: MonitoringModel,
                nus: np.ndarray) -> np.ndarray:
    """_loss_rate of each entry of the float array nus, to the bit; NaN
    where it is None and where nu is not finite.  Each distinct value is
    priced once: those where _closed_form applies as one array, in the
    float operations _loss_rate performs on minimize_loss_factor's
    closed-form return, and every other finite one by _loss_rate."""
    values, inverse = np.unique(nus, return_inverse=True)
    rates = np.full(len(values), np.nan)
    rest = np.isfinite(values)
    closed = _closed_form(env, mon)
    if closed is not None:
        fast = rest & (env.gap * values / env.c >= closed[2])
        rates[fast] = closed[1] * env.c / values[fast]
        rest &= ~fast
    for k in np.flatnonzero(rest).tolist():
        r = _loss_rate(env, mon, float(values[k]))
        if r is not None:
            rates[k] = r
    return rates[inverse]


def _epsilon(mon: MonitoringModel, t: float) -> float:
    """epsilon(t) in plain floats, equal to float(mon.epsilon(t)): the same
    formula for the rational family; for tables, s*(t - t0) + e0 on the
    stored piece whose start t0 is the last at or below t.  That is
    np.interp's operation on the same operands: its slope is the piece's
    (e1 - e0) / (t1 - t0), it returns e0 at t == t0, and the pieces held
    flat (below a table that starts after 0 and beyond its end) have slope
    0.  Negative t reads the first value, and NaN is returned as is."""
    if mon.kind == "rational":
        return mon.w0 / (t + 2 * mon.w0)
    if t != t:
        return t
    pieces = mon._pieces
    j = bisect_right(mon._starts, t) - 1
    if j < 0:
        return pieces[0][2]
    t0, _, e0, s = pieces[j]
    if s == 0.0:  # s*(t - t0) would be NaN at t = inf, on the last piece
        return e0
    return s * (t - t0) + e0


def _on_piece(pieces, k: int, t: float) -> float:
    """epsilon(t) for a finite t on piece k (t0 <= t <= t1) of a table:
    the float _epsilon returns, without its lookup.  At t == t1 the lookup
    finds the next piece, whose first value is read."""
    t0, t1, e0, s = pieces[k]
    if t == t1:
        return pieces[k + 1][2]
    return e0 if s == 0.0 else s * (t - t0) + e0


def _headroom(env: Environment, mon: MonitoringModel, t: float,
              eps: float | None = None) -> float:
    """h(t) = exp(beta*t) / (1 - 2*epsilon(t)) in plain floats, as
    exp(beta*t) * (1 + 2*w0/t) for the rational family; inf where
    epsilon >= 1/2 or exp overflows.  A table's eps = epsilon(t) may be
    passed in when already read."""
    try:
        rise = math.exp(env.beta * t)
    except OverflowError:
        return math.inf
    if mon.kind == "rational":
        return rise * (1.0 + 2.0 * mon.w0 / t)
    denom = 1.0 - 2.0 * (_epsilon(mon, t) if eps is None else eps)
    return rise / denom if denom > 0.0 else math.inf


def _deters(env: Environment, h: float, spread: float, nu: float) -> bool:
    """The one-shot deviation constraint spread * nu >= c * h, for headroom
    h, price spread p0 - p1 and inbound rate nu, with 1e-9 relative slack."""
    return spread * nu >= env.c * h * (1.0 - 1e-9)


def _loss_at(env: Environment, mon: MonitoringModel, t: float,
             eps: float | None = None) -> float:
    """g(t) in plain floats; inf where epsilon >= 1/2 or exp overflows.
    eps = epsilon(t) may be passed in when already read."""
    if eps is None:
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
    direction > 0); stops at the first step that makes no progress.  At
    an iterate where phi or dphi cannot be evaluated (a table's 1 - 2*eps
    rounding to 0 or below there) it returns the iterate before, found by
    replaying the steps, so that the loop itself keeps no history."""
    start = t
    try:
        for _ in range(100):
            slope = dphi(t)
            if slope == 0.0:
                break
            t_new = t - phi(t) / slope
            if (t_new - t) * direction <= 0.0:
                break
            t = t_new
        return t
    except (ValueError, ZeroDivisionError):
        stop = t
    last = t = start
    while t != stop:
        last, t = t, t - phi(t) / dphi(t)
    return last


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


def _rational_t_m(w0: float, beta: float) -> float:
    """The rational headroom's minimizer (2*w0/beta) / (w0 + sqrt(w0**2 +
    2*w0/beta)) in this direct form, 0 or NaN where a term leaves the
    float range.  _edges and _closed_form must read the same float."""
    return (2.0 * w0 / beta) / (w0 + math.sqrt(w0 * w0 + 2.0 * w0 / beta))


def _edges(env: Environment, mon: MonitoringModel, nu_crit: float):
    """None when no period is feasible at nu_crit, else (t_m, edge), where
    t_m is the headroom's minimizer and edge(1.0) and edge(-1.0) find the
    feasible interval's low and high edges, as feasible_period_interval
    describes.  A bound beyond the float range is held at its largest float,
    where the edges no longer move."""
    bound = env.gap * nu_crit / env.c
    if bound > sys.float_info.max:
        bound = sys.float_info.max
    if bound <= 1.0:
        return None
    beta = env.beta
    log_bound = math.log(bound)
    t_cap = log_bound / beta
    fits = lambda t: _headroom(env, mon, t) <= bound
    if mon.kind == "rational":
        w0 = mon.w0
        t_cap = min(t_cap, sys.float_info.max)  # the high edge's start
        t_m = _rational_t_m(w0, beta)
        if not 0.0 < t_m < math.inf:  # 2*w0/beta or w0**2 left the range
            # 2 / (beta + sqrt(beta**2 + 2*beta/w0)) with no term out of range
            q = math.sqrt(2.0) * math.sqrt(beta) / math.sqrt(w0)
            root = math.hypot(beta, q)
            t_m = min(1.0 / (0.5 * beta + 0.5 * root), sys.float_info.max)
            if t_m == 0.0:  # q overflowed: the same, beta and q scaled by s
                s = 2.0 ** -600
                q = math.sqrt(2.0) * (math.sqrt(beta) * s) / math.sqrt(w0)
                t_m = s / (0.5 * (beta * s) + 0.5 * math.hypot(beta * s, q))
        if beta * t_m + math.log1p(2.0 * w0 / t_m) > log_bound:
            return None
        h_m = _headroom(env, mon, t_m)
    else:
        # Each piece's candidate lies on the piece, so the candidates
        # ascend and ties on h go to the smallest; t_m lies on piece k_m.
        pieces = mon._pieces
        h_m = math.inf
        for k, (t0, t1, e0, s) in enumerate(pieces):
            if t0 >= t_cap:
                break
            t = t0 if s >= 0.0 else \
                min(max(t0 + (0.5 + s / beta - e0) / s, t0), t1, t_cap)
            h = _headroom(env, mon, t, _on_piece(pieces, k, t))
            if h < h_m:
                h_m, t_m, k_m = h, t, k
        # whether h at piece k's right end t1 < t_cap is within the bound
        fits_end = lambda k: _headroom(env, mon, pieces[k][1],
                                       pieces[k + 1][2]) <= bound
    if h_m > bound:
        return None

    def edge(direction: float) -> float:
        low = direction > 0.0
        if mon.kind == "rational":
            phi = lambda t: beta * t + math.log1p(2.0 * w0 / t) - log_bound
            dphi = lambda t: beta - 2.0 * w0 / (t * (t + 2.0 * w0))
            t = 2.0 * w0 / (bound - 1.0) if low else t_cap
        elif fits(t_cap * 1e-15 if low else t_cap):
            return 0.0 if low else t_cap
        else:
            # The edge's piece: the first whose right end fits (low), or
            # from t_m's piece on, the first whose right end does not or
            # reaches t_cap (high).  Pieces before k_m end at or before
            # t_m, and h(t_m) fits.
            if low:
                k = 0
                while k < k_m and not fits_end(k):
                    k += 1
                t0, t1, e0, s = pieces[k]
                t = min(t0 if s >= 0.0 else
                        max(t0 + (0.5 - 0.5 / bound - e0) / s, t0), t_m)
            else:
                k = k_m
                while pieces[k][1] < t_cap and fits_end(k):
                    k += 1
                t0, t1, e0, s = pieces[k]
                t = min(t1, t_cap)
            phi = lambda t: (beta * t - math.log1p(-2.0 * (e0 + s * (t - t0)))
                             - log_bound)
            dphi = lambda t: beta + 2.0 * s / (1.0 - 2.0 * (e0 + s * (t - t0)))
        t = _newton(phi, dphi, t, direction)
        return _tighten(fits, min(t, t_m) if low else max(t, t_m), t_m)

    return t_m, edge


def _closed_form(env: Environment, mon: MonitoringModel):
    """(1/beta, g(1/beta), threshold) for a rational monitor, or None:
    minimize_loss_factor returns (1/beta, g(1/beta)) wherever the bound
    (p_high - p_low) * nu_crit / c is at least threshold, h(1/beta) raised
    by a relative 2**-30.  None for tables, where _edges' T_m formula does
    not give 0 < T_m <= 1/beta, and where 1/beta or the threshold is
    infinite."""
    if mon.kind != "rational":
        return None
    beta, w0 = env.beta, mon.w0
    t = 1.0 / beta
    t_m = _rational_t_m(w0, beta)
    threshold = _headroom(env, mon, t) / (1.0 - 2.0 ** -30)
    if not (0.0 < t_m <= t < math.inf and threshold < math.inf):
        return None
    return t, w0 * math.exp(beta * t) / t, threshold


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
    = -2*s/beta, clamped to the piece; T_m is the best of these, the first
    on ties, with epsilon read on the piece walked (the float the lookup
    would return).  The piece that brackets an edge is the first whose
    right end fits, for the low edge, and from T_m's piece on the first
    whose right end does not, for the high edge.  Each edge is Newton's
    method on psi(T) = beta*T - log1p(-2*epsilon(T)) - log(bound) along
    that piece, from its outer end (for the low edge no lower than where
    1 - 2*epsilon = 1/bound), stepped inward as above.  lo is 0.0 when h(T)
    fits as T -> 0, and hi is log(bound)/beta when h fits there."""
    found = _edges(env, mon, nu_crit)
    if found is None:
        return None
    _, edge = found
    return PeriodInterval(edge(1.0), edge(-1.0))


def minimize_loss_factor(
    env: Environment, mon: MonitoringModel, nu_crit: float
) -> tuple[float, float] | None:
    """(T*, g*) minimizing the loss factor over feasible periods, or None.

    Rational monitors: g(T) = w0 * exp(beta*T) / T is log-convex with its
    minimum at 1/beta, so T* = min(max(1/beta, lo), hi) on the feasible
    interval [lo, hi] and g* = w0 * exp(beta*T*) / T*.  Only the high edge
    is found: lo <= T_m <= hi for the headroom's minimizer T_m, and T_m =
    (2*w0/beta) / (w0 + sqrt(w0**2 + 2*w0/beta)) < 1/beta because the root
    exceeds w0, so max(1/beta, lo) = max(1/beta, T_m) = 1/beta.  Rounding
    can put the computed T_m above 1/beta (once w0*beta exceeds about
    1e16); then the low edge is found too.  So the clamp gives the same
    float as on the whole interval in every case.

    Where 1/beta is feasible with room to spare no edge is found:
    _closed_form gives (1/beta, g(1/beta)) when bound = (p_high - p_low) *
    nu_crit / c is at least threshold = h(1/beta) / (1 - 2**-30), with the
    float 1/beta and h computed as _headroom does, and when the computed
    T_m lies in (0, 1/beta].  The threshold is finite, so a bound that
    _edges holds at the largest float still reaches it.  Those are the
    floats the search returns:

    - Each float h(t) is within a few 2**-53 relative of the exact one.
      On [T_m, 1/beta] the exact h is at most h(1/beta), up to a
      second-order term at the exact minimizer next to the computed T_m,
      since log h is convex.  So every float t in [T_m, 1/beta] fits, with
      its float h below bound * (1 - 2**-31); and phi(T_m), whose absolute
      rounding is a few 2**-53 * log(bound), is below log(bound).  So
      _edges does not return None.
    - d log h / dT = beta - 2*w0 / (T*(T + 2*w0)) < beta, so log h rises
      by at most beta*(t - 1/beta) right of 1/beta: every float up to
      1/beta * (1 + 2**-31) fits too, and the exact high edge lies at least
      2**-30 / beta right of 1/beta.
    - Newton on phi from log(bound)/beta approaches that edge from the
      right.  Rounding moves an iterate by about the absolute error of
      phi, a few 2**-53 * log(bound) with log(bound) < 710, over phi' at
      the edge, and by convexity phi' there is at least 2**-30 over the
      edge's distance d from 1/beta.  That is below d * 2**-10, so every
      iterate stays right of 1/beta.
    - Each iterate _tighten rejects does not fit, so it lies above 1/beta *
      (1 + 2**-31).  Its ulp steps stop at one ulp below a rejected point,
      and its bisection, which only raises a fitting point from T_m, ends
      within one ulp of one too.  So hi >= 1/beta, the low edge is not
      needed (1/beta >= T_m) and min(1/beta, hi) = 1/beta, the float the
      closed form returns, with g* computed by the same expression.

    Tabulated monitors: on a piece of slope s, d log g / dT = beta + s /
    (epsilon * (1 - 2*epsilon)) vanishes where epsilon = (1 +- sqrt(1 +
    8*s/beta)) / 4.  So T* is the best of the interval ends (the low end
    at least hi * 1e-12), the breakpoints inside and those stationary
    points, ties going to the smaller T.  The low edge is seldom needed.
    T_m, the smallest minimizer of the convex log h, is at least lo, and h
    strictly falls on (0, T_m); epsilon does not rise there, so where
    epsilon(T_m) > 0, g = h * epsilon strictly falls on (0, T_m) and every
    candidate below T_m, the low end among them, loses to g(T_m).  So:

    - T_m < hi * 1e-12: the low end is hi * 1e-12, as lo <= T_m.
    - Otherwise the candidates above T_m are searched first, and their
      best is T* when its g is below g(T_m) * (1 - 2**-40), a margin for
      the relative rounding of exp, the product and the quotient.
      epsilon rounded on one piece and read at the next piece's start
      can differ by a few 2**-53, which the margin covers while
      epsilon(T_m) and 1 - 2*epsilon(T_m) are at least 2**-8.  On a near
      tie, or outside that range, the low edge is found and every
      candidate from the low end up is searched."""
    closed = _closed_form(env, mon)
    if closed is not None and env.gap * nu_crit / env.c >= closed[2]:
        return closed[:2]
    found = _edges(env, mon, nu_crit)
    if found is None:
        return None
    t_m, edge = found
    if mon.kind == "rational":
        t_star = 1.0 / env.beta
        if t_star < t_m:
            t_star = max(t_star, edge(1.0))
        t_star = min(t_star, edge(-1.0))
        g_star = mon.w0 * math.exp(env.beta * t_star) / t_star
        if g_star == math.inf:  # w0 * exp overflowed before the division
            g_star = mon.w0 / t_star * math.exp(env.beta * t_star)
        return t_star, g_star
    hi = edge(-1.0)
    lo = hi * 1e-12
    if t_m >= lo:
        eps_m = _epsilon(mon, t_m)
        if 2.0 ** -8 <= eps_m <= 0.5 - 2.0 ** -9:
            g_star, t_star = _least_loss(env, mon, t_m, hi, (math.inf, t_m))
            if g_star < _loss_at(env, mon, t_m, eps_m) * (1.0 - 2.0 ** -40):
                return t_star, g_star
        lo = max(edge(1.0), lo)
    g_star, t_star = _least_loss(env, mon, lo, hi,
                                 (_loss_at(env, mon, lo), lo))
    return t_star, g_star


def _least_loss(env: Environment, mon: MonitoringModel, lo: float,
                hi: float, best: tuple[float, float]) -> tuple[float, float]:
    """The least (g(T), T) among best, hi and a table's candidates strictly
    between lo and hi: its breakpoints and each piece's stationary points
    of g, with epsilon read on the piece; ties go to the smaller T."""
    best = min(best, (_loss_at(env, mon, hi), hi))
    pieces = mon._pieces
    for k, (t0, t1, e0, s) in enumerate(pieces):
        if t0 >= hi:
            break
        if t1 <= lo:
            continue
        if t0 > lo:
            best = min(best, (_loss_at(env, mon, t0, e0), t0))
        disc = 1.0 + 8.0 * s / env.beta
        if s < 0.0 and disc >= 0.0:
            for sign in (-1.0, 1.0):
                t = t0 + ((1.0 + sign * math.sqrt(disc)) / 4.0 - e0) / s
                if max(lo, t0) < t < min(hi, t1):
                    eps = _on_piece(pieces, k, t)
                    best = min(best, (_loss_at(env, mon, t, eps), t))
    return best


def _check_as_index(i, n: int) -> None:
    """Raise ValueError unless i is an integer AS index below n (a bool is
    not one)."""
    if not _is_integer(i):
        raise ValueError(f"AS index must be an integer, got {i!r}")
    if not 0 <= i < n:
        raise ValueError(f"AS index {i} out of range")


def ic_check(design: RatingDesign, env: Environment, mon: MonitoringModel,
             tm: TrafficMatrix, i: int) -> bool:
    """One-shot deviation test for AS i.  ASs outside the deployment set
    have nothing to deviate from and are trivially IC."""
    _check_as_index(i, tm.n)
    if i not in design.subset:
        return True
    return _deters(env, _headroom(env, mon, design.T), design.p0 - design.p1,
                   inbound_within(tm, design.subset, i))


def optimal_design(env: Environment, mon: MonitoringModel, tm: TrafficMatrix,
                   subset=None) -> DesignResult:
    """Cost-minimizing IC design for the given deployment set (default all).

    Feasible results bind the IC constraint at the critical member:
    p1* = p_low and p0* = p_low + c*h(T*)/nu_crit sits at the one-shot
    deviation boundary, one ulp above it where rounding would put it below.
    The full set, however it is given, is priced from the matrix's stored
    Subset, critical member and critical traffic."""
    p = tm._full if subset is None else _as_subset(tm, subset)
    size = len(p.members)
    if size == 0:
        raise ValueError("optimal_design needs a nonempty deployment set")
    idx = _member_index(tm, p)
    if idx is None:
        p = tm._full
        binding, nu_crit = tm._critical_member, tm._critical_traffic
    else:
        inbound = _inbound_vector(tm, idx)
        k = int(inbound.argmin())
        binding, nu_crit = p.members[k], float(inbound[k])
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
    h = _headroom(env, mon, t_star)
    p0 = min(env.p_low + h * env.c / nu_crit, env.p_high)
    if not _deters(env, h, p0 - env.p_low, nu_crit):
        p0 = min(math.nextafter(p0, math.inf), env.p_high)
    j = _set_cost(env, tm, env.p_low + g_star * env.c / nu_crit,
                  _outbound_within(tm, idx), size)
    return DesignResult(p, True, t_star, p0, env.p_low, g_star, j, binding)


def security_cost(design: RatingDesign, env: Environment, mon: MonitoringModel,
                  tm: TrafficMatrix) -> float:
    """Long-run expected cost per unit time of compliant play under the
    design.  Rejects designs that are not IC for some member."""
    _check_prices(design, env)
    violators = tuple(
        i for i in design.subset if not ic_check(design, env, mon, tm, i)
    )
    if violators:
        raise NotIncentiveCompatibleError(violators)
    eps = _epsilon(mon, design.T)
    mu_in = _outbound_within(tm, _member_index(tm, design.subset))
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
    r = _loss_rate(env, mon, tm._critical_traffic)
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

    r = _loss_rate(env, mon, tm._critical_traffic)
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
