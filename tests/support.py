"""Shared helpers for the test suite: seeded random instances, direct
references for the subset searches and whole-horizon references for the
simulator's rating, grim-trigger and tit-for-tat paths.

Instances are drawn by rejection so that every returned (environment,
monitor, traffic matrix) triple admits a feasible design; the stricter
variant also requires the viability and social-gain assumption checks to
pass, which the subset-search guarantees need.
"""

import csv
import itertools
import math
from fractions import Fraction

import numpy as np

from mutualsec import (
    DesignResult,
    Environment,
    IdIteration,
    IdTrace,
    MonitoringModel,
    StrategyResult,
    Subset,
    TrafficMatrix,
    critical_members,
    critical_traffic,
    optimal_design,
    validate_assumptions,
)


def subset_without(p, remove):
    """The members of Subset p that are not in `remove`, as a Subset."""
    drop = set(remove)
    return Subset(tuple(i for i in p.members if i not in drop))


def write_matrix_csv(tm, path):
    """Write the rates as the header-free CSV that load_matrix_csv reads,
    each rate in repr form so the round trip is exact."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in tm.rates:
            w.writerow([repr(float(x)) for x in row])


def random_connected_matrix(rng, n, lo=0.5, hi=4.0):
    """Symmetric connected traffic matrix: a random ring plus extra edges."""
    arr = np.zeros((n, n))
    order = rng.permutation(n)
    for k in range(n):
        i, j = order[k], order[(k + 1) % n]
        rate = rng.uniform(lo, hi)
        arr[i, j] = arr[j, i] = rate
    extra = int(rng.integers(0, n * (n - 1) // 2 + 1))
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i != j and arr[i, j] == 0:
            rate = rng.uniform(lo, hi)
            arr[i, j] = arr[j, i] = rate
    return TrafficMatrix(arr)


def random_environment(rng, nu_crit):
    p_low = float(rng.uniform(0.01, 0.15))
    p_high = float(rng.uniform(p_low + 0.1, min(p_low + 0.5, 0.95)))
    beta = float(rng.uniform(0.05, 0.6))
    c = float(rng.uniform(0.1, 0.7)) * (p_high - p_low) * nu_crit
    return Environment(p_high=p_high, p_low=p_low, c=c, beta=beta)


def random_feasible_instance(rng, n_lo=3, n_hi=8, *, require_assumptions=False,
                             max_tries=500):
    """Draw (env, mon, tm) with a feasible full-deployment design."""
    for _ in range(max_tries):
        n = int(rng.integers(n_lo, n_hi + 1))
        tm = random_connected_matrix(rng, n)
        nu = critical_traffic(tm, Subset.full(n))
        env = random_environment(rng, nu)
        mon = MonitoringModel.rational(float(rng.uniform(0.02, 0.5)))
        result = optimal_design(env, mon, tm)
        if not result.feasible:
            continue
        if require_assumptions:
            report = validate_assumptions(env, mon, tm)
            if not report.all_ok:
                continue
        return env, mon, tm
    raise RuntimeError("could not draw a feasible instance")


def random_convex_table(rng):
    """Tabulated monitor on an even period grid from T=0, decreasing and
    convex: each step's drop is a fixed fraction of the one before.  (A
    grid starting later would hold epsilon flat below its first period,
    a concave kink that MonitoringModel rejects.)"""
    m = int(rng.integers(2, 16))
    ts = np.linspace(0.0, rng.uniform(2.0, 20.0), m)
    eps0 = rng.uniform(0.05, 0.5)
    drops = rng.uniform(0.2, 0.95) ** np.arange(m - 1)
    drops *= eps0 * rng.uniform(0.3, 0.99) / drops.sum()
    es = eps0 - np.concatenate(([0.0], np.cumsum(drops)))
    return MonitoringModel.tabulated(list(zip(ts.tolist(), es.tolist())))


REFERENCE_ENV = Environment(p_high=0.3, p_low=0.05, c=0.3, beta=0.2)


def reference_instance(w0=0.1, n=8, rate=1.0):
    return (REFERENCE_ENV, MonitoringModel.rational(w0),
            TrafficMatrix.complete(n, rate))


def random_grid_matrix(rng, n, density=0.6):
    """Directed matrix with rates on the 1/16 grid: sums are exact, so
    critical traffic ties between subsets are real ties."""
    arr = rng.integers(1, 17, (n, n)) / 16.0
    arr[rng.random((n, n)) > density] = 0.0
    np.fill_diagonal(arr, 0.0)
    return TrafficMatrix(arr)


def near_tie_instance(rng):
    """A complete core of 8 or 9 ASs on a non-dyadic rate, in which AS 0
    receives from the core alone and so stays critical, plus one or two
    extra ASs that send a little to the rest of the core (their rates a
    few ulps apart).  The cost c is set so that an extra AS's filtering
    benefit equals c, so the core with any of the extras ties with the
    core alone up to rounding: near-ties among sets of 8 or more members,
    where costs summed in another order can rank them differently."""
    k = int(rng.integers(8, 10))
    n = k + int(rng.integers(1, 3))
    r = float(rng.choice([0.1, 0.3, 0.7, 1 / 3]))
    s = r * float(rng.uniform(0.05, 0.2))
    arr = np.zeros((n, n))
    arr[:k, :k] = r
    arr[:k, k:] = r
    for j in range(k, n):
        arr[j, 1:k] = s * (1 + int(rng.integers(0, 3)) * 2.0 ** -52)
    np.fill_diagonal(arr, 0.0)
    tm = TrafficMatrix(arr)
    mon = MonitoringModel.rational(float(rng.uniform(0.02, 0.1)))
    core = Subset(tuple(range(k)))
    nu, mu = (k - 1) * r, (k - 1) * s
    env = Environment(p_high=0.4, p_low=0.05, c=0.03 * mu, beta=0.2)
    for _ in range(4):
        g = optimal_design(env, mon, tm, core).g_star
        env = Environment(p_high=0.4, p_low=0.05,
                          c=(0.4 - 0.05) * mu / (1 + g * mu / nu), beta=0.2)
    return env, mon, tm


def loss_factor(env, mon, t):
    """The loss factor g(t) = exp(beta*t) * eps / (1 - 2*eps) with eps from
    the monitor's numpy curve (np.interp for tables); t may be an array."""
    eps = mon.epsilon(t)
    return np.exp(env.beta * np.asarray(t)) * eps / (1 - 2 * eps)


def reference_inbound(tm, members):
    """Each member's inbound rate from within `members`, as the column sums
    of the members' k x k block of the rates."""
    idx = np.asarray(members, dtype=int)
    return tm.rates[np.ix_(idx, idx)].sum(axis=0)


def canonical_mct_witness(tm):
    """(verdict, witness) of the MCT check by direct enumeration: among
    the proper subsets whose critical traffic exceeds the full set's, the
    largest value, then the largest size, then the lexicographically
    smallest members."""
    n = tm.n
    full = critical_traffic(tm, Subset.full(n))
    violations = []
    for mask in range(1, (1 << n) - 1):
        members = tuple(i for i in range(n) if mask >> i & 1)
        value = critical_traffic(tm, Subset(members))
        if value > full:
            violations.append((value, members))
    if not violations:
        return True, None
    top = max(value for value, _ in violations)
    tied = [members for value, members in violations if value == top]
    size = max(len(members) for members in tied)
    return False, Subset(min(m for m in tied if len(m) == size))


def reference_deletion_trace(env, mon, tm):
    """IdTrace of the deletion search with every step recomputed from
    scratch by `critical_traffic` and `critical_members`."""
    p = Subset.full(tm.n)
    iterations = []
    best_priced = -math.inf
    while len(p) > 0:
        nu = critical_traffic(tm, p)
        crit = critical_members(tm, p)
        if nu > best_priced:
            best_priced = nu
            design = optimal_design(env, mon, tm, p)
            iterations.append(IdIteration(p, nu, crit, True, design))
        else:
            reason = (
                f"critical traffic {nu:g} does not exceed the best priced "
                f"value {best_priced:g}; a nested set with no-higher critical "
                "traffic costs strictly more"
            )
            iterations.append(IdIteration(p, nu, crit, False, None, reason))
        p = subset_without(p, crit)
    chosen = None
    best_j = math.inf
    for i, it in enumerate(iterations):
        if it.evaluated and it.design.feasible and it.design.j_star < best_j:
            best_j = it.design.j_star
            chosen = i
    return IdTrace(tuple(iterations), chosen)


def reference_brute_force(env, mon, tm, *, cap=16):
    """StrategyResult of brute force by one `optimal_design` call per
    subset: every nonempty set is priced and the cheapest is kept, with
    ties going to larger sets, then lexicographically smaller members."""
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


def live_periods(env, T, horizon):
    """The first period from which every discount weight delta ** t surely
    underflows, ceil(1075 ln 2 / -ln delta) + 1 (1 for delta = 0, the
    horizon for delta = 1), at most the horizon: a run reads periods 0
    through it one by one unless it settles first (`settle_period`)."""
    delta = math.exp(-env.beta * T)
    if delta == 0.0:
        zero = 1
    elif delta == 1.0:
        zero = horizon
    else:
        zero = math.ceil(1075 * math.log(2.0) / -math.log(delta)) + 1
    return min(horizon, zero)


def settle_lag(env, T):
    """The least lag with delta ** lag / (1 - delta) <= 2**-55 for
    delta = exp(-beta T), from the logs of both sides; None when delta is
    0 or 1."""
    delta = math.exp(-env.beta * T)
    if not 0.0 < delta < 1.0:
        return None
    return math.ceil(math.log(2.0 ** -55 * (1.0 - delta)) / math.log(delta))


def settle_period(env, T, first, flags):
    """The period from which no later weight can change a discounted count:
    settle_lag after the period in which the last entry reads its first 1,
    period 0 reading `first` and period t the flags row t - 1; None when
    some entry never reads a 1 there or delta is 0 or 1."""
    lag = settle_lag(env, T)
    size = np.size(first)
    read = np.concatenate((np.reshape(first, (1, size)),
                           np.reshape(flags, (len(flags), size)))) != 0
    if lag is None or not read.any(axis=0).all():
        return None
    return int(read.argmax(axis=0).max()) + lag


def drawn_periods(env, T, horizon, shots=(), settle=None):
    """Periods whose flags a run draws one by one, the flag drawn in period
    t being read in period t + 1.  A run reads one by one periods 0
    through the earlier of live_periods and `settle` (None: never), each
    one-shot period and the period after it, and the last period, so it
    draws the flags of the periods before the earlier of the two, of
    t - 1 and t for each shot t and of horizon - 2, all clipped to
    0, ..., horizon - 2."""
    prefix = live_periods(env, T, horizon)
    if settle is not None:
        prefix = min(prefix, settle)
    drawn = {*range(prefix), horizon - 2}
    for t in shots:
        drawn |= {t - 1, t}
    return {t for t in drawn if 0 <= t <= horizon - 2}


def chunks_from_words(words, size):
    """The (m, size) 16-bit chunks of m periods from their
    (m, ceil(size / 4)) raw 64-bit words: entry e of a period reads bits
    16 * (e % 4) through 16 * (e % 4) + 15 of its word e // 4."""
    chunks = np.stack([(words >> np.uint64(16 * k)) & np.uint64(0xFFFF)
                       for k in range(4)], axis=-1)
    chunks = chunks.reshape(len(words), 4 * words.shape[1])[:, :size]
    return chunks.astype(np.int64)


def flags_from_words(words, size, p, ties):
    """The (m, size) 0/1 flags of m periods from their (m, ceil(size / 4))
    raw 64-bit words: with K = ceil(p * 2**53), an entry is 1 where its
    chunk (`chunks_from_words`) is below K >> 37.  A chunk equal to it is
    a tie, 1 where the next uniform of `ties` is below
    (K mod 2**37) / 2**37, the ties taken in (period, entry) order."""
    K = math.ceil(Fraction(p) * 2 ** 53)
    cut, rest = K >> 37, K % 2 ** 37
    chunks = chunks_from_words(words, size)
    flags = chunks < cut
    tied = np.flatnonzero(chunks == cut)
    flags.flat[tied] = ties.random(tied.size) < rest / 2 ** 37
    return flags


def drawn_flags(seed, env, T, shots, p, flip, first):
    """The 0/1 flags of periods 0, ..., horizon - 2 (flip has one row per
    period of the horizon), each entry's flag being 1 with probability p
    xor its `flip` entry, as a bool array whose row horizon - 1 is False.
    The periods that `drawn_periods` names are drawn one by one, from raw
    words by `flags_from_words`, `settle` being the `settle_period` of the
    live periods' flags (period 0 reading `first`), drawn first on fresh
    generators of the same seed; each run of the other periods, a gap
    (over which flip is steady), takes one binomial count per entry.
    Stream order is period order: each run of drawn periods as one
    raw-word draw of its rows, each gap as one binomial draw (m minus the
    count where flipped, m the gap's length).  Ties take their uniforms
    from the second child of the seed's SeedSequence.  An entry's count of
    1s falls on distinct periods of its gap drawn without replacement (its
    0s do, where the 1s are more than half), gap by gap and entry by entry
    in C order, by the first child."""
    horizon = len(flip)
    shape = flip.shape[1:]
    size = math.prod(shape)
    width = -(-size // 4)

    def generators():
        return (np.random.default_rng(seed),
                *map(np.random.default_rng,
                     np.random.SeedSequence(seed).spawn(2)))

    rng, _, ties = generators()
    m = min(live_periods(env, T, horizon), horizon - 1)
    live = flags_from_words(rng.bit_generator.random_raw((m, width)), size,
                            p, ties).reshape(m, *shape) ^ flip[:m]
    drawn = drawn_periods(env, T, horizon, shots,
                          settle_period(env, T, first, live))
    rng, spread, ties = generators()
    flags = np.zeros(flip.shape, dtype=bool)
    t = 0
    for one_by_one, run in itertools.groupby(range(horizon - 1),
                                             drawn.__contains__):
        m = len(list(run))
        if one_by_one:
            words = rng.bit_generator.random_raw((m, width))
            run_flags = flags_from_words(words, size, p, ties)
            flags[t:t + m] = run_flags.reshape(m, *shape) ^ flip[t:t + m]
        else:
            ones = rng.binomial(m, p, shape)
            ones = np.where(flip[t], m - ones, ones)
            gap = flags[t:t + m].reshape(m, ones.size)
            for k, c in enumerate(ones.ravel().tolist()):
                if 2 * c > m:
                    gap[:, k] = True
                    gap[spread.choice(m, m - c, replace=False), k] = False
                else:
                    gap[spread.choice(m, c, replace=False), k] = True
        t += m
    return flags


def _whole_horizon_fields(env, T, horizon, seed, cost):
    """Report fields of a whole-horizon run from its (horizon, n) cost
    matrix, with every discount weight delta ** t."""
    weights = math.exp(-env.beta * T) ** np.arange(horizon)
    per_as = cost.sum(axis=0) / (horizon * T)
    return {
        "horizon": horizon,
        "period_length": T,
        "seed": seed,
        "avg_cost": float(per_as.sum()),
        "avg_cost_per_as": per_as.tolist(),
        "discounted_utility": (-(weights @ cost)).tolist(),
        "rating_high_fraction": None,
        "punishment_fraction": None,
        "total_cost": cost.sum(axis=1) / T,
    }


def whole_horizon_rating_run(design, profile, env, mon, tm, horizon, seed):
    """The rating path of `simulate` from scratch, with whole-horizon
    arrays: the signals of every period in the stream order of
    `drawn_flags`, the full cost matrix by the general formula and every
    discount weight delta ** t.  Returns the report's fields (and
    time-series columns) as plain values."""
    n, T = tm.n, design.T
    eps = float(mon.epsilon(T))
    rec = np.zeros(n, dtype=bool)
    rec[list(design.subset.members)] = True
    actions = np.tile(rec, (horizon, 1))
    shots = []
    for i, b in enumerate(profile.behaviors):
        if b.kind == "persistent-deviator":
            actions[:, i] = ~rec[i]
        elif b.kind == "never-deploy":
            actions[:, i] = False
        elif b.kind == "always-deploy":
            actions[:, i] = True
        elif b.kind == "one-shot-deviator" and b.at_period < horizon:
            actions[b.at_period, i] = ~rec[i]
            shots.append(b.at_period)
    # ratings start high
    signal_high = drawn_flags(seed, env, T, shots, 1.0 - eps,
                               actions != rec, np.ones(n, dtype=bool))
    ratings = np.concatenate((np.ones((1, n), dtype=bool), signal_high[:-1]))
    deployed_in = actions.astype(float) @ tm.rates
    cost = (np.where(ratings, design.p1, design.p0) * deployed_in
            + env.p_high * (tm.rates.sum(axis=0) - deployed_in)
            + actions * env.c) * T
    fields = _whole_horizon_fields(env, T, horizon, seed, cost)
    fields.update(
        rating_high_fraction=(ratings.sum(axis=0) / horizon).tolist(),
        final_ratings=ratings[-1].astype(int).tolist(),
        mean_rating=ratings.mean(axis=1),
    )
    return fields


def whole_horizon_trigger_run(design, env, mon, tm, horizon, seed):
    """The grim-trigger path of `simulate` from scratch: the first period
    with a "deviate" signal as one geometric wait from period 0, each
    period firing with probability q = 1 - (1 - eps) ** n (none within
    the horizon when q = 0), and the full cost matrix, pre-trigger rows
    until that period and cap-price rows after it."""
    n, T = tm.n, design.T
    eps = float(mon.epsilon(T))
    rec = np.zeros(n, dtype=bool)
    rec[list(design.subset.members)] = True
    inbound = tm.rates.sum(axis=0)
    deployed_in = rec.astype(float) @ tm.rates
    pre_cost = (env.p_low * deployed_in
                + env.p_high * (inbound - deployed_in) + rec * env.c) * T
    q = -math.expm1(n * math.log1p(-eps))
    first_bad = horizon
    if q > 0.0:
        wait = int(np.random.default_rng(seed).geometric(q))
        first_bad = min(horizon, wait - 1)
    fired = np.arange(horizon) > first_bad
    cost = np.where(fired[:, None], env.p_high * inbound * T, pre_cost)
    fields = _whole_horizon_fields(env, T, horizon, seed, cost)
    fields.update(
        punishment_fraction=max(0, horizon - 1 - first_bad) / horizon,
        first_bad_period=first_bad,
        trigger_fired=fired,
    )
    return fields


def whole_horizon_tft_run(design, env, mon, tm, horizon, seed):
    """The tit-for-tat path of `simulate` from scratch: the wrong ("low")
    observations of every link in every period in the stream order of
    `drawn_flags`, the price of every link in every period as an np.where
    quality array, and the full cost matrix by einsum."""
    n, T = tm.n, design.T
    eps = float(mon.epsilon(T))
    rates = tm.rates
    sends = rates > 0
    observable = sends.T  # [j, i]: j sees i's action via i -> j traffic
    nu_mutual = (rates * sends.T).sum(axis=0)
    deploy = math.exp(-env.beta * T) * env.gap * nu_mutual > env.c
    # [t, j, i]; before period 0 the flags read ~deploy[i], which is
    # "deviate" nowhere
    low = drawn_flags(seed, env, T, (), eps,
                       np.zeros((horizon, n, n), dtype=bool),
                       np.broadcast_to(~deploy, (n, n)))
    obs_deviate = (~deploy[None, None, :] ^ low) & observable[None]
    grudges = np.concatenate((np.zeros((1, n, n), dtype=bool),
                              obs_deviate[:-1]))
    quality = np.where(~deploy[None, :, None] | grudges,
                       env.p_high, env.p_low)
    cost = (np.einsum("tji,ji->ti", quality, rates) + deploy * env.c) * T
    fields = _whole_horizon_fields(env, T, horizon, seed, cost)
    fields.update(
        deploying=np.flatnonzero(deploy).tolist(),
        mean_grudges_per_period=int(grudges.sum()) / horizon,
        tft_grudges=[(int(j), int(i))
                     for j, i in zip(*np.nonzero(grudges[-1]))],
    )
    return fields
