"""Traffic matrices, topology generators, and critical-traffic analysis.

A network of N autonomous systems (ASs) exchanges traffic at fixed rates.
Entry (i, j) of a traffic matrix is the rate from sender i to receiver j;
diagonals are zero.  For a deployment set P, the quantity that governs
incentives is each member's inbound rate from within P, and in particular
the minimum of those rates over P (the "critical traffic" of P).  A matrix
has the maximal-critical-traffic (MCT) property when no proper subset has
strictly larger critical traffic than the full set.

Inbound rates and outbound totals are summed in member order throughout,
so every function here gives a subset the same sums to the bit.  The deletion
walk, which strips a set's critical members from the full set down, serves
both `has_mct` and the deletion search in `strategy`; both read its record
levels, the steps whose critical traffic exceeds every earlier step's, from
`_record_levels`.  The walk is one array pass: only picking each step's
critical members is sequential, and the exact critical traffic of every
step is summed afterwards by `_column_sums`, the one exact column sum,
which reads adjacent columns as slices and gathers the rest.  A step costs
two argmins over a running inbound vector (its minimum, then the least of
the rest); it re-sums exactly, by `_column_sums` again, only when several
members lie within the vector's drift window of its minimum, which on
tie-free rates is almost never.

Indices are 0-based throughout the library; the CLI converts to 1-based on
input and output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Subset",
    "TrafficMatrix",
    "critical_members",
    "critical_traffic",
    "has_mct",
    "inbound_within",
]


def _is_integer(value) -> bool:
    """A Python or numpy integer, not a bool."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


@dataclass(frozen=True)
class Subset:
    """An ordered set of AS indices (sorted, unique, non-negative)."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        for i in self.members:
            if not _is_integer(i):
                raise ValueError(f"subset member {i!r} is not an integer")
        m = tuple(int(i) for i in self.members)
        if any(i < 0 for i in m):
            raise ValueError("subset members must be non-negative indices")
        if len(set(m)) != len(m):
            raise ValueError("subset members must be unique")
        object.__setattr__(self, "members", tuple(sorted(m)))

    @classmethod
    def of(cls, items: Iterable[int], n: int | None = None) -> "Subset":
        s = cls(tuple(items))
        if n is not None and any(i >= n for i in s.members):
            raise ValueError(f"subset member out of range for n={n}")
        return s

    @classmethod
    def full(cls, n: int) -> "Subset":
        return cls._trusted(tuple(range(n)))

    @classmethod
    def _trusted(cls, members: tuple[int, ...]) -> "Subset":
        """A subset of members already sorted, unique and non-negative.
        Skips __post_init__, which would dominate the deletion walk's O(n)
        steps and brute force's 2^n sets."""
        s = object.__new__(cls)
        object.__setattr__(s, "members", members)
        return s

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, i: object) -> bool:
        return i in self.members


class TrafficMatrix:
    """Immutable N x N matrix of non-negative traffic rates, zero diagonal.

    Its row sums (`outbound`) and column sums (`inbound`) are computed once,
    with the rates, and are read-only like them.  The rates are stored in
    row-major order, so every column sum adds the rows one by one in order,
    as the subset sums in this module do; so does the outbound total M.
    The full set is stored too, as one immutable Subset, with its critical
    member (the first AS of least inbound) and that critical traffic, which
    price every full-set design without a new Subset or argmin."""

    def __init__(self, rates) -> None:
        arr = np.array(rates, dtype=float, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("traffic matrix must be square")
        if arr.shape[0] < 2:
            raise ValueError("traffic matrix needs at least 2 ASs")
        if not np.isfinite(arr).all():
            raise ValueError("traffic rates must be finite")
        if (arr < 0).any():
            raise ValueError("traffic rates must be non-negative")
        if arr.diagonal().any():
            raise ValueError("traffic matrix diagonal must be zero")
        arr.setflags(write=False)
        self._rates = arr
        with np.errstate(over="ignore"):
            self._outbound = arr.sum(axis=1)
            self._inbound = arr.sum(axis=0)
            self._outbound_total = float(np.add.accumulate(self._outbound)[-1])
        # Every subset's sums are at most these, so finite totals keep every
        # traffic quantity finite.
        if not (math.isfinite(self._outbound_total)
                and np.all(np.isfinite(self._inbound))):
            raise ValueError("traffic totals must be finite")
        self._outbound.setflags(write=False)
        self._inbound.setflags(write=False)
        self._full = Subset.full(arr.shape[0])
        self._critical_member = int(self._inbound.argmin())
        self._critical_traffic = float(self._inbound[self._critical_member])

    @property
    def rates(self) -> np.ndarray:
        return self._rates

    @property
    def outbound(self) -> np.ndarray:
        """Per-AS outbound rate: the row sums."""
        return self._outbound

    @property
    def inbound(self) -> np.ndarray:
        """Per-AS inbound rate from all ASs: the column sums."""
        return self._inbound

    @property
    def n(self) -> int:
        return self._rates.shape[0]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TrafficMatrix) and np.array_equal(
            self._rates, other._rates
        )

    def __repr__(self) -> str:
        return f"TrafficMatrix(n={self.n})"

    # ---- generators -----------------------------------------------------

    @classmethod
    def from_edges(
        cls, n: int, edges: Iterable[tuple[int, int, float]], directed: bool = False
    ) -> "TrafficMatrix":
        arr = np.zeros((n, n))
        for i, j, rate in edges:
            if i == j:
                raise ValueError("self-loops are not allowed")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            arr[i, j] = rate
            if not directed:
                arr[j, i] = rate
        return cls(arr)

    @classmethod
    def complete(cls, n: int, rate: float) -> "TrafficMatrix":
        arr = np.full((n, n), float(rate))
        np.fill_diagonal(arr, 0.0)
        return cls(arr)

    @classmethod
    def ring_lattice(cls, n: int, degree: int, rate: float) -> "TrafficMatrix":
        if degree % 2 != 0:
            raise ValueError("ring lattice degree must be even")
        if not 0 < degree < n:
            raise ValueError("ring lattice needs 0 < degree < n")
        return cls.from_edges(n, [(i, (i + step) % n, rate) for i in range(n)
                                  for step in range(1, degree // 2 + 1)])

    @classmethod
    def line(cls, n: int, rate: float) -> "TrafficMatrix":
        return cls.from_edges(n, [(i, i + 1, rate) for i in range(n - 1)])

    @classmethod
    def star(cls, n: int, rate: float) -> "TrafficMatrix":
        return cls.from_edges(n, [(0, j, rate) for j in range(1, n)])

    @classmethod
    def restricted_core_periphery(
        cls, cores: int, periphery_per_core: int, rate: float
    ) -> "TrafficMatrix":
        """Fully connected core of `cores` nodes; each core node carries
        `periphery_per_core` leaves attached only to it.  N = (1+l)K."""
        k, l = cores, periphery_per_core
        if k <= 2:
            raise ValueError("core size must exceed 2")
        if l < 0 or l >= k:
            raise ValueError("periphery count per core must satisfy 0 <= l < cores")
        n = (1 + l) * k
        arr = np.zeros((n, n))
        arr[:k, :k] = rate
        np.fill_diagonal(arr, 0.0)
        # core node c carries leaves k + c*l .. k + c*l + l - 1
        core, leaf = np.arange(k).repeat(l), np.arange(k, n)
        arr[core, leaf] = rate
        arr[leaf, core] = rate
        return cls(arr)


# ---- analysis -----------------------------------------------------------


def _as_subset(tm: TrafficMatrix, subset) -> Subset:
    if isinstance(subset, Subset):
        if subset.members and subset.members[-1] >= tm.n:
            raise ValueError("subset member out of range")
        return subset
    return Subset.of(subset, tm.n)


def inbound_within(tm: TrafficMatrix, subset, i: int) -> float:
    """Inbound rate of AS i from members of `subset` (i must belong)."""
    p = _as_subset(tm, subset)
    if i not in p:
        raise ValueError(f"AS {i} is not in the subset")
    rows = np.zeros(tm.n, dtype=bool)
    rows[list(p.members)] = True
    return float(_column_sums(tm.rates, rows, [i])[0])


def _member_index(tm: TrafficMatrix, p: Subset) -> np.ndarray | None:
    """The members of `p` as an index array, or None for the full set."""
    size = len(p.members)
    if size == tm.n:
        return None
    return np.fromiter(p.members, dtype=np.intp, count=size)


def _inbound_vector(tm: TrafficMatrix, idx: np.ndarray | None) -> np.ndarray:
    """Each member's inbound rate from within the set, in member order.

    Only the member rows are summed, in place through a row mask and with
    no copy of them: the axis-0 sum adds them one by one in member order,
    then the member columns are picked, which equals the column sums of
    the members' k x k block to the bit.  Its only temporaries are n-long,
    so the memory a pricing takes does not depend on the set's size.  The
    full set (idx None) reads the stored column sums."""
    if idx is None:
        return tm.inbound
    rows = np.zeros(tm.n, dtype=bool)
    rows[idx] = True
    return tm.rates.sum(axis=0, where=rows[:, None]).take(idx)


def _outbound_within(tm: TrafficMatrix, idx: np.ndarray | None) -> float:
    """The members' outbound total, added in member order (a 1-D `sum`
    adds pairwise); the full set (idx None) reads the stored total M."""
    if idx is None:
        return tm._outbound_total
    return float(np.add.accumulate(tm.outbound[idx])[-1]) if len(idx) else 0.0


def critical_traffic(tm: TrafficMatrix, subset) -> float:
    """Minimum over members of the inbound rate from within the subset."""
    p = _as_subset(tm, subset)
    if len(p) == 0:
        raise ValueError("critical traffic is undefined for the empty subset")
    return float(_inbound_vector(tm, _member_index(tm, p)).min())


def critical_members(tm: TrafficMatrix, subset) -> tuple[int, ...]:
    """Members attaining the subset's critical traffic."""
    p = _as_subset(tm, subset)
    if len(p) == 0:
        raise ValueError("critical traffic is undefined for the empty subset")
    inb = _inbound_vector(tm, _member_index(tm, p))
    low = inb.min()
    return tuple(m for m, v in zip(p.members, inb) if v == low)


# Column sums read at most this many matrix elements at a time (and at
# least two columns), and the walk subtracts deleted rows in blocks of at
# most this many elements, which bounds their arrays at any n.
_BLOCK_ELEMENTS = 1 << 16


def _column_sums(rates: np.ndarray, level: np.ndarray,
                 cols: np.ndarray) -> np.ndarray:
    """Sum column c of `rates`, for each c in `cols` (ascending, no
    repeats), over the rows r with level[r] >= level[c], adding them one by
    one in row order, as `critical_traffic` sums a set's members.

    The columns are read in blocks of at most _BLOCK_ELEMENTS elements: a
    block of adjacent columns as a slice, any other by `take`, each copied
    into a new C-ordered array and multiplied in place by its bool mask,
    whose axis-0 sum adds its rows in order.  A masked-out rate becomes
    +0.0, which leaves a sum started from +0.0 as it was, so a column of
    -0.0 rates reads +0.0.  A block of one column would be a 1-D reduction,
    which NumPy adds pairwise, so a lone column is read twice."""
    width = max(2, _BLOCK_ELEMENTS // rates.shape[0])
    sums = np.empty(len(cols))
    for start in range(0, len(cols), width):
        ks = cols[start:start + width]
        size = len(ks)
        if size == 1:
            ks = np.repeat(ks, 2)
        mask = level[:, None] >= level[ks]
        if ks[-1] - ks[0] == len(ks) - 1:
            block = rates[:, ks[0]:ks[-1] + 1].copy()
        else:
            block = rates.take(ks, axis=1)
        block *= mask
        sums[start:start + size] = block.sum(axis=0, initial=0.0)[:size]
        del block  # else two blocks are alive while the next is made
    return sums


def _deletion_walk(tm: TrafficMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Walk from the full set down, deleting the critical members each
    step, and return each member's step and each step's exact critical
    traffic, as read-only arrays.  Member i is deleted at step step_of[i],
    so step k's critical members are those with step_of == k and its set
    is those with step_of >= k; the walk takes len(nus) steps.

    Picking the members is the only sequential work.  One running inbound
    vector is kept, with the deleted rows subtracted from it and inf at the
    deleted members.  Its drift stays below an absolute window sized from
    the largest column sum, so the members within that window of its
    minimum include every true critical member.  A step costs two argmins,
    both O(n): the minimum, then, with the minimum set to inf, the least
    of the rest.  When that lies beyond the window the minimum is the lone
    candidate and the critical member, and its row is subtracted as it
    stands.  Only when several lie in the window are they summed again by
    `_column_sums` over the live rows, in member order as
    `critical_traffic` sums them, and the exact minimum and its ties are
    taken from those sums.  The critical traffic of every step is then
    summed by the same `_column_sums`, in one call: step k's critical
    traffic is its first critical member's column summed over the members
    deleted at step k or later.  A walk of few steps, such as one that
    deletes many tied members at once, reads only those members' columns.
    """
    n = tm.n
    rates = tm.rates
    inbound = tm.inbound.copy()  # subtracted from in place below
    window = 1e-9 * inbound.max()
    step_of = np.full(n, n, dtype=np.intp)
    rows = max(1, _BLOCK_ELEMENTS // n)
    first: list[int] = []  # each step's lowest critical member
    left = n
    while left:
        k = len(first)
        i = int(inbound.argmin())
        low = inbound[i]
        bar = low + window
        inbound[i] = np.inf
        if inbound[inbound.argmin()] > bar:  # the common step
            step_of[i] = k
            first.append(i)
            left -= 1
            inbound -= rates[i]
            continue
        inbound[i] = low
        cand = np.flatnonzero(inbound <= bar)
        # the candidates are live, step_of == n, so only live rows count
        exact = _column_sums(rates, step_of, cand)
        cand = cand[exact == exact.min()]
        step_of[cand] = k
        first.append(int(cand[0]))
        left -= len(cand)
        for start in range(0, len(cand), rows):
            inbound -= rates[cand[start:start + rows]].sum(axis=0)
        inbound[cand] = np.inf
    first.sort()
    cols = np.array(first, dtype=np.intp)
    sums = _column_sums(rates, step_of, cols)
    nus = np.empty(len(cols))
    nus[step_of[cols]] = sums
    step_of.setflags(write=False)
    nus.setflags(write=False)
    return step_of, nus


def _walk_set(step_of: np.ndarray, k: int) -> Subset:
    """Step k's set of the deletion walk: the members deleted at step k or
    later."""
    return Subset._trusted(tuple(np.flatnonzero(step_of >= k).tolist()))


def _record_levels(nus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The walk's record levels and the running maximum of its critical
    traffic.

    A record level is a step whose critical traffic strictly exceeds every
    earlier step's; step 0 is the first.  best[k] is the maximum over
    steps 0..k, so a step that is not a record level has best[k] equal to
    the last record level's value."""
    best = np.maximum.accumulate(nus)
    rising = np.empty(len(nus), dtype=bool)
    rising[:1] = True
    np.greater(nus[1:], best[:-1], out=rising[1:])
    return np.flatnonzero(rising), best


def has_mct(tm: TrafficMatrix) -> tuple[bool, Subset | None]:
    """Test the maximal-critical-traffic property.

    Returns (True, None) when every nonempty proper subset has critical
    traffic at most the full set's, else (False, witness), where the
    witness is the largest subset of maximal critical traffic.  It is
    unique: a member's inbound sum, taken in member order over non-negative
    rates, only grows when the set grows (in floats too, as rounding is
    monotone), so the union of two maximizers is one.

    One pass of the deletion walk answers this.  Every walk set contains
    that largest maximizer S until the walk reaches it: while a walk set's
    critical traffic is below the maximum, each member of S has inbound
    within it at least its inbound within S, which is at least the
    maximum, so no member of S is critical and none is deleted; a walk set
    at the maximum is a maximizer containing S, so it is S.  The walk ends
    empty, so it does reach S, and S is the walk set at the last record
    level: the members deleted at that step or later.  The property holds
    when step 0 is the only record level.  (This is the threshold peeling
    behind k-cores.)
    """
    step_of, nus = _deletion_walk(tm)
    last = int(_record_levels(nus)[0][-1])
    if last == 0:
        return True, None
    return False, _walk_set(step_of, last)
