"""Traffic matrices, topology generators, and critical-traffic analysis.

A network of N autonomous systems (ASs) exchanges traffic at fixed rates.
Entry (i, j) of a traffic matrix is the rate from sender i to receiver j;
diagonals are zero.  For a deployment set P, the quantity that governs
incentives is each member's inbound rate from within P, and in particular
the minimum of those rates over P (the "critical traffic" of P).  A matrix
has the maximal-critical-traffic (MCT) property when no proper subset has
strictly larger critical traffic than the full set.

Inbound rates are summed in member order throughout, so every function
here gives a subset the same critical traffic to the bit.  The deletion
walk, which strips a set's critical members from the full set down, serves
both `has_mct` and the deletion search in `strategy`.  It is one array
pass: only picking each step's critical members is sequential, and the
exact critical traffic of every step is summed afterwards, in blocks of
steps, by the same blocked column sum that breaks ties.

Indices are 0-based throughout the library; the CLI converts to 1-based on
input and output.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain, filterfalse
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "Subset",
    "TrafficMatrix",
    "critical_members",
    "critical_traffic",
    "has_mct",
    "inbound_within",
    "load_edge_csv",
    "load_matrix_csv",
]


@dataclass(frozen=True)
class Subset:
    """An ordered set of AS indices (sorted, unique, non-negative)."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
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

    def without(self, remove: Iterable[int]) -> "Subset":
        # A subsequence of valid members is valid.
        return Subset._trusted(tuple(
            filterfalse(set(remove).__contains__, self.members)))

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
    as the subset sums in this module do."""

    def __init__(self, rates) -> None:
        arr = np.array(rates, dtype=float, order="C")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("traffic matrix must be square")
        if arr.shape[0] < 2:
            raise ValueError("traffic matrix needs at least 2 ASs")
        if not np.all(np.isfinite(arr)):
            raise ValueError("traffic rates must be finite")
        if np.any(arr < 0):
            raise ValueError("traffic rates must be non-negative")
        if np.any(np.diagonal(arr) != 0):
            raise ValueError("traffic matrix diagonal must be zero")
        arr.setflags(write=False)
        self._rates = arr
        self._outbound = arr.sum(axis=1)
        self._outbound.setflags(write=False)
        self._inbound = arr.sum(axis=0)
        self._inbound.setflags(write=False)
        self._outbound_total = float(self._outbound.sum())

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
        arr = np.zeros((n, n))
        for i in range(n):
            for step in range(1, degree // 2 + 1):
                j = (i + step) % n
                arr[i, j] = rate
                arr[j, i] = rate
        return cls(arr)

    @classmethod
    def line(cls, n: int, rate: float) -> "TrafficMatrix":
        arr = np.zeros((n, n))
        for i in range(n - 1):
            arr[i, i + 1] = rate
            arr[i + 1, i] = rate
        return cls(arr)

    @classmethod
    def star(cls, n: int, rate: float) -> "TrafficMatrix":
        arr = np.zeros((n, n))
        arr[0, 1:] = rate
        arr[1:, 0] = rate
        return cls(arr)

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
        for core in range(k):
            for leaf in range(l):
                p = k + core * l + leaf
                arr[core, p] = rate
                arr[p, core] = rate
        return cls(arr)

    # ---- file formats ----------------------------------------------------

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in self._rates:
                w.writerow([repr(float(x)) for x in row])


def load_matrix_csv(path) -> TrafficMatrix:
    """Header-free N x N CSV of rates."""
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            if not rec:
                continue
            rows.append([float(x) for x in rec])
    return TrafficMatrix(rows)


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _edge_cell(row: str, column: str, text: str, parse, what: str):
    try:
        value = parse(text)
        if math.isfinite(value):
            return value
    except (ValueError, OverflowError):
        pass
    raise ValueError(f"{row}: column {column} must be {what}, got {text!r}")


def load_edge_csv(path, n: int | None = None) -> TrafficMatrix:
    """Edge list CSV with columns i,j,rate and an optional directed flag
    column: 1 or true (any case) for one way, 0, false or empty for both
    ways; anything else is an error.  Indices are 1-based (this format is
    CLI-facing).  Rows without the flag are applied in both directions.
    A first row with no number among its first three cells is a header
    and is skipped.  The collection size is inferred from the largest index
    unless ``n`` is given."""
    records = []
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            if not rec or not any(field.strip() for field in rec):
                continue
            records.append([field.strip() for field in rec])
    if not records:
        raise ValueError("edge CSV is empty")
    if not any(_is_number(cell) for cell in records[0][:3]):
        records = records[1:]
    edges = []
    size = 0
    for rec in records:
        row = f"edge CSV row {','.join(rec)!r}"
        if len(rec) < 3:
            raise ValueError(f"{row}: needs at least i,j,rate")
        i = _edge_cell(row, "i", rec[0], int, "a 1-based integer") - 1
        j = _edge_cell(row, "j", rec[1], int, "a 1-based integer") - 1
        rate = _edge_cell(row, "rate", rec[2], float, "a finite number")
        if i < 0 or j < 0:
            raise ValueError(f"{row}: indices are 1-based")
        flag = rec[3].lower() if len(rec) > 3 else ""
        if flag not in ("", "0", "false", "1", "true"):
            raise ValueError(f"{row}: directed flag must be 0, 1, true, "
                             "false or empty")
        edges.append((i, j, rate))
        if flag in ("", "0", "false"):
            edges.append((j, i, rate))
        size = max(size, i + 1, j + 1)
    if n is not None:
        if n < size:
            raise ValueError(f"edge CSV references AS {size} but n={n}")
        size = int(n)
    return TrafficMatrix.from_edges(size, edges, directed=True)


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
    return float(_column_sums(tm.rates, np.array([i]), rows,
                              np.array([True]))[0])


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


# Column sums gather at most this many matrix elements at a time (and at
# least two columns), and the walk subtracts deleted rows in blocks of at
# most this many elements, which bounds their arrays at any n.
_BLOCK_ELEMENTS = 1 << 16


def _column_sums(rates: np.ndarray, cols: np.ndarray, level: np.ndarray,
                 least: np.ndarray) -> np.ndarray:
    """Sum column cols[k] of `rates` over the rows r with level[r] >=
    least[k], adding them one by one in row order, as `critical_traffic`
    sums a set's members.

    The columns are gathered in blocks of at most _BLOCK_ELEMENTS elements,
    and each block is summed down axis 0 under a where-mask of its full
    shape: a broadcast (n, 1) mask on a narrow block lets NumPy reorder the
    reduction.  A block of one column would be a 1-D reduction, which NumPy
    adds pairwise, so a lone column is summed as two copies of itself."""
    width = max(2, _BLOCK_ELEMENTS // rates.shape[0])
    sums = np.empty(len(cols))
    for start in range(0, len(cols), width):
        stop = min(start + width, len(cols))
        ks = np.arange(start, stop)
        if len(ks) == 1:
            ks = ks.repeat(2)
        block = rates[:, cols[ks]].sum(axis=0,
                                       where=level[:, None] >= least[ks])
        sums[start:stop] = block[:stop - start]
    return sums


def _deletion_walk(tm: TrafficMatrix) -> tuple[list[tuple[int, ...]],
                                                list[float]]:
    """Walk from the full set down, deleting the critical members each
    step, and return each step's critical members and exact critical
    traffic.  Step k's set holds the members deleted at step k or later:
    those with step_of >= k, where a member not yet deleted has step_of n.

    Picking the members is the only sequential work.  One running inbound
    vector is kept, with the deleted rows subtracted from it and inf at the
    deleted members, so a step costs O(n) plus the re-summing of tied
    candidates.  Its drift stays below an absolute window sized from the
    largest column sum, so the members within that window of its minimum
    include every true critical member.  A lone candidate is the critical
    member; several are summed again by `_column_sums` over the live rows,
    in member order as `critical_traffic` sums them, and the exact minimum
    and its ties are taken from those sums.  The critical traffic of every
    step is then summed exactly the same way, over each step's set.
    """
    n = tm.n
    rates = tm.rates
    inbound = tm.inbound.copy()  # subtracted from in place below
    window = 1e-9 * inbound.max()
    step_of = np.full(n, n, dtype=np.intp)
    rows = max(1, _BLOCK_ELEMENTS // n)
    crits: list[tuple[int, ...]] = []
    left = n
    while left:
        k = len(crits)
        cand = np.flatnonzero(inbound <= inbound.min() + window)
        if len(cand) > 1:
            exact = _column_sums(rates, cand, step_of,
                                 np.full(len(cand), k))
            cand = cand[exact == exact.min()]
        step_of[cand] = k
        crits.append(tuple(cand.tolist()))
        left -= len(cand)
        for start in range(0, len(cand), rows):
            inbound -= rates[cand[start:start + rows]].sum(axis=0)
        inbound[cand] = np.inf
    first = np.array([c[0] for c in crits], dtype=np.intp)
    nus = _column_sums(rates, first, step_of, np.arange(len(crits)))
    return crits, nus.tolist()


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
    empty, so it does reach S, and S is the walk set where the running
    maximum of critical traffic last rises: the members deleted at that
    step or later.  (This is the threshold peeling behind k-cores.)
    """
    crits, nus = _deletion_walk(tm)
    best, witness = nus[0], None
    for k, nu in enumerate(nus):
        if nu > best:
            best, witness = nu, k
    if witness is None:
        return True, None
    return False, Subset._trusted(tuple(sorted(chain.from_iterable(
        crits[witness:]))))
