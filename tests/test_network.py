import math
import re
import tracemalloc

import numpy as np
import pytest

from mutualsec import (
    MonitoringModel,
    Subset,
    TrafficMatrix,
    critical_members,
    critical_traffic,
    has_mct,
    inbound_within,
    iterative_deletion,
    optimal_design,
)
from mutualsec import network
from mutualsec.network import _inbound_vector, _member_index

from support import (
    REFERENCE_ENV,
    canonical_mct_witness,
    loop_core_periphery,
    random_connected_matrix,
    random_environment,
    random_grid_matrix,
    reference_deletion_trace,
    reference_inbound,
    subset_without,
)


class TestSubset:
    def test_members_sorted_and_unique(self):
        s = Subset.of([3, 1, 2])
        assert s.members == (1, 2, 3)
        with pytest.raises(ValueError):
            Subset.of([1, 1])
        with pytest.raises(ValueError):
            Subset.of([-1])

    def test_range_check(self):
        with pytest.raises(ValueError):
            Subset.of([0, 5], n=4)

    @pytest.mark.parametrize("member", [1.5, 2.0, np.float64(1.0), True,
                                        np.True_, "1", None])
    def test_members_must_be_integers(self, member):
        with pytest.raises(ValueError, match=re.escape(repr(member))):
            Subset((0, member))

    def test_numpy_integer_members(self):
        s = Subset((np.int64(2), np.int32(0)))
        assert s.members == (0, 2)
        assert all(type(m) is int for m in s.members)

    def test_critical_traffic_rejects_fractional_members(self):
        tm = TrafficMatrix.complete(4, 1.0)
        with pytest.raises(ValueError, match="0.4"):
            critical_traffic(tm, [0.4, 1.6, 2.2])

    def test_full_without_contains(self):
        s = Subset.full(4)
        assert s.members == (0, 1, 2, 3)
        assert len(s) == 4
        assert 2 in s
        t = subset_without(s, [1, 3])
        assert t.members == (0, 2)
        assert list(t) == [0, 2]
        assert 3 not in t


class TestTrafficMatrix:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            TrafficMatrix(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            TrafficMatrix(-np.ones((3, 3)) + np.eye(3))
        with pytest.raises(ValueError):
            TrafficMatrix(np.ones((3, 3)))  # nonzero diagonal
        bad = np.zeros((3, 3))
        bad[0, 1] = np.inf
        with pytest.raises(ValueError):
            TrafficMatrix(bad)
        # finite rates whose row sums, or only whose total, overflow
        with pytest.raises(ValueError, match="totals must be finite"):
            TrafficMatrix.complete(3, 1e308)
        with pytest.raises(ValueError, match="totals must be finite"):
            TrafficMatrix(np.roll(np.eye(3), 1, axis=1) * 1e308)

    @pytest.mark.parametrize("cell, value, message", [
        ((0, 1), np.nan, "traffic rates must be finite"),
        ((1, 0), -np.inf, "traffic rates must be finite"),
        ((0, 1), -1e-300, "traffic rates must be non-negative"),
        ((2, 2), 1e-300, "traffic matrix diagonal must be zero"),
        ((2, 2), -1.0, "traffic rates must be non-negative"),
        ((2, 2), np.inf, "traffic rates must be finite"),
    ])
    def test_each_check_names_its_fault(self, cell, value, message):
        rates = np.ones((3, 3)) - np.eye(3)
        rates[cell] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            TrafficMatrix(rates)

    def test_negative_zero_diagonal_passes(self):
        rates = np.ones((3, 3))
        np.fill_diagonal(rates, -0.0)
        tm = TrafficMatrix(rates)
        assert tm.rates.diagonal().tolist() == [0.0] * 3
        assert tm.inbound.tolist() == [2.0] * 3

    def test_rates_are_read_only(self):
        tm = TrafficMatrix.complete(3, 1.0)
        with pytest.raises(ValueError):
            tm.rates[0, 1] = 9.0

    def test_stored_sums(self):
        rng = np.random.default_rng(11)
        for n in (2, 7, 12, 64):
            arr = rng.uniform(0.0, 3.0, (n, n)) * (1 - np.eye(n))
            # a column-major input is stored row-major like any other
            for tm in (TrafficMatrix(arr), TrafficMatrix(np.asfortranarray(arr))):
                assert np.array_equal(tm.outbound, tm.rates.sum(axis=1))
                assert np.array_equal(tm.inbound, tm.rates.sum(axis=0))
                with pytest.raises(ValueError):
                    tm.outbound[0] = 9.0
                with pytest.raises(ValueError):
                    tm.inbound[0] = 9.0

    def test_searches_leave_stored_sums_alone(self):
        # the deletion walk subtracts from a copy of the column sums
        rng = np.random.default_rng(12)
        tm = random_grid_matrix(rng, 12)
        before = tm.inbound.copy()
        has_mct(tm)
        env = random_environment(rng, float(before.min()) + 1.0)
        iterative_deletion(env, MonitoringModel.rational(0.1), tm,
                           check_assumptions=False)
        assert np.array_equal(tm.inbound, before)
        assert np.array_equal(tm.inbound, tm.rates.sum(axis=0))

    def test_from_edges_symmetric_default(self):
        tm = TrafficMatrix.from_edges(3, [(0, 1, 2.0), (1, 2, 0.5)])
        assert tm.rates[0, 1] == 2.0
        assert tm.rates[1, 0] == 2.0
        assert tm.rates[2, 1] == 0.5

    def test_from_edges_directed(self):
        tm = TrafficMatrix.from_edges(3, [(0, 1, 2.0)], directed=True)
        assert tm.rates[0, 1] == 2.0
        assert tm.rates[1, 0] == 0.0
        with pytest.raises(ValueError):
            TrafficMatrix.from_edges(3, [(0, 0, 1.0)])
        with pytest.raises(ValueError):
            TrafficMatrix.from_edges(3, [(0, 3, 1.0)])

    def test_complete_aggregates(self):
        tm = TrafficMatrix.complete(5, 2.0)
        assert tm.inbound.tolist() == [8.0] * 5
        assert tm.outbound.tolist() == [8.0] * 5
        assert tm.outbound.sum() == 40.0

    def test_ring_lattice(self):
        tm = TrafficMatrix.ring_lattice(6, 4, 1.0)
        assert np.allclose(tm.rates.sum(axis=0), 4.0)
        assert tm.rates[0, 3] == 0.0  # opposite node is beyond degree // 2
        with pytest.raises(ValueError):
            TrafficMatrix.ring_lattice(6, 3, 1.0)
        with pytest.raises(ValueError):
            TrafficMatrix.ring_lattice(4, 4, 1.0)

    @pytest.mark.parametrize("n", range(2, 40))
    def test_generators_match_entry_by_entry_fills(self, n):
        rate = 2.5
        line = np.zeros((n, n))
        for i in range(n - 1):
            line[i, i + 1] = line[i + 1, i] = rate
        star = np.zeros((n, n))
        for j in range(1, n):
            star[0, j] = star[j, 0] = rate
        assert TrafficMatrix.line(n, rate).rates.tobytes() == line.tobytes()
        assert TrafficMatrix.star(n, rate).rates.tobytes() == star.tobytes()
        for degree in range(2, n, 2):
            ring = np.zeros((n, n))
            for i in range(n):
                for j in range(n):
                    gap = (j - i) % n
                    if i != j and min(gap, n - gap) <= degree // 2:
                        ring[i, j] = rate
            got = TrafficMatrix.ring_lattice(n, degree, rate)
            assert got.rates.tobytes() == ring.tobytes(), degree

    def test_repr(self):
        assert repr(TrafficMatrix.line(5, 1.0)) == "TrafficMatrix(n=5)"

    def test_line_and_star(self):
        line = TrafficMatrix.line(4, 1.0)
        assert list(line.rates.sum(axis=0)) == [1.0, 2.0, 2.0, 1.0]
        star = TrafficMatrix.star(5, 3.0)
        assert star.rates.sum(axis=0)[0] == 12.0
        assert list(star.rates.sum(axis=0)[1:]) == [3.0] * 4

    def test_core_periphery_shape(self):
        tm = TrafficMatrix.restricted_core_periphery(4, 2, 1.5)
        assert tm.n == 12
        inbound = tm.rates.sum(axis=0)
        # cores: 3 core links + 2 leaves; leaves: 1 link
        assert np.allclose(inbound[:4], 5 * 1.5)
        assert np.allclose(inbound[4:], 1.5)
        with pytest.raises(ValueError):
            TrafficMatrix.restricted_core_periphery(2, 1, 1.0)
        with pytest.raises(ValueError):
            TrafficMatrix.restricted_core_periphery(4, 4, 1.0)

    @pytest.mark.parametrize("k", range(3, 13))
    def test_core_periphery_matches_loop(self, k):
        for l in range(k):
            tm = TrafficMatrix.restricted_core_periphery(k, l, 0.3)
            assert np.array_equal(tm.rates, loop_core_periphery(k, l, 0.3))


class TestTrafficAnalysis:
    def test_inbound_within_membership(self):
        tm = TrafficMatrix.complete(4, 1.0)
        p = Subset.of([0, 1, 2])
        assert inbound_within(tm, p, 0) == 2.0
        with pytest.raises(ValueError):
            inbound_within(tm, p, 3)

    def test_inbound_within_matches_critical_traffic(self):
        # both add the members' rates in member order, so ic_check tests
        # the binding AS at the value its design was priced at
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(9, 40))
            tm = TrafficMatrix(rng.uniform(0.0, 1.0, (n, n)) * (1 - np.eye(n)))
            p = Subset.of(np.flatnonzero(rng.random(n) < 0.8).tolist() or [0, 1])
            for k in critical_members(tm, p):
                assert inbound_within(tm, p, k) == critical_traffic(tm, p)

    @pytest.mark.parametrize("n", [2, 7, 12, 64])
    def test_row_gather_matches_block_sums(self, n):
        # gathering the member rows and then picking the member columns
        # adds each column in member order, as the k x k block's sum does
        rng = np.random.default_rng(n)
        arr = rng.uniform(0.0, 3.0, (n, n)) * (1 - np.eye(n))
        if n > 2:
            arr[rng.random((n, n)) < 0.3] = 0.0
        tm = TrafficMatrix(np.asfortranarray(arr) if n == 12 else arr)
        everyone = list(range(n))
        subsets = [everyone, [0], [n - 1], everyone[1:], everyone[:-1],
                   everyone[::2], everyone[1::3] or [1]]
        subsets += [[i for i in everyone if i != k] for k in range(0, n, 5)]
        subsets += [sorted(rng.choice(n, size=int(rng.integers(1, n + 1)),
                                      replace=False).tolist())
                    for _ in range(20)]
        env = random_environment(rng, float(tm.inbound.min()))
        mon = MonitoringModel.rational(0.05)
        priced = 0
        for members in subsets:
            p = Subset.of(members, n)
            ref = reference_inbound(tm, p.members)
            assert np.array_equal(_inbound_vector(tm, _member_index(tm, p)), ref)
            assert critical_traffic(tm, p) == float(ref.min())
            assert critical_members(tm, p) == tuple(
                m for m, v in zip(p.members, ref) if v == ref.min())
            result = optimal_design(env, mon, tm, p)
            assert result.binding_as in (None, p.members[int(np.argmin(ref))])
            if result.feasible:
                priced += 1
                # outbound totals add the members one by one, in order
                outbound = tm.rates.sum(axis=1)
                mu_in = float(np.add.accumulate(outbound[list(p.members)])[-1])
                mu_out = float(np.add.accumulate(outbound)[-1]) - mu_in
                nu = float(ref.min())
                j = (env.p_low + result.g_star * env.c / nu) * mu_in \
                    + env.p_high * mu_out + len(p) * env.c
                assert result.j_star == j
        assert priced > 0

    def test_gather_copies_no_member_rows(self):
        # Pricing a set takes n-long temporaries only, whatever its size, so
        # the deletion walk's peak memory does not hinge on which sets it
        # prices.  A copy of the member rows would take k * n floats.
        n = 400
        tm = random_connected_matrix(np.random.default_rng(5), n)
        idx = _member_index(tm, subset_without(Subset.full(n), [7]))
        _inbound_vector(tm, idx)
        tracemalloc.start()
        try:
            _inbound_vector(tm, idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * 8

    def test_critical_traffic_complete(self):
        tm = TrafficMatrix.complete(6, 2.0)
        assert critical_traffic(tm, Subset.full(6)) == 10.0
        assert critical_members(tm, Subset.full(6)) == (0, 1, 2, 3, 4, 5)
        assert critical_traffic(tm, Subset.of([0, 1])) == 2.0

    def test_critical_traffic_empty_raises(self):
        tm = TrafficMatrix.complete(3, 1.0)
        with pytest.raises(ValueError):
            critical_traffic(tm, Subset.of([]))

    def test_critical_members_empty_raises(self):
        tm = TrafficMatrix.complete(3, 1.0)
        with pytest.raises(ValueError, match="undefined for the empty subset"):
            critical_members(tm, [])

    def test_critical_traffic_member_out_of_range(self):
        tm = TrafficMatrix.complete(4, 1.0)
        with pytest.raises(ValueError, match="subset member out of range"):
            critical_traffic(tm, Subset((0, 9)))

    def test_critical_members_line(self):
        tm = TrafficMatrix.line(4, 1.0)
        assert critical_members(tm, Subset.full(4)) == (0, 3)

    def test_conservation_random(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            tm = random_connected_matrix(rng, n)
            assert tm.inbound.sum() == pytest.approx(tm.outbound.sum())
            assert tm.outbound.sum() == pytest.approx(tm.rates.sum())
            full = Subset.full(n)
            assert critical_traffic(tm, full) <= tm.inbound.min() + 1e-12


class TestMct:
    def test_uniform_topologies_have_it(self):
        for tm in (
            TrafficMatrix.complete(6, 1.0),
            TrafficMatrix.ring_lattice(8, 4, 1.0),
            TrafficMatrix.line(6, 1.0),
            TrafficMatrix.star(6, 1.0),
            TrafficMatrix.complete(200, 1.0),
            TrafficMatrix.ring_lattice(500, 6, 0.1),
            TrafficMatrix.line(300, 0.1),
            TrafficMatrix.star(400, 0.1),
        ):
            ok, witness = has_mct(tm)
            assert ok
            assert witness is None

    def test_core_periphery_lacks_it(self):
        for cores, leaves in ((4, 1), (500, 3)):
            tm = TrafficMatrix.restricted_core_periphery(cores, leaves, 1.0)
            ok, witness = has_mct(tm)
            assert not ok
            assert witness == Subset.full(cores)

    def test_wide_tie_gathers_bounded_blocks(self):
        # The walk's first step ties all 1,500 periphery ASs.  Their exact
        # re-sum gathers the matrix in bounded column blocks and subtracts
        # their rows in bounded row blocks, not the whole 2000 x 1500
        # block (48 MB beside this 32 MB matrix).
        tm = TrafficMatrix.restricted_core_periphery(500, 3, 1.0)
        tracemalloc.start()
        try:
            result = has_mct(tm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result == (False, Subset.full(500))
        assert peak <= 4e6

    def test_square_examples(self):
        def square(a, b):
            return TrafficMatrix.from_edges(
                4, [(0, 1, a), (0, 3, a), (1, 2, b), (2, 3, b)])

        ok, witness = has_mct(square(2.0, 3.0))
        assert ok and witness is None
        ok, witness = has_mct(square(1.0, 3.0))
        assert not ok
        assert witness.members == (1, 2, 3)

    def test_matches_direct_enumeration(self):
        rng = np.random.default_rng(21)
        seen_false = 0
        for _ in range(25):
            n = int(rng.integers(3, 8))
            tm = random_connected_matrix(rng, n, lo=0.2, hi=5.0)
            ok, witness = has_mct(tm)
            assert (ok, witness) == canonical_mct_witness(tm)
            if not ok:
                seen_false += 1
                full_nu = critical_traffic(tm, Subset.full(n))
                assert critical_traffic(tm, witness) > full_nu
        assert seen_false > 0

    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_canonical_witness(self, n):
        # grid rates tie exactly; 0.1-multiples and random floats tie only
        # up to rounding, which the verdict must not smooth over
        rng = np.random.default_rng(40 + n)
        cases = [
            random_grid_matrix(rng, n),
            random_grid_matrix(rng, n, density=0.9),
            random_connected_matrix(rng, n, lo=0.2, hi=5.0),
            TrafficMatrix(rng.uniform(0.0, 1.0, (n, n)) * (1 - np.eye(n))),
            TrafficMatrix.line(n, 0.1),
            TrafficMatrix.star(n, 0.1),
        ]
        for tm in cases:
            assert has_mct(tm) == canonical_mct_witness(tm)

    @pytest.mark.parametrize("n", [40, 120, 300])
    def test_matches_reference_walk(self, n):
        # the witness is the reference walk's set where its critical
        # traffic last rises strictly above every earlier value; a sender
        # that sends the same rate to everyone makes the full set's
        # critical member the largest sender, and the matrix has MCT.  The
        # deletion search's trace, whose sets drop several tied members at
        # once on the integer and tenths matrices, is the reference's too.
        rng = np.random.default_rng(60 + n)
        env, mon = REFERENCE_ENV, MonitoringModel.rational(0.1)
        verdicts = set()
        widest = 0
        for rates in (rng.integers(0, 4, (n, n)).astype(float),
                      rng.integers(0, 8, (n, n)) / 10.0,
                      rng.uniform(0.0, 1.0, (n, n)),
                      rng.uniform(0.5, 1.5, (n, 1)).repeat(n, axis=1)):
            np.fill_diagonal(rates, 0.0)
            tm = TrafficMatrix(rates)
            reference = reference_deletion_trace(env, mon, tm)
            steps = reference.iterations
            best, witness = steps[0].critical_traffic, None
            for it in steps[1:]:
                if it.critical_traffic > best:
                    best, witness = it.critical_traffic, it.subset
            assert has_mct(tm) == (witness is None, witness)
            verdicts.add(witness is None)
            assert iterative_deletion(env, mon, tm,
                                      check_assumptions=False).trace == reference
            widest = max(widest, *(len(it.critical_ases) for it in steps))
        assert verdicts == {True, False}
        assert widest > 1

    def test_near_tie_follows_definition(self):
        # the subset's critical traffic is 1.1, the full set's
        # 1.0999999999999999: a violation by the definition
        tm = TrafficMatrix([
            [0, .1, 0, .3, .1, .7, 0], [.1, 0, 0, 0, .7, .2, .1],
            [0, 0, 0, .7, 0, .2, .2], [.3, 0, .7, 0, 0, .2, .7],
            [.1, .7, 0, 0, 0, .3, .7], [.7, .2, .2, .2, .3, 0, .7],
            [0, .1, .2, .7, .7, .7, 0],
        ])
        witness = Subset.of([0, 1, 3, 4, 5, 6])
        assert critical_traffic(tm, witness) > critical_traffic(
            tm, Subset.full(7))
        assert has_mct(tm) == (False, witness)

    def test_block_rounding_keeps_violation(self):
        # n=14 splits into 10 low and 4 high members.  AS 0's inbound adds
        # 1.0 and four rates just over half an ulp: in member order it
        # rounds up to 1+4u, but the block adds the four high rates first
        # and reads 1+2u, below the full set's 1+3u (AS 1).  Every subset
        # holding AS 0, AS 2 and all high members, but not AS 1, violates.
        n, u = 14, 2.0 ** -52
        rates = np.zeros((n, n))
        rates[0, 1], rates[0, 2:] = 1 + 3 * u, 5.0
        rates[2, 0] = 1.0
        rates[10:, 0] = 0.51 * u
        tm = TrafficMatrix(rates)
        expected = (False, subset_without(Subset.full(n), [1]))
        assert canonical_mct_witness(tm) == expected
        assert has_mct(tm) == expected


class TestDeletionWalkSteps:
    """A walk step whose running minimum stands alone in the drift window
    takes its critical member straight from the running vector; only a
    step with several members in the window re-sums them exactly.  Every
    step's critical traffic is then summed in one final `_column_sums`
    call."""

    @staticmethod
    def count_calls(monkeypatch, name):
        """Record the number of columns each call to network.<name> sums:
        the length of its last argument."""
        calls = []
        summed = getattr(network, name)

        def counted(*args):
            calls.append(len(args[-1]))
            return summed(*args)

        monkeypatch.setattr(network, name, counted)
        return calls

    @staticmethod
    def critical_sets(step_of, steps):
        """Each step's critical members: those deleted at that step."""
        return [tuple(np.flatnonzero(step_of == k).tolist())
                for k in range(steps)]

    def test_tie_free_walk_sums_once(self, monkeypatch):
        # every step of a dense tie-free walk has a lone candidate, so no
        # step re-sums and the only sum is the final pass over all 200
        # columns (not symmetric rates, whose last two members tie)
        rng = np.random.default_rng(70)
        rates = rng.uniform(0.5, 1.5, (200, 200))
        np.fill_diagonal(rates, 0.0)
        tm = TrafficMatrix(rates)
        calls = self.count_calls(monkeypatch, "_column_sums")
        step_of, nus = network._deletion_walk(tm)
        assert calls == [200]
        assert not step_of.flags.writeable and not nus.flags.writeable
        crits = self.critical_sets(step_of, len(nus))
        assert all(len(c) == 1 for c in crits)
        env, mon = REFERENCE_ENV, MonitoringModel.rational(0.1)
        reference = reference_deletion_trace(env, mon, tm).iterations
        assert crits == [it.critical_ases for it in reference]
        assert nus.tolist() == [it.critical_traffic for it in reference]

    def test_drifted_pair_is_summed_again(self, monkeypatch):
        # Once AS 4 is deleted, the running vector reads 0.8 for AS 1 and
        # 0.7999999999999999 for AS 2, but summed in member order over
        # {0, 1, 2, 3} AS 1 has 0.7 + 0.1 = 0.7999999999999999 and AS 2
        # has 0.6 + 0.2 = 0.8.  Both lie within the window (1e-9 of AS 0's
        # 1000), so that step re-sums them and deletes AS 1 alone, not the
        # running vector's minimum AS 2.
        rates = np.zeros((5, 5))
        rates[0, 4] = 0.05
        rates[4, 1], rates[4, 2] = 0.2, 0.6
        rates[3, 1], rates[3, 2] = 0.1, 0.2
        rates[0, 1], rates[0, 2] = 0.7, 0.6
        rates[3, 0], rates[0, 3] = 1000.0, 50.0
        tm = TrafficMatrix(rates)
        live = Subset((0, 1, 2, 3))
        assert inbound_within(tm, live, 1) < inbound_within(tm, live, 2)
        running = tm.inbound - rates[4]
        assert running[2] < running[1]
        calls = self.count_calls(monkeypatch, "_column_sums")
        step_of, nus = network._deletion_walk(tm)
        assert self.critical_sets(step_of, len(nus)) == [
            (4,), (1,), (2,), (3,), (0,)]
        # the pair's re-sum, then the final pass over every column
        assert calls == [2, 5]
        env, mon = REFERENCE_ENV, MonitoringModel.rational(0.1)
        assert iterative_deletion(env, mon, tm, check_assumptions=False
                                  ).trace == reference_deletion_trace(
                                      env, mon, tm)

    @pytest.mark.parametrize("width", [2, 3, 13, None])
    def test_column_sums_add_rows_in_order(self, monkeypatch, width):
        # Every column of 60, and 40 of them: an adjacent run of 20, runs
        # and single columns between gaps, and a lone last column.  In
        # blocks of 2, 3 (a lone last block, read twice), 13 (the same) or
        # one block, adjacent columns are read as slices, the rest
        # gathered.  The last column is summed over every row, and with
        # rates from 1e-8 to 1e8 NumPy's pairwise 1-D sum of it differs
        # from the in-order one, as a lone (60, 1) block would read.
        # Columns of -0.0 rates, one in a run and one between gaps, sum to
        # +0.0, as the in-order loop does.
        n = 60
        rng = np.random.default_rng(74)
        rates = 10.0 ** rng.uniform(-8, 8, (n, n))
        rates[:, [5, 44]] = -0.0
        level = rng.integers(0, 12, n)
        level[-1] = 0
        if width is not None:
            monkeypatch.setattr(network, "_BLOCK_ELEMENTS", width * n)
        expected = []
        for c in range(n):
            total = 0.0
            for r in range(n):
                if level[r] >= level[c]:
                    total += rates[r, c]
            expected.append(total.hex())
        assert rates[:, -1].sum().hex() != expected[-1]
        assert expected[5] == expected[44] == (0.0).hex()
        mixed = np.r_[0:20, 22, 25, 27:36, 40, 44, 47, 50, 51, 53, 55, 57,
                      n - 1]
        assert len(mixed) == 40
        for cols in (np.arange(n), mixed):
            sums = network._column_sums(rates, level, cols)
            assert [x.hex() for x in sums.tolist()] == [
                expected[c] for c in cols]

    @pytest.mark.parametrize("cores, leaves", [(4, 2), (60, 3)])
    def test_tied_core_periphery_walk(self, monkeypatch, cores, leaves):
        # In blocks of 7 columns the first step's tied leaves (columns
        # cores.. n-1) are read as slices, with a lone last leaf gathered
        # at cores 4; the second step's tied core as slices; and the final
        # pass, over the first leaf and the first core, as one gathered
        # block.
        tm = TrafficMatrix.restricted_core_periphery(cores, leaves, 0.1)
        monkeypatch.setattr(network, "_BLOCK_ELEMENTS", 7 * tm.n)
        calls = self.count_calls(monkeypatch, "_column_sums")
        step_of, nus = network._deletion_walk(tm)
        assert calls == [cores * leaves, cores, 2]
        env, mon = REFERENCE_ENV, MonitoringModel.rational(0.1)
        reference = reference_deletion_trace(env, mon, tm)
        steps = reference.iterations
        assert self.critical_sets(step_of, len(nus)) == [
            it.critical_ases for it in steps]
        assert [nu.hex() for nu in nus.tolist()] == [
            it.critical_traffic.hex() for it in steps]
        assert iterative_deletion(env, mon, tm, check_assumptions=False
                                  ).trace == reference
        # the core is the witness; direct enumeration runs at 12 ASs only
        expected = (False, Subset(tuple(range(cores))))
        if tm.n <= 12:
            assert canonical_mct_witness(tm) == expected
        assert has_mct(tm) == expected

    @pytest.mark.parametrize("n", [300, 600])
    def test_sliced_walk_matches_reference(self, n):
        # dense rates at n = 300 and 600 span 2 and 6 slices of the final
        # pass; integer rates tie many members at a step
        rng = np.random.default_rng(73 + n)
        env, mon = REFERENCE_ENV, MonitoringModel.rational(0.1)
        widest = []
        for rates in (rng.uniform(0.5, 1.5, (n, n)),
                      rng.integers(0, 4, (n, n)).astype(float)):
            np.fill_diagonal(rates, 0.0)
            tm = TrafficMatrix(rates)
            reference = reference_deletion_trace(env, mon, tm)
            step_of, nus = network._deletion_walk(tm)
            steps = reference.iterations
            crits = self.critical_sets(step_of, len(nus))
            assert crits == [it.critical_ases for it in steps]
            widest.append(max(map(len, crits)))
            assert [nu.hex() for nu in nus.tolist()] == [
                it.critical_traffic.hex() for it in steps]
            assert iterative_deletion(env, mon, tm, check_assumptions=False
                                      ).trace == reference
        assert widest[0] == 1 and widest[1] > 1


def loop_record_levels(nus):
    """The steps where the running maximum rises and that maximum, by the
    loop the deletion search and has_mct once ran."""
    levels, best, running = [], -math.inf, []
    for k, nu in enumerate(nus):
        if nu > best:
            best = nu
            levels.append(k)
        running.append(best)
    return levels, running


def test_record_levels_match_loop():
    # tie-heavy walks: equal critical traffic at many steps, so "strictly
    # exceeds" and "at least" pick different steps
    rng = np.random.default_rng(71)
    matrices = []
    for scale in (1.0, 10.0):  # integers, then tenths
        for _ in range(10):
            rates = rng.integers(0, 4, (30, 30)) / scale
            np.fill_diagonal(rates, 0.0)
            matrices.append(rates)
    for _ in range(10):  # one column repeated: every AS hears the same
        column = rng.integers(0, 3, 30) / 10.0
        rates = np.tile(column[:, None], (1, 30))
        np.fill_diagonal(rates, 0.0)
        matrices.append(rates)
    for rates in matrices:
        _, nus = network._deletion_walk(TrafficMatrix(rates))
        levels, best = network._record_levels(nus)
        assert (levels.tolist(), best.tolist()) == loop_record_levels(
            nus.tolist())
    levels, best = network._record_levels(np.array([2.0, 2.0, 3.0, 1.0, 3.0]))
    assert levels.tolist() == [0, 2]
    assert best.tolist() == [2.0, 2.0, 3.0, 3.0, 3.0]
