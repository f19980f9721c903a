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
    load_edge_csv,
    load_matrix_csv,
    optimal_design,
)
from mutualsec.network import _inbound_vector, _member_index

from support import (
    REFERENCE_ENV,
    canonical_mct_witness,
    random_connected_matrix,
    random_environment,
    random_grid_matrix,
    reference_deletion_trace,
    reference_inbound,
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

    def test_full_without_contains(self):
        s = Subset.full(4)
        assert s.members == (0, 1, 2, 3)
        assert len(s) == 4
        assert 2 in s
        t = s.without([1, 3])
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
                outbound = tm.rates.sum(axis=1)
                mu_in = float(outbound[np.array(p.members)].sum())
                mu_out = float(outbound.sum()) - mu_in
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
        idx = _member_index(tm, Subset.full(n).without([7]))
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
        # critical member the largest sender, and the matrix has MCT
        rng = np.random.default_rng(60 + n)
        env, mon = REFERENCE_ENV, MonitoringModel.rational(0.1)
        verdicts = set()
        for rates in (rng.integers(0, 4, (n, n)).astype(float),
                      rng.integers(0, 8, (n, n)) / 10.0,
                      rng.uniform(0.0, 1.0, (n, n)),
                      rng.uniform(0.5, 1.5, (n, 1)).repeat(n, axis=1)):
            np.fill_diagonal(rates, 0.0)
            tm = TrafficMatrix(rates)
            steps = reference_deletion_trace(env, mon, tm).iterations
            best, witness = steps[0].critical_traffic, None
            for it in steps[1:]:
                if it.critical_traffic > best:
                    best, witness = it.critical_traffic, it.subset
            assert has_mct(tm) == (witness is None, witness)
            verdicts.add(witness is None)
        assert verdicts == {True, False}

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
        expected = (False, Subset.full(n).without([1]))
        assert canonical_mct_witness(tm) == expected
        assert has_mct(tm) == expected


class TestCsvRoundTrip:
    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        tm = random_connected_matrix(rng, 5)
        path = tmp_path / "m.csv"
        tm.to_csv(path)
        assert load_matrix_csv(path) == tm

    def test_edge_csv(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("i,j,rate\n1,2,2.5\n2,3,1.0\n")
        tm = load_edge_csv(path)
        assert tm.n == 3
        assert tm.rates[0, 1] == 2.5
        assert tm.rates[1, 0] == 2.5

    def test_edge_csv_directed_flag_and_n(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("1,2,2.5,1\n2,3,1.0,0\n")
        tm = load_edge_csv(path, n=4)
        assert tm.n == 4
        assert tm.rates[0, 1] == 2.5
        assert tm.rates[1, 0] == 0.0
        assert tm.rates[2, 1] == 1.0
        with pytest.raises(ValueError):
            load_edge_csv(path, n=2)

    def test_edge_csv_rejects_zero_index(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("0,1,2.0\n")
        with pytest.raises(ValueError):
            load_edge_csv(path)

    def test_edge_csv_flag_spellings(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("1,2,1.0,TRUE\n2,3,2.0,FALSE\n3,4,3.0,\n4,1,4.0,True\n")
        tm = load_edge_csv(path)
        assert (tm.rates[0, 1], tm.rates[1, 0]) == (1.0, 0.0)
        assert (tm.rates[1, 2], tm.rates[2, 1]) == (2.0, 2.0)
        assert (tm.rates[2, 3], tm.rates[3, 2]) == (3.0, 3.0)
        assert (tm.rates[3, 0], tm.rates[0, 3]) == (4.0, 0.0)
        path.write_text("1,2,1.0,0\n2,3,2.0,no\n")
        with pytest.raises(ValueError, match="2,3,2.0,no"):
            load_edge_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("1.5,2,1.0", "row '1.5,2,1.0': column i must be a 1-based integer"),
        ("1,x,1.0", "row '1,x,1.0': column j must be a 1-based integer"),
        ("1,2,abc", "row '1,2,abc': column rate must be a finite number"),
        ("1,2,nan", "row '1,2,nan': column rate must be a finite number"),
        ("1,2,-inf", "row '1,2,-inf': column rate must be a finite number"),
        ("0,2,1.0", "row '0,2,1.0': indices are 1-based"),
        ("1,2", "row '1,2': needs at least i,j,rate"),
    ])
    def test_edge_csv_names_row_and_column(self, tmp_path, row, message):
        path = tmp_path / "e.csv"
        path.write_text(f"1,3,1.0\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_edge_csv(path)

    def test_edge_csv_bad_first_row_is_not_a_header(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("x,2,1.0\n2,3,1.0\n")
        with pytest.raises(ValueError, match="row 'x,2,1.0': column i"):
            load_edge_csv(path)
