import numpy as np
import pytest

from mutualsec import (
    Subset,
    TrafficMatrix,
    aggregates,
    critical_members,
    critical_traffic,
    has_mct,
    inbound_within,
    load_edge_csv,
    load_matrix_csv,
)

from support import random_connected_matrix


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
        agg = aggregates(tm)
        assert agg.inbound == (8.0,) * 5
        assert agg.outbound == (8.0,) * 5
        assert agg.total == 40.0

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
            agg = aggregates(tm)
            assert sum(agg.inbound) == pytest.approx(sum(agg.outbound))
            assert agg.total == pytest.approx(tm.rates.sum())
            full = Subset.full(n)
            assert critical_traffic(tm, full) <= min(agg.inbound) + 1e-12


def _mct_brute_force(tm):
    """Direct enumeration oracle for the subset-maximality check."""
    n = tm.n
    full_nu = critical_traffic(tm, Subset.full(n))
    for mask in range(1, 2 ** n - 1):
        members = [i for i in range(n) if mask >> i & 1]
        if critical_traffic(tm, Subset.of(members)) > full_nu:
            return False
    return True


class TestMct:
    def test_uniform_topologies_have_it(self):
        for tm in (
            TrafficMatrix.complete(6, 1.0),
            TrafficMatrix.ring_lattice(8, 4, 1.0),
            TrafficMatrix.line(6, 1.0),
            TrafficMatrix.star(6, 1.0),
        ):
            ok, witness = has_mct(tm)
            assert ok
            assert witness is None

    def test_core_periphery_lacks_it(self):
        tm = TrafficMatrix.restricted_core_periphery(4, 1, 1.0)
        ok, witness = has_mct(tm)
        assert not ok
        assert witness.members == (0, 1, 2, 3)

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
            assert ok == _mct_brute_force(tm)
            if not ok:
                seen_false += 1
                full_nu = critical_traffic(tm, Subset.full(n))
                assert critical_traffic(tm, witness) > full_nu
        assert seen_false > 0

    def test_size_limit(self):
        tm = TrafficMatrix.complete(25, 1.0)
        with pytest.raises(ValueError):
            has_mct(tm, limit=20)


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
