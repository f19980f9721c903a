import dataclasses
import tracemalloc

import numpy as np
import pytest

from mutualsec import (
    Environment,
    MonitoringModel,
    Subset,
    TrafficMatrix,
    brute_force_optimal,
    core_periphery_threshold,
    critical_members,
    critical_traffic,
    iterative_deletion,
    optimal_design,
)
from mutualsec import network, strategy
from mutualsec.strategy import IdTrace

from support import (
    REFERENCE_ENV,
    random_feasible_instance,
    reference_deletion_trace,
    reference_instance,
    subset_without,
)


def six_as_instance():
    env = Environment(p_high=0.45, p_low=0.05, c=0.2, beta=0.2)
    mon = MonitoringModel.rational(0.9)
    tm = TrafficMatrix.from_edges(6, [
        (0, 1, 2.0), (1, 2, 1.0), (1, 3, 2.0), (2, 3, 6.0),
        (2, 4, 8.0), (3, 4, 5.0), (3, 5, 12.0), (4, 5, 9.0),
    ])
    return env, mon, tm


class TestIterativeDeletion:
    def test_full_set_optimal_on_complete(self):
        env, mon, tm = reference_instance()
        result = iterative_deletion(env, mon, tm)
        assert result.subset.members == tuple(range(8))
        assert result.design.feasible
        # complete graphs have no subset with larger critical traffic, so
        # everything after the first iteration is skipped
        assert result.evaluations == 1

    def test_six_as_trace(self):
        env, mon, tm = six_as_instance()
        result = iterative_deletion(env, mon, tm)
        trace = result.trace
        assert [it.critical_traffic for it in trace.iterations] == \
            [2.0, 3.0, 14.0, 14.0, 12.0]
        assert [it.critical_ases for it in trace.iterations] == \
            [(0,), (1,), (2,), (4,), (3, 5)]
        assert [it.evaluated for it in trace.iterations] == \
            [True, True, True, False, False]
        assert result.subset.members == (2, 3, 4, 5)
        assert trace.chosen == 2
        evaluated = [it for it in trace.iterations if it.evaluated]
        costs = [it.design.j_star for it in evaluated]
        assert costs[2] < costs[1] < costs[0]
        skipped = [it for it in trace.iterations if not it.evaluated]
        assert all(it.skip_reason for it in skipped)
        assert all(it.design is None for it in skipped)

    def test_warns_when_assumptions_fail(self):
        env, tm = REFERENCE_ENV, TrafficMatrix.complete(8, 1.0)
        sloppy = MonitoringModel.rational(5.0)
        with pytest.warns(UserWarning):
            iterative_deletion(env, sloppy, tm)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            iterative_deletion(env, sloppy, tm, check_assumptions=False)

    def test_falls_back_to_no_deployment(self):
        env = Environment(p_high=0.3, p_low=0.05, c=5.0, beta=0.2)
        mon = MonitoringModel.rational(0.1)
        tm = TrafficMatrix.complete(4, 1.0)
        result = iterative_deletion(env, mon, tm, check_assumptions=False)
        assert result.trace.chosen is None
        assert result.design.feasible
        assert result.design.j_star == pytest.approx(env.p_high * 12.0)
        assert len(result.design.subset) == 0


class TestDeletionTraceReference:
    """The running inbound vector reproduces, field for field, the trace of
    the walk that recomputes every step from scratch."""

    @staticmethod
    def assert_same_trace(tm):
        env, mon = REFERENCE_ENV, MonitoringModel.rational(0.1)
        result = iterative_deletion(env, mon, tm, check_assumptions=False)
        assert result.trace == reference_deletion_trace(env, mon, tm)

    def test_integer_matrices_with_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            rates = rng.integers(0, 4, (40, 40)).astype(float)
            np.fill_diagonal(rates, 0.0)
            self.assert_same_trace(TrafficMatrix(rates))

    def test_tenths_matrices_with_rounded_ties(self):
        # equal decimal sums that round apart by an ulp: the running vector
        # alone would pick the wrong critical members
        rng = np.random.default_rng(11)
        for _ in range(20):
            rates = rng.integers(0, 8, (40, 40)) / 10.0
            np.fill_diagonal(rates, 0.0)
            self.assert_same_trace(TrafficMatrix(rates))

    def test_random_float_matrix(self):
        rng = np.random.default_rng(9)
        rates = rng.uniform(0.5, 1.5, (300, 300))
        np.fill_diagonal(rates, 0.0)
        self.assert_same_trace(TrafficMatrix(rates))

    def test_wide_range_senders(self):
        # a few senders at 1e9 make the low columns small beside the
        # rounding of the large ones
        rng = np.random.default_rng(10)
        for _ in range(10):
            rates = rng.uniform(0.5, 1.5, (60, 60))
            rates[rng.choice(60, size=3, replace=False)] *= 1e9
            np.fill_diagonal(rates, 0.0)
            self.assert_same_trace(TrafficMatrix(rates))


def tied_core_matrix(rng, periphery, x):
    """The periphery's rates, then a core of len(x) + 1 ASs: core AS j
    receives x in row order from the other core ASs (its own zero slotted
    in), so every core AS has the same member-order inbound from the core,
    and the walk deletes the whole core in its last step.  The periphery
    sends to the core and hears nothing from it."""
    p, m = len(periphery), len(x) + 1
    arr = np.zeros((p + m, p + m))
    arr[:p, :p] = periphery
    arr[:p, p:] = rng.permutation(periphery.ravel())[:p * m].reshape(p, m)
    for j in range(m):
        arr[p:, p + j] = np.insert(x, j, 0.0)
    return TrafficMatrix(arr)


class TestLoneLastBlock:
    """The walk sums its steps' critical traffic in blocks of steps.  A
    block of one step is a one-column reduction, which NumPy adds pairwise
    rather than in member order; block sizes are patched here so that the
    last block holds the last step alone, a wide core deleted at once."""

    @staticmethod
    def assert_exact(monkeypatch, tm):
        steps = len(network._deletion_walk(tm)[1])
        assert steps >= 3
        monkeypatch.setattr(network, "_BLOCK_ELEMENTS", (steps - 1) * tm.n)
        env, mon = REFERENCE_ENV, MonitoringModel.rational(0.1)
        trace = iterative_deletion(env, mon, tm, check_assumptions=False).trace
        assert len(trace.iterations) == steps
        assert len(trace.iterations[-1].critical_ases) == 16  # the core
        assert trace == reference_deletion_trace(env, mon, tm)
        for it in trace.iterations:
            assert it.critical_traffic == critical_traffic(tm, it.subset)

    def test_wide_range_senders(self, monkeypatch):
        rng = np.random.default_rng(12)
        for _ in range(10):
            periphery = rng.uniform(0.5, 1.5, (20, 20))
            periphery[rng.choice(20, size=3, replace=False)] *= 1e9
            np.fill_diagonal(periphery, 0.0)
            x = rng.uniform(0.5, 1.5, 15)
            x[rng.choice(15, size=3, replace=False)] *= 1e10
            self.assert_exact(monkeypatch, tied_core_matrix(rng, periphery, x))

    def test_tenths(self, monkeypatch):
        rng = np.random.default_rng(13)
        for _ in range(10):
            periphery = rng.integers(0, 8, (20, 20)) / 10.0
            np.fill_diagonal(periphery, 0.0)
            x = rng.integers(10, 80, 15) / 10.0
            self.assert_exact(monkeypatch, tied_core_matrix(rng, periphery, x))

    def test_tie_split_across_blocks(self, monkeypatch):
        # The core's 16 tied ASs are re-summed in column blocks of 5: three
        # full blocks and a lone last column, summed like the others.
        rng = np.random.default_rng(14)
        env, mon = REFERENCE_ENV, MonitoringModel.rational(0.1)
        for k in range(10):
            if k % 2:  # tenths
                periphery = rng.integers(0, 8, (20, 20)) / 10.0
                x = rng.integers(10, 80, 15) / 10.0
            else:  # wide-range senders
                periphery = rng.uniform(0.5, 1.5, (20, 20))
                periphery[rng.choice(20, size=3, replace=False)] *= 1e9
                x = rng.uniform(0.5, 1.5, 15)
                x[rng.choice(15, size=3, replace=False)] *= 1e10
            np.fill_diagonal(periphery, 0.0)
            tm = tied_core_matrix(rng, periphery, x)
            monkeypatch.setattr(network, "_BLOCK_ELEMENTS", 5 * tm.n)
            trace = iterative_deletion(env, mon, tm,
                                       check_assumptions=False).trace
            assert len(trace.iterations[-1].critical_ases) == 16
            assert trace == reference_deletion_trace(env, mon, tm)


class TestTraceOnRead:
    """The search's trace holds O(n) arrays and builds each step when it
    is read; as a sequence it reads like the tuple of those steps."""

    def test_dense_search_memory(self):
        n = 1000
        rng = np.random.default_rng(72)
        rates = rng.uniform(0.5, 1.5, (n, n))
        rates = (rates + rates.T) / 2.0
        np.fill_diagonal(rates, 0.0)
        tm = TrafficMatrix(rates)
        env, mon = REFERENCE_ENV, MonitoringModel.rational(0.1)
        tracemalloc.start()
        try:
            result = iterative_deletion(env, mon, tm, check_assumptions=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a member tuple per step took 4.6 MB at this size
        assert peak < 2e6
        steps = result.trace.iterations
        assert steps[0].subset == Subset.full(n)
        assert steps[-1].subset.members == steps[-1].critical_ases
        for k in (0, 1, n // 2, -1):
            it = steps[k]
            assert critical_traffic(tm, it.subset) == it.critical_traffic
            assert critical_members(tm, it.subset) == it.critical_ases
            if k != -1:
                assert steps[k + 1].subset == subset_without(
                    it.subset, it.critical_ases)

    def test_reads_like_the_reference_tuple(self):
        env, mon, tm = six_as_instance()
        trace = iterative_deletion(env, mon, tm).trace
        reference = reference_deletion_trace(env, mon, tm)
        steps, expected = trace.iterations, reference.iterations
        assert len(steps) == 5
        assert steps[-1] == expected[-1] and steps[-5] == expected[0]
        assert steps[1:4] == expected[1:4]
        assert steps[::-2] == expected[::-2]
        assert steps[:] == expected and steps[7:] == ()
        for k in (5, -6):
            with pytest.raises(IndexError):
                steps[k]
        assert list(steps) == list(steps) == list(expected)
        assert steps == expected and expected == steps
        assert trace == reference and reference == trace
        assert hash(trace) == hash(reference)

    def test_one_changed_step_differs(self):
        env, mon, tm = six_as_instance()
        trace = iterative_deletion(env, mon, tm).trace
        expected = reference_deletion_trace(env, mon, tm).iterations
        changed = list(expected)
        changed[3] = dataclasses.replace(changed[3], critical_traffic=13.0)
        for other in (IdTrace(tuple(changed), trace.chosen),
                      IdTrace(expected[:-1], trace.chosen),
                      IdTrace(expected, None)):
            assert trace != other and other != trace
        assert trace.iterations != list(expected)  # a list is no trace

    def test_repr_is_the_tuple_repr(self):
        env, mon, tm = six_as_instance()
        first = repr(iterative_deletion(env, mon, tm).trace)
        assert repr(iterative_deletion(env, mon, tm).trace) == first
        assert first == repr(reference_deletion_trace(env, mon, tm))
        assert "np." not in first  # plain floats and ints

    def test_len_builds_no_step(self, monkeypatch):
        env, mon, tm = six_as_instance()
        trace = iterative_deletion(env, mon, tm).trace
        built = []
        monkeypatch.setattr(strategy, "IdIteration",
                            lambda *fields: built.append(fields))
        assert len(trace.iterations) == 5 and built == []
        trace.iterations[2]
        assert len(built) == 1

    def test_no_feasible_design(self):
        env = Environment(p_high=0.3, p_low=0.05, c=5.0, beta=0.2)
        mon = MonitoringModel.rational(0.1)
        tm = TrafficMatrix.from_edges(5, [(0, 1, 1.0), (1, 2, 2.0),
                                          (2, 3, 1.5), (3, 4, 1.0)])
        trace = iterative_deletion(env, mon, tm, check_assumptions=False).trace
        reference = reference_deletion_trace(env, mon, tm)
        assert trace.chosen is None
        assert any(it.evaluated for it in trace.iterations[1:])
        assert trace == reference and reference == trace
        assert repr(trace) == repr(reference)


class TestBruteForce:
    def test_matches_deletion_search(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            env, mon, tm = random_feasible_instance(
                rng, n_hi=8, require_assumptions=True)
            a = iterative_deletion(env, mon, tm).design.j_star
            b = brute_force_optimal(env, mon, tm).design.j_star
            assert a == pytest.approx(b, rel=1e-12)

    def test_cap(self):
        env, mon, _ = reference_instance()
        with pytest.raises(ValueError):
            brute_force_optimal(env, mon, TrafficMatrix.complete(17, 1.0))

    def test_deterministic_tie_break(self):
        # two identical disconnected pairs tie exactly; the reported
        # optimum is the lexicographically first largest subset
        tm = TrafficMatrix.from_edges(4, [(0, 1, 3.0), (2, 3, 3.0)])
        env = Environment(p_high=0.3, p_low=0.05, c=0.1, beta=0.2)
        mon = MonitoringModel.rational(0.05)
        result = brute_force_optimal(env, mon, tm)
        full = optimal_design(env, mon, tm)
        if full.feasible and full.j_star <= result.design.j_star:
            assert result.subset.members == (0, 1, 2, 3)
        else:
            assert result.subset.members == (0, 1)

    def test_counts_evaluations(self):
        env, mon, _ = reference_instance()
        tm = TrafficMatrix.complete(4, 1.0)
        result = brute_force_optimal(env, mon, tm)
        # every nonempty subset plus the no-deployment baseline
        assert result.evaluations == 2 ** 4


class TestCorePeripheryThreshold:
    def test_reference_threshold(self):
        env = Environment(p_high=0.3, p_low=0.05, c=0.3, beta=0.2)
        mon = MonitoringModel.rational(0.4)
        result = core_periphery_threshold(env, mon, periphery_per_core=1,
                                          rate=4.0, k_max=30)
        assert result.k_star == 11
        assert result.n_star == 22
        rows = {r.cores: r for r in result.rows}
        assert rows[11].exact_diff == pytest.approx(0.122128, abs=1e-5)
        assert rows[10].exact_diff < 0
        for r in result.rows:
            if r.exact_diff is not None and r.closed_form_diff is not None:
                assert r.closed_form_diff == pytest.approx(r.exact_diff,
                                                           abs=1e-9)

    def test_never_worth_deploying(self):
        # gap * rate <= c: the periphery never pays for itself, and the
        # crossover is still reported where the core first costs less
        env = Environment(p_high=0.3, p_low=0.05, c=0.3, beta=0.2)
        mon = MonitoringModel.rational(0.4)
        result = core_periphery_threshold(env, mon, periphery_per_core=1,
                                          rate=0.5, k_max=10)
        assert result.k_star == 6
        assert result.n_star == 12
        assert "periphery never pays" in result.note
        cheaper = [r.cores for r in result.rows
                   if r.j_core is not None and r.j_full is None]
        assert cheaper[0] == 6

    def test_no_crossing_in_range(self):
        env = Environment(p_high=0.3, p_low=0.05, c=0.3, beta=0.2)
        mon = MonitoringModel.rational(0.4)
        result = core_periphery_threshold(env, mon, periphery_per_core=1,
                                          rate=4.0, k_max=8)
        assert result.k_star == 0
        assert "no crossover" in result.note

    def test_validation(self):
        env, mon, _ = reference_instance()
        with pytest.raises(ValueError):
            core_periphery_threshold(env, mon, periphery_per_core=0,
                                     rate=1.0, k_max=10)
        with pytest.raises(ValueError):
            core_periphery_threshold(env, mon, periphery_per_core=1,
                                     rate=1.0, k_max=2)
        # a core of K nodes carries at most K - 1 leaves per node
        with pytest.raises(ValueError, match="k_max"):
            core_periphery_threshold(env, mon, periphery_per_core=3,
                                     rate=1.0, k_max=3)

    def test_scan_starts_at_smallest_core_for_l(self):
        # l = 3 leaves per core node need K >= 4: the scan starts there
        env = Environment(p_high=0.3, p_low=0.05, c=0.3, beta=0.2)
        mon = MonitoringModel.rational(0.4)
        result = core_periphery_threshold(env, mon, periphery_per_core=3,
                                          rate=4.0, k_max=30)
        assert [r.cores for r in result.rows] == list(range(4, 31))
        assert [r.n for r in result.rows] == [4 * k for k in range(4, 31)]
        assert result.k_star == 29
        assert result.n_star == 116
        first = result.rows[0]
        tm = TrafficMatrix.restricted_core_periphery(4, 3, 4.0)
        assert first.j_full == optimal_design(env, mon, tm).j_star
        assert first.j_core == optimal_design(
            env, mon, tm, Subset((0, 1, 2, 3))).j_star
        one = core_periphery_threshold(env, mon, periphery_per_core=3,
                                       rate=4.0, k_max=4)
        assert one.rows == result.rows[:1]
