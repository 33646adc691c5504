"""Unit tests for the brute-force oracle, including matching-invariance checks."""

import random
from array import array

import pytest

from k4rel import closed_form as cf
from k4rel import cube_graph as cg
from k4rel import oracle as oc


def member(n, seed=None):
    if seed is None:
        return cg.canonical_member(n)
    return cg.build_k4cube(cg.random_matching_tree(n, seed))


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            oc.OracleBudget(max_n_exhaustive=0)
        with pytest.raises(ValueError):
            oc.OracleBudget(node_limit=0)

    def test_node_limit_raises(self):
        tight = oc.OracleBudget(max_n_exhaustive=3, node_limit=10)
        with pytest.raises(oc.BudgetExceededError):
            oc.brute_ex(member(4), 6, tight)

    def test_node_limit_raises_in_xi(self):
        tight = oc.OracleBudget(max_n_exhaustive=3, node_limit=10)
        with pytest.raises(oc.BudgetExceededError):
            oc.brute_xi(member(4), 6, tight)

    def test_budget_failure_searched_once(self, monkeypatch):
        # ex and xi at one m share a search, also one that ran out of budget
        started = []

        class Counting(oc._NodeCounter):
            def __init__(self, limit):
                started.append(limit)
                super().__init__(limit)

        monkeypatch.setattr(oc, "_NodeCounter", Counting)
        oc._connected_search.cache_clear()
        tight = oc.OracleBudget(max_n_exhaustive=3, node_limit=10)
        with pytest.raises(oc.BudgetExceededError):
            oc.brute_ex(member(4), 7, tight)
        with pytest.raises(oc.BudgetExceededError):
            oc.brute_xi(member(4), 7, tight)
        assert started == [10]

    def test_subset_size_cap(self):
        small = oc.OracleBudget(max_n_exhaustive=3, max_subset_size_bounded=4)
        with pytest.raises(oc.BudgetExceededError):
            oc.brute_ex(member(4), 5, small)
        with pytest.raises(oc.BudgetExceededError):
            oc.brute_xi(member(4), 5, small)

    def test_unconstrained_needs_exhaustive(self):
        with pytest.raises(oc.BudgetExceededError):
            oc.brute_xi_unconstrained(member(5), 2)


class TestBoundedMode:
    def test_agrees_with_exhaustive_on_the_same_graphs(self):
        bounded = oc.OracleBudget(max_n_exhaustive=3)
        for seed in (None, 1, 2, 3):
            g = member(4, seed)
            for m in range(0, 11):
                assert oc.brute_ex(g, m, bounded) == oc.brute_ex(g, m), (seed, m)
            for m in range(1, 9):
                assert oc.brute_xi(g, m, bounded) == oc.brute_xi(g, m), (seed, m)
            assert oc.brute_cyclic(g, bounded) == oc.brute_cyclic(g), seed

    def test_finds_optima_the_canonical_set_misses(self):
        # relabelled at random, the first m labels no longer seed the optimum
        g = member(4, 5)
        perm = random.Random(9).sample(range(16), 16)
        rows = [None] * 16
        for u in range(16):
            rows[perm[u]] = [perm[v] for v in g.row(u)]
        neighbours = array("I", [v for row in rows for v in row]).tobytes()
        shuffled = cg.CubeGraph(n=4, kind="shuffled", neighbours=neighbours)
        for u in range(16):  # the same relabelled member as a bitmask relabelling gives
            assert shuffled.adjacency[perm[u]] == cg.subset_mask(
                perm[v] for v in range(16) if (g.adjacency[u] >> v) & 1)
        bounded = oc.OracleBudget(max_n_exhaustive=3)
        seeds = [cg.canonical_set(m, 4) for m in range(11)]
        assert any(2 * cg.induced_edge_count(shuffled, s) < cf.f_value(len(s)) for s in seeds)
        for m in range(0, 11):
            assert oc.brute_ex(shuffled, m, bounded) == cf.f_value(m), m
        for m in range(1, 9):
            assert oc.brute_xi(shuffled, m, bounded) == cf.xi_h4(m, 4), m
        with pytest.raises(RuntimeError):  # the bounded cyclic cut seeds from a K4 at 0..3
            oc.brute_cyclic(shuffled, bounded)


class TestDensestSubset:
    def test_frozen_values(self):
        g = member(4)
        assert oc.brute_ex(g, 15) == 70
        assert oc.brute_ex(g, 4) == 12
        assert oc.brute_ex(g, 1) == 0
        assert oc.brute_ex(g, 0) == 0

    def test_matches_f_on_many_members(self):
        for n in (3, 4):
            for seed in (None, 1, 2, 3, 4, 5):
                g = member(n, seed)
                for m in range(0, (1 << n) + 1):
                    assert oc.brute_ex(g, m) == cf.f_value(m), (n, seed, m)

    def test_hypercube_matches_ex_qn(self):
        g = cg.build_hypercube(3)
        for m in range(0, 9):
            assert oc.brute_ex(g, m) == cf.ex_qn(m, 3)

    def test_bounded_mode_agrees(self):
        g = member(5, 7)
        for m in range(2, 7):
            assert oc.brute_ex(g, m) == cf.f_value(m)

    def test_canonical_set_is_optimal(self):
        g = member(4, 11)
        for m in range(0, 9):
            assert 2 * cg.induced_edge_count(g, cg.canonical_set(m, 4)) == oc.brute_ex(g, m)


class TestIsoperimetric:
    def test_frozen_values(self):
        g = member(4)
        assert oc.brute_xi(g, 3) == 9
        assert oc.brute_xi(g, 8) == 8
        assert oc.brute_xi_unconstrained(g, 3) == 9

    def test_hypercube_value(self):
        assert oc.brute_xi(cg.build_hypercube(3), 4) == cf.xi_qn(4, 3)

    def test_unconstrained_equals_constrained(self):
        # disconnected subsets never beat connected ones at this scale
        for seed in (None, 1, 2):
            g = member(4, seed)
            for m in range(1, 9):
                assert oc.brute_xi_unconstrained(g, m) == oc.brute_xi(g, m)

    def test_bounded_mode_agrees(self):
        g = member(5, 3)
        for m in range(1, 7):
            assert oc.brute_xi(g, m) == cf.xi_h4(m, 5)


class TestExtraConnectivity:
    def test_frozen_values(self):
        g = member(4)
        assert oc.brute_lambda_h(g, 5) == 8
        assert oc.brute_lambda_h(g, 1) == 5

    def test_matches_scan(self):
        for seed in (None, 1, 2, 3, 4, 5):
            g = member(4, seed)
            for h in range(1, 9):
                assert oc.brute_lambda_h(g, h) == cf.lambda_scan(h, 4), (seed, h)

    def test_unrestricted_search_agrees(self):
        # raw edge-subset search confirms the two-sided reduction at n = 3
        for seed in (None, 1, 2):
            g = member(3, seed)
            for h in range(1, 5):
                assert oc.brute_lambda_h_unrestricted(g, h) == oc.brute_lambda_h(g, h)


class TestConditionalAndCyclic:
    def test_all_patterns_n3(self):
        for seed in (None, 1, 2, 3, 4, 5):
            g = member(3, seed)
            for pattern in oc.FaultPattern:
                if pattern is oc.FaultPattern.CYCLIC:
                    continue
                assert oc.brute_conditional(g, pattern, 2) == 4, (seed, pattern)

    def test_all_patterns_n4(self):
        g = member(4)
        for l in (2, 3):
            for pattern in oc.FaultPattern:
                if pattern is oc.FaultPattern.CYCLIC:
                    continue
                assert oc.brute_conditional(g, pattern, l) == (4 - l) << l

    def test_rejects_bad_arguments(self):
        g = member(3)
        with pytest.raises(ValueError):
            oc.brute_conditional(g, oc.FaultPattern.CYCLIC, 2)
        with pytest.raises(ValueError):
            oc.brute_conditional(g, oc.FaultPattern.EXTRA_SIZE, 3)
        with pytest.raises(oc.BudgetExceededError):
            oc.brute_conditional(member(5), oc.FaultPattern.EXTRA_SIZE, 2)

    def test_cyclic_values(self):
        assert oc.brute_cyclic(member(3)) == 4
        assert oc.brute_cyclic(member(4)) == 8
        for seed in (1, 2, 3):
            assert oc.brute_cyclic(member(3, seed)) == 4

    def test_cyclic_bounded_n5(self):
        assert oc.brute_cyclic(member(5)) == 12
        assert oc.brute_cyclic(member(5, 1)) == 12

    def test_average_degree_floor(self):
        for seed in (None, 1, 2):
            assert oc.average_degree_floor_check(member(3, seed))


class TestVerificationReport:
    def test_n3_passes(self):
        report = oc.verify_member(3, [1, 2])
        assert report.passed
        assert report.n == 3
        assert report.members == ("canonical", "seed1", "seed2")
        assert not any(e.skipped for e in report.entries)

    def test_serialization(self):
        report = oc.verify_member(3, [1])
        text = report.to_text()
        assert text.startswith("verification n=3: PASS")

    def test_checks_the_served_lambda(self, monkeypatch):
        # a wrong lambda_fast fails the report, though brute force agrees with the scan
        def off_by_one(h, n):
            return cf.lambda_scan(h, n) + (h == 2)

        monkeypatch.setattr(oc, "lambda_fast", off_by_one)
        report = oc.verify_member(3, [])
        assert not report.passed
        bad = [e for e in report.entries if not e.match]
        assert [(e.quantity, e.input) for e in bad] == [("lambda_scan", "2"), ("lambda", "2")]

    def test_failure_detected(self):
        good = oc.CheckEntry("canonical", "ex", "2", 2, 2, True)
        bad = oc.CheckEntry("canonical", "ex", "3", 6, 5, False)
        report = oc.VerificationReport(3, ("canonical",), (good, bad))
        assert not report.passed
        assert "FAIL" in report.to_text()

    def test_all_skipped_fails(self):
        skipped = oc.CheckEntry("canonical", "ex", "9", 30, None, None)
        report = oc.VerificationReport(3, ("canonical",), (skipped,))
        assert not report.passed

    def test_rejects_out_of_range_n(self):
        with pytest.raises(ValueError):
            oc.verify_member(6, [1])
