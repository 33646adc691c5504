"""Unit tests for graph construction and subset primitives."""

import pytest

from k4rel import closed_form as cf
from k4rel import cube_graph as cg


class TestHypercube:
    def test_basic_counts(self):
        for n in range(1, 9):
            g = cg.build_hypercube(n)
            assert g.num_vertices == 1 << n
            assert g.edge_count() == n << (n - 1)
            assert all(g.degree(v) == n for v in range(g.num_vertices))

    def test_adjacency_rule(self):
        g = cg.build_hypercube(4)
        for u in range(16):
            for v in range(16):
                expect = bin(u ^ v).count("1") == 1
                assert bool((g.adjacency[u] >> v) & 1) == expect

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            cg.build_hypercube(0)
        with pytest.raises(ValueError):
            cg.build_hypercube(cg.MAX_DIM + 1)


class TestEnhanced:
    def test_counts(self):
        for n in range(2, 9):
            for k in range(1, n):
                g = cg.build_enhanced(n, k)
                assert g.edge_count() == (n + 1) << (n - 1)
                assert all(g.degree(v) == n + 1 for v in range(g.num_vertices))

    def test_complement_edge(self):
        g = cg.build_enhanced(5, 3)
        flip = (1 << 3) - 1
        for v in range(32):
            assert (g.adjacency[v] >> (v ^ flip)) & 1

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            cg.build_enhanced(4, 0)
        with pytest.raises(ValueError):
            cg.build_enhanced(4, 4)


class TestMatchingTree:
    def test_leaf_is_k4(self):
        g = cg.build_k4cube(cg.MatchingTree(dimension=2))
        assert g.num_vertices == 4
        assert g.edge_count() == 6
        assert all(g.degree(v) == 3 for v in range(4))

    def test_validate_errors(self):
        with pytest.raises(ValueError):
            cg.MatchingTree(dimension=1).validate()
        with pytest.raises(ValueError):
            cg.MatchingTree(dimension=3).validate()
        leaf = cg.MatchingTree(dimension=2)
        with pytest.raises(ValueError):
            cg.MatchingTree(dimension=3, left=leaf, right=leaf, matching=(0, 0, 1, 2)).validate()
        with pytest.raises(ValueError):
            cg.MatchingTree(dimension=4, left=leaf, right=leaf,
                            matching=tuple(range(8))).validate()

    def test_member_regularity(self):
        for n in range(2, 9):
            for seed in (1, 2, 3):
                g = cg.build_k4cube(cg.random_matching_tree(n, seed))
                assert g.num_vertices == 1 << n
                assert g.edge_count() == (n + 1) << (n - 1)
                assert all(g.degree(v) == n + 1 for v in range(g.num_vertices))
                assert cg.is_connected_induced(g, range(g.num_vertices))

    def test_adjacency_symmetric(self):
        g = cg.build_k4cube(cg.random_matching_tree(6, 9))
        for u in range(64):
            assert not (g.adjacency[u] >> u) & 1
            for v in range(64):
                assert ((g.adjacency[u] >> v) & 1) == ((g.adjacency[v] >> u) & 1)

    def test_canonical_equals_enhanced(self):
        for n in range(2, 11):
            assert cg.canonical_member(n).adjacency == cg.build_enhanced(n, n - 1).adjacency

    def test_random_tree_deterministic(self):
        for n in (4, 6):
            for seed in (0, 7, 123):
                assert cg.random_matching_tree(n, seed) == cg.random_matching_tree(n, seed)
                g1 = cg.build_k4cube(cg.random_matching_tree(n, seed))
                g2 = cg.build_k4cube(cg.random_matching_tree(n, seed))
                assert g1.adjacency == g2.adjacency

    def test_different_seeds_differ(self):
        trees = {cg.random_matching_tree(6, s) for s in range(8)}
        assert len(trees) == 8


class TestSubsetPrimitives:
    def test_canonical_set(self):
        assert cg.canonical_set(0, 4) == frozenset()
        assert cg.canonical_set(5, 4) == frozenset({0, 1, 2, 3, 4})
        with pytest.raises(ValueError):
            cg.canonical_set(17, 4)

    def test_canonical_density_matches_f(self):
        # the first m labels are always a densest m-set on any member
        members = [cg.canonical_member(5)] + [
            cg.build_k4cube(cg.random_matching_tree(5, s)) for s in (1, 2, 3)
        ]
        for g in members:
            for m in range(0, 33):
                assert 2 * cg.induced_edge_count(g, cg.canonical_set(m, 5)) == cf.f_value(m)

    def test_boundary_identity(self):
        # boundary = degree sum - doubled internal edges on a regular graph
        g = cg.build_k4cube(cg.random_matching_tree(5, 4))
        for m in range(1, 32):
            s = cg.canonical_set(m, 5)
            assert cg.boundary_size(g, s) == 6 * m - 2 * cg.induced_edge_count(g, s)

    def test_canonical_sides_connected(self):
        g = cg.canonical_member(5)
        for m in range(1, 32):
            s = cg.canonical_set(m, 5)
            assert cg.is_connected_induced(g, s)
            assert cg.is_connected_induced(g, set(range(32)) - s)

    def test_connectivity_edge_cases(self):
        g = cg.build_hypercube(3)
        assert cg.is_connected_induced(g, [])
        assert cg.is_connected_induced(g, [5])
        assert not cg.is_connected_induced(g, [0, 7])

    def test_subcube_vertices(self):
        assert cg.subcube_vertices(4, 2, 3) == frozenset({12, 13, 14, 15})
        assert cg.subcube_vertices(4, 0, 9) == frozenset({9})
        with pytest.raises(ValueError):
            cg.subcube_vertices(4, 5, 0)
        with pytest.raises(ValueError):
            cg.subcube_vertices(4, 2, 4)

    def test_subcube_is_member(self):
        # each half of a member induces a (n-1)-dimensional member
        g = cg.build_k4cube(cg.random_matching_tree(5, 8))
        for prefix in (0, 1):
            sub = cg.subcube_vertices(5, 4, prefix)
            assert 2 * cg.induced_edge_count(g, sub) == 2 * (5 << 3)
            assert cg.is_connected_induced(g, sub)


class TestBitmap:
    def test_matrix_properties(self):
        # read back from the PBM text: 0 marks an edge
        g = cg.canonical_member(4)
        rows = cg.bitmap_pbm(g).split("\n")[2:-1]
        mat = [[1 - int(cell) for cell in row.split(" ")] for row in rows]
        assert len(mat) == 16 and all(len(row) == 16 for row in mat)
        for u in range(16):
            assert mat[u][u] == 0
            assert sum(mat[u]) == g.degree(u)
            for v in range(16):
                assert mat[u][v] == mat[v][u]

    def test_pbm_text(self):
        g = cg.build_k4cube(cg.MatchingTree(dimension=2))
        text = cg.bitmap_pbm(g)
        lines = text.split("\n")
        assert lines[0] == "P1"
        assert lines[1] == "4 4"
        assert lines[2] == "1 0 0 0"
        assert text.endswith("\n")

    def test_pbm_cell_convention(self):
        # "0" (white) marks an edge, "1" (black) a non-edge
        g = cg.build_hypercube(3)
        rows = cg.bitmap_pbm(g).strip().split("\n")[2:]
        for u, row in enumerate(rows):
            cells = row.split(" ")
            for v, cell in enumerate(cells):
                assert cell == ("0" if (g.adjacency[u] >> v) & 1 else "1")
