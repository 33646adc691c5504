"""Unit tests for graph construction and subset primitives."""

import gc
import hashlib
import os
import pathlib
import pickle
import random
import subprocess
import sys
import tracemalloc
import weakref
from array import array
from functools import lru_cache
from itertools import repeat
from operator import xor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k4rel import closed_form as cf
from k4rel import cube_graph as cg
from reference import (adjacency, identity_matching_tree, recursive_levels, row_boundary_size,
                       row_induced_edge_count, row_is_connected_induced, subset_mask)


class TestHypercube:
    def test_basic_counts(self):
        for n in range(1, 9):
            g = cg.build_hypercube(n)
            assert g.num_vertices == 1 << n
            assert g.edge_count() == n << (n - 1)
            assert all(g.degree(v) == n for v in range(g.num_vertices))

    def test_adjacency_rule(self):
        adj = adjacency(cg.build_hypercube(4))
        for u in range(16):
            for v in range(16):
                expect = bin(u ^ v).count("1") == 1
                assert bool((adj[u] >> v) & 1) == expect

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            cg.build_hypercube(0)
        with pytest.raises(ValueError):
            cg.build_hypercube(cg.MAX_DIM + 1)

    def test_members_past_max_dim_are_refused_before_the_tree_is_walked(self):
        with pytest.raises(ValueError, match=f"dimension must be in \\[1, {cg.MAX_DIM}\\]"):
            cg.canonical_member(cg.MAX_DIM + 1)
        # empty levels would be named if they were walked first
        with pytest.raises(ValueError, match="dimension must be in"):
            cg.build_k4cube(((),) * (cg.MAX_DIM - 1))
        # no build accepts such levels, so they are refused before their 2^29 entries are drawn
        with pytest.raises(ValueError, match=f"dimension must be in \\[1, {cg.MAX_DIM}\\]"):
            cg.random_matching_tree(30, 1)


class TestEnhanced:
    def test_counts(self):
        for n in range(2, 9):
            for k in range(1, n):
                g = cg.build_enhanced(n, k)
                assert g.edge_count() == (n + 1) << (n - 1)
                assert all(g.degree(v) == n + 1 for v in range(g.num_vertices))

    def test_complement_edge(self):
        adj = adjacency(cg.build_enhanced(5, 3))
        flip = (1 << 3) - 1
        for v in range(32):
            assert (adj[v] >> (v ^ flip)) & 1

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            cg.build_enhanced(4, 0)
        with pytest.raises(ValueError):
            cg.build_enhanced(4, 4)


class TestMatchingTree:
    def test_leaf_is_k4(self):
        g = cg.build_k4cube(())
        assert g.num_vertices == 4
        assert g.edge_count() == 6
        assert all(g.degree(v) == 3 for v in range(4))
        assert cg.canonical_member(2) == g
        with pytest.raises(ValueError, match="need n >= 2"):
            cg.canonical_member(1)
        with pytest.raises(ValueError, match="need n >= 2"):
            cg.random_matching_tree(1, 1)

    def test_validate_errors(self):
        wrong_lengths = [((0, 1, 2),), ((0, 1, 2, 3, 0, 0),), (range(9), range(8)),
                         (range(8), range(7)), (range(8), range(9))]
        for levels in wrong_lengths:  # too short, too long, at the top level and below it
            with pytest.raises(ValueError, match=r"level [01] must hold [48] entries"):
                cg.build_k4cube(levels)
        bad_matchings = [(0, 1, 2, 4), (-1, 0, 1, 2), array("I", [0, 1, 1, 2]), (0, 1, 2, 3.0), None]
        for matching in bad_matchings:  # an entry = half, a negative, a repeat, no ints
            with pytest.raises(ValueError, match=r"permutation of \[0, 4\)"):
                cg.build_k4cube((matching,))
        repeated = [*cg.random_matching_tree(6, 1)]  # n = 6: its deepest level has 8 gluings
        repeated[3] = repeated[3][:-1] + repeated[3][-2:-1]  # a repeat in the last of them
        deeper = [(array("I", range(8)), (3, 2, 1, 0, 3, 3, 1, 0)),  # a repeat in the second block
                  (range(8), (3, 2, 1, 0, 4, 0, 1, 2)), repeated]  # an entry = half in the second
        for deep in deeper:
            with pytest.raises(ValueError, match=r"permutation of \[0, 4\)"):
                cg.build_k4cube(deep)
        cg.build_k4cube((range(8), (3, 2, 1, 0, 3, 0, 1, 2)))
        tree = cg.random_matching_tree(18, 1)  # level 0: one gluing of 2^17 entries, array('I')
        assert tree[0].typecode == "I"
        too_big, twice = array("I", tree[0]), array("I", tree[0])
        too_big[12345] = 1 << 17  # an entry = half
        twice[-1] = twice[0]  # a repeat
        for bad in (too_big, twice):
            with pytest.raises(ValueError, match=r"permutation of \[0, 131072\)"):
                cg.build_k4cube((bad, *tree[1:]))

    def test_member_regularity(self):
        for n in range(2, 9):
            for seed in (1, 2, 3):
                g = cg.build_k4cube(cg.random_matching_tree(n, seed))
                assert g.num_vertices == 1 << n
                assert g.edge_count() == (n + 1) << (n - 1)
                assert all(g.degree(v) == n + 1 for v in range(g.num_vertices))
                assert cg.is_connected_induced(g, range(g.num_vertices))

    def test_adjacency_symmetric(self):
        adj = adjacency(cg.build_k4cube(cg.random_matching_tree(6, 9)))
        for u in range(64):
            assert not (adj[u] >> u) & 1
            for v in range(64):
                assert ((adj[u] >> v) & 1) == ((adj[v] >> u) & 1)

    def test_canonical_equals_enhanced(self):
        for n in range(2, 11):
            assert adjacency(cg.canonical_member(n)) == adjacency(cg.build_enhanced(n, n - 1))

    def test_random_tree_deterministic(self):
        for n in (4, 6):
            for seed in (0, 7, 123):
                assert cg.random_matching_tree(n, seed) == cg.random_matching_tree(n, seed)
                g1 = cg.build_k4cube(cg.random_matching_tree(n, seed))
                g2 = cg.build_k4cube(cg.random_matching_tree(n, seed))
                assert adjacency(g1) == adjacency(g2)

    def test_draw_matches_the_recursion(self):
        # one loop over the K4 leaves shuffles the gluings in the recursion's post-order;
        # the reference draws them with random.shuffle itself
        for n in range(2, 15):
            for seed in range(4):
                assert cg.random_matching_tree(n, seed) == recursive_levels(n, seed), (n, seed)

    def test_shuffle_makes_the_stdlib_draws(self):
        # the lengths cross several runs of one bit length k, 2^(k-1) <= i + 1 < 2^k, and
        # the generator's state after the draw shows that no call was added or left out
        for length in range(71):
            for seed in (0, 1, 2, 12345):
                expected, rng = list(range(length)), random.Random(seed)
                rng.shuffle(expected)
                drawn, ours = list(range(length)), random.Random(seed)
                cg._shuffle(drawn, ours.getrandbits)
                assert drawn == expected, (length, seed)
                assert ours.getstate() == rng.getstate(), (length, seed)

    def test_different_seeds_differ(self):
        members = {cg.build_k4cube(cg.random_matching_tree(6, s)).neighbours for s in range(8)}
        assert len(members) == 8

    def test_members_are_pinned(self):
        # the rows of the canonical member and seeds 0..3 at n = 2..10, as first recorded in
        # 4 bytes per label
        digest = hashlib.sha256()
        for n in range(2, 11):
            digest.update(array("I", cg.canonical_member(n)._flat))
            for s in range(4):
                digest.update(array("I", cg.build_k4cube(cg.random_matching_tree(n, s))._flat))
        assert digest.hexdigest() == "6766af002b5270daad7073f7727f043c36422b1981e4b8620b2c8ae5dd4c2509"

    def test_random_tree_packs_its_matchings(self):
        # 12 levels of 2^13 entries: 0.2 MB as 2-byte entries, and no object per gluing
        tracemalloc.start()
        try:
            tree = cg.random_matching_tree(14, 1)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert type(tree) is tuple and all(isinstance(level, array) for level in tree)
        assert held < 2.5e5 and peak < 1e6

    def test_members_are_built_in_one_copy_of_their_rows(self):
        # the 1.05 MB of rows at n = 15 are filled in place: a second copy would peak above 2 MB
        tree = cg.random_matching_tree(15, 5)
        builds = ((lambda: cg.build_k4cube(tree), 1.5e6), (lambda: cg.canonical_member(15), 1.4e6))
        for build, bound in builds:
            tracemalloc.start()
            try:
                g = build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert type(g.neighbours) is bytes and len(g.neighbours) == 2 * 16 << 15
            assert peak < bound, peak

    def test_dropped_trees_free_their_levels_without_the_collector(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            tree = cg.random_matching_tree(6, 1)
            level = weakref.ref(tree[0])
            del tree
            assert level() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("n, width", [(16, 2), (17, 4)])
    def test_rows_widen_past_label_65535(self, n, width):
        assert cg._label_code(65535) == "H" and cg._label_code(65536) == "I"
        g = cg.canonical_member(n)
        assert len(g.neighbours) == width * (n + 1) << n
        last = (1 << n) - 1  # 65535 at n = 16: the largest label 2 bytes hold
        flips = [1, 2, 3] + [1 << d for d in range(n - 1, 1, -1)]
        for v in (last, last ^ 1):  # the row of last ^ 1 holds last
            assert list(g.row(v)) == [v ^ flip for flip in flips]
        assert cg.build_k4cube(identity_matching_tree(n)).neighbours == g.neighbours
        twin = pickle.loads(pickle.dumps(g))
        assert twin == g and twin.row(last) == g.row(last)

    def test_canonical_member_equals_the_identity_tree(self):
        for n in range(2, 13):
            tree = identity_matching_tree(n)
            assert cg.canonical_member(n).neighbours == cg.build_k4cube(tree).neighbours, n


class TestSubsetPrimitives:
    def test_labels_out_of_range(self):
        g = cg.canonical_member(3)
        for v in (-2, -1, 8, 9):
            for query in (g.row, g.degree):
                with pytest.raises(ValueError, match=r"\[0, 8\)"):
                    query(v)
            for query in (cg.boundary_size, cg.induced_edge_count, cg.is_connected_induced):
                for members in ([0, v], iter([0, v]), iter([7, v])):  # -1 must not wrap to 7
                    with pytest.raises(ValueError, match=r"\[0, 8\)"):
                        query(g, members)
        assert g.degree(7) == 4 and sorted(g.row(7)) == [3, 4, 5, 6]
        # a range past either end names the first label out, as the walk of its labels does
        for run in (range(-1, 3), range(0, 9), range(0, 12), range(8, -1, -1), range(3, -3, -1)):
            first = next(v for v in run if not 0 <= v < 8)
            for query in (cg.boundary_size, cg.induced_edge_count, cg.is_connected_induced):
                with pytest.raises(ValueError, match=rf"^labels must be in \[0, 8\), got {first}$"):
                    query(g, run)

    def test_canonical_queries_hold_no_member_set(self):
        # the half-size canonical set at n = 16: a range, one bytearray mark and, for
        # connectivity, the list it reaches; a frozenset of the members and a dict copy of
        # it peaked at 4.71 MB
        g, half = cg.canonical_member(16), 1 << 15
        bounds = ((cg.boundary_size, 2e6), (cg.induced_edge_count, 2e6),
                  (cg.is_connected_induced, 3e6))
        for query, bound in bounds:
            tracemalloc.start()
            try:
                query(g, cg.canonical_set(half, 16))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (query.__name__, peak)

    def test_connectivity_holds_no_member_list_beside_its_sweep(self):
        # a half-size subset at n = 16 given as a generator: the mark and the reached list,
        # 1.38 MB as for the boundary count; holding the member list too peaked at 2.57 MB
        g, half = cg.canonical_member(16), 1 << 15
        for query in (cg.is_connected_induced, cg.boundary_size):
            tracemalloc.start()
            try:
                query(g, (v for v in range(half)))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2e6, (query.__name__, peak)

    def test_canonical_set(self):
        assert cg.canonical_set(0, 4) == range(0)
        assert cg.canonical_set(5, 4) == range(5)
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
            assert cg.is_connected_induced(g, set(range(32)).difference(s))

    def test_connectivity_edge_cases(self):
        g = cg.build_hypercube(3)
        assert cg.is_connected_induced(g, [])
        assert cg.is_connected_induced(g, [5])
        assert not cg.is_connected_induced(g, [0, 7])

    def test_subcube_is_member(self):
        # each half of a member induces a (n-1)-dimensional member
        g = cg.build_k4cube(cg.random_matching_tree(5, 8))
        for prefix in (0, 1):
            sub = range(prefix << 4, (prefix + 1) << 4)
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
        g = cg.build_k4cube(())
        text = cg.bitmap_pbm(g)
        lines = text.split("\n")
        assert lines[0] == "P1"
        assert lines[1] == "4 4"
        assert lines[2] == "1 0 0 0"
        assert text.endswith("\n")

    def test_pbm_text_is_the_ascii_of_the_bytes(self):
        g = cg.build_k4cube(cg.random_matching_tree(5, 2))
        for start, stop in ((0, None), (0, 3), (8, 16), (30, 99)):
            data = cg.bitmap_pbm_bytes(g, start, stop)
            assert type(data) is bytearray
            assert cg.bitmap_pbm(g, start, stop) == data.decode("ascii")
        assert cg.bitmap_pbm_bytes(cg.build_k4cube(()), 0, 1) == b"P1\n4 4\n1 0 0 0\n"

    def test_rows_before_0_or_past_stop_are_refused(self):
        # start = -1 read flat[-d:0], a row of "1" cells for no vertex
        g = cg.canonical_member(3)
        for start, stop in ((-1, 0), (-1, None), (-8, 8), (3, 2)):
            for render in (cg.bitmap_pbm, cg.bitmap_pbm_bytes):
                with pytest.raises(ValueError, match="0 <= start <= stop"):
                    render(g, start, stop)
        assert cg.bitmap_pbm(g, 2, 2) == "" and cg.bitmap_pbm(g, 0, 0) == "P1\n8 8\n"

    def test_pbm_cell_convention(self):
        # "0" (white) marks an edge, "1" (black) a non-edge
        g = cg.build_hypercube(3)
        adj = adjacency(g)
        rows = cg.bitmap_pbm(g).strip().split("\n")[2:]
        for u, row in enumerate(rows):
            cells = row.split(" ")
            for v, cell in enumerate(cells):
                assert cell == ("0" if (adj[u] >> v) & 1 else "1")


# The bitmask definitions the neighbour rows replace: a member assembled by
# shifting whole rows, the PBM cell rule, and the subset formulas on masks.

def mask_member(levels, i=0, k=0):
    """Rows of the k-th gluing at level i: its halves' rows, the upper ones shifted up."""
    if i == len(levels):
        return [0b1110, 0b1101, 0b1011, 0b0111]
    half, upper = 1 << (len(levels) - i + 1), mask_member(levels, i + 1, 2 * k + 1)
    adj = mask_member(levels, i + 1, 2 * k) + [row << half for row in upper]
    for u, v in enumerate(levels[i][k * half:(k + 1) * half]):
        adj[u] |= 1 << (half + v)
        adj[half + v] |= 1 << u
    return adj


def mask_pbm(g):
    size, adj = g.num_vertices, adjacency(g)
    lines = ["P1", f"{size} {size}"]
    for u in range(size):
        lines.append(" ".join("0" if (adj[u] >> v) & 1 else "1" for v in range(size)))
    return "\n".join(lines) + "\n"


def mask_subset_stats(g, members):
    """(induced edges, boundary, connected) by the bitmask formulas."""
    mask, adj = subset_mask(members), adjacency(g)
    verts = [v for v in range(g.num_vertices) if mask >> v & 1]
    inner = sum((adj[v] & mask).bit_count() for v in verts) // 2
    boundary = sum((adj[v] & ~mask).bit_count() for v in verts)
    seen = frontier = mask & -mask
    while frontier:
        reach = 0
        for v in range(g.num_vertices):
            if frontier >> v & 1:
                reach |= adj[v]
        frontier = reach & mask & ~seen
        seen |= frontier
    return inner, boundary, seen == mask


def all_kinds(n):
    graphs = [cg.build_hypercube(n), cg.canonical_member(n)]
    graphs += [cg.build_enhanced(n, k) for k in range(1, n)]
    return graphs + [cg.build_k4cube(cg.random_matching_tree(n, s)) for s in (1, 2, 3)]


@lru_cache(maxsize=None)
def probe_graph(n, seed):
    if seed is None:
        return cg.canonical_member(n)
    return cg.build_k4cube(cg.random_matching_tree(n, seed))


class TestRowsMatchMasks:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_members_match_the_shifted_rows(self, n):
        trees = [identity_matching_tree(n)] + [cg.random_matching_tree(n, s) for s in (1, 2, 3)]
        for tree in trees:
            assert adjacency(cg.build_k4cube(tree)) == tuple(mask_member(tree))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_pbm_equals_cell_definition(self, n):
        for g in all_kinds(n):
            assert cg.bitmap_pbm(g) == mask_pbm(g), g.kind
            rows = [cg.bitmap_pbm(g, u, u + 1) for u in range(g.num_vertices)]  # as streamed
            assert "".join(rows) == cg.bitmap_pbm(g, 0, 3) + cg.bitmap_pbm(g, 3) == mask_pbm(g)

    def test_fixed_subsets(self):
        g = probe_graph(5, 2)
        cases = [[], [7], [0, 31], [3, 3, 3], [5, 9, 5, 30, 9], list(range(0, 32, 2)),
                 list(range(31, -1, -1)), [1, 2, 3, 16, 17, 18]]
        for members in cases:
            got = (cg.induced_edge_count(g, iter(members)), cg.boundary_size(g, iter(members)),
                   cg.is_connected_induced(g, iter(members)))
            assert got == mask_subset_stats(g, members), members
        assert not mask_subset_stats(g, [0, 31])[2] and mask_subset_stats(g, [3, 3])[2]
        with pytest.raises(ValueError):
            cg.boundary_size(g, [1, -1])

    def test_equal_hashable_and_picklable_after_use(self):
        g = probe_graph(4, 1)
        assert pickle.loads(pickle.dumps(g)) == g  # before the cached views exist
        assert g.degree(0) == 5 and g.row(3)
        twin = pickle.loads(pickle.dumps(g))
        assert twin == g and hash(twin) == hash(g) and adjacency(twin) == adjacency(g)
        assert twin != cg.canonical_member(4) and len({g, twin, cg.canonical_member(4)}) == 2

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_subset_primitives_agree_with_masks(self, data):
        n = data.draw(st.integers(3, 8), label="n")
        g = probe_graph(n, data.draw(st.sampled_from([None, 1, 2, 3]), label="seed"))
        vertex = st.integers(0, g.num_vertices - 1)
        members = data.draw(st.one_of(
            st.lists(vertex, max_size=3 * g.num_vertices // 4),  # repeats, any order
            st.builds(lambda a, b: list(range(a, a + b)), st.integers(0, g.num_vertices // 2),
                      st.integers(0, g.num_vertices // 2)),  # contiguous label runs
        ), label="members")
        got = (cg.induced_edge_count(g, members), cg.boundary_size(g, members),
               cg.is_connected_induced(g, members))
        assert got == mask_subset_stats(g, members)


class TestBytePlanes:
    @pytest.mark.parametrize("n", [9, 12, 16, 17])
    def test_flip_rows_past_the_first_byte(self, n):
        # byte plane 1 is nonzero from n = 9 on, plane 2 from n = 17 on, where labels take
        # 4 bytes; column j of the rows equal to v ^ flips[j] for every v is every row equal
        # to [v ^ flip for flip in flips]
        hyper = [1 << i for i in range(n)]
        cases = [(cg.build_hypercube(n), hyper),
                 (cg.canonical_member(n), [1, 2, 3] + [1 << d for d in range(n - 1, 1, -1)])]
        cases += [(cg.build_enhanced(n, k), hyper + [(1 << (n - k + 1)) - 1]) for k in range(1, n)]
        code, wants = "H" if n <= 16 else "I", {}
        for g, flips in cases:
            rows = g._flat
            assert rows.format == code and len(rows) == len(flips) << n
            for j, flip in enumerate(flips):
                if flip not in wants:
                    wants[flip] = array(code, map(xor, range(1 << n), repeat(flip))).tobytes()
                assert rows[j::len(flips)].tobytes() == wants[flip], (g.kind, flip)

    @pytest.mark.parametrize("code", ["H", "I"])
    def test_below_counts_the_labels_under_each_threshold(self, code):
        # _below guards build_k4cube's levels: it must equal the plain count, over several
        # 2^12-label chunks, at thresholds on byte edges and with zero low bytes (planes
        # it skips), at labels in the rows and past every label
        top = 1 << 8 * array(code).itemsize
        rng = random.Random(code)
        labels = [x for x in (0, 255, 256, 65535, 65536) if x < top] * 3
        labels += [rng.randrange(1 << b) for b in (8, 9, 16, 17, 24, 25, 32) * 1500
                   if 1 << b <= top]
        rng.shuffle(labels)
        rows = memoryview(array(code, labels))
        edges = [0, 1, 255, 256, 257, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, 1 << 24,
                 0x1200, 0x30000, 0x5000000, 0x7f000000, max(labels) + 1, top, top + 1]
        for t in edges + labels[:50] + [x + 1 for x in labels[:50]]:
            assert cg._below(rows, t) == sum(x < t for x in labels), t

    def test_n17_rows_are_pinned(self):
        # recorded from the rows as built from one array('I') of v ^ flip per flip column
        graphs = (cg.canonical_member(17), cg.build_hypercube(17), cg.build_enhanced(17, 9))
        digest = hashlib.sha256(b"".join(g.neighbours for g in graphs)).hexdigest()
        assert digest == "57183814a6a22ab7e376fe944ef572c5637f79349e1829b93bca1c766159da9a"

    def test_import_builds_no_xor_table(self):
        # all 256 tables built at import cost about 5 ms at every start: they are built on
        # first use, one per mask byte, here 0, 1, 2, 4, ..., 128
        code = (
            "from k4rel import cube_graph as cg\n"
            "assert cg._xor_table.cache_info().currsize == 0\n"
            "cg.build_hypercube(9)\n"
            "assert cg._xor_table.cache_info().currsize == 9\n"
        )
        src = str(pathlib.Path(cg.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")


class TestLargeMembers:
    @pytest.mark.parametrize("seed", [None, 7])
    def test_walks_agree_with_the_row_walks(self, seed):
        g, size = probe_graph(12, seed), 1 << 12
        rng = random.Random(seed)
        sets = [[], [5], rng.sample(range(size), 300), rng.sample(range(size), 2500),
                [rng.randrange(size) for _ in range(3000)],  # repeats
                [rng.randrange(64) for _ in range(200)], list(range(0, size, 3)),
                list(range(size - 1, 999, -1)), cg.canonical_set(1500, 12), range(size),
                range(4000, 4008)]  # two K4s joined by the last entry of each row
        walks = ((cg.induced_edge_count, row_induced_edge_count),
                 (cg.boundary_size, row_boundary_size),
                 (cg.is_connected_induced, row_is_connected_induced))
        for members in sets:
            for walk, row_walk in walks:  # a one-pass iterator against the reference's list
                assert walk(g, iter(members)) == row_walk(g, list(members)), (walk, len(members))
        assert cg.is_connected_induced(g, cg.canonical_set(1500, 12))

    @pytest.mark.parametrize("n", range(3, 18))
    def test_label_runs_agree_with_the_row_walks(self, n):
        # ranges of step 1 are counted by byte planes: 'H' labels up to n = 16, where
        # hi = 65536 is past every label, 'I' from n = 17 on; step -1 ranges are reversed,
        # and ranges of other steps are walked label by label
        nv, rng = 1 << n, random.Random(n)
        mid = range(max(0, nv // 2 - 700), min(nv, nv // 2 + 700))  # across 2^15 or 2^16
        runs = [range(0), range(nv // 3, nv // 3), range(1), range(nv - 1, nv), mid,
                range(min(nv, 3000)), range(max(0, nv - 3000), nv), range(5, min(nv, 700), 1),
                range(1, min(nv, 900), 3)]
        for _ in range(4):
            lo = rng.randrange(nv)
            runs += [range(lo, min(nv, lo + rng.randrange(1, 2000))), range(lo, max(-1, lo - 900), -1)]
        walks = ((cg.induced_edge_count, row_induced_edge_count),
                 (cg.boundary_size, row_boundary_size),
                 (cg.is_connected_induced, row_is_connected_induced))
        for g in (cg.canonical_member(n), cg.build_k4cube(cg.random_matching_tree(n, n))):
            for run in runs:
                for walk, row_walk in walks:
                    assert walk(g, run) == row_walk(g, list(run)), (walk, run)
            full = range(nv)
            assert (cg.boundary_size(g, full), cg.induced_edge_count(g, full)) == (0, g.edge_count())

    def test_seeded_members_are_regular_simple_and_connected(self):
        for n in range(9, 15):
            g = cg.build_k4cube(cg.random_matching_tree(n, 10 + n))
            size = g.num_vertices
            rows = [set(g.row(v)) for v in range(size)]
            assert all(len(row) == g.degree(v) == n + 1 for v, row in enumerate(rows))
            assert all(v not in row for v, row in enumerate(rows))
            assert all(u in rows[v] for u, row in enumerate(rows) for v in row)
            assert g.edge_count() == (n + 1) << (n - 1)
            assert cg.is_connected_induced(g, range(size))

    def test_session_probe_builds_no_mask_rows(self):
        n = 14
        for g in (cg.canonical_member(n), cg.build_k4cube(cg.random_matching_tree(n, 7))):
            assert all(g.degree(v) == n + 1 for v in range(g.num_vertices))
            assert g.edge_count() == (n + 1) << (n - 1)
            for m in (1, 3, 6, 12, 100, 1500, 5000, 8191):
                s = cg.canonical_set(m, n)
                assert cg.boundary_size(g, s) == cf.xi_h4(m, n)
                assert 2 * cg.induced_edge_count(g, s) == cf.f_value(m)
                assert cg.is_connected_induced(g, s)
            assert set(g.__dict__) <= {"_flat", "_degree"}  # the row view is the only one built

    def test_n16_member_in_512mb(self):
        # 4^16 bits of bitmask rows would be 512 MB alone; the rows take about 4 MB
        code = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
            "from k4rel import cube_graph as cg\n"
            "g = cg.canonical_member(16)\n"
            "assert all(g.degree(v) == 17 for v in range(1 << 16))\n"
            "assert g.edge_count() == 17 << 15\n"
        )
        src = str(pathlib.Path(cg.__file__).parents[1])
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")

    def test_edge_connectivity_by_networkx(self):
        nx = pytest.importorskip("networkx")
        graphs = [cg.canonical_member(8)] + [
            cg.build_k4cube(cg.random_matching_tree(n, s)) for n, s in ((6, 1), (7, 2), (8, 3))
        ]
        for g in graphs:
            G = nx.Graph((u, v) for u in range(g.num_vertices) for v in g.row(u))
            assert G.number_of_nodes() == g.num_vertices
            assert nx.edge_connectivity(G) == g.n + 1, g
