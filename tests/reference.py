"""Reference searches that the oracle's answers are compared against.

They walk the graph subset by subset, so they only run at n <= 4: an
edge-subset search for lambda_h that assumes nothing about how many
components a cut leaves, the average-degree size floor, the connected
bipartitions by two component walks per mask, the least cut among them whose
sides pass a side test (inner degrees counted vertex by vertex, or aligned
label blocks), and the bitmask component walk they and the connectivity
tests rest on.  The row walks are cube_graph's subset primitives as they were
written before their row view was hoisted: one g.row(v) call per member.  The
identity levels are the canonical member's recipe,
recursive_levels draws a member's levels by the recursion they describe, and
graph_from_rows packs hand-made rows as cube_graph packs its own.
"""

import random
from array import array
from itertools import combinations

from k4rel.cube_graph import CubeGraph, _label_code, _marked
from k4rel.oracle import BudgetExceededError, _bits, _exhaustive, _mask_table


def identity_matching_tree(n):
    """The levels whose every matching is the identity; build_k4cube makes them enhanced(n, n-1)."""
    return tuple(array("I", range(1 << (d - 1))) * (1 << (n - d)) for d in range(n, 2, -1))


def recursive_levels(n, seed):
    """The levels of random_matching_tree(n, seed), drawn in the recursion's own order.

    Each gluing's matching is shuffled after both of its halves are drawn, so every
    level fills left to right.
    """
    rng = random.Random(seed)
    levels = [[] for _ in range(n - 2)]

    def grow(i):
        if i < n - 2:
            grow(i + 1)
            grow(i + 1)
            perm = list(range(1 << (n - i - 1)))
            rng.shuffle(perm)
            levels[i].extend(perm)

    grow(0)
    return tuple(array("I", level) for level in levels)


def row_induced_edge_count(g, members):
    mark, verts = _marked(g, members)
    return sum(mark[w] for v in verts for w in g.row(v)) // 2


def row_boundary_size(g, members):
    mark, verts = _marked(g, members)
    return sum(1 - mark[w] for v in verts for w in g.row(v))


def row_is_connected_induced(g, members):
    mark, verts = _marked(g, members)
    reach = verts[:1]
    if reach:
        mark[reach[0]] = 0
    for v in reach:
        for w in g.row(v):
            if mark[w]:
                mark[w] = 0
                reach.append(w)
    return len(reach) == len(verts)


def graph_from_rows(n, kind, rows):
    """The CubeGraph on 2^n vertices with these neighbour rows, all of one length."""
    labels = array(_label_code((1 << n) - 1), [v for row in rows for v in row])
    return CubeGraph(n=n, kind=kind, neighbours=labels.tobytes())


def component(adjacency, mask):
    """The vertices of mask reachable from its lowest vertex inside mask (0 if empty)."""
    seen = frontier = mask & -mask
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= adjacency[v]
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen


def mask_connected(adjacency, mask):
    return component(adjacency, mask) == mask


def bfs_bipartitions(g):
    """(mask, boundary) of each bipartition, its mask holding vertex 0, with both sides connected
    and nonempty: two component walks per mask."""
    adj, full = g.adjacency, (1 << g.num_vertices) - 1
    bd = _mask_table(adj)
    return tuple((mask, bd[mask]) for mask in range(1, full, 2)
                 if mask_connected(adj, mask) and mask_connected(adj, full ^ mask))


def least_cut(g, bipartitions, side_ok):
    """Least boundary among bfs_bipartitions(g) whose two sides pass side_ok, else None."""
    full = (1 << g.num_vertices) - 1
    return next((bd for mask, bd in sorted(bipartitions, key=lambda p: p[1])
                 if side_ok(mask) and side_ok(full ^ mask)), None)


def min_degree_side(adjacency, l, side):
    """Whether every vertex of the side has at least l neighbours inside it."""
    return all((adjacency[v] & side).bit_count() >= l for v in _bits(side))


def average_degree_side(adjacency, l, side):
    """Whether the side's inner degrees, counted vertex by vertex, sum to at least l per vertex.

    At l = 2 this is the cyclic side test: a connected side holds a cycle iff it has at
    least as many edges as vertices.
    """
    return sum((adjacency[v] & side).bit_count() for v in _bits(side)) >= l * side.bit_count()


def embedded_side(l, side):
    """Whether every vertex of the side lies in an aligned 2^l block of labels wholly inside it."""
    block = (1 << (1 << l)) - 1
    return all(side >> (v >> l << l) & block == block for v in _bits(side))


def brute_lambda_h_unrestricted(g, h, max_cut=8):
    """h-extra edge-connectivity by raw edge-subset search, no bipartition assumption.

    Tries every edge subset of size 1, 2, ... up to max_cut and returns the
    first size whose removal leaves only components of order >= h.  Exists to
    confirm, at n = 3 scale, that restricting the main oracle to two-component
    splits loses nothing.
    """
    nv = g.num_vertices
    adj = list(g.adjacency)
    edges = sorted((u, v) for u in range(nv) for v in g.row(u) if u < v)
    full = (1 << nv) - 1
    for size in range(1, max_cut + 1):
        for cut in combinations(edges, size):
            reduced = list(adj)
            for u, v in cut:
                reduced[u] &= ~(1 << v)
                reduced[v] &= ~(1 << u)
            remaining = full
            while remaining:
                part = component(reduced, remaining)
                if part.bit_count() < h:
                    break
                remaining ^= part
            if remaining == 0 and part != full:
                return size
    raise BudgetExceededError(f"no h-extra edge-cut of size <= {max_cut} found")


def average_degree_floor_check(g):
    """Every subset with integer average-degree floor l has at least 2**(l-1) vertices."""
    if not _exhaustive(g):
        raise BudgetExceededError("average degree check needs exhaustive scale")
    degree = g.degree(0)
    for mask, bd in enumerate(_mask_table(g.adjacency)):
        k = mask.bit_count()
        e2 = degree * k - bd  # doubled induced edges: the graph is regular
        if k and e2 >= k and k < (1 << (e2 // k - 1)):
            return False
    return True
