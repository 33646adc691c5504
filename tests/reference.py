"""Reference searches that the oracle's answers are compared against.

They walk the graph subset by subset, so they only run at n <= 4, and they
answer any graph, in the family or not.  The exhaustive search is the one
the oracle ran at n <= 4 before every row was settled by a bound and a
canonical witness: one byte-lane table holds the boundary of every vertex
subset, a bitmap of the connected subsets turns it into a second that holds
each connected bipartition's boundary (255 on the other masks), and the
least boundary per size, xi and the super-degree cut are the first lanes
that qualify, found boundary by boundary with bytes.find.  exhaustive_*
answer each oracle search from it, None where no bipartition qualifies.

Beside it: an edge-subset search for lambda_h that assumes nothing about how
many components a cut leaves, the average-degree size floor, the connected
bipartitions by two component walks per mask, the least cut among them whose
sides pass a side test (inner degrees counted vertex by vertex, or aligned
label blocks), and the bitmask rows and component walk they and the
connectivity tests rest on.  The row walks are cube_graph's subset
primitives walked label by label, one g.row(v) call per member, over their
own set of the members: they share no mark or dedupe with cube_graph.  The
identity levels are the canonical member's recipe, recursive_levels draws a
member's levels by the recursion they describe, and graph_from_rows packs
hand-made rows as cube_graph packs its own.
"""

import random
from array import array
from functools import lru_cache, reduce
from itertools import combinations
from operator import and_, or_

from k4rel.closed_form import FaultPattern
from k4rel.cube_graph import CubeGraph, _label_code
from k4rel.oracle import BudgetExceededError

EXHAUSTIVE_N = 4  # one dimension more would be a 2^32-entry subset table
_DIGITS, _OUTSIDE = bytes.maketrans(b"\0\xff", b"01"), bytes.maketrans(b"01", b"\xff\0")


def subset_mask(members):
    mask = 0
    for v in members:
        mask |= 1 << v
    return mask


def adjacency(g):
    """Bitmask rows: bit u of row v is set iff u ~ v."""
    return tuple(subset_mask(g.row(v)) for v in range(g.num_vertices))


def bits(mask):
    """The vertices of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def exhaustive(g):
    return g.num_vertices <= 1 << EXHAUSTIVE_N


@lru_cache(maxsize=1)  # one graph's vertex count
def holds(nv):
    """Per vertex v, the masks that hold v (2^v no, 2^v yes, repeated) as bits and as 0xff lanes."""
    lanes = ((bytes(1 << v) + b"\xff" * (1 << v)) * (1 << nv - v - 1) for v in range(nv))
    return tuple(zip(*((int(p.translate(_DIGITS)[::-1], 2), int.from_bytes(p, "little"))
                       for p in lanes)))


@lru_cache(maxsize=1)  # the exhaustive checks read one graph's table before the next's
def mask_table(adjacency):
    """Boundary of every vertex subset of the graph with these bitmask rows, by mask.

    The masks with highest vertex v extend the 2^v masks below them at once, one
    byte lane per mask: + deg(v), then - 2 where the mask holds a neighbour.  No
    lane goes below 0 (it ends at a boundary), so none borrows, and none passes
    a byte and carries: 16 vertices have at most 8 * 8 edges across.
    """
    nv = len(adjacency)
    if nv > 16:
        raise BudgetExceededError(f"{nv} vertices pass the 16-vertex bound of a byte-lane table")
    lanes, table = holds(nv)[1], 0
    for v, row in enumerate(adjacency):
        ones = ((1 << (8 << v)) - 1) // 255
        step = row.bit_count() * ones - 2 * sum(lanes[u] & ones for u in bits(row))
        table |= (table + step) << (8 << v)
    return table.to_bytes(1 << nv, "little")


def connected_masks(adjacency):
    """Bit `mask` is set iff mask induces a connected subgraph (the empty mask counts).

    Bit mask of reach[v]: v is reachable inside mask from mask's lowest vertex.
    reach[v] starts at the masks whose lowest vertex is v and takes in its
    neighbours' until no reach changes.
    """
    has, last = holds(len(adjacency))[0], None
    reach = [h & ~reduce(or_, has[:v], 0) for v, h in enumerate(has)]
    while reach != last:
        last = reach[:]
        for v, row in enumerate(adjacency):
            reach[v] = has[v] & reduce(or_, (reach[u] for u in bits(row)), reach[v])
    return reduce(and_, (r | ~h for h, r in zip(has, reach)), (1 << (1 << len(has))) - 1)


@lru_cache(maxsize=1)  # the exhaustive checks finish each graph before the next
def cut_lanes(g):
    """Per mask holding vertex 0 with both sides connected and nonempty, its boundary; else 255.

    16 vertices have at most 8 * 8 edges across, so 255 is never a boundary.
    """
    size, adj = 1 << g.num_vertices, adjacency(g)
    connected = connected_masks(adj)
    odd = int("10" * (size >> 1), 2) ^ (1 << size - 1)  # the full mask has no other side
    # the reversed bitmap holds each complement's bit; x & -x per set bit would copy 2^16 bits
    both = connected & int(format(connected, f"0{size}b")[::-1], 2) & odd
    outside = f"{both:0{size}b}"[::-1].encode().translate(_OUTSIDE)
    bd = int.from_bytes(mask_table(adj), "little")
    return (bd | int.from_bytes(outside, "little")).to_bytes(size, "little")


def ascending(lanes):
    """Each (mask, lane) of the lanes below 255, by lane, then mask, walked lazily."""
    for bd in range(255):
        mask = lanes.find(bd)
        while mask >= 0:
            yield mask, bd
            mask = lanes.find(bd, mask + 1)


@lru_cache(maxsize=2)  # one graph's minima over its subsets and over its bipartitions
def size_minima(g, connected):
    """Per m <= nv/2: the least boundary of a set of m vertices or of its complement.

    Over every subset (mask_table), or over the connected bipartitions
    (cut_lanes); None where no set has that size.  The first, so least, lane of
    each size, walked by ascending boundary until every size has one.
    """
    nv, best = g.num_vertices, {}
    for mask, bd in ascending(cut_lanes(g) if connected else mask_table(adjacency(g))):
        best.setdefault(min(mask.bit_count(), nv - mask.bit_count()), bd)
        if len(best) == nv // 2 + 1 - connected:  # no bipartition has an empty side
            break
    return tuple(best.get(m) for m in range(nv // 2 + 1))


def least_degree_cut(g, l):
    """Least bd of a connected bipartition whose sides each have minimum inner degree >= l."""
    adj, full = adjacency(g), (1 << g.num_vertices) - 1
    return next((bd for mask, bd in ascending(cut_lanes(g))
                 if all((adj[v] & side).bit_count() >= l
                        for side in (mask, full ^ mask) for v in bits(side))), None)


def exhaustive_ex(g, m):
    """oracle.brute_ex by the exhaustive search."""
    return g.degree(0) * m - size_minima(g, False)[min(m, g.num_vertices - m)]


def exhaustive_xi(g, m):
    """oracle.brute_xi by the exhaustive search; None where no connected bipartition has an
    m-vertex side."""
    return size_minima(g, True)[m]


def exhaustive_xi_unconstrained(g, m):
    return size_minima(g, False)[m]


def exhaustive_lambda_h(g, h):
    return min((xi for xi in size_minima(g, True)[h:] if xi is not None), default=None)


def exhaustive_room_min(g, r):
    """The least xi_m <= (degree - r) * m over the m <= nv/2 that have a connected bipartition."""
    room = g.degree(0) - r
    return min((xi for m, xi in enumerate(size_minima(g, True))
                if xi is not None and xi <= room * m), default=None)


def exhaustive_cyclic(g):
    return exhaustive_room_min(g, 2)


def exhaustive_conditional(g, pattern, l):
    """oracle.brute_conditional by the exhaustive search.  The degree patterns ask inner
    degree >= l + 1, as oracle.FaultPattern reads them.  The embedded cut is settled by
    the canonical block, its cut read from cut_lanes (255: a side is disconnected), so
    graphs whose labels are not their blocks are refused."""
    if pattern is FaultPattern.EXTRA_SIZE:
        return exhaustive_lambda_h(g, 1 << l)
    if pattern is FaultPattern.EMBEDDED:
        sizes = range(1 << l, g.num_vertices // 2 + 1, 1 << l)
        cut = min(((xi, m) for m in sizes if (xi := exhaustive_xi(g, m)) is not None), default=None)
        if cut is None:
            return None
        xi, m = cut
        if cut_lanes(g)[(1 << m) - 1] != xi:
            raise BudgetExceededError(f"the canonical {m}-set's cut is not the least, {xi}")
        return xi
    if pattern is FaultPattern.AVERAGE_DEGREE:
        return exhaustive_room_min(g, l + 1)
    return least_degree_cut(g, l + 1)


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


def row_members(g, members):
    """Each member once, in first-seen order, and their set; ValueError at the first label
    outside the graph, with cube_graph's text."""
    verts = list(dict.fromkeys(members))
    for v in verts:
        if not 0 <= v < g.num_vertices:
            raise ValueError(f"labels must be in [0, {g.num_vertices}), got {v}")
    return verts, set(verts)


def row_induced_edge_count(g, members):
    verts, inside = row_members(g, members)
    return sum(w in inside for v in verts for w in g.row(v)) // 2


def row_boundary_size(g, members):
    verts, inside = row_members(g, members)
    return sum(w not in inside for v in verts for w in g.row(v))


def row_is_connected_induced(g, members):
    verts, inside = row_members(g, members)
    reach = verts[:1]
    seen = set(reach)
    for v in reach:
        for w in g.row(v):
            if w in inside and w not in seen:
                seen.add(w)
                reach.append(w)
    return len(reach) == len(verts)


def graph_from_rows(n, kind, rows):
    """The CubeGraph on 2^n vertices with these neighbour rows, all of one length."""
    labels = array(_label_code((1 << n) - 1), [v for row in rows for v in row])
    return CubeGraph(n=n, kind=kind, neighbours=labels.tobytes())


def component(adj, mask):
    """The vertices of mask reachable from its lowest vertex inside mask (0 if empty)."""
    seen = frontier = mask & -mask
    while frontier:
        reach = 0
        for v in bits(frontier):
            reach |= adj[v]
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen


def mask_connected(adj, mask):
    return component(adj, mask) == mask


def bfs_bipartitions(g):
    """(mask, boundary) of each bipartition, its mask holding vertex 0, with both sides connected
    and nonempty: two component walks per mask."""
    adj, full = adjacency(g), (1 << g.num_vertices) - 1
    bd = mask_table(adj)
    return tuple((mask, bd[mask]) for mask in range(1, full, 2)
                 if mask_connected(adj, mask) and mask_connected(adj, full ^ mask))


def least_cut(g, bipartitions, side_ok):
    """Least boundary among bfs_bipartitions(g) whose two sides pass side_ok, else None."""
    full = (1 << g.num_vertices) - 1
    return next((bd for mask, bd in sorted(bipartitions, key=lambda p: p[1])
                 if side_ok(mask) and side_ok(full ^ mask)), None)


def min_degree_side(adj, l, side):
    """Whether every vertex of the side has at least l neighbours inside it."""
    return all((adj[v] & side).bit_count() >= l for v in bits(side))


def average_degree_side(adj, l, side):
    """Whether the side's inner degrees, counted vertex by vertex, sum to at least l per vertex.

    At l = 2 this is the cyclic side test: a connected side holds a cycle iff it has at
    least as many edges as vertices.
    """
    return sum((adj[v] & side).bit_count() for v in bits(side)) >= l * side.bit_count()


def embedded_side(l, side):
    """Whether every vertex of the side lies in an aligned 2^l block of labels wholly inside it."""
    block = (1 << (1 << l)) - 1
    return all(side >> (v >> l << l) & block == block for v in bits(side))


def brute_lambda_h_unrestricted(g, h, max_cut=8):
    """h-extra edge-connectivity by raw edge-subset search, no bipartition assumption.

    Tries every edge subset of size 1, 2, ... up to max_cut and returns the
    first size whose removal leaves only components of order >= h.  Exists to
    confirm, at n = 3 scale, that restricting the main oracle to two-component
    splits loses nothing.
    """
    nv = g.num_vertices
    adj = list(adjacency(g))
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
    if not exhaustive(g):
        raise BudgetExceededError("average degree check needs exhaustive scale")
    degree = g.degree(0)
    for mask, bd in enumerate(mask_table(adjacency(g))):
        k = mask.bit_count()
        e2 = degree * k - bd  # doubled induced edges: the graph is regular
        if k and e2 >= k and k < (1 << (e2 // k - 1)):
            return False
    return True
