"""Brute-force computation of the reliability parameters on materialized graphs.

Everything here is search, not formula: densest subsets, minimum boundaries,
conditional and cyclic cuts are found by enumeration so the closed forms can
be validated against an independent path.  Each subset table is one big int
with a byte lane (or bit) per subset, built in whole-table passes.  One table
per graph holds the minimum boundary over all m-subsets for every m; it comes
from the two label halves, which must be joined by one perfect matching (as in
every member, every hypercube and enhanced(n, k >= 2)), and it is exact while
each half fits a byte-lane table: 16 vertices, so n <= 5, a fixed bound and
not a setting.  As every CubeGraph is regular, each densest-subset value is
degree * m minus that minimum.  At exhaustive scale (up to 16 vertices), one
bitmap of the connected subsets gives a lane table holding each connected
bipartition's boundary (255 on the other masks); xi, the conditional and the
cyclic cuts are the first that qualify, found boundary by boundary with
bytes.find, and a side's edge count is read from its boundary.  Past it, one
rule settles xi, the embedded and the cyclic cuts: a lower bound from the
per-size table must meet the cut around a canonical witness (the m-set at
labels 0..m-1, or the K4 at labels 0..3) with both sides connected.  There is
one such cut per size and graph.  A check with no such witness, or past the
tables, raises BudgetExceededError rather than returning a partial answer.

Cut searches keep to connected bipartitions: a cut leaving three or more
components can put back the edges between two adjacent ones and stay valid,
so no minimum cut leaves more than two.  At n = 3, an edge-subset search in
tests/reference.py that assumes nothing about the components confirms this.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, reduce
from operator import and_, or_

from .closed_form import (
    FaultPattern,
    conditional_lambda,
    cyclic_lambda,
    f_value,
    lambda_fast,
    lambda_scan,
    xi_h4,
)
from .cube_graph import (
    CubeGraph,
    boundary_size,
    build_k4cube,
    canonical_member,
    canonical_set,
    is_connected_induced,
    random_matching_tree,
    subset_mask,
)


EXHAUSTIVE_N = 4  # one dimension more would be a 2^32-entry subset table
_FAR = 126  # a byte lane above every distance, so far + 1 stays below the lane's top bit
_DIGITS, _OUTSIDE = bytes.maketrans(b"\0\xff", b"01"), bytes.maketrans(b"01", b"\xff\0")
_PLUS_ONE = bytes(range(1, 256)) + b"\0"


class BudgetExceededError(RuntimeError):
    """The oracle cannot settle this check: no witness meets its bound, or n is past its scale."""


def _bits(mask: int):
    """The vertices of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _exhaustive(g: CubeGraph) -> bool:
    return g.num_vertices <= 1 << EXHAUSTIVE_N


@lru_cache(maxsize=2)  # the vertex counts of one graph and of its label halves
def _holds(nv: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per vertex v, the masks that hold v (2^v no, 2^v yes, repeated) as bits and as 0xff lanes."""
    lanes = ((bytes(1 << v) + b"\xff" * (1 << v)) * (1 << nv - v - 1) for v in range(nv))
    return tuple(zip(*((int(p.translate(_DIGITS)[::-1], 2), int.from_bytes(p, "little"))
                       for p in lanes)))


@lru_cache(maxsize=1)  # the exhaustive checks read one graph's table before the next's
def _mask_table(adjacency: tuple[int, ...]) -> bytes:
    """Boundary of every vertex subset of the graph with these bitmask rows, by mask.

    The masks with highest vertex v extend the 2^v masks below them at once, one
    byte lane per mask: + deg(v), then - 2 where the mask holds a neighbour.  No
    lane goes below 0 (it ends at a boundary), so none borrows, and none passes
    a byte and carries: 16 vertices have at most 8 * 8 edges across.
    """
    nv = len(adjacency)
    if nv > 16:
        raise BudgetExceededError(f"{nv} vertices pass the 16-vertex bound of a byte-lane table")
    holds, table = _holds(nv)[1], 0
    for v, row in enumerate(adjacency):
        ones = ((1 << (8 << v)) - 1) // 255
        step = row.bit_count() * ones - 2 * sum(holds[u] & ones for u in _bits(row))
        table |= (table + step) << (8 << v)
    return table.to_bytes(1 << nv, "little")


def _connected_masks(adjacency: tuple[int, ...]) -> int:
    """Bit `mask` is set iff mask induces a connected subgraph (the empty mask counts).

    Bit mask of reach[v]: v is reachable inside mask from mask's lowest vertex.
    reach[v] starts at the masks whose lowest vertex is v and takes in its
    neighbours' until no reach changes.
    """
    has, last = _holds(len(adjacency))[0], None
    reach = [h & ~reduce(or_, has[:v], 0) for v, h in enumerate(has)]
    while reach != last:
        last = reach[:]
        for v, row in enumerate(adjacency):
            reach[v] = has[v] & reduce(or_, (reach[u] for u in _bits(row)), reach[v])
    return reduce(and_, (r | ~h for h, r in zip(has, reach)), (1 << (1 << len(has))) - 1)


@lru_cache(maxsize=32)
def _size_table(g: CubeGraph) -> tuple[int, ...]:
    """Per subset size m: the minimum boundary over all m-subsets, from the label halves.

    The cross edges must be one perfect matching pi from the low half L onto
    the high half R.  Then S = S_L + S_R has bd(S) = bd_L(S_L) + bd_R(S_R) +
    |pi(S_L) ^ S_R|.  With c(T) = bd_L(pi^-1 T), the distance transform
    D_k(X) = min over |T| = k of c(T) + |T ^ X| is separable per bit:
    D_k(X) <- min(D_k(X), D_k(X ^ 2^i) + 1).  Then the answer at m is the
    minimum of bd_R(X) + D_{m-|X|}(X).  Each D_k is one big int of byte
    lanes, one per X; the lanes stay below 128, so one subtraction per bit
    compares all lanes at once.  As bd(S) = bd(V - S), and S or V - S has
    |S_L| <= w/2, the k <= w/2 transforms reach each m-subset or its complement.
    The sums bd_R + D_k are kept; then per size j of X, their lanes of other
    sizes are set to 0xff and the least byte left is found by ascending bytes.find.
    """
    if g.num_vertices > 32:  # before g.adjacency, which holds 4^n bits
        raise BudgetExceededError(
            f"{g.num_vertices >> 1}-vertex label halves pass a byte-lane table's 16-vertex bound")
    w, adj = g.num_vertices >> 1, g.adjacency
    low = (1 << w) - 1
    cross = [row >> w for row in adj[:w]] + [row & low for row in adj[w:]]
    if any(c.bit_count() != 1 for c in cross):
        raise BudgetExceededError("the edges between the label halves are not one perfect matching")
    pi = [c.bit_length() - 1 for c in cross[:w]]
    moved = [0] * w  # L relabelled by pi, so that its table is c
    for u in range(w):
        moved[pi[u]] = subset_mask(pi[v] for v in _bits(adj[u] & low))
    lanes = 1 << w
    c = int.from_bytes(_mask_table(tuple(moved)), "little")
    right = int.from_bytes(_mask_table(tuple(row >> w for row in adj[w:])), "little")
    ones = int.from_bytes(b"\1" * lanes, "little")
    high, far = ones << 7, _FAR * ones
    # the popcounts of each upper half are those of its lower half + 1
    pop = reduce(lambda pop, _: pop + pop.translate(_PLUS_ONE), range(w), b"\0")

    def outside(j):  # 0xff on the lanes of the X with |X| != j, 0 on the others
        return int.from_bytes(pop.translate(b"\xff" * j + b"\0" + b"\xff" * (255 - j)), "little")

    sums = []  # bd_R + D_k per k: its lanes stay below 126 + 64, so below 0xff
    for k in range(w // 2 + 1):
        out = outside(k)
        d = (c & ~out) | (far & out)
        for i, h in enumerate(_holds(w)[1]):
            near = (((d & h) >> (8 << i)) | ((d << (8 << i)) & h)) + ones
            ge = (((d | high) - near) & high) >> 7
            d ^= (d ^ near) & ((ge << 8) - ge)
        sums.append(d + right)
    best = [255] * (2 * w + 1)
    for j in range(w + 1):
        out = outside(j)
        for k, total in enumerate(sums):
            size_j = (total | out).to_bytes(lanes, "little")
            best[k + j] = next((b for b in range(best[k + j]) if size_j.find(b) >= 0), best[k + j])
    return tuple(map(min, best, reversed(best)))


@lru_cache(maxsize=1)  # verify_member finishes each member before the next
def _cut_lanes(g: CubeGraph) -> bytes:
    """Per mask holding vertex 0 with both sides connected and nonempty, its boundary; else 255.

    16 vertices have at most 8 * 8 edges across, so 255 is never a boundary.
    """
    size, connected = 1 << g.num_vertices, _connected_masks(g.adjacency)
    odd = int("10" * (size >> 1), 2) ^ (1 << size - 1)  # the full mask has no other side
    # the reversed bitmap holds each complement's bit; x & -x per set bit would copy 2^16 bits
    both = connected & int(format(connected, f"0{size}b")[::-1], 2) & odd
    outside = f"{both:0{size}b}"[::-1].encode().translate(_OUTSIDE)
    bd = int.from_bytes(_mask_table(g.adjacency), "little")
    return (bd | int.from_bytes(outside, "little")).to_bytes(size, "little")


def _bipartitions(g: CubeGraph):
    """Each (mask, boundary) of _cut_lanes, by boundary, then mask.

    A scan for the least cut stops at its first pass, so later boundaries are never looked up.
    """
    lanes = _cut_lanes(g)
    for bd in range(255):
        mask = lanes.find(bd)
        while mask >= 0:
            yield mask, bd
            mask = lanes.find(bd, mask + 1)


@lru_cache(maxsize=16)  # the sizes of one n = 5 member: the xi rows, then the blocks and the K4
def _canonical_cut(g: CubeGraph, m: int) -> int | None:
    """Boundary of the canonical m-set (labels 0..m-1) if both sides are connected, else None."""
    if is_connected_induced(g, range(m)) and is_connected_induced(g, range(m, g.num_vertices)):
        return boundary_size(g, canonical_set(m, g.n))
    return None


def _settled(bound: int, found: int | None, witness: str) -> int:
    """The lower bound if the canonical witness's cut (None: a side is disconnected) meets it."""
    if found == bound:
        return bound
    if found is None:
        raise BudgetExceededError(
            f"the canonical {witness} has a disconnected side; the lower bound is {bound}")
    raise BudgetExceededError(f"the canonical {witness} gives {found}, not the lower bound {bound}")


@lru_cache(maxsize=32)
def _xi_table(g: CubeGraph) -> tuple[int | None, ...]:
    """Per small-side size m: xi_m, or None if no bipartition has that size.

    The first, so least, boundary of each size in _bipartitions: exhaustive scale only.
    """
    nv, best = g.num_vertices, {}
    for mask, bd in _bipartitions(g):
        best.setdefault(min(mask.bit_count(), nv - mask.bit_count()), bd)
        if len(best) == nv // 2:
            break
    return tuple(best.get(m) for m in range(nv // 2 + 1))


def brute_ex(g: CubeGraph, m: int) -> int:
    """Maximum doubled edge count over m-vertex subsets.

    Every CubeGraph is regular, and an m-set S of a d-regular graph has
    2 * edges(S) + bd(S) = d * m, so this is d * m minus the minimum boundary
    over all m-subsets.
    """
    nv = g.num_vertices
    if not 0 <= m <= nv:
        raise ValueError(f"m must be in [0, {nv}], got {m}")
    return g.degree(0) * m - _size_table(g)[m]


def brute_xi(g: CubeGraph, m: int) -> int:
    """Minimum boundary over m-subsets with both sides connected.

    Exhaustive scale scans the connected bipartitions.  Past it, the minimum
    over all m-subsets is a lower bound, settled by the canonical m-set.
    """
    nv = g.num_vertices
    if not 1 <= m <= nv // 2:
        raise ValueError(f"m must be in [1, {nv // 2}], got {m}")
    if not _exhaustive(g):
        return _settled(_size_table(g)[m], _canonical_cut(g, m), f"{m}-set")
    found = _xi_table(g)[m]
    if found is None:
        raise RuntimeError(f"no feasible subset of size {m}; graph is malformed")
    return found


def brute_xi_unconstrained(g: CubeGraph, m: int) -> int:
    """Minimum boundary over all m-subsets, no connectivity requirement.

    Read from the per-size table of the two label halves; it exists to test
    that disconnected optima do not occur.
    """
    nv = g.num_vertices
    if not 1 <= m <= nv // 2:
        raise ValueError(f"m must be in [1, {nv // 2}], got {m}")
    return _size_table(g)[m]


def brute_lambda_h(g: CubeGraph, h: int) -> int:
    """Minimum boundary over connected bipartitions whose small side has >= h vertices."""
    nv = g.num_vertices
    if not 1 <= h <= nv // 2:
        raise ValueError(f"h must be in [1, {nv // 2}], got {h}")
    return min(brute_xi(g, m) for m in range(h, nv // 2 + 1))


def _embedded_ok(n, l, mask):
    """True iff every vertex of the side lies in a wholly contained prefix subcube."""
    blocks = (((1 << (1 << l)) - 1) << (prefix << l) for prefix in range(1 << (n - l)))
    return mask & ~reduce(or_, (b for b in blocks if b & ~mask == 0), 0) == 0


def _pattern_ok(g: CubeGraph, pattern: FaultPattern, l: int, mask: int, bd: int) -> bool:
    """Whether a side passes the pattern at l; bd is its boundary."""
    if pattern is FaultPattern.SUPER_DEGREE:
        return all((g.adjacency[v] & mask).bit_count() >= l for v in _bits(mask))
    if pattern is FaultPattern.AVERAGE_DEGREE:
        # a regular graph's side of m vertices holds d * m - bd doubled edges
        return bd <= (g.degree(0) - l) * mask.bit_count()
    if pattern is FaultPattern.EMBEDDED:
        return _embedded_ok(g.n, l, mask)
    raise ValueError(f"unsupported pattern {pattern}")


def _least_cut(g: CubeGraph, side_ok) -> int | None:
    """Least bd of a connected bipartition whose two sides pass side_ok(side, bd), else None."""
    full = (1 << g.num_vertices) - 1
    return next((bd for mask, bd in _bipartitions(g)
                 if side_ok(mask, bd) and side_ok(full ^ mask, bd)), None)


def brute_conditional(g: CubeGraph, pattern: FaultPattern, l: int) -> int:
    """Minimum boundary over connected bipartitions where both sides satisfy the pattern.

    Both sides of EXTRA_SIZE hold at least 2^l vertices, which is the small side
    holding at least 2^l: that is brute_lambda_h(g, 2^l).  Both sides of EMBEDDED are
    unions of aligned 2^l blocks, so that bounds it; past exhaustive scale the
    bound is settled by the canonical 2^l block.
    """
    if not 2 <= l <= g.n - 1:
        raise ValueError(f"l must be in [2, {g.n - 1}], got {l}")
    if pattern is FaultPattern.EXTRA_SIZE:
        return brute_lambda_h(g, 1 << l)
    if pattern is FaultPattern.EMBEDDED and not _exhaustive(g):
        return _settled(brute_lambda_h(g, 1 << l), _canonical_cut(g, 1 << l), f"{1 << l}-block")
    if not _exhaustive(g):
        raise BudgetExceededError("conditional search needs exhaustive scale")
    best = _least_cut(g, lambda side, bd: _pattern_ok(g, pattern, l, side, bd))
    if best is None:
        raise RuntimeError(f"no feasible bipartition for {pattern.name} at l={l}")
    return best


def _cyclic_side_ok(g, mask, bd):
    # a connected side holds a cycle iff it has as many edges as vertices: average degree 2
    return mask.bit_count() >= 3 and _pattern_ok(g, FaultPattern.AVERAGE_DEGREE, 2, mask, bd)


def brute_cyclic(g: CubeGraph) -> int:
    """Minimum boundary over connected bipartitions with a cycle on both sides.

    Exhaustive mode scans all bipartitions.  Past it, a side of m vertices
    that holds a cycle has at least m internal edges, so its boundary is at
    most (degree - 2) * m; the least per-size minimum over the sizes m <= nv/2
    that allow this bounds the cut from below, settled by the canonical 4-set,
    a K4 on every member.
    """
    if g.n < 3:
        raise ValueError(f"n must be >= 3, got {g.n}")
    if _exhaustive(g):
        best = _least_cut(g, lambda side, bd: _cyclic_side_ok(g, side, bd))
        if best is None:
            raise RuntimeError("no cyclic bipartition found; graph is malformed")
        return best

    rest, found = (1 << g.num_vertices) - 1 ^ 0xF, _canonical_cut(g, 4)  # 0xF: labels 0..3
    if found is None or not (_cyclic_side_ok(g, 0xF, found) and _cyclic_side_ok(g, rest, found)):
        raise RuntimeError("no small-side cyclic candidate found")
    room, least = g.degree(0) - 2, _size_table(g)
    bound = min(least[m] for m in range(1, len(least) // 2 + 1) if least[m] <= room * m)
    return _settled(bound, found, "4-set")


class CheckEntry(namedtuple("CheckEntry", "member quantity input closed brute match")):
    """One compared row; brute and match are None when the oracle could not settle it."""

    __slots__ = ()

    @property
    def skipped(self) -> bool:
        return self.brute is None


class VerificationReport(namedtuple("VerificationReport", "n members entries")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        checked = [e for e in self.entries if not e.skipped]
        return bool(checked) and all(e.match for e in checked)

    def to_text(self) -> str:
        header = f"verification n={self.n}: {'PASS' if self.passed else 'FAIL'}"
        widths = ("quantity", "input", "closed", "brute", "match")
        rows = [header, "", "member  " + "  ".join(widths)]
        for e in self.entries:
            brute = "skipped" if e.skipped else str(e.brute)
            match = "skipped" if e.skipped else str(e.match).lower()
            rows.append(
                f"{e.member}  {e.quantity}  {e.input}  {e.closed}  {brute}  {match}"
            )
        return "\n".join(rows) + "\n"


def _guarded(entries, member, quantity, inp, closed, search):
    try:
        brute = search()
    except BudgetExceededError:
        entries.append(CheckEntry(member, quantity, inp, closed, None, None))
        return
    entries.append(CheckEntry(member, quantity, inp, closed, brute, brute == closed))


def verify_member(n: int, member_seeds: list[int]) -> VerificationReport:
    """Cross-check every closed form against brute force on concrete members.

    The closed values are those the package serves: lambda_h comes from
    `lambda_fast`, and a disagreement with its defining minimum `lambda_scan`
    is a failing "lambda_scan" row, found also where the brute search is skipped.
    """
    if not 3 <= n <= 5:
        raise ValueError(f"n must be in [3, 5], got {n}")
    members = [("canonical", canonical_member(n))]
    members += [
        (f"seed{seed}", build_k4cube(random_matching_tree(n, seed)))
        for seed in member_seeds
    ]
    half = 1 << (n - 1)
    entries: list[CheckEntry] = []
    for name, g in members:
        for m in range(1, half + 1):
            _guarded(entries, name, "ex", str(m), f_value(m),
                     lambda g=g, m=m: brute_ex(g, m))
            closed_xi = xi_h4(m, n)
            _guarded(entries, name, "xi", str(m), closed_xi,
                     lambda g=g, m=m: brute_xi(g, m))
            _guarded(entries, name, "xi_e", str(m), closed_xi,
                     lambda g=g, m=m: brute_xi_unconstrained(g, m))
        for h in range(1, half + 1):
            closed, defined = lambda_fast(h, n), lambda_scan(h, n)
            if closed != defined:  # the served value must equal its defining minimum
                entries.append(CheckEntry(name, "lambda_scan", str(h), closed, defined, False))
            _guarded(entries, name, "lambda", str(h), closed,
                     lambda g=g, h=h: brute_lambda_h(g, h))
        for l in range(2, n):
            for pattern in FaultPattern:
                _guarded(entries, name, f"cond_{pattern.name.lower()}", str(l),
                         conditional_lambda(pattern, l, n),
                         lambda g=g, p=pattern, l=l: brute_conditional(g, p, l))
        _guarded(entries, name, "cyclic", "-", cyclic_lambda(n),
                 lambda g=g: brute_cyclic(g))
    return VerificationReport(
        n=n, members=tuple(name for name, _ in members), entries=tuple(entries)
    )
