"""Brute-force computation of the reliability parameters on materialized graphs.

Everything here is search, not formula: densest subsets, minimum boundaries,
conditional and cyclic cuts are found by enumeration so the closed forms can
be validated against an independent path.  At exhaustive scale (up to 16
vertices) one byte-lane table holds the boundary of every vertex subset, and a
bitmap of the connected subsets turns it into a second that holds each
connected bipartition's boundary (255 on the other masks).  The least boundary
per size, xi and the super-degree cut are the first lanes that qualify, found
boundary by boundary with bytes.find.  One dimension past it, only a graph
certified to be built as a member is searched: each aligned 2^d block is two
2^(d-1) blocks joined by one perfect matching, down to K4s.  A recursion over
d bounds its m-subsets' boundaries from below, and the bound must meet the cut
around the canonical m-set (labels 0..m-1) with both sides connected.
Otherwise, or past that scale, the check raises BudgetExceededError rather
than returning a partial answer.  At every scale the cyclic, average-degree
and embedded cuts are the least xi_m over a set of sizes m.

Cut searches keep to connected bipartitions: a cut leaving three or more
components can put back the edges between two adjacent ones and stay valid,
so no minimum cut leaves more than two.  At n = 3, an edge-subset search in
tests/reference.py that assumes nothing about the components confirms this.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, reduce
from operator import and_, eq, or_, xor

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
)


EXHAUSTIVE_N = 4  # one dimension more would be a 2^32-entry subset table
_DIGITS, _OUTSIDE = bytes.maketrans(b"\0\xff", b"01"), bytes.maketrans(b"01", b"\xff\0")


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


@lru_cache(maxsize=1)  # one graph's vertex count
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


def _ascending(lanes: bytes):
    """Each (mask, lane) of the lanes below 255, by lane, then mask, walked lazily."""
    for bd in range(255):
        mask = lanes.find(bd)
        while mask >= 0:
            yield mask, bd
            mask = lanes.find(bd, mask + 1)


@lru_cache(maxsize=2)  # one graph's minima over its subsets and over its bipartitions
def _size_minima(g: CubeGraph, connected: bool) -> tuple[int | None, ...]:
    """Per m <= nv/2: the least boundary of a set of m vertices or of its complement.

    Over every subset (_mask_table), or over the connected bipartitions
    (_cut_lanes); None where no set has that size.  The first, so least, lane of
    each size, walked by ascending boundary until every size has one.
    """
    nv, best = g.num_vertices, {}
    for mask, bd in _ascending(_cut_lanes(g) if connected else _mask_table(g.adjacency)):
        best.setdefault(min(mask.bit_count(), nv - mask.bit_count()), bd)
        if len(best) == nv // 2 + 1 - connected:  # no bipartition has an empty side
            break
    return tuple(best.get(m) for m in range(nv // 2 + 1))


@lru_cache(maxsize=4)  # n = 2..5, each built from the one below
def _recursion_bound(n: int) -> tuple[int, ...]:
    """Per m, a lower bound on the boundary of every m-subset of a certified member.

    A K4 leaf has boundaries (0, 3, 4, 3, 0).  Where two halves are joined by
    one perfect matching pi, S = S_L + S_R has bd(S) = bd_L(S_L) + bd_R(S_R) +
    |pi(S_L) ^ S_R|, and the last term is at least |a - b| for a = |S_L|,
    b = |S_R|.  So B_n[m] is the least B_{n-1}[a] + B_{n-1}[b] + |a - b| over
    a + b = m: a search that never calls f.
    """
    if n == 2:
        return (0, 3, 4, 3, 0)
    low, half = _recursion_bound(n - 1), 1 << (n - 1)
    return tuple(min(low[a] + low[m - a] + abs(m - 2 * a)
                     for a in range(max(0, m - half), min(m, half) + 1))
                 for m in range(2 * half + 1))


@lru_cache(maxsize=1)  # every row of one member asks
def _certified(g: CubeGraph) -> bool:
    """Whether each aligned 2^b block of g is two 2^(b-1) blocks joined by one perfect
    matching, down to K4s, as in every member.  Read column by column, O(n * 2^n).

    _from_columns writes slot j of every row from one flip or one matching, so
    column j (entry j of each row v, col[v]) must be an involution, and its slot
    key, x for x = v ^ col[v] below 4 and x.bit_length() + 1 above, must be the
    same at every v.  The keys of the columns, sorted, must be 1..n+1.  Why
    this is the member structure:

    - An involution pairs v with col[v] and col[v] with v, so every edge is
      listed at both ends: the rows are symmetric.  Key 0 (col[v] = v) fails.
    - A constant key b + 1 >= 4 puts v and col[v] in one aligned 2^b block,
      one in each half (x has bit b-1 set and no higher one).  With the
      involution, the column is a perfect matching between the halves of
      every aligned 2^b block.  The keys 4..n+1 give one such matching per
      b = 3..n, and the distinct keys give distinct neighbours.
    - The keys 1, 2 and 3 are the exact flips v ^ 1, v ^ 2 and v ^ 3, which
      make every aligned 4-block a K4.

    The column order is not fixed (enhanced(n, n-1) lists flip 3 last), but a
    graph whose rows list the same neighbours in another order per vertex
    fails, and its searches are refused.
    """
    d, keys, labels = g.degree(0), [], range(g.num_vertices)
    for col in (g._flat[j::d] for j in range(d)):
        key, *others = {x if x < 4 else x.bit_length() + 1 for x in map(xor, col, labels)}
        if others or key > g.n + 1 or not all(map(eq, map(col.__getitem__, col), labels)):
            return False
        keys.append(key)
    return sorted(keys) == list(range(1, g.n + 2))


def _bound(g: CubeGraph) -> tuple[int, ...]:
    """Past exhaustive scale, the recursion bound, if g is certified and one dimension past it."""
    # the certificate holds at every n; the bound's cache and the canonical cuts' fit n <= 5
    if g.n > EXHAUSTIVE_N + 1:
        raise BudgetExceededError(
            f"n = {g.n} is past the bounded oracle, which stops at n = {EXHAUSTIVE_N + 1}")
    if not _certified(g):
        raise BudgetExceededError(
            "the rows fail the member certificate: K4 leaves, one matching per gluing")
    return _recursion_bound(g.n)


@lru_cache(maxsize=16)  # one n = 5 member's sizes: every witness is a xi size in 1..nv/2
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


def _least(g: CubeGraph, m: int, connected: bool) -> int | None:
    """Least boundary over m-subsets, m <= nv/2 (connected: both sides connected); past
    exhaustive scale the settled witness is connected, so it answers both."""
    if _exhaustive(g):
        return _size_minima(g, connected)[m]
    return _settled(_bound(g)[m], _canonical_cut(g, m), f"{m}-set")


def brute_ex(g: CubeGraph, m: int) -> int:
    """Maximum doubled edge count over m-vertex subsets.

    Every CubeGraph is regular, and an m-set S of a d-regular graph has
    2 * edges(S) + bd(S) = d * m, so this is d * m minus the minimum boundary
    over all m-subsets, which is that over their complements.
    """
    nv = g.num_vertices
    if not 0 <= m <= nv:
        raise ValueError(f"m must be in [0, {nv}], got {m}")
    return g.degree(0) * m - _least(g, min(m, nv - m), False)


def brute_xi(g: CubeGraph, m: int) -> int:
    """Minimum boundary over m-subsets with both sides connected."""
    nv = g.num_vertices
    if not 1 <= m <= nv // 2:
        raise ValueError(f"m must be in [1, {nv // 2}], got {m}")
    found = _least(g, m, True)
    if found is None:
        raise RuntimeError(f"no feasible subset of size {m}; graph is malformed")
    return found


def brute_xi_unconstrained(g: CubeGraph, m: int) -> int:
    """Minimum boundary over all m-subsets, no connectivity requirement.

    It exists to test that disconnected optima do not occur.
    """
    nv = g.num_vertices
    if not 1 <= m <= nv // 2:
        raise ValueError(f"m must be in [1, {nv // 2}], got {m}")
    return _least(g, m, False)


def brute_lambda_h(g: CubeGraph, h: int) -> int:
    """Minimum boundary over connected bipartitions whose small side has >= h vertices."""
    nv = g.num_vertices
    if not 1 <= h <= nv // 2:
        raise ValueError(f"h must be in [1, {nv // 2}], got {h}")
    return min(brute_xi(g, m) for m in range(h, nv // 2 + 1))


def _room_min(g: CubeGraph, r: int) -> int | None:
    """Least xi_m <= (degree - r) * m over the m <= nv/2 that have a connected bipartition."""
    room = g.degree(0) - r
    return min((xi for m in range(1, g.num_vertices // 2 + 1)
                if (xi := _least(g, m, True)) is not None and xi <= room * m), default=None)


def _least_cut(g: CubeGraph, l: int) -> int | None:
    """Least bd of a connected bipartition whose sides each have minimum inner degree >= l."""
    adjacency, full = g.adjacency, (1 << g.num_vertices) - 1
    return next((bd for mask, bd in _ascending(_cut_lanes(g))
                 if all((adjacency[v] & side).bit_count() >= l
                        for side in (mask, full ^ mask) for v in _bits(side))), None)


def brute_conditional(g: CubeGraph, pattern: FaultPattern, l: int) -> int:
    """Minimum boundary over connected bipartitions where both sides satisfy the pattern.

    Both sides of EXTRA_SIZE hold at least 2^l vertices, which is the small side
    holding at least 2^l: that is brute_lambda_h(g, 2^l).  AVERAGE_DEGREE is
    _room_min(g, l), exact as brute_cyclic shows; it and SUPER_DEGREE stop at
    exhaustive scale.  Both sides of EMBEDDED are unions of aligned 2^l blocks, so
    the least xi_m over the multiples m of 2^l bounds it, and the canonical m-set
    at the least m that attains it settles it: a prefix whose length is a multiple
    of 2^l is a union of aligned 2^l blocks, and so is its complement.
    """
    if not 2 <= l <= g.n - 1:
        raise ValueError(f"l must be in [2, {g.n - 1}], got {l}")
    if pattern is FaultPattern.EXTRA_SIZE:
        return brute_lambda_h(g, 1 << l)
    if pattern is FaultPattern.EMBEDDED:
        sizes = range(1 << l, g.num_vertices // 2 + 1, 1 << l)
        cut = min(((xi, m) for m in sizes if (xi := _least(g, m, True)) is not None), default=None)
        best = None if cut is None else _settled(cut[0], _canonical_cut(g, cut[1]), f"{cut[1]}-set")
    elif not _exhaustive(g):
        raise BudgetExceededError("conditional search needs exhaustive scale")
    else:
        best = _room_min(g, l) if pattern is FaultPattern.AVERAGE_DEGREE else _least_cut(g, l)
    if best is None:
        raise RuntimeError(f"no feasible bipartition for {pattern.name} at l={l}")
    return best


def brute_cyclic(g: CubeGraph) -> int:
    """Minimum boundary over connected bipartitions with a cycle on both sides: _room_min(g, 2).

    A connected side holds a cycle iff its average degree is at least 2.  As g
    is regular, a side S has 2 * edges(S) = degree * |S| - bd, so its average
    degree is at least r iff bd <= (degree - r) * |S|, and the small side's
    inequality implies the large side's: the least xi_m that passes is exact.
    """
    if g.n < 3:
        raise ValueError(f"n must be >= 3, got {g.n}")
    best = _room_min(g, 2)
    if best is None:
        raise RuntimeError("no cyclic bipartition found; graph is malformed")
    return best


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
