"""Computation of the reliability parameters on materialized members, by bound and witness.

Everything here is search, not formula: each answer is a lower bound met by a
witness cut, so the closed forms are validated against an independent path.
The oracle answers only for a graph whose rows certify that it is built as a
member: each aligned 2^d block is two 2^(d-1) blocks joined by one perfect
matching, down to K4s.  A recursion over d bounds its m-subsets' boundaries
from below, and one sweep up the labels settles every size m at once.  The
one comparison made at run time is that bound against the cut around the
canonical m-set (labels 0..m-1), and a cut off its bound at any m refuses the
member.  The certificate shows both sides of each such set connected, and the
aligned 2^l block argument in brute_conditional gives the degree patterns'
witness sides their inner degree.  lambda_h and the cyclic, average-degree,
super-degree and embedded cuts are the least xi_m over a set of sizes m.  A
graph outside the family, a witness off its bound, or n past BOUNDED_N raises
BudgetExceededError rather than returning a partial answer, and verify_member
passes that refusal on rather than skip a row.
At n <= 4 the tests compare every answer with the exhaustive subset search of
tests/reference.py, which also answers graphs outside the family.

Cut searches keep to connected bipartitions: a cut leaving three or more
components can put back the edges between two adjacent ones and stay valid,
so no minimum cut leaves more than two.  At n = 3, an edge-subset search in
tests/reference.py that assumes nothing about the components confirms this.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from operator import add, eq, xor

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
    build_k4cube,
    canonical_member,
    random_matching_tree,
)


BOUNDED_N = 14  # a cold _recursion_bound(14) takes about 1.1 s, and each n about 4 times the last


class BudgetExceededError(RuntimeError):
    """The oracle cannot settle this check: no witness meets its bound, or n is past its scale."""


@lru_cache(maxsize=BOUNDED_N - 1)  # n = 2..BOUNDED_N, each built from the one below
def _recursion_bound(n: int) -> tuple[int, ...]:
    """Per m, a lower bound on the boundary of every m-subset of a certified member.

    A K4 leaf has boundaries (0, 3, 4, 3, 0).  Where two halves are joined by
    one perfect matching pi, S = S_L + S_R has bd(S) = bd_L(S_L) + bd_R(S_R) +
    |pi(S_L) ^ S_R|, and the last term is at least |a - b| for a = |S_L|,
    b = |S_R|.  So B_n[m] is the least B_{n-1}[a] + B_{n-1}[b] + |a - b| over
    a + b = m: a search that never calls f.  The summand is symmetric in a and b, so
    a >= b suffices; and B_n[m] = B_n[2^n - m], as complements have equal boundaries
    (B_{n-1} is symmetric the same way), so m <= 2^(n-1) suffices.
    """
    if n == 2:
        return (0, 3, 4, 3, 0)
    low, half = _recursion_bound(n - 1), 1 << (n - 1)
    paired = [b + 2 * a for a, b in enumerate(low)]  # a from (m + 1) // 2 up meets low[m - a]
    first = [min(map(add, paired[(m + 1) // 2:m + 1], low[m // 2::-1])) - m
             for m in range(half + 1)]
    return tuple(first + first[-2::-1])


@lru_cache(maxsize=1)  # every search on a refused graph asks
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


def _prefix_cuts(g: CubeGraph) -> tuple[int, ...]:
    """Per m <= nv/2, bd([0, m)): label v adds its degree and takes back 2 per neighbour below it.

    _rows certifies g first, and on a member both sides of every canonical set
    are connected.  Each v > 0 has a neighbour below it: v ^ 1 or v ^ 2 if
    v mod 4 != 0, else its partner across the gluing at v's lowest set bit, so
    a path down the labels joins [0, m) to 0.  By symmetry each v < nv - 1 has
    a neighbour above it, and a path up joins [m, nv) to nv - 1.
    """
    d, row, half = g.degree(0), g.row, g.num_vertices // 2
    return tuple(accumulate((d - 2 * sum(w < v for w in row(v)) for v in range(half)), initial=0))


@lru_cache(maxsize=1)  # every row of one member asks
def _rows(g: CubeGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per m <= nv/2, xi_m settled by the bound and the canonical m-set, and its suffix minima;
    the least m whose cut misses its bound refuses the member.  Each witness has both sides
    connected, so xi_m is the least boundary over m-subsets and over connected bipartitions
    with a side of m vertices alike."""
    if g.n > BOUNDED_N:  # the certificate holds at every n; the bound's time sets the cap
        raise BudgetExceededError(
            f"n = {g.n} is past the bounded oracle, which stops at n = {BOUNDED_N}")
    if not _certified(g):
        raise BudgetExceededError(
            "the rows fail the member certificate: K4 leaves, one matching per gluing")
    xis = _prefix_cuts(g)
    for m, (cut, bound) in enumerate(zip(xis, _recursion_bound(g.n))):
        if cut != bound:
            raise BudgetExceededError(
                f"the canonical {m}-set gives {cut}, not the lower bound {bound}")
    return xis, tuple(accumulate(reversed(xis), min))[::-1]


def brute_ex(g: CubeGraph, m: int) -> int:
    """Maximum doubled edge count over m-vertex subsets.

    Every CubeGraph is regular, and an m-set S of a d-regular graph has
    2 * edges(S) + bd(S) = d * m, so this is d * m minus the minimum boundary
    over all m-subsets, which is that over their complements.
    """
    nv = g.num_vertices
    if not 0 <= m <= nv:
        raise ValueError(f"m must be in [0, {nv}], got {m}")
    return g.degree(0) * m - _rows(g)[0][min(m, nv - m)]


def brute_xi(g: CubeGraph, m: int) -> int:
    """Minimum boundary over m-subsets with both sides connected."""
    nv = g.num_vertices
    if not 1 <= m <= nv // 2:
        raise ValueError(f"m must be in [1, {nv // 2}], got {m}")
    return _rows(g)[0][m]


def brute_xi_unconstrained(g: CubeGraph, m: int) -> int:
    """Minimum boundary over all m-subsets, no connectivity requirement.

    The bound holds for every m-subset and its witness has both sides connected,
    so this is brute_xi: its rows show that disconnected optima do not occur.
    """
    return brute_xi(g, m)


def brute_lambda_h(g: CubeGraph, h: int) -> int:
    """Minimum boundary over connected bipartitions whose small side has >= h vertices."""
    nv = g.num_vertices
    if not 1 <= h <= nv // 2:
        raise ValueError(f"h must be in [1, {nv // 2}], got {h}")
    return _rows(g)[1][h]


def _room_min(g: CubeGraph, r: int) -> int:
    """The least xi_m <= (degree - r) * m over m <= nv/2.  Some m fits for every r < degree:
    the halves, joined by one matching, have xi = nv/2."""
    room = g.degree(0) - r
    return min(xi for m, xi in enumerate(_rows(g)[0][1:], 1) if xi <= room * m)


def brute_conditional(g: CubeGraph, pattern: FaultPattern, l: int) -> int:
    """Minimum boundary over connected bipartitions where both sides satisfy the pattern.

    Both sides of EXTRA_SIZE hold at least 2^l vertices, which is the small side
    holding at least 2^l: that is brute_lambda_h(g, 2^l).  Both sides of EMBEDDED
    are unions of aligned 2^l blocks, so the least xi_m over the multiples m of 2^l
    bounds it, and the canonical m-set that settles that xi_m meets it: a prefix
    whose length is a multiple of 2^l is a union of aligned 2^l blocks, and so is
    its complement.

    The degree patterns read l as the dimension of a sub-member: a side needs
    inner degree >= l + 1, its minimum for SUPER_DEGREE and its average for
    AVERAGE_DEGREE, and both are _room_min(g, l + 1), exact as brute_cyclic shows
    for the average.  A side of minimum inner degree >= l + 1 has average >= l + 1,
    so that bounds SUPER_DEGREE from below too, and the aligned 2^l block meets it.
    The block is an l-dimensional member, of inner degree l + 1.  A vertex outside
    it has at most one neighbour in it, across the least gluing that holds both, so
    its inner degree is at least n >= l + 1.  Its cut is the room minimum: the rule
    asks f(m) >= (l + 1) * m, and below 2^l that fails, as Q(m) <= m * log2(m)
    (Harper; Hart) and f's mod-4 terms add at most m.  So every m that passes is at
    least 2^l, and xi_m >= lambda_{2^l} = xi(2^l) = (n - l) * 2^l by lambda_fast's walk.
    """
    if not 2 <= l <= g.n - 1:
        raise ValueError(f"l must be in [2, {g.n - 1}], got {l}")
    if pattern is FaultPattern.EXTRA_SIZE:
        return brute_lambda_h(g, 1 << l)
    if pattern is FaultPattern.EMBEDDED:
        return min(_rows(g)[0][1 << l::1 << l])
    return _room_min(g, l + 1)


def brute_cyclic(g: CubeGraph) -> int:
    """Minimum boundary over connected bipartitions with a cycle on both sides: _room_min(g, 2).

    A connected side holds a cycle iff its average degree is at least 2.  As g
    is regular, a side S has 2 * edges(S) = degree * |S| - bd, so its average
    degree is at least r iff bd <= (degree - r) * |S|, and the small side's
    inequality implies the large side's: the least xi_m that passes is exact.
    """
    if g.n < 3:
        raise ValueError(f"n must be >= 3, got {g.n}")
    return _room_min(g, 2)


class CheckEntry(namedtuple("CheckEntry", "member quantity input closed brute match")):
    """One compared row.  verify_member settles every row it makes, so `skipped` (brute None)
    holds only for a row made by hand, and such a row fails its report."""

    __slots__ = ()

    @property
    def skipped(self) -> bool:
        return self.brute is None


class VerificationReport(namedtuple("VerificationReport", "n members entries")):
    __slots__ = ()

    @property
    def passed(self) -> bool:
        return bool(self.entries) and all(e.match for e in self.entries)

    def to_text(self) -> str:
        header = f"verification n={self.n}: {'PASS' if self.passed else 'FAIL'}"
        widths = ("quantity", "input", "closed", "brute", "match")
        rows = [header, "", "member  " + "  ".join(widths)]
        for e in self.entries:
            rows.append(f"{e.member}  {e.quantity}  {e.input}  {e.closed}  {e.brute}  "
                        f"{str(e.match).lower()}")
        return "\n".join(rows) + "\n"


def verify_member(n: int, member_seeds: list[int]) -> VerificationReport:
    """Cross-check every closed form against the bound-and-witness searches on concrete members.

    The closed values are those the package serves, built once per n into one check
    table: lambda_h comes from `lambda_fast`, and a disagreement with its defining
    minimum `lambda_scan` is a failing "lambda_scan" row.  Every member then runs
    through the same table, and a member the oracle refuses raises BudgetExceededError.
    """
    if not 3 <= n <= BOUNDED_N:
        raise ValueError(f"n must be in [3, {BOUNDED_N}], got {n}")
    half = 1 << (n - 1)
    checks = []  # quantity, input, closed value, then the search and its arguments after g
    for m in range(1, half + 1):
        closed_xi = xi_h4(m, n)
        checks += [("ex", str(m), f_value(m), brute_ex, m),
                   ("xi", str(m), closed_xi, brute_xi, m),
                   ("xi_e", str(m), closed_xi, brute_xi_unconstrained, m)]
    for h in range(1, half + 1):
        closed, defined = lambda_fast(h, n), lambda_scan(h, n)
        if closed != defined:  # the served value must equal its defining minimum
            checks.append(("lambda_scan", str(h), closed, lambda g, value: value, defined))
        checks.append(("lambda", str(h), closed, brute_lambda_h, h))
    checks += [(f"cond_{pattern.name.lower()}", str(l), conditional_lambda(pattern, l, n),
                brute_conditional, pattern, l) for l in range(2, n) for pattern in FaultPattern]
    checks.append(("cyclic", "-", cyclic_lambda(n), brute_cyclic))
    members = [("canonical", canonical_member(n))]
    members += [
        (f"seed{seed}", build_k4cube(random_matching_tree(n, seed)))
        for seed in member_seeds
    ]
    entries = []
    for name, g in members:
        for quantity, inp, closed, search, *args in checks:
            brute = search(g, *args)
            entries.append(CheckEntry(name, quantity, inp, closed, brute, brute == closed))
    return VerificationReport(
        n=n, members=tuple(name for name, _ in members), entries=tuple(entries)
    )
