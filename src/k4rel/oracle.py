"""Brute-force computation of the reliability parameters on materialized graphs.

Everything here is search, not formula: densest subsets, minimum boundaries,
conditional and cyclic cuts are found by enumeration so the closed forms can
be validated against an independent path.  Exhaustive mode (up to 16 vertices)
builds one transient table of the doubled induced edges and the boundary of
every vertex subset; the per-size optima, the connected bipartitions and the
average-degree check are all read from it.  Bounded mode (one dimension
further) runs one cached search over connected m-sets that yields both the
densest set and the smallest boundary with a connected complement, and a
branch-and-bound over bipartitions for the cyclic cut.  Any search that would
exceed its budget raises BudgetExceededError rather than returning a partial
answer.

The restriction of cut searches to connected bipartitions rests on the fact
that a minimum cut leaving three or more components could drop the edges
between two of them and still be a valid smaller cut; for n = 3 an
unrestricted edge-subset search confirms this independently
(brute_lambda_h_unrestricted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

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
    induced_edge_count,
    random_matching_tree,
    subset_mask,
)


class BudgetExceededError(RuntimeError):
    """A search would exceed its OracleBudget."""


@dataclass(frozen=True)
class OracleBudget:
    max_n_exhaustive: int = 4
    max_subset_size_bounded: int = 10
    node_limit: int = 50_000_000

    def __post_init__(self):
        if self.max_n_exhaustive < 1 or self.max_subset_size_bounded < 1 or self.node_limit < 1:
            raise ValueError("budget fields must be positive")


DEFAULT_BUDGET = OracleBudget()


class _NodeCounter:
    __slots__ = ("count", "limit")

    def __init__(self, limit: int):
        self.count = 0
        self.limit = limit

    def tick(self, amount: int = 1) -> None:
        self.count += amount
        if self.count > self.limit:
            raise BudgetExceededError(f"search exceeded node limit {self.limit}")


def _bits(mask: int):
    """The vertices of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _component(adjacency: tuple[int, ...], mask: int) -> int:
    """The vertices of mask reachable from its lowest vertex inside mask (0 if empty)."""
    seen = frontier = mask & -mask
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= adjacency[v]
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen


def _mask_connected(adjacency: tuple[int, ...], mask: int) -> bool:
    return _component(adjacency, mask) == mask


def _exhaustive(g: CubeGraph, budget: OracleBudget) -> bool:
    return g.num_vertices <= (1 << budget.max_n_exhaustive)


def _mask_table(g: CubeGraph) -> tuple[bytearray, bytearray]:
    """Doubled induced edges and boundary of every vertex subset, indexed by mask.

    Each entry extends the one for its mask without the highest vertex.  Every
    value fits a byte up to 16 vertices; the table is transient, so callers
    reduce it and let it go.
    """
    e2 = bytearray(1 << g.num_vertices)
    bd = bytearray(1 << g.num_vertices)
    for v, row in enumerate(g.adjacency):
        low = 1 << v
        inner = bytes(2 * (row & rest).bit_count() for rest in range(low))
        deg = row.bit_count()
        e2[low:2 * low] = bytes(a + c for a, c in zip(e2[:low], inner))
        bd[low:2 * low] = bytes(b + deg - c for b, c in zip(bd[:low], inner))
    return e2, bd


@lru_cache(maxsize=32)
def _subset_tables(g: CubeGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per subset size m: (max doubled edge count, min unconstrained boundary)."""
    nv = g.num_vertices
    max_e2 = [0] * (nv + 1)
    min_bd = [0] + [nv * nv] * nv
    for mask, (e2, bd) in enumerate(zip(*_mask_table(g))):
        m = mask.bit_count()
        if e2 > max_e2[m]:
            max_e2[m] = e2
        if bd < min_bd[m]:
            min_bd[m] = bd
    return tuple(max_e2), tuple(min_bd)


@lru_cache(maxsize=32)
def _bipartitions(g: CubeGraph) -> tuple[tuple[int, int], ...]:
    """All (mask, boundary) with both sides connected and nonempty; vertex 0 in mask."""
    adj = g.adjacency
    full = (1 << g.num_vertices) - 1
    bd = _mask_table(g)[1]
    return tuple(
        (mask, bd[mask])
        for mask in range(1, full, 2)
        if _mask_connected(adj, mask) and _mask_connected(adj, full ^ mask)
    )


@lru_cache(maxsize=32)
def _connected_search(
    g: CubeGraph, m: int, budget: OracleBudget
) -> tuple[int, int] | BudgetExceededError:
    """Over connected m-sets: (max doubled edge count, min boundary with connected complement).

    A search that runs out of budget returns its error, so the cache keeps
    that outcome too and no later caller runs the same search again.

    Each connected set is grown once, from its lowest vertex through higher
    neighbours only.  Both optima start from the canonical set, and a branch
    is cut only when neither can still improve: its doubled edges can gain at
    most add_bound[size], and its boundary can fall at most to the degree sum
    of a minimum-degree finish minus those edges.
    """
    nv = g.num_vertices
    adj = g.adjacency
    full = (1 << nv) - 1
    degs = [row.bit_count() for row in adj]
    mindeg, maxdeg = min(degs), max(degs)
    # add_bound[k]: most doubled edges that k..m-1 further insertions can add
    add_bound = [0] * (m + 1)
    for k in range(m - 1, 0, -1):
        add_bound[k] = add_bound[k + 1] + 2 * min(maxdeg, k)
    seed = canonical_set(m, g.n)
    best_e2, best_bd = 2 * induced_edge_count(g, seed), boundary_size(g, seed)
    counter = _NodeCounter(budget.node_limit)

    def grow(smask, size, e2, degsum, ext, forbidden, allowed):
        nonlocal best_e2, best_bd
        counter.tick()
        if size == m:
            best_e2 = max(best_e2, e2)
            if degsum - e2 < best_bd and _mask_connected(adj, full ^ smask):
                best_bd = degsum - e2
            return
        if (e2 + add_bound[size] <= best_e2
                and degsum + (m - size) * mindeg - e2 - add_bound[size] >= best_bd):
            return
        while ext:
            u_bit = ext & -ext
            ext ^= u_bit
            u = u_bit.bit_length() - 1
            new_s = smask | u_bit
            grow(new_s, size + 1, e2 + 2 * (adj[u] & smask).bit_count(), degsum + degs[u],
                 (ext | (adj[u] & allowed)) & ~new_s & ~forbidden, forbidden, allowed)
            forbidden |= u_bit

    try:
        for v in range(nv):
            allowed = ~((2 << v) - 1)
            grow(1 << v, 1, 0, degs[v], adj[v] & allowed, 0, allowed)
    except BudgetExceededError as exc:
        return exc
    return best_e2, best_bd


def _searched(g: CubeGraph, m: int, budget: OracleBudget, index: int) -> int:
    """One optimum of the cached connected search; raises its budget error, if any."""
    if m > budget.max_subset_size_bounded:
        raise BudgetExceededError(
            f"m={m} exceeds bounded subset size {budget.max_subset_size_bounded}"
        )
    outcome = _connected_search(g, m, budget)
    if isinstance(outcome, BudgetExceededError):
        raise outcome.with_traceback(None)
    return outcome[index]


def brute_ex(g: CubeGraph, m: int, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Maximum doubled edge count over m-vertex subsets.

    Bounded mode searches connected subsets only (a disconnected optimum can
    be merged component-by-component without losing edges); exhaustive mode
    reads every subset from the mask table.
    """
    nv = g.num_vertices
    if not 0 <= m <= nv:
        raise ValueError(f"m must be in [0, {nv}], got {m}")
    if m <= 1:
        return 0
    if _exhaustive(g, budget):
        return _subset_tables(g)[0][m]
    return _searched(g, m, budget, 0)


@lru_cache(maxsize=4096)
def brute_xi(g: CubeGraph, m: int, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Minimum boundary over m-subsets with both sides connected."""
    nv = g.num_vertices
    if not 1 <= m <= nv // 2:
        raise ValueError(f"m must be in [1, {nv // 2}], got {m}")
    if _exhaustive(g, budget):
        best = None
        for mask, bd in _bipartitions(g):
            size = mask.bit_count()
            if size == m or nv - size == m:
                if best is None or bd < best:
                    best = bd
        if best is None:
            raise RuntimeError(f"no feasible subset of size {m}; graph is malformed")
        return best
    return _searched(g, m, budget, 1)


def brute_xi_unconstrained(g: CubeGraph, m: int, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Minimum boundary over all m-subsets, no connectivity requirement.

    Only exhaustive scale: connected enumeration cannot rule out disconnected
    optima, and this quantity exists precisely to test that they do not occur.
    """
    nv = g.num_vertices
    if not 1 <= m <= nv // 2:
        raise ValueError(f"m must be in [1, {nv // 2}], got {m}")
    if not _exhaustive(g, budget):
        raise BudgetExceededError("unconstrained minimum needs exhaustive scale")
    return _subset_tables(g)[1][m]


def brute_lambda_h(g: CubeGraph, h: int, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Minimum boundary over connected bipartitions whose small side has >= h vertices."""
    nv = g.num_vertices
    if not 1 <= h <= nv // 2:
        raise ValueError(f"h must be in [1, {nv // 2}], got {h}")
    return min(brute_xi(g, m, budget) for m in range(h, nv // 2 + 1))


def brute_lambda_h_unrestricted(
    g: CubeGraph, h: int, budget: OracleBudget = DEFAULT_BUDGET, max_cut: int = 8
) -> int:
    """h-extra edge-connectivity by raw edge-subset search, no bipartition assumption.

    Tries every edge subset of size 1, 2, ... up to max_cut and returns the
    first size whose removal leaves only components of order >= h.  Exists to
    confirm, at n = 3 scale, that restricting the main oracle to two-component
    splits loses nothing.
    """
    nv = g.num_vertices
    adj = list(g.adjacency)
    edges = sorted((u, v) for u in range(nv) for v in g.row(u) if u < v)
    counter = _NodeCounter(budget.node_limit)
    full = (1 << nv) - 1
    for size in range(1, max_cut + 1):
        for cut in combinations(edges, size):
            counter.tick()
            reduced = list(adj)
            for u, v in cut:
                reduced[u] &= ~(1 << v)
                reduced[v] &= ~(1 << u)
            remaining = full
            while remaining:
                part = _component(reduced, remaining)
                if part.bit_count() < h:
                    break
                remaining ^= part
            if remaining == 0 and part != full:
                return size
    raise BudgetExceededError(f"no h-extra edge-cut of size <= {max_cut} found")


def _side_stats(adj, mask):
    """(size, doubled internal edges, min internal degree) of one side."""
    degs = [(adj[v] & mask).bit_count() for v in _bits(mask)]
    return len(degs), sum(degs), min(degs, default=0)


def _embedded_ok(n, l, mask):
    """True iff every vertex of the side lies in a wholly contained prefix subcube."""
    width = 1 << l
    block = (1 << width) - 1
    covered = 0
    for prefix in range(1 << (n - l)):
        sub = block << (prefix * width)
        if sub & ~mask == 0:
            covered |= sub
    return mask & ~covered == 0


def _pattern_ok(g: CubeGraph, pattern: FaultPattern, l: int, mask: int) -> bool:
    size, e2, mind = _side_stats(g.adjacency, mask)
    if pattern is FaultPattern.SUPER_DEGREE:
        return mind >= l
    if pattern is FaultPattern.AVERAGE_DEGREE:
        return e2 >= l * size
    if pattern is FaultPattern.EXTRA_SIZE:
        return size >= (1 << l)
    if pattern is FaultPattern.EMBEDDED:
        return _embedded_ok(g.n, l, mask)
    raise ValueError(f"unsupported pattern {pattern}")


def brute_conditional(
    g: CubeGraph, pattern: FaultPattern, l: int, budget: OracleBudget = DEFAULT_BUDGET
) -> int:
    """Minimum boundary over connected bipartitions where both sides satisfy the pattern."""
    if pattern is FaultPattern.CYCLIC:
        raise ValueError("use brute_cyclic for the cyclic pattern")
    if not 2 <= l <= g.n - 1:
        raise ValueError(f"l must be in [2, {g.n - 1}], got {l}")
    if not _exhaustive(g, budget):
        raise BudgetExceededError("conditional search needs exhaustive scale")
    full = (1 << g.num_vertices) - 1
    best = None
    for mask, bd in _bipartitions(g):
        if (best is None or bd < best) and _pattern_ok(g, pattern, l, mask) and _pattern_ok(
            g, pattern, l, full ^ mask
        ):
            best = bd
    if best is None:
        raise RuntimeError(f"no feasible bipartition for {pattern.name} at l={l}")
    return best


def _cyclic_side_ok(adj, mask):
    # a connected side holds a cycle iff it has at least as many edges as vertices
    size, e2, _ = _side_stats(adj, mask)
    return size >= 3 and e2 >= 2 * size


def brute_cyclic(g: CubeGraph, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Minimum boundary over connected bipartitions with a cycle on both sides.

    Exhaustive mode scans all bipartitions.  Bounded mode (one dimension up)
    starts from the cut around the canonical 4-set, a K4 on every member, then
    runs a branch-and-bound over two-sided vertex assignments: crossing edges
    among decided vertices only grow, so any partial assignment at or above the
    best value is pruned.
    """
    if g.n < 3:
        raise ValueError(f"n must be >= 3, got {g.n}")
    adj = g.adjacency
    nv = g.num_vertices
    full = (1 << nv) - 1
    if _exhaustive(g, budget):
        best = None
        for mask, bd in _bipartitions(g):
            if (best is None or bd < best) and _cyclic_side_ok(adj, mask) and _cyclic_side_ok(
                adj, full ^ mask
            ):
                best = bd
        if best is None:
            raise RuntimeError("no cyclic bipartition found; graph is malformed")
        return best

    seed = canonical_set(4, g.n)
    mask = subset_mask(seed)
    if not (_mask_connected(adj, mask) and _mask_connected(adj, full ^ mask)
            and _cyclic_side_ok(adj, mask) and _cyclic_side_ok(adj, full ^ mask)):
        raise RuntimeError("no small-side cyclic candidate found")
    best = boundary_size(g, seed)
    counter = _NodeCounter(budget.node_limit)
    back = [adj[i] & ((1 << i) - 1) for i in range(nv)]

    def dfs(i, mask_x, mask_y, crossing):
        nonlocal best
        counter.tick()
        if crossing >= best:
            return
        if i == nv:
            if (
                _cyclic_side_ok(adj, mask_x)
                and _cyclic_side_ok(adj, mask_y)
                and _mask_connected(adj, mask_x)
                and _mask_connected(adj, mask_y)
            ):
                best = crossing
            return
        bit = 1 << i
        dfs(i + 1, mask_x | bit, mask_y, crossing + (back[i] & mask_y).bit_count())
        dfs(i + 1, mask_x, mask_y | bit, crossing + (back[i] & mask_x).bit_count())

    dfs(1, 1, 0, 0)  # vertex 0 pinned to one side; complements are symmetric
    return best


def average_degree_floor_check(g: CubeGraph, budget: OracleBudget = DEFAULT_BUDGET) -> bool:
    """Every subset with integer average-degree floor l has at least 2**(l-1) vertices."""
    if not _exhaustive(g, budget):
        raise BudgetExceededError("average degree check needs exhaustive scale")
    for mask, e2 in enumerate(_mask_table(g)[0]):
        k = mask.bit_count()
        if k and e2 >= k and k < (1 << (e2 // k - 1)):
            return False
    return True


@dataclass(frozen=True)
class CheckEntry:
    member: str
    quantity: str
    input: str
    closed: int
    brute: int | None  # None when the search was skipped on budget
    match: bool | None

    @property
    def skipped(self) -> bool:
        return self.brute is None


@dataclass(frozen=True)
class VerificationReport:
    n: int
    members: tuple[str, ...]
    entries: tuple[CheckEntry, ...] = field(default_factory=tuple)

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


def verify_member(
    n: int, member_seeds: list[int], budget: OracleBudget = DEFAULT_BUDGET
) -> VerificationReport:
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
                     lambda g=g, m=m: brute_ex(g, m, budget))
            closed_xi = xi_h4(m, n)
            _guarded(entries, name, "xi", str(m), closed_xi,
                     lambda g=g, m=m: brute_xi(g, m, budget))
            _guarded(entries, name, "xi_e", str(m), closed_xi,
                     lambda g=g, m=m: brute_xi_unconstrained(g, m, budget))
        for h in range(1, half + 1):
            closed, defined = lambda_fast(h, n), lambda_scan(h, n)
            if closed != defined:  # the served value must equal its defining minimum
                entries.append(CheckEntry(name, "lambda_scan", str(h), closed, defined, False))
            _guarded(entries, name, "lambda", str(h), closed,
                     lambda g=g, h=h: brute_lambda_h(g, h, budget))
        for l in range(2, n):
            for pattern in (
                FaultPattern.SUPER_DEGREE,
                FaultPattern.AVERAGE_DEGREE,
                FaultPattern.EXTRA_SIZE,
                FaultPattern.EMBEDDED,
            ):
                _guarded(entries, name, f"cond_{pattern.name.lower()}", str(l),
                         conditional_lambda(pattern, l, n),
                         lambda g=g, p=pattern, l=l: brute_conditional(g, p, l, budget))
        _guarded(entries, name, "cyclic", "-", cyclic_lambda(n),
                 lambda g=g: brute_cyclic(g, budget))
    return VerificationReport(
        n=n, members=tuple(name for name, _ in members), entries=tuple(entries)
    )
