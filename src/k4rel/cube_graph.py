"""Construction of hypercube variants and generalized K4-hypercube members.

Vertices are plain integers in [0, 2**n), read as n-bit strings (bit 0 is the
lowest-order coordinate).  Adjacency is stored as one bitmask row per vertex,
so subset queries (induced edges, boundary, connectivity) are cheap popcount
and mask work.  Graphs are immutable after construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional

# Ceiling for materialized graphs; closed-form evaluation has no such limit.
MAX_DIM = 24


@dataclass(frozen=True)
class MatchingTree:
    """Recursive recipe for one member of the K4-hypercube family.

    A leaf (dimension 2) stands for K4.  An inner node of dimension d glues two
    (d-1)-dimensional members along a perfect matching: vertex u of the 0-half
    is joined to vertex matching[u] of the 1-half.  The all-identity tree
    reproduces the enhanced hypercube with all (n-1)-complementary edges.
    """

    dimension: int
    left: Optional["MatchingTree"] = None
    right: Optional["MatchingTree"] = None
    matching: Optional[tuple[int, ...]] = None

    def validate(self) -> None:
        if self.dimension < 2:
            raise ValueError(f"matching tree dimension must be >= 2, got {self.dimension}")
        if self.dimension == 2:
            if self.left is not None or self.right is not None or self.matching is not None:
                raise ValueError("dimension-2 node must be a bare leaf (the K4)")
            return
        if self.left is None or self.right is None or self.matching is None:
            raise ValueError(f"inner node of dimension {self.dimension} needs children and a matching")
        if self.left.dimension != self.dimension - 1 or self.right.dimension != self.dimension - 1:
            raise ValueError("child dimensions must be one less than the parent's")
        half = 1 << (self.dimension - 1)
        if len(self.matching) != half or sorted(self.matching) != list(range(half)):
            raise ValueError(f"matching must be a permutation of [0, {half})")
        self.left.validate()
        self.right.validate()


@dataclass(frozen=True)
class CubeGraph:
    """An immutable graph with bitmask adjacency rows.

    kind is a short descriptor ("hypercube", "enhanced(k)", "k4member") used in
    reports; it carries no structural information beyond what adjacency holds.
    """

    n: int
    kind: str
    adjacency: tuple[int, ...]

    @property
    def num_vertices(self) -> int:
        return 1 << self.n

    def degree(self, v: int) -> int:
        return self.adjacency[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {n}")


def build_hypercube(n: int) -> CubeGraph:
    """The n-dimensional hypercube: u ~ v iff u XOR v is a power of two."""
    _check_dim(n)
    size = 1 << n
    adjacency = tuple(
        sum(1 << (v ^ (1 << i)) for i in range(n)) for v in range(size)
    )
    return CubeGraph(n=n, kind="hypercube", adjacency=adjacency)


def build_enhanced(n: int, k: int) -> CubeGraph:
    """Hypercube plus all k-complementary edges (complement the low n-k+1 bits)."""
    _check_dim(n)
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    flip = (1 << (n - k + 1)) - 1
    base = build_hypercube(n)
    adjacency = tuple(
        row | (1 << (v ^ flip)) for v, row in enumerate(base.adjacency)
    )
    return CubeGraph(n=n, kind=f"enhanced({k})", adjacency=adjacency)


def identity_matching_tree(n: int) -> MatchingTree:
    """The tree whose every matching is the identity; yields enhanced(n, n-1)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n == 2:
        return MatchingTree(dimension=2)
    sub = identity_matching_tree(n - 1)
    return MatchingTree(
        dimension=n, left=sub, right=sub, matching=tuple(range(1 << (n - 1)))
    )


def random_matching_tree(n: int, seed: int) -> MatchingTree:
    """Deterministic random member recipe: every matching is a seeded shuffle."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = random.Random(seed)

    def grow(d: int) -> MatchingTree:
        if d == 2:
            return MatchingTree(dimension=2)
        left = grow(d - 1)
        right = grow(d - 1)
        perm = list(range(1 << (d - 1)))
        rng.shuffle(perm)
        return MatchingTree(dimension=d, left=left, right=right, matching=tuple(perm))

    return grow(n)


def build_k4cube(spec: MatchingTree) -> CubeGraph:
    """Assemble a family member from its matching tree.

    Labels follow the recursive halves: the 0-half of a dimension-d node takes
    labels [0, 2**(d-1)), the 1-half takes [2**(d-1), 2**d).  This is what makes
    the canonical sets {0, ..., m-1} meaningful on every member.
    """
    spec.validate()
    _check_dim(spec.dimension)

    def assemble(node: MatchingTree) -> list[int]:
        if node.dimension == 2:
            return [0b1110, 0b1101, 0b1011, 0b0111]
        half = 1 << (node.dimension - 1)
        left = assemble(node.left)
        right = assemble(node.right)
        adj = left + [row << half for row in right]
        for u, v in enumerate(node.matching):
            adj[u] |= 1 << (half + v)
            adj[half + v] |= 1 << u
        return adj

    return CubeGraph(n=spec.dimension, kind="k4member", adjacency=tuple(assemble(spec)))


def canonical_member(n: int) -> CubeGraph:
    """The canonical family member (identity matchings, equal to enhanced(n, n-1))."""
    return build_k4cube(identity_matching_tree(n))


def canonical_set(m: int, n: int) -> frozenset[int]:
    """The first m vertex labels {0, ..., m-1}."""
    if not 0 <= m <= (1 << n):
        raise ValueError(f"m must be in [0, {1 << n}], got {m}")
    return frozenset(range(m))


def subset_mask(members: Iterable[int]) -> int:
    mask = 0
    for v in members:
        mask |= 1 << v
    return mask


def _bits(mask: int):
    """The vertices of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def induced_edge_count(g: CubeGraph, members: Iterable[int]) -> int:
    """Number of edges with both endpoints in the subset."""
    mask = subset_mask(members)
    return sum((g.adjacency[v] & mask).bit_count() for v in _bits(mask)) // 2


def boundary_size(g: CubeGraph, members: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in the subset."""
    mask = subset_mask(members)
    return sum((g.adjacency[v] & ~mask).bit_count() for v in _bits(mask))


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


def is_connected_induced(g: CubeGraph, members: Iterable[int]) -> bool:
    """True iff the induced subgraph is connected (empty set and singletons count)."""
    return _mask_connected(g.adjacency, subset_mask(members))


def subcube_vertices(n: int, l: int, prefix: int) -> frozenset[int]:
    """The 2**l vertices whose top n-l bits equal prefix: an l-dimensional sub-member."""
    if not 0 <= l <= n:
        raise ValueError(f"l must be in [0, {n}], got {l}")
    if not 0 <= prefix < (1 << (n - l)):
        raise ValueError(f"prefix must be in [0, {1 << (n - l)}), got {prefix}")
    base = prefix << l
    return frozenset(range(base, base + (1 << l)))


def bitmap_pbm(g: CubeGraph) -> str:
    """Portable bitmap (P1) text: 0 = white = edge present, 1 = black = no edge."""
    size = g.num_vertices
    lines = ["P1", f"{size} {size}"]
    for u in range(size):
        row = g.adjacency[u]
        lines.append(" ".join("0" if (row >> v) & 1 else "1" for v in range(size)))
    return "\n".join(lines) + "\n"
