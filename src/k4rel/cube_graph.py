"""Construction of hypercube variants and generalized K4-hypercube members.

Vertices are plain integers in [0, 2**n), read as n-bit strings (bit 0 is the
lowest-order coordinate).  A graph stores one row of neighbour labels per
vertex (O(n * 2**n) bytes, not 4**n bits: 2 bytes per label up to n = 16, 4
above).  Canonical sets are ranges: a query on a run of labels counts its rows
as one slice, a byte plane at a time.  Other subsets hold one bytearray mark and
a list of their members, and walk their rows.  Graphs are immutable after
construction.  A member's recipe is the tuple of its levels, one packed array
of matchings per depth: see build_k4cube.
"""

from __future__ import annotations

import io
import random
import sys
from array import array
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cached_property, lru_cache

# Ceiling for materialized graphs; closed-form evaluation has no such limit.  Measured
# under a 2 GB address-space limit (Python 3.11, 2-core x86-64 Xeon VM): build_k4cube of
# random_matching_tree(23, 1) takes 36 s (20 s drawing the levels) and peaks at 1.19 GB RSS,
# its 805 MB of rows held once; at n = 22 it takes 15 s (8.5 s drawing) and peaks at 0.58 GB.
MAX_DIM = 23


def _label_code(largest: int) -> str:
    """The array typecode that packs labels up to largest: 'H' (2 bytes) below 2^16, else 'I'."""
    return "H" if largest < 1 << 16 else "I"


class CubeGraph(namedtuple("CubeGraph", "n kind neighbours")):
    """An immutable graph: `neighbours` packs one row of labels per vertex, all
    of one length, as unsigned ints of the width _label_code gives its largest
    label: 2 bytes up to n = 16, 4 above.  kind ("hypercube", "enhanced(k)",
    "k4member") is a descriptor used in reports and carries no structure.
    Instances keep a __dict__ for the cached row view and degree.
    """

    def __repr__(self) -> str:  # the rows are left out
        return f"CubeGraph(n={self.n!r}, kind={self.kind!r})"

    @cached_property
    def _flat(self) -> memoryview:
        return memoryview(self.neighbours).cast(_label_code((1 << self.n) - 1))

    _degree = cached_property(lambda self: len(self._flat) >> self.n)  # labels per row

    def __reduce__(self):  # the cached row view, a memoryview, is not pickled
        return CubeGraph, (self.n, self.kind, self.neighbours)

    @property
    def num_vertices(self) -> int:
        return 1 << self.n

    def row(self, v: int) -> memoryview:
        """The neighbours of v."""
        d = self.degree(v)
        return self._flat[v * d:(v + 1) * d]

    def degree(self, v: int) -> int:
        if not 0 <= v < 1 << self.n:
            raise ValueError(f"vertex must be in [0, {1 << self.n}), got {v}")
        return self._degree

    def edge_count(self) -> int:
        return len(self._flat) // 2


def _from_columns(n: int, kind: str, slots: int, flips, columns=()) -> CubeGraph:
    """Rows of slots labels: v ^ flip for each flip, then v's entry in each further column.

    A flip column is written one byte plane at a time: byte k of every v ^ flip is byte k
    of v through the XOR table of flip's byte k.  Further columns are array('I'), so that
    they hold the marker 2^n of a slot not yet filled even at n = 16.  Where labels take
    2 bytes, each item's low half is copied.
    """
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {n}")
    code = _label_code((1 << n) - 1)
    width = array(code).itemsize  # bytes per label
    step = array("I").itemsize // width  # labels per 'I' item: 1, or 2 for 'H'
    low = step - 1 if sys.byteorder == "big" else 0  # the one holding the low-order bytes
    rows = io.BytesIO(bytes(width * slots << n))  # getvalue() hands it over uncopied
    with rows.getbuffer() as buffer, buffer.cast(code) as flat:
        for j, column in enumerate(columns, len(flips)):  # before the planes: one peak, not two
            flat[j::slots] = memoryview(column).cast("B").cast(code)[low::step]
        for k in range(-(-n // 8)):  # the higher bytes stay 0
            plane, at = _byte_plane(n, k), k if sys.byteorder == "little" else width - 1 - k
            for flip in flips:  # byte k of the next column's labels: from byte at, one per row
                buffer[at::slots * width] = plane.translate(_xor_table(flip >> 8 * k & 255))
                at += width
    return CubeGraph(n=n, kind=kind, neighbours=rows.getvalue())


def _byte_plane(n: int, k: int) -> bytes:
    """Byte k of every label in [0, 2^n), in label order."""
    runs = (1 << n) >> 8 * k  # byte k holds each value for a run of 2^(8k) labels
    cycle = b"".join(bytes((i,)) * (1 << 8 * k) for i in range(min(runs, 256)))
    return cycle * max(1, runs >> 8)


@lru_cache(maxsize=None)
def _xor_table(mask: int) -> bytes:
    """The bytes.translate table of byte ^ mask, built on first use."""
    return bytes(i ^ mask for i in range(256))


def build_hypercube(n: int) -> CubeGraph:
    """The n-dimensional hypercube: u ~ v iff u XOR v is a power of two."""
    return _from_columns(n, "hypercube", n, [1 << i for i in range(n)])


def build_enhanced(n: int, k: int) -> CubeGraph:
    """Hypercube plus all k-complementary edges (complement the low n-k+1 bits)."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    flips = [1 << i for i in range(n)] + [(1 << (n - k + 1)) - 1]
    return _from_columns(n, f"enhanced({k})", n + 1, flips)


def random_matching_tree(n: int, seed: int) -> tuple[array, ...]:
    """Deterministic random levels for build_k4cube: every matching is a seeded shuffle.

    The matchings, in the recursion's post-order, are the permutations of range(2^(d-1))
    that successive random.Random(seed).shuffle calls give; _shuffle reproduces them from
    the same getrandbits calls.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > MAX_DIM:  # no build accepts the levels: refuse them before their 2^(n-1)-entry draws
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {n}")
    getrandbits = random.Random(seed).getrandbits  # level i's entries are below 2^(n-i-1)
    levels = [array(_label_code((1 << (n - i - 1)) - 1)) for i in range(n - 2)]
    for k in range(1, (1 << (n - 2)) + 1):  # leaf k closes a gluing per trailing 0-bit of k
        for i in range(n - 3, n - 2 - (k & -k).bit_length(), -1):  # deepest first
            perm = list(range(1 << (n - i - 1)))
            _shuffle(perm, getrandbits)  # a list shuffles faster than an array
            levels[i].extend(perm)
    return tuple(levels)


def _shuffle(x: list, getrandbits) -> None:
    """random.shuffle(x) with the same getrandbits calls, so the same permutation.

    For i from len(x) - 1 down to 1, j is getrandbits(k), k = (i + 1).bit_length(),
    drawn again while j > i, and x[i] swaps with x[j].  i walks the runs of one k, so
    no Python frame is made per entry.
    """
    for k, run in _runs(len(x)):
        for i in run:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]


@lru_cache(maxsize=None)
def _runs(length: int) -> tuple[tuple[int, range], ...]:
    """Each k > 1 with the i in [1, length) for which i + 1 has k bits, descending."""
    return tuple((k, range(min(length, (1 << k) - 1) - 1, (1 << (k - 1)) - 2, -1))
                 for k in range(length.bit_length(), 1, -1))


def build_k4cube(levels: Sequence[Sequence[int]]) -> CubeGraph:
    """Assemble the family member of dimension n = len(levels) + 2 from its matchings.

    A member of dimension n is two (n-1)-dimensional members glued along a perfect
    matching, down to K4 leaves (dimension 2, no levels).  levels[i] packs, left
    to right, the matchings of the 2^i gluings at dimension d = n - i: the one of
    labels [first, first + 2^d) joins first + u to first + 2^(d-1) + matching[u].
    Each level holds 2^(n-1) entries, which random_matching_tree packs in an
    array('H'), 2 bytes per entry, where they fit, and in an array('I') at the
    levels of dimension above 17 (any sequence of ints is accepted).  A level becomes
    one column of partners in one pass, checked whole: entries below 2^(d-1), no repeat.

    Labels follow the recursive halves: the 0-half of a dimension-d gluing takes
    labels [0, 2**(d-1)), the 1-half takes [2**(d-1), 2**d).  This is what makes
    the canonical sets {0, ..., m-1} meaningful on every member.
    """
    n = len(levels) + 2  # flips 1, 2, 3 join each aligned 4-block: the K4 leaves
    return _from_columns(n, "k4member", n + 1, (1, 2, 3), _matching_columns(n, levels))


def _matching_columns(n: int, levels: Sequence[Sequence[int]]):
    """One column per level, each vertex's partner across its gluing; each level is
    copied once and checked as a whole by _below, after _from_columns has checked n."""
    size = 1 << n
    for i, level in enumerate(levels):
        half = 1 << (n - i - 1)
        message = f"matching must be a permutation of [0, {half})"
        try:  # one copy per level, a memcpy of the levels drawn here: its blocks are views
            view = memoryview(array(_label_code(half - 1), level))
        except (OverflowError, TypeError):  # an entry < 0, or no sequence of ints
            raise ValueError(message) from None
        if len(view) != size >> 1:
            raise ValueError(f"level {i} must hold {size >> 1} entries, got {len(view)}")
        if _below(view, half) != len(view):  # an entry's pair would leave the gluing
            raise ValueError(message)
        column, u = array("I", [size]) * size, 0  # size marks a slot no pair fills
        for at in range(0, size >> 1, half):  # the gluing of labels [u, u + 2 half), u = 2 at
            top = u + half
            for v in view[at:at + half]:
                column[u] = w = top + v
                column[w] = u
                u += 1
            u = top + half
        if _below(memoryview(column), size) != size:  # a repeat leaves a partner's slot unfilled
            raise ValueError(message)
        yield column


def canonical_member(n: int) -> CubeGraph:
    """The member of identity matchings, enhanced(n, n-1): each gluing joins v to v ^ 2^(d-1)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return _from_columns(n, "k4member", n + 1, [1, 2, 3] + [1 << (d - 1) for d in range(n, 2, -1)])


def canonical_set(m: int, n: int) -> range:
    """The first m vertex labels {0, ..., m-1}."""
    if not 0 <= m <= (1 << n):
        raise ValueError(f"m must be in [0, {1 << n}], got {m}")
    return range(m)


def _marked(g: CubeGraph, members: Iterable[int]) -> tuple[bytearray, Sequence[int]]:
    """A membership mark per vertex, and each member once: a range of step 1 or -1 within g
    as an ascending range, any other members in one pass that checks each label."""
    size = g.num_vertices
    mark = bytearray(size)
    if type(members) is range and members.step in (1, -1):
        run = members[::members.step]
        if 0 <= run.start and run.stop <= size:  # else the walk names the first label out
            mark[run.start:run.stop] = b"\1" * len(run)
            return mark, run
    verts = []
    for v in members:
        if not 0 <= v < size:  # before the mark: a negative label would index from the end
            raise ValueError(f"labels must be in [0, {size}), got {v}")
        if not mark[v]:
            mark[v] = 1
            verts.append(v)
    return mark, verts


def _inner(g: CubeGraph, members: Iterable[int]) -> tuple[int, int]:
    """How many members there are, and how many labels in their rows are members."""
    mark, verts = _marked(g, members)
    flat, d = g._flat, g.degree(0)
    if type(verts) is range:  # the rows of [lo, hi) are one slice; w is in it iff lo <= w < hi
        rows = flat[verts.start * d:verts.stop * d]
        return len(verts), _below(rows, verts.stop) - _below(rows, verts.start)
    return len(verts), sum(mark[w] for v in verts for w in flat[v * d:v * d + d])


def _below(rows: memoryview, t: int) -> int:
    """How many labels in rows are below t, counted 2^12 labels and one byte plane at a time.

    Most significant plane first: a label is below t where its byte is below t's and its
    bytes above equal t's.  bytes.translate maps a plane to one 0/1 byte per label, and
    int.from_bytes those to an int, so each step is a C-level count or AND and bit_count.
    """
    width = rows.itemsize
    if t >= 1 << 8 * width:  # past every label
        return len(rows)
    raw, count, step = rows.cast("B"), 0, width << 12
    planes = [(t >> 8 * k & 255, k if sys.byteorder == "little" else width - 1 - k)
              for k in range(width - 1, -1, -1) if t % (256 << 8 * k)]  # to t's lowest byte > 0
    for i in range(0, len(raw), step):
        chunk, equal = raw[i:i + step].tobytes(), -1
        for b, at in planes:
            plane = chunk[at::width]
            if b:  # no byte is below 0
                less = plane.translate(b"\1" * b + bytes(256 - b))
                count += (less.count(1) if equal == -1  # every byte above is t's
                          else (int.from_bytes(less, "big") & equal).bit_count())
            if b not in plane:  # no label's bytes equal t's this far
                break
            equal &= int.from_bytes(plane.translate(bytes(b) + b"\1" + bytes(255 - b)), "big")
    return count


def induced_edge_count(g: CubeGraph, members: Iterable[int]) -> int:
    """Number of edges with both endpoints in the subset."""
    return _inner(g, members)[1] // 2


def boundary_size(g: CubeGraph, members: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in the subset."""
    size, inner = _inner(g, members)
    return g.degree(0) * size - inner


def is_connected_induced(g: CubeGraph, members: Iterable[int]) -> bool:
    """True iff the induced subgraph is connected (empty set and singletons count)."""
    mark, verts = _marked(g, members)
    flat, d = g._flat, g.degree(0)
    size, reach = len(verts), list(verts[:1])  # verts may be a range
    del verts  # the sweep holds reach alone, not the member list beside it
    if reach:
        mark[reach[0]] = 0
    for v in reach:  # the list grows while it is walked: a breadth-first sweep
        for w in flat[v * d:v * d + d]:
            if mark[w]:
                mark[w] = 0
                reach.append(w)
    return len(reach) == size


def bitmap_pbm(g: CubeGraph, start: int = 0, stop: int | None = None) -> str:
    """Portable bitmap (P1) text: 0 = white = edge present, 1 = black = no edge.

    Rows start .. stop-1 (all by default), after the header when start is 0.
    """
    return bitmap_pbm_bytes(g, start, stop).decode("ascii")


def bitmap_pbm_bytes(g: CubeGraph, start: int = 0, stop: int | None = None) -> bytearray:
    """bitmap_pbm's text as ASCII bytes, for a binary stream."""
    if start < 0 or stop is not None and stop < start:  # a negative start would read flat[-d:0]
        raise ValueError(f"rows must have 0 <= start <= stop, got {start}, {stop}")
    size, flat, d = g.num_vertices, g._flat, g.degree(0)
    template = b"1 " * (size - 1) + b"1\n"
    text = bytearray(b"P1\n%d %d\n" % (size, size) if start == 0 else b"")
    for u in range(start, size if stop is None else min(stop, size)):
        begin = len(text)
        text += template
        for v in flat[u * d:u * d + d]:
            text[begin + 2 * v] = 48  # "0"
    return text
