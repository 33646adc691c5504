"""Exact integer evaluation of the reliability formulas.

Everything here is a pure function of its integer arguments: densest-subset
degree sums of K4-hypercube members, the isoperimetric optimum xi_m, the
h-extra edge-connectivity lambda_h (both the defining suffix minimum and an
O(n) walk over the bits of h - 1), the concentration intervals where lambda_h
is constant, the four conditional edge-connectivities, and the cyclic
edge-connectivity.  All arithmetic is exact Python integers.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import namedtuple
from enum import Enum
from functools import lru_cache
from itertools import accumulate, chain

# Rows per block of profile_blocks, a power of two >= 4: each block's lists, tuple and text stay
# <= 32 KB, so freed ones are reused (profile --n 22: 2.3k minor faults, 48k at 2^12, 97k at 2^14),
# and the blocks of one n share n - 10 cached _block_shape entries of 4 KB arrays each
PROFILE_BLOCK = 1 << 10
_CHUNK = 60  # binary digits of m whose hypercube-sum terms are summed before one shift


class ConcentrationInterval(namedtuple("ConcentrationInterval", "t length lower upper value")):
    """A range [lower, upper] of h over which lambda_h is the constant `value`."""

    __slots__ = ()


class FaultPattern(Enum):
    """What the oracle asks of each side of a bipartition whose two sides are connected."""

    # l is read as a sub-member's dimension, of inner degree l + 1: inferred from the abstract,
    # which gives both as (n - l) * 2^l, the aligned 2^l block's cut, without naming the degree
    SUPER_DEGREE = 1  # every vertex of the side has degree >= l + 1 inside the side
    AVERAGE_DEGREE = 2  # the side has 2 * edges >= (l + 1) * size
    EXTRA_SIZE = 3  # the side has at least 2**l vertices
    EMBEDDED = 4  # every vertex of the side lies in an l-dimensional sub-member inside the side


def gamma(n: int) -> int:
    """Parity indicator: 0 for even n, 1 for odd n."""
    return n & 1


def _hypercube_sum(m: int) -> int:
    """Sum of (t + 2i) * 2**t over the exponents t of m, the i-th from the top.

    One pass down bin(m), _CHUNK digits at a time: a chunk's terms are summed
    as small ints relative to its lowest exponent, and the total is shifted
    once per chunk (Horner), not once per set bit.
    """
    digits = bin(m)[2:]
    total = ones = 0
    for start in range(0, len(digits), _CHUNK):
        chunk = digits[start:start + _CHUNK]
        top = len(digits) - 1 - start  # the exponent of the chunk's first digit
        part = 0
        for k, digit in enumerate(chunk):
            if digit == "1":
                part += (top - k + 2 * ones) << (len(chunk) - 1 - k)
                ones += 1
        total = (total << len(chunk)) + part
    return total


def _f(m: int) -> int:
    """f(m) without the range check: the hypercube sum + 4*floor(m/4), + 2 if m = 3 (mod 4)."""
    return _hypercube_sum(m) + 4 * (m >> 2) + (2 if m & 3 == 3 else 0)


def f_value(m: int) -> int:
    """Densest m-subset degree sum in any K4-hypercube member; always even."""
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    return _f(m)


def xi_h4(m: int, n: int) -> int:
    """Isoperimetric optimum of an n-dimensional member: (n+1)*m - f(m).

    On every member this is the least boundary of an m-set S with S and its
    complement connected, and f(m) the most doubled edges an m-set spans: a
    member is (n+1)-regular, so S has boundary (n+1)*m - 2*edges(S).

    Lemma.  f(a+b) >= f(a) + f(b) + 2*min(a, b) for all a, b >= 0.  Write f = Q + g,
    Q the hypercube sum and g(m) = m - r(m), r = (0, 1, 2, 1) by m mod 4.  Q(m) is
    twice the most edges m hypercube vertices span, met by the first m labels
    (Harper 1964; Hart 1976).  For b <= a <= 2**k, the first a labels and 2**k +
    the first b labels span Q(a)/2 + Q(b)/2 + b edges, so Q(a+b) >= Q(a) + Q(b) + 2b.
    And g(a+b) - g(a) - g(b) = r(a) + r(b) - r(a+b) >= 0 over the 4 x 4 residues.

    Bound.  2*edges(S) <= f(|S|) on every member, by induction on n: on K4,
    f(m) = m(m-1).  Past it S meets the two halves in a and b vertices, which
    their matching joins by at most min(a, b) edges, so by the lemma
    2*edges(S) <= f(a) + f(b) + 2*min(a, b) <= f(a+b).

    Met.  The canonical set {0, ..., m-1} spans f(m) on every member.  Past the
    0-half, m = 2**(n-1) + b with 0 < b < 2**(n-1), it is the 0-half, the first b
    labels of the 1-half and their b matching edges, and
    f(m) = f(2**(n-1)) + f(b) + 2b: the top bit adds 2 * 2**t to each lower term
    of Q, and 4 divides 2**(n-1).  By the same recursion the set is connected, and so
    is its complement, a canonical set of the member v -> 2**n - 1 - v maps it onto.
    """
    if not 1 <= m <= (1 << n) - 1:
        raise ValueError(f"m must be in [1, {(1 << n) - 1}], got {m}")
    return (n + 1) * m - _f(m)


def lambda_scan(h: int, n: int) -> int:
    """h-extra edge-connectivity by its defining minimum: the table of full_profile.

    Its domain is that of full_profile, 3 <= n <= 24.
    """
    lam = full_profile(n)
    if not 1 <= h <= len(lam):
        raise ValueError(f"h must be in [1, {len(lam)}], got {h}")
    return lam[h - 1]


def g_interval_length(t: int, n: int) -> int:
    """Length of the t-th concentration interval: ceil(2**(2t+2+gamma) / 3)."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if not 0 <= t <= n // 2 - 1:
        raise ValueError(f"t must be in [0, {n // 2 - 1}], got {t}")
    power = 1 << (2 * t + 2 + gamma(n))
    return -(-power // 3)


def concentration_intervals(n: int) -> list[ConcentrationInterval]:
    """One interval per t = 0 .. floor(n/2)-1, with its constant lambda value.

    For n >= 4, interval t = floor(n/2) - 2 lies inside the last one, t + 1, so
    its upper end is not sharp.  Let x = 2**(n-2).  Interval t has upper end
    2**(ceil(n/2)+t) = x, value 2x and length ceil(x/3), as 2t + 2 + gamma =
    n - 2; interval t + 1 has upper end 2x, value 2x and length ceil(4x/3).
    As ceil(4x/3) = x + ceil(x/3), both have lower end x - ceil(x/3), and
    lambda stays 2x = 2**(n-1) past interval t's upper end.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    out = []
    ceil_half = -(-n // 2)
    for t in range(n // 2):
        g = g_interval_length(t, n)
        upper = 1 << (ceil_half + t)
        out.append(
            ConcentrationInterval(
                t=t,
                length=g,
                lower=upper - g,
                upper=upper,
                value=(n // 2 - t) << (ceil_half + t),
            )
        )
    return out


def lambda_fast(h: int, n: int) -> int:
    """h-extra edge-connectivity, the least xi_m over h <= m <= 2**(n-1), in O(log h) steps.

    Let H = 2**(n-1) and g = h - 1.  The candidates are g rounded up at each of
    its 0-bits j <= n-1: c_j = (g >> j | 1) << j, which agrees with g above j,
    has bit j set and every lower bit clear.  They lie in [h, H]: c_j > g,
    and c_j <= H as g >> j is even and below 2**(n-1-j).  They are h itself
    (j the lowest 0-bit of g), H (j = n-1), and h rounded up at its 0-bits
    above its lowest set bit.
    This extends the paper's lambda_h, given for h <= 2**ceil(n/2) and on the
    concentration intervals, to every h:  lambda_h = min over j of xi(c_j).

    Exchange inequality.  For m with at least two set bits, the lowest at t,
    xi_m > min(xi(m - 2**t), xi(m + 2**t)).  Write f(m) = Q(m) + 4*floor(m/4)
    + 2*[m = 3 (mod 4)] with Q the hypercube sum, and m = 2**t * q, q odd.
    From Q(2**t * q) = 2**t * Q(q) + t*q*2**t and Q(q+1) - Q(q) = 2*popcount(q),
    the second difference of Q over m - 2**t, m, m + 2**t is
    2**t * 2*(popcount(q) - popcount(q-1)) = 2**(t+1); that of the mod-4
    terms is 4 at t = 1 and 0 otherwise.  So the second difference of
    xi = (n+1)*m - f(m) is at most -2**(t+1) < 0.

    Proof.  Take m in [h, H] that is no candidate.  Then m < H, and let j be
    the highest bit where m and g differ: m has it, g does not, and bits of m
    below j are not all 0, so m's lowest set bit t is below j.  Both
    neighbours stay in [h, H] and are candidates or again no candidate with
    the same j and a smaller (number of m's set bits below j, j - t), in
    lexicographic order.  m - 2**t drops one bit below j (c_j when none is
    left).  m + 2**t clears the run of 1-bits from t up and sets the 0-bit u
    above it: if u < j, fewer bits below j or a higher lowest bit; otherwise
    the run passed j, and m + 2**t = c_u for the next 0-bit u of g above j,
    at most n-1.  By induction on that pair, xi_m >= the least xi(c_j).

    Walk.  Over m's set bits t_0 > t_1 > ... the terms
    (n + 1 - t_k - 2k - [t_k >= 2]) * 2**t_k sum to xi_m, less 2 when
    m = 3 (mod 4); of the candidates only c_0 can be, when g has bit 1.  One
    pass down the bits of g keeps the sum of the terms above j.  It starts at
    j = max(2, bit length of g), at most n - 2: above g's top bit every candidate
    is c_j = 2**j, and xi(2**j) = (n - j) * 2**j does not decrease over
    2 <= j <= n - 1, as 2 * (n - j - 1) >= n - j for j <= n - 2.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    half = 1 << (n - 1)
    if not 1 <= h <= half:
        raise ValueError(f"h must be in [1, {half}], got {h}")
    g, best = h - 1, half  # c_{n-1} = H, and xi_H = H
    prefix = ones = 0  # the xi terms of g's bits above j, and how many bits
    for j in range(min(n - 2, max(2, g.bit_length())), -1, -1):
        term = (n + 1 - j - 2 * ones - (j >= 2)) << j
        if g >> j & 1:
            prefix += term
            ones += 1
        else:  # c_j; c_0 = 3 (mod 4) when g has bit 1
            best = min(best, prefix + term - (j == 0 and g & 2))
    return best


def conditional_lambda(pattern: FaultPattern, l: int, n: int) -> int:
    """Common value of the four conditional edge-connectivities (cyclic_lambda: the cyclic one)."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if 2 <= l <= n - 1:
        return (n - l) << l
    if l in (0, 1) and pattern is not FaultPattern.EMBEDDED:
        return (n + 1 - l) << l
    raise ValueError(f"l={l} out of range for pattern {pattern.name} at n={n}")


def cyclic_lambda(n: int) -> int:
    """Cyclic edge-connectivity: lambda_3, which is 4n-8 for n in {3, 4}, otherwise 3n-3.

    The room rule (oracle.brute_cyclic) makes it the least xi_m with
    xi_m <= (n - 1) * m, that is with f(m) >= 2m, as xi_m = (n + 1) * m - f(m).
    By the lemma in xi_h4 at b = 1, f(m + 1) >= f(m) + f(1) + 2 = f(m) + 2, and
    f(3) = 6, so f(m) >= 2m at every m >= 3, while f(1) = 0 and f(2) = 2 fall
    short.  The sizes that pass are m >= 3, and the least xi_m over them is
    lambda_3.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    return lambda_fast(3, n)


@lru_cache(maxsize=32)  # a block shape per 2*popcount(q): n - 10 of them at n <= 24
def _block_shape(n: int, s: int, rows: int) -> tuple[array, array, array, array]:
    """F_s[r] = f(r) + s*r and X_s[r] = (n+1-s)*r - f(r) for 1 <= r < rows, the rising values
    of X_s's suffix minimum SM_s, and each row's run of them.  f sums its first differences."""
    f = [*accumulate((2 * r.bit_count() + (r & 2) for r in range(1, rows - 1)), initial=0)]
    xi = array("i", [(n + 1 - s) * r - f_r for r, f_r in enumerate(f, 1)])
    sm = [*accumulate(reversed(xi), min)][::-1]
    run = [*accumulate((a != b for a, b in zip(sm, sm[1:])), initial=0)]
    return (array("i", [f_r + s * r for r, f_r in enumerate(f, 1)]), xi,
            array("i", dict.fromkeys(sm)), array("i", run))


def profile_blocks(n: int, start: int = 0, stop: int | None = None, lam=int):
    """Yield the columns h, ex, xi, lambda of rows start+1 .. stop (default 2**(n-1)), B at a time.

    B = PROFILE_BLOCK divides start.  f(qB + r) = f(qB) + f(r) + 2*popcount(q)*r for 0 <= r < B,
    so a block is an offset plus the _block_shape of s = 2*popcount(q).  lambda is min(lambda_fast
    at the top row, xi's offset + SM_s) as lam(value), once per run (None if lam is falsy).
    """
    half, block = 1 << (n - 1), PROFILE_BLOCK
    stop = half if stop is None else stop
    if not 0 <= start <= stop <= half or start % block:
        raise ValueError(f"need 0 <= start <= stop <= {half} and start a multiple of {block}, "
                         f"got start={start}, stop={stop}")
    for lo in range(start, stop, block):
        hi, base = min(lo + block, stop), _f(lo)
        c = (n + 1) * lo - base
        ex_shape, xi_shape, values, run = _block_shape(n, 2 * (lo // block).bit_count(), hi - lo)
        ex, xi = [base + x for x in ex_shape], [c + x for x in xi_shape]
        ex.append(_f(hi))
        xi.append((n + 1) * hi - ex[-1])
        if lam:  # min(lambda_hi, xi_hi) = lambda_hi, so lambda at the top row caps the block
            top = lambda_fast(hi, n)
            below = bisect_left(values, top - c)  # the runs under top; top fills the rest
            shown = [lam(c + value) for value in values[:below]]
            column = [*map(shown.__getitem__, run[:bisect_left(run, below)])]
            column += [lam(top)] * (hi - lo - len(column))
        yield range(lo + 1, hi + 1), ex, xi, column if lam else None


@lru_cache(maxsize=4)
def full_profile(n: int) -> array:
    """lambda_h at index h - 1 by its definition, xi's running minimum down m: no lambda_fast."""
    if not 3 <= n <= 24:
        raise ValueError(f"n must be in [3, 24], got {n}")
    xi = array("q", chain.from_iterable(column for _, _, column, _ in profile_blocks(n, lam=False)))
    best = xi[-1]
    for m in range(len(xi) - 1, -1, -1):
        if xi[m] < best:
            best = xi[m]
        xi[m] = best
    return xi
