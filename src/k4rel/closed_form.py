"""Exact integer evaluation of the reliability formulas.

Everything here is a pure function of its integer arguments: densest-subset
degree sums for hypercubes and K4-hypercube members, the isoperimetric optimum
xi_m, the h-extra edge-connectivity lambda_h (both the defining suffix minimum
and the piecewise closed form), the concentration intervals where lambda_h is
constant, the four conditional edge-connectivities, and the cyclic
edge-connectivity.  All arithmetic is exact Python integers.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import accumulate, chain, count
from operator import add, sub

PROFILE_BLOCK = 1 << 14  # rows per block of profile_blocks: a power of two >= 4


@dataclass(frozen=True)
class BinaryDecomposition:
    """m written as a sum of distinct powers of two, exponents descending."""

    m: int
    exponents: tuple[int, ...]

    @property
    def s(self) -> int:
        return len(self.exponents) - 1


@dataclass(frozen=True)
class ConcentrationInterval:
    """A range [lower, upper] of h over which lambda_h is the constant `value`."""

    t: int
    length: int
    lower: int
    upper: int
    value: int


class FaultPattern(Enum):
    SUPER_DEGREE = 1  # every surviving vertex keeps degree >= l
    AVERAGE_DEGREE = 2  # each component has average degree >= l
    EXTRA_SIZE = 3  # each component has at least 2**l vertices
    EMBEDDED = 4  # every vertex lies in an intact l-dimensional sub-member
    CYCLIC = 5  # each component contains a cycle


def gamma(n: int) -> int:
    """Parity indicator: 0 for even n, 1 for odd n."""
    return n & 1


def decompose(m: int) -> BinaryDecomposition:
    """Greedy descending binary expansion of a positive integer."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    exponents = []
    rest = m
    while rest:
        t = rest.bit_length() - 1
        exponents.append(t)
        rest -= 1 << t
    return BinaryDecomposition(m=m, exponents=tuple(exponents))


def ex_qn(m: int, n: int) -> int:
    """Densest m-subset degree sum in the hypercube (independent of n)."""
    if not 0 <= m <= (1 << n):
        raise ValueError(f"m must be in [0, {1 << n}], got {m}")
    return _hypercube_sum(m)


def _hypercube_sum(m: int) -> int:
    """Sum of (t + 2i) * 2**t over the exponents t of m, the i-th from the top."""
    if m == 0:
        return 0
    return sum((t + 2 * i) << t for i, t in enumerate(decompose(m).exponents))


def _f(m: int) -> int:
    """f(m) without the range check: the hypercube sum + 4*floor(m/4), + 2 if m = 3 (mod 4)."""
    return _hypercube_sum(m) + 4 * (m >> 2) + (2 if m & 3 == 3 else 0)


def xi_qn(m: int, n: int) -> int:
    """Isoperimetric optimum of the hypercube: n*m - ex_m."""
    if not 1 <= m <= (1 << (n - 1)):
        raise ValueError(f"m must be in [1, {1 << (n - 1)}], got {m}")
    return n * m - ex_qn(m, n)


def f_value(m: int) -> int:
    """Densest m-subset degree sum in any K4-hypercube member; always even."""
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    return _f(m)


def ex_h4(m: int, n: int) -> int:
    """Densest m-subset degree sum in an n-dimensional member: f(m)."""
    if not 0 <= m <= (1 << n):
        raise ValueError(f"m must be in [0, {1 << n}], got {m}")
    return f_value(m)


def xi_h4(m: int, n: int) -> int:
    """Isoperimetric optimum of an n-dimensional member: (n+1)*m - f(m)."""
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
    if not 0 <= t <= n // 2 - 1:
        raise ValueError(f"t must be in [0, {n // 2 - 1}], got {t}")
    power = 1 << (2 * t + 2 + gamma(n))
    return -(-power // 3)


def m_td(t: int, d: int, n: int) -> int:
    """The interval-subdivision points m_{t,d}; m_{t,t+1} is the lower endpoint."""
    if not 0 <= t <= n // 2 - 1:
        raise ValueError(f"t must be in [0, {n // 2 - 1}], got {t}")
    if not 0 <= d <= t + 1:
        raise ValueError(f"d must be in [0, {t + 1}], got {d}")
    value = 1 << (-(-n // 2) + t)
    value -= sum(1 << (2 * t - 2 * i + gamma(n)) for i in range(d))
    if d == t + 1:
        value -= 1
    return value


@lru_cache(maxsize=64)
def _intervals(n: int) -> tuple[ConcentrationInterval, ...]:
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
    return tuple(out)


def concentration_intervals(n: int) -> list[ConcentrationInterval]:
    """One interval per t = 0 .. floor(n/2)-1, with its constant lambda value."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    return list(_intervals(n))


def _xi_term(t: int, i: int, n: int) -> int:
    """The term of xi_m for m's bit t when i higher bits of m are set."""
    return (n + 1 - t - 2 * i - (t >= 2)) << t


@lru_cache(maxsize=8)
def _cheapest_low_bits(n: int) -> tuple[tuple[int, ...], ...]:
    """low[j][i] = least sum of xi terms over m's bits below its set bit j, i bits above them.

    Over m's set bits t_0 > t_1 > ..., the terms _xi_term(t_k, k, n) sum to xi_m,
    but for the -2 when m = 3 (mod 4): below a set bit 1, bit 0 is worth 2 less.
    Only i + j <= n - 1 occurs for m < 2**(n-1), so row j has n - j entries.
    """
    low = [(0,) * n, tuple(min(0, _xi_term(0, i, n) - 2) for i in range(n - 1))]
    free = tuple(min(0, _xi_term(0, i, n)) for i in range(n - 1))  # bit 1 clear
    for j in range(2, n - 1):
        free = tuple(min(free[i], _xi_term(j - 1, i, n) + low[j - 1][i + 1])
                     for i in range(n - j))
        low.append(free)
    return tuple(low)


def _lambda_digit_dp(h: int, n: int) -> int:
    """min of xi_m over h <= m <= 2**(n-1), by one walk down the bits of h.

    Besides m = h and m = 2**(n-1), every candidate agrees with h above some
    0-bit j of h, sets bit j, and takes the cheapest bits below j.  O(n)
    big-integer steps per query after the O(n**2) table of the dimension.
    """
    half = 1 << (n - 1)
    best = xi_h4(half, n)
    if h == half:
        return best
    low = _cheapest_low_bits(n)
    prefix = ones = 0  # the xi terms and the number of h's bits above j
    for j in range(n - 2, -1, -1):
        term = _xi_term(j, ones, n)
        if h >> j & 1:
            prefix += term
            ones += 1
        elif j:
            best = min(best, prefix + term + low[j][ones + 1])
        else:  # m = 3 (mod 4) when h has bit 1
            best = min(best, prefix + term - 2 * (h >> 1 & 1))
    return min(best, prefix - 2 * (h & 3 == 3))


def lambda_fast(h: int, n: int) -> int:
    """h-extra edge-connectivity via the piecewise closed form.

    Monotone head, h up to the lower end of the first concentration interval,
    2**ceil(n/2) - 2 - gamma(n): lambda_h = xi_h.
    Concentration intervals: the constant (floor(n/2)-t) * 2**(ceil(n/2)+t);
    the last one is [floor(2**(n-1)/3), 2**(n-1)], where lambda_h = 2**(n-1).
    Every other h is answered exactly by a digit DP over the bits of h: O(n)
    big-integer steps per query, after an O(n**2) table built once per n.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    half = 1 << (n - 1)
    if not 1 <= h <= half:
        raise ValueError(f"h must be in [1, {half}], got {h}")
    if h <= _intervals(n)[0].lower:
        return xi_h4(h, n)
    for interval in _intervals(n):
        if interval.lower <= h <= interval.upper:
            return interval.value
    return _lambda_digit_dp(h, n)


def conditional_lambda(pattern: FaultPattern, l: int, n: int) -> int:
    """Common value of the four non-cyclic conditional edge-connectivities."""
    if pattern is FaultPattern.CYCLIC:
        raise ValueError("use cyclic_lambda for the cyclic pattern")
    if 2 <= l <= n - 1:
        return (n - l) << l
    if l in (0, 1) and pattern is not FaultPattern.EMBEDDED:
        return (n + 1 - l) << l
    raise ValueError(f"l={l} out of range for pattern {pattern.name} at n={n}")


def cyclic_lambda(n: int) -> int:
    """Cyclic edge-connectivity: 4n-8 for n in {3, 4}, otherwise 3n-3."""
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    return 4 * n - 8 if n in (3, 4) else 3 * n - 3


@lru_cache(maxsize=1)
def _f_head(block: int) -> tuple[int, ...]:
    """f(r) for 0 <= r < block, the running sum of f(s+1) - f(s) = 2*popcount(s) + (s & 2)."""
    return tuple(accumulate((2 * r.bit_count() + (r & 2) for r in range(block - 1)), initial=0))


def profile_blocks(n: int, start: int = 0, stop: int | None = None, lam: bool = True):
    """Yield the columns h, ex, xi, lambda of rows start+1 .. stop (default 2**(n-1)), B at a time.

    B = PROFILE_BLOCK divides start.  f(qB + r) = f(qB) + f(r) + 2*popcount(q)*r for
    0 <= r < B, a power of two >= 4.  lambda (None unless lam) is xi's running
    minimum down the block from lambda_fast at its top row.
    """
    half, block = 1 << (n - 1), PROFILE_BLOCK
    for lo in range(start, half if stop is None else stop, block):
        hi = min(lo + block, half)
        step = 2 * (lo // block).bit_count()
        ex = [*map(add, _f_head(min(block, half))[1:hi - lo], count(_f(lo) + step, step)), _f(hi)]
        xi = list(map(sub, range((n + 1) * (lo + 1), (n + 1) * hi + 1, n + 1), ex))
        if lam:  # min(lambda_hi, xi_hi) = lambda_hi, so lambda at the top row seeds the block
            lam_column = list(accumulate(reversed(xi), min, initial=lambda_fast(hi, n)))[:0:-1]
        yield range(lo + 1, hi + 1), ex, xi, lam_column if lam else None


@lru_cache(maxsize=4)
def full_profile(n: int) -> array:
    """lambda_h at index h - 1 by its definition, xi's running minimum down m: no lambda_fast."""
    if not 3 <= n <= 24:
        raise ValueError(f"n must be in [3, 24], got {n}")
    xi = array("q", chain.from_iterable(column for _, _, column, _ in profile_blocks(n, lam=False)))
    lam = array("q", accumulate(reversed(xi), min))
    lam.reverse()
    return lam
