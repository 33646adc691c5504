"""Unit tests for the closed-form module: frozen values first, then invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k4rel import closed_form as cf
from table_data import CONDITIONAL_TABLE, CYCLIC_TABLE, LAMBDA_TABLE, XI_TABLE


def explicit_sum(m):
    """The sum of (t + 2i) * 2**t over the exponents t of bin(m), the i-th from the top."""
    exponents = [t for t, digit in enumerate(reversed(bin(m)[2:])) if digit == "1"][::-1]
    assert sum(1 << t for t in exponents) == m
    return sum((t + 2 * i) << t for i, t in enumerate(exponents))


class TestDecompose:
    """The binary decomposition of m, as _hypercube_sum walks it."""

    def test_fifteen(self):
        # 8 + 4 + 2 + 1: 3*8 + (2+2)*4 + (1+4)*2 + (0+6)*1
        assert cf._hypercube_sum(15) == explicit_sum(15) == 56

    def test_twenty(self):
        # 16 + 4: 4*16 + (2+2)*4
        assert cf._hypercube_sum(20) == explicit_sum(20) == 80

    def test_power_of_two(self):
        assert cf._hypercube_sum(64) == explicit_sum(64) == 6 * 64

    def test_roundtrip(self):
        for m in range(0, 2000):
            assert cf._hypercube_sum(m) == explicit_sum(m), m
        for k in range(1, 200):  # lengths on both sides of each multiple of the chunk width
            for m in ((1 << k) - 1, 1 << k, (1 << k) + 1, ((1 << k) - 1) // 3):
                assert cf._hypercube_sum(m) == explicit_sum(m), m

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=(1 << 5000) - 1))
    def test_roundtrip_up_to_20000_bits(self, m):
        assert cf._hypercube_sum(m) == explicit_sum(m)


class TestHypercubeDensity:
    def test_known_values(self):
        assert cf._hypercube_sum(1) == 0
        assert cf._hypercube_sum(2) == 2
        assert cf._hypercube_sum(4) == 8
        assert cf._hypercube_sum(8) == 24

    def test_power_step(self):
        # adding the 2**s block past 2**t costs 2s+2 per appended exponent
        for n in (6, 8):
            for m in range(1, 1 << n):
                exponents = [t for t in range(n, -1, -1) if m >> t & 1]
                total = sum(t << t for t in exponents) + sum(
                    2 * i * (1 << t) for i, t in enumerate(exponents)
                )
                assert cf._hypercube_sum(m) == total, (n, m)

    def test_xi_qn(self):
        # the hypercube's isoperimetric optimum n*m - ex_m
        assert 3 * 4 - cf._hypercube_sum(4) == 4
        assert 4 * 4 - cf._hypercube_sum(4) == 8
        assert 7 * 1 - cf._hypercube_sum(1) == 7


class TestMemberDensity:
    def test_frozen_values(self):
        assert cf.f_value(0) == 0
        assert cf.f_value(1) == 0
        assert cf.f_value(2) == 2
        assert cf.f_value(3) == 6
        assert cf.f_value(4) == 12
        assert cf.f_value(5) == 14
        assert cf.f_value(15) == 70

    def test_twelve(self):
        # 8+4: 3*8 + 2*4 + 2*1*4 + 4*3 = 52
        assert cf.f_value(12) == 52

    def test_always_even(self):
        for m in range(0, 4096):
            assert cf.f_value(m) % 2 == 0

    def test_dominates_hypercube(self):
        # f(m) >= the hypercube's densest sum, with equality exactly for m <= 2
        for m in range(0, 1 << 10):
            gap = cf.f_value(m) - cf._hypercube_sum(m)
            assert gap >= 0
            assert (gap == 0) == (m <= 2)

    def test_first_difference(self):
        # the first difference of f, which _block_shape holds per row; its running sum from
        # f(0) = 0 is f
        value = 0
        for m in range(3000):
            step = 2 * bin(m).count("1") + (2 if m % 4 in (2, 3) else 0)
            assert cf.f_value(m + 1) - cf.f_value(m) == step
            assert cf.f_value(m) == value
            value += step

    def test_xi_examples(self):
        assert cf.xi_h4(1, 6) == 7
        assert cf.xi_h4(4, 6) == 16
        assert cf.xi_h4(15, 4) == 75 - 70 == 5

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cf.f_value(-1)
        with pytest.raises(ValueError):
            cf.xi_h4(0, 5)
        with pytest.raises(ValueError):
            cf.xi_h4(1 << 5, 5)


R = (0, 1, 2, 1)  # r(m) by m mod 4: f(m) = Q(m) + m - r(m), Q the hypercube sum


class TestDensityLemma:
    """The steps of xi_h4's proof that xi_m = (n+1)*m - f(m) on every member."""

    def test_r_table(self):
        assert all(R[x] + R[y] >= R[(x + y) % 4] for x in range(4) for y in range(4))
        for m in [*range(1 << 12), *((1 << k) + j for k in range(12, 300, 7) for j in range(4))]:
            assert cf.f_value(m) - cf._hypercube_sum(m) == m - R[m % 4], m

    def test_lemma_below_2_11(self):
        f = [cf.f_value(m) for m in range(1 << 12)]
        bad = [(a, b) for a in range(1 << 11) for b in range(a + 1)
               if f[a + b] < f[a] + f[b] + 2 * b]
        assert bad == [], bad[:5]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 1 << 400), st.integers(0, 1 << 400))
    def test_lemma_at_large_sizes(self, a, b):
        q, f = cf._hypercube_sum, cf.f_value
        assert q(a + b) >= q(a) + q(b) + 2 * min(a, b)
        assert f(a + b) >= f(a) + f(b) + 2 * min(a, b)

    def test_canonical_sets_meet_the_bound(self):
        # K4 spans m(m-1), and past the 0-half the top bit adds f(2^(n-1)) and 2b
        assert [cf.f_value(m) for m in range(5)] == [m * (m - 1) for m in range(5)]
        for n in range(3, 13):
            top = 1 << (n - 1)
            for b in range(top):
                assert cf.f_value(top + b) == cf.f_value(top) + cf.f_value(b) + 2 * b, (n, b)


class TestLambda:
    def test_examples(self):
        assert cf.lambda_scan(6, 6) == 24
        assert cf.lambda_scan(5, 7) == 26
        assert cf.lambda_scan(13, 7) == 48
        assert cf.lambda_scan(12, 7) == 44
        assert cf.lambda_scan(10, 6) == 32

    def test_tables(self):
        for n, xi_row in XI_TABLE.items():
            for h, expect in enumerate(xi_row, start=1):
                assert cf.xi_h4(h, n) == expect, (n, h)
        for n, lam_row in LAMBDA_TABLE.items():
            for h, expect in enumerate(lam_row, start=1):
                assert cf.lambda_scan(h, n) == expect, (n, h)
                assert cf.lambda_fast(h, n) == expect, (n, h)

    def test_fast_equals_scan(self):
        # the one walk also on the head and interval h that the paper's theorems give
        for n in range(3, 15):
            for h in range(1, (1 << (n - 1)) + 1):
                assert cf.lambda_fast(h, n) == cf.lambda_scan(h, n), (n, h)

    @staticmethod
    def assert_exchange(m, n):
        # the step of lambda_fast's proof: xi has no local minimum at m between m -+ lowbit
        low = m & -m
        assert cf.xi_h4(m, n) > min(cf.xi_h4(m - low, n), cf.xi_h4(m + low, n)), (n, m)

    def test_exchange_inequality(self):
        for n in range(3, 15):
            for m in range(1, 1 << (n - 1)):
                if m.bit_count() >= 2:
                    self.assert_exchange(m, n)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(21, 200), st.data())
    def test_exchange_inequality_at_large_n(self, n, data):
        m = data.draw(st.integers(3, (1 << (n - 1)) - 1).filter(lambda m: m.bit_count() >= 2))
        self.assert_exchange(m, n)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(21, 200), st.data())
    def test_digit_dp_at_large_n(self, n, data):
        # no scan table fits here: check the walk against the closed regimes
        intervals = cf.concentration_intervals(n)
        head = st.integers(1, (1 << -(-n // 2)) - 2 - cf.gamma(n))
        iv = data.draw(st.sampled_from(intervals))
        h = data.draw(head)
        assert cf.lambda_fast(h, n) == cf.xi_h4(h, n)
        h = data.draw(st.integers(max(iv.lower, 1), iv.upper))
        assert cf.lambda_fast(h, n) == iv.value
        lo, hi = sorted(data.draw(st.integers(1, 1 << (n - 1))) for _ in range(2))
        assert cf.lambda_fast(lo, n) <= cf.lambda_fast(hi, n) <= cf.xi_h4(hi, n)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cf.lambda_scan(0, 5)
        with pytest.raises(ValueError):
            cf.lambda_scan(17, 5)
        with pytest.raises(ValueError):
            cf.lambda_fast(1, 2)


class TestIntervals:
    def test_length_examples(self):
        assert cf.g_interval_length(0, 6) == 2
        assert cf.g_interval_length(1, 6) == 6
        assert cf.g_interval_length(2, 6) == 22
        assert cf.g_interval_length(0, 7) == 3
        assert cf.g_interval_length(1, 7) == 11
        for n in (-5, 0, 1, 2):  # not [0, n // 2 - 1]'s message, nor a length at n = 2
            with pytest.raises(ValueError, match=rf"^n must be >= 3, got {n}$"):
                cf.g_interval_length(0, n)
            with pytest.raises(ValueError, match=rf"^n must be >= 3, got {n}$"):
                cf.concentration_intervals(n)
        for t in (-1, 3):  # n = 7 has the intervals t = 0, 1, 2
            with pytest.raises(ValueError, match=rf"^t must be in \[0, 2\], got {t}$"):
                cf.g_interval_length(t, 7)

    def test_subdivision_points(self):
        # m_{t,d} = 2^(ceil(n/2)+t) - sum over i < d of 2^(2t-2i+gamma), less 1 at d = t+1:
        # the first (d = 0) is the interval's upper endpoint and the last its lower
        assert cf.concentration_intervals(7)[0].lower == 13
        second = cf.concentration_intervals(8)[1]
        assert (second.upper, second.lower) == (32, 26)
        for n in range(3, 18):
            for iv in cf.concentration_intervals(n):
                t = iv.t
                assert iv.upper == 1 << (-(-n // 2) + t)
                assert iv.lower == iv.upper - sum(
                    1 << (2 * t - 2 * i + cf.gamma(n)) for i in range(t + 1)) - 1

    def test_interval_rows_n6(self):
        rows = [
            (iv.t, iv.length, iv.lower, iv.upper, iv.value)
            for iv in cf.concentration_intervals(6)
        ]
        assert rows == [
            (0, 2, 6, 8, 24),
            (1, 6, 10, 16, 32),
            (2, 22, 10, 32, 32),
        ]

    def test_interval_rows_n7(self):
        first = cf.concentration_intervals(7)[0]
        assert (first.length, first.lower, first.upper, first.value) == (3, 13, 16, 48)

    def test_interval_rows_n3(self):
        rows = cf.concentration_intervals(3)
        assert len(rows) == 1
        assert (rows[0].lower, rows[0].upper, rows[0].value) == (1, 4, 4)

    def test_constant_on_interval(self):
        for n in range(3, 15):
            for iv in cf.concentration_intervals(n):
                lo = max(iv.lower, 1)
                assert all(
                    cf.lambda_scan(h, n) == iv.value for h in range(lo, iv.upper + 1)
                ), (n, iv)

    def test_minimal_length(self):
        # the interval cannot be extended downward: lambda changes at lower-1
        for n in range(3, 15):
            for iv in cf.concentration_intervals(n):
                if iv.lower >= 2:
                    assert cf.lambda_scan(iv.lower - 1, n) != iv.value, (n, iv)


class TestConditionalAndCyclic:
    def test_tables(self):
        for n, row in CONDITIONAL_TABLE.items():
            for l, expect in row.items():
                for pattern in cf.FaultPattern:
                    assert cf.conditional_lambda(pattern, l, n) == expect, (n, l)
        for n, expect in CYCLIC_TABLE.items():
            assert cf.cyclic_lambda(n) == expect

    def test_small_l_remarks(self):
        assert cf.conditional_lambda(cf.FaultPattern.SUPER_DEGREE, 0, 9) == 10
        assert cf.conditional_lambda(cf.FaultPattern.EXTRA_SIZE, 1, 9) == 18
        with pytest.raises(ValueError):
            cf.conditional_lambda(cf.FaultPattern.EMBEDDED, 1, 9)
        for n in (-5, 0, 1, 2):  # no value such as (n + 1 - l) * 2^l = -10 at n = -5
            for pattern in cf.FaultPattern:
                with pytest.raises(ValueError, match=rf"^n must be >= 3, got {n}$"):
                    cf.conditional_lambda(pattern, 1, n)

    def test_degree_values_are_the_room_rule_at_inner_degree_l_plus_1(self):
        # the served (n - l) * 2^l is the least xi_m that a side of average inner degree
        # >= l + 1 allows, xi_m <= (n - l) * m, and m = 2^l, an aligned block, is the least
        # size that attains it
        for n in range(3, 17):
            xis = [cf.xi_h4(m, n) for m in range(1, (1 << (n - 1)) + 1)]
            for l in range(2, n):
                least = min((xi, m) for m, xi in enumerate(xis, 1) if xi <= (n - l) * m)
                for pattern in cf.FaultPattern:
                    assert least == (cf.conditional_lambda(pattern, l, n), 1 << l), (n, l, pattern)

    def test_cyclic_regimes(self):
        assert cf.cyclic_lambda(3) == 4
        assert cf.cyclic_lambda(4) == 8
        assert cf.cyclic_lambda(5) == 12
        assert cf.cyclic_lambda(10) == 27
        # lambda_3 in closed form: the K4's cut 4n - 8 at n = 3, 4, then the 3-set's 3n - 3
        assert [cf.cyclic_lambda(n) for n in (3, 4)] == [4 * n - 8 for n in (3, 4)]
        assert [cf.cyclic_lambda(n) for n in range(5, 65)] == [3 * n - 3 for n in range(5, 65)]
        with pytest.raises(ValueError):
            cf.cyclic_lambda(2)


class TestProfileInvariants:
    def test_profile_matches_pointwise(self):
        # the streamed rows against the pointwise forms; lam also against lambda_fast,
        # which builds no table, and the scan table against the streamed lam
        for n in (3, 6, 9, 12):
            rows = [row for columns in cf.profile_blocks(n) for row in zip(*columns)]
            half = 1 << (n - 1)
            assert len(rows) == len(cf.full_profile(n)) == half
            for m, (h, ex, xi, lam) in enumerate(rows, start=1):
                assert h == m
                assert ex == cf.f_value(m)
                assert xi == cf.xi_h4(m, n)
                assert lam == cf.lambda_fast(m, n) == cf.full_profile(n)[m - 1]

    def test_lambda_is_shown_once_per_run(self):
        # lam is called once per run of equal lambda values in a block, not once per row
        calls = []
        blocks = list(cf.profile_blocks(16, lam=lambda v: calls.append(v) or v))
        runs = sum(1 + sum(a != b for a, b in zip(lam, lam[1:])) for *_, lam in blocks)
        assert len(blocks) > 1 and len(calls) == runs < (1 << 15) // 4
        assert [v for *_, lam in blocks for v in lam] == list(cf.full_profile(16))

    @pytest.mark.parametrize("block", [4, 1 << 10, 1 << 14])
    def test_block_shapes_fit_a_byte(self, block):
        # every shape profile --n 24 uses: s = 2*popcount(q) for q < 2^23 / B, up to d_ex = 2n
        n = 24
        tops = set()
        for s in range(0, 2 * (n - block.bit_length()) + 1, 2):
            d_ex, d_xi, _, run = cf._block_shape(n, s, block)
            assert d_ex.typecode == d_xi.typecode == "b" and len(d_ex) == block - 1
            assert run.typecode == "H" and len(run) == block - 1 and max(run) < block
            assert min(d_ex) > 0 and list(d_xi) == [n + 1 - d for d in d_ex]
            tops.add(max(d_ex))
        assert max(tops) == 2 * n

    def test_block_shape_past_a_byte_raises(self, monkeypatch):
        # d_ex = 2n = 128 does not wrap: n = 64, q = 2^61 - 1 and r = 3 give 122 + 4 + 2
        monkeypatch.setattr(cf, "PROFILE_BLOCK", 4)
        lo = ((1 << 61) - 1) * 4
        with pytest.raises(OverflowError):
            next(cf.profile_blocks(64, lo, lo + 4))

    @pytest.mark.parametrize("block", [4, 1 << 10, 1 << 14])
    def test_block_shape_is_the_popcount_split(self, block):
        # f(qB + r + 1) - f(qB + r) is 2*popcount(q) + the r-th difference of f, for every q
        n = 16
        f = [cf.f_value(m) for m in range((1 << (n - 1)) + 1)]
        for q in range((1 << (n - 1)) // block):
            lo, s = q * block, 2 * q.bit_count()
            d_ex, d_xi, _, run = cf._block_shape(n, s, block)
            assert f[lo + 1] - f[lo] == s  # the step from f(qB) to the block's first row
            assert run.typecode == "H"  # each row's run index, below B <= 2^14, in 2 bytes
            assert list(d_ex) == [f[lo + r + 1] - f[lo + r] for r in range(1, block)], q
            assert list(d_xi) == [cf.xi_h4(lo + r + 1, n) - cf.xi_h4(lo + r, n)
                                  for r in range(1, block)], q

    def test_profile_domain(self):
        with pytest.raises(ValueError):
            cf.full_profile(2)
        with pytest.raises(ValueError):
            cf.full_profile(25)

    def test_monotone_head(self):
        # xi is non-decreasing up to 2**ceil(n/2) - 1
        for n in range(3, 18):
            stop = (1 << -(-n // 2)) - 1
            for m in range(1, stop):
                assert cf.xi_h4(m, n) <= cf.xi_h4(m + 1, n), (n, m)

    def test_plateau(self):
        for n in range(3, 18):
            c = -(-n // 2)
            left = (1 << c) - 2 - cf.gamma(n)
            assert cf.xi_h4(left, n) == cf.xi_h4(1 << c, n) == (n // 2) << c

    def test_saturation_tail(self):
        for n in range(3, 18):
            half = 1 << (n - 1)
            for h in range(half // 3, half + 1):
                assert cf.lambda_scan(h, n) == half, (n, h)

    def test_power_floor(self):
        # for n >= 4, xi at any m is at least xi at the largest power of two below it
        for n in range(4, 13):
            for m in range(1, (1 << (n - 1)) + 1):
                c = m.bit_length() - 1
                assert cf.xi_h4(m, n) >= cf.xi_h4(1 << c, n), (n, m)

    def test_power_values(self):
        # xi(2**l) = (n - l) * 2**l for 2 <= l <= n-1; l = 0, 1 give n+1 and 2n
        for n in range(3, 15):
            assert cf.xi_h4(1, n) == n + 1
            assert cf.xi_h4(2, n) == 2 * n
            for l in range(2, n):
                assert cf.xi_h4(1 << l, n) == (n - l) << l

    def test_symmetry(self):
        # complements give the same boundary: xi(m) extended past the midpoint
        for n in range(3, 13):
            size = 1 << n
            for m in range(1, size):
                xi = (n + 1) * m - cf.f_value(m)
                xi_c = (n + 1) * (size - m) - cf.f_value(size - m)
                assert xi == xi_c, (n, m)
