"""Acceptance gate: eleven criteria, one printed pass/fail line each.

Each test times itself against its wall-clock cap and prints a single
"criterion N <name>: PASS|FAIL" line directly to the terminal (bypassing
pytest capture) so the gate is readable in any run mode.
"""

import sys
import time

from k4rel import closed_form as cf
from k4rel import cube_graph as cg
from k4rel import oracle as oc
from reference import average_degree_floor_check
from table_data import CONDITIONAL_TABLE, LAMBDA_TABLE, XI_TABLE


def _gate(capsys, number, name, limit_s, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        ok = elapsed <= limit_s
        verdict = "PASS" if ok else "FAIL"
        detail = f"{elapsed:.2f}s / {limit_s:.0f}s"
    except AssertionError as exc:
        elapsed = time.perf_counter() - start
        ok = False
        verdict = "FAIL"
        detail = f"{elapsed:.2f}s, {exc}"
    with capsys.disabled():
        print(f"criterion {number} {name}: {verdict} ({detail})")
        sys.stdout.flush()
    assert ok, f"criterion {number} {name} failed ({detail})"


def members(n, seeds):
    yield cg.canonical_member(n)
    for seed in seeds:
        yield cg.build_k4cube(cg.random_matching_tree(n, seed))


def test_criterion_01_published_xi_lambda_tables(capsys):
    def body():
        for n in range(3, 8):
            for h in range(1, (1 << (n - 1)) + 1):
                assert cf.xi_h4(h, n) == XI_TABLE[n][h - 1], (n, h)
                assert cf.lambda_scan(h, n) == LAMBDA_TABLE[n][h - 1], (n, h)

    _gate(capsys, 1, "published xi/lambda tables n=3..7", 1.0, body)


def test_criterion_02_published_conditional_table(capsys):
    def body():
        for n in range(3, 8):
            for l, expect in CONDITIONAL_TABLE[n].items():
                for pattern in cf.FaultPattern:
                    assert cf.conditional_lambda(pattern, l, n) == expect, (n, l)

    _gate(capsys, 2, "published conditional table n=3..7", 1.0, body)


def test_criterion_03_density_example_on_members(capsys):
    def body():
        assert cf.f_value(15) == 70
        for g in members(4, range(1, 6)):
            assert 2 * cg.induced_edge_count(g, cg.canonical_set(15, 4)) == 70

    _gate(capsys, 3, "f(15)=70 realized by the first 15 labels", 1.0, body)


def test_criterion_04_oracle_equivalence_small_n(capsys):
    def body():
        for n in (3, 4):
            half = 1 << (n - 1)
            for g in members(n, range(1, 6)):
                for m in range(1, half + 1):
                    assert oc.brute_ex(g, m) == cf.f_value(m), (n, m)
                    xi = (n + 1) * m - cf.f_value(m)
                    assert oc.brute_xi(g, m) == xi, (n, m)
                    assert oc.brute_xi_unconstrained(g, m) == xi, (n, m)
                for h in range(1, half + 1):
                    assert oc.brute_lambda_h(g, h) == cf.lambda_scan(h, n), (n, h)

    _gate(capsys, 4, "brute force equals closed forms at n=3,4", 60.0, body)


def test_criterion_05_conditional_oracle(capsys):
    def body():
        for n in (3, 4):
            for g in members(n, range(1, 6)):
                for l in range(2, n):
                    for pattern in cf.FaultPattern:
                        assert oc.brute_conditional(g, pattern, l) == (n - l) << l

    _gate(capsys, 5, "conditional oracle equals (n-l)*2^l at n=3,4", 60.0, body)


def test_criterion_06_cyclic_oracle(capsys):
    def body():
        for g in members(3, range(1, 6)):
            assert oc.brute_cyclic(g) == 4
        for g in members(4, range(1, 6)):
            assert oc.brute_cyclic(g) == 8
        for g in members(5, range(1, 3)):
            assert oc.brute_cyclic(g) == 12

    _gate(capsys, 6, "cyclic oracle: least settled xi_m with room for a cycle, 4, 8 and 12",
          120.0, body)


def test_criterion_07_fast_lambda_equals_scan(capsys):
    def body():
        for n in range(3, 21):
            for h in range(1, (1 << (n - 1)) + 1):
                assert cf.lambda_fast(h, n) == cf.lambda_scan(h, n), (n, h)

    _gate(capsys, 7, "piecewise lambda equals scan n=3..20", 30.0, body)


def test_criterion_08_monotone_plateau_saturation(capsys):
    def body():
        for n in range(3, 21):
            c = -(-n // 2)
            half = 1 << (n - 1)
            for m in range(1, (1 << c) - 1):
                assert cf.xi_h4(m, n) <= cf.xi_h4(m + 1, n), (n, m)
            left = (1 << c) - 2 - cf.gamma(n)
            assert cf.xi_h4(left, n) == cf.xi_h4(1 << c, n) == (n // 2) << c, n
            for h in range(half // 3, half + 1):
                assert cf.lambda_scan(h, n) == half, (n, h)

    _gate(capsys, 8, "monotone head, plateau, saturated tail n=3..20", 30.0, body)


def test_criterion_09_interval_sharpness(capsys):
    # lambda changes just outside every interval, except past the upper end of
    # t = floor(n/2) - 2, which lies inside the last interval (concentration_intervals)
    def body():
        for n in range(3, 17):
            half = 1 << (n - 1)
            intervals = cf.concentration_intervals(n)
            for iv in intervals:
                if iv.lower > 1:
                    assert cf.lambda_scan(iv.lower - 1, n) != iv.value, (n, iv.t)
                if iv.t == n // 2 - 2:
                    last = intervals[-1]
                    assert (last.lower, last.value) == (iv.lower, iv.value), (n, iv.t)
                    assert iv.upper < last.upper, (n, iv.t)
                    assert cf.lambda_scan(iv.upper + 1, n) == iv.value, (n, iv.t)
                elif iv.upper < half:
                    assert cf.lambda_scan(iv.upper + 1, n) != iv.value, (n, iv.t)

    _gate(capsys, 9, "concentration intervals are sharp or nested n=3..16", 30.0, body)


def test_criterion_10_complement_symmetry(capsys):
    def body():
        for n in range(3, 13):
            size = 1 << n
            for m in range(1, size):
                left = (n + 1) * m - cf.f_value(m)
                right = (n + 1) * (size - m) - cf.f_value(size - m)
                assert left == right, (n, m)

    _gate(capsys, 10, "complement symmetry of xi n=3..12", 30.0, body)


def test_criterion_11_average_degree_floor(capsys):
    def body():
        for n in (3, 4):
            for g in members(n, range(1, 3)):
                assert average_degree_floor_check(g), n

    _gate(capsys, 11, "average-degree subsets meet the 2^(l-1) size floor", 60.0, body)
