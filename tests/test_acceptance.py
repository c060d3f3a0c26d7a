"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines; every tolerance and bound is pinned here, nothing is calibrated
elsewhere.
"""

import math
import random
import time
from contextlib import contextmanager

from nvalue import construct, mvgroup, symdecomp
from nvalue.conjectures import scan_even_nonzero, scan_prime_power
from nvalue.newton import convex_hull_2d, newton_polytope
from nvalue.polyring import Polynomial

from helpers import (
    XYZ,
    _caches,
    oracle_hull_vertices,
    random_poly,
    random_symmetric_homogeneous,
)

GOLDEN_TABLES = {
    1: {(1, 0, 0): 1},
    2: {(2, 0, 0): 1, (1, 1, 0): -2 ** 2},
    3: {(3, 0, 0): 1, (1, 1, 1): -3 ** 3},
    4: {(4, 0, 0): 1, (3, 1, 0): -2 ** 3, (2, 2, 0): 2 ** 4, (2, 1, 1): -2 ** 7},
    5: {(5, 0, 0): 1, (3, 1, 1): -5 ** 4, (2, 2, 1): 5 ** 5},
    6: {(6, 0, 0): 1, (5, 1, 0): -2 ** 2 * 3, (4, 2, 0): 2 ** 4 * 3,
        (3, 3, 0): -2 ** 6, (4, 1, 1): -2 * 3 ** 4 * 17,
        (3, 2, 1): -2 ** 3 * 3 ** 4 * 19, (2, 2, 2): 3 ** 3 * 19 ** 3},
    7: {(7, 0, 0): 1, (5, 1, 1): -5 * 7 ** 4, (4, 2, 1): 2 * 7 ** 6,
        (3, 3, 1): -7 ** 7, (3, 2, 2): 7 ** 8},
}


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {num} PASS: {description}")


def _clear_caches():
    for cache in _caches().values():
        cache.cache_clear()


def test_criterion_1_golden_tables():
    with criterion(1, "e-basis tables for n=1..7 match the frozen references"):
        _clear_caches()
        start = time.monotonic()
        for n, expected in GOLDEN_TABLES.items():
            got = symdecomp.decompose(construct.build_pn(n)).coeffs
            assert got == expected, f"n={n}: {got}"
        elapsed = time.monotonic() - start
        g6 = symdecomp.decompose(construct.build_pn(6))
        assert g6.coefficient(3, 2, 1) == -12312
        g7 = symdecomp.decompose(construct.build_pn(7))
        assert g7.coefficient(3, 2, 2) == 5764801
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_dual_algorithm_agreement():
    with criterion(2, "cyclotomic and power-sum constructions agree for n=1..12"):
        _clear_caches()
        start = time.monotonic()
        for n in range(1, 13):
            assert construct.build_pn_cyclo(n) == \
                construct.build_pn(n), f"n={n}"
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_criterion_3_restriction_identity():
    with criterion(3, "p_n(z; x, 0) equals (z - (-1)^n x)^n for n=1..12"):
        XZ = ("x", "z")
        xx = Polynomial.variable("x", XZ)
        zz = Polynomial.variable("z", XZ)
        for n in range(1, 13):
            sign = 1 if n % 2 == 0 else -1
            restriction = construct.build_pn(n).coefficients_in("y")[0]
            assert restriction == (zz - sign * xx) ** n, f"n={n}"


def test_criterion_4_proposition():
    with criterion(4, "e3-free coefficients match the closed form (n<=14)"):
        for n in range(2, 15, 2):
            k = n // 2
            g = symdecomp.decompose(construct.build_pn(n))
            for i in range(1, k + 1):
                expected = (-4) ** i * math.comb(k, i)
                assert g.coefficient(2 * k - i, i, 0) == expected, f"n={n} i={i}"
        for n in range(1, 14, 2):
            g = symdecomp.decompose(construct.build_pn(n))
            for k2 in range(1, n // 2 + 1):
                assert g.coefficient(n - k2, k2, 0) == 0, f"n={n} k2={k2}"


def test_criterion_5_newton_polytopes_and_hull_oracle():
    with criterion(5, "polytope of p_n is the n-simplex; hull matches oracle"):
        for n in range(1, 13):
            verts = set(newton_polytope(construct.build_pn(n)).vertices)
            assert verts == {(n, 0, 0), (0, n, 0), (0, 0, n)}, f"n={n}"
        rng = random.Random(515)
        cases = 0
        while cases < 500:
            pts = [(rng.randint(0, 8), rng.randint(0, 8))
                   for _ in range(rng.randint(1, 12))]
            assert set(convex_hull_2d(pts)) == oracle_hull_vertices(pts), pts
            cases += 1


def test_criterion_6_conjecture_scans():
    with criterion(6, "prime-power and even-nonzero scans pass on their ranges"):
        for n in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
            report = scan_prime_power(n)
            flagged = [c for c in report.checks if c.verdict == "fail"]
            assert report.overall == "pass", (
                f"POTENTIAL COUNTEREXAMPLE at n={n}: "
                + "; ".join(f"{c.partition} A={c.coefficient}" for c in flagged))
        for n in (2, 4, 6, 8, 10, 12):
            report = scan_even_nonzero(n)
            flagged = [c for c in report.checks if c.verdict == "fail"]
            assert report.overall == "pass", (
                f"POTENTIAL COUNTEREXAMPLE at n={n}: "
                + "; ".join(f"{c.partition} A={c.coefficient}" for c in flagged))


def test_criterion_7_numeric_axioms():
    with criterion(7, "seeded numeric sweeps: associativity and root multisets"):
        start = time.monotonic()
        rng = random.Random(777)

        def disk():
            r = math.sqrt(rng.random())
            t = 2 * math.pi * rng.random()
            return complex(r * math.cos(t), r * math.sin(t))

        for n in (2, 3, 4):
            for _ in range(100):
                x, y, z = disk(), disk(), disk()
                assert mvgroup.check_associativity(x, y, z, n, 1e-7), (n, x, y, z)
        for n in (1, 2, 3, 4, 5):
            for _ in range(50):
                x, y = disk(), disk()
                assert mvgroup.roots_match_pn(x, y, n, 1e-5), (n, x, y)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_criterion_8_property_suites():
    with criterion(8, "ring axioms, decompose round trip, hull shuffle"):
        rng = random.Random(888)
        one = Polynomial.constant(1, XYZ)
        zero = Polynomial(XYZ)
        cases = 0
        for _ in range(250):
            a = random_poly(rng)
            b = random_poly(rng)
            c = random_poly(rng, max_terms=4)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a + zero == a and a * one == a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            cases += 6
        assert cases >= 1000

        for _ in range(200):
            f = random_symmetric_homogeneous(rng)
            assert symdecomp.recompose(symdecomp.decompose(f), f.vars) == f

        for _ in range(200):
            pts = [(rng.randint(0, 8), rng.randint(0, 8))
                   for _ in range(rng.randint(1, 12))]
            base = convex_hull_2d(pts)
            shuffled = pts[:]
            rng.shuffle(shuffled)
            assert convex_hull_2d(shuffled) == base
