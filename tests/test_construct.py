import cmath
import math
import random
import sys
from pathlib import Path

import pytest

from nvalue import construct
from nvalue.construct import (
    NonConstantInT,
    NonIntegralCoefficient,
    build_pn,
    build_pn_cyclo,
    cyclotomic,
    pn_rows,
)
from nvalue.polyring import Polynomial
from nvalue.symdecomp import decompose

from helpers import XYZ, pn_rows_reference

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import checks  # noqa: E402

x = Polynomial.variable("x", XYZ)
y = Polynomial.variable("y", XYZ)
z = Polynomial.variable("z", XYZ)
xyz = x * y * z


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_divmod(num, den):
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + dd] // den[-1]
        q[i] = c
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    return q, num[:dd]


class TestCyclotomic:
    def test_order_1(self):
        assert cyclotomic(1) == (-1, 1)

    def test_order_4(self):
        assert cyclotomic(4) == (1, 0, 1)

    def test_order_12_against_long_division(self):
        # independent oracle: divide t^12 - 1 by the hand-listed proper factors
        known = {
            1: [-1, 1], 2: [1, 1], 3: [1, 1, 1],
            4: [1, 0, 1], 6: [1, -1, 1],
        }
        den = [1]
        for d in (1, 2, 3, 4, 6):
            den = _poly_mul(den, known[d])
        num = [-1] + [0] * 11 + [1]
        q, rem = _poly_divmod(num, den)
        assert not any(rem)
        assert cyclotomic(12) == tuple(q) == (1, 0, -1, 0, 1)

    def test_monic_with_right_degree(self):
        phis = {2: 1, 3: 2, 5: 4, 6: 2, 8: 4, 9: 6, 10: 4, 12: 4}
        for n, deg in phis.items():
            c = cyclotomic(n)
            assert c[-1] == 1
            assert len(c) - 1 == deg

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    def test_t_rows_against_long_division(self):
        # row m % n is the remainder of t^m on division by Phi_n
        for n in range(1, 13):
            phi = cyclotomic(n)
            deg = len(phi) - 1
            for m in range(n * n + 1):
                num = [0] * max(m + 1, deg)
                num[m] = 1
                _, rem = _poly_divmod(num, phi)
                assert construct._t_rows(n)[m % n] == tuple(rem), (n, m)


class TestPowerSum:
    # half rows: entries i <= m/2 of P_m, the coefficients of x^(m-i) y^i
    def test_n1_m1(self):
        assert construct._power_sum_halves(1, 1) == [[-1]]

    def test_n2_m1(self):
        assert construct._power_sum_halves(2, 1) == [[2]]

    def test_n2_m2(self):
        # 2 x^2 + 12 x y + 2 y^2
        assert construct._power_sum_halves(2, 2) == [[2], [2, 12]]

    def test_closed_form(self):
        # P_m = (-1)^(nm) n sum_i C(nm, ni) x^(m-i) y^i; the builder reads i <= m/2
        # and m <= floor(2n/3); m up to 12 also covers m > n, for n < 12
        for n in range(1, 41):
            top = max(12, 2 * n // 3)
            halves = construct._power_sum_halves(n, top)
            assert len(halves) == top
            for m, half in enumerate(halves, 1):
                sign = (-1) ** (n * m)
                assert half == [sign * n * math.comb(n * m, n * i)
                                for i in range(m // 2 + 1)], (n, m)

    def test_against_numeric_root_sum(self):
        # sum the m-th powers of the actual complex roots directly
        rng = random.Random(21)
        for n in range(1, 6):
            for m, half in enumerate(construct._power_sum_halves(n, 4), 1):
                for _ in range(5):
                    xv = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    yv = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    sgn = (-1) ** n
                    u = (sgn * xv) ** (1.0 / n)
                    v = (sgn * yv) ** (1.0 / n)
                    total = sum(
                        ((u + cmath.exp(2j * cmath.pi * k / n) * v) ** n) ** m
                        for k in range(1, n + 1))
                    # the half row mirrored: C(nm, ni) = C(nm, n(m-i))
                    got = sum(half[min(i, m - i)] * xv ** (m - i) * yv ** i
                              for i in range(m + 1))
                    assert abs(got - total) <= 1e-8 * max(1.0, abs(total))


class TestGoldenTables:
    def test_p1(self):
        assert build_pn_cyclo(1) == x + y + z

    def test_p2(self):
        e1 = x + y + z
        e2 = x * y + y * z + z * x
        assert build_pn_cyclo(2) == e1 ** 2 - 4 * e2

    def test_p3(self):
        assert build_pn_cyclo(3) == (x + y + z) ** 3 - 27 * xyz

    def test_p4_recursion(self):
        p1, p2 = build_pn(1), build_pn(2)
        assert build_pn(4) == p2 ** 2 - 2 ** 7 * p1 * xyz


class TestDualAlgorithm:
    def test_agreement_up_to_10(self):
        for n in range(1, 11):
            assert build_pn_cyclo(n) == build_pn(n)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", range(13, 17))
    def test_agreement_past_12(self, n):
        assert build_pn_cyclo(n) == build_pn(n)

    def test_p2_by_hand(self):
        # e1(w) = 2(x+y), e2(w) = (x-y)^2 from the two power sums
        e1w = 2 * (x + y)
        e2w = (x - y) ** 2
        assert build_pn(2) == z ** 2 - e1w * z + e2w


class TestRowsAgainstReference:
    """Newton's identities walk each product with the shorter factor
    outside; integer sums are exact, so every row equals the indexed
    double loop's."""

    @pytest.mark.parametrize("n", [*range(1, 65), pytest.param(96, marks=pytest.mark.slow)])
    def test_equals_reference(self, n):
        assert pn_rows(n) == pn_rows_reference(n)


class TestDefiningProduct:
    """build_pn and its e-basis table against the circulant determinant in
    benchmarks/checks.py, at seeded integer points: a wrong degree-n
    polynomial differs at a random point with high probability."""

    @pytest.mark.slow
    @pytest.mark.parametrize("n, count", [(n, 2) for n in range(17, 49)] + [(64, 1)])
    def test_raw_and_table(self, n, count):
        p = build_pn(n)
        table = decompose(p).coeffs
        # partition keys and the e3-free closed form; the points follow
        assert checks.check_table(n, table, []) == []
        sign = -1 if n % 2 else 1
        for a, b, zv in checks.sample_points(random.Random(n), count):
            xv, yv = sign * a ** n, sign * b ** n
            want = checks.defining_product(n, a, b, zv)
            assert sum(c * xv ** i * yv ** j * zv ** k
                       for (i, j, k), c in p.sorted_terms()) == want
            assert checks.table_value(table, xv, yv, zv) == want


class TestStructure:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_symmetric_homogeneous_monic(self, n):
        p = build_pn(n)
        assert p.is_symmetric()
        assert p.homogeneous_degree() == n
        zc = p.coefficients_in("z")
        assert len(zc) == n + 1
        assert zc[n] == Polynomial.constant(1, ("x", "y"))


class TestRestriction:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_identity(self, n):
        XZ = ("x", "z")
        xx = Polynomial.variable("x", XZ)
        zz = Polynomial.variable("z", XZ)
        sign = 1 if n % 2 == 0 else -1
        assert build_pn(n).coefficients_in("y")[0] == (zz - sign * xx) ** n

    def test_odd_is_pure_power_of_e1bar(self):
        XZ = ("x", "z")
        e1bar = Polynomial.variable("x", XZ) + Polynomial.variable("z", XZ)
        assert build_pn(3).coefficients_in("y")[0] == e1bar ** 3

    def test_even_restrictions_match_tables(self):
        # frozen expansions of (z-x)^n in (x+z, xz) for n = 2, 4, 6, 8
        XZ = ("x", "z")
        e1b = Polynomial.variable("x", XZ) + Polynomial.variable("z", XZ)
        e2b = Polynomial.variable("x", XZ) * Polynomial.variable("z", XZ)
        tables = {
            2: [(1, 2, 0), (-4, 0, 1)],
            4: [(1, 4, 0), (-8, 2, 1), (16, 0, 2)],
            6: [(1, 6, 0), (-12, 4, 1), (48, 2, 2), (-64, 0, 3)],
            8: [(1, 8, 0), (-16, 6, 1), (96, 4, 2), (-256, 2, 3), (256, 0, 4)],
        }
        for n, rows in tables.items():
            expected = Polynomial(XZ)
            for coeff, a, b in rows:
                expected = expected + coeff * e1b ** a * e2b ** b
            assert build_pn(n).coefficients_in("y")[0] == expected


class TestErrors:
    def test_nonconstant_in_t_detected(self, monkeypatch):
        # modulo t^n - 1 in place of Phi_n, the product keeps a t-dependence
        monkeypatch.setattr(construct, "cyclotomic", lambda n: (-1,) + (0,) * (n - 1) + (1,))
        with pytest.raises(NonConstantInT):
            build_pn_cyclo(4)

    def test_inexact_division_raises(self, monkeypatch):
        # all-ones power sums give 2 e_2 = x*y, which no integer row solves;
        # n = 3 is the least n whose rows reach e_2
        monkeypatch.setattr(construct, "_power_sum_halves",
                            lambda n, top: [[1] * (m // 2 + 1) for m in range(1, top + 1)])
        with pytest.raises(NonIntegralCoefficient):
            pn_rows.__wrapped__(3)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            build_pn_cyclo(0)
        with pytest.raises(ValueError):
            build_pn(0)
