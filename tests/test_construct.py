import cmath
import random

import pytest

from nvalue import construct
from nvalue.construct import (
    CycloElement,
    NonConstantInT,
    NonIntegralCoefficient,
    _extract_constant,
    build_pn,
    build_pn_cyclo,
    build_pn_newton_identities,
    cyclotomic,
    power_sum,
    restrict_y0,
)
from nvalue.polyring import Polynomial

from helpers import XYZ

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
        assert cyclotomic(1).coeffs == (-1, 1)

    def test_order_4(self):
        assert cyclotomic(4).coeffs == (1, 0, 1)

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
        assert cyclotomic(12).coeffs == tuple(q) == (1, 0, -1, 0, 1)

    def test_monic_with_right_degree(self):
        phis = {2: 1, 3: 2, 5: 4, 6: 2, 8: 4, 9: 6, 10: 4, 12: 4}
        for n, deg in phis.items():
            c = cyclotomic(n)
            assert c.coeffs[-1] == 1
            assert c.degree == deg

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic(0)


class TestPowerSum:
    def test_n1_m1(self):
        assert power_sum(1, 1) == Polynomial(("x", "y"), {(1, 0): -1, (0, 1): -1})

    def test_n2_m1(self):
        assert power_sum(2, 1) == Polynomial(("x", "y"), {(1, 0): 2, (0, 1): 2})

    def test_n2_m2(self):
        assert power_sum(2, 2) == Polynomial(
            ("x", "y"), {(2, 0): 2, (1, 1): 12, (0, 2): 2})

    def test_against_numeric_root_sum(self):
        # sum the m-th powers of the actual complex roots directly
        rng = random.Random(21)
        for n in range(1, 6):
            for m in range(1, 5):
                p = power_sum(n, m)
                for _ in range(5):
                    xv = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    yv = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                    sgn = (-1) ** n
                    u = (sgn * xv) ** (1.0 / n)
                    v = (sgn * yv) ** (1.0 / n)
                    total = sum(
                        ((u + cmath.exp(2j * cmath.pi * k / n) * v) ** n) ** m
                        for k in range(1, n + 1))
                    got = p.eval_complex((xv, yv))
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
            assert build_pn_cyclo(n) == build_pn_newton_identities(n)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", range(13, 17))
    def test_agreement_past_12(self, n):
        assert build_pn_cyclo(n) == build_pn_newton_identities(n)

    def test_default_route(self):
        assert build_pn(6) == build_pn_newton_identities(6)

    def test_p2_by_hand(self):
        # e1(w) = 2(x+y), e2(w) = (x-y)^2 from the two power sums
        e1w = 2 * (x + y)
        e2w = (x - y) ** 2
        assert build_pn_newton_identities(2) == z ** 2 - e1w * z + e2w


class TestStructure:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_symmetric_homogeneous_monic(self, n):
        p = build_pn(n)
        assert p.is_symmetric()
        assert p.homogeneous_degree() == n
        zc = p.coefficients_in("z")
        assert len(zc) == n + 1
        assert zc[n] == Polynomial.one(("x", "y"))


class TestRestriction:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_identity(self, n):
        XZ = ("x", "z")
        xx = Polynomial.variable("x", XZ)
        zz = Polynomial.variable("z", XZ)
        sign = 1 if n % 2 == 0 else -1
        assert restrict_y0(n) == (zz - sign * xx) ** n

    def test_odd_is_pure_power_of_e1bar(self):
        XZ = ("x", "z")
        e1bar = Polynomial.variable("x", XZ) + Polynomial.variable("z", XZ)
        assert restrict_y0(3) == e1bar ** 3

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
            expected = Polynomial.zero(XZ)
            for coeff, a, b in rows:
                expected = expected + coeff * e1b ** a * e2b ** b
            assert restrict_y0(n) == expected


class TestErrors:
    def test_nonconstant_in_t_detected(self):
        u = Polynomial.variable("u", ("u", "v", "z"))
        elem = CycloElement(3, [u, Polynomial.one(("u", "v", "z"))])
        with pytest.raises(NonConstantInT):
            _extract_constant(elem)

    def test_component_count_enforced(self):
        with pytest.raises(ValueError):
            CycloElement(3, [Polynomial.one(("u", "v", "z"))])

    def test_inexact_division_raises(self, monkeypatch):
        # all-ones power sums give 2 e_2 = x*y, which no integer row solves
        monkeypatch.setattr(construct, "power_sum", lambda n, m: Polynomial(
            ("x", "y"), {(m - i, i): 1 for i in range(m + 1)}))
        with pytest.raises(NonIntegralCoefficient):
            build_pn_newton_identities.__wrapped__(2)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            build_pn_cyclo(0)
        with pytest.raises(ValueError):
            build_pn_newton_identities(0)
        with pytest.raises(ValueError):
            power_sum(0, 1)
