import json
import random

import pytest

from nvalue.construct import build_pn
from nvalue.polyring import Polynomial
from nvalue.symdecomp import (
    EBasisPolynomial,
    InvalidPartition,
    NotHomogeneous,
    NotSymmetric,
    decompose,
    elementary,
    recompose,
    verify_proposition,
)

from helpers import XYZ, random_symmetric_homogeneous

x = Polynomial.variable("x", XYZ)
y = Polynomial.variable("y", XYZ)
z = Polynomial.variable("z", XYZ)

# e-basis expansions of p_1..p_7, keyed by partition (k1, k2, k3)
GOLDEN = {
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


class TestGoldenTables:
    @pytest.mark.parametrize("n", sorted(GOLDEN))
    def test_table(self, n):
        assert decompose(build_pn(n)).coeffs == GOLDEN[n]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_leading_coefficient_is_one(self, n):
        assert decompose(build_pn(n)).coefficient(n, 0, 0) == 1


class TestDecompose:
    def test_e1(self):
        assert decompose(x + y + z).coeffs == {(1, 0, 0): 1}

    def test_power_of_e1(self):
        assert decompose((x + y + z) ** 3).coeffs == {(3, 0, 0): 1}

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            decompose(x - y)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(NotHomogeneous):
            decompose((x + y + z) + (x + y + z) ** 2)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            decompose(Polynomial.variable("x", ("x", "y")))

    def test_constant(self):
        assert decompose(Polynomial.constant(5, XYZ)).coeffs == {(0, 0, 0): 5}


class TestRecompose:
    def test_e3(self):
        assert recompose(EBasisPolynomial(3, {(1, 1, 1): 1})) == x * y * z

    def test_p2_table(self):
        g = EBasisPolynomial(2, {(2, 0, 0): 1, (1, 1, 0): -4})
        expected = Polynomial(XYZ, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
                                    (1, 1, 0): -2, (0, 1, 1): -2, (1, 0, 1): -2})
        assert recompose(g) == expected

    def test_round_trip_p3(self):
        p3 = build_pn(3)
        assert recompose(decompose(p3)) == p3

    @pytest.mark.parametrize("n", range(1, 13))
    def test_round_trip_constructed(self, n):
        p = build_pn(n)
        assert recompose(decompose(p)) == p

    def test_round_trip_random_symmetric(self):
        rng = random.Random(99)
        for _ in range(60):
            f = random_symmetric_homogeneous(rng)
            assert recompose(decompose(f), f.vars) == f

    def test_alternate_variable_names(self):
        vars = ("a", "b", "c")
        f = elementary(vars, 2) ** 2
        assert recompose(decompose(f), vars) == f


class TestCoefficient:
    def test_p7_values(self):
        g = decompose(build_pn(7))
        assert g.coefficient(5, 1, 1) == -5 * 7 ** 4
        assert g.coefficient(4, 2, 1) == 2 * 7 ** 6
        assert g.coefficient(3, 2, 2) == 7 ** 8

    def test_absent_partition_is_zero(self):
        assert decompose(build_pn(5)).coefficient(4, 1, 0) == 0

    def test_invalid_partition_rejected(self):
        g = decompose(build_pn(7))
        with pytest.raises(InvalidPartition):
            g.coefficient(4, 4, 0)  # sums to 8, not 7
        with pytest.raises(InvalidPartition):
            g.coefficient(1, 2, 4)  # not weakly decreasing

    def test_stored_zero_rejected(self):
        with pytest.raises(ValueError):
            EBasisPolynomial(2, {(2, 0, 0): 0})


class TestVerifyProposition:
    def test_n2(self):
        rep = verify_proposition(2)
        assert rep.passed
        assert [(c.partition, c.expected) for c in rep.checks] == [((1, 1, 0), -4)]

    def test_n6(self):
        rep = verify_proposition(6)
        assert rep.passed
        assert [c.expected for c in rep.checks] == [-12, 48, -64]

    def test_n7_all_vanish(self):
        rep = verify_proposition(7)
        assert rep.passed
        assert all(c.expected == 0 for c in rep.checks)
        assert len(rep.checks) == 3

    @pytest.mark.parametrize("n", range(1, 25))
    def test_range(self, n):
        assert verify_proposition(n).passed


class TestJson:
    def test_schema_descending(self):
        g = decompose(build_pn(4))
        data = g.to_json()
        assert data["n"] == 4
        assert data["terms"][0] == {"k": [4, 0, 0], "A": "1"}
        keys = [tuple(t["k"]) for t in data["terms"]]
        assert keys == sorted(keys, reverse=True)

    def test_round_trip(self):
        g = decompose(build_pn(6))
        assert EBasisPolynomial.from_json(json.loads(json.dumps(g.to_json()))) == g


class TestStr:
    def test_plain_rendering_follows_table_order(self):
        g = decompose(build_pn(4))
        assert str(g) == "e1^4 - 8 e1^2 e2 + 16 e2^2 - 128 e1 e3"
