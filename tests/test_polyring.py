import json
import math
import random

import pytest

from nvalue import polyring
from nvalue.polyring import (
    Polynomial,
    VariableMismatch,
    half_row_to_sp,
    pascal_rows,
    sp_to_half_row,
)
from fractions import Fraction

from helpers import (
    XYZ,
    half_row_to_sp_reference,
    naive_convolution,
    random_poly,
    sp_to_half_row_reference,
    terms_dict,
)


def P(terms, vars=XYZ):
    return Polynomial(vars, terms)


x = Polynomial.variable("x", XYZ)
y = Polynomial.variable("y", XYZ)
z = Polynomial.variable("z", XYZ)


class TestAdd:
    def test_cancellation(self):
        assert (x + y) + (-x) == y

    def test_additive_identity(self):
        f = P({(1, 2, 0): 3, (0, 0, 1): -1})
        assert f + Polynomial(XYZ) == f

    def test_partial_cancellation(self):
        f = P({(2, 0, 0): 1, (1, 1, 0): -2})
        g = P({(1, 1, 0): 2})
        assert f + g == P({(2, 0, 0): 1})

    def test_variable_mismatch(self):
        with pytest.raises(VariableMismatch):
            x + Polynomial.variable("x", ("x", "y"))


class TestMul:
    def test_difference_of_squares(self):
        assert (x + y) * (x - y) == P({(2, 0, 0): 1, (0, 2, 0): -1})

    def test_multiplicative_identity(self):
        f = P({(3, 1, 0): 7, (0, 0, 2): -4})
        assert f * Polynomial.constant(1, XYZ) == f

    def test_square_of_sum(self):
        expected = P({(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1,
                      (1, 1, 0): 2, (0, 1, 1): 2, (1, 0, 1): 2})
        assert (x + y + z) * (x + y + z) == expected

    def test_matches_convolution_oracle(self):
        rng = random.Random(101)
        for _ in range(60):
            a = random_poly(rng, max_terms=6)
            b = random_poly(rng, max_terms=6)
            assert terms_dict(a * b) == naive_convolution(a, b)


class TestPow:
    def test_binomial_square(self):
        assert (x + y) ** 2 == P({(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1})

    def test_identity_power(self):
        f = random_poly(random.Random(3))
        assert f ** 1 == f

    def test_zero_power_is_one(self):
        f = random_poly(random.Random(4))
        assert f ** 0 == Polynomial.constant(1, XYZ)

    def test_matches_repeated_mul(self):
        rng = random.Random(5)
        f = random_poly(rng, max_terms=4, max_exp=3, max_coeff=20)
        assert f ** 4 == f * f * f * f

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            x ** -1


class TestEvalComplex:
    def test_sum_at_ones(self):
        assert (x + y + z).eval_complex((1, 1, 1)) == 3

    def test_zero_polynomial(self):
        assert Polynomial(XYZ).eval_complex((2j, 5, -1)) == 0

    def test_matches_symbolic_substitution(self):
        # numeric evaluation with a zero coordinate agrees with evaluating
        # the exact y^0 row
        rng = random.Random(6)
        for _ in range(20):
            f = random_poly(rng, max_coeff=100)
            a, b = complex(rng.uniform(-1, 1)), complex(rng.uniform(-1, 1))
            direct = f.eval_complex((a, 0, b))
            via_sub = f.coefficients_in("y")[0].eval_complex((a, b))
            assert abs(direct - via_sub) <= 1e-9 * max(1.0, abs(direct))

    def test_product_consistency(self):
        rng = random.Random(7)
        for _ in range(30):
            a = random_poly(rng, max_coeff=10, max_exp=4)
            b = random_poly(rng, max_coeff=10, max_exp=4)
            pt = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in XYZ)
            lhs = (a * b).eval_complex(pt)
            rhs = a.eval_complex(pt) * b.eval_complex(pt)
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))

    def test_huge_coefficient_saturates(self):
        f = P({(0, 0, 0): 10 ** 400})
        with pytest.warns(RuntimeWarning):
            v = f.eval_complex((0, 0, 0))
        assert math.isinf(v.real)


class TestSubstituteZero:
    # setting a variable to zero reads the row of its zeroth power
    def test_drops_variable(self):
        f = x + y + z
        assert f.coefficients_in("y")[0] == Polynomial(
            ("x", "z"), {(1, 0): 1, (0, 1): 1})

    def test_monomial_killed(self):
        f = P({(1, 1, 1): 1})
        assert not f.coefficients_in("y")[0]

    def test_result_var_list(self):
        assert (x * y).coefficients_in("x")[0].vars == ("y", "z")


class TestSymmetryAndDegree:
    def test_e1_symmetric(self):
        assert (x + y + z).is_symmetric()

    def test_difference_not_symmetric(self):
        assert not (x - y).is_symmetric()

    def test_homogeneous_degree(self):
        assert P({(2, 0, 0): 1, (1, 1, 0): 1}).homogeneous_degree() == 2

    def test_mixed_degree_absent(self):
        assert P({(1, 0, 0): 1, (2, 0, 0): 1}).homogeneous_degree() is None


class TestBinaryFormRows:
    def test_each_sp_monomial_against_its_expansion(self):
        XY = ("x", "y")
        s = Polynomial.variable("x", XY) + Polynomial.variable("y", XY)
        p = Polynomial.variable("x", XY) * Polynomial.variable("y", XY)
        for d in range(12):
            pascal = pascal_rows(d)
            for b in range(d // 2 + 1):
                f = s ** (d - 2 * b) * p ** b
                half = [f.coefficient((d - i, i)) for i in range(d // 2 + 1)]
                unit = [int(j == b) for j in range(d // 2 + 1)]
                assert sp_to_half_row(unit, d, pascal) == half
                assert half_row_to_sp(half, d, pascal) == unit

    def test_round_trip(self):
        rng = random.Random(7)
        for d in range(65):
            row = [rng.randint(-10 ** 30, 10 ** 30) for _ in range(d // 2 + 1)]
            pascal = pascal_rows(d)
            assert sp_to_half_row(half_row_to_sp(row, d, pascal), d, pascal) == row

    def test_tables_against_comb(self):
        assert pascal_rows(64) == [tuple(math.comb(m, l) for l in range(m + 1))
                                   for m in range(65)]

    def test_rows_are_shared_tuples(self):
        first, again = pascal_rows(20), pascal_rows(30)
        assert (len(first), len(again)) == (21, 31)
        assert all(type(row) is tuple for row in again)
        assert all(a is b for a, b in zip(first, again))

    def test_deep_table_from_cold_cache(self):
        # rows past the default recursion limit of 1000, from an empty cache:
        # asked for in ascending order, no row recurses more than one level
        polyring._pascal_row.cache_clear()
        try:
            rows = pascal_rows(1500)
            assert len(rows) == 1501
            rng = random.Random(5)
            for m in [0, 1, 999, 1000, 1001, 1500] + [rng.randint(0, 1500) for _ in range(40)]:
                for l in {0, m // 2, rng.randint(0, m), m}:
                    assert rows[m][l] == math.comb(m, l)
        finally:
            # the table holds about 150 MB of binomials; tests rebuild what they read
            polyring._pascal_row.cache_clear()

    def test_against_comb_reference(self):
        # dense and sparse rows, with one table shared by every d <= 64, as
        # the builders share one, and with the smallest table for each d
        rng = random.Random(11)
        shared = pascal_rows(64)
        for d in range(65):
            for pascal in (shared, pascal_rows(d)):
                for density in (1, 0.2):
                    for _ in range(3):
                        row = [rng.randint(-10 ** 30, 10 ** 30) if rng.random() < density else 0
                               for _ in range(d // 2 + 1)]
                        assert half_row_to_sp(row, d, pascal) == half_row_to_sp_reference(row, d)
                        assert sp_to_half_row(row, d, pascal) == sp_to_half_row_reference(row, d)


class TestRingAxioms:
    def test_random_cases(self):
        rng = random.Random(2024)
        one = Polynomial.constant(1, XYZ)
        zero = Polynomial(XYZ)
        for _ in range(150):
            a = random_poly(rng)
            b = random_poly(rng)
            c = random_poly(rng, max_terms=4)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a + zero == a
            assert a * b == b * a
            assert a * one == a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


class TestCanonicalForm:
    def test_zero_coefficients_dropped(self):
        f = Polynomial(XYZ, {(1, 0, 0): 0, (0, 1, 0): 2})
        assert f.support() == {(0, 1, 0)}

    def test_renormalize_is_identity(self):
        rng = random.Random(11)
        for _ in range(50):
            f = random_poly(rng)
            again = Polynomial(f.vars, dict(f.sorted_terms()))
            assert again == f

    def test_duplicate_entries_accumulate(self):
        f = Polynomial(XYZ, [((1, 0, 0), 2), ((1, 0, 0), 3)])
        assert f.coefficient((1, 0, 0)) == 5

    def test_sorted_terms_lex_descending(self):
        f = P({(0, 0, 2): 1, (1, 1, 0): -2, (2, 0, 0): 1})
        exps = [e for e, _ in f.sorted_terms()]
        assert exps == [(2, 0, 0), (1, 1, 0), (0, 0, 2)]

    def test_invalid_exponents_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(XYZ, {(1, 0): 1})
        with pytest.raises(ValueError):
            Polynomial(XYZ, {(-1, 0, 0): 1})


class TestIntegerCoefficients:
    def test_fraction_rejected(self):
        with pytest.raises(TypeError):
            Polynomial(XYZ, {(1, 0, 0): Fraction(1, 2)})


class TestJson:
    def test_schema(self):
        f = P({(2, 0, 0): 1, (1, 1, 0): -2})
        data = f.to_json()
        assert data["vars"] == ["x", "y", "z"]
        assert data["terms"] == [{"e": [2, 0, 0], "c": "1"},
                                 {"e": [1, 1, 0], "c": "-2"}]

    def test_round_trip(self):
        rng = random.Random(8)
        for _ in range(25):
            f = random_poly(rng)
            data = json.loads(json.dumps(f.to_json()))
            terms = {tuple(t["e"]): int(t["c"]) for t in data["terms"]}
            assert Polynomial(data["vars"], terms) == f

    def test_big_coefficients_as_strings(self):
        f = P({(0, 0, 0): 7 ** 80})
        data = json.loads(json.dumps(f.to_json()))
        assert int(data["terms"][0]["c"]) == 7 ** 80


class TestStr:
    def test_rendering(self):
        f = P({(2, 0, 0): 1, (1, 1, 0): -2, (0, 0, 0): 5})
        assert str(f) == "x^2 - 2*x*y + 5"
        assert str(-x) == "-x"
        assert str(P({(0, 0, 0): -3})) == "-3"

    def test_zero(self):
        assert str(Polynomial(XYZ)) == "0"
