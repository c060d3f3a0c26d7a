import itertools
import json
import random

import pytest

from nvalue.construct import build_pn, pn_rows
from nvalue.polyring import Polynomial, half_row_to_sp, pascal_rows
from nvalue.symdecomp import (
    EBasisPolynomial,
    InvalidPartition,
    NotHomogeneous,
    NotSymmetric,
    decompose,
    decompose_rows,
    elementary,
    partitions3,
    recompose,
)

from helpers import XYZ, decompose_rows_reference, random_symmetric_homogeneous

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


def _last_layer_table(rng, n):
    """Random e-basis table of degree n with a term at k3 = n // 3, the
    last e3 layer decompose reads, and up to 8 other random terms."""
    parts = partitions3(n)
    keys = rng.sample(parts, rng.randint(0, min(8, len(parts))))
    keys.append(rng.choice([k for k in parts if k[2] == n // 3]))
    return EBasisPolynomial(n, {k: rng.choice((-1, 1)) * rng.randint(1, 10 ** 6)
                                for k in keys})


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

    def test_zero(self):
        assert decompose(Polynomial(XYZ)) == EBasisPolynomial(0, {})


class TestDecomposeTable:
    """The scans' and ``pn --basis e``'s path: the e-basis table peeled
    from the builder's s, p rows."""

    @pytest.mark.parametrize("n", [*range(1, 49),
                                   *(pytest.param(n, marks=pytest.mark.slow) for n in (64, 96))])
    def test_equals_decompose_of_the_full_polynomial(self, n):
        # the builder's rows against those decompose reads off build_pn(n)
        assert decompose_rows(n, pn_rows(n)) == decompose(build_pn(n))

    @pytest.mark.parametrize("key", [(1, 2, 0), (2, 1, 1), (4, -1, 0), (3, 0)],
                             ids=("increasing", "wrong-sum", "negative", "pair"))
    def test_rejects_a_key_that_is_no_partition(self, key):
        with pytest.raises(InvalidPartition):
            EBasisPolynomial(3, {key: 1})

    @pytest.mark.parametrize("n", range(1, 17))
    def test_recomposes_to_build_pn(self, n):
        assert recompose(decompose_rows(n, pn_rows(n))) == build_pn(n)

    def test_entry_that_leads_no_monomial_raises(self):
        # z (x^2 + y^2) is symmetric in x, y only: its z^1 row, s^2 - 2p,
        # would lead e1^-1 e2^2
        rows = [[0], [0], half_row_to_sp([1, 0], 2, pascal_rows(2))]
        assert rows[2] == [1, -2]
        with pytest.raises(NotSymmetric):
            decompose_rows(3, rows)
        with pytest.raises(NotSymmetric):
            decompose_rows(3, [[0], [0], [1, 0]])

    @pytest.mark.parametrize("n", [*range(1, 65),
                                   *(pytest.param(n, marks=pytest.mark.slow) for n in (96, 128))])
    def test_equals_reference(self, n):
        # the running-index walk over leading entries against the loop that
        # peels every entry and computes every target
        assert decompose_rows(n, pn_rows(n)) == decompose_rows_reference(n, pn_rows(n))

    @pytest.mark.parametrize("n", [*range(1, 31),
                                   *(pytest.param(n, marks=pytest.mark.slow) for n in (37, 40))])
    def test_direct_check_against_the_peeled_one(self, n):
        # every single-entry perturbation of p_n's rows: decompose_rows raises
        # NotSymmetric exactly when the reference's peel does, else agrees
        base = pn_rows(n)
        for d, row in enumerate(base):
            for b in range(len(row)):
                for delta in (1, -3, 2 ** 100):
                    rows = [list(r) for r in base]
                    rows[d][b] += delta
                    try:
                        expected = decompose_rows_reference(n, rows)
                    except NotSymmetric:
                        with pytest.raises(NotSymmetric):
                            decompose_rows(n, rows)
                    else:
                        assert decompose_rows(n, rows) == expected, (d, b, delta)

    @pytest.mark.parametrize("n, d, b", [
        (n, d, b) for n in (25, 26, 37, 40)
        for d in range(n // 2 + 1, 2 * n // 3 + 1) for b in range(2 * d - n)])
    def test_every_entry_only_the_check_reads_is_read(self, n, d, b):
        # entry b < 2d - n of row d leads no monomial: the peel never writes
        # it, and the direct symmetry check reads it
        rows = [list(row) for row in pn_rows(n)]
        rows[d][b] += 1
        with pytest.raises(NotSymmetric):
            decompose_rows(n, rows)


def _symmetrize_table(f):
    """e-basis table of f from sympy's ``symmetrize``, keyed by partition."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.polyfuncs import symmetrize

    gens = sympy.symbols("x y z")
    expr = sympy.Poly.from_dict(dict(f.sorted_terms()), *gens).as_expr()
    sym, rest, defs = symmetrize(expr, *gens, formal=True)
    assert rest == 0
    # s1^a s2^b s3^c is the basis monomial of partition (a+b+c, b+c, c)
    terms = sympy.Poly(sym, *(s for s, _ in defs)).terms()
    return {(a + b + c, b + c, c): int(v) for (a, b, c), v in terms if v}


class TestSympyOracle:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_symmetrize(self, n):
        p = build_pn(n)
        assert decompose(p).coeffs == _symmetrize_table(p)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_symmetrize_random(self, seed):
        rng = random.Random(seed)
        for _ in range(10):
            f = random_symmetric_homogeneous(rng, max_degree=30)
            assert decompose(f).coeffs == _symmetrize_table(f)

    @pytest.mark.parametrize("n", (3, 17, 29, 30))
    def test_matches_symmetrize_last_layer(self, n):
        f = recompose(_last_layer_table(random.Random(n), n))
        assert decompose(f).coeffs == _symmetrize_table(f)

    @pytest.mark.parametrize("k", (1, 10))
    def test_matches_symmetrize_pure_e3(self, k):
        f = Polynomial(XYZ, {(k, k, k): -3})
        assert decompose(f).coeffs == _symmetrize_table(f) == {(k, k, k): -3}


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

    @pytest.mark.parametrize("n", range(1, 25))
    def test_round_trip_constructed(self, n):
        p = build_pn(n)
        assert recompose(decompose(p)) == p

    def test_round_trip_random_symmetric(self):
        rng = random.Random(99)
        for _ in range(60):
            f = random_symmetric_homogeneous(rng, max_degree=30)
            assert recompose(decompose(f), f.vars) == f

    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip_sparse_random_degree_0_to_12(self, seed):
        # a few symmetrized monomials per degree leave most row entries zero
        rng = random.Random(seed)
        for n in range(13):
            parts = partitions3(n)
            f = Polynomial(XYZ)
            for part in rng.sample(parts, rng.randint(1, min(3, len(parts)))):
                c = rng.choice((-1, 1)) * rng.randint(1, 10 ** 9)
                f = f + Polynomial(XYZ, {e: c for e in set(itertools.permutations(part))})
            assert recompose(decompose(f)) == f, (seed, n)

    def test_round_trip_last_layer(self):
        rng = random.Random(303)
        for n in range(1, 31):
            g = _last_layer_table(rng, n)
            assert decompose(recompose(g)) == g, n

    def test_pure_e3(self):
        for k in range(11):
            f = Polynomial(XYZ, {(k, k, k): 5})
            assert decompose(f).coeffs == {(k, k, k): 5}
            assert decompose(f * (x + y + z)).coeffs == {(k + 1, k, k): 5}

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
        data = json.loads(json.dumps(g.to_json()))
        coeffs = {tuple(t["k"]): int(t["A"]) for t in data["terms"]}
        assert EBasisPolynomial(data["n"], coeffs) == g


class TestStr:
    def test_plain_rendering_follows_table_order(self):
        g = decompose(build_pn(4))
        assert str(g) == "e1^4 - 8 e1^2 e2 + 16 e2^2 - 128 e1 e3"
