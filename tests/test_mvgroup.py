import cmath
import itertools
import math
import random

import pytest
from helpers import count_comparisons

from nvalue import construct, mvgroup
from nvalue.mvgroup import (
    RootFindingFailure,
    check_associativity,
    contains_zero,
    eq_multiset,
    inv,
    mul_n,
    nth_root,
    pn_roots,
    roots_match_pn,
)
from nvalue.polyring import Polynomial


def _disk_point(rng, radius=1.0):
    r = radius * math.sqrt(rng.random())
    t = 2 * math.pi * rng.random()
    return complex(r * math.cos(t), r * math.sin(t))


def _clustered_pair(rng, tol):
    # two multisets of 1-6 values drawn around a few centres, with offsets
    # of about tol, so that both verdicts occur
    size = rng.randint(1, 6)
    centres = [complex(rng.randint(-2, 2), rng.randint(-2, 2))
               for _ in range(rng.randint(1, 3))]

    def draw():
        offset = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return rng.choice(centres) + offset * tol * rng.choice((0.5, 1, 2))

    return [draw() for _ in range(size)], [draw() for _ in range(size)]


def _some_bijection_pairs(a, b, tol):
    return any(all(abs(p - q) <= tol * max(1, abs(p), abs(q))
                   for p, q in zip(a, perm))
               for perm in itertools.permutations(b))


# zero operands, and triples at which some value of y*z or x*y sits at or
# near 0
_SPECIAL = ((0, 0.3 + 0.4j, -0.5j), (0.3 + 0.4j, 0, -0.5j), (0.3 + 0.4j, -0.5j, 0),
            (0, 0, 0), (0, 0.5j, 0), (1, 1, 1), (1, -1, 1), (1, 1, -1), (-1, 1, 1))


def _triples(n, count):
    rng = random.Random(1000 + n)
    return [tuple(_disk_point(rng) for _ in range(3)) for _ in range(count)]


def _composed_sides(x, y, z, n):
    # x*(y*z) and (x*y)*z composed from mul_n alone, in mul_n's order
    left = [w for inner in mul_n(y, z, n) for w in mul_n(x, inner, n)]
    right = [w for inner in mul_n(x, y, n) for w in mul_n(inner, z, n)]
    return left, right


def _bits(values):
    return [(v.real.hex(), v.imag.hex()) for v in values]


def _forbid_fallbacks(monkeypatch):
    # eq_multiset may try only the order it is given
    def forbidden(*args):
        raise AssertionError("eq_multiset left the order given")

    monkeypatch.setattr(mvgroup, "_tolerance_graph", forbidden)
    monkeypatch.setattr(mvgroup, "_has_perfect_matching", forbidden)


class TestMulN:
    def test_unit_left(self):
        # the unit axiom through the formula: (0 + eps^r v^(1/n))^n rounds
        rng = random.Random(1)
        for n in range(1, 7):
            for _ in range(10):
                v = _disk_point(rng)
                assert eq_multiset(mul_n(0, v, n), [v] * n, 1e-12)

    def test_unit_right(self):
        rng = random.Random(11)
        for n in range(1, 7):
            for _ in range(10):
                v = _disk_point(rng)
                assert eq_multiset(mul_n(v, 0, n), [v] * n, 1e-12)

    def test_one_times_one_n2(self):
        got = sorted(mul_n(1, 1, 2), key=lambda w: w.real)
        assert abs(got[0] - 0) < 1e-12
        assert abs(got[1] - 4) < 1e-12

    def test_n1_is_addition(self):
        # eps^1 = exp(2 pi i) is 1 - 2.4e-16i in doubles
        assert eq_multiset(mul_n(3 + 1j, 2 - 5j, 1), [5 - 4j], 1e-15)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            mul_n(1, 1, 0)

    def test_branch_independence(self):
        # shifting the principal root by any unity power permutes the multiset
        rng = random.Random(2)
        for n in (2, 3, 4, 5):
            for _ in range(10):
                xv, yv = _disk_point(rng), _disk_point(rng)
                base = mul_n(xv, yv, n)
                for j in range(1, n):
                    a = nth_root(xv, n) * cmath.exp(2j * cmath.pi * j / n)
                    b = nth_root(yv, n)
                    alt = [(a + cmath.exp(2j * cmath.pi * r / n) * b) ** n
                           for r in range(1, n + 1)]
                    assert eq_multiset(base, alt, 1e-9)

    def test_cached_unity_is_bit_identical(self):
        rng = random.Random(8)
        for n in range(2, 17):
            for _ in range(5):
                xv, yv = _disk_point(rng), _disk_point(rng)
                a, b = nth_root(xv, n), nth_root(yv, n)
                inline = [(a + cmath.exp(2j * cmath.pi * r / n) * b) ** n
                          for r in range(1, n + 1)]
                assert mul_n(xv, yv, n) == inline


class TestInv:
    def test_even_fixes(self):
        assert inv(3 + 1j, 2) == 3 + 1j

    def test_odd_negates(self):
        assert inv(3 + 1j, 3) == -3 - 1j

    def test_inverse_axiom(self):
        rng = random.Random(3)
        for n in range(1, 7):
            for _ in range(20):
                xv = _disk_point(rng)
                assert contains_zero(mul_n(inv(xv, n), xv, n), 1e-9)

    def test_inverse_axiom_large_magnitude(self):
        rng = random.Random(4)
        for n in (2, 3, 4):
            for _ in range(5):
                xv = _disk_point(rng, radius=1e3)
                assert contains_zero(mul_n(inv(xv, n), xv, n), 1e-9)


class TestContainsZero:
    def test_zero_present(self):
        assert contains_zero([3, 0j], 1e-9)

    def test_scale_aware(self):
        # 1e-4 is within 1e-9 of 0 at magnitude 1e6, not at magnitude 1
        assert contains_zero([1e-4, 1e6], 1e-9)
        assert not contains_zero([1e-4, 1], 1e-9)

    def test_empty(self):
        assert not contains_zero([], 1e-9)

    @pytest.mark.parametrize("values", ([math.inf, 5], [0j, math.inf],
                                        [complex(math.nan, 0), 0j],
                                        [complex(0, -math.inf)]))
    def test_not_finite(self, values):
        assert not contains_zero(values, 1e-9)


class TestEqMultiset:
    def test_order_free(self):
        assert eq_multiset([1, 2], [2, 1], 1e-12)

    def test_size_mismatch(self):
        assert not eq_multiset([1, 1], [1], 1e-9)

    def test_within_tolerance(self):
        assert eq_multiset([1 + 1e-12, 2], [1, 2], 1e-9)

    def test_beyond_tolerance(self):
        assert not eq_multiset([1 + 1e-6, 2], [1, 2], 1e-9)

    def test_scale_aware(self):
        # absolute gap 1e-4 is fine at magnitude 1e6, not at magnitude 1
        assert eq_multiset([1e6 + 1e-4], [1e6], 1e-9)
        assert not eq_multiset([1 + 1e-4], [1.0], 1e-9)

    def test_multiplicity_respected(self):
        assert not eq_multiset([1, 1, 2], [1, 2, 2], 1e-9)

    def test_clustered_values_matched_correctly(self):
        a = [1.0, 1.0 + 5e-8]
        b = [1.0 + 5e-8, 1.0]
        assert eq_multiset(a, b, 1e-7)

    def test_empty(self):
        assert eq_multiset([], [], 1e-9)

    @pytest.mark.parametrize("a, b", (([math.inf], [math.inf]),
                                      ([1, 2], [1, complex(math.nan, 0)]),
                                      ([complex(math.nan, 0), 2], [1, 2]),
                                      ([1, 2], [2, complex(0, math.inf)])),
                             ids=("inf-inf", "nan-in-b", "nan-in-a", "inf-in-b-unpaired"))
    def test_not_finite(self, a, b):
        # isclose(inf, inf) holds, yet a value that is not finite pairs with
        # nothing; in the last case the order given fails at 1 <-> 2, so the
        # matching path decides
        assert eq_multiset(a, b, 1e-9) is False

    def test_agrees_with_permutation_oracle(self):
        rng = random.Random(9)
        verdicts = set()
        for _ in range(1500):
            a, b = _clustered_pair(rng, 1e-7)
            expected = _some_bijection_pairs(a, b, 1e-7)
            assert eq_multiset(a, b, 1e-7) == expected, (a, b)
            verdicts.add(expected)
        assert verdicts == {True, False}

    @staticmethod
    def _spy_matching(monkeypatch):
        calls = []
        matching = mvgroup._has_perfect_matching

        def spy(adj):
            calls.append(adj)
            return matching(adj)

        monkeypatch.setattr(mvgroup, "_has_perfect_matching", spy)
        return calls

    @pytest.mark.parametrize("last, expected", ((3e-8 + 1j, True),
                                                (3e-8 + 1.1j, False)))
    def test_sorted_orders_do_not_pair(self, monkeypatch, last, expected):
        # in the order given 0j meets 3e-8 + 1j, so the matching decides:
        # 0j <-> 5e-8, 6e-8 + 1j <-> 3e-8 + 1j, each row holding only the
        # values within tolerance
        calls = self._spy_matching(monkeypatch)
        assert eq_multiset([0j, 6e-8 + 1j], [last, 5e-8 + 0j], 1e-7) is expected
        assert calls == [[[1], [0] if expected else []]]

    def test_order_given_tried_first(self, monkeypatch):
        # the order given pairs, so no tolerance graph is built
        _forbid_fallbacks(monkeypatch)
        assert eq_multiset([0j, 6e-8 + 1j], [5e-8 + 0j, 3e-8 + 1j], 1e-7)

    @pytest.mark.parametrize("size", (256, 1024))
    def test_large_cluster(self, size):
        # the order given pairs the cluster; the matching on a complete
        # bipartite graph of the same size takes one step per row
        a = [1e-8 + 0j] * (size - 1) + [1j]
        b = [0j] * (size - 1) + [1e-8 + 1j]
        assert eq_multiset(a, b, 1e-7)
        assert mvgroup._has_perfect_matching([range(size)] * size)

    def test_accepts_whatever_min_cost_matching_accepts(self):
        np = pytest.importorskip("numpy")
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(10)
        for _ in range(1500):
            a, b = _clustered_pair(rng, 1e-7)
            av, bv = np.asarray(a), np.asarray(b)
            cost = np.abs(av[:, None] - bv[None, :])
            rows, cols = optimize.linear_sum_assignment(cost)
            scale = np.maximum(1.0, np.maximum(np.abs(av[rows]), np.abs(bv[cols])))
            if np.all(cost[rows, cols] <= 1e-7 * scale):
                assert eq_multiset(a, b, 1e-7), (a, b)


_TOLS = (5e-324, 1e-15, 3e-15, 1e-9, 1e-7, 0.1, 0.9, 1, 2, 1e308)


def _near(rng, c, tol):
    # c moved by about tol * max(1, |c|), in its real part alone (the
    # window's edge) or in any direction; c itself where that is not finite
    step = tol * rng.choice((0.5, 1, 2)) * max(1, abs(c))
    offset = step if rng.random() < 0.5 else step * cmath.exp(2j * math.pi * rng.random())
    moved = c + rng.choice((-1, 1)) * offset
    return moved if cmath.isfinite(moved) else c


def _family(rng, kind, size):
    if kind == "random":
        return [_disk_point(rng, 10.0 ** rng.randint(-3, 3)) for _ in range(size)]
    if kind == "clustered":
        centres = [_disk_point(rng) for _ in range(3)]
        return [rng.choice(centres) + _disk_point(rng, 1e-8) for _ in range(size)]
    if kind == "repeated":
        return [rng.choice((0j, 1 + 1j, -2.5, 0.5j)) for _ in range(size)]
    if kind == "near zero":
        return [rng.choice((0j, -0.0, 5e-324, -1e-323j, 1e-310 + 1e-320j, 1e-300))
                + _disk_point(rng, 1e-320) for _ in range(size)]
    return [_disk_point(rng, 1e300) for _ in range(size)]              # about 1e300


class TestToleranceGraph:
    """The real-part window of _tolerance_graph drops no value within
    tolerance, and eq_multiset decides as a brute-force matching does."""

    @pytest.mark.parametrize("kind", ("random", "clustered", "repeated", "near zero", "huge"))
    @pytest.mark.parametrize("tol", _TOLS)
    def test_rows_equal_all_pairs(self, kind, tol):
        rng = random.Random(f"{kind} {tol}")
        close = mvgroup._close(tol)
        neighbours = 0
        for _ in range(20):
            a = _family(rng, kind, rng.randint(0, 30))
            b = [_near(rng, p, tol) if rng.random() < 0.7 else p for p in a]
            b += _family(rng, kind, 5)
            rng.shuffle(b)
            graph = mvgroup._tolerance_graph(a, b, tol)
            assert len(graph) == len(a)
            for p, row in zip(a, graph):
                assert sorted(row) == [v for v, q in enumerate(b) if close(p, q)], (p, tol)
                neighbours += len(row)
        assert neighbours

    @pytest.mark.parametrize("tol", _TOLS)
    def test_verdict_equals_brute_force_matching(self, tol):
        rng = random.Random(f"matching {tol}")
        close = mvgroup._close(tol)
        verdicts = set()
        for kind in ("random", "clustered", "repeated", "near zero", "huge"):
            for _ in range(60):
                a = _family(rng, kind, rng.randint(0, 6))
                b = [_near(rng, p, tol) for p in a]
                rng.shuffle(b)
                expected = any(all(map(close, a, perm)) for perm in itertools.permutations(b))
                assert eq_multiset(a, b, tol) is expected, (a, b, tol)
                verdicts.add(expected)
        assert True in verdicts

    def test_separated_values_cost_linear_comparisons(self, monkeypatch):
        # 4096 values a unit apart, reversed so that the order given fails
        # at once: each row's window holds one value, against the 4096^2
        # comparisons of an all-pairs graph
        m = 4096
        a = [complex(k, k % 7) for k in range(m)]
        count = count_comparisons(monkeypatch)
        assert eq_multiset(a, a[::-1], 1e-7)
        assert count[0] <= 2 * m
        count[0] = 0
        assert not eq_multiset(a, a[-2::-1] + [1e6 + 0j], 1e-7)      # one outlier
        assert count[0] <= 2 * m


class TestAssociativity:
    def test_unit_absorbs(self):
        rng = random.Random(5)
        for n in (2, 3):
            yv, zv = _disk_point(rng), _disk_point(rng)
            assert check_associativity(0, yv, zv, n, 1e-9)

    def test_ones_n2(self):
        assert check_associativity(1, 1, 1, 2, 1e-9)

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_random_triples(self, n):
        rng = random.Random(100 + n)
        for _ in range(30):
            xv, yv, zv = (_disk_point(rng) for _ in range(3))
            assert check_associativity(xv, yv, zv, n, 1e-7)

    @pytest.mark.parametrize("x, y, z, n", ((math.inf, 1, 1, 3), (1, complex(math.nan, 0), 1, 4),
                                            (1, 1, math.inf, 2), (0.5, -math.inf, 0.5j, 16)))
    def test_not_finite(self, x, y, z, n):
        # as in eq_multiset, a value that is not finite pairs with nothing
        assert check_associativity(x, y, z, n, 1e-7) is False

    def test_large_magnitude(self):
        rng = random.Random(6)
        for n in (2, 3):
            for _ in range(5):
                xv = _disk_point(rng, radius=1e3)
                yv, zv = _disk_point(rng), _disk_point(rng)
                assert check_associativity(xv, yv, zv, n, 1e-7)


class TestAssociativityPairing:
    """check_associativity against eq_multiset on both sides composed from
    mul_n: the same verdicts, the same products, and no fallback."""

    @pytest.mark.parametrize("n", range(1, 25))
    def test_verdict_matches_composed_sides(self, n):
        for x, y, z in _triples(n, 6) + list(_SPECIAL):
            left, right = _composed_sides(x, y, z, n)
            assert check_associativity(x, y, z, n, 1e-7) is eq_multiset(left, right, 1e-7)

    def test_both_verdicts_match(self):
        # tolerances near rounding, where some samples fail from n = 11 on
        verdicts = set()
        for n in range(1, 13):
            for x, y, z in _triples(n, 6):
                left, right = _composed_sides(x, y, z, n)
                for tol in (1e-14, 2e-15):
                    expected = eq_multiset(left, right, tol)
                    assert check_associativity(x, y, z, n, tol) is expected, (n, x, y, z, tol)
                    verdicts.add(expected)
        assert verdicts == {True, False}

    @pytest.mark.slow
    @pytest.mark.parametrize("n", (47, 64, 96))
    def test_verdict_matches_composed_sides_large_n(self, n):
        for x, y, z in _triples(n, 2):
            left, right = _composed_sides(x, y, z, n)
            assert check_associativity(x, y, z, n, 1e-7) is eq_multiset(left, right, 1e-7)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_products_bit_identical(self, monkeypatch, n):
        # the left side in mul_n's order, the right side in some order
        seen = []
        monkeypatch.setattr(mvgroup, "eq_multiset", lambda a, b, tol: seen.append((a, b)))
        for x, y, z in _triples(n, 4) + list(_SPECIAL):
            check_associativity(x, y, z, n, 1e-7)
            (left, right), = seen
            seen.clear()
            composed_left, composed_right = _composed_sides(x, y, z, n)
            assert _bits(left) == _bits(composed_left), (x, y, z)
            assert sorted(_bits(right)) == sorted(_bits(composed_right)), (x, y, z)

    @pytest.mark.parametrize("n", [*range(1, 25), 47,
                                   *(pytest.param(n, marks=pytest.mark.slow) for n in (64, 96))])
    def test_generic_samples_pair_in_the_order_given(self, monkeypatch, n):
        # zero operands and exact zeros among y*z and x*y too: a zero inner
        # root takes label 0, with no other path
        _forbid_fallbacks(monkeypatch)
        for x, y, z in _triples(n, 10) + list(_SPECIAL):
            assert check_associativity(x, y, z, n, 1e-7), (x, y, z)


class TestRootsMatch:
    def test_p2_at_ones(self):
        pytest.importorskip("numpy")
        roots = sorted(pn_roots(1, 1, 2), key=lambda w: w.real)
        assert abs(roots[0]) < 1e-9 and abs(roots[1] - 4) < 1e-9
        assert roots_match_pn(1, 1, 2, 1e-6)

    def test_restriction_roots_coincide(self):
        # y = 0 makes every root equal to (-1)^n x; the n-fold root is
        # only recoverable to eps^(1/n), hence the loose tolerance
        pytest.importorskip("numpy")
        rng = random.Random(7)
        for n in range(1, 6):
            xv = _disk_point(rng)
            for r in pn_roots(xv, 0, n):
                assert abs(r - (-1) ** n * xv) < 1e-3
            assert roots_match_pn(xv, 0, n, 1e-3)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_random_pairs(self, n):
        rng = random.Random(200 + n)
        for _ in range(10):
            xv, yv = _disk_point(rng), _disk_point(rng)
            assert roots_match_pn(xv, yv, n, 1e-6)

    def test_overflow_reported_as_failure(self):
        pytest.importorskip("numpy")
        with pytest.raises(RootFindingFailure), pytest.warns(RuntimeWarning):
            pn_roots(1e200, 1e200, 5)

    def test_past_double_range_warns_on_every_call(self):
        # p_47 has a 1029-bit coefficient, which eval_complex turns into
        # inf with a warning each time it meets it
        pytest.importorskip("numpy")
        for _ in range(2):
            with pytest.raises(RootFindingFailure), pytest.warns(RuntimeWarning):
                pn_roots(0.5, 0.25j, 47)

    @pytest.mark.parametrize("n", (47, 64))
    def test_past_double_range(self, n):
        # p_47 has a 1029-bit coefficient; p_n's rows are scaled by the
        # predicted roots, so none leaves double range
        rng = random.Random(300 + n)
        for _ in range(5):
            xv, yv = _disk_point(rng), _disk_point(rng)
            assert roots_match_pn(xv, yv, n, 1e-7)

    @pytest.mark.parametrize("n", (16, 40, 64))
    def test_rejects_one_root_moved_out_of_tolerance(self, monkeypatch, n):
        # about a third of the roots are below 1 in modulus, many far below
        # 2^-n, where a sum at one scale underflows; each is checked to its
        # own tolerance, and so is a large root
        rng = random.Random(400 + n)
        for _ in range(5):
            xv, yv = _disk_point(rng), _disk_point(rng)
            target = mul_n(inv(xv, n), inv(yv, n), n)
            small = [i for i, r in enumerate(target) if abs(r) < 1]
            picks = {small[0], min(small, key=lambda i: abs(target[i])),
                     max(range(n), key=lambda i: abs(target[i]))}
            for i, step in itertools.product(picks, (10, 10j, -3)):
                moved = list(target)
                moved[i] += step * 1e-7 * max(1.0, abs(target[i]))
                monkeypatch.setattr(mvgroup, "mul_n", lambda x, y, m, moved=moved: moved)
                assert not roots_match_pn(xv, yv, n, 1e-7), (i, target[i], step)
            monkeypatch.setattr(mvgroup, "mul_n", mul_n)
            assert roots_match_pn(xv, yv, n, 1e-7)

    def test_multiplicities_decided_by_vieta(self, monkeypatch):
        # at x = y = 1 the roots of p_4 are -4, -4, 0 and 16; a prediction
        # with 0 twice and -4 once has a root of p_4 at every value, so the
        # Weierstrass test passes and only the coefficients tell them apart
        assert roots_match_pn(1, 1, 4, 1e-7)
        monkeypatch.setattr(mvgroup, "mul_n", lambda x, y, n: [-4, 0, 0, 16])
        assert not roots_match_pn(1, 1, 4, 1e-7)

    def test_scale_free(self):
        # row k of p_n is homogeneous of degree k in x and y, so both are
        # scaled by a power of two first; only a product past double range
        # is an error
        for n in (5, 16):
            assert roots_match_pn(1e200, 3e199j, n, 1e-7)
            assert roots_match_pn(1e-200, -3e-201j, n, 1e-7)
        with pytest.raises(OverflowError):
            roots_match_pn(1e306, 1e306, 16, 1e-7)

    @pytest.mark.parametrize("n", (7, 16, 33))
    def test_unit_rows_ignore_term_order(self, monkeypatch, n):
        # the rows' float sums run in falling powers of x, whatever order
        # p_n's terms were inserted in
        build_pn = construct.build_pn
        pn = build_pn(n)
        items = list(pn._terms.items())
        random.Random(n).shuffle(items)
        shuffled = Polynomial(pn.vars, dict(items))
        mvgroup._pn_unit_rows.cache_clear()
        try:
            expected = mvgroup._pn_unit_rows(n)
            mvgroup._pn_unit_rows.cache_clear()
            monkeypatch.setattr(construct, "build_pn",
                                lambda m: shuffled if m == n else build_pn(m))
            assert mvgroup._pn_unit_rows(n) == expected
        finally:
            mvgroup._pn_unit_rows.cache_clear()

    def test_rejects_every_mutant_root_finding_rejects(self, monkeypatch):
        # p_n with one coefficient of its middle z-row changed, by +-1 or by
        # about 1e-3 of itself, on its largest and on its first term: where
        # the roots np.roots finds do not match the product, Vieta and
        # Newton must reject too (Vieta alone misses n = 7 and 8 at +-1)
        pytest.importorskip("numpy")
        build_pn = construct.build_pn
        caught = set()
        try:
            for n in range(2, 25):
                pn = build_pn(n)
                middle = [(e, c) for e, c in pn.sorted_terms() if e[2] == n // 2]
                for spot in {max(middle, key=lambda t: abs(t[1]))[0], middle[0][0]}:
                    c = pn.coefficient(spot)
                    for changed in (c + 1, c - 1, c + (c // 1000 or 1)):
                        mutant = Polynomial(pn.vars, {**pn._terms, spot: changed})
                        monkeypatch.setattr(construct, "build_pn", lambda m, n=n, mutant=mutant:
                                            mutant if m == n else build_pn(m))
                        # pn_roots reads build_pn on every call, with no cache
                        mvgroup._pn_unit_rows.cache_clear()
                        rng = random.Random(n)
                        for _ in range(40):
                            xv, yv = _disk_point(rng), _disk_point(rng)
                            target = mul_n(inv(xv, n), inv(yv, n), n)
                            if not eq_multiset(pn_roots(xv, yv, n), target, 1e-7):
                                caught.add(n)
                                assert not roots_match_pn(xv, yv, n, 1e-7), (n, spot, changed)
        finally:
            mvgroup._pn_unit_rows.cache_clear()
        assert caught == set(range(2, 25))
