import random

import pytest

from nvalue.construct import build_pn
from nvalue.newton import (
    HypothesisNotMet,
    NewtonPolytope,
    ZeroPolynomial,
    convex_hull_2d,
    is_k_simplex,
    newton_polytope,
    render_svg,
    verify_theorem,
)
from nvalue.polyring import Polynomial
from nvalue.symdecomp import elementary

from helpers import XYZ, oracle_hull_vertices

x = Polynomial.variable("x", XYZ)
y = Polynomial.variable("y", XYZ)
z = Polynomial.variable("z", XYZ)


class TestSupport:
    def test_two_terms(self):
        f = Polynomial(("x", "y"), {(2, 0): 1, (1, 1): -2})
        assert f.support() == {(2, 0), (1, 1)}

    def test_zero(self):
        assert Polynomial.zero(XYZ).support() == set()

    def test_p2_full_degree_two_support(self):
        expected = {(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1), (1, 0, 1)}
        assert build_pn(2).support() == expected


class TestConvexHull2D:
    def test_unit_square(self):
        hull = convex_hull_2d([(0, 0), (1, 0), (0, 1), (1, 1)])
        assert hull == [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_collinear(self):
        assert convex_hull_2d([(0, 0), (2, 0), (1, 0)]) == [(0, 0), (2, 0)]

    def test_single_point(self):
        assert convex_hull_2d([(3, 4)]) == [(3, 4)]

    def test_duplicates_ignored(self):
        assert convex_hull_2d([(0, 0), (0, 0), (1, 1), (1, 1)]) == [(0, 0), (1, 1)]

    def test_interior_points_dropped(self):
        pts = [(0, 0), (4, 0), (0, 4), (1, 1), (2, 1)]
        assert convex_hull_2d(pts) == [(0, 0), (4, 0), (0, 4)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            convex_hull_2d([])

    def test_shuffle_invariance(self):
        rng = random.Random(31)
        for _ in range(100):
            pts = [(rng.randint(0, 8), rng.randint(0, 8))
                   for _ in range(rng.randint(1, 12))]
            base = convex_hull_2d(pts)
            shuffled = pts[:]
            rng.shuffle(shuffled)
            assert convex_hull_2d(shuffled) == base

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(32)
        for _ in range(200):
            pts = [(rng.randint(0, 8), rng.randint(0, 8))
                   for _ in range(rng.randint(1, 12))]
            assert set(convex_hull_2d(pts)) == oracle_hull_vertices(pts)

    def test_all_points_inside_hull(self):
        # every input point is on or left of each counterclockwise edge
        def cross(o, a, b):
            return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

        rng = random.Random(33)
        for _ in range(100):
            pts = [(rng.randint(0, 8), rng.randint(0, 8))
                   for _ in range(rng.randint(3, 12))]
            hull = convex_hull_2d(pts)
            if len(hull) < 3:
                continue
            for p in pts:
                for i in range(len(hull)):
                    assert cross(hull[i], hull[(i + 1) % len(hull)], p) >= 0


class TestNewtonPolytope:
    def test_p1_triangle(self):
        poly = newton_polytope(build_pn(1))
        assert set(poly.vertices) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        assert poly.dim == 3 and poly.degree == 1

    def test_p3_triangle(self):
        poly = newton_polytope(build_pn(3))
        assert set(poly.vertices) == {(3, 0, 0), (0, 3, 0), (0, 0, 3)}

    def test_monomial_single_vertex(self):
        poly = newton_polytope(x * y * z)
        assert poly.vertices == ((1, 1, 1),)

    def test_vertices_lie_on_degree_plane(self):
        for n in range(1, 9):
            poly = newton_polytope(build_pn(n))
            assert all(sum(v) == n for v in poly.vertices)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            newton_polytope(Polynomial.zero(XYZ))

    def test_inhomogeneous_3var_rejected(self):
        with pytest.raises(ValueError):
            newton_polytope(x + x * y)

    def test_two_variable_input_rejected(self):
        f = Polynomial(("x", "y"), {(2, 0): 1, (0, 2): 1, (1, 1): 5})
        with pytest.raises(ValueError):
            newton_polytope(f)
        with pytest.raises(ValueError):
            render_svg(f)


class TestIsKSimplex:
    def test_p5(self):
        assert is_k_simplex(newton_polytope(build_pn(5)), 5, 2)

    def test_monomial_is_not(self):
        assert not is_k_simplex(newton_polytope(x * y * z), 3, 2)

    def test_p9(self):
        assert is_k_simplex(newton_polytope(build_pn(9)), 9, 2)

    def test_wrong_size(self):
        assert not is_k_simplex(newton_polytope(build_pn(4)), 5, 2)

    def test_dimension_mismatch(self):
        poly = NewtonPolytope(2, 2, ((2, 0), (0, 2)))
        assert is_k_simplex(poly, 2, 1)
        assert not is_k_simplex(poly, 2, 2)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            is_k_simplex(newton_polytope(build_pn(2)), 0, 2)


class TestVerifyTheorem:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_pn_passes(self, n):
        rep = verify_theorem(build_pn(n))
        assert rep.passed
        assert rep.degree == n

    def test_e2_lacks_pure_power(self):
        with pytest.raises(HypothesisNotMet) as err:
            verify_theorem(elementary(XYZ, 2))
        assert "x^2" in str(err.value)

    def test_sum_of_squares_passes(self):
        f = x * x + y * y + z * z
        rep = verify_theorem(f)
        assert rep.passed
        assert set(rep.vertices) == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}

    def test_asymmetric_rejected(self):
        with pytest.raises(HypothesisNotMet) as err:
            verify_theorem(x + 2 * y + z)
        assert err.value.hypothesis == "symmetric"

    def test_inhomogeneous_rejected(self):
        with pytest.raises(HypothesisNotMet) as err:
            verify_theorem((x + y + z) + (x + y + z) ** 2)
        assert err.value.hypothesis == "homogeneous"

    def test_zero_rejected(self):
        with pytest.raises(HypothesisNotMet):
            verify_theorem(Polynomial.zero(XYZ))


class TestJson:
    def test_schema(self):
        data = newton_polytope(build_pn(2)).to_json()
        assert data["degree"] == 2
        assert sorted(map(tuple, data["vertices"])) == [
            (0, 0, 2), (0, 2, 0), (2, 0, 0)]


class TestSvg:
    def test_deterministic(self):
        a = render_svg(build_pn(3))
        b = render_svg(build_pn(3))
        assert a == b

    def test_contains_grid_hull_and_points(self):
        svg = render_svg(build_pn(2))
        assert svg.startswith("<svg ")
        assert svg.count("<circle") == 6  # all degree-2 support points
        assert '<path d="M' in svg and svg.rstrip().endswith("</svg>")

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            render_svg(Polynomial.zero(XYZ))
