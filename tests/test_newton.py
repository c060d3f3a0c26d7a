import random

import pytest

from nvalue.construct import build_pn
from nvalue.newton import (
    ZeroPolynomial,
    convex_hull_2d,
    is_k_simplex,
    newton_polytope,
    render_svg,
)
from nvalue.polyring import Polynomial

from helpers import XYZ, oracle_hull_vertices

x = Polynomial.variable("x", XYZ)
y = Polynomial.variable("y", XYZ)
z = Polynomial.variable("z", XYZ)


class TestSupport:
    def test_two_terms(self):
        f = Polynomial(("x", "y"), {(2, 0): 1, (1, 1): -2})
        assert f.support() == {(2, 0), (1, 1)}

    def test_zero(self):
        assert Polynomial(XYZ).support() == set()

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
        assert poly.degree == 1

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
            newton_polytope(Polynomial(XYZ))

    def test_inhomogeneous_3var_rejected(self):
        with pytest.raises(ValueError):
            newton_polytope(x + x * y)

    def test_two_variable_input_rejected(self):
        f = Polynomial(("x", "y"), {(2, 0): 1, (0, 2): 1, (1, 1): 5})
        with pytest.raises(ValueError):
            newton_polytope(f)
        with pytest.raises(ValueError):
            render_svg(f)


def _full_hull(f):
    n = f.homogeneous_degree()
    return tuple((i, j, n - i - j) for i, j in convex_hull_2d((e[0], e[1]) for e in f.support()))


class TestColumnExtremes:
    """newton_polytope hulls only column extremes; the full hull is the oracle."""

    def test_random_supports(self):
        rng = random.Random(34)
        for _ in range(300):
            d = rng.randint(0, 9)
            shape = rng.choice(("single", "collinear", "random"))
            if shape == "single":
                ij = [(rng.randint(0, d), 0)]
            elif shape == "collinear":
                # a line through the support plane: fixed third exponent
                top = d - rng.randint(0, d)
                ij = [(i, top - i) for i in rng.sample(range(top + 1), rng.randint(1, top + 1))]
            else:
                ij = [(i, rng.randint(0, d - i)) for i in
                      (rng.randint(0, d) for _ in range(rng.randint(1, 15)))]
            f = Polynomial(XYZ, {(i, j, d - i - j): rng.choice((-3, -1, 1, 2)) for i, j in ij})
            assert newton_polytope(f).vertices == _full_hull(f), ij

    def test_pn_up_to_40(self):
        for n in range(1, 41):
            assert newton_polytope(build_pn(n)).vertices == _full_hull(build_pn(n)), n


class TestIsKSimplex:
    def test_p5(self):
        assert is_k_simplex(newton_polytope(build_pn(5)), 5)

    def test_monomial_is_not(self):
        assert not is_k_simplex(newton_polytope(x * y * z), 3)

    def test_p9(self):
        assert is_k_simplex(newton_polytope(build_pn(9)), 9)

    def test_wrong_size(self):
        assert not is_k_simplex(newton_polytope(build_pn(4)), 5)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            is_k_simplex(newton_polytope(build_pn(2)), 0)


class TestVerifyTheorem:
    """The paper's theorem on the path the newton command takes."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_pn_passes(self, n):
        assert is_k_simplex(newton_polytope(build_pn(n)), n)

    @pytest.mark.slow
    @pytest.mark.parametrize("n", (*range(13, 49), 64, 96, 128))
    def test_pn_passes_past_12(self, n):
        assert is_k_simplex(newton_polytope(build_pn(n)), n)

    def test_sum_of_squares_passes(self):
        assert is_k_simplex(newton_polytope(x * x + y * y + z * z), 2)


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
            render_svg(Polynomial(XYZ))
