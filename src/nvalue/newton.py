"""Newton polytopes of homogeneous 3-variable polynomials, with exact hulls.

The support of a homogeneous 3-variable polynomial lies in the plane
where the coordinates sum to the degree, so its hull is computed on the
(first, second)-exponent projection and lifted back.  Only such inputs
are handled.  Orientation tests are integer cross products throughout;
no floating point.
"""

from __future__ import annotations

from collections import namedtuple

from .polyring import Polynomial


class ZeroPolynomial(ValueError):
    """The zero polynomial has no Newton polytope."""


class NewtonPolytope(namedtuple("NewtonPolytope", "degree vertices")):
    """Extreme lattice vertices of a support hull.

    ``vertices`` are the lifted triples whose coordinates sum to
    ``degree``, counterclockwise in the (first, second) projection.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {"degree": self.degree, "vertices": [list(v) for v in self.vertices]}


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points) -> list[tuple[int, int]]:
    """Counterclockwise extreme points of a set of lattice points.

    Monotone chain with exact integer orientation tests; collinear
    non-extreme points are dropped.  A single point maps to itself and a
    collinear set to its two endpoints.
    """
    pts = sorted(set(tuple(p) for p in points))
    if not pts:
        raise ValueError("need at least one point")
    if len(pts) == 1:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def newton_polytope(f: Polynomial) -> NewtonPolytope:
    """Convex hull of the support of f as a NewtonPolytope.

    Only the lowest and the highest point of each column i of the (i, j)
    projection enter the hull: a point strictly between two points of its
    column is never a vertex, so the hull of a finite set is the hull of
    its column extremes, at most 2 (degree + 1) points.
    """
    if not f:
        raise ZeroPolynomial("zero polynomial")
    degree = f.homogeneous_degree()
    if len(f.vars) != 3 or degree is None:
        raise ValueError("need a homogeneous polynomial in 3 variables")
    low, high = {}, {}
    for i, j, _ in f.support():
        if low.get(i, j) >= j:
            low[i] = j
        if high.get(i, j) <= j:
            high[i] = j
    hull = convex_hull_2d([*low.items(), *high.items()])
    return NewtonPolytope(degree, tuple((i, j, degree - i - j) for i, j in hull))


def is_k_simplex(p: NewtonPolytope, k: int) -> bool:
    """True iff the vertex set is exactly {(k,0,0), (0,k,0), (0,0,k)}."""
    if k < 1:
        raise ValueError("need k >= 1")
    return set(p.vertices) == {(k, 0, 0), (0, k, 0), (0, 0, k)}


# -- SVG rendering ------------------------------------------------------------

_SVG_SCALE = 32
_SVG_MARGIN = 24


def render_svg(f: Polynomial) -> str:
    """Deterministic SVG of the projected support and its hull.

    Unit grid in light gray, support points as filled circles, hull as a
    closed path.  Output is byte-stable for golden-file comparison.
    """
    hull = newton_polytope(f).vertices
    pts = sorted({(e[0], e[1]) for e in f.support()})
    extent = max(max(max(p) for p in pts), 1)
    size = 2 * _SVG_MARGIN + extent * _SVG_SCALE

    def px(i: int) -> int:
        return _SVG_MARGIN + i * _SVG_SCALE

    def py(j: int) -> int:
        return size - _SVG_MARGIN - j * _SVG_SCALE

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for g in range(extent + 1):
        lines.append(f'<line x1="{px(g)}" y1="{py(0)}" x2="{px(g)}" y2="{py(extent)}" '
                     'stroke="#cccccc" stroke-width="1"/>')
        lines.append(f'<line x1="{px(0)}" y1="{py(g)}" x2="{px(extent)}" y2="{py(g)}" '
                     'stroke="#cccccc" stroke-width="1"/>')
    path = " ".join(
        f"{'M' if i == 0 else 'L'} {px(p[0])} {py(p[1])}" for i, p in enumerate(hull))
    lines.append(f'<path d="{path} Z" fill="#dbe9ff" fill-opacity="0.6" '
                 'stroke="#1a56b0" stroke-width="2"/>')
    for p in pts:
        lines.append(f'<circle cx="{px(p[0])}" cy="{py(p[1])}" r="4" fill="#111111"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


__all__ = [
    "NewtonPolytope",
    "ZeroPolynomial",
    "convex_hull_2d",
    "is_k_simplex",
    "newton_polytope",
    "render_svg",
]
