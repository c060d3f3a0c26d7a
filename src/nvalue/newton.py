"""Newton polytopes of homogeneous 3-variable polynomials, with exact hulls.

The support of a homogeneous 3-variable polynomial lies in the plane
where the coordinates sum to the degree, so its hull is computed on the
(first, second)-exponent projection and lifted back.  Only such inputs
are handled.  Orientation tests are integer cross products throughout;
no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polyring import Polynomial


class ZeroPolynomial(ValueError):
    """The zero polynomial has no Newton polytope."""


class HypothesisNotMet(ValueError):
    """A hypothesis of the simplex theorem failed; names the culprit."""

    def __init__(self, hypothesis: str):
        super().__init__(f"hypothesis not met: {hypothesis}")
        self.hypothesis = hypothesis


@dataclass(frozen=True)
class NewtonPolytope:
    """Extreme lattice vertices of a support hull.

    ``vertices`` are the lifted triples whose coordinates sum to
    ``degree``, counterclockwise in the (first, second) projection.
    """

    dim: int
    degree: int
    vertices: tuple[tuple[int, ...], ...]

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


def _projected_support(f: Polynomial) -> tuple[int, list[tuple[int, int]]]:
    """Degree of f and its sorted (first, second)-exponent projection."""
    if not f:
        raise ZeroPolynomial("zero polynomial")
    degree = f.homogeneous_degree()
    if len(f.vars) != 3 or degree is None:
        raise ValueError("need a homogeneous polynomial in 3 variables")
    return degree, sorted({(e[0], e[1]) for e in f.support()})


def newton_polytope(f: Polynomial) -> NewtonPolytope:
    """Convex hull of the support of f as a NewtonPolytope."""
    degree, pts = _projected_support(f)
    verts = tuple((i, j, degree - i - j) for i, j in convex_hull_2d(pts))
    return NewtonPolytope(3, degree, verts)


def is_k_simplex(p: NewtonPolytope, k: int, n: int) -> bool:
    """True iff the vertex set is exactly {k * unit_i, i = 0..n} in R^(n+1)."""
    if k < 1 or n < 0:
        raise ValueError("need k >= 1 and n >= 0")
    if p.dim != n + 1:
        return False
    expected = {tuple(k if j == i else 0 for j in range(n + 1)) for i in range(n + 1)}
    return set(p.vertices) == expected


@dataclass(frozen=True)
class TheoremReport:
    degree: int
    simplex_dim: int
    vertices: tuple[tuple[int, ...], ...]
    passed: bool


def verify_theorem(f: Polynomial) -> TheoremReport:
    """Check that the support hull of f is the size-k standard simplex.

    Hypotheses (all validated, raising HypothesisNotMet): f is symmetric,
    homogeneous of some degree k >= 1, and contains the pure power of its
    first variable.  Under them the hull must have exactly the k-scaled
    unit vectors as vertices.
    """
    if not f:
        raise HypothesisNotMet("nonzero")
    if not f.is_symmetric():
        raise HypothesisNotMet("symmetric")
    k = f.homogeneous_degree()
    if k is None:
        raise HypothesisNotMet("homogeneous")
    if k < 1:
        raise HypothesisNotMet("positive degree")
    nvars = len(f.vars)
    pure = tuple(k if i == 0 else 0 for i in range(nvars))
    if pure not in f.support():
        raise HypothesisNotMet(f"contains {f.vars[0]}^{k}")
    p = newton_polytope(f)
    return TheoremReport(k, nvars - 1, p.vertices, is_k_simplex(p, k, nvars - 1))


# -- SVG rendering ------------------------------------------------------------

_SVG_SCALE = 32
_SVG_MARGIN = 24


def render_svg(f: Polynomial) -> str:
    """Deterministic SVG of the projected support and its hull.

    Unit grid in light gray, support points as filled circles, hull as a
    closed path.  Output is byte-stable for golden-file comparison.
    """
    _, pts = _projected_support(f)
    hull = convex_hull_2d(pts)
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
    "HypothesisNotMet",
    "NewtonPolytope",
    "TheoremReport",
    "ZeroPolynomial",
    "convex_hull_2d",
    "is_k_simplex",
    "newton_polytope",
    "render_svg",
    "verify_theorem",
]
