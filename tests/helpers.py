"""Shared test utilities: random generators and independent oracles."""

import importlib
import itertools
import math
import pkgutil

import nvalue
from nvalue import construct, mvgroup, symdecomp
from nvalue.polyring import Polynomial, half_row_to_sp, pascal_rows

XYZ = ("x", "y", "z")


def _caches():
    """Every module-level lru_cache in nvalue, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(nvalue.__path__):
        module = importlib.import_module(f"nvalue.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                found[f"{module.__name__}.{name}"] = obj
    return found


def half_row_to_sp_reference(row, d):
    """polyring.half_row_to_sp with one math.comb per binomial: s^(d-2b) p^b
    puts C(d-2b, i-b) at x^(d-i) y^i."""
    out = []
    for i, h in enumerate(row):
        out.append(h - sum(c * math.comb(d - 2 * b, i - b) for b, c in enumerate(out)))
    return out


def sp_to_half_row_reference(row, d):
    """polyring.sp_to_half_row with one math.comb per binomial."""
    return [sum(c * math.comb(d - 2 * b, i - b) for b, c in enumerate(row[:i + 1]))
            for i in range(len(row))]


def pn_rows_reference(n):
    """construct.pn_rows with Newton's identities as an indexed double loop
    over row k - i and P_i, i = 1..k, uncached."""
    top = 2 * n // 3
    pascal = pascal_rows(top)
    psums = [None] + [[-c for c in half_row_to_sp(half, m, pascal)]
                      for m, half in enumerate(construct._power_sum_halves(n, top), 1)]
    rows = [(1,)]
    for k in range(1, top + 1):
        acc = [0] * (k // 2 + 1)
        for i in range(1, k + 1):
            ps = psums[i]
            for a, ca in enumerate(rows[k - i]):
                for b, cb in enumerate(ps, a):
                    acc[b] += ca * cb
        row = []
        for b, c in enumerate(acc):
            q, r = divmod(c, k)
            if r:
                raise construct.NonIntegralCoefficient(
                    f"z^{n - k} coefficient {c} of s^{k - 2 * b} p^{b} is not divisible by {k}")
            row.append(q)
        rows.append(tuple(row))
    return tuple(rows)


def decompose_rows_reference(n, rows):
    """The oracle of symdecomp.decompose_rows: it peels every entry, the
    ones that lead no e-basis monomial too, and checks symmetry by raising
    NotSymmetric where such an entry is left nonzero; every target row and
    column is computed from (i, l) and both loop bounds by max()."""
    low = (n + 2) // 3
    rows = [list(row) for row in rows[:n - low + 1]]
    pascal = pascal_rows(n)
    coeffs = {}
    for j in range(n, low - 1, -1):
        d = n - j
        for b, c in enumerate(rows[d]):
            if not c:
                continue
            a, m = 2 * j - n + b, d - 2 * b
            if a < 0:
                raise symdecomp.NotSymmetric(f"z^{j} s^{m} p^{b} leads no e-basis monomial")
            coeffs[j, d - b, b] = c
            comb_m = [c * x for x in pascal[m]]
            for i in range(max(0, low - b - m), a + 1):
                ci = pascal[a][i]
                # the term at z^(i+l+b) is row n - i - l - b, column m - l + b,
                # kept while i + l + b >= low
                top, col = n - i - b, m + b
                for l in range(max(0, low - i - b), m + 1):
                    rows[top - l][col - l] -= ci * comb_m[l]
    return symdecomp.EBasisPolynomial(n, coeffs)


def random_poly(rng, vars=XYZ, max_terms=8, max_exp=6, max_coeff=10 ** 6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_exp) for _ in vars)
        c = rng.randint(-max_coeff, max_coeff)
        terms[e] = terms.get(e, 0) + c
    return Polynomial(vars, terms)


def random_symmetric_homogeneous(rng, max_degree=8):
    """Sum of symmetrized random monomials, all of one random degree."""
    d = rng.randint(1, max_degree)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(0, d)
        b = rng.randint(0, d - a)
        parts = (a, b, d - a - b)
        c = rng.randint(-50, 50)
        if c == 0:
            c = 1
        for perm in set(itertools.permutations(parts)):
            terms[perm] = terms.get(perm, 0) + c
    return Polynomial(XYZ, terms)


def naive_convolution(a, b):
    """Independent product oracle: plain nested-loop term convolution."""
    out = {}
    for ea, ca in a.sorted_terms():
        for eb, cb in b.sorted_terms():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def terms_dict(p):
    return dict(p.sorted_terms())


# -- exact 2-D hull oracle ------------------------------------------------------

def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p, a, b):
    if _cross(a, b, p) != 0:
        return False
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))


def _in_triangle(p, a, b, c):
    if _cross(a, b, c) == 0:
        return _on_segment(p, a, b) or _on_segment(p, b, c) or _on_segment(p, a, c)
    d1, d2, d3 = _cross(a, b, p), _cross(b, c, p), _cross(c, a, p)
    has_neg = d1 < 0 or d2 < 0 or d3 < 0
    has_pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (has_neg and has_pos)


def oracle_hull_vertices(points):
    """Extreme points by exhaustion: p is extreme iff not in conv(rest)."""
    pts = sorted(set(tuple(p) for p in points))
    out = set()
    for p in pts:
        others = [q for q in pts if q != p]
        covered = any(_on_segment(p, a, b)
                      for a, b in itertools.combinations(others, 2))
        if not covered:
            covered = any(_in_triangle(p, a, b, c)
                          for a, b, c in itertools.combinations(others, 3))
        if not covered:
            out.add(p)
    return out


def count_comparisons(monkeypatch):
    """Wrap mvgroup._close so that every tolerance comparison is counted;
    the one-element list returned holds the count, a step count that does
    not depend on the machine."""
    count = [0]
    close_for = mvgroup._close

    def counted_close(tol):
        close = close_for(tol)

        def counted(p, q):
            count[0] += 1
            return close(p, q)

        return counted

    monkeypatch.setattr(mvgroup, "_close", counted_close)
    return count
