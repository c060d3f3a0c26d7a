"""Numeric n-valued group on the complex numbers.

The product of x and y is the n-multiset [(x^(1/n) + eps^r y^(1/n))^n] over
the n-th roots of unity eps^r, with principal-branch roots; the result is
independent of the branch chosen.  Every product, a zero operand's and
n = 1's too, is this formula.  Unit is 0, inverse is (-1)^n x.
Multisets are equal when some bijection pairs their values within a
scale-aware tolerance: the order given is tried first, and an exact
bipartite matching (Kuhn's augmenting paths), over the pairs whose real
parts lie within a window, decides when it does not pair.  The z-roots of
p_n are checked against the product with no root finding, by Vieta's
formulas and the Weierstrass correction at each predicted root, each value
taken at a scale at which it does not underflow; _pn_unit_rows is the one
cached float table of p_n.
pn_roots, np.roots over the coefficients Polynomial.eval_complex gives, is
a cross-check reference that no command calls; it alone imports numpy,
inside the call.
"""

from __future__ import annotations

import bisect
import cmath
import itertools
import math
import operator
from functools import lru_cache
from itertools import repeat

from . import construct


class RootFindingFailure(ArithmeticError):
    """Numeric root extraction did not converge to finite values."""


def nth_root(x: complex, n: int) -> complex:
    """Principal n-th root, of argument cmath.phase(x) / n in [-pi/n, pi/n]:
    -pi/n for a negative real x whose imaginary part is -0.0."""
    x = complex(x)
    if x == 0:
        return 0j
    return cmath.exp(cmath.log(x) / n)


def mul_n(x: complex, y: complex, n: int) -> list[complex]:
    """The n-multiset product of x and y, (a + eps^r b)^n for r = 1..n with
    a and b the principal roots of x and y, for every n >= 1 and every
    operand, 0 included."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = nth_root(x, n), nth_root(y, n)
    return [(a + w * b) ** n for w in _unity(n)]


@lru_cache(maxsize=None)
def _unity(n: int) -> tuple[complex, ...]:
    # eps^1, ..., eps^n with eps = exp(2 pi i / n)
    return tuple(cmath.exp(2j * cmath.pi * r / n) for r in range(1, n + 1))


def inv(x: complex, n: int) -> complex:
    """Group inverse: (-1)^n x."""
    return complex(x) if n % 2 == 0 else -complex(x)


def eq_multiset(a, b, tol: float) -> bool:
    """Multiset equality: some bijection pairs every p in a with a q in b
    such that |p - q| <= tol * max(1, |p|, |q|).

    The order given is tried as the bijection first; when some pair fails
    in it, a perfect matching in the tolerance graph decides, so every
    input is decided exactly.
    """
    if len(a) != len(b) or not all(map(cmath.isfinite, a)):
        return False                      # isclose(inf, inf) holds
    # isclose fails for a finite p and a q that is not, so b is tested only
    # when the order given does not pair
    return all(map(_close(tol), a, b)) or (
        all(map(cmath.isfinite, b)) and _has_perfect_matching(_tolerance_graph(a, b, tol)))


def _close(tol: float):
    """The per-pair test |p - q| <= tol * max(1, |p|, |q|).  isclose tests
    |p - q| <= max(tol * max(|p|, |q|), tol), which rounds the same."""
    return lambda p, q: cmath.isclose(p, q, rel_tol=tol, abs_tol=tol)


def _tolerance_graph(a, b, tol: float) -> list[list[int]]:
    """For each value p of a, the indices of the values of b within
    tolerance of it.

    Such a q has |Re p - Re q| <= |p - q| <= tol * max(1, |p|) / (1 - tol),
    so only the values of b whose real part lies within twice that of
    Re p, a window found by bisection in b sorted by real part, are tested;
    the factor 2 covers rounding, and for tol >= 1 the window is all of b.
    Well-separated values cost one bisection and a few tests each.
    """
    close = _close(tol)
    order = sorted(range(len(b)), key=lambda v: b[v].real)
    reals = [b[v].real for v in order]
    rows = []
    for p in a:
        w = 2 * tol * max(1.0, abs(p)) / (1 - tol) if tol < 1 else math.inf
        window = order[bisect.bisect_left(reals, p.real - w):bisect.bisect_right(reals, p.real + w)]
        rows.append([v for v in window if close(p, b[v])])
    return rows


def _has_perfect_matching(adj) -> bool:
    """Kuhn's augmenting paths; row u may take the columns listed in
    adj[u], and there are as many columns as rows.

    Each search is breadth-first without recursion, and takes a free
    column as soon as one is reached, so a cluster of equal values is
    matched in one step per row.
    """
    size = len(adj)
    col_of_row = [-1] * size
    row_of_col = [-1] * size
    for root in range(size):
        parent = {}                       # column -> row it was reached from
        frontier, end = [root], -1
        while frontier and end < 0:
            following = []
            for u in frontier:
                # no free column has been reached yet, so any is new
                end = next((v for v in adj[u] if row_of_col[v] < 0), -1)
                if end >= 0:
                    parent[end] = u
                    break
                reach = [v for v in adj[u] if v not in parent]
                parent.update(dict.fromkeys(reach, u))
                following.extend(row_of_col[v] for v in reach)
            frontier = following
        if end < 0:
            return False
        while end >= 0:                   # flip the path back to the root
            u = parent[end]
            previous = col_of_row[u]
            col_of_row[u], row_of_col[end] = end, u
            end = previous
    return True


def contains_zero(values, tol: float) -> bool:
    """Scale-aware membership of 0 in a multiset of complex values; as in
    eq_multiset, an empty or non-finite multiset holds none."""
    vals = [abs(v) for v in values]
    if not vals or not all(map(math.isfinite, vals)):
        return False
    return min(vals) <= tol * max(1.0, max(vals))


def check_associativity(x: complex, y: complex, z: complex, n: int, tol: float) -> bool:
    """Compare x*(y*z) against (x*y)*z as n^2-multisets.

    With a, b, c the principal roots of x, y, z, each product is
    (a + eps^i b + eps^j c)^n.  The root r_s of (b + eps^(s+1) c)^n, the s-th
    value of y*z, is eps^k_s (b + eps^(s+1) c), and the root q_u of
    (a + eps^(u+1) b)^n is eps^m_u (a + eps^(u+1) b), so left[s n + t]
    equals (q_u + eps^(j+1) c)^n for u = t + k_s and j = s + i_u (mod n),
    i_u = u + 1 + m_u, and right[s n + t] is built as that value.  The
    products are mul_n's, bit for bit, for every input.  A zero r_s or q_u
    takes label 0, since its row, (a + eps^t 0)^n or (0 + eps^t c)^n, is
    one value n times.  A value of y*z or x*y that is not finite makes the
    verdict False, as eq_multiset's would be.
    """
    yz, xy = mul_n(y, z, n), mul_n(x, y, n)
    if not all(map(cmath.isfinite, yz + xy)):
        return False
    a, b, c = nth_root(x, n), nth_root(y, n), nth_root(z, n)
    unity, turn = _unity(n), n / (2 * math.pi)    # turn: a label's steps per radian
    rs, qs = ([nth_root(v, n) for v in vs] for vs in (yz, xy))
    left = [(a + w * r) ** n for r in rs for w in unity]
    ks = [round(cmath.phase(r / (b + w * c)) * turn) % n if r else 0 for r, w in zip(rs, unity)]
    starts = [((round(cmath.phase(q / (a + w * b)) * turn) if q else 0) + u + 1) % n
              for u, (q, w) in enumerate(zip(qs, unity))]
    # doubled, so that s + i_u and t + k_s need no modulo
    wc, cycle = [w * c for w in unity] * 2, list(range(n)) * 2
    right = [(qs[u] + wc[s + starts[u]]) ** n for s, k in enumerate(ks) for u in cycle[k:k + n]]
    return eq_multiset(left, right, tol)


def pn_roots(x: complex, y: complex, n: int) -> list[complex]:
    """Numeric z-roots of p_n(. ; x, y) via the companion matrix, over the
    coefficients Polynomial.eval_complex gives; a cross-check reference
    that no command calls.  It needs numpy installed, which the package
    does not declare."""
    import numpy as np
    desc = [c.eval_complex((x, y)) for c in reversed(construct.build_pn(n).coefficients_in("z"))]
    if not all(cmath.isfinite(c) for c in desc):
        raise RootFindingFailure("polynomial coefficients are not finite")
    try:
        roots = np.roots(np.asarray(desc, dtype=complex))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - conditioning
        raise RootFindingFailure(str(exc)) from exc
    if not np.all(np.isfinite(roots)):
        raise RootFindingFailure("non-finite roots returned")
    return [complex(r) for r in roots]


@lru_cache(maxsize=None)
def _pn_unit_rows(n: int):
    """The coefficients of z^n, ..., z^0 in p_n, each as (b, terms): the
    term c x^i y^j, in falling powers of x, as (i, j, c / 2^b) correctly
    rounded, with 2^b above every |c| of the row.  Each entry is at most 1
    in modulus, so no row leaves double range at any n; one below 2^-1074
    of its row's largest becomes 0."""
    rows = []
    for poly in reversed(construct.build_pn(n).coefficients_in("z")):
        b = max(map(abs, poly._terms.values())).bit_length()
        rows.append((b, tuple((i, j, c / 2 ** b) for (i, j), c in poly.sorted_terms())))
    return tuple(rows)


def _monic(values, factors=None) -> list:
    # coefficients of prod (z - v) over values, from z^len(values) down,
    # row k multiplied by factors[1] * ... * factors[k] where given
    out = [1.0]
    for v in values:
        shifted = [0.0] + out
        if factors:
            shifted = map(operator.mul, shifted, factors)
        out = list(map(operator.sub, out + [0.0], map(operator.mul, shifted, repeat(v))))
    return out


def _ldexp(v: complex, e: int) -> complex:
    return complex(math.ldexp(v.real, e), math.ldexp(v.imag, e))


def roots_match_pn(x: complex, y: complex, n: int, tol: float) -> bool:
    """True iff the z-roots of p_n(.; x, y) equal inv(x)*inv(y) as multisets.

    Decided without finding roots.  With r the predicted roots, Q(z) the
    product of (z - r) and D = p_n - Q, two tests must hold, each up to a
    bound S_k on the rounding of D_k, the coefficient of z^(n-k).

    Vieta: for every k, |D_k| <= tol * k * M_k + S_k, with M_k the
    coefficient of z^(n-k) in prod (z + max(1, |r|)): tol * k * M_k bounds,
    to first order, what moving each r by tol * max(1, |r|) does to Q's
    coefficient.  This test counts multiplicities.

    Weierstrass: at every r, |D(r)| <= tol * max(1, |r|) * |Q'(r)| + R_r,
    with R_r the sum over k of S_k |r|^(n-k).  D(r) / Q'(r), where Q'(r) is
    the product of r - s over the other predicted roots s, is the
    first-order distance from r to the root of p_n that stands for it.  (The
    Newton step D(r) / p_n'(r) is shorter by up to the number of roots
    clustered near r, so it misses a root moved away from such a cluster.)

    S_k = 2^-52 * ((4n + terms_k) * T_k + 2n * E_k + 4n * |D_k|), with T_k
    the sum of the moduli of p_n's terms in row k and E_k the coefficient of
    z^(n-k) in prod (z + |r|).  M, E and S are computed only where a test
    fails without them; M_k >= |Q_k| stands in for M_k until then.

    The predicted roots range from about 2^n down to far below 2^-1074, so
    no one scale holds every row and every value.  Row k is scaled by the
    product of the k largest |r|, as powers of two, which keeps the rows of
    p_n, Q, M and E in double range, and D(r), R_r and Q'(r) are evaluated
    at the scale of D's largest term at r, so that nothing the tests
    compare underflows.  Where the product of |r| / max |r| stays above
    about 2^(n - 900), one power of two scales every root instead.  x and y
    are scaled by a power of two first: row k is homogeneous of degree k.
    """
    x, y = complex(x), complex(y)
    target = mul_n(inv(x, n), inv(y, n), n)
    if not all(map(cmath.isfinite, target)):
        raise OverflowError(f"the product of {x} and {y} is not finite")
    # |r| < 2^e for each predicted root; 2^-1000 stands in for smaller ones
    exps = [max(math.frexp(abs(r))[1], -1000) for r in target]
    top = max(exps)
    shared = sum(exps) >= top * n - 900 + n
    if shared:
        exps = [top] * n
    ranked = sorted(exps, reverse=True)
    row_exp = list(itertools.accumulate(ranked, initial=0))
    scales = [math.ldexp(1.0, e) for e in exps]
    us = list(map(operator.truediv, target, scales))
    # Q, M and E are scaled as p_n's rows are: when shared by taking each
    # root over 2^top, else row by row, with the largest roots first so
    # that no partial row underflows
    if shared:
        order, factors, floor = sorted(us, key=abs, reverse=True), None, 1.0 / scales[0]
    else:
        order, floor = sorted(target, key=abs, reverse=True), 1.0
        factors = [1.0] + [math.ldexp(1.0, -e) for e in ranked]
    lift = math.frexp(max(abs(x), abs(y)))[1]
    xs, ys = ([v ** e for e in range(n + 1)] for v in (_ldexp(x, -lift), _ldexp(y, -lift)))
    rows, got = [], []
    try:
        for k, (b, row) in enumerate(_pn_unit_rows(n)):
            terms = [d * xs[i] * ys[j] for i, j, d in row]
            e = b + lift * k - row_exp[k]
            rows.append((terms, e))
            got.append(_ldexp(sum(terms), e))
    except OverflowError:
        return False          # a row of p_n far above what the roots allow
    expected = _monic(order, factors)
    diff = list(map(operator.sub, got, expected))
    rounding = None
    if not all(map(operator.le, map(abs, diff), map(
            operator.mul, map(abs, expected), map(operator.mul, repeat(tol), range(n + 1))))):
        radii = _monic([-max(floor, abs(r)) for r in order], factors)
        rounding = _rounding(rows, diff, order, factors, n)
        if not all(abs(d) <= tol * k * m + s
                   for k, (d, m, s) in enumerate(zip(diff, radii, rounding))):
            return False
    if shared:
        # row k is scaled by 2^(top k), so one Horner sum gives D at every r
        values = [0j] * n
        for d in diff:
            values = list(map(operator.add, map(operator.mul, values, us), repeat(d)))
        steps = repeat([1.0] * (n + 1))
    else:
        steps = [_steps(e, exps, ranked, n) for e in exps]
        values = list(map(_horner, steps, repeat(diff), us))
    # tol * max(1, |r|) * |Q'(r)|, at the scale of D at r
    sizes = list(map(abs, us))
    radius = map(max, map(operator.truediv, repeat(tol), scales),
                 map(operator.mul, sizes, repeat(tol)))
    allowed = list(map(operator.mul, radius, _slopes(target, scales, us, shared, n)))
    if all(map(operator.le, map(abs, values), allowed)):
        return True
    rounding = rounding or _rounding(rows, diff, order, factors, n)
    return all(abs(value) <= bound + _horner(step, rounding, size)
               for value, bound, step, size in zip(values, allowed, steps, sizes))


def _rounding(rows, diff, order, factors, n: int) -> list[float]:
    # S_k for each row k of p_n, at the rows' scale
    moduli = _monic([-abs(r) for r in order], factors)
    return [_EPS * ((4 * n + len(terms)) * math.ldexp(sum(map(abs, terms)), e)
                    + 2 * n * m + 4 * n * abs(d))
            for (terms, e), d, m in zip(rows, diff, moduli)]


def _slopes(target, scales, us, shared: bool, n: int) -> list[float]:
    """|Q'(r)| over the scale of D at r, for each predicted root r = u 2^e:
    the product of |r - s| / max(2^e, 2^f) over the other roots s = v 2^f,
    each factor at most 2; with one scale for every root, of |u - v|."""
    if shared:
        gaps = map(abs, map(operator.sub, _each(us, n), us * n))
    else:
        gaps = map(operator.truediv,
                   map(abs, map(operator.sub, _each(target, n), target * n)),
                   map(max, _each(scales, n), scales * n))
    flat = list(gaps)
    flat[::n + 1] = [1.0] * n                # leave out s = r itself
    return [math.prod(flat[j:j + n]) for j in range(0, n * n, n)]


def _each(values, n: int):
    # every value repeated n times in a row
    return itertools.chain.from_iterable(zip(*[values] * n))


def _steps(e: int, exps, ranked, n: int) -> list[float]:
    """The factors 2^(e (n - k) + row_exp[k] - P) with which row k enters
    D(r) for |r| < 2^e, P the largest of these exponents, so that D's
    largest term at r is taken at unit size: each exponent is the one
    before plus the k-th largest exponent of a root, minus e."""
    peak = sum(map(max, repeat(e), exps))
    return list(map(math.ldexp, repeat(1.0), itertools.accumulate(
        map(operator.sub, ranked, repeat(e)), initial=e * n - peak)))


def _horner(steps, coefficients, v):
    # the sum over k of coefficients[k] * steps[k] * v^(n - k)
    total = 0.0
    for c, s in zip(steps, coefficients):
        total = total * v + s * c
    return total


_EPS = 2.0 ** -52


__all__ = [
    "RootFindingFailure",
    "check_associativity",
    "contains_zero",
    "eq_multiset",
    "inv",
    "mul_n",
    "nth_root",
    "pn_roots",
    "roots_match_pn",
]
