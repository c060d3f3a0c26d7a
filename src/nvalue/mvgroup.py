"""Numeric n-valued group on the complex numbers.

The product of x and y is the n-multiset [(x^(1/n) + eps^r y^(1/n))^n] over
the n-th roots of unity eps^r, with principal-branch roots; the result is
independent of the branch chosen.  Unit is 0, inverse is (-1)^n x.
Multisets are equal when some bijection pairs their values within a
scale-aware tolerance: the sorted orders are tried first, and an exact
bipartite matching (Kuhn's augmenting paths) decides when they do not pair.
numpy is imported inside the calls that use it, so that importing this
module, as the CLI does for every command, does not load it.
"""

from __future__ import annotations

import cmath
import warnings
from functools import lru_cache

from . import construct
from .polyring import _to_complex


class RootFindingFailure(ArithmeticError):
    """Numeric root extraction did not converge to finite values."""


def nth_root(x: complex, n: int) -> complex:
    """Principal n-th root: argument of the result in (-pi/n, pi/n]."""
    x = complex(x)
    if x == 0:
        return 0j
    return cmath.exp(cmath.log(x) / n)


def mul_n(x: complex, y: complex, n: int) -> list[complex]:
    """The n-multiset product of x and y.

    Zero operands short-circuit: the unit axiom gives [other]*n exactly,
    with no root-of-unity rounding.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _mul(x, y, n, None, None)


def _mul(x, y, n: int, a, b) -> list[complex]:
    # mul_n for n >= 1, given the principal roots a of x and b of y where
    # the caller has them already, None where not
    if n == 1:
        return [complex(x) + complex(y)]
    if x == 0:
        return [complex(y)] * n
    if y == 0:
        return [complex(x)] * n
    if a is None:
        a = nth_root(x, n)
    if b is None:
        b = nth_root(y, n)
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

    The zipped sorted orders are tried first as the bijection; when some
    pair fails, a perfect matching in the tolerance graph decides.  This
    accepts every input a minimum-cost matching accepts, and also those
    whose minimum-cost matching has one pair out of tolerance while another
    bijection has none.
    """
    if len(a) != len(b):
        return False
    if not a:
        return True
    import numpy as np
    av = np.asarray(list(a), dtype=complex)
    bv = np.asarray(list(b), dtype=complex)
    if not (np.all(np.isfinite(av)) and np.all(np.isfinite(bv))):
        return False
    if np.all(_close(np.sort_complex(av), np.sort_complex(bv), tol)):
        return True
    return _has_perfect_matching(_close(av[:, None], bv[None, :], tol))


def _close(p, q, tol: float):
    """The per-pair test, broadcast over numpy arrays."""
    import numpy as np
    return np.abs(p - q) <= tol * np.maximum(1.0, np.maximum(np.abs(p), np.abs(q)))


def _has_perfect_matching(adj) -> bool:
    """Kuhn's augmenting paths on a square boolean biadjacency matrix.

    Each search is breadth-first without recursion, and takes a free
    neighbour as soon as one is reached, so a cluster of equal values is
    matched in one step per row.
    """
    import numpy as np
    size = len(adj)
    col_of_row = np.full(size, -1)
    row_of_col = np.full(size, -1)
    for root in range(size):
        parent = np.full(size, -1)    # row each column was reached from
        seen = np.zeros(size, dtype=bool)
        frontier, end = [root], -1
        while frontier and end < 0:
            following = []
            for u in frontier:
                reach = np.flatnonzero(adj[u] & ~seen)
                seen[reach] = True
                parent[reach] = u
                free = reach[row_of_col[reach] < 0]
                if free.size:
                    end = int(free[0])
                    break
                following.extend(row_of_col[reach].tolist())
            frontier = following
        if end < 0:
            return False
        while end >= 0:               # flip the path back to the root
            u = parent[end]
            previous = col_of_row[u]
            col_of_row[u], row_of_col[end] = end, u
            end = previous
    return True


def contains_zero(values, tol: float) -> bool:
    """Scale-aware membership of 0 in a multiset of complex values."""
    vals = [abs(v) for v in values]
    scale = max(1.0, max(vals, default=0.0))
    return min(vals, default=0.0) <= tol * scale


def check_associativity(x: complex, y: complex, z: complex, n: int, tol: float) -> bool:
    """Compare x*(y*z) against (x*y)*z as n^2-multisets."""
    yz = mul_n(y, z, n)
    a, c = nth_root(x, n), nth_root(z, n)     # each shared by n products
    left = [w for inner in yz for w in _mul(x, inner, n, a, None)]
    right = [w for inner in _mul(x, y, n, a, None) for w in _mul(inner, z, n, None, c)]
    return eq_multiset(left, right, tol)


@lru_cache(maxsize=None)
def _pn_z_rows(n: int):
    """The coefficients of z^n, ..., z^0 in p_n, each as its terms
    (i, j, c) for c x^i y^j in the builder's order, with c converted to
    complex once; and whether some c is past double range."""
    coefficients = reversed(construct.build_pn(n).coefficients_in("z"))
    with warnings.catch_warnings():
        # pn_roots warns on every call that meets such a c, not only here
        warnings.simplefilter("ignore", RuntimeWarning)
        rows = tuple(tuple((i, j, _to_complex(c)) for (i, j), c in poly._terms.items())
                     for poly in coefficients)
    return rows, any(cmath.isinf(c) for row in rows for _, _, c in row)


def _powers(v: complex, n: int) -> list[complex]:
    # v**0, ..., v**n, each computed as Polynomial.eval_complex does; a
    # power past double range becomes inf+infj
    out = []
    for e in range(n + 1):
        try:
            out.append(v ** e)
        except OverflowError:
            warnings.warn("evaluation overflowed double precision, using inf",
                          RuntimeWarning, stacklevel=2)
            out.append(complex(cmath.inf, cmath.inf))
    return out


def pn_roots(x: complex, y: complex, n: int) -> list[complex]:
    """Numeric z-roots of p_n(. ; x, y) via the companion matrix.

    Each coefficient is summed term by term in the builder's order, with
    the products Polynomial.eval_complex takes, so the bits are its bits.
    """
    import numpy as np
    rows, past_double = _pn_z_rows(n)
    if past_double:
        warnings.warn("coefficient overflowed double precision, using inf",
                      RuntimeWarning)
    xs, ys = _powers(complex(x), n), _powers(complex(y), n)
    desc = []
    for row in rows:
        total = 0j
        for i, j, c in row:
            if i:
                c *= xs[i]
            if j:
                c *= ys[j]
            total += c
        desc.append(total)
    if not all(cmath.isfinite(c) for c in desc):
        raise RootFindingFailure("polynomial coefficients are not finite")
    try:
        roots = np.roots(np.asarray(desc, dtype=complex))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - conditioning
        raise RootFindingFailure(str(exc)) from exc
    if not np.all(np.isfinite(roots)):
        raise RootFindingFailure("non-finite roots returned")
    return [complex(r) for r in roots]


def roots_match_pn(x: complex, y: complex, n: int, tol: float) -> bool:
    """True iff the z-roots of p_n(.; x, y) equal inv(x)*inv(y) as multisets."""
    target = mul_n(inv(x, n), inv(y, n), n)
    return eq_multiset(pn_roots(x, y, n), target, tol)


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
