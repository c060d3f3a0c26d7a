"""Decomposition of symmetric polynomials over the elementary-symmetric basis.

A symmetric homogeneous polynomial of degree n in three variables is a
unique integer combination of monomials e1^(k1-k2) e2^(k2-k3) e3^k3
indexed by partitions k1 >= k2 >= k3 >= 0 of n.  ``decompose_rows`` takes
its z-rows in s = x + y and p = xy, where e1 = s + z, e2 = p + zs and
e3 = zp, and peels them from z^n down with binomial coefficients only:
the leading z-term of each basis monomial is one entry of one row.
``decompose`` checks a full ``Polynomial`` and hands it to that peel;
``recompose`` is its exact inverse on full ``Polynomial`` arithmetic and
the independent oracle.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .polyring import Polynomial, format_terms, half_row_to_sp, pascal_rows


class NotSymmetric(ValueError):
    """Input is not invariant under variable permutations."""


class NotHomogeneous(ValueError):
    """Input terms do not share a common total degree."""


class InvalidPartition(ValueError):
    """Key is not a weakly decreasing partition of the degree."""


def elementary(vars: tuple[str, ...], k: int) -> Polynomial:
    """k-th elementary symmetric polynomial over the given variables."""
    m = len(vars)
    if not 1 <= k <= m:
        raise ValueError(f"k must be in 1..{m}")
    terms = {}
    for picks in itertools.combinations(range(m), k):
        exps = tuple(1 if i in picks else 0 for i in range(m))
        terms[exps] = 1
    return Polynomial._raw(vars, terms)


def partitions3(n: int) -> list[tuple[int, int, int]]:
    """All partitions of n into at most 3 parts, descending."""
    return [(k1, k2, n - k1 - k2)
            for k1 in range(n, (n + 2) // 3 - 1, -1)
            for k2 in range(min(k1, n - k1), (n - k1 + 1) // 2 - 1, -1)]


class EBasisPolynomial(namedtuple("EBasisPolynomial", "n coeffs")):
    """Integer coefficients A_{k1,k2,k3} on the elementary-symmetric basis.

    Each key (k1, k2, k3) with k1 >= k2 >= k3 >= 0 and k1+k2+k3 = n stands
    for the basis monomial e1^(k1-k2) e2^(k2-k3) e3^k3; ``coeffs`` maps
    keys to nonzero integers.
    """

    __slots__ = ()

    def __new__(cls, n: int, coeffs: dict[tuple[int, int, int], int]):
        for key, a in coeffs.items():
            _check_partition(key, n)
            if a == 0:
                raise ValueError(f"stored coefficient at {key} is zero")
        return super().__new__(cls, n, coeffs)

    def coefficient(self, k1: int, k2: int, k3: int) -> int:
        """A_{k1,k2,k3}; zero when the partition is absent."""
        _check_partition((k1, k2, k3), self.n)
        return self.coeffs.get((k1, k2, k3), 0)

    def sorted_items(self) -> list[tuple[tuple[int, int, int], int]]:
        """Partitions in descending order with their coefficients."""
        return sorted(self.coeffs.items(), key=lambda kv: kv[0], reverse=True)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"k": list(k), "A": str(a)} for k, a in self.sorted_items()],
        }

    def text(self, fmt=str) -> str:
        """Table-style rendering, e.g. 'e1^2 - 4 e2'; ``fmt`` renders each |A|."""
        # rising powers of e3, then of e2
        items = sorted(self.coeffs.items(), key=lambda kv: (kv[0][2], kv[0][1]))
        terms = (((k1 - k2, k2 - k3, k3), a) for (k1, k2, k3), a in items)
        return format_terms(("e1", "e2", "e3"), terms, " ", fmt)

    def __str__(self) -> str:
        return self.text()


def _check_partition(key, n: int) -> None:
    if len(key) != 3:
        raise InvalidPartition(f"{key} is not a triple")
    k1, k2, k3 = key
    if not (k1 >= k2 >= k3 >= 0):
        raise InvalidPartition(f"{key} is not weakly decreasing")
    if k1 + k2 + k3 != n:
        raise InvalidPartition(f"{key} does not sum to {n}")


def decompose(f: Polynomial) -> EBasisPolynomial:
    """Express a symmetric homogeneous 3-variable polynomial in the e-basis:
    checks its arity, homogeneity and symmetry, then peels its z-rows j >= n/3
    written in s, p.  recompose(decompose(f)) equals f exactly."""
    if len(f.vars) != 3:
        raise ValueError(f"expected 3 variables, got {f.vars}")
    n = f.homogeneous_degree()
    if f and n is None:
        raise NotHomogeneous(f"terms of {f!r} have mixed total degree")
    if not f.is_symmetric():
        raise NotSymmetric("polynomial is not symmetric in its variables")
    n = n or 0
    pascal = pascal_rows(n - (n + 2) // 3)
    # row d is the z^(n-d) coefficient; its half row is the x^(d-i) y^i, i <= d/2
    return decompose_rows(n, [half_row_to_sp([f._terms.get((d - i, i, n - d), 0)
                                              for i in range(d // 2 + 1)], d, pascal)
                              for d in range(n - (n + 2) // 3 + 1)])


def decompose_rows(n: int, rows) -> EBasisPolynomial:
    """The e-basis form of the symmetric polynomial of degree n whose
    z^(n-d) coefficient has the entries rows[d] at s^(d-2b) p^b,
    s = x + y and p = xy, for d = 0..n - ceil(n/3).

    These rows hold every monomial with its largest exponent on z, and
    besides those the x^(d-i) y^i z^(n-d) with d - i > n - d and their
    x, y mirrors.  So they are symmetric exactly when each of the latter
    equals its x <-> z image, entry i of row n - d + i; else NotSymmetric.

    e1^a e2^m e3^g = (s + z)^a (p + zs)^m (zp)^g leads in z with
    z^(a+m+g) s^m p^g.  So row z^j, d = n - j, read after every basis
    monomial with k1 > j is subtracted, holds at s^(d-2b) p^b, b >= 2d - n,
    the coefficient A at (j, d - b, b): m = d - 2b, g = b, a = 2j - n + b.
    Subtracting c e1^a e2^m e3^g puts -c C(a, i) C(m, l) at
    z^(i+l+g) s^(a-i+l) p^(m-l+g), written only where that leads a
    monomial: l >= j - g - 2i and i + l + g >= n/3, as k1 >= n/3.
    """
    low = (n + 2) // 3
    rows = [list(row) for row in rows[:n - low + 1]]
    pascal = pascal_rows(n)
    for d in range(n // 2 + 1, n - low + 1):
        for i in range(2 * d - n):
            # entry i of row d's half row is the sum over b <= i of rows[d][b] C(d-2b, i-b)
            e, diff = n - d + i, 0
            for b in range(i + 1):
                diff += (rows[d][b] * pascal[d - 2 * b][i - b]
                         - rows[e][b] * pascal[e - 2 * b][i - b])
            if diff:
                raise NotSymmetric(f"x^{d - i} y^{i} z^{n - d} differs from its x <-> z image")
    coeffs = {}
    for j in range(n, low - 1, -1):
        d = n - j
        row = rows[d]
        for b in range(2 * d - n if 2 * d > n else 0, len(row)):
            c = row[b]
            if not c:
                continue
            a, m = 2 * j - n + b, d - 2 * b
            coeffs[j, d - b, b] = c
            comb_m = [c * x for x in pascal[m]]
            comb_a = pascal[a]
            # the term at z^(i+l+b) is row n - i - l - b, column m - l + b; it
            # leads a monomial from l = lead - 2i on, and is kept from l = edge - i
            lead, edge = j - b, low - b
            for i in range((a + 1) // 2, a + 1):
                ci = comb_a[i]
                l0 = lead - 2 * i if lead - i > edge else edge - i
                if l0 < 0:
                    l0 = 0
                r, k = n - i - b - l0, m + b - l0
                for cm in comb_m[l0:]:
                    rows[r][k] -= ci * cm
                    r -= 1
                    k -= 1
    return EBasisPolynomial(n, coeffs)


def recompose(g: EBasisPolynomial, vars=("x", "y", "z")) -> Polynomial:
    """Expand an e-basis combination back into the monomial basis."""
    vars = tuple(vars)
    e1, e2, e3 = (elementary(vars, k) for k in (1, 2, 3))
    acc = Polynomial(vars)
    for (k1, k2, k3), a in g.sorted_items():
        acc = acc + e1 ** (k1 - k2) * e2 ** (k2 - k3) * e3 ** k3 * a
    return acc


__all__ = [
    "EBasisPolynomial",
    "InvalidPartition",
    "NotHomogeneous",
    "NotSymmetric",
    "decompose",
    "decompose_rows",
    "elementary",
    "partitions3",
    "recompose",
]
