"""Decomposition of symmetric polynomials over the elementary-symmetric basis.

A symmetric homogeneous polynomial of degree n in three variables is a
unique integer combination of monomials e1^(k1-k2) e2^(k2-k3) e3^k3
indexed by partitions k1 >= k2 >= k3 >= 0 of n.  ``decompose_table`` takes
its coefficients at those partitions, rewrites it in s = x + y, p = xy and
z, where e1 = s + z, e2 = p + zs and e3 = zp, and peels one power of e3 at
a time with binomial coefficients only; ``recompose`` is its exact inverse
on full ``Polynomial`` arithmetic and the independent oracle.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .polyring import Polynomial, format_terms, half_row_to_sp


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
    checks its arity, homogeneity and symmetry, then decomposes its terms at
    sorted exponents as a table.  recompose(decompose(f)) equals f exactly."""
    if len(f.vars) != 3:
        raise ValueError(f"expected 3 variables, got {f.vars}")
    n = f.homogeneous_degree()
    if f and n is None:
        raise NotHomogeneous(f"terms of {f!r} have mixed total degree")
    if not f.is_symmetric():
        raise NotSymmetric("polynomial is not symmetric in its variables")
    return decompose_table(n or 0, {e: c for e, c in f._terms.items() if e[0] >= e[1] >= e[2]})


def decompose_table(n: int, table: dict[tuple[int, int, int], int]) -> EBasisPolynomial:
    """The e-basis form of the symmetric polynomial of degree n with
    ``table``'s coefficients at the partitions of n, zero where absent.

    Writes the polynomial in s = x + y, p = xy and z: the coefficient of
    z^j is a symmetric binary form of degree d = n - j, whose coefficient
    at s^(d-2b) p^b is solved from the coefficients at x^(d-i) y^i z^j,
    i <= d/2, as s^a p^b puts C(a, i-b) there.  Since e1 = s + z,
    e2 = p + zs and e3 = zp, the z-free terms c s^a p^b are the e3^k3
    layer of the answer, A at (a+b+k3, b+k3, k3); subtracting
    c (s + z)^a (p + zs)^b leaves a multiple of zp, which is divided out
    before the next layer.

    Layer k3 reads only the z^0 row left after k3 divisions by zp, that
    is the z^k3 row less what earlier layers subtracted from it, and the
    last layer is n // 3.  So only the rows j <= n // 3 are written in
    s, p, and layer k3 skips every update that lands above z^(n//3 - k3).
    A key that is no partition of n raises InvalidPartition.
    """
    for key in table:
        _check_partition(key, n)
    top = n // 3
    # rows[j][b]: coefficient of s^a p^b z^j, a = n - 3 k3 - j - 2b at layer k3
    rows = []
    for j in range(top + 1):
        d = n - j
        # as j <= n/3 and i <= d/2, x^(d-i) y^i z^j sorts to (d - i, max(i, j), min(i, j))
        half = [table.get((d - i, max(i, j), min(i, j)), 0) for i in range(d // 2 + 1)]
        rows.append(half_row_to_sp(half, d))
    coeffs = {}
    for k3 in range(top + 1):
        left = top - k3
        for b, c in enumerate(rows[0]):
            if not c:
                continue
            a = n - 3 * k3 - 2 * b
            coeffs[a + b + k3, b + k3, k3] = c
            comb_b = [math.comb(b, l) for l in range(min(b, left) + 1)]
            for i in range(min(a, left) + 1):
                ci = c * math.comb(a, i)
                for l in range(min(b, left - i) + 1):
                    rows[i + l][b - l] -= ci * comb_b[l]
        # what is left is a multiple of zp: drop row z^0 and column p^0
        rows = [row[1:] for row in rows[1:]]
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
    "decompose_table",
    "elementary",
    "partitions3",
    "recompose",
]
