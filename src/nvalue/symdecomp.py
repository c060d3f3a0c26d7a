"""Decomposition of symmetric polynomials over the elementary-symmetric basis.

A symmetric homogeneous polynomial of degree n in three variables is a
unique integer combination of monomials e1^(k1-k2) e2^(k2-k3) e3^k3
indexed by partitions k1 >= k2 >= k3 >= 0 of n.  Symmetry fixes such a
polynomial by its coefficients at those partition exponents, so
``decompose`` eliminates on that grid alone; ``recompose`` is its exact
inverse on full ``Polynomial`` arithmetic and the independent oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

from .construct import build_pn
from .polyring import Polynomial, format_terms


class NotSymmetric(ValueError):
    """Input is not invariant under variable permutations."""


class NotHomogeneous(ValueError):
    """Input terms do not share a common total degree."""


class InvalidPartition(ValueError):
    """Key is not a weakly decreasing partition of the degree."""


@lru_cache(maxsize=None)
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


# exponents of the monomials of e1 and of e2 in (x, y, z)
_E1_PICKS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_E2_PICKS = ((1, 1, 0), (1, 0, 1), (0, 1, 1))


@lru_cache(maxsize=None)
def _e1e2_power(a: int, b: int) -> dict[tuple[int, int, int], int]:
    """Coefficients of e1^a e2^b at its partition exponents (read-only).

    One multiplication of e1^(a-1) e2^b by e1, or of e2^(b-1) by e2 when
    a = 0: the coefficient at a partition λ sums the predecessor's at
    λ minus each monomial of e_k.  That difference is put back in
    descending order by three compare-and-swaps, and skipped when a part
    is negative.
    """
    if a == b == 0:
        return {(0, 0, 0): 1}
    if a:
        prev, picks = _e1e2_power(a - 1, b), _E1_PICKS
    else:
        prev, picks = _e1e2_power(0, b - 1), _E2_PICKS
    out = {}
    for lam in partitions3(a + 2 * b):
        l1, l2, l3 = lam
        c = 0
        for p1, p2, p3 in picks:
            m1, m2, m3 = l1 - p1, l2 - p2, l3 - p3
            if m1 < m2:
                m1, m2 = m2, m1
            if m2 < m3:
                m2, m3 = m3, m2
                if m1 < m2:
                    m1, m2 = m2, m1
            if m3 >= 0:
                c += prev.get((m1, m2, m3), 0)
        if c:
            out[lam] = c
    return out


@dataclass(frozen=True)
class EBasisPolynomial:
    """Integer coefficients A_{k1,k2,k3} on the elementary-symmetric basis.

    Each key (k1, k2, k3) with k1 >= k2 >= k3 >= 0 and k1+k2+k3 = n stands
    for the basis monomial e1^(k1-k2) e2^(k2-k3) e3^k3.
    """

    n: int
    coeffs: dict[tuple[int, int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        for key, a in self.coeffs.items():
            _check_partition(key, self.n)
            if a == 0:
                raise ValueError(f"stored coefficient at {key} is zero")

    def coefficient(self, k1: int, k2: int, k3: int) -> int:
        """A_{k1,k2,k3}; zero when the partition is absent."""
        _check_partition((k1, k2, k3), self.n)
        return self.coeffs.get((k1, k2, k3), 0)

    def sorted_items(self) -> list[tuple[tuple[int, int, int], int]]:
        """Partitions in descending order with their coefficients."""
        return sorted(self.coeffs.items(), key=lambda kv: kv[0], reverse=True)

    def table_order_items(self) -> list[tuple[tuple[int, int, int], int]]:
        """Terms ordered by rising powers of e2 then e3 (table style)."""
        return sorted(self.coeffs.items(), key=lambda kv: (kv[0][2], kv[0][1]))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [{"k": list(k), "A": str(a)} for k, a in self.sorted_items()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "EBasisPolynomial":
        coeffs = {tuple(t["k"]): int(t["A"]) for t in data["terms"]}
        return cls(int(data["n"]), coeffs)

    def text(self, fmt=str) -> str:
        """Table-style rendering, e.g. 'e1^2 - 4 e2'; ``fmt`` renders each |A|."""
        terms = (((k1 - k2, k2 - k3, k3), a)
                 for (k1, k2, k3), a in self.table_order_items())
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
    """Express a symmetric homogeneous 3-variable polynomial in the e-basis.

    Validates symmetry and homogeneity up front, then eliminates on the
    partitions of n in descending order: the coefficient left at each is
    A_{k1,k2,k3}, and that multiple of e1^(k1-k2) e2^(k2-k3) e3^k3, whose
    leading exponent is the partition itself, is subtracted from the later
    ones.  e3^k3 shifts the grid by (k3, k3, k3).
    recompose(decompose(f)) equals f exactly.
    """
    if len(f.vars) != 3:
        raise ValueError(f"expected 3 variables, got {f.vars}")
    if f and f.homogeneous_degree() is None:
        raise NotHomogeneous(f"terms of {f!r} have mixed total degree")
    if not f.is_symmetric():
        raise NotSymmetric("polynomial is not symmetric in its variables")
    n = f.homogeneous_degree() or 0
    grid = partitions3(n)
    work = {lam: f.coefficient(lam) for lam in grid}
    coeffs = {}
    for k1, k2, k3 in grid:
        c = work[k1, k2, k3]
        if not c:
            continue
        coeffs[k1, k2, k3] = c
        for (m1, m2, m3), v in _e1e2_power(k1 - k2, k2 - k3).items():
            work[m1 + k3, m2 + k3, m3 + k3] -= c * v
    return EBasisPolynomial(n, coeffs)


def recompose(g: EBasisPolynomial, vars=("x", "y", "z")) -> Polynomial:
    """Expand an e-basis combination back into the monomial basis."""
    vars = tuple(vars)
    e1, e2, e3 = (elementary(vars, k) for k in (1, 2, 3))
    acc = Polynomial.zero(vars)
    for (k1, k2, k3), a in g.sorted_items():
        acc = acc + e1 ** (k1 - k2) * e2 ** (k2 - k3) * e3 ** k3 * a
    return acc


@dataclass(frozen=True)
class PropositionCheck:
    partition: tuple[int, int, int]
    expected: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class PropositionReport:
    """Closed-form check of the e3-free coefficients of p_n."""

    n: int
    checks: tuple[PropositionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_proposition(n: int) -> PropositionReport:
    """Check the e3-free coefficients of p_n against their closed form.

    Odd n: every A_{k1,k2,0} with k2 > 0 vanishes (the y=0 restriction is
    a pure power of x+z).  Even n = 2k: A_{2k-i,i,0} = (-4)^i C(k,i) for
    i = 1..k, from expanding (z-x)^n = ((x+z)^2 - 4xz)^k.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = decompose(build_pn(n))
    checks = []
    if n % 2:
        for k2 in range(1, n // 2 + 1):
            checks.append(PropositionCheck((n - k2, k2, 0), 0,
                                           g.coefficient(n - k2, k2, 0)))
    else:
        k = n // 2
        for i in range(1, k + 1):
            expected = (-4) ** i * math.comb(k, i)
            checks.append(PropositionCheck((2 * k - i, i, 0), expected,
                                           g.coefficient(2 * k - i, i, 0)))
    return PropositionReport(n, tuple(checks))


__all__ = [
    "EBasisPolynomial",
    "InvalidPartition",
    "NotHomogeneous",
    "NotSymmetric",
    "PropositionCheck",
    "PropositionReport",
    "decompose",
    "elementary",
    "partitions3",
    "recompose",
    "verify_proposition",
]
