"""Decomposition of symmetric polynomials over the elementary-symmetric basis.

A symmetric homogeneous polynomial of degree n in three variables is a
unique integer combination of monomials e1^(k1-k2) e2^(k2-k3) e3^k3
indexed by partitions k1 >= k2 >= k3 >= 0 of n.  ``decompose`` finds the
coefficients by leading-term elimination; ``recompose`` is its exact
inverse and serves as the round-trip oracle.
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


@lru_cache(maxsize=None)
def _e_power(vars: tuple[str, ...], k: int, exp: int) -> Polynomial:
    return elementary(vars, k) ** exp


def _e_monomial(vars: tuple[str, ...], powers: tuple[int, ...]) -> Polynomial:
    prod = Polynomial.one(vars)
    for k, exp in enumerate(powers, start=1):
        if exp:
            prod = prod * _e_power(vars, k, exp)
    return prod


def _decompose_exponents(f: Polynomial) -> dict[tuple[int, ...], int]:
    """Leading-term elimination, generic in the variable count.

    Returns partition tuples (the lex-leading exponents) mapped to their
    coefficients.  The leading exponent of a symmetric polynomial is
    weakly decreasing, and each elimination step strictly lowers it, so
    the loop terminates.
    """
    vars = f.vars
    m = len(vars)
    coeffs: dict[tuple[int, ...], int] = {}
    work = f
    while work:
        exps, c = work.leading()
        if any(exps[i] < exps[i + 1] for i in range(m - 1)):
            raise NotSymmetric(f"leading exponent {exps} is not weakly decreasing")
        powers = tuple(exps[i] - (exps[i + 1] if i + 1 < m else 0) for i in range(m))
        coeffs[exps] = c
        work = work - _e_monomial(vars, powers) * c
    return coeffs


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

    Validates symmetry and homogeneity up front; recompose(decompose(f))
    equals f exactly.
    """
    if len(f.vars) != 3:
        raise ValueError(f"expected 3 variables, got {f.vars}")
    if f and f.homogeneous_degree() is None:
        raise NotHomogeneous(f"terms of {f!r} have mixed total degree")
    if not f.is_symmetric():
        raise NotSymmetric("polynomial is not symmetric in its variables")
    n = f.homogeneous_degree() or 0
    return EBasisPolynomial(n, _decompose_exponents(f))


def recompose(g: EBasisPolynomial, vars=("x", "y", "z")) -> Polynomial:
    """Expand an e-basis combination back into the monomial basis."""
    vars = tuple(vars)
    acc = Polynomial.zero(vars)
    for (k1, k2, k3), a in g.sorted_items():
        acc = acc + _e_monomial(vars, (k1 - k2, k2 - k3, k3)) * a
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
    "recompose",
    "verify_proposition",
]
