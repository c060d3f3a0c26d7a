"""Exact construction of the n-valued multiplication polynomials p_n(z; x, y).

p_n is the monic degree-n polynomial in z whose roots are the n-multiset
product of (-1)^n x and (-1)^n y under the n-valued multiplication

    x * y = [ (x^(1/n) + eps^r y^(1/n))^n,  1 <= r <= n ],

eps a primitive n-th root of unity.  Two independent algorithms are
provided and must agree exactly:

* ``build_pn_cyclo`` expands the defining product symbolically inside the
  cyclotomic quotient ring Z[t]/Phi_n(t), where eps is represented by t.
  The product is Galois-invariant, so every t-power above t^0 cancels;
  the surviving constant is a polynomial in u, v, z with u^n, v^n standing
  for (-1)^n x, (-1)^n y.
* ``build_pn_newton_identities`` computes the power sums of the n roots
  in closed form and converts them to elementary symmetric functions via
  Newton's identities on integer coefficient rows, dividing exactly.

Working modulo Phi_n rather than t^n - 1 is essential: modulo t^n - 1 the
product keeps contributions from every divisor of n and is not constant
in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .polyring import NonIntegralCoefficient, Polynomial

_UVZ = ("u", "v", "z")
_XYZ = ("x", "y", "z")
_XY = ("x", "y")


class NonConstantInT(ArithmeticError):
    """The cyclotomic product kept a residual t-dependence (internal bug)."""


@dataclass(frozen=True)
class CyclotomicPoly:
    """Phi_n as an ascending integer coefficient tuple; always monic."""

    n: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _exact_div(num: list[int], den: tuple[int, ...]) -> list[int]:
    # univariate division by a monic divisor; remainder must vanish
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        q = num[i + dd]
        out[i] = q
        if q:
            for j, c in enumerate(den):
                num[i + j] -= q * c
    if any(num[:dd]):
        raise RuntimeError(f"inexact cyclotomic division, remainder {num[:dd]}")
    return out


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> CyclotomicPoly:
    """n-th cyclotomic polynomial by exact division of t^n - 1."""
    if n < 1:
        raise ValueError("order must be >= 1")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _exact_div(num, cyclotomic(d).coeffs)
    return CyclotomicPoly(n, tuple(num))


@lru_cache(maxsize=None)
def _t_power_rows(n: int, upto: int) -> tuple[tuple[int, ...], ...]:
    """Integer vectors expressing t^m mod Phi_n for m = 0..upto."""
    phi = cyclotomic(n)
    deg = phi.degree
    # t^deg = -(c_0 + c_1 t + ... + c_{deg-1} t^{deg-1})
    top = tuple(-c for c in phi.coeffs[:deg])
    rows = [tuple(1 if i == m else 0 for i in range(deg)) for m in range(min(deg, upto + 1))]
    for m in range(deg, upto + 1):
        prev = rows[m - 1]
        shifted = [0] + list(prev[:deg - 1])
        carry = prev[deg - 1]
        if carry:
            for i in range(deg):
                shifted[i] += carry * top[i]
        rows.append(tuple(shifted))
    return tuple(rows)


class CycloElement:
    """Residue class in Z[t]/Phi_n with Polynomial coefficients in (u, v, z)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs):
        deg = cyclotomic(n).degree
        coeffs = tuple(coeffs)
        if len(coeffs) != deg:
            raise ValueError(f"expected {deg} components, got {len(coeffs)}")
        self.n = n
        self.coeffs = coeffs

    @classmethod
    def one(cls, n: int) -> "CycloElement":
        deg = cyclotomic(n).degree
        comps = [Polynomial.one(_UVZ)] + [Polynomial.zero(_UVZ)] * (deg - 1)
        return cls(n, comps)

    def __mul__(self, other: "CycloElement") -> "CycloElement":
        deg = cyclotomic(self.n).degree
        conv: list[Polynomial | None] = [None] * (2 * deg - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                p = a * b
                conv[i + j] = p if conv[i + j] is None else conv[i + j] + p
        rows = _t_power_rows(self.n, 2 * deg - 2)
        out: list[Polynomial | None] = [None] * deg
        for m, cm in enumerate(conv):
            if cm is None or not cm:
                continue
            for i, r in enumerate(rows[m]):
                if r:
                    scaled = cm * r
                    out[i] = scaled if out[i] is None else out[i] + scaled
        zero = Polynomial.zero(_UVZ)
        return CycloElement(self.n, [c if c is not None else zero for c in out])


def _root_power_factor(n: int, k: int) -> CycloElement:
    """The factor z - (u + t^k v)^n as a CycloElement."""
    deg = cyclotomic(n).degree
    rows = _t_power_rows(n, n * n)
    comps: list[dict] = [{} for _ in range(deg)]
    for j in range(n + 1):
        b = math.comb(n, j)
        e = (n - j, j, 0)
        for i, r in enumerate(rows[k * j]):
            if r:
                c = comps[i].get(e, 0) - b * r
                if c:
                    comps[i][e] = c
                else:
                    comps[i].pop(e, None)
    z = (0, 0, 1)
    comps[0][z] = comps[0].get(z, 0) + 1
    return CycloElement(n, [Polynomial._raw(_UVZ, d) for d in comps])


def _extract_constant(elem: CycloElement) -> Polynomial:
    """Constant component of a t-free element; error if t survives."""
    for i, c in enumerate(elem.coeffs[1:], start=1):
        if c:
            raise NonConstantInT(f"component t^{i} is nonzero: {c}")
    return elem.coeffs[0]


@lru_cache(maxsize=None)
def build_pn_cyclo(n: int) -> Polynomial:
    """p_n(z; x, y) by the symbolic product over all root-of-unity shifts.

    Works over (u, v, z) with u^n = (-1)^n x and v^n = (-1)^n y; after the
    product collapses to the t-constant component, exponents of u and v are
    divided by n and the (-1)^n sign is folded into the coefficients.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    prod = CycloElement.one(n)
    for k in range(1, n + 1):
        prod = prod * _root_power_factor(n, k)
    const = _extract_constant(prod)
    q = const.exponent_divide("u", n).exponent_divide("v", n)
    if n % 2:
        q = q.map_terms(lambda e, c: -c if (e[0] + e[1]) % 2 else c)
    return q.rename_vars({"u": "x", "v": "y"})


def power_sum(n: int, m: int) -> Polynomial:
    """Sum of the m-th powers of the n roots (u + eps^k v)^n, in x and y.

    Expanding (u + eps^k v)^{nm} and summing over k kills every binomial
    term whose v-exponent is not a multiple of n, leaving the closed form

        P_m = (-1)^{nm} * n * sum_{i=0..m} C(nm, ni) x^{m-i} y^i.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    sign = -1 if (n * m) % 2 else 1
    terms = {}
    for i in range(m + 1):
        terms[(m - i, i)] = sign * n * math.comb(n * m, n * i)
    return Polynomial._raw(_XY, terms)


@lru_cache(maxsize=None)
def build_pn_newton_identities(n: int) -> Polynomial:
    """p_n(z; x, y) via power sums and Newton's identities.

    Every e_k of the n roots is homogeneous of degree k in (x, y), so it is
    kept as the k+1 integers of x^(k-i) y^i.  It satisfies
    k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} P_i; the division by k is exact
    and raises NonIntegralCoefficient otherwise.
    p_n = sum_k (-1)^k e_k z^(n-k).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    # P_m has all m+1 terms; lex-descending order lists x^(m-i) y^i by rising i
    psums = [None] + [[c for _, c in power_sum(n, m).sorted_terms()]
                      for m in range(1, n + 1)]
    elem = [[1]]
    for k in range(1, n + 1):
        acc = [0] * (k + 1)
        for i in range(1, k + 1):
            sign = 1 if i % 2 else -1
            for a, ca in enumerate(elem[k - i]):
                ca *= sign
                for b, cb in enumerate(psums[i]):
                    acc[a + b] += ca * cb
        row = []
        for i, c in enumerate(acc):
            q, r = divmod(c, k)
            if r:
                raise NonIntegralCoefficient(
                    f"e_{k} coefficient {c} of x^{k - i} y^{i} is not divisible by {k}")
            row.append(q)
        elem.append(row)
    terms = {}
    for k, row in enumerate(elem):
        for i, c in enumerate(row):
            if c:
                terms[(k - i, i, n - k)] = -c if k % 2 else c
    return Polynomial._raw(_XYZ, terms)


def build_pn(n: int) -> Polynomial:
    """Default construction of p_n (the fast power-sum route)."""
    return build_pn_newton_identities(n)


def restrict_y0(n: int) -> Polynomial:
    """p_n(z; x, 0) over (x, z); equals (z - (-1)^n x)^n."""
    return build_pn(n).substitute_zero("y")


__all__ = [
    "CycloElement",
    "CyclotomicPoly",
    "NonConstantInT",
    "NonIntegralCoefficient",
    "build_pn",
    "build_pn_cyclo",
    "build_pn_newton_identities",
    "cyclotomic",
    "power_sum",
    "restrict_y0",
]
