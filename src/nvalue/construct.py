"""Exact construction of the n-valued multiplication polynomials p_n(z; x, y).

p_n is the monic degree-n polynomial in z whose roots are the n-multiset
product of (-1)^n x and (-1)^n y under the n-valued multiplication

    x * y = [ (x^(1/n) + eps^r y^(1/n))^n,  1 <= r <= n ],

eps a primitive n-th root of unity.  Two independent algorithms are
provided and must agree exactly:

* ``build_pn_cyclo`` expands the defining product symbolically inside the
  cyclotomic quotient ring Z[t]/Phi_n(t), where eps is represented by t.
  An element is a plain list of its deg Phi_n components, Polynomials in
  u, v, z; a power t^m is reduced through one table of n rows, read at
  m % n, since Phi_n divides t^n - 1 and so t^n = 1.
  The product is Galois-invariant, so every t-power above t^0 cancels;
  the surviving constant is a polynomial in u, v, z with u^n, v^n standing
  for (-1)^n x, (-1)^n y.
* ``pn_rows``, the default, computes the power sums of the n roots
  in closed form and converts them to elementary symmetric functions via
  Newton's identities, dividing exactly.  Each e_k is a symmetric binary
  form, kept as its integer row in s = x + y and p = xy, where a product
  is a plain full convolution that needs no truncation or mirroring.
  Row k is p_n's z^(n-k) coefficient (-1)^k e_k, and the rows stop at
  k = floor(2n/3): the e-basis peel reads no row past there, and every
  coefficient of p_n at a partition k1 >= k2 >= k3 of n sits in one.
  ``pn_rows`` is the exact layer's one cache of p_n, and the rows are one of
  its two exact forms; ``build_pn`` reads them at the partitions of n and
  expands them into the other, the full polynomial.

Working modulo Phi_n rather than t^n - 1 is essential: modulo t^n - 1 the
product keeps contributions from every divisor of n and is not constant
in t.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations

from .polyring import Polynomial, half_row_to_sp, pascal_rows, sp_to_half_row

_UVZ = ("u", "v", "z")
_XYZ = ("x", "y", "z")


class NonConstantInT(ArithmeticError):
    """The cyclotomic product kept a residual t-dependence (internal bug)."""


class NonIntegralCoefficient(ValueError):
    """An exact integer division left a remainder."""


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


def cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n as its ascending, monic integer coefficient tuple, by exact
    division of t^n - 1."""
    if n < 1:
        raise ValueError("order must be >= 1")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _exact_div(num, cyclotomic(d))
    return tuple(num)


def _t_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row m holds the integer components of t^m mod Phi_n, m = 0..n-1.

    Phi_n divides t^n - 1, so t^m = t^(m % n) and these n rows serve
    every power.
    """
    phi = cyclotomic(n)
    deg = len(phi) - 1
    rows = [tuple(int(i == m) for i in range(deg)) for m in range(deg)]
    for _ in range(deg, n):
        # t times the last row, with t^deg = -(phi_0 + ... + phi_(deg-1) t^(deg-1))
        prev = rows[-1]
        rows.append(tuple(s - prev[-1] * c for s, c in zip((0,) + prev[:-1], phi)))
    return tuple(rows)


def _reduce(conv: list[Polynomial], rows) -> list[Polynomial]:
    """Components t^0..t^(deg-1) of sum conv[m] t^m mod Phi_n; rows = _t_rows(n)."""
    n = len(rows)
    out = [Polynomial(_UVZ)] * len(rows[0])
    for m, cm in enumerate(conv):
        if cm:
            for i, r in enumerate(rows[m % n]):
                if r:
                    out[i] = out[i] + cm * r
    return out


def build_pn_cyclo(n: int) -> Polynomial:
    """p_n(z; x, y) by the symbolic product over all root-of-unity shifts.

    An element of Z[t]/Phi_n is the list of its deg Phi_n components,
    Polynomials over (u, v, z), and the factors z - (u + t^k v)^n,
    k = 1..n, are multiplied in one at a time.  The product must be its
    t^0 component, with every exponent of u and v a multiple of n, or
    NonConstantInT is raised; u^(ni) v^(nj) is then (-1)^(n(i+j)) x^i y^j.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rows = _t_rows(n)
    prod = [Polynomial.constant(1, _UVZ)]
    for k in range(1, n + 1):
        # z - (u + t^k v)^n = z - sum_j C(n, j) u^(n-j) v^j t^(kj)
        comps = [{} for _ in range(n)]
        comps[0][(0, 0, 1)] = 1
        for j in range(n + 1):
            comps[k * j % n][(n - j, j, 0)] = -math.comb(n, j)
        factor = _reduce([Polynomial._raw(_UVZ, d) for d in comps], rows)
        conv = [Polynomial(_UVZ)] * (len(prod) + len(factor) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(factor):
                if a and b:
                    conv[i + j] = conv[i + j] + a * b
        prod = _reduce(conv, rows)
    for i, c in enumerate(prod[1:], start=1):
        if c:
            raise NonConstantInT(f"component t^{i} is nonzero: {c}")
    terms = {}
    for (a, b, c), coeff in prod[0]._terms.items():
        (i, ra), (j, rb) = divmod(a, n), divmod(b, n)
        if ra or rb:
            raise NonConstantInT(f"u^{a} v^{b} is not a power of u^n, v^n")
        terms[(i, j, c)] = -coeff if n % 2 and (i + j) % 2 else coeff
    return Polynomial._raw(_XYZ, terms)


def _power_sum_halves(n: int, top: int) -> list[list[int]]:
    """Entries i = 0..floor(m/2) of P_m, the coefficients of x^(m-i) y^i, for m = 1..top.

    P_m is the sum of the m-th powers of the n roots (u + eps^k v)^n, in x
    and y.  Expanding (u + eps^k v)^{nm} and summing over k kills every
    binomial term whose v-exponent is not a multiple of n, leaving the
    closed form

        P_m = (-1)^{nm} * n * sum_{i=0..m} C(nm, ni) x^{m-i} y^i,

    symmetric in x and y as C(nm, ni) = C(nm, n(m-i)).
    """
    # C(nm, n(i+1)) = C(nm, ni) * perm(n(m-i), n) / perm(n(i+1), n), exactly,
    # with perms[q] = perm(nq, n) shared by every m
    perms = [math.perm(n * q, n) for q in range(top + 1)]
    halves = []
    for m in range(1, top + 1):
        half = [-n if (n * m) % 2 else n]
        for i in range(m // 2):
            half.append(half[-1] * perms[m - i] // perms[i + 1])
        halves.append(half)
    return halves


@lru_cache(maxsize=None)
def pn_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows k = 0..floor(2n/3) of p_n in s = x + y and p = xy, by Newton's
    identities: row k holds (-1)^k e_k, p_n's z^(n-k) coefficient, at
    s^(k-2b) p^b.

    Every e_k of the n roots is a symmetric binary form of degree k, kept
    as its floor(k/2) + 1 coefficients at s^(k-2b) p^b.  It satisfies
    k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} P_i, so (-1)^k k e_k is
    -sum_i (-1)^(k-i) e_{k-i} P_i, and s^a p^b s^c p^d = s^(a+c) p^(b+d)
    makes each right side a full convolution of rows in b.  The division
    by k is exact, in this basis as in the monomial one, and raises
    NonIntegralCoefficient otherwise.  Each power sum is converted to
    s, p once.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    top = 2 * n // 3
    pascal = pascal_rows(top)
    psums = [[-c for c in half_row_to_sp(half, m, pascal)]
             for m, half in enumerate(_power_sum_halves(n, top), 1)]
    rows = [(1,)]
    for k in range(1, top + 1):
        acc = [0] * (k // 2 + 1)
        # row k - i times P_i for i = 1..k: the shorter factor outside, and
        # a runs along acc from the outer entry's column
        for short, long in zip(rows[k - 1::-1], psums):
            if len(short) > len(long):
                short, long = long, short
            for a, ca in enumerate(short):
                for cb in long:
                    acc[a] += ca * cb
                    a += 1
        row = []
        for b, c in enumerate(acc):
            q, r = divmod(c, k)
            if r:
                raise NonIntegralCoefficient(
                    f"z^{n - k} coefficient {c} of s^{k - 2 * b} p^{b} is not divisible by {k}")
            row.append(q)
        rows.append(tuple(row))
    return tuple(rows)


def build_pn(n: int) -> Polynomial:
    """p_n(z; x, y) in full, from pn_rows(n).

    The coefficient at a partition (k1, k2, k3) of n, that of
    x^k2 y^k3 z^k1, is entry k3 of row d = n - k1's half row, the
    coefficients of x^(d-i) y^i, i <= d/2; p_n is symmetric in (x, y, z),
    so every permutation of the partition has it.
    """
    terms, rows = {}, pn_rows(n)
    pascal = pascal_rows(len(rows) - 1)
    for d, row in enumerate(rows):
        # entry k3 <= d/2 of a half row has k3 <= k2, and k3 >= 2d - n gives k2 <= k1
        for k3, c in enumerate(sp_to_half_row(row, d, pascal)):
            if c and k3 >= 2 * d - n:
                for e in permutations((n - d, d - k3, k3)):
                    terms[e] = c
    return Polynomial._raw(_XYZ, terms)


__all__ = [
    "NonConstantInT",
    "NonIntegralCoefficient",
    "build_pn",
    "build_pn_cyclo",
    "cyclotomic",
    "pn_rows",
]
