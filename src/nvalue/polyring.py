"""Exact sparse multivariate polynomial arithmetic, and the binary-form
helpers pascal_rows, half_row_to_sp and sp_to_half_row.

Polynomials map exponent tuples to nonzero integer coefficients (Python
ints, arbitrary precision) over a declared, ordered variable list.  The
canonical term order, lexicographic descending on the exponent tuple,
fixes serialization and printing.
"""

from __future__ import annotations

import math
import warnings
from operator import add as _iadd


class VariableMismatch(ValueError):
    """Operands were built over different variable lists."""


def _to_complex(c) -> complex:
    # huge integer coefficients may not fit a double; saturate to +-inf
    try:
        return complex(float(c))
    except OverflowError:
        warnings.warn("coefficient overflowed double precision, using inf",
                      RuntimeWarning, stacklevel=3)
        return complex(math.inf if c > 0 else -math.inf)


def format_terms(names, terms, sep: str = "*", fmt=str) -> str:
    """Render (powers, coefficient) pairs as a signed sum: 'x^2 - 2*x*y + 3'.

    A term is its magnitude, rendered by ``fmt`` and left out when it is 1,
    followed by the names with nonzero powers, all joined by ``sep``.  The
    sign of each coefficient becomes the operator in front of its term.
    """
    parts = []
    for powers, c in terms:
        a = abs(c)
        mono = sep.join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, powers) if k)
        if not mono:
            body = fmt(a)
        elif a == 1:
            body = mono
        else:
            body = f"{fmt(a)}{sep}{mono}"
        if parts:
            parts.append(" - " if c < 0 else " + ")
        elif c < 0:
            parts.append("-")
        parts.append(body)
    return "".join(parts) or "0"


# A symmetric binary form of degree d is fixed by its half row, the
# coefficients of x^(d-i) y^i for i <= d/2, or by as many at s^(d-2b) p^b,
# s = x + y and p = xy.  s^(d-2b) p^b puts C(d-2b, k) at x^(d-b-k) y^(b+k): both
# ways scatter entry b over pascal[d-2b], pascal = pascal_rows(top), top >= d.

def pascal_rows(top: int) -> list[list[int]]:
    """rows[m][l] = C(m, l) for m <= top, built by addition."""
    rows = [[1]]
    for _ in range(top):
        rows.append([1, *map(_iadd, rows[-1], rows[-1][1:]), 1])
    return rows


def half_row_to_sp(row, d: int, pascal) -> list[int]:
    """Coefficients at s^(d-2b) p^b of the form with half row ``row``."""
    out = list(row)
    # unitriangular: entry i is final once every entry before it is scattered
    for i, c in enumerate(out):
        for x in pascal[d - 2 * i][1:len(out) - i]:
            i += 1
            out[i] -= c * x
    return out


def sp_to_half_row(row, d: int, pascal) -> list[int]:
    """Half row of the form with coefficients ``row`` at s^(d-2b) p^b."""
    out = [0] * len(row)
    for i, c in enumerate(row):
        for x in pascal[d - 2 * i][:len(row) - i]:
            out[i] += c * x
            i += 1
    return out


class Polynomial:
    """Immutable sparse polynomial over named variables.

    ``terms`` maps exponent tuples (one entry per variable, all >= 0) to
    nonzero coefficients.  All operations return new objects; instances
    are safe to share between threads.
    """

    __slots__ = ("vars", "_terms")

    def __init__(self, vars, terms=None):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ValueError(f"duplicate variable names in {vars}")
        nvars = len(vars)
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exps, coeff in items:
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(
                        f"exponent tuple {exps} does not match {nvars} variables")
                if any(not isinstance(e, int) or e < 0 for e in exps):
                    raise ValueError(f"exponents must be non-negative ints: {exps}")
                if not isinstance(coeff, int):
                    raise TypeError(f"unsupported coefficient type {type(coeff)}")
                c = clean.get(exps, 0) + coeff
                if c:
                    clean[exps] = c
                else:
                    clean.pop(exps, None)
        self.vars = vars
        self._terms = clean

    @classmethod
    def _raw(cls, vars, terms):
        # internal fast path: caller guarantees canonical terms
        p = object.__new__(cls)
        p.vars = vars
        p._terms = terms
        return p

    # -- constructors -------------------------------------------------------
    # the zero polynomial is Polynomial(vars), and one is constant(1, vars)

    @classmethod
    def constant(cls, c, vars) -> "Polynomial":
        vars = tuple(vars)
        if not c:
            return cls._raw(vars, {})
        return cls._raw(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, name: str, vars) -> "Polynomial":
        vars = tuple(vars)
        i = vars.index(name)
        exps = tuple(1 if j == i else 0 for j in range(len(vars)))
        return cls._raw(vars, {exps: 1})

    # -- basic protocol -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self._terms == other._terms

    def _require_same_vars(self, other: "Polynomial") -> None:
        if self.vars != other.vars:
            raise VariableMismatch(f"{self.vars} vs {other.vars}")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other, self.vars)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_vars(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                del terms[e]
        return Polynomial._raw(self.vars, terms)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._raw(self.vars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            if not other:
                return Polynomial._raw(self.vars, {})
            return Polynomial._raw(
                self.vars, {e: c * other for e, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_vars(other)
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        bitems = list(other._terms.items())
        for ea, ca in self._terms.items():
            for eb, cb in bitems:
                e = tuple(map(_iadd, ea, eb))
                s = get(e, 0) + ca * cb
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Polynomial._raw(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a non-negative int, got {k!r}")
        result = Polynomial.constant(1, self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- structure queries ---------------------------------------------------

    def coefficient(self, exps) -> int:
        return self._terms.get(tuple(exps), 0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in canonical order: lexicographic descending exponents."""
        return sorted(self._terms.items(), key=lambda kv: kv[0], reverse=True)

    def support(self) -> set[tuple[int, ...]]:
        """Exponent tuples carrying a nonzero coefficient."""
        return set(self._terms)

    def homogeneous_degree(self) -> int | None:
        """Common total degree of all terms, or None if mixed or zero."""
        degrees = {sum(e) for e in self._terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def is_symmetric(self) -> bool:
        """True iff invariant under every permutation of the variables.

        Checked on the adjacent transpositions, which generate the full
        symmetric group.
        """
        terms = self._terms
        for i in range(len(self.vars) - 1):
            for e, c in terms.items():
                se = list(e)
                se[i], se[i + 1] = se[i + 1], se[i]
                if terms.get(tuple(se), 0) != c:
                    return False
        return True

    # -- substitution and reshaping -----------------------------------------

    def eval_complex(self, point) -> complex:
        """Evaluate at a point of complex values, one per variable."""
        if len(point) != len(self.vars):
            raise ValueError(f"point has {len(point)} entries for {len(self.vars)} variables")
        pt = [complex(v) for v in point]
        total = 0j
        for exps, coeff in self.sorted_terms():
            term = _to_complex(coeff)
            try:
                for v, e in zip(pt, exps):
                    if e:
                        term *= v ** e
            except OverflowError:
                warnings.warn("evaluation overflowed double precision, using inf",
                              RuntimeWarning, stacklevel=2)
                term = complex(math.inf, math.inf)
            total += term
        return total

    def coefficients_in(self, var) -> list["Polynomial"]:
        """Coefficients of the powers of ``var``, index = power, over the rest."""
        i = self.vars.index(var)
        new_vars = self.vars[:i] + self.vars[i + 1:]
        top = max((e[i] for e in self._terms), default=0)
        buckets: list[dict] = [{} for _ in range(top + 1)]
        for e, c in self._terms.items():
            buckets[e[i]][e[:i] + e[i + 1:]] = c
        return [Polynomial._raw(new_vars, b) for b in buckets]

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        """JSON-ready dict; coefficients as decimal strings, canonical order."""
        terms = [{"e": list(e), "c": str(c)} for e, c in self.sorted_terms()]
        return {"vars": list(self.vars), "terms": terms}

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        return format_terms(self.vars, self.sorted_terms())

    def __repr__(self) -> str:
        return f"Polynomial[{', '.join(self.vars)}]({self})"
