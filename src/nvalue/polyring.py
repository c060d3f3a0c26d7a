"""Exact sparse multivariate polynomial arithmetic.

Polynomials are stored as a mapping from exponent tuples to nonzero
integer coefficients (Python ints, arbitrary precision) over a declared,
ordered variable list.

The canonical term order is lexicographic descending on the exponent
tuple.  It fixes serialization, printing and the leading term.
"""

from __future__ import annotations

import math
import warnings
from operator import add as _iadd


class VariableMismatch(ValueError):
    """Operands were built over different variable lists."""


class IndivisibleExponent(ValueError):
    """An exponent was not divisible by the requested divisor."""


class NonIntegralCoefficient(ValueError):
    """An exact integer division left a remainder."""


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

    @classmethod
    def zero(cls, vars) -> "Polynomial":
        return cls._raw(tuple(vars), {})

    @classmethod
    def constant(cls, c, vars) -> "Polynomial":
        vars = tuple(vars)
        if not c:
            return cls._raw(vars, {})
        return cls._raw(vars, {(0,) * len(vars): c})

    @classmethod
    def one(cls, vars) -> "Polynomial":
        return cls.constant(1, vars)

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

    def __len__(self) -> int:
        return len(self._terms)

    def _var_index(self, var) -> int:
        if isinstance(var, str):
            return self.vars.index(var)
        return range(len(self.vars))[var]

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
        result = Polynomial.one(self.vars)
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

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Lex-greatest term as (exponents, coefficient)."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._terms)
        return e, self._terms[e]

    def support(self) -> set[tuple[int, ...]]:
        """Exponent tuples carrying a nonzero coefficient."""
        return set(self._terms)

    def total_degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(e) for e in self._terms)

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
        for exps, coeff in self._terms.items():
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

    def substitute_zero(self, var) -> "Polynomial":
        """Set one variable to zero; the result lives over the remaining ones."""
        i = self._var_index(var)
        new_vars = self.vars[:i] + self.vars[i + 1:]
        out = {}
        for e, c in self._terms.items():
            if e[i] == 0:
                out[e[:i] + e[i + 1:]] = c
        return Polynomial._raw(new_vars, out)

    def exponent_divide(self, var, n: int) -> "Polynomial":
        """Divide every exponent of ``var`` by n; they must all be divisible."""
        if n < 1:
            raise ValueError("divisor must be >= 1")
        i = self._var_index(var)
        out = {}
        for e, c in self._terms.items():
            q, r = divmod(e[i], n)
            if r:
                raise IndivisibleExponent(
                    f"exponent {e[i]} of {self.vars[i]} not divisible by {n}")
            out[e[:i] + (q,) + e[i + 1:]] = c
        return Polynomial._raw(self.vars, out)

    def rename_vars(self, mapping: dict) -> "Polynomial":
        """Rename variables in place (order preserved)."""
        new_vars = tuple(mapping.get(v, v) for v in self.vars)
        if len(set(new_vars)) != len(new_vars):
            raise ValueError(f"renaming collides: {new_vars}")
        return Polynomial._raw(new_vars, dict(self._terms))

    def coefficients_in(self, var) -> list["Polynomial"]:
        """Coefficients of the powers of ``var``, index = power, over the rest."""
        i = self._var_index(var)
        new_vars = self.vars[:i] + self.vars[i + 1:]
        top = max((e[i] for e in self._terms), default=0)
        buckets: list[dict] = [{} for _ in range(top + 1)]
        for e, c in self._terms.items():
            buckets[e[i]][e[:i] + e[i + 1:]] = c
        return [Polynomial._raw(new_vars, b) for b in buckets]

    def map_terms(self, fn) -> "Polynomial":
        """New polynomial with coefficients fn(exps, coeff); zeros dropped."""
        out = {}
        for e, c in self._terms.items():
            nc = fn(e, c)
            if nc:
                out[e] = nc
        return Polynomial._raw(self.vars, out)

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        """JSON-ready dict; coefficients as decimal strings, canonical order."""
        terms = [{"e": list(e), "c": str(c)} for e, c in self.sorted_terms()]
        return {"vars": list(self.vars), "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "Polynomial":
        terms = {tuple(t["e"]): int(t["c"]) for t in data["terms"]}
        return cls(tuple(data["vars"]), terms)

    # -- printing --------------------------------------------------------------

    def __str__(self) -> str:
        return format_terms(self.vars, self.sorted_terms())

    def __repr__(self) -> str:
        return f"Polynomial[{', '.join(self.vars)}]({self})"
