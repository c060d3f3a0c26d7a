"""Scans over the e-basis coefficients of p_n.

The paper's Proposition (the closed form of every e3-free coefficient),
prime-power divisibility (a theorem, by the Frobenius map mod p), the
non-vanishing conjecture for even n and an exploratory factorization
report, all on one loop over the partitions of n.  ``SCANS`` is the one
table of scan kinds and ``scan`` the one loop over n.  Scans report what
they compute; a failing check is flagged, never suppressed.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .construct import pn_rows
from .symdecomp import decompose_rows, partitions3


class NotPrimePower(ValueError):
    """n is not of the form p^m with p prime, m >= 1."""


class NotEven(ValueError):
    """n is odd."""


class CheckEntry(namedtuple("CheckEntry", "partition coefficient verdict detail")):
    """One partition's coefficient; ``verdict`` is pass, fail or info."""

    __slots__ = ()


class ScanReport(namedtuple("ScanReport", "n kind checks overall")):
    """Per-partition verdicts for one n; every partition appears once.

    ``kind`` is proposition, prime-power, even-nonzero or factors;
    ``overall`` is pass, fail or exploratory.
    """

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "kind": self.kind,
            "checks": [
                {"k": list(c.partition), "A": str(c.coefficient),
                 "verdict": c.verdict, "detail": c.detail}
                for c in self.checks
            ],
            "overall": self.overall,
        }

    def text(self) -> str:
        """Every entry when exploratory, else a verdict line and a FLAG line
        per failed check."""
        if self.overall == "exploratory":
            lines, shown, prefix = [f"n={self.n}"], self.checks, "  "
        else:
            counted = [c for c in self.checks if c.verdict != "info"]
            good = sum(c.verdict == "pass" for c in counted)
            lines = [f"{self.kind} n={self.n}: {self.overall} ({good}/{len(counted)} checks)"]
            shown, prefix = [c for c in counted if c.verdict == "fail"], "  FLAG "
        lines += [f"{prefix}({','.join(map(str, c.partition))}) A={c.coefficient}: {c.detail}"
                  for c in shown]
        return "\n".join(lines) + "\n"


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, m) with n = p^m, or None."""
    if n < 2:
        return None
    p, e = factorize(n)[0]
    return (p, e) if p ** e == n else None


def factorize(m: int) -> list[tuple[int, int]]:
    """Trial-division factorization of m >= 1 as (prime, exponent) pairs."""
    if m < 1:
        raise ValueError("argument must be >= 1")
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def _signed_product(a: int, primes) -> str:
    # an empty prime list is the product 1
    body = "·".join(f"{p}^{e}" if e > 1 else str(p) for p, e in primes) or "1"
    return ("-" if a < 0 else "") + body


def format_factored(a: int) -> str:
    """Signed prime-power rendering, e.g. -12312 -> '-2^3·3^4·19'."""
    if a == 0:
        return "0"
    return _signed_product(a, factorize(abs(a)))


def _scan(n: int, kind: str, verdict) -> ScanReport:
    # one entry per partition, verdict(part, a) its verdict and detail
    g = decompose_rows(n, pn_rows(n))
    coefficients = {part: g.coeffs.get(part, 0) for part in partitions3(n)}
    checks = tuple(CheckEntry(part, a, *verdict(part, a)) for part, a in coefficients.items())
    failed = any(c.verdict == "fail" for c in checks)
    return ScanReport(n, kind, checks, "fail" if failed else "pass")


def verify_proposition(n: int) -> ScanReport:
    """The paper's Proposition: the closed form of A_{k1,k2,0}, k2 >= 1.

    Odd n: every such coefficient vanishes (the y = 0 restriction is a
    pure power of x + z).  Even n = 2k: A_{2k-i,i,0} = (-4)^i C(k, i),
    from expanding (z - x)^n = ((x + z)^2 - 4xz)^k.  Every other
    partition is an info entry.
    """

    def verdict(part, a):
        _, k2, k3 = part
        if k3 or not k2:
            return "info", "outside the closed form"
        expected = 0 if n % 2 else (-4) ** k2 * math.comb(n // 2, k2)
        if a == expected:
            return "pass", "equals the closed form"
        return "fail", f"closed form gives {expected}: potential counterexample"

    return _scan(n, "proposition", verdict)


def scan_prime_power(n: int) -> ScanReport:
    """For n = p^m: every coefficient but the leading one divisible by p.

    A theorem: mod p each root (u + eps^r v)^n is u^n + v^n, so p_n is
    (x + y + z)^n = e1^n mod p.  A fail verdict is a fault of the
    pipeline and flips the overall verdict to fail.
    """
    pm = prime_power(n)
    if pm is None:
        raise NotPrimePower(f"{n} is not a prime power")
    p, _ = pm

    def verdict(part, a):
        if part == (n, 0, 0):
            return "info", "leading coefficient, exempt"
        if a % p == 0:
            return "pass", f"divisible by {p}"
        return "fail", f"NOT divisible by {p}: a fault of the pipeline, not a counterexample"

    return _scan(n, "prime-power", verdict)


def scan_even_nonzero(n: int) -> ScanReport:
    """For even n: every partition of n into <= 3 parts has a nonzero A."""
    if n % 2:
        raise NotEven(f"{n} is odd")

    def verdict(part, a):
        if a != 0:
            return "pass", "nonzero"
        return "fail", "vanishing coefficient: potential counterexample"

    return _scan(n, "even-nonzero", verdict)


def factor_report(n: int) -> ScanReport:
    """Factorize |A| for every partition; prime factors shared with n noted.

    Exploratory only: there is no pass/fail semantics for the prime-factor
    relationship.
    """
    n_primes = {p for p, _ in factorize(n)} if n > 1 else set()

    def verdict(part, a):
        if a == 0:
            return "info", "absent"
        primes = factorize(abs(a))
        detail = _signed_product(a, primes)
        shared = sorted(n_primes & {p for p, _ in primes})
        if shared:
            detail += f" (shares {', '.join(map(str, shared))} with n)"
        return "info", detail

    return _scan(n, "factors", verdict)._replace(overall="exploratory")


SCANS = {
    "prime-power": scan_prime_power,
    "even-nonzero": scan_even_nonzero,
    "factors": factor_report,
    "proposition": verify_proposition,
}


def scan(kind: str, max_n: int):
    """Yield the ``kind`` report of each n = 1..max_n the scan applies to.

    An n outside a scan's hypothesis (not a prime power, odd) raises in
    the scan function and is skipped.
    """
    for n in range(1, max_n + 1):
        try:
            report = SCANS[kind](n)
        except (NotPrimePower, NotEven):
            continue
        yield report


__all__ = [
    "CheckEntry",
    "NotEven",
    "NotPrimePower",
    "SCANS",
    "ScanReport",
    "factor_report",
    "factorize",
    "format_factored",
    "prime_power",
    "scan",
    "scan_even_nonzero",
    "scan_prime_power",
    "verify_proposition",
]
