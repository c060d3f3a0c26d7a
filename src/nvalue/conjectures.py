"""Scans over the e-basis coefficients of p_n.

Two machine-checkable scans (prime-power divisibility and non-vanishing
for even n) plus an exploratory factorization report.  Scans report what
they compute; a failing check is a potential counterexample and is
flagged, never suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .construct import build_pn
from .symdecomp import decompose


class NotPrimePower(ValueError):
    """n is not of the form p^m with p prime, m >= 1."""


class NotEven(ValueError):
    """n is odd."""


@dataclass(frozen=True)
class CheckEntry:
    partition: tuple[int, int, int]
    coefficient: int
    verdict: str  # pass | fail | info
    detail: str


@dataclass(frozen=True)
class ScanReport:
    """Per-partition verdicts for one n; every partition appears once."""

    n: int
    kind: str  # prime-power | even-nonzero | factors
    checks: tuple[CheckEntry, ...]
    overall: str  # pass | fail | exploratory

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


def partitions3(n: int) -> list[tuple[int, int, int]]:
    """All partitions of n into at most 3 parts, descending."""
    out = []
    for k1 in range((n + 2) // 3, n + 1):
        for k2 in range(min(k1, n - k1), -1, -1):
            k3 = n - k1 - k2
            if 0 <= k3 <= k2:
                out.append((k1, k2, k3))
    return sorted(out, reverse=True)


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, m) with n = p^m, or None."""
    if n < 2:
        return None
    for p, e in factorize(n):
        return (p, e) if p ** e == n else None
    return None


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


def scan_prime_power(n: int) -> ScanReport:
    """For n = p^m: every coefficient but the leading one divisible by p.

    A fail verdict is a counterexample candidate and flips the overall
    verdict to fail.
    """
    pm = prime_power(n)
    if pm is None:
        raise NotPrimePower(f"{n} is not a prime power")
    p, _ = pm
    g = decompose(build_pn(n))
    checks = []
    failed = False
    for part in partitions3(n):
        a = g.coefficient(*part)
        if part == (n, 0, 0):
            checks.append(CheckEntry(part, a, "info", "leading coefficient, exempt"))
        elif a % p == 0:
            checks.append(CheckEntry(part, a, "pass", f"divisible by {p}"))
        else:
            failed = True
            checks.append(CheckEntry(part, a, "fail",
                                     f"NOT divisible by {p}: potential counterexample"))
    return ScanReport(n, "prime-power", tuple(checks), "fail" if failed else "pass")


def scan_even_nonzero(n: int) -> ScanReport:
    """For even n: every partition of n into <= 3 parts has a nonzero A."""
    if n % 2:
        raise NotEven(f"{n} is odd")
    g = decompose(build_pn(n))
    checks = []
    failed = False
    for part in partitions3(n):
        a = g.coefficient(*part)
        if a != 0:
            checks.append(CheckEntry(part, a, "pass", "nonzero"))
        else:
            failed = True
            checks.append(CheckEntry(part, a, "fail",
                                     "vanishing coefficient: potential counterexample"))
    return ScanReport(n, "even-nonzero", tuple(checks), "fail" if failed else "pass")


def factor_report(n: int) -> ScanReport:
    """Factorize |A| for every partition; prime factors shared with n noted.

    Exploratory only: there is no pass/fail semantics for the prime-factor
    relationship.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = decompose(build_pn(n))
    n_primes = {p for p, _ in factorize(n)} if n > 1 else set()
    checks = []
    for part in partitions3(n):
        a = g.coefficient(*part)
        if a == 0:
            checks.append(CheckEntry(part, 0, "info", "absent"))
            continue
        primes = factorize(abs(a))
        detail = _signed_product(a, primes)
        shared = sorted(n_primes & {p for p, _ in primes})
        if shared:
            detail += f" (shares {', '.join(map(str, shared))} with n)"
        checks.append(CheckEntry(part, a, "info", detail))
    return ScanReport(n, "factors", tuple(checks), "exploratory")


__all__ = [
    "CheckEntry",
    "NotEven",
    "NotPrimePower",
    "ScanReport",
    "factor_report",
    "factorize",
    "format_factored",
    "partitions3",
    "prime_power",
    "scan_even_nonzero",
    "scan_prime_power",
]
