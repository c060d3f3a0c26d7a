"""Checks of nvalue's command outputs, computed apart from nvalue.

Nothing here imports nvalue.  Every checker takes the text a command
printed and returns a list of error strings; an empty list means the
output passed.  The references are:

* the paper's closed form for the e3-free coefficients,
  A_{2k-i,i,0} = (-4)^i C(k,i) for n = 2k and 0 for odd n;
* the defining product: with x = (-1)^n a^n and y = (-1)^n b^n,
  p_n(x, y, z) = prod over w^n = 1 of (z - (a + w b)^n), computed exactly
  as the determinant of a circulant integer matrix;
* partitions, primality and divisibility recomputed from scratch.
"""

from __future__ import annotations

import json
import math
import random
import re

# -- independent arithmetic ----------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def is_prime(m: int) -> bool:
    """Miller-Rabin.  Exact below 3.3e24 (bases 2..41); beyond, 20 bases."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def small_prime_factors(n: int) -> list[int]:
    """Distinct prime factors of a small n, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def partitions3(n: int) -> set[tuple[int, int, int]]:
    """Partitions of n into at most 3 parts, as (k1 >= k2 >= k3 >= 0)."""
    return {(n - k2 - k3, k2, k3)
            for k3 in range(n // 3 + 1)
            for k2 in range(k3, (n - k3) // 2 + 1)}


def partitions3_count(n: int) -> int:
    """Closed form for the number of partitions of n into at most 3 parts."""
    return ((n + 3) ** 2 + 6) // 12


def closed_form_e3_free(n: int) -> dict[tuple[int, int, int], int]:
    """The paper's e3-free coefficients A_{n-i,i,0}, i = 0..n//2."""
    if n % 2:
        return {(n - i, i, 0): int(i == 0) for i in range(n // 2 + 1)}
    k = n // 2
    return {(n - i, i, 0): (-4) ** i * math.comb(k, i) for i in range(k + 1)}


def integer_det(rows: list[list[int]]) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    size, sign, prev = len(m), 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, size):
            mik = m[i][k]
            row_i, row_k = m[i], m[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def defining_product(n: int, a: int, b: int, z: int) -> int:
    """prod over w^n = 1 of (z - (a + w b)^n), exactly.

    z - (a + t b)^n reduced mod t^n - 1 is a polynomial c(t) of degree < n,
    and the product of c(w) over the n-th roots of unity is the determinant
    of the circulant matrix whose first row is c.
    """
    c = [0] * n
    c[0] = z
    for j in range(n + 1):
        c[j % n] -= math.comb(n, j) * a ** (n - j) * b ** j
    return integer_det([[c[(j - i) % n] for j in range(n)] for i in range(n)])


def table_value(table: dict[tuple[int, int, int], int], x: int, y: int, z: int) -> int:
    """sum of A_k e1^(k1-k2) e2^(k2-k3) e3^k3 at the point (x, y, z)."""
    e1, e2, e3 = x + y + z, x * y + y * z + z * x, x * y * z
    return sum(a * e1 ** (k1 - k2) * e2 ** (k2 - k3) * e3 ** k3
               for (k1, k2, k3), a in table.items())


def sample_points(rng: random.Random, count: int) -> list[tuple[int, int, int]]:
    """Integer (a, b, z), all nonzero; x, y follow from a, b and n."""
    def draw(top: int) -> int:
        return rng.choice((-1, 1)) * rng.randint(1, top)
    return [(draw(7), draw(7), draw(10 ** 6)) for _ in range(count)]


def check_table(n: int, table: dict[tuple[int, int, int], int], points) -> list[str]:
    """A full e-basis table of p_n against the closed form and the product.

    At points where e1, e2, e3 are nonzero a single wrong coefficient always
    changes the value, so such points are used.
    """
    errors = []
    bad = set(table) - partitions3(n)
    if bad:
        errors.append(f"n={n}: keys that are not partitions of n: {sorted(bad)[:3]}")
        return errors
    for key, want in closed_form_e3_free(n).items():
        if table.get(key, 0) != want:
            errors.append(f"n={n}: A{key} = {table.get(key, 0)}, closed form {want}")
    sign = -1 if n % 2 else 1
    for a, b, z in points:
        x, y = sign * a ** n, sign * b ** n
        if 0 in (x + y + z, x * y + y * z + z * x):
            continue
        if table_value(table, x, y, z) != defining_product(n, a, b, z):
            errors.append(f"n={n}: table disagrees with the defining product at "
                          f"a={a} b={b} z={z}")
    return errors


# -- pn / newton -----------------------------------------------------------------

def parse_pn_json(text: str) -> tuple[int, dict[tuple[int, int, int], int]]:
    data = json.loads(text)
    table = {}
    for term in data["terms"]:
        key = tuple(int(k) for k in term["k"])
        if key in table:
            raise ValueError(f"partition {key} listed twice")
        table[key] = int(term["A"])
    return int(data["n"]), table


def check_pn_json(n: int, text: str, points) -> list[str]:
    """`pn --n N --basis e --format json`."""
    try:
        got_n, table = parse_pn_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"pn n={n}: unreadable JSON: {exc}"]
    if got_n != n:
        return [f"pn n={n}: output says n={got_n}"]
    return check_table(n, table, points)


def check_newton_json(n: int, text: str) -> list[str]:
    """`newton --n N --format json`: the hull is the right triangle."""
    try:
        data = json.loads(text)
        verts = [tuple(v) for v in data["vertices"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"newton n={n}: unreadable JSON: {exc}"]
    want = {(n, 0, 0), (0, n, 0), (0, 0, n)}
    errors = []
    if len(verts) != 3 or set(verts) != want:
        errors.append(f"newton n={n}: vertices {verts}, expected {sorted(want)}")
    if data.get("degree") != n or data.get("k_simplex") is not True:
        errors.append(f"newton n={n}: degree {data.get('degree')}, "
                      f"k_simplex {data.get('k_simplex')}")
    return errors


# -- factored forms ---------------------------------------------------------------

_FACTOR = re.compile(r"^(\d+)(?:\^(\d+))?$")
_MONO = re.compile(r"^e([123])(?:\^(\d+))?$")


def parse_factored(text: str) -> tuple[int, list[str]]:
    """'-2^3·3^4·19' -> (-12312, errors); every base must be prime."""
    errors = []
    sign = -1 if text.startswith("-") else 1
    body = text.lstrip("-")
    if body == "1":
        return sign, errors
    value, last = sign, 1
    for part in body.split("·"):
        m = _FACTOR.match(part)
        if not m:
            raise ValueError(f"malformed factor {part!r} in {text!r}")
        p, e = int(m.group(1)), int(m.group(2) or 1)
        if not is_prime(p):
            errors.append(f"printed base {p} is not prime")
        if p <= last:
            errors.append(f"bases not increasing in {text!r}")
        last = p
        value *= p ** e
    return value, errors


def parse_pn_text(text: str) -> tuple[dict[tuple[int, int, int], int], list[str]]:
    """Default `pn --n N` form: 'e1^6 - 2^2·3 e1^4 e2 + ...'."""
    line = text.strip()
    sign = 1
    if line.startswith("-"):
        sign, line = -1, line[1:]
    pieces = re.split(r" ([+-]) ", line)
    terms = [(sign, pieces[0])]
    terms += [(1 if s == "+" else -1, body) for s, body in zip(pieces[1::2], pieces[2::2])]
    table, errors = {}, []
    for s, body in terms:
        powers, mag = [0, 0, 0], "1"
        for i, tok in enumerate(body.split(" ")):
            m = _MONO.match(tok)
            if m:
                powers[int(m.group(1)) - 1] += int(m.group(2) or 1)
            elif i == 0:
                mag = tok
            else:
                raise ValueError(f"malformed term {body!r}")
        value, errs = parse_factored(mag)
        errors += errs
        p1, p2, p3 = powers
        key = (p1 + p2 + p3, p2 + p3, p3)
        if key in table:
            errors.append(f"partition {key} printed twice")
        table[key] = s * value
    return table, errors


def check_pn_text(n: int, text: str, points) -> list[str]:
    """`pn --n N` (factored text): prime bases, and the product of the
    printed prime powers is the coefficient the checks above demand."""
    try:
        table, errors = parse_pn_text(text)
    except ValueError as exc:
        return [f"pn text n={n}: {exc}"]
    return [f"pn text n={n}: {e}" for e in errors] + check_table(n, table, points)


_SCAN_LINE = re.compile(r"^  \((\d+),(\d+),(\d+)\) A=(-?\d+): (.*)$")
_SHARES = re.compile(r"^(.*) \(shares ([\d, ]+) with n\)$")


def check_scan_factors_text(max_n: int, text: str, points_by_n) -> list[str]:
    """`scan --kind factors --max-n M` (text)."""
    blocks: dict[int, dict] = {}
    errors: list[str] = []
    current = None
    for line in text.splitlines():
        if line.startswith("n="):
            current = int(line[2:])
            if current in blocks:
                errors.append(f"n={current} reported twice")
            blocks[current] = {}
            continue
        m = _SCAN_LINE.match(line)
        if not m or current is None:
            return errors + [f"factors scan: malformed line {line!r}"]
        key = tuple(int(g) for g in m.group(1, 2, 3))
        a, detail = int(m.group(4)), m.group(5)
        blocks[current][key] = a
        if a == 0:
            if detail != "absent":
                errors.append(f"n={current} {key}: zero coefficient shown as {detail!r}")
            continue
        shares = []
        sm = _SHARES.match(detail)
        if sm:
            detail, shares = sm.group(1), [int(p) for p in sm.group(2).split(", ")]
        try:
            value, errs = parse_factored(detail)
        except ValueError as exc:
            errors.append(f"n={current} {key}: {exc}")
            continue
        errors += [f"n={current} {key}: {e}" for e in errs]
        if value != a:
            errors.append(f"n={current} {key}: printed factors give {value}, A={a}")
        bases = {int(_FACTOR.match(f).group(1)) for f in detail.lstrip("-").split("·")}
        want = sorted(set(small_prime_factors(current)) & bases)
        if shares != want:
            errors.append(f"n={current} {key}: shares {shares}, expected {want}")
    if sorted(blocks) != list(range(1, max_n + 1)):
        errors.append(f"factors scan: n values {sorted(blocks)}, expected 1..{max_n}")
    for n, table in blocks.items():
        if len(table) != partitions3_count(n) or set(table) != partitions3(n):
            errors.append(f"n={n}: {len(table)} checks, expected {partitions3_count(n)}")
            continue
        nonzero = {k: a for k, a in table.items() if a}
        errors += check_table(n, nonzero, points_by_n.get(n, ()))
    return errors


# -- prime-power / even-nonzero scans ----------------------------------------------

def scan_ns(kind: str, max_n: int) -> list[int]:
    """The n a scan must visit, derived apart from nvalue."""
    if kind == "even-nonzero":
        return list(range(2, max_n + 1, 2))
    return [n for n in range(2, max_n + 1) if len(small_prime_factors(n)) == 1]


def check_scan_json(kind: str, max_n: int, text: str, points_by_n) -> list[str]:
    """`scan --kind prime-power|even-nonzero --max-n M --format json`."""
    try:
        reports = json.loads(text)
        by_n = {int(r["n"]): r for r in reports}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{kind} scan: unreadable JSON: {exc}"]
    want_ns = scan_ns(kind, max_n)
    if sorted(by_n) != want_ns or len(reports) != len(want_ns):
        return [f"{kind} scan: n values {sorted(by_n)}, expected {want_ns}"]
    errors = []
    for n, report in by_n.items():
        checks = report["checks"]
        table = {tuple(c["k"]): int(c["A"]) for c in checks}
        if len(checks) != partitions3_count(n) or set(table) != partitions3(n):
            errors.append(f"{kind} n={n}: {len(checks)} checks, "
                          f"expected {partitions3_count(n)}")
            continue
        p = small_prime_factors(n)[0]
        any_fail = False
        for c in checks:
            key, a = tuple(c["k"]), int(c["A"])
            if kind == "prime-power" and key == (n, 0, 0):
                want = "info"
            elif kind == "prime-power":
                want = "pass" if a % p == 0 else "fail"
            else:
                want = "pass" if a != 0 else "fail"
            any_fail |= want == "fail"
            if c["verdict"] != want or report["kind"] != kind:
                errors.append(f"{kind} n={n} {key}: verdict {c['verdict']}, "
                              f"recomputed {want}")
        if report["overall"] != ("fail" if any_fail else "pass"):
            errors.append(f"{kind} n={n}: overall {report['overall']}")
        nonzero = {k: a for k, a in table.items() if a}
        errors += check_table(n, nonzero, points_by_n.get(n, ()))
    return errors


# -- axioms -----------------------------------------------------------------------

_AXIOMS = ("unit", "inverse", "associativity", "roots-vs-multiset")


def check_axioms_text(n: int, samples: int, seed: int, text: str) -> list[str]:
    """`axioms --n N --samples S --seed K` (text): every count is S/S."""
    lines = text.splitlines()
    errors = []
    if not lines or not lines[0].startswith(f"n={n} samples={samples} ") \
            or not lines[0].endswith(f" seed={seed}"):
        errors.append(f"axioms: header {lines[:1]}")
    counts = dict(line.split(": ", 1) for line in lines[1:] if ": " in line)
    for name in _AXIOMS:
        if counts.get(name) != f"{samples}/{samples}":
            errors.append(f"axioms n={n}: {name} {counts.get(name)}, "
                          f"expected {samples}/{samples}")
    if counts.get("overall") != "pass":
        errors.append(f"axioms n={n}: overall {counts.get('overall')}")
    return errors
