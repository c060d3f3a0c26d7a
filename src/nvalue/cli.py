"""Command-line interface.

Subcommands:
    pn      print p_n in the monomial or elementary-symmetric basis
    newton  Newton polytope vertices, simplex verdict, optional SVG
    scan    coefficient scans (prime-power | even-nonzero | factors)
    axioms  seeded numeric sweeps of the group axioms

Exit codes: 0 all checks pass, 1 a check failed (potential
counterexample), 2 usage error.
Data goes to stdout (or --output), diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import random
import sys

from . import conjectures, construct, mvgroup, newton, symdecomp


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


@contextlib.contextmanager
def _output(out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, out_path: str | None) -> None:
    with _output(out_path) as fh:
        fh.write(text)


# -- pn ------------------------------------------------------------------------

def cmd_pn(args) -> int:
    p = construct.build_pn(args.n)
    if args.basis == "raw":
        if args.format == "json":
            text = json.dumps(p.to_json()) + "\n"
        else:
            text = str(p) + "\n"
    else:
        g = symdecomp.decompose(p)
        if args.format == "json":
            text = json.dumps(g.to_json()) + "\n"
        else:
            text = g.text(conjectures.format_factored) + "\n"
    _emit(text, args.output)
    return 0


# -- newton ---------------------------------------------------------------------

def cmd_newton(args) -> int:
    p = construct.build_pn(args.n)
    poly = newton.newton_polytope(p)
    simplex = newton.is_k_simplex(poly, args.n, 2)
    if args.format == "svg":
        _emit(newton.render_svg(p), args.output)
    elif args.format == "json":
        data = poly.to_json()
        data["k_simplex"] = simplex
        _emit(json.dumps(data) + "\n", args.output)
    else:
        verts = " ".join("(" + ",".join(map(str, v)) + ")" for v in poly.vertices)
        verdict = "yes" if simplex else "NO"
        _emit(f"p_{args.n}: vertices {verts}; "
              f"k-simplex: {verdict} (k={args.n}, dim=2)\n", args.output)
    return 0 if simplex else 1


# -- scan -------------------------------------------------------------------------

_SCAN_FN = {
    "prime-power": conjectures.scan_prime_power,
    "even-nonzero": conjectures.scan_even_nonzero,
    "factors": conjectures.factor_report,
}


def _eligible(kind: str, max_n: int) -> list[int]:
    if kind == "prime-power":
        return [n for n in range(2, max_n + 1) if conjectures.prime_power(n)]
    if kind == "even-nonzero":
        return [n for n in range(2, max_n + 1, 2)]
    return list(range(1, max_n + 1))


def _report_text(report: conjectures.ScanReport) -> str:
    lines = []
    if report.kind == "factors":
        lines.append(f"n={report.n}")
        for c in report.checks:
            part = "(" + ",".join(map(str, c.partition)) + ")"
            lines.append(f"  {part} A={c.coefficient}: {c.detail}")
    else:
        counted = [c for c in report.checks if c.verdict != "info"]
        good = sum(1 for c in counted if c.verdict == "pass")
        lines.append(f"{report.kind} n={report.n}: {report.overall} "
                     f"({good}/{len(counted)} checks)")
        for c in counted:
            if c.verdict == "fail":
                part = "(" + ",".join(map(str, c.partition)) + ")"
                lines.append(f"  FLAG {part} A={c.coefficient}: {c.detail}")
    return "\n".join(lines) + "\n"


def cmd_scan(args) -> int:
    # each report is written as soon as it is computed; JSON as one list
    fn = _SCAN_FN[args.kind]
    as_json = args.format == "json"
    failed = False
    with _output(args.output) as out:
        out.write("[" if as_json else "")
        for i, n in enumerate(_eligible(args.kind, args.max_n)):
            report = fn(n)
            failed = failed or report.overall == "fail"
            if as_json:
                out.write((", " if i else "") + json.dumps(report.to_json()))
            else:
                out.write(_report_text(report))
            out.flush()
        out.write("]\n" if as_json else "")
    return 1 if failed else 0


# -- axioms -----------------------------------------------------------------------

def _sample_disk(rng: random.Random) -> complex:
    r = math.sqrt(rng.random())
    theta = 2 * math.pi * rng.random()
    return complex(r * math.cos(theta), r * math.sin(theta))


def cmd_axioms(args) -> int:
    n, samples, tol = args.n, args.samples, args.tol
    rng = random.Random(args.seed)
    unit = inverse = assoc = roots = 0
    for _ in range(samples):
        x = _sample_disk(rng)
        y = _sample_disk(rng)
        z = _sample_disk(rng)
        if mvgroup.mul_n(0, x, n) == [x] * n:
            unit += 1
        if mvgroup.contains_zero(mvgroup.mul_n(mvgroup.inv(x, n), x, n), tol):
            inverse += 1
        if mvgroup.check_associativity(x, y, z, n, tol):
            assoc += 1
        if mvgroup.roots_match_pn(x, y, n, tol):
            roots += 1
    results = {"unit": unit, "inverse": inverse,
               "associativity": assoc, "roots-vs-multiset": roots}
    ok = all(v == samples for v in results.values())
    if args.format == "json":
        data = {"n": n, "samples": samples, "tol": tol, "seed": args.seed,
                "results": results, "overall": "pass" if ok else "fail"}
        _emit(json.dumps(data) + "\n", args.output)
    else:
        lines = [f"n={n} samples={samples} tol={tol} seed={args.seed}"]
        lines += [f"{name}: {v}/{samples}" for name, v in results.items()]
        lines.append(f"overall: {'pass' if ok else 'FAIL'}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if ok else 1


# -- parser -------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nvalue",
        description="n-valued group multiplication polynomials: exact tables, "
                    "Newton polytopes, conjecture scans, numeric axiom checks.")
    sub = ap.add_subparsers(dest="command", required=True)

    p_pn = sub.add_parser("pn", help="print p_n")
    p_pn.add_argument("--n", type=_positive_int, required=True)
    p_pn.add_argument("--basis", choices=("raw", "e"), default="e")
    p_pn.add_argument("--format", choices=("text", "json"), default="text")
    p_pn.add_argument("--output", "-o", default=None)
    p_pn.set_defaults(fn=cmd_pn)

    p_nw = sub.add_parser("newton", help="Newton polytope of p_n")
    p_nw.add_argument("--n", type=_positive_int, required=True)
    p_nw.add_argument("--format", choices=("text", "json", "svg"), default="text")
    p_nw.add_argument("--output", "-o", default=None)
    p_nw.set_defaults(fn=cmd_newton)

    p_sc = sub.add_parser("scan", help="coefficient scans over n")
    p_sc.add_argument("--kind", choices=tuple(_SCAN_FN), required=True)
    p_sc.add_argument("--max-n", type=_positive_int, required=True)
    p_sc.add_argument("--format", choices=("text", "json"), default="text")
    p_sc.add_argument("--output", "-o", default=None)
    p_sc.set_defaults(fn=cmd_scan)

    p_ax = sub.add_parser("axioms", help="numeric group-axiom sweeps")
    p_ax.add_argument("--n", type=_positive_int, required=True)
    p_ax.add_argument("--samples", type=_positive_int, default=100)
    p_ax.add_argument("--tol", type=_positive_float, default=1e-7)
    p_ax.add_argument("--seed", type=int, default=0)
    p_ax.add_argument("--format", choices=("text", "json"), default="text")
    p_ax.add_argument("--output", "-o", default=None)
    p_ax.set_defaults(fn=cmd_axioms)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "max_n", None) is not None and args.max_n < 2:
        print("scan requires --max-n >= 2", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
