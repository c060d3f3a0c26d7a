"""Command-line interface.

Subcommands:
    pn      print p_n in the monomial or elementary-symmetric basis
    newton  Newton polytope vertices, simplex verdict, optional SVG
    scan    coefficient scans (prime-power | even-nonzero | factors |
            proposition)
    axioms  seeded numeric sweeps of the group axioms

Exit codes: 0 all checks pass, 1 a check failed (a potential
counterexample; for prime-power, a fault of the pipeline), 2 usage error.
Data goes to stdout (or --output), diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import cmath
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
    if args.basis == "raw":
        p = construct.build_pn(args.n)
        if args.format == "json":
            text = json.dumps(p.to_json()) + "\n"
        else:
            text = str(p) + "\n"
    else:
        g = symdecomp.decompose_rows(args.n, construct.pn_rows(args.n))
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
    simplex = newton.is_k_simplex(poly, args.n)
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

def cmd_scan(args) -> int:
    if args.max_n < 2:
        raise ValueError("scan requires --max-n >= 2")
    # each report is written as soon as it is computed; JSON as one list
    as_json = args.format == "json"
    failed = False
    with _output(args.output) as out:
        out.write("[" if as_json else "")
        for i, report in enumerate(conjectures.scan(args.kind, args.max_n)):
            failed = failed or report.overall == "fail"
            if as_json:
                out.write((", " if i else "") + json.dumps(report.to_json()))
            else:
                out.write(report.text())
            out.flush()
        out.write("]\n" if as_json else "")
    return 1 if failed else 0


# -- axioms -----------------------------------------------------------------------

def cmd_axioms(args) -> int:
    n, samples, tol = args.n, args.samples, args.tol
    rng = random.Random(args.seed)
    unit = inverse = assoc = roots = 0
    for _ in range(samples):
        x, y, z = (cmath.rect(math.sqrt(rng.random()), 2 * math.pi * rng.random())
                   for _ in range(3))
        if mvgroup.eq_multiset(mvgroup.mul_n(0, x, n), [x] * n, tol):
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
    p_sc.add_argument("--kind", choices=tuple(conjectures.SCANS), required=True)
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


# Built once, on import: argparse's first parser imports locale (through
# gettext), and a parser per main() call would repeat that import in every
# process forked after this one, and the build itself in every call.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
