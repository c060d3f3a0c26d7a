"""Self-tests of the benchmark's checkers: each accepts the program's real
output and rejects a corrupted copy of it.

    python3 -m pytest benchmarks
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

POINTS = checks.sample_points(random.Random(7), 2)
POINTS_BY_N = {n: POINTS for n in range(1, 13)}


def cli_output(*argv: str) -> str:
    from nvalue import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


# -- the independent arithmetic ---------------------------------------------------

def test_is_prime_matches_sieve():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 45):
        for j in range(i * i, 2000, i):
            sieve[j] = False
    assert [m for m in range(2000) if checks.is_prime(m)] == \
        [m for m in range(2000) if sieve[m]]
    assert checks.is_prime(110959140391129237)
    assert not checks.is_prime(3215031751)       # strong pseudoprime to 2, 3, 5, 7


def test_partition_count_matches_enumeration():
    for n in range(40):
        assert len(checks.partitions3(n)) == checks.partitions3_count(n)


def test_defining_product_small_cases():
    # n = 1: z - (a + b); n = 2: (z - (a + b)^2)(z - (a - b)^2)
    assert checks.defining_product(1, 2, 3, 10) == 5
    assert checks.defining_product(2, 1, 2, 5) == (5 - 9) * (5 - 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_defining_product_agrees_with_cyclotomic_builder(n):
    # nvalue's own oracle, the symbolic product in Z[t]/Phi_n, gives the
    # same values as the circulant determinant the benchmark checks with
    from nvalue.construct import build_pn_cyclo
    p = build_pn_cyclo(n)
    sign = -1 if n % 2 else 1
    for a, b, z in [(1, 2, 5), (-3, 1, 7), (2, -2, -11)]:
        point = (sign * a ** n, sign * b ** n, z)
        value = sum(c * point[0] ** i * point[1] ** j * point[2] ** k
                    for (i, j, k), c in p.sorted_terms())
        assert value == checks.defining_product(n, a, b, z)


# -- tables ------------------------------------------------------------------------

@pytest.mark.parametrize("n", (6, 7))
def test_pn_json_accepts_real_and_rejects_flipped_coefficient(n):
    text = cli_output("pn", "--n", str(n), "--basis", "e", "--format", "json")
    assert checks.check_pn_json(n, text, POINTS) == []
    data = json.loads(text)
    for term in data["terms"]:
        bad = json.loads(text)
        flipped = next(t for t in bad["terms"] if t["k"] == term["k"])
        flipped["A"] = str(-int(flipped["A"]))
        assert checks.check_pn_json(n, json.dumps(bad), POINTS), term["k"]


def test_pn_json_rejects_e3_term_change_by_evaluation_alone():
    text = cli_output("pn", "--n", "8", "--basis", "e", "--format", "json")
    bad = json.loads(text)
    term = next(t for t in bad["terms"] if t["k"][2] > 0)
    term["A"] = str(int(term["A"]) + 1)
    errors = checks.check_pn_json(8, json.dumps(bad), POINTS)
    assert errors and all("defining product" in e for e in errors)


def test_newton_rejects_wrong_vertex():
    text = cli_output("newton", "--n", "9", "--format", "json")
    assert checks.check_newton_json(9, text) == []
    bad = json.loads(text)
    bad["vertices"][1] = [8, 1, 0]
    assert checks.check_newton_json(9, json.dumps(bad))


# -- scans -------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ("prime-power", "even-nonzero"))
def test_scan_json_accepts_real_and_rejects_corruption(kind):
    text = cli_output("scan", "--kind", kind, "--max-n", "9", "--format", "json")
    assert checks.check_scan_json(kind, 9, text, POINTS_BY_N) == []
    reports = json.loads(text)
    dropped = json.loads(text)
    dropped.pop()
    assert checks.check_scan_json(kind, 9, json.dumps(dropped), POINTS_BY_N)
    verdict = json.loads(text)
    verdict[-1]["checks"][-1]["verdict"] = "fail"
    assert checks.check_scan_json(kind, 9, json.dumps(verdict), POINTS_BY_N)
    value = json.loads(text)
    value[-1]["checks"][-1]["A"] = str(int(reports[-1]["checks"][-1]["A"]) * 3)
    assert checks.check_scan_json(kind, 9, json.dumps(value), POINTS_BY_N)


# -- factors -----------------------------------------------------------------------

def test_pn_text_accepts_real_and_rejects_wrong_factor():
    text = cli_output("pn", "--n", "6")
    assert checks.check_pn_text(6, text, POINTS) == []
    # 2^2·3 -> 2^2·5: a prime, but the wrong one
    assert checks.check_pn_text(6, text.replace("2^2·3 e1^4", "2^2·5 e1^4", 1), POINTS)
    # 2·3^4·17 -> 2·3^4·15: a composite base
    assert checks.check_pn_text(6, text.replace("·17", "·15", 1), POINTS)


def test_scan_factors_accepts_real_and_rejects_wrong_factor():
    text = cli_output("scan", "--kind", "factors", "--max-n", "7")
    assert checks.check_scan_factors_text(7, text, POINTS_BY_N) == []
    # a wrong prime factor, with A left as printed
    wrong = text.replace("A=-12312: -2^3·3^4·19", "A=-12312: -2^3·3^4·17")
    assert wrong != text
    assert checks.check_scan_factors_text(7, wrong, POINTS_BY_N)
    # the right product, but with A changed to match the wrong factor
    both = text.replace("A=-12312: -2^3·3^4·19", "A=-11016: -2^3·3^4·17")
    assert checks.check_scan_factors_text(7, both, POINTS_BY_N)
    # a missing "shares" note
    assert checks.check_scan_factors_text(
        7, text.replace("5^5 (shares 5 with n)", "5^5"), POINTS_BY_N)
    # a composite base whose value still multiplies back to A
    assert checks.check_scan_factors_text(
        7, text.replace("A=-8: -2^3", "A=-8: -8"), POINTS_BY_N)


# -- axioms ------------------------------------------------------------------------

def test_axioms_rejects_count_one_short():
    text = cli_output("axioms", "--n", "4", "--samples", "20", "--seed", "5")
    assert checks.check_axioms_text(4, 20, 5, text) == []
    for name in ("unit", "inverse", "associativity", "roots-vs-multiset"):
        bad = text.replace(f"{name}: 20/20", f"{name}: 19/20")
        assert bad != text
        assert checks.check_axioms_text(4, 20, 5, bad), name


# -- the runner's own pieces -------------------------------------------------------

def test_importtime_parser():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   nvalue.polyring",
        "import time:       200 |       3000 |       numpy",
        "import time:        50 |        500 |         scipy",
        "import time:       100 |       7000 |       scipy.optimize",
        "import time:       300 |      10300 |     nvalue.mvgroup",
        "import time:       100 |      10500 |   nvalue",
        "import time:       100 |      10600 | nvalue.cli",
    ])
    numeric, own = run.parse_importtime(report)
    assert numeric == pytest.approx(0.010)
    assert own == pytest.approx(0.0006)


def test_benchmark_json_names_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = {k: unit for k, (_, unit) in Tracer().metrics().items()}
    emitted.update({"setup.numeric_import_s": "s", "setup.nvalue_import_s": "s"})
    assert declared == emitted
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
