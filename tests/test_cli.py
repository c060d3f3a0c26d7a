import cmath
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import count_comparisons

import nvalue
from nvalue import conjectures, construct, mvgroup, symdecomp
from nvalue.cli import main
from nvalue.symdecomp import EBasisPolynomial

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestPnGolden:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_ebasis_text(self, capsys, n):
        code, out = run_cli(capsys, "pn", "--n", str(n), "--basis", "e")
        assert code == 0
        assert out == (GOLDEN / f"pn_e_{n}.txt").read_text()

    @pytest.mark.parametrize("n", (1, 2))
    def test_raw_text(self, capsys, n):
        code, out = run_cli(capsys, "pn", "--n", str(n), "--basis", "raw")
        assert code == 0
        assert out == (GOLDEN / f"pn_raw_{n}.txt").read_text()

    def test_ebasis_json_p7_has_5_terms(self, capsys):
        code, out = run_cli(capsys, "pn", "--n", "7", "--basis", "e",
                            "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 7
        assert len(data["terms"]) == 5

    def test_raw_json_round_trips(self, capsys):
        from nvalue.construct import build_pn
        code, out = run_cli(capsys, "pn", "--n", "4", "--basis", "raw",
                            "--format", "json")
        assert code == 0
        assert json.loads(out) == build_pn(4).to_json()


class TestPnDigests:
    # SHA-256 of stdout past the golden files' range, as the monomial-row
    # builder and the untruncated decompose printed it
    @pytest.mark.slow
    @pytest.mark.parametrize("n, basis, digest", [
        (64, "e", "2109cc468a1a8bd5910cf0f10a82297cd3c3880d70bf2f5c3dfef4e70eea0bda"),
        (64, "raw", "108eec05e006336c04297c0b111c7f2d181a6e6203e19a6626cb59f3d376db75"),
        (96, "e", "9513e808ca8ce4863e061cad275234ad3d562514162deabc9af24007e7858292"),
        (96, "raw", "93028118b964a3ddcf41bebf45320d52b50ef9b3475f24e12e9d2c647d5df504"),
    ], ids=("64-e", "64-raw", "96-e", "96-raw"))
    def test_json(self, capsys, n, basis, digest):
        code, out = run_cli(capsys, "pn", "--n", str(n), "--basis", basis,
                            "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestScanDigests:
    # SHA-256 of stdout to --max-n 40, as the indexed Newton and peel loops printed it
    @pytest.mark.parametrize("kind, digest", [
        ("prime-power", "6f1d8cc1ac1bfe204800f6de1650fed28234cfed93ff09cc20ce589cde2b7bb3"),
        ("even-nonzero", "dccee482647b973c92f3284d4f712f61ff50422737d24da4979b6c23e3baec64"),
        ("proposition", "198d6e1156a38f1a82f4d4a3573dac79033eba11b68303cdb357dcde36b133b2"),
    ], ids=("prime-power", "even-nonzero", "proposition"))
    def test_json(self, capsys, kind, digest):
        code, out = run_cli(capsys, "scan", "--kind", kind, "--max-n", "40", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestTablePath:
    """pn --basis e and every scan peel the builder's s, p rows: they
    neither build the full polynomial nor check its symmetry, nor convert
    the rows to p_n's coefficients at partitions and back."""

    @pytest.fixture(autouse=True)
    def no_full_polynomial(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the full polynomial or its coefficients at partitions were built")

        monkeypatch.setattr(construct, "build_pn", forbidden)
        monkeypatch.setattr(symdecomp, "decompose", forbidden)
        # in every module of the package that binds it
        for info in pkgutil.iter_modules(nvalue.__path__):
            module = importlib.import_module(f"nvalue.{info.name}")
            if hasattr(module, "sp_to_half_row"):
                monkeypatch.setattr(module, "sp_to_half_row", forbidden)

    def test_raw_basis_reaches_the_patch(self, capsys):
        with pytest.raises(AssertionError):
            run_cli(capsys, "pn", "--n", "10", "--basis", "raw")

    @pytest.mark.parametrize("fmt", ("text", "json"))
    def test_pn_ebasis(self, capsys, fmt):
        code, out = run_cli(capsys, "pn", "--n", "10", "--basis", "e", "--format", fmt)
        assert code == 0
        assert out.startswith("e1^10 - ") if fmt == "text" else json.loads(out)["n"] == 10

    @pytest.mark.parametrize("kind", tuple(conjectures.SCANS))
    def test_scan(self, capsys, kind):
        code, out = run_cli(capsys, "scan", "--kind", kind, "--max-n", "10")
        assert code == 0
        assert out


class TestNewtonCommand:
    def test_text_golden(self, capsys):
        lines = []
        for n in range(1, 8):
            code, out = run_cli(capsys, "newton", "--n", str(n))
            assert code == 0
            lines.append(out)
        assert "".join(lines) == (GOLDEN / "newton_text_1_7.txt").read_text()

    def test_json(self, capsys):
        code, out = run_cli(capsys, "newton", "--n", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["degree"] == 4
        assert data["k_simplex"] is True
        assert sorted(map(tuple, data["vertices"])) == [
            (0, 0, 4), (0, 4, 0), (4, 0, 0)]

    def test_svg_golden(self, capsys):
        code, out = run_cli(capsys, "newton", "--n", "2", "--format", "svg")
        assert code == 0
        assert out == (GOLDEN / "newton_2.svg").read_text()


class TestScanCommand:
    def test_factors_golden(self, capsys):
        code, out = run_cli(capsys, "scan", "--kind", "factors", "--max-n", "7")
        assert code == 0
        assert out == (GOLDEN / "scan_factors_7.txt").read_text()

    @pytest.mark.parametrize("max_n", range(2, 41))
    @pytest.mark.parametrize("kind", ("prime-power", "even-nonzero", "factors", "proposition"))
    def test_reports_the_n_each_kind_applies_to(self, capsys, monkeypatch, kind, max_n):
        def applies(n):
            if kind == "prime-power":
                primes = [p for p in range(2, n + 1) if all(p % q for q in range(2, p))]
                return sum(n % p == 0 for p in primes) == 1
            return kind != "even-nonzero" or n % 2 == 0

        if kind == "factors":
            # trial division does not finish past n = 11; the n visited do not
            # depend on the factors found
            monkeypatch.setattr(conjectures, "factorize", lambda m: [(m, 1)])
        code, out = run_cli(capsys, "scan", "--kind", kind, "--max-n", str(max_n),
                            "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert [r["n"] for r in reports] == [n for n in range(1, max_n + 1) if applies(n)]
        overall = "exploratory" if kind == "factors" else "pass"
        assert all(r["overall"] == overall for r in reports)

    def test_proposition_flags_a_wrong_coefficient(self, capsys, monkeypatch):
        # A_{4,2,0} of p_6 off by one is a counterexample to the Proposition
        real = conjectures.decompose_rows

        def decompose_rows(n, rows):
            g = real(n, rows)
            return EBasisPolynomial(6, {**g.coeffs, (4, 2, 0): 49}) if n == 6 else g

        monkeypatch.setattr(conjectures, "decompose_rows", decompose_rows)
        code, out = run_cli(capsys, "scan", "--kind", "proposition", "--max-n", "8")
        assert code == 1
        assert "proposition n=6: fail (2/3 checks)\n" \
               "  FLAG (4,2,0) A=49: closed form gives 48: potential counterexample\n" in out
        assert "proposition n=8: pass (4/4 checks)\n" in out

    def test_streams_each_report_before_the_next_n(self, tmp_path, monkeypatch):
        target = tmp_path / "scan.txt"
        written_before = {}

        def factor_report(n):
            written_before[n] = target.read_text()
            return conjectures.factor_report(n)

        monkeypatch.setitem(conjectures.SCANS, "factors", factor_report)
        code = main(["scan", "--kind", "factors", "--max-n", "7", "-o", str(target)])
        assert code == 0
        golden = (GOLDEN / "scan_factors_7.txt").read_text()
        assert target.read_text() == golden
        assert written_before[1] == ""
        assert written_before[2] == golden[:golden.index("n=2\n")]

    def test_max_n_below_two_is_usage_error(self, capsys):
        assert main(["scan", "--kind", "factors", "--max-n", "1"]) == 2

    def test_max_n_below_two_creates_no_output(self, tmp_path, capsys):
        target = tmp_path / "scan.txt"
        assert main(["scan", "--kind", "factors", "--max-n", "1", "-o", str(target)]) == 2
        assert capsys.readouterr().err == "error: scan requires --max-n >= 2\n"
        assert not target.exists()


class TestAxiomsCommand:
    def test_sweep_passes(self, capsys):
        code, out = run_cli(capsys, "axioms", "--n", "2", "--samples", "25",
                            "--tol", "1e-7", "--seed", "42")
        assert code == 0
        assert "unit: 25/25" in out
        assert "associativity: 25/25" in out
        assert "roots-vs-multiset: 25/25" in out
        assert out.strip().endswith("overall: pass")

    @pytest.mark.parametrize("name, broken", (
        ("nth_root", lambda nth_root: lambda x, n: nth_root(x, n) * (1 + 1e-6)),
        ("_unity", lambda unity: lambda n: tuple(w * cmath.exp(1e-6j) for w in unity(n)))),
        ids=("nth_root", "_unity"))
    def test_unit_count_can_fail(self, capsys, monkeypatch, name, broken):
        # the unit is checked through the product formula, so a broken
        # principal root or root of unity shows in its count
        monkeypatch.setattr(mvgroup, name, broken(getattr(mvgroup, name)))
        code, out = run_cli(capsys, "axioms", "--n", "4", "--samples", "20")
        assert code == 1
        assert int(re.search(r"^unit: (\d+)/20$", out, re.M)[1]) < 20

    def test_deterministic_given_seed(self, capsys):
        _, first = run_cli(capsys, "axioms", "--n", "3", "--samples", "10",
                           "--seed", "7", "--format", "json")
        _, second = run_cli(capsys, "axioms", "--n", "3", "--samples", "10",
                            "--seed", "7", "--format", "json")
        assert first == second

    def test_n1_trivial(self, capsys):
        code, out = run_cli(capsys, "axioms", "--n", "1", "--samples", "10",
                            "--seed", "1")
        assert code == 0
        assert "overall: pass" in out

    def test_n4_tighter_tolerance(self, capsys):
        code, out = run_cli(capsys, "axioms", "--n", "4", "--samples", "50",
                            "--tol", "1e-6", "--seed", "7")
        assert code == 0
        assert "roots-vs-multiset: 50/50" in out

    @pytest.mark.parametrize("argv", (
        pytest.param(["--n", "47"], id="47"),
        pytest.param(["--n", "64", "--samples", "20"], id="64"),
        pytest.param(["--n", "64"], id="64-defaults", marks=pytest.mark.slow),
        pytest.param(["--n", "96", "--samples", "20"], id="96", marks=pytest.mark.slow)))
    def test_past_double_range(self, capsys, argv):
        # p_47's largest coefficient has 1029 bits, past double range; the
        # roots are checked with each row of p_n scaled by the roots' sizes
        code, out = run_cli(capsys, "axioms", *argv)
        assert code == 0
        assert out.strip().endswith("overall: pass")

    @pytest.mark.parametrize("argv, results", (
        (["--n", "5", "--tol", "3e-15"],
         {"unit": 200, "inverse": 200, "associativity": 195, "roots-vs-multiset": 200}),
        (["--n", "16", "--tol", "1e-14"],
         {"unit": 173, "inverse": 200, "associativity": 0, "roots-vs-multiset": 200})),
        ids=("5", "16"))
    def test_counts_at_rounding_tolerances(self, capsys, argv, results):
        # at these tolerances the verdicts are mixed, so a change in any
        # float product or pairing order moves a count
        code, out = run_cli(capsys, "axioms", *argv, "--samples", "200", "--seed", "1",
                            "--format", "json")
        assert code == 1
        assert json.loads(out)["results"] == results

    def test_failing_samples_cost_bounded_comparisons(self, capsys, monkeypatch):
        # each sample fails associativity at this tol, so its two sides of
        # 47^2 values reach the tolerance graph: an all-pairs graph makes
        # 19 518 942 comparisons here, the real-part window about 61 000
        count = count_comparisons(monkeypatch)
        code, out = run_cli(capsys, "axioms", "--n", "47", "--samples", "4",
                            "--tol", "3e-15", "--seed", "1")
        assert code == 1
        assert out.splitlines()[1:] == ["unit: 0/4", "inverse: 4/4", "associativity: 0/4",
                                        "roots-vs-multiset: 4/4", "overall: FAIL"]
        assert count[0] <= 100_000


class TestUsageErrors:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_bad_n(self):
        with pytest.raises(SystemExit) as err:
            main(["pn", "--n", "0"])
        assert err.value.code == 2

    def test_bad_choice(self):
        with pytest.raises(SystemExit) as err:
            main(["scan", "--kind", "bogus", "--max-n", "5"])
        assert err.value.code == 2

    @pytest.mark.parametrize("tol", ("nan", "inf", "-inf", "-1", "0", "abc"))
    def test_bad_tol(self, capsys, tol):
        with pytest.raises(SystemExit) as err:
            main(["axioms", "--n", "3", "--samples", "5", "--tol", tol])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert "--tol" in captured.err
        assert captured.out == ""

    def test_scan_max_n_below_two(self, capsys):
        assert main(["scan", "--kind", "prime-power", "--max-n", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", (["pn", "--n", "3"],
                                      ["scan", "--kind", "prime-power", "--max-n", "3"]))
    def test_output_into_missing_directory(self, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "x.txt"
        assert main(argv + ["-o", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""


class TestOutputFile:
    def test_output_flag(self, tmp_path, capsys):
        target = tmp_path / "p3.txt"
        code = main(["pn", "--n", "3", "--basis", "e", "-o", str(target)])
        assert code == 0
        assert target.read_text() == (GOLDEN / "pn_e_3.txt").read_text()
        assert capsys.readouterr().out == ""


def run_python(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that finds the package under src/."""
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


class TestSubprocess:
    def test_exact_layers_load_no_numpy_or_scipy(self):
        proc = run_python(
            "import sys\n"
            "import nvalue.polyring, nvalue.construct, nvalue.symdecomp\n"
            "import nvalue.newton, nvalue.conjectures\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_cli_loads_no_scipy(self):
        proc = run_python(
            "import sys\n"
            "import nvalue.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_cli_loads_no_dataclasses(self):
        proc = run_python("import sys\nimport nvalue.cli\nprint('dataclasses' in sys.modules)\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_exact_commands_load_no_numpy(self):
        proc = run_python(
            "import contextlib, io, sys\n"
            "import nvalue.mvgroup, nvalue.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['pn', '--n', '2']) == 0\n"
            "print('numpy' in sys.modules)\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_axioms_loads_no_numpy(self):
        proc = run_python(
            "import contextlib, io, sys\n"
            "import nvalue.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['axioms', '--n', '2', '--samples', '1']) == 0\n"
            "assert cli.mvgroup.eq_multiset([0j, 6e-8 + 1j], [5e-8, 3e-8 + 1j], 1e-7)\n"
            "print('numpy' in sys.modules)\n")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_benchmark_tracer_finds_what_it_wraps(self):
        # in a fresh interpreter, so that the wrappers reach no other test
        proc = run_python(
            "import contextlib, io, json, sys\n"
            f"sys.path.insert(0, {str(ROOT / 'benchmarks')!r})\n"
            "import nvalue.cli as cli\n"
            "from spans import Tracer\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['newton', '--n', '3', '--format', 'json']) == 0\n"
            "    assert cli.main(['scan', '--kind', 'prime-power', '--max-n', '4']) == 0\n"
            "    assert cli.main(['axioms', '--n', '2', '--samples', '1']) == 0\n"
            "print(json.dumps(tracer.calls))\n")
        assert proc.returncode == 0, proc.stderr
        calls = json.loads(proc.stdout)
        for span in ("construct.build_pn", "newton.newton_polytope",
                     "conjectures.scan_prime_power", "mvgroup.roots_match_pn",
                     "mvgroup.eq_multiset"):
            assert calls.get(span, 0) > 0, span

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nvalue.cli", "pn", "--n", "5", "--basis", "e"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "pn_e_5.txt").read_text()
