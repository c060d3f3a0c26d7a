import json
import subprocess
import sys
from pathlib import Path

import pytest

from nvalue import cli, conjectures
from nvalue.cli import main

GOLDEN = Path(__file__).parent / "golden"


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
        from nvalue.polyring import Polynomial
        code, out = run_cli(capsys, "pn", "--n", "4", "--basis", "raw",
                            "--format", "json")
        assert code == 0
        assert Polynomial.from_json(json.loads(out)) == build_pn(4)


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

    def test_prime_power_reports(self, capsys):
        code, out = run_cli(capsys, "scan", "--kind", "prime-power",
                            "--max-n", "9")
        assert code == 0
        for n in (2, 3, 4, 5, 7, 8, 9):
            assert f"prime-power n={n}: pass" in out
        assert "n=6" not in out

    def test_even_nonzero_json(self, capsys):
        code, out = run_cli(capsys, "scan", "--kind", "even-nonzero",
                            "--max-n", "6", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert [r["n"] for r in reports] == [2, 4, 6]
        assert all(r["overall"] == "pass" for r in reports)

    def test_thread_cap_env(self, capsys):
        code, out = run_cli(capsys, "scan", "--kind", "factors", "--max-n", "7")
        assert code == 0
        assert out == (GOLDEN / "scan_factors_7.txt").read_text()

    def test_streams_each_report_before_the_next_n(self, tmp_path, monkeypatch):
        target = tmp_path / "scan.txt"
        written_before = {}

        def factor_report(n):
            written_before[n] = target.read_text()
            return conjectures.factor_report(n)

        monkeypatch.setitem(cli._SCAN_FN, "factors", factor_report)
        code = main(["scan", "--kind", "factors", "--max-n", "7", "-o", str(target)])
        assert code == 0
        golden = (GOLDEN / "scan_factors_7.txt").read_text()
        assert target.read_text() == golden
        assert written_before[1] == ""
        assert written_before[2] == golden[:golden.index("n=2\n")]

    def test_max_n_below_two_is_usage_error(self, capsys):
        assert main(["scan", "--kind", "factors", "--max-n", "1"]) == 2


class TestAxiomsCommand:
    def test_sweep_passes(self, capsys):
        code, out = run_cli(capsys, "axioms", "--n", "2", "--samples", "25",
                            "--tol", "1e-7", "--seed", "42")
        assert code == 0
        assert "associativity: 25/25" in out
        assert "roots-vs-multiset: 25/25" in out
        assert out.strip().endswith("overall: pass")

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


class TestOutputFile:
    def test_output_flag(self, tmp_path, capsys):
        target = tmp_path / "p3.txt"
        code = main(["pn", "--n", "3", "--basis", "e", "-o", str(target)])
        assert code == 0
        assert target.read_text() == (GOLDEN / "pn_e_3.txt").read_text()
        assert capsys.readouterr().out == ""


class TestSubprocess:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nvalue.cli", "pn", "--n", "5", "--basis", "e"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / "pn_e_5.txt").read_text()
