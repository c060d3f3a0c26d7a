import json
import math

import pytest

from nvalue import conjectures
from nvalue.conjectures import (
    NotEven,
    NotPrimePower,
    factor_report,
    factorize,
    format_factored,
    prime_power,
    scan_even_nonzero,
    scan_prime_power,
    verify_proposition,
)
from nvalue.construct import build_pn
from nvalue.symdecomp import EBasisPolynomial, decompose, partitions3


class TestPartitions:
    def test_of_4(self):
        assert partitions3(4) == [(4, 0, 0), (3, 1, 0), (2, 2, 0), (2, 1, 1)]

    def test_of_9_has_12(self):
        parts = partitions3(9)
        assert len(parts) == 12
        assert len(set(parts)) == 12
        assert all(k1 >= k2 >= k3 >= 0 and k1 + k2 + k3 == 9
                   for k1, k2, k3 in parts)

    def test_descending_order(self):
        parts = partitions3(7)
        assert parts == sorted(parts, reverse=True)


class TestPrimePower:
    def test_recognized(self):
        assert prime_power(2) == (2, 1)
        assert prime_power(9) == (3, 2)
        assert prime_power(16) == (2, 4)

    def test_rejected(self):
        assert prime_power(1) is None
        assert prime_power(6) is None
        assert prime_power(12) is None


class TestFactorize:
    def test_small(self):
        assert factorize(12312) == [(2, 3), (3, 4), (19, 1)]
        assert factorize(1) == []

    def test_round_trip(self):
        for m in (1, 2, 97, 5764801, 185193, 2 ** 20 * 3 ** 5 * 17):
            assert math.prod(p ** e for p, e in factorize(m)) == m

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_format(self):
        assert format_factored(-12312) == "-2^3·3^4·19"
        assert format_factored(1) == "1"
        assert format_factored(-1) == "-1"
        assert format_factored(0) == "0"
        assert format_factored(7 ** 8) == "7^8"


class TestVerifyProposition:
    @staticmethod
    def checked(rep):
        return [(c.partition, c.coefficient) for c in rep.checks if c.verdict != "info"]

    def test_n2(self):
        rep = verify_proposition(2)
        assert rep.kind == "proposition"
        assert rep.overall == "pass"
        assert self.checked(rep) == [((1, 1, 0), -4)]

    def test_n6(self):
        rep = verify_proposition(6)
        assert rep.overall == "pass"
        assert self.checked(rep) == [((5, 1, 0), -12), ((4, 2, 0), 48), ((3, 3, 0), -64)]

    def test_n7_all_vanish(self):
        rep = verify_proposition(7)
        assert rep.overall == "pass"
        assert self.checked(rep) == [((6, 1, 0), 0), ((5, 2, 0), 0), ((4, 3, 0), 0)]

    def test_wrong_coefficient_fails(self, monkeypatch):
        # A_{4,2,0} of p_6 off by one is a counterexample, flagged as such
        g = decompose(build_pn(6))
        wrong = EBasisPolynomial(6, {**g.coeffs, (4, 2, 0): 49})
        monkeypatch.setattr(conjectures, "decompose_rows", lambda n, rows: wrong)
        rep = verify_proposition(6)
        assert rep.overall == "fail"
        assert [c.partition for c in rep.checks if c.verdict == "fail"] == [(4, 2, 0)]

    def test_rejects_nonpositive(self):
        # raised by pn_rows, as for the other scans
        with pytest.raises(ValueError, match="n must be >= 1"):
            verify_proposition(0)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_range(self, n):
        assert verify_proposition(n).overall == "pass"

    @pytest.mark.slow
    @pytest.mark.parametrize("n", (64, 96, 128))
    def test_passes_at_large_n(self, n):
        assert verify_proposition(n).overall == "pass"


class TestScanPrimePower:
    def test_n4_passes(self):
        rep = scan_prime_power(4)
        assert rep.overall == "pass"
        by_part = {c.partition: c for c in rep.checks}
        assert by_part[(4, 0, 0)].verdict == "info"
        assert by_part[(3, 1, 0)].coefficient == -8
        assert all(c.verdict == "pass" for c in rep.checks if c.verdict != "info")

    def test_n9_all_partitions_reported(self):
        rep = scan_prime_power(9)
        assert [c.partition for c in rep.checks] == partitions3(9)
        assert rep.overall == "pass"

    def test_composite_rejected(self):
        with pytest.raises(NotPrimePower):
            scan_prime_power(6)

    @pytest.mark.parametrize("n", (2, 3, 5, 7, 8, 11))
    def test_known_prime_powers_pass(self, n):
        assert scan_prime_power(n).overall == "pass"

    @pytest.mark.slow
    @pytest.mark.parametrize("n", (27, 32, 49, 64, 81, 128))
    def test_passes_past_16(self, n):
        assert scan_prime_power(n).overall == "pass"

    def test_pn_is_a_sum_of_powers_mod_p(self):
        # the proof behind the scan: for n = p^m, p_n = x^n + y^n + z^n mod p
        ns = [n for n in range(2, 65) if prime_power(n)]
        assert len(ns) == 27
        for n in ns:
            p, _ = prime_power(n)
            pure = {(n, 0, 0), (0, n, 0), (0, 0, n)}
            residues = {e: c % p for e, c in build_pn(n).sorted_terms()}
            assert residues == {e: int(e in pure) for e in residues.keys() | pure}, n


class TestScanEvenNonzero:
    def test_n6(self):
        rep = scan_even_nonzero(6)
        assert rep.overall == "pass"
        assert len(rep.checks) == 7
        assert all(c.verdict == "pass" for c in rep.checks)

    def test_n4(self):
        rep = scan_even_nonzero(4)
        assert rep.overall == "pass"
        assert len(rep.checks) == 4

    def test_odd_rejected(self):
        with pytest.raises(NotEven):
            scan_even_nonzero(7)

    @pytest.mark.parametrize("n", (8, 10, 12, 14))
    def test_exploratory_range_reports(self, n):
        rep = scan_even_nonzero(n)
        assert rep.overall in ("pass", "fail")
        assert len(rep.checks) == len(partitions3(n))

    @pytest.mark.slow
    @pytest.mark.parametrize("n", range(14, 41, 2))
    def test_passes_past_12(self, n):
        assert scan_even_nonzero(n).overall == "pass"


class TestFactorReport:
    def test_n6_e3_squared(self):
        rep = factor_report(6)
        by_part = {c.partition: c for c in rep.checks}
        assert by_part[(2, 2, 2)].detail.startswith("3^3·19^3")
        assert rep.overall == "exploratory"

    def test_n7_entries(self):
        rep = factor_report(7)
        details = {c.partition: c.detail for c in rep.checks}
        assert details[(5, 1, 1)].startswith("-5·7^4")
        assert details[(4, 2, 1)].startswith("2·7^6")
        assert details[(3, 3, 1)].startswith("-7^7")
        assert details[(3, 2, 2)].startswith("7^8")
        assert all("shares 7 with n" in details[k]
                   for k in ((5, 1, 1), (4, 2, 1), (3, 3, 1), (3, 2, 2)))

    def test_n1_trivial(self):
        rep = factor_report(1)
        assert len(rep.checks) == 1
        assert rep.checks[0].partition == (1, 0, 0)
        assert rep.checks[0].coefficient == 1

    def test_rejects_nonpositive(self):
        # raised by pn_rows, before any coefficient is factored
        with pytest.raises(ValueError, match="n must be >= 1"):
            factor_report(0)

    def test_factorizations_multiply_back(self):
        for n in range(1, 9):
            for c in factor_report(n).checks:
                if c.coefficient:
                    prod = math.prod(p ** e for p, e in factorize(abs(c.coefficient)))
                    assert prod == abs(c.coefficient)

    @pytest.mark.parametrize("n, expected", ((1, 1), (6, 8), (9, 9), (11, 12)))
    def test_factors_each_coefficient_once(self, monkeypatch, n, expected):
        # once per nonzero coefficient, plus once for n itself when n > 1
        calls = []

        def counting(m):
            calls.append(m)
            return factorize(m)

        monkeypatch.setattr(conjectures, "factorize", counting)
        rep = factor_report(n)
        nonzero = [abs(c.coefficient) for c in rep.checks if c.coefficient]
        assert sorted(calls) == sorted(nonzero + ([n] if n > 1 else []))
        assert len(calls) == expected


class TestJson:
    def test_schema(self):
        data = json.loads(json.dumps(scan_prime_power(4).to_json()))
        assert data["n"] == 4
        assert data["kind"] == "prime-power"
        assert data["overall"] == "pass"
        for entry in data["checks"]:
            assert set(entry) == {"k", "A", "verdict", "detail"}
            assert entry["verdict"] in ("pass", "fail", "info")
            assert isinstance(entry["A"], str)

    def test_every_partition_once(self):
        data = scan_even_nonzero(8).to_json()
        keys = [tuple(c["k"]) for c in data["checks"]]
        assert sorted(keys) == sorted(set(keys))
        assert set(keys) == set(partitions3(8))
