"""End-to-end checks of the command-line front end."""

import ast
import errno
import functools
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as Rational
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from logdgen import cli
from logdgen.cbf import C_STAR_VALUES, MAX_TOTIENT_X, n_of_x, sp_order
from logdgen.cli import main
from logdgen.core import MAX_LITERAL_DIGITS
from logdgen.dualgraph import half_catalog_graph, half_catalog_label
from logdgen.graph import MAX_ANSWER_DIGITS, MAX_PULLBACK_CURVES, DualGraph
from test_core import replace
from test_dualgraph import (ORACLE_CATALOGS, exceptional_chain_and_strict_chain, graph_to_json,
                            per_pair_pullback_coefficients, renamed, renaming, star_with_strict_curve)

FIXTURES = Path(__file__).parent / "fixtures"



def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


PRIMES = _primes_below(27450)  # the 3000th prime is 27449


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


def tsv_pairs(out):
    return dict(line.split("\t", 1) for line in out.strip().splitlines())


class TestTables:
    def test_table_one_parametric_rows(self, capsys):
        code, out, _ = run(capsys, "tables", "I")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[1] == "case\te_p\to_p\tc_p\tdelta_p"
        assert len(lines) == 8
        assert lines[5] == "4\t7\t24\t16/3\t13/8"

    def test_table_four_has_27_rows_and_one_known_discrepancy(self, capsys):
        code, data, _ = run_json(capsys, "tables", "IV")
        assert code == 0
        rows = data["rows"]
        assert len(rows) == 27
        flagged = [r for r in rows if r["note"]]
        assert [r["row"] for r in flagged] == [17]
        assert flagged[0]["e_orb"] == "65/48"
        assert flagged[0]["e_orb_recomputed"] == "17/48"
        for row in rows:
            if row["row"] != 17:
                assert row["e_orb"] == row["e_orb_recomputed"]

    def test_table_five_covers_all_columns(self, capsys):
        code, data, _ = run_json(capsys, "tables", "V")
        assert code == 0
        rows = data["rows"]
        multiplicities = [r["m"] for r in rows if r["column"] == "_mI_b"]
        assert multiplicities == [1, 2, 3, 5]
        fixed = {r["column"]: (r["ell"], r["mu"], r["s"]) for r in rows if r["m"] == 1}
        assert fixed["II*"] == ("6", "0", "5/6")
        assert fixed["I*_b"] == ("2", "0", "1/2")
        assert len({r["column"] for r in rows}) == 8

    def test_tables_six_and_seven_evaluate_at_two_twists(self, capsys):
        code, six, _ = run_json(capsys, "tables", "VI")
        assert code == 0
        code, seven, _ = run_json(capsys, "tables", "VII")
        assert code == 0
        assert len(six["rows"]) == 2 * 20
        assert len(seven["rows"]) == 2 * 7
        for row in six["rows"] + seven["rows"]:
            assert Rational(row["c"]) in C_STAR_VALUES
            assert Rational(row["mu"]) * row["ell"] == Rational(row["c"])

    def test_all_concatenates_with_headers(self, capsys):
        code, out, err = run(capsys, "tables", "ALL")
        assert code == 0 and err == ""
        for name in ("I", "IV", "V", "VI", "VII"):
            assert f"# Table {name}\n" in out

    def test_output_byte_stable(self, capsys):
        one = run(capsys, "tables", "ALL")
        two = run(capsys, "tables", "ALL")
        assert one == two

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_all_tables_match_the_recorded_output(self, capsys, fmt):
        code, out, err = run(capsys, "tables", "ALL", "--format", fmt)
        assert (code, err) == (0, "")
        assert out == (FIXTURES / f"tables_all.{fmt}").read_text()

    def test_unknown_table_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "XI"])
        assert exc.value.code == 2

    def test_tampered_literals_fail_the_cross_check(self, capsys, monkeypatch):
        import logdgen.duval as duval

        catalog = duval.delpezzo_catalog()
        catalog[0] = replace(catalog[0], e_orb=Rational(7, 2))
        monkeypatch.setattr(duval, "delpezzo_catalog", lambda: catalog)
        rows = list(duval.COVER_TABLE_ROWS)
        case, formulas, samples = rows[2]
        rows[2] = (case, formulas, ((*samples[0][:5], Rational(1)), *samples[1:]))
        monkeypatch.setattr(duval, "COVER_TABLE_ROWS", tuple(rows))
        code, _, err = run(capsys, "tables", "ALL")
        assert code == 1
        assert "table IV row 1" in err
        assert "table I case 3" in err

    def test_tampered_abelian_row_fails_the_cross_check(self, capsys, monkeypatch):
        import logdgen.cbf as cbf

        rows = list(cbf.ABELIAN_TABLE_ROWS)
        rows[22] = replace(rows[22], mu_num=rows[22].mu_num + 1)
        monkeypatch.setattr(cbf, "ABELIAN_TABLE_ROWS", tuple(rows))
        code, _, err = run(capsys, "tables", "VII")
        assert code == 1
        assert "table VII row 23" in err
        assert run(capsys, "tables", "VI")[0] == 0

    @pytest.mark.parametrize("index, field, value, line", [
        # c* = mu_num/den = 7 is in no table row's known set
        (0, "mu_num", 7, "table VI row 1: c* = 7 outside the known set"),
        # 3 divides neither sample ell = r = 4 nor 2r = 8
        (1, "divisor", 3, "table VI row 2: divisor 3 fails"),
    ])
    def test_tampered_abelian_row_fails_the_structural_checks(self, capsys, monkeypatch,
                                                              index, field, value, line):
        import logdgen.cbf as cbf

        rows = list(cbf.ABELIAN_TABLE_ROWS)
        rows[index] = replace(rows[index], **{field: value})
        monkeypatch.setattr(cbf, "ABELIAN_TABLE_ROWS", tuple(rows))
        code, _, err = run(capsys, "tables", "VI")
        assert code == 1
        assert f"cross-check mismatch: {line}" in err.splitlines()
        assert run(capsys, "tables", "VII")[0] == 0

    @pytest.mark.parametrize("tampered", [
        (4, Rational(1, 2), Rational(1, 3)),  # s*
        (4, Rational(1, 3), Rational(1, 4)),  # mu*
    ])
    def test_tampered_elliptic_column_fails_the_cross_check(self, capsys, monkeypatch, tampered):
        import logdgen.cbf as cbf

        monkeypatch.setitem(cbf.ELLIPTIC_COLUMNS, "III", tampered)
        code, _, err = run(capsys, "tables", "V")
        assert code == 1
        assert err and all("table V column III (m=1)" in line for line in err.splitlines())
        assert run(capsys, "tables", "I")[0] == 0


class TestGraph:
    def test_recognize_half_catalog_fixture(self, capsys):
        code, out, _ = run(capsys, "graph", FIXTURES / "a_half_gamma.json", "recognize")
        assert code == 0
        verdicts = tsv_pairs(out)
        assert verdicts == {
            "duval": "UNRECOGNIZED",
            "kodaira": "UNRECOGNIZED",
            "half_catalog": "A_1/2-gamma",
            "fibre_type": "UNRECOGNIZED",
        }

    def test_discrepancies_of_half_catalog_fixture(self, capsys):
        code, out, _ = run(capsys, "graph", FIXTURES / "a_half_gamma.json", "discrepancies")
        assert code == 0
        assert tsv_pairs(out) == {"E": "1/2"}

    def test_classify_half_catalog_fixture(self, capsys):
        code, out, _ = run(capsys, "graph", FIXTURES / "a_half_gamma.json", "classify")
        assert code == 0
        assert tsv_pairs(out) == {"class": "LT"}

    def test_a_boundary_on_an_exceptional_curve_is_only_a_marking(self, capsys, tmp_path):
        # The pullback solves for an exceptional curve's coefficient, so it
        # cannot take one as input: E answers as if unmarked.  Only the marked
        # fibre types read such a coefficient.
        path = tmp_path / "marked.json"
        path.write_text(json.dumps({"vertices": [{"id": "E", "self_int": -4, "boundary": "1"}],
                                    "edges": []}))
        answers = [run(capsys, "graph", path, action)[:2]
                   for action in ("recognize", "discrepancies", "classify")]
        assert [code for code, _ in answers] == [0, 0, 0]
        assert [tsv_pairs(out) for _, out in answers] == [
            {"duval": "UNRECOGNIZED", "kodaira": "UNRECOGNIZED", "half_catalog": "A_1/2-gamma",
             "fibre_type": "UNRECOGNIZED"},
            {"E": "1/2"},
            {"class": "LT"},
        ]

    def test_recognize_kodaira_cycle(self, capsys):
        code, out, _ = run(capsys, "graph", FIXTURES / "i3_cycle.json", "recognize")
        assert code == 0
        assert tsv_pairs(out)["kodaira"] == "I_3"

    @pytest.mark.parametrize("role", ["fibre", "exceptional"])
    def test_long_kodaira_cycle_recognized_at_once(self, capsys, tmp_path, role):
        # a ring of 20000 (-2)-curves; an edge scan per vertex ran past 30 s, and
        # exceptional curves made the tree recognizers build 20000-curve catalog graphs
        n = 20_000
        ring = {"vertices": [{"id": f"C{i}", "self_int": -2, "role": role} for i in range(n)],
                "edges": [{"a": f"C{i}", "b": f"C{(i + 1) % n}"} for i in range(n)]}
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(ring))
        start = time.perf_counter()
        code, out, _ = run(capsys, "graph", path, "recognize")
        assert time.perf_counter() - start < 2
        assert code == 0
        assert tsv_pairs(out)["kodaira"] == "I_20000"

    def test_long_chain_is_recognized(self, capsys, tmp_path):
        # 5000 (-2)-curves in a row, far past the interpreter's recursion limit
        n = 5000
        chain = {"vertices": [{"id": f"E{i}", "self_int": -2} for i in range(n)],
                 "edges": [{"a": f"E{i}", "b": f"E{i + 1}"} for i in range(n - 1)]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain))
        code, out, _ = run(capsys, "graph", path, "recognize")
        assert code == 0
        assert tsv_pairs(out)["duval"] == "A_5000"

    def test_wide_pullback_system_answers_at_once(self, capsys, tmp_path):
        # 10 exceptional and 16000 strict curves: reading the boundary term one
        # pair of curves at a time, each by an edge scan, ran past 60 s.  Then
        # the most exceptional curves answered, with 4000 strict ones: a solve
        # that also clears above each pivot fills the chain's upper triangle.
        for exceptional, strict_count in ((10, 16_000), (MAX_PULLBACK_CURVES, 4000)):
            path = tmp_path / "wide.json"
            g = exceptional_chain_and_strict_chain(exceptional, strict_count)
            path.write_text(json.dumps(graph_to_json(g)))
            start = time.perf_counter()
            code, out, _ = run(capsys, "graph", path, "discrepancies")
            assert time.perf_counter() - start < 10
            assert code == 0
            assert tsv_pairs(out) == {f"E{i}": str(Rational(i + 1, 2 * exceptional + 2))
                                      for i in range(exceptional)}
        # A star whose centre is listed first: eliminated in the given order, the
        # centre's row filled every other, and this took 2.1 s.  The oracle
        # eliminates in the given order, so it reads the curves centre last.
        g = star_with_strict_curve(MAX_PULLBACK_CURVES)
        path.write_text(json.dumps(graph_to_json(g)))
        start = time.perf_counter()
        code, out, _ = run(capsys, "graph", path, "discrepancies")
        assert time.perf_counter() - start < 1
        assert code == 0
        expected = per_pair_pullback_coefficients(DualGraph(g.vertices[::-1], g.edges))
        assert tsv_pairs(out) == {vid: str(c) for vid, c in expected.items()}

    def test_unprintable_pullback_answer_is_refused_at_once(self, capsys, tmp_path):
        # 30 curves, every other one of self-intersection -(10^1500 - 1): the
        # elimination ran 15 s before printing the answer failed on str()
        chain = {"vertices": [{"id": f"E{i:03d}", "self_int": -2 if i % 2 else 1 - 10**1500}
                              for i in range(30)],
                 "edges": [{"a": f"E{i:03d}", "b": f"E{i + 1:03d}"} for i in range(29)]}
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(chain))
        start = time.perf_counter()
        code, data, err = run_json(capsys, "graph", path, "discrepancies")
        assert time.perf_counter() - start < 1
        assert code == 1
        assert data["status"] == f"SolverError: the coefficients could have more than {MAX_ANSWER_DIGITS} digits"
        assert "set_int_max_str_digits" not in data["status"] + err

    @pytest.mark.parametrize("family", ["D-alpha", "beta", "D-epsilon", "delta"])
    def test_renamed_long_half_catalog_member_recognized_at_once(self, capsys, tmp_path, family):
        g = half_catalog_graph(family, 30)
        path = tmp_path / "germ.json"
        path.write_text(json.dumps(graph_to_json(renamed(g, random.Random(30)))))
        start = time.perf_counter()
        code, out, _ = run(capsys, "graph", path, "recognize")
        assert time.perf_counter() - start < 1
        assert code == 0
        assert tsv_pairs(out)["half_catalog"] == half_catalog_label(family, 30)

    @pytest.mark.parametrize("action", ["recognize", "discrepancies", "classify"])
    def test_answers_do_not_depend_on_vertex_names(self, capsys, tmp_path, action):
        rng = random.Random(15)
        path = tmp_path / "graph.json"
        for g in [g for share in ORACLE_CATALOGS for g in share if len(g.vertices) <= 12]:
            copy, fresh = renaming(g, rng)
            answers = []
            for graph in (g, copy):
                path.write_text(json.dumps(graph_to_json(graph)))
                code, out, err = run(capsys, "graph", path, action)
                answers.append([code, tsv_pairs(out), err])
            if action == "discrepancies":
                answers[0][1] = {fresh[vid]: c for vid, c in answers[0][1].items()}
            assert answers[0] == answers[1], graph_to_json(g)

    def test_malformed_file_reports_parse_position(self, capsys):
        code, data, _ = run_json(capsys, "graph", FIXTURES / "malformed.json", "recognize")
        assert code == 1
        assert data["status"].startswith("ParseError: line ")
        assert data["results"] == []

    def test_missing_file_is_a_parse_error(self, capsys):
        code, data, _ = run_json(capsys, "graph", "no_such_file.json", "classify")
        assert code == 1
        assert data["status"].startswith("ParseError")

    def test_singular_system_surfaces_as_solver_error(self, capsys, tmp_path):
        # an exceptional (-2)-cycle has a singular intersection matrix
        cycle = {
            "vertices": [{"id": f"C{i}", "self_int": -2} for i in (1, 2, 3)],
            "edges": [
                {"a": "C1", "b": "C2"},
                {"a": "C2", "b": "C3"},
                {"a": "C1", "b": "C3"},
            ],
        }
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(cycle))
        code, data, _ = run_json(capsys, "graph", path, "discrepancies")
        assert code == 1
        assert data["status"].startswith("SolverError")


class TestEuler:
    def test_smooth_fibre_is_chi_zero_consistent(self, capsys):
        code, out, _ = run(capsys, "euler", FIXTURES / "abelian_smooth.json")
        assert code == 0
        assert tsv_pairs(out) == {"euler": "0", "chi_zero_consistent": "true"}

    def test_single_component_sum(self, capsys):
        code, out, _ = run(capsys, "euler", FIXTURES / "one_component.json")
        assert code == 0
        assert tsv_pairs(out) == {"euler": "7", "chi_zero_consistent": "false"}

    def test_negative_excess_rejected(self, capsys):
        code, data, _ = run_json(capsys, "euler", FIXTURES / "negative_delta.json")
        assert code == 1
        assert data["status"].startswith("ValidationError")

    def test_literal_at_the_limit_read_and_one_longer_refused(self, capsys, tmp_path):
        path = tmp_path / "fibre.json"
        literal = "1" + "0" * (MAX_LITERAL_DIGITS - 1)
        path.write_text(json.dumps({"components": [{"m": 1, "e_orb": literal}]}))
        code, data, _ = run_json(capsys, "euler", path)
        assert code == 0 and dict(data["results"])["euler"] == literal
        path.write_text(json.dumps({"components": [{"m": 1, "e_orb": literal + "0"}]}))
        code, data, _ = run_json(capsys, "euler", path)
        assert code == 1
        assert data["status"] == (f"ParseError: rational literal '<{MAX_LITERAL_DIGITS + 1} digits>' "
                                  f"exceeds {MAX_LITERAL_DIGITS} digits")

    def test_unprintable_sum_is_refused_at_once(self, capsys, tmp_path):
        # 800 components with distinct odd 990-digit denominators: adding one
        # Fraction at a time took 15-18 s, and printing the answer then failed
        # on str() of a 790 000-digit denominator
        comps = [{"m": 1, "e_orb": f"1/{10**989 + 2 * i + 1}"} for i in range(800)]
        path = tmp_path / "fibre.json"
        path.write_text(json.dumps({"components": comps}))
        start = time.perf_counter()
        code, data, err = run_json(capsys, "euler", path)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert data["status"] == f"DomainError: the Euler number could have more than {MAX_ANSWER_DIGITS} digits"
        assert "set_int_max_str_digits" not in data["status"] + err

    @pytest.mark.parametrize("components", [
        [{"m": 1, "e_orb": f"1/{p}"} for p in PRIMES[:1500]],
        [{"m": 1, "e_orb": f"1/{p}"} for p in PRIMES[:3000]],
        [{"m": 1, "e_orb": "0", "deltas": [f"1/{p}" for p in PRIMES[:3000]]}],
        [{"m": int("9" * (MAX_ANSWER_DIGITS - 1)), "e_orb": "1" * 900}],
    ], ids=["1500_primes", "3000_primes", "3000_prime_deltas", "long_m_long_e_orb"])
    def test_neighbours_of_the_answer_bound_are_refused_at_once(self, capsys, tmp_path, components):
        # the lcm of the first 1500 primes has about 5500 digits
        path = tmp_path / "fibre.json"
        path.write_text(json.dumps({"components": components}))
        start = time.perf_counter()
        code, data, _ = run_json(capsys, "euler", path)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert data["status"] == f"DomainError: the Euler number could have more than {MAX_ANSWER_DIGITS} digits"

    def test_a_long_m_under_the_answer_bound_is_answered_exactly(self, capsys, tmp_path):
        m = "9" * (MAX_ANSWER_DIGITS - 1)
        path = tmp_path / "fibre.json"
        path.write_text(f'{{"components": [{{"m": {m}, "e_orb": "1/3"}}]}}')
        code, data, _ = run_json(capsys, "euler", path)
        assert code == 0
        assert dict(data["results"]) == {"euler": "3" * (MAX_ANSWER_DIGITS - 1),
                                         "chi_zero_consistent": "false"}


class TestCbf:
    def test_invariants_example(self, capsys):
        code, out, _ = run(capsys, "cbf", "invariants", "v1", 8, 3, 1, 3, 8)
        assert code == 0
        assert tsv_pairs(out) == {"mu_star": "1/24", "s_star": "5/6", "c_star": "1/3"}

    def test_gcd_violation_reported(self, capsys):
        code, data, _ = run_json(capsys, "cbf", "invariants", "v1", 8, 2, 1, 2, 8)
        assert code == 1
        assert data["status"].startswith("DomainError")
        assert "gcd" in data["status"]

    def test_bound(self, capsys):
        code, out, _ = run(capsys, "cbf", "bound", 1, 1)
        assert code == 0
        assert tsv_pairs(out)["bound"] == str(16 * sp_order(16, 3))

    def test_nx(self, capsys):
        code, out, _ = run(capsys, "cbf", "nx", 2)
        assert code == 0
        assert tsv_pairs(out)["N"] == "12"

    def test_mori_feasible_pair(self, capsys):
        code, out, _ = run(capsys, "cbf", "mori", "1/2", 1, 12)
        assert code == 0
        assert tsv_pairs(out) == {"u": "1", "v": "6"}

    def test_mori_infeasible(self, capsys):
        code, out, _ = run(capsys, "cbf", "mori", "1/3", 1, 1)
        assert code == 0
        assert tsv_pairs(out) == {"mori": "INFEASIBLE"}

    def test_nx_above_the_limit_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, data, _ = run_json(capsys, "cbf", "nx", 100_000)
        assert time.perf_counter() - start < 1
        assert code == 1
        assert data["status"] == f"DomainError: x = 100000 exceeds {MAX_TOTIENT_X}"

    @pytest.mark.parametrize("argv, status", [
        (("nx", "9" * MAX_LITERAL_DIGITS), f"x = <{MAX_LITERAL_DIGITS} digits> exceeds {MAX_TOTIENT_X}"),
        (("nx", "9" * 20), f"x = {'9' * 20} exceeds {MAX_TOTIENT_X}"),
        (("invariants", "v1", "-" + "9" * 21, 0, 0, 1, 1), "index r must be positive, got -<21 digits>"),
        (("invariants", "v2", 8, 1, "1" + "0" * 30, 0, 1), "entries of (1, <31 digits>, 0) must lie in [0, 8)"),
        (("invariants", "v2", "9" * 30, 0, 0, "9" * 25, 1), "vector (0, 0, <25 digits>) gives a zero denominator"),
        (("invariants", "v1", 8, 3, 1, 3, "-" + "7" * 40), "ell must be a positive integer, got -<40 digits>"),
        (("mori", "1/" + "3" * 30, 2 * 10**40, 1), None),
        (("mori", "2" + "3" * 30, 1, 1), "s must lie in [0, b), got <31 digits>"),
    ])
    def test_a_long_argument_is_echoed_as_its_digit_count(self, capsys, argv, status):
        code, data, _ = run_json(capsys, "cbf", *argv)
        if status is None:  # an argument that is not refused is echoed in full
            assert code == 0 and data["inputs"]["b"] == 2 * 10**40
            return
        assert code == 1 and data["status"] == f"DomainError: {status}"
        assert data["inputs"]["subaction"] == argv[0]

    def test_nx_at_the_limit_answers_and_one_above_is_refused(self, capsys):
        code, data, _ = run_json(capsys, "cbf", "nx", MAX_TOTIENT_X)
        assert code == 0 and dict(data["results"])["N"] == str(n_of_x(MAX_TOTIENT_X))
        code, data, _ = run_json(capsys, "cbf", "nx", MAX_TOTIENT_X + 1)
        assert code == 1
        assert data["status"] == f"DomainError: x = {MAX_TOTIENT_X + 1} exceeds {MAX_TOTIENT_X}"


class TestMw:
    def test_height_three_quarters_fixture(self, capsys):
        code, out, _ = run(capsys, "mw", FIXTURES / "mw_height_three_quarters.json")
        assert code == 0
        assert tsv_pairs(out) == {
            "count": "2",
            "config_0": "po=0 hits=(2,0,0)",
            "config_1": "po=0 hits=(3,0,0)",
        }

    def test_height_one_twelfth_fixture(self, capsys):
        code, out, _ = run(capsys, "mw", FIXTURES / "mw_height_one_twelfth.json")
        assert code == 0
        pairs = tsv_pairs(out)
        assert pairs["count"] == "4"
        assert pairs["config_0"] == "po=0 hits=(2,0,1)"
        assert pairs["config_3"] == "po=0 hits=(3,0,2)"

    def test_no_fibres_gives_the_empty_config(self, capsys):
        code, out, _ = run(capsys, "mw", FIXTURES / "mw_no_fibres.json")
        assert code == 0
        assert tsv_pairs(out) == {"count": "1", "config_0": "po=0 hits=()"}

    @pytest.mark.parametrize("fibres,components,configs", [
        (["IV*", "IV"], [7, 3], ["(1,1)", "(1,2)", "(2,1)", "(2,2)"]),
        (["III*", "III"], [8, 2], ["(1,1)"]),
    ])
    def test_torsion_sections_on_additive_fibres(self, capsys, tmp_path, fibres, components,
                                                 configs):
        # 3- and 2-torsion sections of height 0 (Oguiso-Shioda 1991)
        path = tmp_path / "surface.json"
        path.write_text(json.dumps({"fibres": [{"label": label, "components": count}
                                               for label, count in zip(fibres, components)],
                                    "target": "0"}))
        code, out, _ = run(capsys, "mw", path)
        assert code == 0
        assert tsv_pairs(out) == {"count": str(len(configs)),
                                  **{f"config_{i}": f"po=0 hits={hits}"
                                     for i, hits in enumerate(configs)}}

    def test_seven_i9_fibres_answered_at_once(self, capsys, tmp_path):
        # 3 * 9^7 (po, hits) candidates; only the 1779 hits are walked
        path = tmp_path / "i9.json"
        path.write_text(json.dumps({"fibres": [{"label": "I_9", "components": 9}] * 7,
                                    "target": "2"}))
        start = time.perf_counter()
        code, out, _ = run(capsys, "mw", path)
        assert time.perf_counter() - start < 1
        pairs = tsv_pairs(out)
        assert code == 0 and pairs["count"] == "1779"
        assert pairs["config_0"] == "po=0 hits=(0,0,0,0,0,0,0)"

    @pytest.mark.parametrize("case", ["mw_po_max_huge", "mw_fibre_huge", "mw_fibre_enormous",
                                      "mw_fibres_many", "mw_fibres_wide"])
    def test_oversized_searches_refused_at_once(self, capsys, tmp_path, case):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(MALFORMED[case][1]))
        start = time.perf_counter()
        code, data, _ = run_json(capsys, "mw", path)
        assert time.perf_counter() - start < 1
        assert code == 1 and data["status"].startswith("DomainError: section search exceeds")

    def test_unsupported_fibre_label(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"fibres": [{"label": "X_9", "components": 1}], "target": "0"}))
        code, data, _ = run_json(capsys, "mw", path)
        assert code == 1
        assert data["status"].startswith("DomainError")


class TestReportShape:
    def test_json_report_fields(self, capsys):
        code, data, _ = run_json(capsys, "cbf", "invariants", "v1", 8, 3, 1, 3, 8)
        assert code == 0
        assert set(data) == {"command", "inputs", "results", "status"}
        assert data["command"] == "cbf"
        assert data["inputs"]["a"] == [3, 1, 3]
        assert data["status"] == "OK"
        assert all(len(pair) == 2 for pair in data["results"])

    def test_rationals_rendered_reduced(self, capsys):
        # s* arrives as 20/24 before reduction
        _, data, _ = run_json(capsys, "cbf", "invariants", "v1", 8, 3, 1, 3, 8)
        assert ["s_star", "5/6"] in data["results"]

    @pytest.mark.parametrize("argv,content,inputs", [
        # mw records what it read only once the whole file has been read
        (["mw", "FILE"], {"fibres": [], "target": "0", "chi": 0}, {}),
        (["mw", "FILE"], {"fibres": [], "target": "2", "po_max": -1},
         {"fibres": [], "chi": "1", "target": "2", "po_max": -1}),
        # cbf records its arguments before it computes
        (["cbf", "invariants", "v1", 8, 2, 1, 2, 8], None,
         {"subaction": "invariants", "kind": "v1", "r": 8, "a": [2, 1, 2], "ell": 8}),
    ])
    def test_a_failed_report_keeps_the_inputs_read(self, capsys, tmp_path, argv, content,
                                                    inputs):
        if "FILE" in argv:
            path = tmp_path / "input.json"
            path.write_text(json.dumps(content))
            argv = [str(path) if a == "FILE" else a for a in argv]
            inputs = {"file": str(path), **inputs}
        code, data, _ = run_json(capsys, *argv)
        assert code == 1 and data["status"].startswith("DomainError: ")
        assert list(data["inputs"].items()) == list(inputs.items())

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "logdgen.cli", "cbf", "nx", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "N\t2\n"

    # a short report fails as main flushes it, a long one while it prints, and
    # argparse's help as main writes it
    @pytest.mark.parametrize("target,argv,code", [
        ("/dev/full", ["cbf", "nx", "2"], errno.ENOSPC),
        ("closed pipe", ["tables", "ALL"], errno.EPIPE),
        ("/dev/full", ["-h"], errno.ENOSPC),
        ("/dev/full", ["cbf", "-h"], errno.ENOSPC),
    ])
    def test_a_failed_write_to_stdout_ends_in_one_line(self, target, argv, code):
        if target == "closed pipe":
            read, stdout = os.pipe()
            os.close(read)
        elif os.path.exists(target):
            stdout = os.open(target, os.O_WRONLY)
        else:
            pytest.skip(f"no {target} here")
        try:
            proc = subprocess.run([sys.executable, "-m", "logdgen.cli", *argv], stdout=stdout,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        finally:
            os.close(stdout)
        assert proc.returncode == 1
        assert proc.stderr == f"OSError: [Errno {code}] {os.strerror(code)}\n"

    # Python sets sys.stdout to None when started with fd 1 closed
    def test_a_closed_stdout_ends_in_one_line(self):
        proc = subprocess.run([sys.executable, "-m", "logdgen.cli", "cbf", "nx", "2"],
                              preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True,
                              timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == f"OSError: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n"

    def test_help_with_a_closed_stdout_goes_to_stderr(self):
        proc = subprocess.run([sys.executable, "-m", "logdgen.cli", "-h"],
                              preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE, text=True,
                              timeout=60)
        assert proc.returncode == 0
        assert proc.stderr.startswith("usage: logdgen")


def _graph(*vertices, edges=(), **extra):
    return {"vertices": list(vertices), "edges": list(edges), **extra}


E = {"id": "E", "self_int": -2}
B = {"id": "B", "self_int": -2}

# command with FILE standing for the input file, the file content, and the
# status prefix the file ends in; a command-line case (no file) ends in a
# usage error instead
PARSE, VALIDATION, DOMAIN, SOLVER = ("ParseError: ", "ValidationError: ", "DomainError: ",
                                     "SolverError: ")
CHAIN_5000 = _graph(*({"id": f"E{i}", "self_int": -2} for i in range(5000)),
                    edges=[{"a": f"E{i}", "b": f"E{i + 1}"} for i in range(4999)])
MALFORMED = {
    "graph_array_root": (["graph", "FILE", "recognize"], [E], PARSE),
    "mw_array_root": (["mw", "FILE"], [{"label": "I_3", "components": 3}], PARSE),
    "self_int_float": (["graph", "FILE", "discrepancies"], _graph({**E, "self_int": -2.7}), PARSE),
    "self_int_bool": (["graph", "FILE", "recognize"], _graph({**E, "self_int": True}), PARSE),
    "genus_float": (["graph", "FILE", "classify"], _graph({**E, "genus": 0.5}), PARSE),
    "mult_bool": (["graph", "FILE", "recognize"], _graph({**E, "mult": True}), PARSE),
    "weight_float": (["graph", "FILE", "recognize"],
                     _graph(E, B, edges=[{"a": "E", "b": "B", "w": 1.5}]), PARSE),
    "tangency_float": (["graph", "FILE", "recognize"], _graph(E, tangency={"E": 1.0}), PARSE),
    "duplicate_vertex_id": (["graph", "FILE", "recognize"], _graph(E, E),
                            PARSE + "duplicate vertex id 'E'"),
    "edge_to_unknown_vertex": (["graph", "FILE", "recognize"],
                               _graph(E, edges=[{"a": "E", "b": "X"}]), PARSE),
    "boundary_above_one": (["graph", "FILE", "recognize"],
                           _graph(E, {"id": "B", "self_int": 0, "role": "strict",
                                      "boundary": "3/2"}, edges=[{"a": "E", "b": "B"}]), PARSE),
    "role_unknown": (["graph", "FILE", "classify"], _graph({**E, "role": "bogus"}),
                     PARSE + "unknown role 'bogus'"),
    "tangency_array": (["graph", "FILE", "recognize"], _graph(E, tangency=[]), PARSE),
    "boundary_zero_den": (["graph", "FILE", "recognize"],
                          _graph(E, {"id": "B", "self_int": 0, "role": "strict", "boundary": "1/0"},
                                 edges=[{"a": "E", "b": "B"}]), PARSE),
    "boundary_unreadable": (["graph", "FILE", "recognize"],
                            _graph(E, {"id": "B", "self_int": 0, "role": "strict",
                                       "boundary": "abc"}, edges=[{"a": "E", "b": "B"}]), PARSE),
    "boundary_huge_exponent": (["graph", "FILE", "discrepancies"],
                               _graph(E, {"id": "B", "self_int": 0, "role": "strict",
                                          "boundary": "1e-5000"}, edges=[{"a": "E", "b": "B"}]),
                               PARSE),
    "m_float": (["euler", "FILE"], {"components": [{"m": 2.9, "e_orb": "1"}]}, PARSE),
    "m_bool": (["euler", "FILE"], {"components": [{"m": True, "e_orb": "1"}]}, PARSE),
    "m_zero": (["euler", "FILE"], {"components": [{"m": 0, "e_orb": "1"}]},
               VALIDATION + "multiplicity must be positive, got 0"),
    "e_orb_zero_den": (["euler", "FILE"], {"components": [{"m": 1, "e_orb": "1/0"}]}, PARSE),
    "e_orb_unreadable": (["euler", "FILE"], {"components": [{"m": 1, "e_orb": "abc"}]}, PARSE),
    "e_orb_huge_exponent": (["euler", "FILE"], {"components": [{"m": 1, "e_orb": "1e5000"}]},
                            PARSE),
    "e_orb_exponent_ten_million": (["euler", "FILE"],
                                   {"components": [{"m": 1, "e_orb": "1e10000000"}]}, PARSE),
    "delta_zero_den": (["euler", "FILE"],
                       {"components": [{"m": 1, "e_orb": "1", "deltas": ["1/0"]}]}, PARSE),
    "delta_huge_exponent": (["euler", "FILE"],
                            {"components": [{"m": 1, "e_orb": "1", "deltas": ["1e5000"]}]}, PARSE),
    "deltas_string": (["euler", "FILE"],
                      {"components": [{"m": 1, "e_orb": "1", "deltas": "12"}]}, PARSE),
    "coincident_string": (["graph", "FILE", "recognize"],
                          _graph({"id": "a", "self_int": -2}, {"id": "b", "self_int": -2},
                                 {"id": "c", "self_int": -2},
                                 edges=[{"a": "a", "b": "b"}, {"a": "b", "b": "c"},
                                        {"a": "a", "b": "c"}], coincident=["abc"]), PARSE),
    "coincident_listed_twice": (["graph", "FILE", "recognize"],
                                _graph({"id": "a", "self_int": -2}, {"id": "b", "self_int": -2},
                                       {"id": "c", "self_int": -2},
                                       edges=[{"a": "a", "b": "b"}, {"a": "b", "b": "c"},
                                              {"a": "a", "b": "c"}],
                                       coincident=[["a", "b", "c"]] * 2),
                                PARSE + "curves 'a' and 'b' lie in more coincident groups than "
                                        "they have intersection entries"),
    "mw_target_zero_den": (["mw", "FILE"], {"fibres": [], "target": "1/0"}, PARSE),
    "mw_target_unreadable": (["mw", "FILE"], {"fibres": [], "target": "abc"}, PARSE),
    "mw_target_huge_exponent": (["mw", "FILE"], {"fibres": [], "target": "1e5000"}, PARSE),
    "mw_chi_zero_den": (["mw", "FILE"], {"fibres": [], "target": "0", "chi": "1/0"}, PARSE),
    "mw_chi_overlong": (["mw", "FILE"], {"fibres": [], "target": "0", "chi": "1" * 2000}, PARSE),
    "mw_chi_zero": (["mw", "FILE"], {"fibres": [], "target": "0", "chi": 0}, DOMAIN),
    "mw_chi_negative": (["mw", "FILE"], {"fibres": [], "target": "-6", "chi": -3}, DOMAIN),
    "mw_chi_rational": (["mw", "FILE"],
                        {"fibres": [{"label": "I_2", "components": 2}], "target": "1/2",
                         "chi": "1/2"}, PARSE),
    "mw_components_float": (["mw", "FILE"],
                            {"fibres": [{"label": "I_3", "components": 3.5}], "target": "2"},
                            PARSE),
    "mw_po_max_float": (["mw", "FILE"], {"fibres": [], "target": "2", "po_max": 2.5}, PARSE),
    "mw_po_max_huge": (["mw", "FILE"], {"fibres": [], "target": "2", "po_max": 100_000_000},
                       DOMAIN),
    "mw_po_max_negative": (["mw", "FILE"], {"fibres": [], "target": "2", "po_max": -1}, DOMAIN),
    "mw_fibre_huge": (["mw", "FILE"], {"fibres": [{"label": "I_200000", "components": 200_000}],
                                       "target": "2", "po_max": 0}, DOMAIN),
    "mw_fibre_enormous": (["mw", "FILE"],
                          {"fibres": [{"label": f"I_{10**18}", "components": 10**18}],
                           "target": "2", "po_max": 0}, DOMAIN),
    "mw_fibres_many": (["mw", "FILE"],
                       {"fibres": [{"label": "I_99999", "components": 99_999}] * 1000,
                        "target": "2", "po_max": 0}, DOMAIN),
    "mw_fibres_wide": (["mw", "FILE"],
                       {"fibres": [{"label": "I_400", "components": 400}] * 3,
                        "target": "2", "po_max": 0}, DOMAIN),
    "mw_label_not_a_string": (["mw", "FILE"],
                              {"fibres": [{"label": 5, "components": 5}], "target": "2"},
                              PARSE + "label must be a string, got 5"),
    "mw_label_array": (["mw", "FILE"],
                       {"fibres": [{"label": ["I_3"], "components": 3}], "target": "2"},
                       PARSE + "label must be a string, got ['I_3']"),
    # read as cli._NumberLiteral, a str subclass, and refused all the same
    "mw_label_non_integer_number": (["mw", "FILE"],
                                    {"fibres": [{"label": 2.5, "components": 3}], "target": "2"},
                                    PARSE + "label must be a string, got 2.5"),
    "mw_label_two_parameters": (["mw", "FILE"],
                                {"fibres": [{"label": "I_3_4", "components": 34}], "target": "2"},
                                DOMAIN),
    "euler_product_too_long": (["euler", "FILE"],
                               '{"components": [{"m": ' + "7" * 4000 + ', "e_orb": "1e999"}]}',
                               DOMAIN),
    "euler_sum_too_long": (["euler", "FILE"],
                           {"components": [{"m": 1, "e_orb": f"1/{10**990 + k}"}
                                           for k in (1, 3, 7, 9, 11, 13)]}, DOMAIN),
    "undecodable_bytes": (["graph", "FILE", "classify"], b"\xff\xfe", PARSE),
    "overlong_integer": (["euler", "FILE"], '{"components": [{"m": ' + "1" * 5000 + "}]}",
                         f"{PARSE}integer literal '<5000 digits>' exceeds {MAX_ANSWER_DIGITS} digits"),
    "deep_nesting": (["euler", "FILE"], '{"components": ' + "[" * 100_000 + "]" * 100_000 + "}",
                     PARSE),
    "chain_5000_discrepancies": (["graph", "FILE", "discrepancies"], CHAIN_5000, SOLVER),
    "chain_5000_classify": (["graph", "FILE", "classify"], CHAIN_5000, SOLVER),
    "mori_zero_den": (["cbf", "mori", "1/0", "1", "3"], None, None),
    "mori_huge_exponent": (["cbf", "mori", "1e-5000", "1", "3"], None, None),
}


def _main_captured(argv):
    """Exit code, stdout and stderr of one in-process run, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_ends_in_a_structured_error(case, tmp_path):
    argv, content, prefix = MALFORMED[case]
    if content is None:
        code, _, err = _main_captured(argv)
        assert code == 2 and ": error: argument" in err and "Traceback" not in err
        return
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    argv = [str(path) if a == "FILE" else a for a in argv]
    code, _, err = _main_captured(argv)
    assert code == 1 and err.strip().splitlines()[-1].startswith(prefix)
    code, out, err = _main_captured(argv + ["--format", "json"])
    assert code == 1 and "Traceback" not in err
    status = json.loads(out)["status"]
    assert status.startswith(prefix) and "set_int_max_str_digits" not in status


# Plain parsing against argparse.  The positionals of each command word, as
# candidate tokens that their choices or converters accept or refuse, and the
# option spellings inserted anywhere in a command line.
_INTS = ["2", "0", "12", "-1", "1_0", " 4", "\u0663", "x", "1/2", ""]
_FILES = ["in.json", "json", "tsv", "", "x y", "-", "-f", "--format"]
_GRAMMAR = {
    ("tables",): [["I", "IV", "V", "VI", "VII", "ALL", "XI", "all"]],
    ("graph",): [_FILES, ["recognize", "discrepancies", "classify", "recog"]],
    ("euler",): [_FILES],
    ("mw",): [_FILES],
    ("cbf", "invariants"): [["v1", "v2", "v3"]] + [_INTS] * 5,
    ("cbf", "bound"): [_INTS] * 2,
    ("cbf", "mori"): [["1/2", "3", "0.5", " 1/2", "1/0", "1e5000", "-1/2", "abc"], _INTS, _INTS],
    ("cbf", "nx"): [_INTS],
}
_OPTIONS = [["--format", "tsv"], ["--format", "json"], ["--format", "xml"], ["--format"],
            ["--format=json"], ["--form", "json"], ["-h"], ["--"],
            ["--format", "json", "--format", "tsv"]]


@st.composite
def _argvs(draw):
    words = draw(st.sampled_from(sorted(_GRAMMAR)))
    argv = [*words, *(draw(st.sampled_from(tokens)) for tokens in _GRAMMAR[words])]
    extra = draw(st.sampled_from([0, 0, 0, -1, 1]))  # a token missing, or one too many
    if extra < 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif extra > 0:
        argv.append(draw(st.sampled_from(_INTS + _FILES)))
    for option in draw(st.lists(st.sampled_from(_OPTIONS), max_size=2)):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = option
    return argv


@functools.cache
def _parser():
    return cli.build_parser()


@settings(max_examples=300, deadline=None)
@given(argv=_argvs())
def test_a_plain_parse_is_the_argparse_namespace(argv):
    plain = cli._parse_plain(argv)
    if plain is not None:
        assert vars(plain) == vars(_parser().parse_args(argv))


# plainly written command lines, and ones that go to argparse on either path
PLAIN_ARGVS = [
    ["tables", "I"], ["graph", "a_half_gamma.json", "--format", "json", "classify"],
    ["euler", "one_component.json"], ["mw", "--format", "json", "mw_no_fibres.json"],
    ["cbf", "invariants", "v1", "8", "--format", "json", "3", "1", "3", "8"],
    ["cbf", "bound", "1", "1_0"], ["cbf", "mori", " 1/2", "1", "12"], ["cbf", "nx", "\u0663"],
    ["cbf", "nx", "2", "--format", "json"],
]
ARGPARSE_ARGVS = [
    ["cbf", "nx", "-1"], ["tables", "XI"], ["cbf", "mori", "1/0", "1", "3"],
    ["euler", "--format=json", "one_component.json"], ["cbf", "nx", "2", "3"], ["mw", "-h"],
]


def test_main_answers_alike_without_plain_parsing(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    monkeypatch.setenv("COLUMNS", "80")
    assert all(cli._parse_plain(argv) for argv in PLAIN_ARGVS)
    assert not any(cli._parse_plain(argv) for argv in ARGPARSE_ARGVS)
    argvs = PLAIN_ARGVS + ARGPARSE_ARGVS
    plain = [_main_captured(argv) for argv in argvs]
    monkeypatch.setattr(cli, "_parse_plain", lambda argv: None)
    assert [_main_captured(argv) for argv in argvs] == plain


# a JSON number that a float would round; each template reads it at X
EXACT_NUMBER = "0.30000000000000001"
EXACT_NUMBER_FILES = {
    "euler": (["euler", "FILE"], '{"components": [{"m": 1, "e_orb": X}]}'),
    "graph": (["graph", "FILE", "discrepancies"],
              '{"vertices": [{"id": "E", "self_int": -2}, '
              '{"id": "B", "self_int": 0, "role": "strict", "boundary": X}], '
              '"edges": [{"a": "E", "b": "B"}]}'),
    "mw": (["mw", "FILE"], '{"fibres": [{"label": "I_10", "components": 10}, '
                           '{"label": "I_5", "components": 5}], "target": X, "po_max": 0}'),
}


@pytest.mark.parametrize("case", sorted(EXACT_NUMBER_FILES))
def test_json_numbers_keep_their_written_value(case, tmp_path):
    argv, template = EXACT_NUMBER_FILES[case]
    runs = []
    for literal in (EXACT_NUMBER, json.dumps(EXACT_NUMBER), '"0.3"'):
        path = tmp_path / "input.json"
        path.write_text(template.replace("X", literal))
        runs.append(_main_captured([str(path) if a == "FILE" else a for a in argv]))
    bare, quoted, rounded = runs
    assert bare == quoted and bare[0] == 0
    assert bare != rounded


# The package modules each kind of command loads, all of its forms run in one
# child interpreter; logdgen, logdgen.cli and logdgen.core always load.
IMPORT_CASES = {
    "tables": ([["tables", which, "--format", fmt] for which in ("I", "IV", "V", "VI", "VII", "ALL")
                for fmt in ("tsv", "json")], {"logdgen.tables", "logdgen.cbf", "logdgen.duval"}),
    "graph": ([["graph", str(FIXTURES / "a_half_gamma.json"), "recognize"]],
              {"logdgen.graph", "logdgen.dualgraph", "logdgen.duval"}),
    # the solvers, and a file refused before any recognizer runs
    "graph_base": ([["graph", str(FIXTURES / "a_half_gamma.json"), action]
                    for action in ("discrepancies", "classify")]
                   + [["graph", str(FIXTURES / "malformed.json"), "recognize"]], {"logdgen.graph"}),
    "euler": ([["euler", str(FIXTURES / "one_component.json")]], {"logdgen.eulerform"}),
    "cbf": ([["cbf", "invariants", "v1", "8", "3", "1", "3", "8"], ["cbf", "bound", "1", "1"],
             ["cbf", "mori", "1/2", "1", "12"], ["cbf", "nx", "2"]], {"logdgen.cbf"}),
    "mw": ([["mw", str(FIXTURES / "mw_height_three_quarters.json")]], {"logdgen.mordellweil"}),
    "usage": ([["tables", "XI"], ["cbf", "mori", "1/0", "1", "3"]], set()),
}
# Runs each tab-joined argv of its arguments in turn, then prints the modules
# loaded beyond those of a bare interpreter (``site`` may preload some).  It
# imports nothing but ``io`` itself, so the list holds what the CLI loaded.
_RUN_AND_LIST_MODULES = """
import io, sys
bare = set(sys.modules)
from logdgen.cli import main
for argv in sys.argv[1:]:
    sys.stdout = sys.stderr = io.StringIO()
    try:
        main(argv.split("\\t"))
    except SystemExit:
        pass
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
print(repr(sorted(set(sys.modules) - bare)))
"""


def _loaded_modules(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout))


def _loaded_by_argvs(*argvs):
    return _loaded_modules(_RUN_AND_LIST_MODULES, *map("\t".join, argvs))


@functools.cache
def _loaded_by(kind):
    """What the argvs of one IMPORT_CASES kind load, in one child run shared by the tests."""
    return _loaded_by_argvs(*IMPORT_CASES[kind][0])


@pytest.mark.parametrize("kind", sorted(IMPORT_CASES))
def test_each_command_loads_only_the_modules_it_uses(kind):
    package = {m for m in _loaded_by(kind) if m.partition(".")[0] == "logdgen"}
    assert package == {"logdgen", "logdgen.cli", "logdgen.core"} | IMPORT_CASES[kind][1]


@pytest.mark.parametrize("kind", sorted(IMPORT_CASES))
def test_no_command_loads_dataclasses_or_inspect(kind):
    assert not _loaded_by(kind) & {"dataclasses", "inspect", "__future__"}


def test_table_names_are_the_builders_in_order():
    from logdgen.cli import TABLE_NAMES
    from logdgen.tables import _TABLES
    assert TABLE_NAMES == tuple(_TABLES)


@pytest.mark.parametrize("which,calls", [("ALL", 1), ("VI", 1), ("VII", 1), ("I", 0)])
def test_tables_regenerate_vi_and_vii_once(which, calls, monkeypatch):
    from logdgen import cbf
    from logdgen.tables import print_tables
    regenerate, made = cbf.regenerate_table_vi_vii, []
    monkeypatch.setattr(cbf, "regenerate_table_vi_vii", lambda: made.append(1) or regenerate())
    assert print_tables(which, "tsv")
    assert len(made) == calls


@pytest.mark.parametrize("kind", sorted(IMPORT_CASES))
def test_only_usage_errors_load_argparse(kind):
    modules = {"argparse", "gettext", "locale"}
    assert _loaded_by(kind) & modules == (modules if kind == "usage" else set())


def test_tsv_tables_and_cbf_load_no_json():
    loaded = _loaded_by_argvs(["tables", "ALL", "--format", "tsv"], *IMPORT_CASES["cbf"][0])
    assert "json" not in loaded


def test_coefficient_height_and_fibration_modules_load_no_graph_code():
    code = ("import sys, logdgen.cbf, logdgen.mordellweil, logdgen.fibration\n"
            "print(repr([m for m in sys.modules if m.startswith('logdgen')]))")
    assert "logdgen.dualgraph" not in _loaded_modules(code)


# Exit code, stdout and stderr of every IMPORT_CASES argv and of each fixture
# under each command that reads a file, in both formats, recorded before the
# report commands shared one runner.  Files are named relative to FIXTURES.
REPORTS = FIXTURES / "reports.json"


def _report_argvs():
    files = sorted(p.name for p in FIXTURES.glob("*.json") if p != REPORTS)
    argvs = [[Path(a).name if a.startswith(str(FIXTURES)) else a for a in argv]
             for kind in sorted(IMPORT_CASES) for argv in IMPORT_CASES[kind][0]]
    argvs += [["graph", name, action] for name in files
              for action in ("recognize", "discrepancies", "classify")]
    argvs += [[command, name] for command in ("euler", "mw") for name in files]
    return [argv + fmt for argv in argvs
            for fmt in ([[]] if "--format" in argv else [[], ["--format", "json"]])]


def test_reports_match_the_recorded_output(monkeypatch):
    monkeypatch.chdir(FIXTURES)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    got = {"\t".join(argv): list(_main_captured(argv)) for argv in _report_argvs()}
    assert got == json.loads(REPORTS.read_text())


_KEYS = ("vertices", "edges", "tangency", "coincident", "id", "self_int", "genus", "mult",
         "boundary", "role", "a", "b", "w", "components", "m", "e_orb", "deltas",
         "fibres", "label", "chi", "target", "po_max")
# values too long to echo in full: a 5000-character word, a 400-key object of
# short keys, and a Kodaira label whose b int() would refuse to read
LONG_WORD, MANY_KEYS, LONG_LABEL = "x" * 5000, {str(i): i for i in range(400)}, "I_" + "9" * 5000
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    | st.sampled_from(["E1", "E2", "1/2", "1/0", "-2", "1e5000", "strict", "fibre", "I_3", "I*_1",
                       LONG_WORD, MANY_KEYS, LONG_LABEL]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=20,
)
# well-typed small graphs, so that the recognizers and solvers run too
_ids = st.sampled_from(["E1", "E2", "E3", "B1", LONG_WORD])
_graphs = st.fixed_dictionaries(
    {"vertices": st.lists(st.fixed_dictionaries(
        {"id": _ids, "self_int": st.integers(-4, 1)},
        optional={"genus": st.integers(0, 1), "mult": st.integers(1, 3),
                  "boundary": st.sampled_from(["0", "1/2", "2/3", "1"]),
                  "role": st.sampled_from(["exceptional", "strict", "fibre"])}), max_size=5)},
    optional={"edges": st.lists(st.fixed_dictionaries(
                  {"a": _ids, "b": _ids}, optional={"w": st.integers(1, 2)}), max_size=6),
              "tangency": st.dictionaries(_ids, st.integers(0, 2)),
              "coincident": st.lists(st.lists(_ids, max_size=4), max_size=1)},
)
# well-typed section searches, so that the mw solver and its size limit run too
_mw_files = st.fixed_dictionaries(
    {"fibres": st.lists(st.fixed_dictionaries(
        {"label": st.sampled_from(["I_1", "I_3", "I_9", "I*_0", "I*_1", "I*_2", "I*_3", "II",
                                   "III", "IV", "III*", "IV*", LONG_LABEL]),
         "components": st.integers(1, 9)}), max_size=7),
     "target": st.sampled_from([0, "1/2", "3/4", "2", "1e5000"])},
    optional={"chi": st.sampled_from([1, 2, "1/2"]), "po_max": st.integers(-1, 3)},
)


@settings(max_examples=150, deadline=None)
@given(
    data=_json_values | _graphs | _mw_files,
    argv=st.sampled_from([["graph", "FILE", action] for action in
                          ("recognize", "discrepancies", "classify")]
                         + [["euler", "FILE"], ["mw", "FILE"]]),
)
def test_arbitrary_json_ends_in_a_report(tmp_path_factory, data, argv):
    path = tmp_path_factory.mktemp("arbitrary") / "input.json"
    path.write_text(json.dumps(data))
    argv = [str(path) if a == "FILE" else a for a in argv]
    code, out, err = _main_captured(argv + ["--format", "json"])
    assert code in (0, 1), err
    report = json.loads(out)
    assert set(report) == {"command", "inputs", "results", "status"}
    assert (report["status"] == "OK") == (code == 0)
    assert len(report["status"]) < 200 and "set_int_max_str_digits" not in report["status"]


# Positionals for the argv property: small values, negatives, integers at the
# edges of the literal limit and of the 4300 digits int() reads, k/0,
# exponents, junk, a word too long to echo in full (as a file name, a choice
# or a number), and two files that parse.
_ARGV_LITERALS = st.sampled_from([
    "0", "1", "2", "3", "8", "12", "-1", "-7", "-" + "9" * (MAX_LITERAL_DIGITS - 1),
    *("9" * n for n in (MAX_LITERAL_DIGITS - 1, MAX_LITERAL_DIGITS, MAX_LITERAL_DIGITS + 1,
                        MAX_ANSWER_DIGITS)),
    "1/2", "3/4", "7/0", "0/0", "1e5", "1e-5000", "2.5e3", "1_000", "abc", "", "v1", "II", "ALL",
    "a" * 300,
    str(FIXTURES / "a_half_gamma.json"), str(FIXTURES / "mw_height_three_quarters.json"),
])


def _argv_commands():
    """(command words, positionals) of every _COMMANDS entry, one per cbf subcommand."""
    cases = []
    for command, (_, _, positionals) in cli._COMMANDS.items():
        if type(positionals) is dict:
            cases += [((command, sub), words) for sub, words in positionals.items()]
        else:
            cases.append(((command,), positionals))
    return cases


@settings(max_examples=150, deadline=None)
@given(data=st.data(), case=st.sampled_from(_argv_commands()),
       fmt=st.sampled_from([[], ["--format", "tsv"], ["--format", "json"]]))
def test_arbitrary_argv_ends_in_a_status_or_usage_line(data, case, fmt):
    words, positionals = case
    argv = list(words)
    for _, accept in positionals:
        pool = st.sampled_from(accept) | _ARGV_LITERALS if type(accept) is tuple else _ARGV_LITERALS
        argv.append(data.draw(pool))
    code, out, err = _main_captured(argv + fmt)
    assert "Traceback" not in err and "set_int_max_str_digits" not in out + err
    lines = err.splitlines()
    assert all(len(line) < 200 for line in lines)
    if code == 2:  # argparse's usage, then one error line
        assert lines[0].startswith("usage: logdgen ")
        assert [i for i, line in enumerate(lines) if ": error: " in line] == [len(lines) - 1]
    elif fmt[-1:] == ["json"]:
        assert code in (0, 1) and err == ""
        report = json.loads(out)
        assert words == ("tables",) or (report["status"] == "OK") == (code == 0)
        assert words == ("tables",) or len(report["status"]) < 200
    else:
        assert code in (0, 1)
        assert lines == [] if code == 0 else len(lines) == 1 and ": " in lines[0]


# Inputs whose refusal echoes a value of thousands of characters or a long
# path, as (argv, file content or None, exit code).  The CLI writes each
# status and usage line through cli.brief, so every line stays under 200
# characters, and a status is one line.
LONG_ECHOES = {
    "self_int_string": (["graph", "FILE", "recognize"], _graph({**E, "self_int": LONG_WORD}), 1),
    "m_string": (["euler", "FILE"], {"components": [{"m": LONG_WORD, "e_orb": "1"}]}, 1),
    "m_object_of_400_keys": (["euler", "FILE"], {"components": [{"m": MANY_KEYS, "e_orb": "1"}]}, 1),
    "role_unknown": (["graph", "FILE", "classify"], _graph({**E, "role": LONG_WORD}), 1),
    "duplicate_vertex_id": (["graph", "FILE", "recognize"],
                            _graph(*[{"id": LONG_WORD, "self_int": -2}] * 2), 1),
    "edge_to_unknown_vertex": (["graph", "FILE", "recognize"],
                               _graph(E, edges=[{"a": "E", "b": LONG_WORD}]), 1),
    "vertices_string": (["graph", "FILE", "recognize"], {"vertices": LONG_WORD, "edges": []}, 1),
    "deltas_string": (["euler", "FILE"],
                      {"components": [{"m": 1, "e_orb": "1", "deltas": LONG_WORD}]}, 1),
    "mw_label_array": (["mw", "FILE"],
                       {"fibres": [{"label": [LONG_WORD], "components": 1}], "target": "1"}, 1),
    "mw_kind_unknown": (["mw", "FILE"],
                        {"fibres": [{"label": LONG_WORD, "components": 1}], "target": "1"}, 1),
    "mw_b_past_the_literal_limit": (["mw", "FILE"],
                                    {"fibres": [{"label": LONG_LABEL, "components": 3}],
                                     "target": "1"}, 1),
    "command_word": ([LONG_WORD], None, 2),
    "tables_choice": (["tables", LONG_WORD], None, 2),
    "graph_action": (["graph", "in.json", LONG_WORD], None, 2),
    "cbf_nx_word": (["cbf", "nx", "a" * 999], None, 2),
    "cbf_integer_past_the_literal_limit": (["cbf", "bound", "9" * 4200, "1"], None, 2),
    "euler_long_file_name": (["euler", "a" * 300], None, 1),
    "graph_long_path": (["graph", "x/" * 150, "recognize"], None, 1),
}


@pytest.mark.parametrize("case", sorted(LONG_ECHOES))
def test_a_long_echo_prints_only_short_lines(case, tmp_path):
    argv, content, exit_code = LONG_ECHOES[case]
    if content is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        argv = [str(path) if a == "FILE" else a for a in argv]
    code, out, err = _main_captured(argv)
    assert code == exit_code and "Traceback" not in err and "set_int_max_str_digits" not in err
    lines = err.splitlines()
    assert all(len(line) < 200 for line in lines)
    if code == 2:  # argparse's usage, then its error
        assert lines[0].startswith("usage: logdgen ")
        assert [i for i, line in enumerate(lines) if ": error: argument " in line] == [len(lines) - 1]
        return
    assert out == "" and len(lines) == 1
    code, out, err = _main_captured(argv + ["--format", "json"])
    report = json.loads(out)
    assert code == 1 and err == "" and report["status"] == lines[0]
    assert report["inputs"]["file"] == argv[1]  # the inputs echo the arguments in full
