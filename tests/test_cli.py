"""End-to-end checks of the command-line front end."""

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction as Rational
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from logdgen.cbf import C_STAR_VALUES, sp_order
from logdgen.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


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

    def test_unknown_table_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tables", "XI"])
        assert exc.value.code == 2

    def test_tampered_literals_fail_the_cross_check(self, capsys, monkeypatch):
        import logdgen.cli as cli

        catalog = cli.delpezzo_catalog()
        catalog[0] = replace(catalog[0], e_orb=Rational(7, 2))
        monkeypatch.setattr(cli, "delpezzo_catalog", lambda: catalog)
        tables = cli._load_tables()
        tables["I"]["rows"][2]["samples"][0]["delta_p"] = "1"
        monkeypatch.setattr(cli, "_load_tables", lambda: tables)
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

    def test_recognize_kodaira_cycle(self, capsys):
        code, out, _ = run(capsys, "graph", FIXTURES / "i3_cycle.json", "recognize")
        assert code == 0
        assert tsv_pairs(out)["kodaira"] == "I_3"

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

    def test_console_script_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "logdgen.cli", "cbf", "nx", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "N\t2\n"


def _graph(*vertices, edges=(), **extra):
    return {"vertices": list(vertices), "edges": list(edges), **extra}


E = {"id": "E", "self_int": -2}
B = {"id": "B", "self_int": -2}

# command with FILE standing for the input file, and the file content; each
# file ends in a ParseError, the command-line case in a usage error
MALFORMED = {
    "graph_array_root": (["graph", "FILE", "recognize"], [E]),
    "mw_array_root": (["mw", "FILE"], [{"label": "I_3", "components": 3}]),
    "self_int_float": (["graph", "FILE", "discrepancies"], _graph({**E, "self_int": -2.7})),
    "self_int_bool": (["graph", "FILE", "recognize"], _graph({**E, "self_int": True})),
    "genus_float": (["graph", "FILE", "classify"], _graph({**E, "genus": 0.5})),
    "mult_bool": (["graph", "FILE", "recognize"], _graph({**E, "mult": True})),
    "weight_float": (["graph", "FILE", "recognize"],
                     _graph(E, B, edges=[{"a": "E", "b": "B", "w": 1.5}])),
    "tangency_float": (["graph", "FILE", "recognize"], _graph(E, tangency={"E": 1.0})),
    "tangency_array": (["graph", "FILE", "recognize"], _graph(E, tangency=[])),
    "boundary_zero_den": (["graph", "FILE", "recognize"],
                          _graph(E, {"id": "B", "self_int": 0, "role": "strict", "boundary": "1/0"},
                                 edges=[{"a": "E", "b": "B"}])),
    "m_float": (["euler", "FILE"], {"components": [{"m": 2.9, "e_orb": "1"}]}),
    "m_bool": (["euler", "FILE"], {"components": [{"m": True, "e_orb": "1"}]}),
    "e_orb_zero_den": (["euler", "FILE"], {"components": [{"m": 1, "e_orb": "1/0"}]}),
    "delta_zero_den": (["euler", "FILE"],
                       {"components": [{"m": 1, "e_orb": "1", "deltas": ["1/0"]}]}),
    "mw_target_zero_den": (["mw", "FILE"], {"fibres": [], "target": "1/0"}),
    "mw_chi_zero_den": (["mw", "FILE"], {"fibres": [], "target": "0", "chi": "1/0"}),
    "mw_components_float": (["mw", "FILE"],
                            {"fibres": [{"label": "I_3", "components": 3.5}], "target": "2"}),
    "mw_po_max_float": (["mw", "FILE"], {"fibres": [], "target": "2", "po_max": 2.5}),
    "undecodable_bytes": (["graph", "FILE", "classify"], b"\xff\xfe"),
    "overlong_integer": (["euler", "FILE"], '{"components": [{"m": ' + "1" * 5000 + "}]}"),
    "deep_nesting": (["euler", "FILE"], '{"components": ' + "[" * 100_000 + "]" * 100_000 + "}"),
    "mori_zero_den": (["cbf", "mori", "1/0", "1", "3"], None),
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
    argv, content = MALFORMED[case]
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
    assert code == 1 and err.strip().splitlines()[-1].startswith("ParseError: ")
    code, out, err = _main_captured(argv + ["--format", "json"])
    assert code == 1 and "Traceback" not in err
    assert json.loads(out)["status"].startswith("ParseError: ")


_KEYS = ("vertices", "edges", "tangency", "coincident", "id", "self_int", "genus", "mult",
         "boundary", "role", "a", "b", "w", "components", "m", "e_orb", "deltas")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    | st.sampled_from(["E1", "E2", "1/2", "1/0", "-2", "strict", "fibre"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=5),
    max_leaves=20,
)
# well-typed small graphs, so that the recognizers and solvers run too
_ids = st.sampled_from(["E1", "E2", "E3", "B1"])
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


@settings(max_examples=150, deadline=None)
@given(
    data=_json_values | _graphs,
    argv=st.sampled_from([["graph", "FILE", action] for action in
                          ("recognize", "discrepancies", "classify")] + [["euler", "FILE"]]),
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
