"""Command-line front end.

Regenerates the embedded tables with a recompute-versus-literal cross-check,
evaluates invariants from configuration files, and emits machine-readable
reports.  Exit codes: 0 ok, 1 domain error or cross-check mismatch, 2 usage.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction as Rational
from importlib import resources

from .cbf import (
    C_STAR_VALUES,
    INFEASIBLE,
    PrimitiveVector,
    V1,
    V2,
    abelian_invariants,
    elliptic_table,
    fibre_bound,
    mori_feasible,
    n_of_x,
    regenerate_table_vi_vii,
)
from .core import json_int
from .dualgraph import (
    KodairaLabel,
    classify_pair,
    graph_from_json,
    pullback_coefficients,
    recognize_duval,
    recognize_fibre_type,
    recognize_half_catalog,
    recognize_kodaira,
)
from .duval import CoverCase, c_p, delpezzo_catalog, delta_p, e_p, o_p, recompute_e_orb
from .eulerform import FibreComponentData, euler_degenerate_fibre
from .mordellweil import solve_section_config

EXIT_OK = 0
EXIT_DOMAIN = 1

KNOWN_DISCREPANCY = "known discrepancy"


@dataclass
class Report:
    """What every non-table command emits."""

    command: str
    inputs: dict
    results: list = field(default_factory=list)
    status: str = "OK"

    def to_json(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": [[name, value] for name, value in self.results],
            "status": self.status,
        }


def _emit_report(report: Report, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        for name, value in report.results:
            print(f"{name}\t{value}")
        if report.status != "OK":
            print(report.status, file=sys.stderr)
    return EXIT_OK if report.status == "OK" else EXIT_DOMAIN


def _load_tables() -> dict:
    text = resources.files("logdgen").joinpath("data/tables.json").read_text()
    return json.loads(text)


# ---------------------------------------------------------------- tables

def _check_table_one(spec: dict) -> tuple[list[dict], list[str]]:
    """Parametric rows, cross-checked on the embedded sample grid."""
    mismatches = []
    for row in spec["rows"]:
        cid = int(row["case"])
        for sample in row["samples"]:
            cover = CoverCase(cid, r=sample["r"], n=sample["n"])
            got = (e_p(cover), o_p(cover), c_p(cover), delta_p(cover))
            want = tuple(Rational(sample[k]) for k in ("e_p", "o_p", "c_p", "delta_p"))
            if tuple(Rational(x) for x in got) != want:
                mismatches.append(
                    f"table I case {cid} at r={sample['r']}, n={sample['n']}: "
                    f"recomputed {got}, embedded {want}"
                )
    rows = [
        {k: row[k] for k in ("case", "e_p", "o_p", "c_p", "delta_p")}
        for row in spec["rows"]
    ]
    return rows, mismatches


def _check_table_four(spec: dict) -> tuple[list[dict], list[str]]:
    """27 catalog rows with the recomputed orbifold Euler column alongside."""
    mismatches = []
    known = set(spec.get("known_discrepancies", []))
    rows = []
    for entry in delpezzo_catalog():
        recomputed = recompute_e_orb(entry.degree, entry.singularities)
        note = ""
        if recomputed != entry.e_orb:
            if entry.row in known:
                note = KNOWN_DISCREPANCY
            else:
                mismatches.append(
                    f"table IV row {entry.row}: recomputed {recomputed}, embedded {entry.e_orb}"
                )
        rows.append(
            {
                "row": entry.row,
                "degree": entry.degree,
                "singularities": [str(t) for t in entry.singularities],
                "e_orb": str(entry.e_orb),
                "e_orb_recomputed": str(recomputed),
                "note": note,
            }
        )
    return rows, mismatches


def _check_table_five(spec: dict) -> tuple[list[dict], list[str]]:
    mismatches = []
    rows = []
    for row in spec["rows"]:
        if row["column"] == "_mI_b":
            inv = elliptic_table(KodairaLabel("I", 1), m=row["m"])
        elif row["column"] == "I*_b":
            inv = elliptic_table(KodairaLabel("I*", 0))
        else:
            inv = elliptic_table(KodairaLabel(row["column"]))
        want = (Rational(row["ell"]), Rational(row["mu"]), Rational(row["s"]))
        if (Rational(inv.ell), inv.mu, inv.s) != want:
            mismatches.append(
                f"table V column {row['column']} (m={row['m']}): "
                f"recomputed ({inv.ell}, {inv.mu}, {inv.s}), embedded {want}"
            )
        rows.append(
            {
                "column": row["column"],
                "m": row["m"],
                "ell": row["ell"],
                "mu": row["mu"],
                "s": row["s"],
            }
        )
    return rows, mismatches


def _check_table_abelian(name: str) -> tuple[list[dict], list[str]]:
    """Tables VI/VII evaluated at ell = r and ell = 2r."""
    mismatches = []
    rows = []
    for regenerated in regenerate_table_vi_vii():
        tab = regenerated.row
        if tab.table != name:
            continue
        c_star = tab.c_star()
        if c_star not in C_STAR_VALUES:
            mismatches.append(f"table {name} row {tab.number}: c* = {c_star} outside the known set")
        if not regenerated.divisibility_ok:
            mismatches.append(f"table {name} row {tab.number}: divisor {tab.divisor} fails")
        for ell, mu, mu_tab, s, s_tab in regenerated.evaluations:
            if (mu, s) != (mu_tab, s_tab):
                mismatches.append(
                    f"table {name} row {tab.number} at ell = {ell}: "
                    f"recomputed ({mu}, {s}), tabulated ({mu_tab}, {s_tab})"
                )
            rows.append(
                {
                    "number": tab.number,
                    "kind": tab.vector.kind,
                    "r": tab.vector.r,
                    "a": list(tab.vector.a),
                    "ell": ell,
                    "mu": str(mu),
                    "s": str(s),
                    "c": str(c_star),
                }
            )
    return rows, mismatches


_TABLE_BUILDERS = {
    "I": _check_table_one,
    "IV": _check_table_four,
    "V": _check_table_five,
    "VI": lambda spec: _check_table_abelian("VI"),
    "VII": lambda spec: _check_table_abelian("VII"),
}


def _render_cell(column: str, value) -> str:
    if isinstance(value, list):
        sep = "+" if column == "singularities" else ","
        return sep.join(str(x) for x in value)
    return str(value)


def _emit_table_tsv(name: str, columns: list[str], rows: list[dict]) -> None:
    print(f"# Table {name}")
    print("\t".join(columns))
    for row in rows:
        print("\t".join(_render_cell(col, row[col]) for col in columns))


def cmd_tables(args) -> int:
    tables = _load_tables()
    names = ["I", "IV", "V", "VI", "VII"] if args.which == "ALL" else [args.which]
    mismatches = []
    emitted = {}
    for name in names:
        rows, bad = _TABLE_BUILDERS[name](tables[name])
        emitted[name] = {"columns": tables[name]["columns"], "rows": rows}
        mismatches.extend(bad)
    if args.format == "json":
        payload = emitted[names[0]] if len(names) == 1 else emitted
        print(json.dumps(payload, indent=2))
    else:
        for i, name in enumerate(names):
            if i:
                print()
            _emit_table_tsv(name, emitted[name]["columns"], emitted[name]["rows"])
    for line in mismatches:
        print(f"cross-check mismatch: {line}", file=sys.stderr)
    return EXIT_DOMAIN if mismatches else EXIT_OK


# ---------------------------------------------------------------- graph

def _read_json_file(path: str):
    """Returns (a JSON object, None) or (None, ParseError status string)."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        return None, f"ParseError: {exc}"
    except json.JSONDecodeError as exc:
        return None, f"ParseError: line {exc.lineno} column {exc.colno}: {exc.msg}"
    except (ValueError, RecursionError) as exc:  # undecodable bytes, huge integers, deep nesting
        return None, f"ParseError: {exc}"
    if not isinstance(data, dict):
        return None, f"ParseError: top level must be a JSON object, got {type(data).__name__}"
    return data, None


def cmd_graph(args) -> int:
    report = Report("graph", {"file": args.file, "action": args.action})
    data, err = _read_json_file(args.file)
    if err is None:
        try:
            graph = graph_from_json(data)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            err = f"ParseError: {exc}"
    if err is not None:
        report.status = err
        return _emit_report(report, args.format)
    try:
        if args.action == "recognize":
            report.results = [
                ("duval", str(recognize_duval(graph))),
                ("kodaira", str(recognize_kodaira(graph))),
                ("half_catalog", str(recognize_half_catalog(graph))),
                ("fibre_type", str(recognize_fibre_type(graph))),
            ]
        elif args.action == "discrepancies":
            coeffs = pullback_coefficients(graph)
            report.results = [(vid, str(coeffs[vid])) for vid in sorted(coeffs)]
        else:
            report.results = [("class", classify_pair(graph))]
    except ValueError as exc:
        report.status = f"SolverError: {exc}"
    return _emit_report(report, args.format)


# ---------------------------------------------------------------- euler

def cmd_euler(args) -> int:
    report = Report("euler", {"file": args.file})
    data, err = _read_json_file(args.file)
    if err is not None:
        report.status = err
        return _emit_report(report, args.format)
    try:
        components = [
            FibreComponentData(
                m=json_int(entry, "m"),
                e_orb=Rational(str(entry["e_orb"])),
                deltas=tuple(Rational(str(d)) for d in entry.get("deltas", [])),
            )
            for entry in data["components"]
        ]
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        report.status = f"ParseError: {exc}"
        return _emit_report(report, args.format)
    except ValueError as exc:
        report.status = f"ValidationError: {exc}"
        return _emit_report(report, args.format)
    value = euler_degenerate_fibre(components)
    report.results = [
        ("euler", str(value)),
        ("chi_zero_consistent", "true" if value == 0 else "false"),
    ]
    return _emit_report(report, args.format)


# ---------------------------------------------------------------- cbf

def cmd_cbf(args) -> int:
    report = Report("cbf", {"subaction": args.subaction})
    try:
        if args.subaction == "invariants":
            kind = V1 if args.kind == "v1" else V2
            report.inputs.update(
                {"kind": args.kind, "r": args.r, "a": [args.a0, args.a1, args.a2], "ell": args.ell}
            )
            vector = PrimitiveVector(kind, args.r, (args.a0, args.a1, args.a2))
            mu, s = abelian_invariants(vector, args.ell)
            report.results = [
                ("mu_star", str(mu)),
                ("s_star", str(s)),
                ("c_star", str(mu * args.ell)),
            ]
        elif args.subaction == "bound":
            report.inputs.update({"d": args.d, "n_va": args.n_va})
            report.results = [("bound", str(fibre_bound(args.d, args.n_va)))]
        elif args.subaction == "mori":
            report.inputs.update({"s": str(args.s), "b": args.b, "N": args.N})
            answer = mori_feasible(args.s, args.b, args.N)
            if answer == INFEASIBLE:
                report.results = [("mori", INFEASIBLE)]
            else:
                report.results = [("u", str(answer[0])), ("v", str(answer[1]))]
        else:
            report.inputs.update({"x": args.x})
            report.results = [("N", str(n_of_x(args.x)))]
    except ValueError as exc:
        report.status = f"DomainError: {exc}"
    return _emit_report(report, args.format)


# ---------------------------------------------------------------- mw

def cmd_mw(args) -> int:
    report = Report("mw", {"file": args.file})
    data, err = _read_json_file(args.file)
    if err is not None:
        report.status = err
        return _emit_report(report, args.format)
    try:
        fibres = [
            (KodairaLabel.parse(str(entry["label"])), json_int(entry, "components"))
            for entry in data.get("fibres", [])
        ]
        chi = Rational(str(data.get("chi", 1)))
        target = Rational(str(data["target"]))
        po_max = json_int(data, "po_max", 2)
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        report.status = f"ParseError: {exc}"
        return _emit_report(report, args.format)
    except ValueError as exc:
        report.status = f"DomainError: {exc}"
        return _emit_report(report, args.format)
    report.inputs.update(
        {
            "fibres": [[str(label), count] for label, count in fibres],
            "chi": str(chi),
            "target": str(target),
            "po_max": po_max,
        }
    )
    try:
        configs = solve_section_config(target, fibres, chi=chi, po_max=po_max)
    except ValueError as exc:
        report.status = f"DomainError: {exc}"
        return _emit_report(report, args.format)
    report.results = [("count", str(len(configs)))]
    for i, config in enumerate(configs):
        hits = ",".join(str(h) for h in config.hits)
        report.results.append((f"config_{i}", f"po={config.po} hits=({hits})"))
    return _emit_report(report, args.format)


# ---------------------------------------------------------------- parser

def _rational_arg(text: str) -> Rational:
    """A rational argument; a malformed literal or a zero denominator is a usage error."""
    try:
        return Rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logdgen",
        description="Exact invariants of surface degenerations and fibrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="regenerate an embedded table with cross-checks")
    p_tables.add_argument("which", choices=("I", "IV", "V", "VI", "VII", "ALL"))
    _add_format(p_tables)
    p_tables.set_defaults(func=cmd_tables)

    p_graph = sub.add_parser("graph", help="run dual-graph recognizers and solvers on a file")
    p_graph.add_argument("file")
    p_graph.add_argument("action", choices=("recognize", "discrepancies", "classify"))
    _add_format(p_graph)
    p_graph.set_defaults(func=cmd_graph)

    p_euler = sub.add_parser("euler", help="Euler number of a degenerate fibre from a file")
    p_euler.add_argument("file")
    _add_format(p_euler)
    p_euler.set_defaults(func=cmd_euler)

    p_cbf = sub.add_parser("cbf", help="coefficient invariants, bounds, and feasibility")
    cbf_sub = p_cbf.add_subparsers(dest="subaction", required=True)
    p_inv = cbf_sub.add_parser("invariants")
    p_inv.add_argument("kind", choices=("v1", "v2"))
    p_inv.add_argument("r", type=int)
    p_inv.add_argument("a0", type=int)
    p_inv.add_argument("a1", type=int)
    p_inv.add_argument("a2", type=int)
    p_inv.add_argument("ell", type=int)
    _add_format(p_inv)
    p_inv.set_defaults(func=cmd_cbf)
    p_bound = cbf_sub.add_parser("bound")
    p_bound.add_argument("d", type=int)
    p_bound.add_argument("n_va", type=int)
    _add_format(p_bound)
    p_bound.set_defaults(func=cmd_cbf)
    p_mori = cbf_sub.add_parser("mori")
    p_mori.add_argument("s", type=_rational_arg)
    p_mori.add_argument("b", type=int)
    p_mori.add_argument("N", type=int)
    _add_format(p_mori)
    p_mori.set_defaults(func=cmd_cbf)
    p_nx = cbf_sub.add_parser("nx")
    p_nx.add_argument("x", type=int)
    _add_format(p_nx)
    p_nx.set_defaults(func=cmd_cbf)

    p_mw = sub.add_parser("mw", help="feasible section configurations from a file")
    p_mw.add_argument("file")
    _add_format(p_mw)
    p_mw.set_defaults(func=cmd_mw)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
