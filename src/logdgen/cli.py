"""Command-line front end.

Regenerates the embedded tables with a recompute-versus-literal cross-check,
evaluates invariants from configuration files, and emits machine-readable
reports.  Exit codes: 0 ok, 1 domain error or cross-check mismatch, 2 usage.
Each command imports the package modules it computes with, and ``json`` when
it reads or writes JSON, in its own body, so that a short run does not pay
for compiling and loading the others.  ``_run`` alone sets a report's status.
"""

import argparse
import sys
from fractions import Fraction as Rational

from .core import (KodairaLabel, ParseError, Record, classical_euler, json_array, json_int,
                   parse_rational)

EXIT_OK = 0
EXIT_DOMAIN = 1

KNOWN_DISCREPANCY = "known discrepancy"


class Report(Record):
    """What every non-table command emits; filled in as the command runs."""

    _fields = ("command", "inputs", "results", "status")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, command: str, inputs: dict, results: list | None = None,
                 status: str = "OK") -> None:
        self.__dict__.update(command=command, inputs=inputs,
                             results=[] if results is None else results, status=status)

    def to_json(self) -> dict:
        return dict(self.__dict__)  # the fields in order; json writes each pair as an array


class _NumberLiteral(str):
    """A non-integer JSON number kept as written, so that parse_rational reads it exactly."""

    __repr__ = str.__str__  # json_int's refusal prints it as written


def _read_json_file(path: str) -> dict:
    """The JSON object in the file; anything else raises ParseError."""
    import json
    try:
        with open(path) as handle:
            data = json.load(handle, parse_float=_NumberLiteral)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except (OSError, ValueError, RecursionError) as exc:
        # an unreadable file, undecodable bytes, a huge integer, deep nesting
        raise ParseError(str(exc)) from None
    if not isinstance(data, dict):
        raise ParseError(f"top level must be a JSON object, got {type(data).__name__}")
    return data


def _run(args, inputs: dict, read, compute, invalid: str = "DomainError",
         failed: str = "DomainError") -> int:
    """Emit the report of ``compute(read(the JSON object in args.file))``, or of
    the error that stopped it; ``read`` is None when argparse reads every input."""
    report = Report(args.command, inputs)
    try:
        data = read(_read_json_file(args.file)) if read else None
    except (KeyError, TypeError, ParseError) as exc:
        report.status = f"ParseError: {exc}"
    except ValueError as exc:
        report.status = f"{invalid}: {exc}"
    else:
        try:
            report.results = compute(data)
        except ValueError as exc:
            report.status = f"{failed}: {exc}"
    if args.format == "json":
        import json
        print(json.dumps(report.to_json(), indent=2))
    else:
        for name, value in report.results:
            print(f"{name}\t{value}")
        if report.status != "OK":
            print(report.status, file=sys.stderr)
    return EXIT_OK if report.status == "OK" else EXIT_DOMAIN


# ---------------------------------------------------------------- tables

def _check_table_one() -> tuple[list[dict], list[str]]:
    """Parametric rows, cross-checked on the tabulated sample grid."""
    from .duval import COVER_TABLE_ROWS, CoverCase, c_p, delta_p, e_p, o_p
    mismatches = []
    rows = []
    for case, (e, o, c, d), samples in COVER_TABLE_ROWS:
        rows.append({"case": str(case), "e_p": e, "o_p": o, "c_p": c, "delta_p": d})
        for r, n, *want in samples:
            cover = CoverCase(case, r=r, n=n)
            got = [e_p(cover), o_p(cover), c_p(cover), delta_p(cover)]
            if got != want:
                mismatches.append(
                    f"table I case {case} at r={r}, n={n}: recomputed "
                    f"({', '.join(map(str, got))}), tabulated ({', '.join(map(str, want))})"
                )
    return rows, mismatches


def _check_table_four() -> tuple[list[dict], list[str]]:
    """27 catalog rows with the recomputed orbifold Euler column alongside."""
    from .duval import DELPEZZO_KNOWN_DISCREPANCIES, delpezzo_catalog, recompute_e_orb
    mismatches = []
    rows = []
    for entry in delpezzo_catalog():
        recomputed = recompute_e_orb(entry.degree, entry.singularities)
        note = ""
        if recomputed != entry.e_orb:
            if entry.row in DELPEZZO_KNOWN_DISCREPANCIES:
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


def _check_table_five() -> tuple[list[dict], list[str]]:
    """Each row against s* = b((ell*-1)/ell* - mu*), each Kodaira column against s* = e(F)/12."""
    from .cbf import elliptic_table_rows, validate_fibre_invariants
    mismatches = []
    rows = []
    for column, m, label, inv in elliptic_table_rows():
        where = f"table V column {column} (m={m})"
        if not validate_fibre_invariants(inv):
            mismatches.append(
                f"{where}: (ell*, mu*, s*) = ({inv.ell}, {inv.mu}, {inv.s}) breaks "
                "s* = b((ell*-1)/ell* - mu*) or s* = 0 iff ell* = 1"
            )
        euler_twelfth = Rational(classical_euler(label), 12)
        if column != "_mI_b" and inv.s != euler_twelfth:
            mismatches.append(f"{where}: s* = {inv.s}, but e(F)/12 = {euler_twelfth}")
        rows.append(
            {"column": column, "m": m, "ell": str(inv.ell), "mu": str(inv.mu), "s": str(inv.s)}
        )
    return rows, mismatches


def _check_table_abelian(name: str) -> tuple[list[dict], list[str]]:
    """Tables VI/VII evaluated at ell = r and ell = 2r."""
    from .cbf import C_STAR_VALUES, regenerate_table_vi_vii
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


# Table name -> builder returning the rows and mismatches.  Every builder
# writes its row dicts in column order, so the columns are the first row's keys.
_TABLES = {
    "I": _check_table_one,
    "IV": _check_table_four,
    "V": _check_table_five,
    "VI": lambda: _check_table_abelian("VI"),
    "VII": lambda: _check_table_abelian("VII"),
}


def _render_cell(column: str, value) -> str:
    if isinstance(value, list):
        sep = "+" if column == "singularities" else ","
        return sep.join(str(x) for x in value)
    return str(value)


def cmd_tables(args) -> int:
    names = list(_TABLES) if args.which == "ALL" else [args.which]
    mismatches = []
    emitted = {}
    for name in names:
        rows, bad = _TABLES[name]()
        emitted[name] = {"columns": list(rows[0]), "rows": rows}
        mismatches.extend(bad)
    if args.format == "json":
        import json
        payload = emitted[names[0]] if len(names) == 1 else emitted
        print(json.dumps(payload, indent=2))
    else:
        for i, name in enumerate(names):
            if i:
                print()
            columns = emitted[name]["columns"]
            print(f"# Table {name}")
            print("\t".join(columns))
            for row in emitted[name]["rows"]:
                print("\t".join(_render_cell(col, row[col]) for col in columns))
    for line in mismatches:
        print(f"cross-check mismatch: {line}", file=sys.stderr)
    return EXIT_DOMAIN if mismatches else EXIT_OK


# ---------------------------------------------------------------- graph

def cmd_graph(args) -> int:
    from .dualgraph import (classify_pair, graph_from_json, pullback_coefficients, recognize_duval,
                            recognize_fibre_type, recognize_half_catalog, recognize_kodaira)

    def compute(graph):
        if args.action == "recognize":
            return [
                ("duval", str(recognize_duval(graph))),
                ("kodaira", str(recognize_kodaira(graph))),
                ("half_catalog", str(recognize_half_catalog(graph))),
                ("fibre_type", str(recognize_fibre_type(graph))),
            ]
        if args.action == "discrepancies":
            coeffs = pullback_coefficients(graph)
            return [(vid, str(coeffs[vid])) for vid in sorted(coeffs)]
        return [("class", classify_pair(graph))]

    return _run(args, {"file": args.file, "action": args.action}, graph_from_json, compute,
                invalid="ParseError", failed="SolverError")


# ---------------------------------------------------------------- euler

def cmd_euler(args) -> int:
    from .eulerform import FibreComponentData, euler_degenerate_fibre

    def read(data):
        return [
            FibreComponentData(
                m=json_int(entry, "m"),
                e_orb=parse_rational(entry["e_orb"]),
                deltas=tuple(
                    parse_rational(d) for d in json_array(entry.get("deltas", []), "deltas")
                ),
            )
            for entry in json_array(data["components"], "components")
        ]

    def compute(components):
        value = euler_degenerate_fibre(components)  # may be too long to print
        return [
            ("euler", str(value)),
            ("chi_zero_consistent", "true" if value == 0 else "false"),
        ]

    return _run(args, {"file": args.file}, read, compute, invalid="ValidationError")


# ---------------------------------------------------------------- cbf

def cmd_cbf(args) -> int:
    from .cbf import (INFEASIBLE, V1, V2, PrimitiveVector, abelian_invariants, fibre_bound,
                      mori_feasible, n_of_x)
    inputs = {"subaction": args.subaction}

    def compute(_):
        if args.subaction == "invariants":
            kind = V1 if args.kind == "v1" else V2
            inputs.update(
                {"kind": args.kind, "r": args.r, "a": [args.a0, args.a1, args.a2], "ell": args.ell}
            )
            vector = PrimitiveVector(kind, args.r, (args.a0, args.a1, args.a2))
            mu, s = abelian_invariants(vector, args.ell)
            return [
                ("mu_star", str(mu)),
                ("s_star", str(s)),
                ("c_star", str(mu * args.ell)),
            ]
        if args.subaction == "bound":
            inputs.update({"d": args.d, "n_va": args.n_va})
            return [("bound", str(fibre_bound(args.d, args.n_va)))]
        if args.subaction == "mori":
            inputs.update({"s": str(args.s), "b": args.b, "N": args.N})
            answer = mori_feasible(args.s, args.b, args.N)
            if answer == INFEASIBLE:
                return [("mori", INFEASIBLE)]
            return [("u", str(answer[0])), ("v", str(answer[1]))]
        inputs.update({"x": args.x})
        return [("N", str(n_of_x(args.x)))]

    return _run(args, inputs, None, compute)


# ---------------------------------------------------------------- mw

def _json_label(entry: dict) -> str:
    """The fibre's label; a number, an array or any other non-string raises TypeError."""
    label = entry["label"]
    if type(label) is not str:  # not isinstance: a _NumberLiteral is a str
        raise TypeError(f"label must be a string, got {label!r}")
    return label


def cmd_mw(args) -> int:
    from .mordellweil import solve_section_config
    inputs = {"file": args.file}

    def read(data):
        fibres = [
            (KodairaLabel.parse(_json_label(entry)), json_int(entry, "components"))
            for entry in json_array(data.get("fibres", []), "fibres")
        ]
        chi = json_int(data, "chi", 1)
        target = parse_rational(data["target"])
        po_max = json_int(data, "po_max", 2)
        if chi < 1:
            raise ValueError(f"chi must be a positive integer, got {chi}")
        inputs.update(
            {
                "fibres": [[str(label), count] for label, count in fibres],
                "chi": str(chi),
                "target": str(target),
                "po_max": po_max,
            }
        )
        return target, fibres, chi, po_max

    def compute(search):
        configs = solve_section_config(*search)
        results = [("count", str(len(configs)))]
        for i, config in enumerate(configs):
            hits = ",".join(str(h) for h in config.hits)
            results.append((f"config_{i}", f"po={config.po} hits=({hits})"))
        return results

    return _run(args, inputs, read, compute)


# ---------------------------------------------------------------- parser

def _rational_arg(text: str) -> Rational:
    """A rational argument; a malformed, oversized or k/0 literal is a usage error."""
    try:
        return parse_rational(text)
    except ParseError:
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logdgen",
        description="Exact invariants of surface degenerations and fibrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("tsv", "json"), default="tsv")

    p_tables = sub.add_parser("tables", parents=[fmt],
                              help="regenerate an embedded table with cross-checks")
    p_tables.add_argument("which", choices=(*_TABLES, "ALL"))
    p_tables.set_defaults(func=cmd_tables)

    p_graph = sub.add_parser("graph", parents=[fmt],
                             help="run dual-graph recognizers and solvers on a file")
    p_graph.add_argument("file")
    p_graph.add_argument("action", choices=("recognize", "discrepancies", "classify"))
    p_graph.set_defaults(func=cmd_graph)

    p_euler = sub.add_parser("euler", parents=[fmt],
                             help="Euler number of a degenerate fibre from a file")
    p_euler.add_argument("file")
    p_euler.set_defaults(func=cmd_euler)

    p_cbf = sub.add_parser("cbf", help="coefficient invariants, bounds, and feasibility")
    p_cbf.set_defaults(func=cmd_cbf)  # for every subcommand
    cbf_sub = p_cbf.add_subparsers(dest="subaction", required=True)
    p_inv = cbf_sub.add_parser("invariants", parents=[fmt])
    p_inv.add_argument("kind", choices=("v1", "v2"))
    for name in ("r", "a0", "a1", "a2", "ell"):
        p_inv.add_argument(name, type=int)
    p_bound = cbf_sub.add_parser("bound", parents=[fmt])
    p_bound.add_argument("d", type=int)
    p_bound.add_argument("n_va", type=int)
    p_mori = cbf_sub.add_parser("mori", parents=[fmt])
    p_mori.add_argument("s", type=_rational_arg)
    p_mori.add_argument("b", type=int)
    p_mori.add_argument("N", type=int)
    p_nx = cbf_sub.add_parser("nx", parents=[fmt])
    p_nx.add_argument("x", type=int)

    p_mw = sub.add_parser("mw", parents=[fmt], help="feasible section configurations from a file")
    p_mw.add_argument("file")
    p_mw.set_defaults(func=cmd_mw)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
