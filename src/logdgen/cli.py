"""Command-line front end.

Regenerates the embedded tables with a recompute-versus-literal cross-check,
evaluates invariants from configuration files, and emits machine-readable
reports.  Exit codes: 0 ok, 1 domain error, cross-check mismatch or a write to
stdout that failed, 2 usage.  Each command imports the package modules it
computes with, and ``json`` when it reads or writes JSON, in its own body, so
that a short run does not pay for compiling and loading the others:
``tables`` loads ``tables``, and ``graph`` loads the recognizers of
``dualgraph`` only for ``recognize``.  ``_run`` alone builds a report, once
its results and status are known; it and ``_parse_args`` write each status
and argparse line through ``brief``, the one rule that shortens an echo.

A plainly written command line is parsed without loading ``argparse`` (and
the ``gettext`` and ``locale`` it loads): the command word, for ``cbf`` the
subcommand word, then exactly the positionals, each one at most
``MAX_LITERAL_DIGITS`` characters long and accepted by its choices or
converter, and at most one ``--format tsv`` or ``--format json``
anywhere after the command word (after the subcommand word for ``cbf``).
Every other command line goes to ``build_parser``, which prints the help for
``-h`` and the usage error for a refused value, ``--format=json``, an
abbreviated option, ``--``, any other token starting with ``-``, or a token
missing or too many.  One table, ``_COMMANDS``, gives both parsers the
commands and their positionals.
"""

import contextlib
import errno
import os
import re
import sys
from fractions import Fraction as Rational
from types import SimpleNamespace

from .core import (MAX_ANSWER_DIGITS, MAX_LITERAL_DIGITS, KodairaLabel, ParseError, Record,
                   json_array, json_int, parse_rational)

EXIT_OK = 0
EXIT_DOMAIN = 1
MAX_LINE = 200


def brief(line: str) -> str:
    """``line`` with each run of more than 20 digits written as its length,
    then cut to its head and length if still MAX_LINE characters or longer.

    >>> brief("x = " + "9" * 1000 + " exceeds 200"), len(brief("a" * 5000))
    ('x = <1000 digits> exceeds 200', 121)
    """
    line = re.sub(r"\d{21,}", lambda m: f"<{len(m[0])} digits>", line)
    return line if len(line) < MAX_LINE else f"{line[:MAX_LINE // 2]}... <{len(line)} characters>"


class Report(Record):
    """What every non-table command emits."""

    def __init__(self, command: str, inputs: dict, results: list, status: str) -> None:
        self.__dict__.update(command=command, inputs=inputs, results=results, status=status)

    def to_json(self) -> dict:
        return dict(self.__dict__)  # the fields in order; json writes each pair as an array


class _NumberLiteral(str):
    """A non-integer JSON number kept as written, so that parse_rational reads it exactly."""

    __repr__ = str.__str__  # json_int's refusal prints it as written


def _integer_literal(literal: str) -> int:
    """A JSON integer, refused before ``int`` reads more than MAX_ANSWER_DIGITS digits."""
    if len(literal) - literal.startswith("-") > MAX_ANSWER_DIGITS:
        raise ParseError(f"integer literal {literal!r} exceeds {MAX_ANSWER_DIGITS} digits")
    return int(literal)


def _read_json_file(path: str) -> dict:
    """The JSON object in the file; anything else raises ParseError."""
    import json
    try:
        with open(path) as handle:
            data = json.load(handle, parse_float=_NumberLiteral, parse_int=_integer_literal)
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
    the error that stopped it; ``read`` is None when the command line holds every input."""
    results, status = [], "OK"
    try:
        data = read(_read_json_file(args.file)) if read else None
    except (KeyError, TypeError, ParseError) as exc:
        status = f"ParseError: {exc}"
    except ValueError as exc:
        status = f"{invalid}: {exc}"
    else:
        try:
            results = compute(data)
        except ValueError as exc:
            status = f"{failed}: {exc}"
    report = Report(args.command, inputs, results, brief(status))
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

# The table names, in the order ``tables ALL`` prints them; tables._TABLES builds each.
TABLE_NAMES = ("I", "IV", "V", "VI", "VII")


def cmd_tables(args) -> int:
    from .tables import print_tables
    return EXIT_OK if print_tables(args.which, args.format) else EXIT_DOMAIN


# ---------------------------------------------------------------- graph

def cmd_graph(args) -> int:
    from .graph import classify_pair, graph_from_json, pullback_coefficients

    def compute(graph):
        if args.action == "recognize":
            from .dualgraph import (recognize_duval, recognize_fibre_type, recognize_half_catalog,
                                    recognize_kodaira)
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
        value = euler_degenerate_fibre(components)
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

def _literal(text: str, kind: str) -> str:
    """``text``, unless it is longer than MAX_LITERAL_DIGITS characters: then
    argparse's ArgumentTypeError, whose usage error names the bound."""
    if len(text) > MAX_LITERAL_DIGITS:
        import argparse  # such a command line ends in argparse's usage error anyway
        raise argparse.ArgumentTypeError(
            f"{kind} literal {text!r} exceeds {MAX_LITERAL_DIGITS} digits")
    return text


def rational(text: str) -> Rational:
    """A rational argument.  A malformed or k/0 literal, or one whose exponent
    is too large, raises ParseError, a ValueError, which argparse reports
    under this function's name: ``invalid rational value: '1/0'``."""
    return parse_rational(_literal(text, "rational"))


def integer(text: str) -> int:
    """An integer argument: ``int`` alone would read up to 4300 digits."""
    return int(_literal(text, "integer"))


FORMATS = ("tsv", "json")

# Each command's help, function and positionals, as (name, choices or
# converter); cbf maps each of its subcommands to the positionals.  Both
# build_parser and _parse_plain read it.
_COMMANDS = {
    "tables": ("regenerate an embedded table with cross-checks", cmd_tables,
               (("which", (*TABLE_NAMES, "ALL")),)),
    "graph": ("run dual-graph recognizers and solvers on a file", cmd_graph,
              (("file", str), ("action", ("recognize", "discrepancies", "classify")))),
    "euler": ("Euler number of a degenerate fibre from a file", cmd_euler, (("file", str),)),
    "cbf": ("coefficient invariants, bounds, and feasibility", cmd_cbf, {
        "invariants": (("kind", ("v1", "v2")),
                       *((name, integer) for name in ("r", "a0", "a1", "a2", "ell"))),
        "bound": (("d", integer), ("n_va", integer)),
        "mori": (("s", rational), ("b", integer), ("N", integer)),
        "nx": (("x", integer),),
    }),
    "mw": ("feasible section configurations from a file", cmd_mw, (("file", str),)),
}


def build_parser() -> "argparse.ArgumentParser":
    """The argparse parser of every spelling, with the help and usage messages."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="logdgen",
        description="Exact invariants of surface degenerations and fibrations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=FORMATS, default="tsv")

    def add(subparsers, name, positionals, **kwargs):
        p = subparsers.add_parser(name, parents=[fmt], **kwargs)
        for dest, accept in positionals:
            p.add_argument(dest, **{"choices" if type(accept) is tuple else "type": accept})
        return p

    for name, (text, func, positionals) in _COMMANDS.items():
        if type(positionals) is dict:
            p = sub.add_parser(name, help=text)
            subactions = p.add_subparsers(dest="subaction", required=True)
            for subaction, sub_positionals in positionals.items():
                add(subactions, subaction, sub_positionals)
        else:
            p = add(sub, name, positionals, help=text)
        p.set_defaults(func=func)  # for every cbf subcommand too
    return parser


def _parse_plain(argv):
    """The namespace argparse makes of a plainly written command line, else None.

    Plainly written is the command, the cbf subcommand, exactly their
    positionals, each at most MAX_LITERAL_DIGITS characters and passing its
    choices or converter, and at most one ``--format tsv|json`` anywhere
    after the command word (the subcommand word for cbf).  Any other token
    that starts with ``-`` makes it None.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, func, positionals = _COMMANDS[argv[0]]
    fields = {"command": argv[0], "func": func, "format": "tsv"}
    rest = list(argv[1:])
    if type(positionals) is dict:
        subaction = rest.pop(0) if rest else None
        if subaction not in positionals:
            return None
        fields["subaction"], positionals = subaction, positionals[subaction]
    if "--format" in rest:
        i = rest.index("--format")
        fields["format"] = rest[i + 1] if i + 1 < len(rest) else None
        del rest[i:i + 2]
    if fields["format"] not in FORMATS or len(rest) != len(positionals):
        return None
    for (name, accept), text in zip(positionals, rest):
        if text.startswith("-") or len(text) > MAX_LITERAL_DIGITS:
            return None
        if type(accept) is tuple:
            if text not in accept:
                return None
            fields[name] = text
        else:
            try:
                fields[name] = accept(text)
            except ValueError:
                return None
    return SimpleNamespace(**fields)


def _parse_args(argv):
    """argparse's namespace of ``argv``.  What argparse prints is written here,
    a line at a time through ``brief`` since argparse echoes a refused value in
    full; a failed write of the help raises OSError, which argparse would drop."""
    import io
    streams = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        return build_parser().parse_args(argv)
    finally:
        printed, (sys.stdout, sys.stderr) = (sys.stdout.getvalue(), sys.stderr.getvalue()), streams
        help_text, error = ("\n".join(map(brief, text.split("\n"))) for text in printed)
        if help_text:  # on stderr when stdout is closed, as argparse would
            print(help_text, end="", file=sys.stdout or sys.stderr, flush=True)
        with contextlib.suppress(AttributeError, OSError):  # argparse's, on a closed or full stderr
            sys.stderr.write(error)


def main(argv=None) -> int:
    """Run one command line; a plainly written one is parsed without argparse."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_plain(argv) or _parse_args(argv)
        if sys.stdout is None:  # started with stdout closed: no report can be written
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        code = args.func(args)
        sys.stdout.flush()
    except OSError as exc:  # stdout refused a write: a full disk, a closed pipe or fd
        print(f"OSError: {exc}", file=sys.stderr)
        if sys.stdout is not None:
            # the interpreter flushes stdout again as it exits; send that flush nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())
