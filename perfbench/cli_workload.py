"""The ``cli`` workload: ``python -m logdgen.cli`` calls, one at a time.

A round (a deck) runs twelve well-formed commands three times in each
format (tsv, json): ``tables ALL``, ``tables I``, ``tables IV``, ``graph
recognize|discrepancies|classify`` on generated files, ``euler``, the four
``cbf`` subcommands at small sizes and ``mw``; plus ten malformed inputs,
one of each class below.  A malformed input must end with exit code 1 or 2,
a structured status and no traceback; the classes marked (*) end in a
traceback or a wrong answer at the time this benchmark was written, and
they count as failed operations until the CLI handles them.

Traced runs also replay a deck in-process, with spans around
``build_parser``, ``main`` (per command kind) and the report emission.
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys
import traceback
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd

from logdgen.cbf import regenerate_table_vi_vii
from logdgen.cli import Report, build_parser, main
from logdgen.duval import delpezzo_catalog, recompute_e_orb

from arith import contributions, height_counts, mori_expected, totient_lcm, totients
from graphs import RECOGNIZERS, Shape, perturb, small_catalog

Label = namedtuple("Label", "kind b")
KNOWN_DISCREPANCY = "known discrepancy"
MALFORMED = ("graph_array*", "mw_array*", "self_int_float*", "m_float*", "boundary_zero_den*",
             "mw_target_zero_den*", "mori_zero_den*", "graph_truncated", "mw_missing_target",
             "tables_unknown")
NX_MAX = 30


class Command:
    def __init__(self, kind, argv, fmt, expect, key, robustness=False):
        self.kind, self.argv, self.fmt, self.expect = kind, argv + ["--format", fmt], fmt, expect
        self.key, self.robustness = key, robustness
        self.inprocess = False


# ------------------------------------------------------------ output checks


def report_results(code, out, err, fmt):
    """The (name, value) pairs of an OK report, else None."""
    if code != 0:
        return None
    if fmt == "json":
        data = json.loads(out)
        return [tuple(pair) for pair in data["results"]] if data["status"] == "OK" else None
    return None if err else [tuple(line.split("\t", 1)) for line in out.splitlines()]


def refused(code, out, err, fmt, status_prefix=""):
    """Exit 1 or 2, no traceback, and a status line naming the problem."""
    if code not in (1, 2) or "Traceback" in err:
        return False
    if fmt == "json" and code == 1:
        try:
            status = json.loads(out)["status"]
        except (ValueError, KeyError, TypeError):
            return False
        return status != "OK" and status.startswith(status_prefix)
    last = err.strip().splitlines()[-1] if err.strip() else ""
    return bool(re.match(r"\w+Error: |\S+( \S+)*: error: ", last)) and last.startswith(status_prefix)


def duval_order(family, n):
    return {"A": n + 1, "D": 4 * (n - 2), "E": {6: 24, 7: 48, 8: 120}.get(n)}[family]


def e_orb(degree, singularities):
    """12 - degree - sum of curve counts - sum (1 - 1/o_p)."""
    types = [(s[0], int(s.split("_")[1])) for s in singularities]
    return (12 - degree - sum(n for _, n in types)
            - sum((1 - Fraction(1, duval_order(f, n)) for f, n in types), Fraction(0)))


def parse_tables(out, fmt, names):
    """{table name: rows as {column: text}} from either output format."""
    if fmt == "json":
        data = json.loads(out)
        if len(names) == 1:
            data = {names[0]: data}
        return {name: [{k: "+".join(map(str, v)) if isinstance(v, list) else str(v) for k, v in row.items()}
                       for row in table["rows"]] for name, table in data.items()}
    tables = {}
    for block in out.strip("\n").split("\n\n"):
        lines = block.split("\n")
        columns = lines[1].split("\t")
        tables[lines[0].removeprefix("# Table ")] = [dict(zip(columns, line.split("\t")))
                                                     for line in lines[2:]]
    return tables


def table_four_ok(rows):
    """Recomputed column matches; exactly the mismatching rows, row 17 among them, are flagged."""
    flagged = set()
    for row in rows:
        recomputed = e_orb(int(row["degree"]), row["singularities"].split("+"))
        if str(recomputed) != row["e_orb_recomputed"]:
            return False
        if row["note"] != (KNOWN_DISCREPANCY if row["e_orb"] != row["e_orb_recomputed"] else ""):
            return False
        if row["note"]:
            flagged.add(row["row"])
    return len(rows) == 27 and "17" in flagged


def tables_expect(which):
    names = ["I", "IV", "V", "VI", "VII"] if which == "ALL" else [which]

    def expect(code, out, err, fmt):
        if code != 0 or err:
            return False
        tables = parse_tables(out, fmt, names)
        if sorted(tables) != sorted(names):
            return False
        if "I" in tables and [row["case"] for row in tables["I"]] != [str(c) for c in range(1, 7)]:
            return False
        return "IV" not in tables or table_four_ok(tables["IV"])
    return expect


def exact(pairs):
    return lambda code, out, err, fmt: report_results(code, out, err, fmt) == pairs


# ------------------------------------------------------------ workload


class Cli:
    modules = ("logdgen.cli",)

    def __init__(self, rng, tracer, root):
        self.rng, self.tracer, self.root = rng, tracer, root
        self.workdir = os.path.join(root, ".bench_build", "perfbench", f"cli-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
        self.catalog = list(small_catalog(rng))
        self.phi = totients(2 * NX_MAX * NX_MAX)
        self.files = 0
        self.sp_16_3 = 3 ** 256
        for i in range(1, 17):
            self.sp_16_3 *= 3 ** (2 * i) - 1

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _file(self, content):
        self.files += 1
        path = os.path.join(self.workdir, f"in{self.files}.json")
        text = content if isinstance(content, str) else json.dumps(content)
        with open(path, "w") as handle:
            handle.write(text)
        return path, text

    # ---- well-formed commands

    def _graph(self, action, fmt):
        rng = self.rng
        g, labels = rng.choice(self.catalog)
        if action != "discrepancies" and rng.random() < 0.3:
            g, labels = perturb(g, rng)
        shape = Shape(g)
        if action == "discrepancies":
            while not shape.exc or shape.expected_class() is None:
                g, labels = rng.choice(self.catalog)
                shape = Shape(g)
        path, text = self._file(g)
        if action == "recognize":
            expect = exact([(name, labels[name]) for name in RECOGNIZERS])
        elif action == "discrepancies":
            def expect(code, out, err, fmt):
                pairs = report_results(code, out, err, fmt)
                return (pairs is not None and [vid for vid, _ in pairs] == sorted(shape.exc)
                        and shape.solves_pullback({vid: Fraction(v) for vid, v in pairs}))
        else:
            cls = shape.expected_class() if shape.exc else shape.pair_class({})
            if cls is None:
                def expect(code, out, err, fmt):
                    return code == 1 and refused(code, out, err, fmt, "SolverError: ")
            else:
                expect = exact([("class", cls)])
        return Command("graph", ["graph", path, action], fmt, expect, ("graph", action, text))

    def _euler(self, fmt):
        rng = self.rng
        comps = [{"m": rng.randint(1, 4), "e_orb": str(Fraction(rng.randint(-6, 6), rng.randint(1, 6))),
                  "deltas": [str(Fraction(rng.randint(0, 5), rng.randint(1, 6)))
                             for _ in range(rng.randint(0, 2))]}
                 for _ in range(rng.randint(1, 4))]
        total = sum((c["m"] * (Fraction(c["e_orb"]) + sum(map(Fraction, c["deltas"]), Fraction(0)))
                     for c in comps), Fraction(0))
        path, text = self._file({"components": comps})
        expect = exact([("euler", str(total)), ("chi_zero_consistent", "true" if total == 0 else "false")])
        return Command("euler", ["euler", path], fmt, expect, ("euler", text))

    def _cbf(self, sub, fmt):
        rng = self.rng
        if sub == "invariants":
            while True:
                kind, r = rng.choice(("v1", "v2")), rng.randint(3, 12)
                a = [rng.randrange(r) for _ in range(3)]
                den = a[2] if kind == "v1" else a[0] + a[1]
                if sum(a) < r and den and (kind == "v2" or gcd(r, a[2]) == 1):
                    break
            ell = r * rng.randint(1, 2)
            mu = Fraction(r - sum(a), ell * den)
            argv = ["cbf", "invariants", kind, str(r), *map(str, a), str(ell)]
            pairs = [("mu_star", str(mu)), ("s_star", str(Fraction(ell - 1, ell) - mu)),
                     ("c_star", str(mu * ell))]
        elif sub == "bound":
            d, n_va = rng.randint(1, 20), rng.randint(1, 20)
            argv, pairs = ["cbf", "bound", str(d), str(n_va)], [("bound", str(16 * d * n_va * self.sp_16_3))]
        elif sub == "mori":
            b, big_n, q = rng.randint(1, 3), rng.randint(1, 24), rng.randint(1, 12)
            s = Fraction(rng.randrange(b * q), q)
            answer = mori_expected(s, b, big_n)
            argv = ["cbf", "mori", str(s), str(b), str(big_n)]
            pairs = [("mori", answer)] if isinstance(answer, str) else [("u", str(answer[0])), ("v", str(answer[1]))]
        else:
            x = rng.randint(2, NX_MAX)
            argv = ["cbf", "nx", str(x)]
            pairs = [("N", str(totient_lcm(self.phi, x)))]
        return Command("cbf", argv, fmt, exact(pairs), tuple(argv))

    def _mw(self, fmt):
        rng = self.rng
        pool = [Label("I", n) for n in range(2, 7)] + [Label("I*", 1), Label("I*", 2)]
        labels = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
        heights = height_counts(labels)
        target = rng.choice(sorted(heights)) if rng.random() < 0.7 else Fraction(15, 2)
        fibres = [{"label": f"{l.kind}_{l.b}", "components": l.b if l.kind == "I" else l.b + 5}
                  for l in labels]
        path, text = self._file({"fibres": fibres, "chi": 1, "target": str(target), "po_max": 2})

        def expect(code, out, err, fmt):
            pairs = report_results(code, out, err, fmt)
            if not pairs or pairs[0] != ("count", str(heights[target])):
                return False
            configs = []
            for name, value in pairs[1:]:
                m = re.fullmatch(r"po=(\d+) hits=\(([\d,]*)\)", value)
                if not m:
                    return False
                configs.append((int(m[1]), tuple(int(h) for h in m[2].split(","))))
            return len(configs) == heights[target] and configs == sorted(set(configs)) and all(
                2 + 2 * po - sum(contributions(l)[h] for l, h in zip(labels, hits)) == target
                for po, hits in configs)
        return Command("mw", ["mw", path], fmt, expect, ("mw", text))

    # ---- malformed inputs

    def _malformed(self, cls, fmt):
        rng = self.rng
        clean = lambda code, out, err, fmt: refused(code, out, err, fmt)  # noqa: E731
        k = rng.randint(1, 9)
        if cls.startswith("graph_array"):
            content, kind, argv = [{"id": "E1", "self_int": -2}] * k, "graph", ["recognize"]
        elif cls.startswith("mw_array"):
            content, kind, argv = [{"label": "I_3", "components": 3}] * k, "mw", []
        elif cls.startswith("self_int_float"):
            content = {"vertices": [{"id": "E1", "self_int": -2 - k / 10}]}
            kind, argv = "graph", ["discrepancies"]
        elif cls.startswith("m_float"):
            content, kind, argv = {"components": [{"m": 1 + k / 10, "e_orb": "1"}]}, "euler", []
        elif cls.startswith("boundary_zero_den"):
            content = {"vertices": [{"id": "E1", "self_int": -2},
                                    {"id": "B1", "self_int": 0, "role": "strict", "boundary": f"{k}/0"}],
                       "edges": [{"a": "E1", "b": "B1"}]}
            kind, argv = "graph", ["recognize"]
        elif cls.startswith("mw_target_zero_den"):
            content = {"fibres": [{"label": "I_3", "components": 3}], "target": f"{k}/0"}
            kind, argv = "mw", []
        elif cls.startswith("graph_truncated"):
            text = json.dumps(rng.choice(self.catalog)[0])
            content, kind, argv = text[: len(text) // 2], "graph", ["classify"]
        elif cls.startswith("mw_missing_target"):
            content, kind, argv = {"fibres": [{"label": "I_2", "components": 2}]}, "mw", []
        elif cls.startswith("mori_zero_den"):
            argv = ["cbf", "mori", f"{k}/0", "1", str(rng.randint(1, 12))]
            return Command("cbf", argv, fmt, clean, tuple(argv), robustness=True)
        else:
            argv = ["tables", rng.choice(("II", "III", "VIII", "all"))]
            return Command("tables", argv, fmt, clean, tuple(argv), robustness=True)
        path, text = self._file(content)
        argv = [kind, path] + argv
        return Command(kind, argv, fmt, clean, (kind, text, *argv[2:]), robustness=True)

    # ---- rounds

    def round(self, index):
        items = []
        for fmt in ("tsv", "json"):
            for _ in range(3):
                items += [Command("tables", ["tables", which], fmt, tables_expect(which), ("tables", which))
                          for which in ("ALL", "I", "IV")]
                items += [self._graph(action, fmt) for action in ("recognize", "discrepancies", "classify")]
                items += [self._euler(fmt), self._mw(fmt)]
                items += [self._cbf(sub, fmt) for sub in ("invariants", "bound", "mori", "nx")]
        items += [self._malformed(cls, self.rng.choice(("tsv", "json"))) for cls in MALFORMED]
        self.rng.shuffle(items)
        return items

    def reference(self):
        items = self.round(-1)
        for item in items:
            item.inprocess = True
        return items

    def run(self, item):
        if item.inprocess:
            return self._run_inprocess(item)
        proc = self.tracer.call("cli.subprocess", subprocess.run,
                                [sys.executable, "-m", "logdgen.cli", *item.argv],
                                cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr, None

    def _run_inprocess(self, item):
        call = self.tracer.call
        call("cli.build_parser", build_parser)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = call("cli.main", main, item.argv, bucket=item.kind)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an input the CLI does not handle yet escapes as a traceback
                self.tracer.count("cli.main", "failed")
                traceback.print_exc()
                code = 1
        out, err = out.getvalue(), err.getvalue()
        emitted = None
        if item.fmt == "json" and item.kind != "tables" and code in (0, 1) and out.startswith("{"):
            data = json.loads(out)
            report = Report(data["command"], data["inputs"], [tuple(r) for r in data["results"]],
                            data["status"])
            emitted = call("cli.report_emit", lambda r: json.dumps(r.to_json(), indent=2), report)
            emitted = emitted == out.rstrip("\n")
        if item.kind == "tables":
            emitted = self._tables_kernels()
        return code, out, err, emitted

    def _tables_kernels(self):
        """The kernels behind the tables commands, checked against closed forms."""
        call = self.tracer.call
        ok = True
        for entry in delpezzo_catalog():
            got = call("duval.recompute_e_orb", recompute_e_orb, entry.degree, entry.singularities)
            ok &= got == e_orb(entry.degree, [str(t) for t in entry.singularities])
        for row in call("cbf.regenerate_table_vi_vii", regenerate_table_vi_vii):
            v = row.row.vector
            den = v.a[2] if v.kind == "V1" else v.a[0] + v.a[1]
            for ell, mu, _, s, _ in row.evaluations:
                ok &= mu == Fraction(v.r - sum(v.a), ell * den) and s == Fraction(ell - 1, ell) - mu
        return ok

    def check(self, item, result):
        code, out, err, emitted = result
        return item.expect(code, out, err, item.fmt) and emitted is not False

