"""Dual-graph inputs for the graph workloads, built without the package.

Every graph is written straight to the JSON form that ``graph_from_json``
reads, so the inputs do not change when the package's own generators do.
Vertex names follow the package's conventions (``E1..En`` for exceptional
chains, ``S0..Sb`` for an I*_b spine, ``C1..`` for fibre components, ``B1..``
for coefficient-1/2 branches): the isomorphism search orders vertices by
name, so its cost depends on them.

Expected outcomes come from this file alone: the label each graph was
generated for, an exact negative-definiteness test by fraction-free
elimination, an exact solver, the classification rule as documented, and a
blow-down simulation.
"""

import json
from fractions import Fraction

UNRECOGNIZED = "UNRECOGNIZED"
INF = "inf"
HALF = Fraction(1, 2)
RECOGNIZERS = ("duval", "kodaira", "half_catalog", "fibre_type")

# ------------------------------------------------------------ constructors


def vertex(vid, self_int, role="exceptional", mult=1, boundary=0, genus=0):
    return {"id": vid, "self_int": self_int, "genus": genus, "mult": mult,
            "boundary": str(Fraction(boundary)), "role": role}


def edge(a, b, w=1):
    return {"a": a, "b": b, "w": w}


def chain(ids):
    return [edge(a, b) for a, b in zip(ids, ids[1:])]


def graph(vs, es, tangency=None, coincident=None):
    out = {"vertices": vs, "edges": es}
    if tangency:
        out["tangency"] = tangency
    if coincident:
        out["coincident"] = coincident
    return out


def expect(**labels):
    """Expected recognizer labels; every recognizer not named refuses."""
    return {name: labels.get(name, UNRECOGNIZED) for name in RECOGNIZERS}


def duval(family, n):
    ids = [f"E{i}" for i in range(1, n + 1)]
    vs = [vertex(v, -2) for v in ids]
    if family == "A":
        es = chain(ids)
    elif family == "D":
        es = chain(ids[: n - 2]) + [edge(ids[n - 3], ids[n - 2]), edge(ids[n - 3], ids[n - 1])]
    else:
        es = chain(ids[: n - 1]) + [edge("E3", ids[n - 1])]
    return graph(vs, es), expect(duval=f"{family}_{n}")


def _fibre(vid, self_int=-2, mult=1):
    return vertex(vid, self_int, "fibre", mult)


# Main chain multiplicities, the chain position (1-based) carrying the
# extra arm, and the arm's multiplicities from the chain outwards.
_STAR_FIBRES = {
    "IV*": ([1, 2, 3, 2, 1], 3, [2, 1]),
    "III*": ([1, 2, 3, 4, 3, 2, 1], 4, [2]),
    "II*": ([1, 2, 3, 4, 5, 6, 4, 2], 6, [3]),
}


def kodaira(kind, b=None):
    label = kind if b is None else f"{kind}_{b}"
    if kind == "II":
        g = graph([_fibre("C1", 0)], [])
    elif kind == "I" and b == 1:
        g = graph([_fibre("C1", 0)], [], tangency={"C1": 1})
    elif kind == "I" and b == 2:
        g = graph([_fibre("C1"), _fibre("C2")], [edge("C1", "C2"), edge("C1", "C2")])
    elif kind == "III":
        g = graph([_fibre("C1"), _fibre("C2")], [edge("C1", "C2", 2)])
    elif kind == "IV":
        ids = ["C1", "C2", "C3"]
        g = graph([_fibre(v) for v in ids],
                  [edge("C1", "C2"), edge("C1", "C3"), edge("C2", "C3")], coincident=[ids])
    elif kind == "I":
        ids = [f"C{i}" for i in range(1, b + 1)]
        g = graph([_fibre(v) for v in ids], chain(ids) + [edge(ids[-1], ids[0])])
    elif kind == "I*":
        spine = [f"S{i}" for i in range(b + 1)]
        vs = [_fibre(v, mult=2) for v in spine] + [_fibre(f"C{i}") for i in (1, 2, 3, 4)]
        es = chain(spine) + [edge("C1", "S0"), edge("C2", "S0"),
                             edge("C3", spine[-1]), edge("C4", spine[-1])]
        g = graph(vs, es)
    else:
        mults, at, arm = _STAR_FIBRES[kind]
        ids = [f"C{i}" for i in range(1, len(mults) + 1)]
        arm_ids = [f"F{j}" for j in range(1, len(arm) + 1)]
        vs = [_fibre(v, mult=m) for v, m in zip(ids, mults)]
        vs += [_fibre(v, mult=m) for v, m in zip(arm_ids, arm)]
        g = graph(vs, chain(ids) + [edge(f"C{at}", "F1")] + chain(arm_ids))
    return g, expect(kodaira=label)


def _bullet(i):
    return vertex(f"B{i}", 0, "strict", boundary=HALF)


def _exc_chain(self_ints):
    ids = [f"E{i}" for i in range(1, len(self_ints) + 1)]
    return [vertex(v, s) for v, s in zip(ids, self_ints)], chain(ids)


HALF_FAMILIES = ("A_0/2", "alpha", "beta", "D-alpha", "D-beta", "E_6/2", "E_7/2", "E_8/2",
                 "gamma", "delta", "epsilon", "zeta", "D-gamma", "D-delta", "D-epsilon")
HALF_FIXED = {"A_0/2": "A_0/2", "E_6/2": "E_6/2", "E_7/2": "E_7/2", "E_8/2": "E_8/2",
              "gamma": "A_1/2-gamma", "D-gamma": "D_4/2-gamma"}
# Index n of the A_n/2 or D_n/2 label as a function of the chain parameter k.
_HALF_INDEX = {"alpha": (2, 1), "beta": (2, 2), "D-alpha": (2, 5), "D-beta": (2, 4),
               "delta": (2, 3), "epsilon": (2, 2), "zeta": (2, 1), "D-delta": (2, 5),
               "D-epsilon": (2, 6)}


def half_label(family, k):
    if family in HALF_FIXED:
        return HALF_FIXED[family]
    slope, offset = _HALF_INDEX[family]
    series = "D" if family.startswith("D-") else "A"
    return f"{series}_{slope * k + offset}/2-{family.split('-')[-1]}"


def _half_graph(family, k):
    if family == "A_0/2":
        return [_bullet(1)], []
    if family in ("alpha", "D-beta"):
        vs, es = _exc_chain([-2] * k + [-1])
        vs += [_bullet(1), _bullet(2)]
        es += [edge(f"E{k + 1}", "B1"), edge(f"E{k + 1}", "B2")]
        if family == "D-beta":
            vs.append(_bullet(3))
            es.append(edge("E1", "B3"))
        return vs, es
    if family in ("beta", "D-alpha"):
        vs, es = _exc_chain([-2] * k + [-3, -1])
        vs += [vertex(f"E{k + 3}", -2), _bullet(1)]
        es += [edge(f"E{k + 2}", f"E{k + 3}"), edge(f"E{k + 2}", "B1")]
        if family == "D-alpha":
            vs.append(_bullet(2))
            es.append(edge("E1", "B2"))
        return vs, es
    if family in ("E_6/2", "E_8/2"):
        vs, es = _exc_chain([-2, -2, -1] if family == "E_6/2" else [-3, -2, -1])
        vs += [vertex("E4", -4 if family == "E_6/2" else -3), _bullet(1)]
        return vs, es + [edge("E3", "E4"), edge("E3", "B1")]
    if family == "E_7/2":
        vs, es = _exc_chain([-2, -1])
        vs += [vertex("E3", -3), _bullet(1), _bullet(2)]
        return vs, es + [edge("E1", "B1"), edge("E2", "E3"), edge("E2", "B2")]
    if family == "gamma":
        return [vertex("E1", -4)], []
    if family == "delta":
        return _exc_chain([-3] + [-2] * k + [-3])
    if family == "epsilon":
        vs, es = _exc_chain([-2] * k + [-3])
        return vs + [_bullet(1)], es + [edge("E1", "B1")]
    if family == "zeta":
        vs, es = _exc_chain([-2] * k)
        return vs + [_bullet(1), _bullet(2)], es + [edge("E1", "B1"), edge(f"E{k}", "B2")]
    if family == "D-gamma":
        vs = [vertex("E1", -1), vertex("E2", -4), vertex("E3", -2), _bullet(1)]
        return vs, [edge("E1", "E2"), edge("E1", "E3"), edge("E1", "B1")]
    if family == "D-delta":
        vs, es = _exc_chain([-3] + [-2] * k + [-1])
        vs += [_bullet(1), _bullet(2)]
        return vs, es + [edge(f"E{k + 2}", "B1"), edge(f"E{k + 2}", "B2")]
    vs, es = _exc_chain([-3] + [-2] * k + [-3, -1])  # D-epsilon
    vs += [vertex(f"E{k + 4}", -2), _bullet(1)]
    return vs, es + [edge(f"E{k + 3}", f"E{k + 4}"), edge(f"E{k + 3}", "B1")]


def half_catalog(family, k=0):
    labels = {"half_catalog": half_label(family, k)}
    if family == "zeta":
        labels["duval"] = f"A_{k}"  # its exceptional part is a (-2)-chain
    if family == "A_0/2":
        labels["kodaira"] = "II"  # one smooth rational curve of square 0
    return graph(*_half_graph(family, k)), expect(**labels)


def _std(b):
    return Fraction(1) if b == INF else Fraction(b - 1, b)


def _std_half(b):
    return HALF if b == INF else Fraction(b - 1, 2 * b)


def _std_cover(b):
    return Fraction(1) if b == INF else Fraction(2 * b - 1, 2 * b)


def _marked(vid, coeff, self_int=0, role="strict"):
    return vertex(vid, self_int, role, boundary=coeff)


def fibre_type(kind, b, k=None):
    cb, hb, xb = _std(b), _std_half(b), _std_cover(b)
    if kind == "I-1":
        vs = [_marked("S1", 1), _marked("C", cb), _marked("H1", HALF), _marked("H2", HALF)]
        es = [edge("S1", "C"), edge("C", "H1"), edge("C", "H2")]
    elif kind == "I-2":
        vs = [_marked("S1", 1), _marked("C", cb, -1),
              _marked("X1", hb, -2, "exceptional"), _marked("X2", hb, -2, "exceptional")]
        es = [edge("S1", "C"), edge("C", "X1"), edge("C", "X2")]
    elif kind == "I-3":
        vs = [_marked("S1", 1), _marked("X1", xb, -2, "exceptional"), _marked("C", cb, -1),
              _marked("H1", HALF), _marked("X2", hb, -2, "exceptional")]
        es = [edge("S1", "X1"), edge("X1", "C"), edge("C", "H1"), edge("C", "X2")]
    elif kind == "II-1":
        vs = [_marked("S1", 1), _marked("C", cb), _marked("S2", 1)]
        es = [edge("S1", "C"), edge("C", "S2")]
    elif kind == "II-2":
        vs = [_marked("S1", 1), _marked("C", cb), _marked("H1", HALF)]
        es = [edge("S1", "C"), edge("C", "H1", 2)]
    else:  # II-3
        xs = [f"X{i}" for i in range(1, k + 1)]
        vs = [_marked("S1", 1), _marked("C", cb, -1)]
        vs += [_marked(x, cb, -2, "exceptional") for x in xs]
        vs += [_marked("Y1", hb, -2, "exceptional"), _marked("Y2", hb, -2, "exceptional")]
        es = [edge("S1", "C"), edge("C", "X1")] + chain(xs)
        es += [edge(xs[-1], "Y1"), edge(xs[-1], "Y2")]
    label = f"({kind})_{{{b},{k}}}" if kind == "II-3" else f"({kind})_{b}"
    labels = {"fibre_type": label}
    if kind == "II-3":
        # The exceptional part X1..Xk plus the fork Y1, Y2 is A_3 or D_{k+2}.
        labels["duval"] = "A_3" if k == 1 else f"D_{k + 2}"
    return graph(vs, es), expect(**labels)


def small_catalog(rng):
    """Every catalog family at small size (at most 16 vertices), as (graph, labels)."""
    yield from (duval("A", n) for n in range(1, 9))
    yield from (duval("D", n) for n in range(4, 9))
    yield from (duval("E", n) for n in (6, 7, 8))
    yield from (kodaira(kind) for kind in ("II", "III", "IV", "IV*", "III*", "II*"))
    yield from (kodaira("I", b) for b in range(1, 7))
    yield from (kodaira("I*", b) for b in range(0, 7))
    for family in HALF_FAMILIES:
        if family in HALF_FIXED:
            yield half_catalog(family)
        else:
            kmin = 1 if family == "zeta" else 0
            yield from (half_catalog(family, k) for k in range(kmin, kmin + 3))
    bs = (1, 2, 3, 4, 5, 6, INF)
    for kind in ("I-1", "I-2", "I-3", "II-1", "II-2"):
        yield fibre_type(kind, rng.choice(bs))
    yield from (fibre_type("II-3", rng.choice(bs), k) for k in (1, 2, 3))


# ---------------------------------------------------------------- perturbing


def perturb(g, rng):
    """One seeded edit after which no recognizer may accept the graph.

    No catalog graph has a curve of square -5..-7 or an intersection point
    of weight 3, so each edit takes the graph out of every catalog (a square
    of -7 also fails the Du Val and Kodaira conditions on squares).
    """
    g = json.loads(json.dumps(g))
    curves = [v for v in g["vertices"] if v["role"] != "strict"]
    edits = ["add_curve"]
    if curves:
        edits.append("square")
    if len(curves) >= 2:
        edits.append("heavy_point")
    kind = rng.choice(edits)
    square = -rng.randint(5, 7)
    if kind == "square":
        rng.choice(curves)["self_int"] = square
    elif kind == "heavy_point":
        a, b = rng.sample([v["id"] for v in curves], 2)
        g["edges"].append(edge(a, b, 3))
    else:
        g["vertices"].append(vertex("P1", square))
    return g, expect()


# ------------------------------------------------------------------ analysis


class Shape:
    """Intersection data of a JSON graph, read without the package."""

    def __init__(self, g):
        self.vertices = {v["id"]: v for v in g["vertices"]}
        self.weight = {}
        for e in g["edges"]:
            key = frozenset((e["a"], e["b"]))
            self.weight[key] = self.weight.get(key, 0) + e.get("w", 1)
        self.tangency = dict(g.get("tangency", {}))
        self.exc = [v["id"] for v in g["vertices"] if v["role"] == "exceptional"]

    def dot(self, a, b):
        if a == b:
            return self.vertices[a]["self_int"]
        return self.weight.get(frozenset((a, b)), 0)

    def matrix(self, ids):
        return [[self.dot(a, b) for b in ids] for a in ids]

    def rhs(self):
        """Right-hand side of the log-pullback system over the exceptional curves."""
        others = [v for v in self.vertices.values() if v["role"] != "exceptional"]
        return [2 + self.vertices[e]["self_int"]
                - sum((Fraction(c["boundary"]) * self.dot(c["id"], e) for c in others), Fraction(0))
                for e in self.exc]

    def solves_pullback(self, coeffs):
        """Whether the coefficients satisfy M a = rhs exactly, by substitution."""
        if set(coeffs) != set(self.exc):
            return False
        rows = zip(self.exc, self.rhs())
        return all(sum(coeffs[i] * self.dot(i, j) for i in self.exc) == r for j, r in rows)

    def pair_class(self, coeffs):
        """The documented threshold rule, applied to verified coefficients."""
        floor = {vid for vid, v in self.vertices.items()
                 if v["role"] != "exceptional" and Fraction(v["boundary"]) == 1}
        floor_meets = any(len(key) == 2 and key <= floor for key in self.weight) or any(
            self.tangency.get(vid, 0) for vid in floor)
        top = max(coeffs.values()) if coeffs else None
        if top is not None and top > 1:
            return "NOT_LC"
        if top == 1 or floor_meets:
            return "LC"
        if floor:
            return "PLT"
        if top is None or top < 0:
            return "TERMINAL"
        return "CANONICAL" if top == 0 else "LT"

    def expected_class(self):
        """Class of the pair, or None when the solver must refuse."""
        m = self.matrix(self.exc)
        if not negative_definite(m):
            return None
        return self.pair_class(dict(zip(self.exc, solve(m, self.rhs()))))


def negative_definite(m):
    """Sylvester's test on -m by fraction-free (Bareiss) elimination."""
    a = [[-x for x in row] for row in m]
    prev = 1
    for k in range(len(a)):
        pivot = a[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = pivot
    return True


def solve(m, rhs):
    """Gauss-Jordan over the rationals for a nonsingular system."""
    n = len(m)
    rows = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(m, rhs)]
    for k in range(n):
        p = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        for i in range(n):
            if i != k and rows[i][k] != 0:
                f = rows[i][k] / pivot[k]
                rows[i] = [x - f * y for x, y in zip(rows[i], pivot)]
    return [rows[i][n] / rows[i][i] for i in range(n)]


def blow_down_plan(g):
    """Contractions of (-1)-curves, smallest name first, as documented.

    Returns a list of steps ``(vid, state)``: ``state`` is the expected
    graph after the contraction as ``(squares, edges, groups)``, or None
    when the contraction must be refused (the chain stops there).
    """
    squares = {v["id"]: v["self_int"] for v in g["vertices"]}
    info = {v["id"]: v for v in g["vertices"]}
    edges = sorted((min(e["a"], e["b"]), max(e["a"], e["b"]), e.get("w", 1)) for e in g["edges"])
    groups = sorted(tuple(sorted(grp)) for grp in g.get("coincident", []))
    tangency = g.get("tangency", {})
    steps = []
    while True:
        minus_one = sorted(vid for vid, s in squares.items()
                           if s == -1 and info[vid]["role"] == "exceptional" and info[vid]["genus"] == 0)
        if not minus_one:
            return steps
        vid = minus_one[0]
        touching = [(a, b, w) for (a, b, w) in edges if vid in (a, b)]
        nbrs = [b if a == vid else a for (a, b, w) in touching]
        if (tangency.get(vid, 0) or any(vid in grp for grp in groups)
                or any(w != 1 for (_, _, w) in touching) or len(set(nbrs)) != len(nbrs)):
            steps.append((vid, None))
            return steps
        del squares[vid]
        for u in nbrs:
            squares[u] += 1
        edges = sorted([e for e in edges if vid not in e[:2]]
                       + [(min(a, b), max(a, b), 1) for i, a in enumerate(nbrs) for b in nbrs[i + 1:]])
        if len(nbrs) >= 3:
            groups = sorted(groups + [tuple(sorted(nbrs))])
        steps.append((vid, (dict(squares), edges, groups)))


def graph_state(dg):
    """The parts of a package DualGraph that a blow-down changes."""
    return ({v.id: v.self_int for v in dg.vertices}, sorted(dg.edges),
            sorted(tuple(grp) for grp in dg.coincident))


def canonical_key(g):
    """Identity of a graph regardless of the order its JSON lists things in."""
    vs = tuple(sorted(tuple(sorted(v.items())) for v in g["vertices"]))
    es = tuple(sorted((min(e["a"], e["b"]), max(e["a"], e["b"]), e.get("w", 1)) for e in g["edges"]))
    return vs, es, tuple(sorted(g.get("tangency", {}).items())), tuple(
        sorted(tuple(sorted(grp)) for grp in g.get("coincident", [])))


def size_bucket(n_vertices):
    for bound in (16, 30, 45):
        if n_vertices <= bound:
            return f"v{bound}"
    return "v60"
