"""Recognizers of the catalog configurations among weighted dual graphs.

Four recognizers: Du Val graphs, Kodaira fibre types, the coefficient-1/2
germ catalog, and the marked fibre-component types of degenerate fibres with
standard coefficients, each beside the builders of its catalog members.  The
graphs themselves, their JSON reader and the exact solvers live in ``graph``;
this module re-exports the names its callers have always imported from here.

All arithmetic is exact (``fractions.Fraction``).  The Du Val trees, the
half-catalog families and the marked fibre types are rows of one table: the
three recognizers read each fitting row's parameter from the counts of curves,
build that member and compare canonical tree forms, so each shape is written
once, in its builder, and no answer depends on vertex names.  The half-catalog
key is an exceptional curve's self-intersection and a strict branch's boundary
coefficient, so only bullets of coefficient 1/2 match.  That recognizer first
skips each family whose member's exceptional self-intersections, sorted, differ
from the graph's: the tree form holds them, so such a member could not match,
and it is neither built nor looked up.  Configurations
of at most three curves are read from ``kodaira_graph`` by an exact signature;
only the starred Kodaira types (I*_b, IV*, III*, II*) still use a backtracking
search whose cost depends on the vertex names.
"""

from collections import Counter
from functools import lru_cache
from fractions import Fraction as Rational
from itertools import combinations

from .core import (INFINITY, PLAIN_KODAIRA, FibreTypeLabel, KodairaLabel, component_count,
                   doubled_standard_coeff, standard_coeff)
from .duval import DuValType
from .graph import _ZERO, EXCEPTIONAL, FIBRE, STRICT, CurveVertex, DualGraph
# The solvers and the reader, under the names callers import from this module.
from .graph import (blow_down, classify_pair, graph_from_json, intersection_matrix,
                    is_negative_definite, pullback_coefficients)

UNRECOGNIZED = "UNRECOGNIZED"

_HALF = Rational(1, 2)


# ---------------------------------------------------------------------------
# Backtracking isomorphism on labelled graphs.


def _isomorphic(g: DualGraph, h: DualGraph, key) -> bool:
    """Label-preserving isomorphism test.

    ``key(graph, vertex)`` computes the label that must be preserved;
    edge entry multisets between mapped pairs, and coincident groups,
    must correspond exactly.  Its time can depend on the vertex names.
    """
    if len(g.vertices) != len(h.vertices) or len(g.edges) != len(h.edges):
        return False
    kg = {v.id: key(g, v) for v in g.vertices}
    kh = {v.id: key(h, v) for v in h.vertices}
    if Counter(kg.values()) != Counter(kh.values()):
        return False
    counts = Counter(kg.values())
    order = sorted(g.vertices, key=lambda v: (counts[kg[v.id]], -g.incidence(v.id), v.id))
    candidates = {}
    for v in h.vertices:
        candidates.setdefault(kh[v.id], []).append(v.id)
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def compatible(gid: str, hid: str) -> bool:
        if g.incidence(gid) != h.incidence(hid):
            return False
        return all(
            g.entries(gid, g2) == h.entries(hid, h2) for g2, h2 in mapping.items()
        )

    def groups_match() -> bool:
        image = Counter(frozenset(mapping[x] for x in grp) for grp in g.coincident)
        return image == Counter(map(frozenset, h.coincident))

    def extend(i: int) -> bool:
        if i == len(order):
            return groups_match()
        gid = order[i].id
        for hid in candidates[kg[gid]]:
            if hid in used or not compatible(gid, hid):
                continue
            mapping[gid] = hid
            used.add(hid)
            if extend(i + 1):
                return True
            del mapping[gid]
            used.discard(hid)
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# Canonical forms of labelled trees.


def _tree_form(g: DualGraph, key, ids=None):
    """Canonical form of the tree spanned by ``ids`` (default: every vertex).

    ``key(vertex, degree)`` labels each vertex, ``degree`` counting its
    neighbours in the tree.  Two trees have equal forms exactly when some
    isomorphism keeps the labels and the entry weights (Aho, Hopcroft and
    Ullman 1974).  One pass peels leaves: a vertex peeled in round h has one
    neighbour left, its parent, and is labelled (key, weight of the entry to
    its parent, sorted ranks of the vertices peeled into it).  The ranks are
    global, each round's sorted distinct labels numbered on from the earlier
    rounds', because the vertices peeled into one vertex come from different
    rounds.  The form is the rounds' label lists, the sorted (key, ranks) of
    the one or two centres never peeled, and the weight between two centres
    (0 for one).  None unless the n curves carry n - 1 entries on n - 1
    distinct pairs and the peel neither stalls on a cycle nor meets a vertex
    with no neighbour left: then they span a tree.
    """
    inside = set(g.ids() if ids is None else ids)
    adjacent = {vid: {} for vid in inside}
    entries = 0
    for a, b, w in g.edges:
        if a in inside and b in inside:
            adjacent[a][b] = adjacent[b][a] = w
            entries += 1
    if not inside or entries != len(inside) - 1 or sum(map(len, adjacent.values())) != 2 * entries:
        return None
    keys = {vid: key(g._index[vid], len(nbrs)) for vid, nbrs in adjacent.items()}
    left = {vid: len(nbrs) for vid, nbrs in adjacent.items()}  # neighbours not yet peeled
    below = {vid: [] for vid in inside}  # ranks of the vertices peeled into each vertex
    layer = [vid for vid, d in left.items() if d <= 1]
    form, offset = [], 0
    while len(left) > 2:
        if not layer:
            return None
        for vid in layer:
            del left[vid]
        labels, peeled = [], []
        for vid in layer:
            for up in adjacent[vid]:
                if up in left:
                    break
            else:
                return None
            ranks = below[vid]
            ranks.sort()
            labels.append((up, (keys[vid], adjacent[vid][up], tuple(ranks))))
            left[up] -= 1
            if left[up] == 1:
                peeled.append(up)
        distinct = sorted({label for _, label in labels})
        rank = {label: offset + i for i, label in enumerate(distinct)}
        for up, label in labels:
            below[up].append(rank[label])
        offset += len(distinct)
        form.append(tuple(distinct))
        layer = peeled
    centre, *other = left
    weight = adjacent[centre][other[0]] if other else 0
    return tuple(form), tuple(sorted((keys[c], tuple(sorted(below[c]))) for c in left)), weight


@lru_cache(maxsize=64)
def _catalog_form(key, build, *args):
    """The tree form of the catalog member ``build(*args)``, kept for repeated lookups."""
    return _tree_form(build(*args), key)


# ---------------------------------------------------------------------------
# Du Val recognition.


def duval_graph(t: DuValType) -> DualGraph:
    """The all-(-2) resolution graph of a Du Val singularity."""
    n = t.index
    vs = [CurveVertex(f"E{i}", -2) for i in range(1, n + 1)]
    if t.family == "A":
        edges = [(f"E{i}", f"E{i+1}") for i in range(1, n)]
    elif t.family == "D":
        # Chain E1..E_{n-2} with the fork E_{n-1}, E_n on its last curve.
        edges = [(f"E{i}", f"E{i+1}") for i in range(1, n - 2)]
        edges += [(f"E{n-2}", f"E{n-1}"), (f"E{n-2}", f"E{n}")]
    else:
        # E_n: chain of n-1 curves with one branch curve on the third.
        edges = [(f"E{i}", f"E{i+1}") for i in range(1, n - 1)]
        edges.append((f"E3", f"E{n}"))
    return DualGraph(vs, edges)


def _duval_key(v: CurveVertex, degree: int):
    # Constant: recognize_duval has already pinned every curve to a smooth rational (-2)-curve.
    return 0


def recognize_duval(g: DualGraph):
    """Match the exceptional subgraph against the A/D/E trees of (-2)-curves.

    >>> recognize_duval(duval_graph(DuValType("E", 7)))
    DuValType(family='E', index=7)
    >>> recognize_duval(DualGraph([CurveVertex("E", -3)]))
    'UNRECOGNIZED'
    """
    exc = g.by_role(EXCEPTIONAL)
    if not exc:
        return UNRECOGNIZED
    for v in exc:
        if v.self_int != -2 or v.genus != 0 or g.tangency.get(v.id, 0):
            return UNRECOGNIZED
    return _recognize(g, ("A", "D", "E"), len(exc), 0, [v.id for v in exc])


# ---------------------------------------------------------------------------
# Kodaira fibre types.


def configuration_euler(g: DualGraph) -> int:
    """Topological Euler number of the support of the configuration.

    Normalizing every curve contributes 2 - 2g; each intersection point
    then glues branches together, dropping the count by (branches - 1).
    One edge entry is one point (whatever its weight), a self-tangency is
    one point of the curve with itself, and a coincident group of k curves
    is one point taking one entry of each of its k(k-1)/2 pairs.
    """
    total = sum(2 - 2 * v.genus for v in g.vertices)
    total -= sum(g.tangency.values())
    total -= len(g.edges) - sum(len(grp) * (len(grp) - 1) // 2 for grp in g.coincident)
    total -= sum(len(grp) - 1 for grp in g.coincident)
    return total


def _fibre_vertex(i: int, mult: int = 1, self_int: int = -2, genus: int = 0) -> CurveVertex:
    return CurveVertex(f"C{i}", self_int, genus, mult, _ZERO, FIBRE)


def kodaira_graph(label: KodairaLabel) -> DualGraph:
    """The standard configuration for a Kodaira fibre type."""
    kind, b = label.kind, label.b
    if kind == "SMOOTH":
        return DualGraph([_fibre_vertex(1, self_int=0, genus=1)])
    if kind == "I" and b == 1:
        return DualGraph([_fibre_vertex(1, self_int=0)], tangency={"C1": 1})
    if kind == "II":
        return DualGraph([_fibre_vertex(1, self_int=0)])
    if kind == "I" and b == 2:
        return DualGraph([_fibre_vertex(1), _fibre_vertex(2)], [("C1", "C2"), ("C1", "C2")])
    if kind == "III":
        return DualGraph([_fibre_vertex(1), _fibre_vertex(2)], [("C1", "C2", 2)])
    if kind == "IV":
        vs = [_fibre_vertex(i) for i in (1, 2, 3)]
        edges = [("C1", "C2"), ("C1", "C3"), ("C2", "C3")]
        return DualGraph(vs, edges, coincident=[("C1", "C2", "C3")])
    if kind == "I":
        vs = [_fibre_vertex(i) for i in range(1, b + 1)]
        edges = [(f"C{i}", f"C{i % b + 1}") for i in range(1, b + 1)]
        return DualGraph(vs, edges)
    if kind == "I*":
        # Spine of b+1 multiplicity-2 curves, two reduced leaves at each end.
        spine = [CurveVertex(f"S{i}", -2, 0, 2, _ZERO, FIBRE) for i in range(b + 1)]
        leaves = [_fibre_vertex(i) for i in (1, 2, 3, 4)]
        edges = [(f"S{i}", f"S{i+1}") for i in range(b)]
        edges += [("C1", "S0"), ("C2", "S0"), (f"C3", f"S{b}"), (f"C4", f"S{b}")]
        return DualGraph(spine + leaves, edges)
    multiplicities = {
        # Main chain leaf to leaf, plus the fork arm (inner first) and the
        # chain position it hangs from.
        "IV*": ([1, 2, 3, 2, 1], 2, [2, 1]),
        "III*": ([1, 2, 3, 4, 3, 2, 1], 3, [2]),
        "II*": ([1, 2, 3, 4, 5, 6, 4, 2], 5, [3]),
    }
    chain, fork_at, arm = multiplicities[kind]
    vs = [_fibre_vertex(i + 1, mult=m) for i, m in enumerate(chain)]
    vs += [CurveVertex(f"F{j+1}", -2, 0, m, _ZERO, FIBRE) for j, m in enumerate(arm)]
    edges = [(f"C{i}", f"C{i+1}") for i in range(1, len(chain))]
    edges.append((f"C{fork_at + 1}", "F1"))
    edges += [(f"F{j}", f"F{j+1}") for j in range(1, len(arm))]
    return DualGraph(vs, edges)


def _kodaira_key(g: DualGraph, v: CurveVertex):
    return (v.genus, v.self_int, v.multiplicity, g.tangency.get(v.id, 0))


def _small_signature(g: DualGraph):
    """The sorted curve keys, each pair's entry weights keyed by its two curves'
    keys, and the number of coincident groups (each is all three curves).  On at
    most three curves it is exact: any permutation of equally keyed pairs comes
    from one of the curves, so equal signatures mean isomorphic configurations.
    """
    keys = {v.id: _kodaira_key(g, v) for v in g.vertices}
    pairs = sorted((tuple(sorted((keys[a], keys[b]))), g.entries(a, b))
                   for a, b in combinations(keys, 2))
    return tuple(sorted(keys.values())), tuple(pairs), len(g.coincident)


# Every Kodaira type of at most three curves, by its signature.
_SMALL_KODAIRA = {_small_signature(kodaira_graph(label)): label for label in
                  map(KodairaLabel.parse, ("SMOOTH", "I_1", "II", "I_2", "III", "I_3", "IV"))}


def recognize_kodaira(g: DualGraph):
    """Match a configuration against the standard degenerate fibre types.

    >>> str(recognize_kodaira(kodaira_graph(KodairaLabel("I", 3))))
    'I_3'
    >>> str(recognize_kodaira(kodaira_graph(KodairaLabel("III"))))
    'III'
    """
    vs = g.vertices
    n = len(vs)
    if n <= 3:
        return _SMALL_KODAIRA.get(_small_signature(g), UNRECOGNIZED)
    if any(v.genus != 0 or v.self_int != -2 for v in vs) or g.tangency or g.coincident:
        return UNRECOGNIZED
    reduced = all(v.multiplicity == 1 for v in vs)
    if reduced and len(g.edges) == n and all(w == 1 for (_, _, w) in g.edges):
        around = {v.id: [] for v in vs}  # built once: incidence scans every edge per call
        for a, b, _ in g.edges:
            around[a].append(b)
            around[b].append(a)
        if all(len(us) == 2 for us in around.values()):
            # Connected 2-regular graph on >= 4 vertices: a cycle.
            seen = {vs[0].id}
            frontier = [vs[0].id]
            while frontier:
                for u in around[frontier.pop()]:
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
            return KodairaLabel("I", n) if len(seen) == n else UNRECOGNIZED
    if reduced:
        # Every starred type has a curve of multiplicity 2 or more, which the
        # search's key keeps, so a reduced configuration matches none of them.
        return UNRECOGNIZED
    starred = [KodairaLabel("I*", n - 5)] if n >= 5 else []
    starred += (KodairaLabel(kind) for kind in PLAIN_KODAIRA if kind.endswith("*"))
    for label in starred:
        if component_count(label) == n and _isomorphic(g, kodaira_graph(label), _kodaira_key):
            return label
    return UNRECOGNIZED


# ---------------------------------------------------------------------------
# The coefficient-1/2 germ catalog.
#
# Fifteen families of dual graphs of log resolutions of germs (S, (1/2) Xi; p)
# of index two: eight with p a smooth surface point, seven with p singular.
# Bullets (strict branches of Xi) carry coefficient 1/2; chains written 2^k
# mean exactly k curves of self-intersection -2.

# One row per family, in catalog order with the eight smooth-centre families
# first: (kmin, label, chain, hung, bullets), where
#   kmin     is the smallest k;
#   label    is the label as a string, or (series, c) for series_{2k+c}/2-greek;
#   chain    gives the self-intersections of the chain E1, E2, ... as a function of k;
#   hung     lists the self-intersections of the curves hung on the last chain curve;
#   bullets  gives the chain end (0 first, -1 last) that each bullet B1, B2, ... meets.
_HALF_CATALOG = {
    "A_0/2": (0, "A_0/2", lambda k: [], (), (-1,)),
    "alpha": (0, ("A", 1), lambda k: [-2] * k + [-1], (), (-1, -1)),
    "beta": (0, ("A", 2), lambda k: [-2] * k + [-3, -1], (-2,), (-1,)),
    "D-alpha": (0, ("D", 5), lambda k: [-2] * k + [-3, -1], (-2,), (-1, 0)),
    "D-beta": (0, ("D", 4), lambda k: [-2] * k + [-1], (), (-1, -1, 0)),
    "E_6/2": (0, "E_6/2", lambda k: [-2, -2, -1], (-4,), (-1,)),
    "E_7/2": (0, "E_7/2", lambda k: [-2, -1], (-3,), (0, -1)),
    "E_8/2": (0, "E_8/2", lambda k: [-3, -2, -1], (-3,), (-1,)),
    "gamma": (0, "A_1/2-gamma", lambda k: [-4], (), ()),
    "delta": (0, ("A", 3), lambda k: [-3] + [-2] * k + [-3], (), ()),
    "epsilon": (0, ("A", 2), lambda k: [-2] * k + [-3], (), (0,)),
    "zeta": (1, ("A", 1), lambda k: [-2] * k, (), (0, -1)),
    "D-gamma": (0, "D_4/2-gamma", lambda k: [-1], (-4, -2), (-1,)),
    "D-delta": (0, ("D", 5), lambda k: [-3] + [-2] * k + [-1], (), (-1, -1)),
    "D-epsilon": (0, ("D", 6), lambda k: [-3] + [-2] * k + [-3, -1], (-2,), (-1,)),
}
HALF_CATALOG_FAMILIES = tuple(_HALF_CATALOG)


def half_catalog_label(family: str, k: int = 0) -> str:
    """Catalog label of a family member, e.g. ``A_5/2-delta`` for k = 1."""
    label = _check_family(family, k)[1]
    if isinstance(label, str):
        return label
    series, c = label
    return f"{series}_{2 * k + c}/2-{family.split('-')[-1]}"


def _check_family(family: str, k: int):
    """The family's catalog row, once k is checked against its smallest value."""
    if family not in HALF_CATALOG_FAMILIES:
        raise ValueError(f"unknown catalog family {family!r}")
    row = _HALF_CATALOG[family]
    if k < row[0]:
        raise ValueError(f"family {family!r} needs k >= {row[0]}")
    return row


def _bullet(i: int) -> CurveVertex:
    return CurveVertex(f"B{i}", 0, 0, 1, _HALF, STRICT)


def half_catalog_graph(family: str, k: int = 0) -> DualGraph:
    """The drawn (normal crossing) dual graph of a catalog member.

    >>> recognize_half_catalog(half_catalog_graph("delta", 1))
    'A_5/2-delta'
    """
    _, _, chain, hung, bullets = _check_family(family, k)
    chain = chain(k)
    n = len(chain)
    vs = [CurveVertex(f"E{i}", s) for i, s in enumerate([*chain, *hung], 1)]
    vs += [_bullet(i) for i in range(1, len(bullets) + 1)]
    edges = [(f"E{i}", f"E{i + 1}") for i in range(1, n)]
    edges += [(f"E{n}", f"E{i}") for i in range(n + 1, n + len(hung) + 1)]
    if n:  # A_0/2 is a bare bullet
        ends = {0: "E1", -1: f"E{n}"}
        edges += [(ends[end], f"B{i}") for i, end in enumerate(bullets, 1)]
    return DualGraph(vs, edges)


def _half_selfs(family: str, k: int) -> list[int]:
    """The sorted self-intersections of the exceptional curves of a family member."""
    _, _, chain, hung, _ = _HALF_CATALOG[family]
    return sorted([*chain(k), *hung])


def _half_tree_key(v: CurveVertex, degree: int):
    # Strict branches are germs: their self-intersections are not part of
    # the figure and must not block recognition; their coefficient is, so
    # only a bullet of coefficient 1/2 matches one.
    return ("E", v.self_int) if v.role == EXCEPTIONAL else ("S", v.boundary_coeff.as_integer_ratio())


def recognize_half_catalog(g: DualGraph):
    """Match a graph against the fifteen drawn catalog families.

    Returns the concrete label (with the chain parameter resolved), e.g.
    a chain (-3)-(-2)-(-3) of exceptional curves is ``A_5/2-delta``.

    >>> recognize_half_catalog(DualGraph([CurveVertex("E", -4)]))
    'A_1/2-gamma'
    >>> bullet = CurveVertex("B", 0, boundary_coeff=_HALF, role=STRICT)
    >>> recognize_half_catalog(DualGraph([bullet]))
    'A_0/2'
    """
    if g.by_role(FIBRE) or g.tangency or g.coincident:  # every family is a plain tree
        return UNRECOGNIZED
    exc = g.by_role(EXCEPTIONAL)
    selfs = sorted(v.self_int for v in exc)
    return _recognize(g, _HALF_CATALOG, len(exc), len(g.vertices) - len(exc),
                      fits=lambda family, k: _half_selfs(family, k) == selfs)


# ---------------------------------------------------------------------------
# Fibre-component types over boundary points with standard coefficients.


def _infer_b(coeff: Rational):
    """Recover b from a curve's coefficient (b-1)/b in [0, 1]; None when it is not standard."""
    if coeff == 1:
        return INFINITY
    b = 1 / (1 - coeff)
    if b.denominator != 1:
        return None
    return int(b)


def _marked(vid: str, coeff, self_int: int = 0, role: str = STRICT) -> CurveVertex:
    return CurveVertex(vid, self_int, 0, 1, coeff or _ZERO, role)  # an int becomes a Fraction there


# One row per marked fibre type: the self-intersection of its central strict curve C
# and, as a function of the chain length k of II-3, the curves after the strict curve
# S1 in drawing order as (id, coefficient, the curve it meets[, weight of that entry]).
# Curves named X or Y are exceptional (-2)-curves, the others strict, drawn with
# self-intersection 0 apart from C.  The coefficient "c" is the standard coefficient
# (b-1)/b, "h" half of it and "x" the doubled one.
_FIBRE_TYPES = {
    "I-1": (0, lambda k: [("C", "c", "S1"), ("H1", _HALF, "C"), ("H2", _HALF, "C")]),
    "I-2": (-1, lambda k: [("C", "c", "S1"), ("X1", "h", "C"), ("X2", "h", "C")]),
    "I-3": (-1, lambda k: [("X1", "x", "S1"), ("C", "c", "X1"), ("H1", _HALF, "C"),
                           ("X2", "h", "C")]),
    "II-1": (0, lambda k: [("C", "c", "S1"), ("S2", 1, "C")]),
    "II-2": (0, lambda k: [("C", "c", "S1"), ("H1", _HALF, "C", 2)]),
    "II-3": (-1, lambda k: [("C", "c", "S1"), ("X1", "c", "C")]
             + [(f"X{i}", "c", f"X{i - 1}") for i in range(2, k + 1)]
             + [("Y1", "h", f"X{k}"), ("Y2", "h", f"X{k}")]),
}


def dynkin_fibre_graph(kind: str, b, k: int | None = None) -> DualGraph:
    """The marked dual graph of a degenerate fibre type over a boundary point.

    Vertices are marked with their boundary coefficients as drawn; the
    central component records its self-intersection, exceptional curves
    are all (-2).
    """
    FibreTypeLabel(kind, b, k)  # validates the parameter set
    centre, curves = _FIBRE_TYPES[kind]
    cb = standard_coeff(b)
    coeffs = {"c": cb, "h": cb / 2, "x": doubled_standard_coeff(b)}
    vs, edges = [_marked("S1", 1)], []
    for vid, coeff, met, *weight in curves(k):
        role = EXCEPTIONAL if vid[0] in "XY" else STRICT
        self_int = -2 if role == EXCEPTIONAL else centre if vid == "C" else 0
        vs.append(_marked(vid, coeffs.get(coeff, coeff), self_int, role))
        edges.append((met, vid, *weight))
    return DualGraph(vs, edges)


def _fibre_key(v: CurveVertex, degree: int):
    # A strict leaf is a germ of a boundary curve: its self-intersection is
    # not part of the figure, and no multiplicity is.
    # The coefficient enters as its (numerator, denominator) pair, which
    # hashes and compares far faster than a Fraction.
    inner = v.role == EXCEPTIONAL or degree >= 2
    coeff = v.boundary_coeff.as_integer_ratio()
    return (v.role, v.genus, coeff, inner, v.self_int if inner else 0)


def recognize_fibre_type(g: DualGraph):
    """Match a marked fibre graph against the six standard-coefficient types.

    The parameter b is recovered from the coefficient (b-1)/b of the one
    strict curve with two or more neighbours; the counts of curves give the
    kind (and k); the graph must then have the tree form of that catalog
    member, so every other coefficient and inner self-intersection is
    verified against it.

    >>> str(recognize_fibre_type(dynkin_fibre_graph("II-1", 3)))
    '(II-1)_3'
    """
    if g.tangency or g.coincident:
        return UNRECOGNIZED
    # how many distinct curves each curve meets, in one pass over the pairs
    met = Counter(vid for pair in {(a, c) for a, c, _ in g.edges} for vid in pair)
    centres = [v for v in g.by_role(STRICT) if met[v.id] >= 2]
    b = _infer_b(centres[0].boundary_coeff) if len(centres) == 1 else None
    if b is None:
        return UNRECOGNIZED
    n_exc = len(g.by_role(EXCEPTIONAL))
    return _recognize(g, _FIBRE_TYPES, n_exc, len(g.vertices) - n_exc, b=b)


# ---------------------------------------------------------------------------
# One table drives the tree recognizers: family -> (key, count rule, builder, label).
# The rows of one recognizer share their tree-form key.  The count rule (exc, other,
# kmin, kmax) says that the member of parameter k, kmin <= k <= kmax (kmax None: no
# bound), has exc + k - kmin exceptional curves and `other` other curves.  Builder and
# label take (family, k, b), b being a fibre type's standard-coefficient parameter.


def _catalog() -> dict:
    """The rows of ``_CATALOG``, each count rule read off its builder's data."""
    duval = (lambda family, n, b: duval_graph(DuValType(family, n)),
             lambda family, n, b: DuValType(family, n))
    half = (lambda family, k, b: half_catalog_graph(family, k),
            lambda family, k, b: half_catalog_label(family, k))
    fibre = (lambda kind, k, b: dynkin_fibre_graph(kind, b, k or None),
             lambda kind, k, b: FibreTypeLabel(kind, b, k or None))  # k = 0: no chain
    rows = {}
    for family, kmin, kmax in (("A", 1, None), ("D", 4, None), ("E", 6, 8)):
        rows[family] = (_duval_key, (kmin, 0, kmin, kmax), *duval)  # A_n, D_n, E_n: n curves
    for family, (kmin, label, chain, hung, bullets) in _HALF_CATALOG.items():
        kmax = kmin if isinstance(label, str) else None
        rows[family] = (_half_tree_key, (len(chain(kmin)) + len(hung), len(bullets), kmin, kmax),
                        *half)
    for kind, (_, curves) in _FIBRE_TYPES.items():
        kmin, kmax = (1, None) if kind == "II-3" else (0, 0)
        exc = sum(vid[0] in "XY" for vid, *_ in curves(kmin))
        rows[kind] = (_fibre_key, (exc, 1 + len(curves(kmin)) - exc, kmin, kmax), *fibre)
    return rows


_CATALOG = _catalog()


def _recognize(g: DualGraph, families, n_exc: int, n_other: int, ids=None, b=None,
               fits=None):
    """The label of the first of ``families`` whose member with these counts of
    curves has the tree form of ``g`` (of its curves ``ids``), or UNRECOGNIZED.

    ``fits(family, k)``, when given, must hold for a member to match; a family
    whose member fails it is skipped before that member is built or its form
    looked up.  ``recognize_half_catalog`` passes equal sorted exceptional
    self-intersections, which the half-catalog tree form holds.
    """
    form = None
    for family in families:
        key, (exc, other, kmin, kmax), build, label = _CATALOG[family]
        k = kmin + n_exc - exc
        if n_other != other or k < kmin or kmax is not None and k > kmax:
            continue
        if fits is not None and not fits(family, k):
            continue
        if form is None:  # computed once; a graph that is no tree matches no family
            form = _tree_form(g, key, ids)
            if form is None:
                return UNRECOGNIZED
        if form == _catalog_form(key, build, family, k, b):
            return label(family, k, b)
    return UNRECOGNIZED
