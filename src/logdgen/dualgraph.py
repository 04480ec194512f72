"""Weighted dual graphs of curve configurations on a smooth surface.

A :class:`DualGraph` records irreducible curves (vertices, carrying
self-intersection, genus, fibre multiplicity and boundary coefficient) and
their mutual intersections (edges, one entry per intersection point with the
local intersection multiplicity as weight).  On top of that sit the exact
intersection-matrix utilities, the log-pullback linear solver and the
discrepancy-threshold classifier, the blow-down of a (-1)-curve, and four
recognizers: Du Val graphs, Kodaira fibre types, the coefficient-1/2 germ
catalog, and the marked fibre-component types of degenerate fibres with
standard coefficients.

All arithmetic is exact (``fractions.Fraction``); no numerical tolerance
appears anywhere.  Graphs here stay tiny (at most ~25 vertices), so the
recognizers favour transparent backtracking over clever canonical forms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Rational

from .core import INFINITY, NOT_LC, json_int
from .duval import DuValType

# Vertex roles.
EXCEPTIONAL = "EXCEPTIONAL"
STRICT = "STRICT"
FIBRE = "FIBRE"
_ROLES = (EXCEPTIONAL, STRICT, FIBRE)

# Log-pair classes, ordered from most to least special.  NOT_LC is shared
# with the germ trichotomy in core.
TERMINAL = "TERMINAL"
CANONICAL = "CANONICAL"
PLT = "PLT"
LT = "LT"
LC = "LC"

UNRECOGNIZED = "UNRECOGNIZED"

_HALF = Rational(1, 2)


@dataclass(frozen=True)
class CurveVertex:
    """One irreducible curve in a configuration.

    ``multiplicity`` is the coefficient in the fibre or divisor being
    modelled; ``boundary_coeff`` is the coefficient in the boundary divisor
    (0 for curves not appearing there).  ``role`` separates exceptional
    curves of the map being studied from strict transforms of boundary
    curves and from fibre components.
    """

    id: str
    self_int: int
    genus: int = 0
    multiplicity: int = 1
    boundary_coeff: Rational = Rational(0)
    role: str = EXCEPTIONAL

    def __post_init__(self) -> None:
        if self.genus < 0:
            raise ValueError(f"genus must be >= 0, got {self.genus}")
        if self.multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {self.multiplicity}")
        coeff = Rational(self.boundary_coeff)
        object.__setattr__(self, "boundary_coeff", coeff)
        if not 0 <= coeff <= 1:
            raise ValueError(f"boundary coefficient must lie in [0,1], got {coeff}")
        if self.role not in _ROLES:
            raise ValueError(f"unknown role {self.role!r}")


class DualGraph:
    """A finite weighted multigraph of curves.

    Each edge entry ``(a, b, w)`` is one intersection point of the two
    curves, of local intersection multiplicity ``w`` (so two transverse
    points give two entries, one tangency of order two gives a single
    entry of weight 2).  ``tangency`` counts nodes of a single curve with
    itself.  A ``coincident`` group lists three or more curves whose listed
    mutual intersections all happen at one common point; it changes no
    intersection number, only the topology of the support.

    Instances are immutable by convention: all containers are tuples and
    no method mutates.
    """

    __slots__ = ("vertices", "edges", "tangency", "coincident", "_index")

    def __init__(self, vertices, edges=(), tangency=None, coincident=()):
        vs = tuple(vertices)
        index = {}
        for v in vs:
            if not isinstance(v, CurveVertex):
                raise TypeError(f"expected CurveVertex, got {type(v).__name__}")
            if v.id in index:
                raise ValueError(f"duplicate vertex id {v.id!r}")
            index[v.id] = v
        norm_edges = []
        for entry in edges:
            a, b, *rest = entry
            w = rest[0] if rest else 1
            if a not in index or b not in index:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown vertex")
            if a == b:
                raise ValueError(f"self-edge at {a!r}; use a tangency count instead")
            if not isinstance(w, int) or w < 1:
                raise ValueError(f"edge weight must be a positive integer, got {w!r}")
            norm_edges.append((min(a, b), max(a, b), w))
        norm_edges.sort()
        tang = dict(tangency or {})
        for vid, count in tang.items():
            if vid not in index:
                raise ValueError(f"tangency count on unknown vertex {vid!r}")
            if not isinstance(count, int) or count < 0:
                raise ValueError(f"tangency count must be a non-negative integer, got {count!r}")
        groups = []
        for grp in coincident:
            ids = tuple(grp)
            if len(set(ids)) != len(ids) or len(ids) < 3:
                raise ValueError("a coincident group needs at least three distinct curves")
            for vid in ids:
                if vid not in index:
                    raise ValueError(f"coincident group references unknown vertex {vid!r}")
            groups.append(tuple(sorted(ids)))
        self.vertices = vs
        self.edges = tuple(norm_edges)
        self.tangency = {k: v for k, v in sorted(tang.items()) if v > 0}
        self.coincident = tuple(sorted(groups))
        self._index = index

    def vertex(self, vid: str) -> CurveVertex:
        try:
            return self._index[vid]
        except KeyError:
            raise ValueError(f"unknown vertex id {vid!r}") from None

    def ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    def by_role(self, role: str) -> tuple[CurveVertex, ...]:
        return tuple(v for v in self.vertices if v.role == role)

    def entries(self, a: str, b: str) -> tuple[int, ...]:
        """Sorted weights of all intersection points of the two curves."""
        key = (min(a, b), max(a, b))
        return tuple(sorted(w for (x, y, w) in self.edges if (x, y) == key))

    def pair_weight(self, a: str, b: str) -> int:
        return sum(self.entries(a, b))

    def neighbors(self, vid: str) -> tuple[str, ...]:
        out = {y if x == vid else x for (x, y, w) in self.edges if vid in (x, y)}
        return tuple(sorted(out))

    def incidence(self, vid: str) -> int:
        """Number of edge entries touching the vertex."""
        return sum(1 for (x, y, w) in self.edges if vid in (x, y))

    def _canonical(self):
        return (
            tuple(sorted(self.vertices, key=lambda v: v.id)),
            self.edges,
            tuple(sorted(self.tangency.items())),
            self.coincident,
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DualGraph):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:
        return (
            f"DualGraph({len(self.vertices)} vertices, {len(self.edges)} edges"
            + (f", tangency={self.tangency}" if self.tangency else "")
            + (f", coincident={self.coincident}" if self.coincident else "")
            + ")"
        )


# ---------------------------------------------------------------------------
# Intersection matrices and exact linear algebra.


def intersection_matrix(g: DualGraph, subset=None) -> list[list[int]]:
    """Intersection matrix of the named curves, in the given order.

    Diagonal entries are the recorded self-intersections; off-diagonal
    entries are total intersection numbers (sums of entry weights).

    >>> a2 = DualGraph([CurveVertex("E1", -2), CurveVertex("E2", -2)], [("E1", "E2")])
    >>> intersection_matrix(a2)
    [[-2, 1], [1, -2]]
    """
    ids = list(subset) if subset is not None else list(g.ids())
    for vid in ids:
        g.vertex(vid)
    return [
        [g.vertex(a).self_int if a == b else g.pair_weight(a, b) for b in ids]
        for a in ids
    ]


def _leading_minors(m) -> list[Rational]:
    """Determinants of all leading principal submatrices, exactly.

    Runs elimination without row swaps: while every pivot is nonzero the
    running pivot product is the leading minor, and the first zero pivot
    certifies a zero minor, after which the remaining entries are padded
    with zeros (enough for a Sylvester definiteness check, which fails on
    any non-positive value anyway).
    """
    n = len(m)
    work = [[Rational(x) for x in row] for row in m]
    minors = []
    det = Rational(1)
    for k in range(n):
        pivot = work[k][k]
        if pivot == 0:
            minors.extend([Rational(0)] * (n - k))
            return minors
        for i in range(k + 1, n):
            factor = work[i][k] / pivot
            if factor == 0:
                continue
            work[i] = [x - factor * y for x, y in zip(work[i], work[k])]
        det *= pivot
        minors.append(det)
    return minors


def _det(m) -> Rational:
    """Exact determinant, with partial pivoting and sign tracking."""
    n = len(m)
    work = [[Rational(x) for x in row] for row in m]
    det = Rational(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if work[i][k] != 0), None)
        if pivot_row is None:
            return Rational(0)
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            det = -det
        pivot = work[k][k]
        for i in range(k + 1, n):
            factor = work[i][k] / pivot
            if factor == 0:
                continue
            work[i] = [x - factor * y for x, y in zip(work[i], work[k])]
        det *= pivot
    return det


def is_negative_definite(m) -> bool:
    """Whether the symmetric matrix is negative definite.

    Checked exactly: all leading principal minors of ``-m`` must be
    positive.

    >>> is_negative_definite([[-2, 1], [1, -2]])
    True
    >>> is_negative_definite([[-2, 2], [2, -2]])
    False
    >>> is_negative_definite([[-1]])
    True
    """
    n = len(m)
    for row in m:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValueError("matrix must be symmetric")
    negated = [[-Rational(x) for x in row] for row in m]
    # For a genuinely definite matrix no pivot ever vanishes, so the
    # sign-tracking in _leading_minors is never exercised on the True path.
    return all(minor > 0 for minor in _leading_minors(negated))


def _solve(m, rhs) -> list[Rational]:
    """Solve m x = rhs exactly; raises ValueError when m is singular."""
    n = len(m)
    work = [[Rational(x) for x in row] + [Rational(r)] for row, r in zip(m, rhs)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if work[i][k] != 0), None)
        if pivot_row is None:
            raise ValueError("singular system (not negative definite)")
        work[k], work[pivot_row] = work[pivot_row], work[k]
        pivot = work[k][k]
        for i in range(n):
            if i == k or work[i][k] == 0:
                continue
            factor = work[i][k] / pivot
            work[i] = [x - factor * y for x, y in zip(work[i], work[k])]
    return [work[i][n] / work[i][i] for i in range(n)]


def _rank(m) -> int:
    work = [[Rational(x) for x in row] for row in m]
    rank = 0
    cols = len(work[0]) if work else 0
    row = 0
    for col in range(cols):
        pivot_row = next((i for i in range(row, len(work)) if work[i][col] != 0), None)
        if pivot_row is None:
            continue
        work[row], work[pivot_row] = work[pivot_row], work[row]
        pivot = work[row][col]
        for i in range(len(work)):
            if i != row and work[i][col] != 0:
                factor = work[i][col] / pivot
                work[i] = [x - factor * y for x, y in zip(work[i], work[row])]
        row += 1
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Log pullback, classification, blow-down.


def pullback_coefficients(g: DualGraph) -> dict[str, Rational]:
    """Coefficients a_i of the exceptional curves in the log pullback.

    Solves, for every exceptional curve E_j, the system

        (K + sum_C coeff(C) * C + sum_i a_i E_i) . E_j = 0

    over the exceptional curves, with K.E_j = -2 - E_j^2 (all exceptional
    curves must be smooth rational).  The discrepancy of E_i is -a_i.

    >>> g = DualGraph([CurveVertex("E", -4)])
    >>> pullback_coefficients(g)
    {'E': Fraction(1, 2)}
    """
    exc = g.by_role(EXCEPTIONAL)
    for v in exc:
        if v.genus != 0:
            raise ValueError(f"exceptional curve {v.id!r} must be rational")
        if g.tangency.get(v.id, 0):
            raise ValueError(f"exceptional curve {v.id!r} must be smooth (no self-tangency)")
    ids = [v.id for v in exc]
    m = intersection_matrix(g, ids)
    if not is_negative_definite(m):
        raise ValueError("singular system (not negative definite)")
    others = [v for v in g.vertices if v.role != EXCEPTIONAL]
    rhs = []
    for v in exc:
        boundary_hit = sum(
            (c.boundary_coeff * g.pair_weight(c.id, v.id) for c in others),
            Rational(0),
        )
        rhs.append(Rational(2 + v.self_int) - boundary_hit)
    solution = _solve(m, rhs)
    return dict(zip(ids, solution))


def classify_pair(g: DualGraph) -> str:
    """Singularity class of the pair presented by the graph.

    The graph must be a simple-normal-crossing resolution; the verdict
    certifies thresholds on this resolution only.  With a_i the pullback
    coefficients and the reduced boundary the curves of coefficient 1:
    max a_i > 1 is NOT_LC; max a_i = 1, or two reduced-boundary curves
    meeting, is LC; otherwise a reduced boundary curve forces PLT, and a
    boundary-free graph grades into LT / CANONICAL / TERMINAL as the
    maximal a_i sits in (0,1), = 0, or < 0 (vacuously TERMINAL when
    nothing is exceptional).

    >>> a3 = duval_graph(DuValType("A", 3))
    >>> classify_pair(a3)
    'CANONICAL'
    >>> classify_pair(DualGraph([CurveVertex("E", -4)]))
    'LT'
    """
    coeffs = pullback_coefficients(g)
    values = list(coeffs.values())
    mx = max(values) if values else None
    floor_ids = {
        v.id for v in g.vertices if v.role != EXCEPTIONAL and v.boundary_coeff == 1
    }
    floor_meets_floor = any(
        a in floor_ids and b in floor_ids for (a, b, w) in g.edges
    ) or any(g.tangency.get(vid, 0) for vid in floor_ids)
    if mx is not None and mx > 1:
        return NOT_LC
    if mx == 1 or floor_meets_floor:
        return LC
    if floor_ids:
        return PLT
    if mx is None or mx < 0:
        return TERMINAL
    if mx == 0:
        return CANONICAL
    return LT


def blow_down(g: DualGraph, vid: str) -> DualGraph:
    """Contract a (-1)-curve, adjusting its neighbours.

    The curve must be exceptional, rational, of self-intersection -1,
    smooth in the configuration (no tangency, no coincident group) and
    meet each neighbour in a single transverse point.  Each neighbour
    gains +1 self-intersection, and all former neighbours acquire one
    common point (a coincident group when there are three or more).
    """
    v = g.vertex(vid)
    if v.role != EXCEPTIONAL or v.genus != 0 or v.self_int != -1:
        raise ValueError(f"{vid!r} is not a contractible (-1)-curve")
    if g.tangency.get(vid, 0):
        raise ValueError(f"{vid!r} has a self-tangency; not a smooth (-1)-curve")
    if any(vid in grp for grp in g.coincident):
        raise ValueError(f"{vid!r} sits in a coincident group; configuration not normal crossing")
    neighbors = []
    for (a, b, w) in g.edges:
        if vid not in (a, b):
            continue
        other = b if a == vid else a
        if w != 1 or other in neighbors:
            raise ValueError(f"{vid!r} does not meet {other!r} in a single transverse point")
        neighbors.append(other)
    bumped = set(neighbors)
    new_vertices = []
    for u in g.vertices:
        if u.id == vid:
            continue
        if u.id in bumped:
            u = CurveVertex(
                u.id, u.self_int + 1, u.genus, u.multiplicity, u.boundary_coeff, u.role
            )
        new_vertices.append(u)
    new_edges = [(a, b, w) for (a, b, w) in g.edges if vid not in (a, b)]
    for i, a in enumerate(neighbors):
        for b in neighbors[i + 1 :]:
            new_edges.append((a, b, 1))
    new_groups = list(g.coincident)
    if len(neighbors) >= 3:
        new_groups.append(tuple(sorted(neighbors)))
    return DualGraph(new_vertices, new_edges, g.tangency, new_groups)


# ---------------------------------------------------------------------------
# Backtracking isomorphism on labelled graphs.


def _isomorphic(g: DualGraph, h: DualGraph, key) -> bool:
    """Label-preserving isomorphism test.

    ``key(graph, vertex)`` computes the label that must be preserved;
    edge entry multisets between mapped pairs, and coincident groups,
    must correspond exactly.  Backtracking is fine at this scale.
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
        image = {frozenset(mapping[x] for x in grp) for grp in g.coincident}
        target = {frozenset(grp) for grp in h.coincident}
        return image == target

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


def _arm_lengths(g: DualGraph, sub_ids: set[str], center: str) -> list[int] | None:
    """Vertex counts of the chains hanging off a trivalent tree vertex."""
    lengths = []
    for start in g.neighbors(center):
        if start not in sub_ids:
            continue
        length = 0
        prev, cur = center, start
        while True:
            length += 1
            nxt = [u for u in g.neighbors(cur) if u in sub_ids and u != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                return None
            prev, cur = cur, nxt[0]
        lengths.append(length)
    return sorted(lengths)


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
    ids = {v.id for v in exc}
    for v in exc:
        if v.self_int != -2 or v.genus != 0 or g.tangency.get(v.id, 0):
            return UNRECOGNIZED
    sub_edges = [(a, b, w) for (a, b, w) in g.edges if a in ids and b in ids]
    if any(w != 1 for (_, _, w) in sub_edges):
        return UNRECOGNIZED
    n = len(exc)
    if len(sub_edges) != n - 1:
        return UNRECOGNIZED
    if len({(a, b) for (a, b, _) in sub_edges}) != n - 1:
        return UNRECOGNIZED
    # Connectivity of the exceptional part.
    seen = {exc[0].id}
    frontier = [exc[0].id]
    while frontier:
        cur = frontier.pop()
        for u in g.neighbors(cur):
            if u in ids and u not in seen:
                seen.add(u)
                frontier.append(u)
    if seen != ids:
        return UNRECOGNIZED
    degrees = {v.id: sum(1 for u in g.neighbors(v.id) if u in ids) for v in exc}
    branch = [vid for vid, d in degrees.items() if d == 3]
    if any(d > 3 for d in degrees.values()) or len(branch) > 1:
        return UNRECOGNIZED
    if not branch:
        return DuValType("A", n)
    arms = _arm_lengths(g, ids, branch[0])
    if arms is None:
        return UNRECOGNIZED
    if arms[0] == arms[1] == 1:
        return DuValType("D", n)
    if arms[:2] == [1, 2] and arms[2] in (2, 3, 4):
        return DuValType("E", n)
    return UNRECOGNIZED


# ---------------------------------------------------------------------------
# Kodaira fibre types.


@dataclass(frozen=True)
class KodairaLabel:
    """A Kodaira fibre type: I_b (b>=1), I*_b (b>=0), II..IV*, or SMOOTH."""

    kind: str
    b: int | None = None

    _PLAIN = ("II", "III", "IV", "II*", "III*", "IV*", "SMOOTH")

    def __post_init__(self) -> None:
        if self.kind == "I":
            if not isinstance(self.b, int) or self.b < 1:
                raise ValueError("I_b needs b >= 1")
        elif self.kind == "I*":
            if not isinstance(self.b, int) or self.b < 0:
                raise ValueError("I*_b needs b >= 0")
        elif self.kind in self._PLAIN:
            if self.b is not None:
                raise ValueError(f"{self.kind} takes no parameter")
        else:
            raise ValueError(f"unknown Kodaira kind {self.kind!r}")

    def __str__(self) -> str:
        if self.b is None:
            return self.kind
        return f"{self.kind}_{self.b}"

    @classmethod
    def parse(cls, text: str) -> "KodairaLabel":
        text = text.strip()
        if "_" in text:
            kind, _, num = text.partition("_")
            return cls(kind, int(num))
        return cls(text)


def classical_euler(label: KodairaLabel) -> int:
    """Topological Euler number of the fibre, by type."""
    table = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10, "SMOOTH": 0}
    if label.kind == "I":
        return label.b
    if label.kind == "I*":
        return label.b + 6
    return table[label.kind]


def configuration_euler(g: DualGraph) -> int:
    """Topological Euler number of the support of the configuration.

    Normalizing every curve contributes 2 - 2g; each intersection point
    then glues branches together, dropping the count by (branches - 1).
    One edge entry is one point (whatever its weight), a self-tangency is
    one point of the curve with itself, and a coincident group fuses all
    its listed mutual intersections into a single point.
    """
    total = sum(2 - 2 * v.genus for v in g.vertices)
    total -= sum(g.tangency.values())
    grouped = 0
    for (a, b, _) in g.edges:
        if any(a in grp and b in grp for grp in g.coincident):
            grouped += 1
    total -= len(g.edges) - grouped
    total -= sum(len(grp) - 1 for grp in g.coincident)
    return total


def _fibre_vertex(i: int, mult: int = 1, self_int: int = -2, genus: int = 0) -> CurveVertex:
    return CurveVertex(f"C{i}", self_int, genus, mult, Rational(0), FIBRE)


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
        spine = [CurveVertex(f"S{i}", -2, 0, 2, Rational(0), FIBRE) for i in range(b + 1)]
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
    vs += [CurveVertex(f"F{j+1}", -2, 0, m, Rational(0), FIBRE) for j, m in enumerate(arm)]
    edges = [(f"C{i}", f"C{i+1}") for i in range(1, len(chain))]
    edges.append((f"C{fork_at + 1}", "F1"))
    edges += [(f"F{j}", f"F{j+1}") for j in range(1, len(arm))]
    return DualGraph(vs, edges)


def _kodaira_key(g: DualGraph, v: CurveVertex):
    return (v.genus, v.self_int, v.multiplicity, g.tangency.get(v.id, 0))


def recognize_kodaira(g: DualGraph):
    """Match a configuration against the standard degenerate fibre types.

    >>> str(recognize_kodaira(kodaira_graph(KodairaLabel("I", 3))))
    'I_3'
    >>> str(recognize_kodaira(kodaira_graph(KodairaLabel("III"))))
    'III'
    """
    vs = g.vertices
    n = len(vs)
    if n == 1:
        v = vs[0]
        tang = g.tangency.get(v.id, 0)
        if v.self_int != 0 or v.multiplicity != 1 or g.edges:
            return UNRECOGNIZED
        if v.genus == 1 and tang == 0:
            return KodairaLabel("SMOOTH")
        if v.genus == 0 and tang == 1:
            return KodairaLabel("I", 1)
        if v.genus == 0 and tang == 0:
            return KodairaLabel("II")
        return UNRECOGNIZED
    if any(v.genus != 0 or v.self_int != -2 for v in vs) or g.tangency:
        return UNRECOGNIZED
    if n == 2 and all(v.multiplicity == 1 for v in vs):
        weights = g.entries(vs[0].id, vs[1].id)
        if weights == (1, 1):
            return KodairaLabel("I", 2)
        if weights == (2,):
            return KodairaLabel("III")
        return UNRECOGNIZED
    if (
        n == 3
        and len(g.coincident) == 1
        and set(g.coincident[0]) == set(g.ids())
        and all(v.multiplicity == 1 for v in vs)
        and all(g.entries(a, b) == (1,) for i, a in enumerate(g.ids()) for b in g.ids()[i + 1 :])
    ):
        return KodairaLabel("IV")
    if g.coincident:
        return UNRECOGNIZED
    if (
        n >= 3
        and len(g.edges) == n
        and all(v.multiplicity == 1 for v in vs)
        and all(g.incidence(v.id) == 2 for v in vs)
        and all(w == 1 for (_, _, w) in g.edges)
    ):
        # Connected 2-regular graph on >= 3 vertices: a cycle.
        seen = {vs[0].id}
        frontier = [vs[0].id]
        while frontier:
            for u in g.neighbors(frontier.pop()):
                if u not in seen:
                    seen.add(u)
                    frontier.append(u)
        if len(seen) == n:
            return KodairaLabel("I", n)
        return UNRECOGNIZED
    candidates = []
    if n >= 5:
        candidates.append(KodairaLabel("I*", n - 5))
    if n == 7:
        candidates.append(KodairaLabel("IV*"))
    if n == 8:
        candidates.append(KodairaLabel("III*"))
    if n == 9:
        candidates.append(KodairaLabel("II*"))
    for label in candidates:
        if _isomorphic(g, kodaira_graph(label), _kodaira_key):
            return label
    return UNRECOGNIZED


# ---------------------------------------------------------------------------
# The coefficient-1/2 germ catalog.
#
# Fifteen families of dual graphs of log resolutions of germs (S, (1/2) Xi; p)
# of index two: eight with p a smooth surface point, seven with p singular.
# Bullets (strict branches of Xi) carry coefficient 1/2; chains written 2^k
# mean exactly k curves of self-intersection -2.

_HC_PART1 = ("A_0/2", "alpha", "beta", "D-alpha", "D-beta", "E_6/2", "E_7/2", "E_8/2")
_HC_PART2 = ("gamma", "delta", "epsilon", "zeta", "D-gamma", "D-delta", "D-epsilon")
HALF_CATALOG_FAMILIES = _HC_PART1 + _HC_PART2

# Minimal k per family (parameterless families keyed at 0 only).
_HC_KMIN = {"zeta": 1}


def half_catalog_label(family: str, k: int = 0) -> str:
    """Catalog label of a family member, e.g. ``A_5/2-delta`` for k = 1."""
    _check_family(family, k)
    fixed = {
        "A_0/2": "A_0/2",
        "E_6/2": "E_6/2",
        "E_7/2": "E_7/2",
        "E_8/2": "E_8/2",
        "gamma": "A_1/2-gamma",
        "D-gamma": "D_4/2-gamma",
    }
    if family in fixed:
        return fixed[family]
    n = {
        "alpha": 2 * k + 1,
        "beta": 2 * k + 2,
        "D-alpha": 2 * k + 5,
        "D-beta": 2 * k + 4,
        "delta": 2 * k + 3,
        "epsilon": 2 * k + 2,
        "zeta": 2 * k + 1,
        "D-delta": 2 * k + 5,
        "D-epsilon": 2 * k + 6,
    }[family]
    series = "D" if family.startswith("D-") else "A"
    greek = family.split("-")[-1]
    return f"{series}_{n}/2-{greek}"


def _check_family(family: str, k: int) -> None:
    if family not in HALF_CATALOG_FAMILIES:
        raise ValueError(f"unknown catalog family {family!r}")
    if k < _HC_KMIN.get(family, 0):
        raise ValueError(f"family {family!r} needs k >= {_HC_KMIN.get(family, 0)}")


def _bullet(i: int) -> CurveVertex:
    return CurveVertex(f"B{i}", 0, 0, 1, _HALF, STRICT)


def _exc_chain(self_ints) -> tuple[list[CurveVertex], list[tuple[str, str]]]:
    vs = [CurveVertex(f"E{i+1}", s) for i, s in enumerate(self_ints)]
    edges = [(f"E{i}", f"E{i+1}") for i in range(1, len(self_ints))]
    return vs, edges


def half_catalog_graph(family: str, k: int = 0) -> DualGraph:
    """The drawn (normal crossing) dual graph of a catalog member.

    >>> recognize_half_catalog(half_catalog_graph("delta", 1))
    'A_5/2-delta'
    """
    _check_family(family, k)
    if family == "A_0/2":
        return DualGraph([_bullet(1)])
    if family == "alpha":
        vs, edges = _exc_chain([-2] * k + [-1])
        last = f"E{k+1}"
        vs += [_bullet(1), _bullet(2)]
        edges += [(last, "B1"), (last, "B2")]
        return DualGraph(vs, edges)
    if family == "beta":
        vs, edges = _exc_chain([-2] * k + [-3, -1])
        last = f"E{k+2}"
        vs.append(CurveVertex(f"E{k+3}", -2))
        vs.append(_bullet(1))
        edges += [(last, f"E{k+3}"), (last, "B1")]
        return DualGraph(vs, edges)
    if family == "D-alpha":
        g = half_catalog_graph("beta", k)
        vs = list(g.vertices) + [_bullet(2)]
        edges = list(g.edges) + [("E1", "B2")]
        return DualGraph(vs, edges)
    if family == "D-beta":
        g = half_catalog_graph("alpha", k)
        vs = list(g.vertices) + [_bullet(3)]
        edges = list(g.edges) + [("E1", "B3")]
        return DualGraph(vs, edges)
    if family == "E_6/2":
        vs, edges = _exc_chain([-2, -2, -1])
        vs += [CurveVertex("E4", -4), _bullet(1)]
        edges += [("E3", "E4"), ("E3", "B1")]
        return DualGraph(vs, edges)
    if family == "E_7/2":
        vs, edges = _exc_chain([-2, -1])
        vs += [CurveVertex("E3", -3), _bullet(1), _bullet(2)]
        edges += [("E1", "B1"), ("E2", "E3"), ("E2", "B2")]
        return DualGraph(vs, edges)
    if family == "E_8/2":
        vs, edges = _exc_chain([-3, -2, -1])
        vs += [CurveVertex("E4", -3), _bullet(1)]
        edges += [("E3", "E4"), ("E3", "B1")]
        return DualGraph(vs, edges)
    if family == "gamma":
        return DualGraph([CurveVertex("E1", -4)])
    if family == "delta":
        vs, edges = _exc_chain([-3] + [-2] * k + [-3])
        return DualGraph(vs, edges)
    if family == "epsilon":
        vs, edges = _exc_chain([-2] * k + [-3])
        vs.append(_bullet(1))
        edges.append(("E1", "B1"))
        return DualGraph(vs, edges)
    if family == "zeta":
        vs, edges = _exc_chain([-2] * k)
        vs += [_bullet(1), _bullet(2)]
        edges += [("E1", "B1"), (f"E{k}", "B2")]
        return DualGraph(vs, edges)
    if family == "D-gamma":
        vs = [
            CurveVertex("E1", -1),
            CurveVertex("E2", -4),
            CurveVertex("E3", -2),
            _bullet(1),
        ]
        edges = [("E1", "E2"), ("E1", "E3"), ("E1", "B1")]
        return DualGraph(vs, edges)
    if family == "D-delta":
        vs, edges = _exc_chain([-3] + [-2] * k + [-1])
        last = f"E{k+2}"
        vs += [_bullet(1), _bullet(2)]
        edges += [(last, "B1"), (last, "B2")]
        return DualGraph(vs, edges)
    # D-epsilon
    vs, edges = _exc_chain([-3] + [-2] * k + [-3, -1])
    last = f"E{k+3}"
    vs.append(CurveVertex(f"E{k+4}", -2))
    vs.append(_bullet(1))
    edges += [(last, f"E{k+4}"), (last, "B1")]
    return DualGraph(vs, edges)


def half_catalog_minimal_graph(family: str, k: int = 0) -> DualGraph:
    """The minimal-resolution dual graph of a singular-point catalog member.

    Only the seven singular-point families resolve nontrivially; the
    smooth-point families have nothing exceptional on the minimal
    resolution.  The A-series figures are already minimal; the three
    D-series germs contract to a single (-2)-curve met by the branch with
    total multiplicity two (the deeper structure of the branch is what
    distinguishes them, and it is invisible to the dual graph).
    """
    _check_family(family, k)
    if family in _HC_PART1:
        raise ValueError(f"family {family!r} has a smooth center; no minimal resolution graph")
    if family in ("gamma", "delta", "epsilon", "zeta"):
        return half_catalog_graph(family, k)
    if family == "D-gamma" or family == "D-epsilon":
        # One branch, tangent to the curve: a single weight-2 point.
        vs = [CurveVertex("E1", -2), _bullet(1)]
        return DualGraph(vs, [("E1", "B1", 2)])
    # D-delta: two branches through one point of the curve, meeting each
    # other there with contact k+1.
    vs = [CurveVertex("E1", -2), _bullet(1), _bullet(2)]
    edges = [("E1", "B1"), ("E1", "B2"), ("B1", "B2", k + 1)]
    return DualGraph(vs, edges, coincident=[("E1", "B1", "B2")])


def _half_key(g: DualGraph, v: CurveVertex):
    # Strict branches are germs: their self-intersections are not part of
    # the figure and must not block recognition.
    if v.role == EXCEPTIONAL:
        return ("E", v.self_int, g.tangency.get(v.id, 0))
    return ("S", g.tangency.get(v.id, 0))


def recognize_half_catalog(g: DualGraph):
    """Match a graph against the fifteen drawn catalog families.

    Returns the concrete label (with the chain parameter resolved), e.g.
    a chain (-3)-(-2)-(-3) of exceptional curves is ``A_5/2-delta``.

    >>> recognize_half_catalog(DualGraph([CurveVertex("E", -4)]))
    'A_1/2-gamma'
    >>> recognize_half_catalog(DualGraph([CurveVertex("B", 0, role=STRICT)]))
    'A_0/2'
    """
    n_exc = len(g.by_role(EXCEPTIONAL))
    n_str = len(g.by_role(STRICT))
    if g.by_role(FIBRE):
        return UNRECOGNIZED
    # Exceptional count as a function of k, and strict-branch count.
    shapes = {
        "A_0/2": (None, 1),
        "alpha": (lambda k: k + 1, 2),
        "beta": (lambda k: k + 3, 1),
        "D-alpha": (lambda k: k + 3, 2),
        "D-beta": (lambda k: k + 1, 3),
        "E_6/2": (None, 1),
        "E_7/2": (None, 2),
        "E_8/2": (None, 1),
        "gamma": (None, 0),
        "delta": (lambda k: k + 2, 0),
        "epsilon": (lambda k: k + 1, 1),
        "zeta": (lambda k: k, 2),
        "D-gamma": (None, 1),
        "D-delta": (lambda k: k + 2, 2),
        "D-epsilon": (lambda k: k + 4, 1),
    }
    fixed_exc = {"A_0/2": 0, "E_6/2": 4, "E_7/2": 3, "E_8/2": 4, "gamma": 1, "D-gamma": 3}
    for family, (count, bullets) in shapes.items():
        if bullets != n_str:
            continue
        if count is None:
            if fixed_exc[family] != n_exc:
                continue
            k = 0
        else:
            # Invert the linear vertex count for k.
            offset = count(0)
            k = n_exc - offset
            if k < _HC_KMIN.get(family, 0):
                continue
        if _isomorphic(g, half_catalog_graph(family, k), _half_key):
            return half_catalog_label(family, k)
    return UNRECOGNIZED


# ---------------------------------------------------------------------------
# Fibre-component types over boundary points with standard coefficients.


@dataclass(frozen=True)
class FibreTypeLabel:
    """A marked degenerate-fibre type (I-1)_b .. (II-3)_{b,k}.

    ``b`` is the standard-coefficient parameter (a positive integer or
    INFINITY); the chain length ``k`` exists only for the kind II-3.
    """

    kind: str
    b: int | str
    k: int | None = None

    _KINDS = ("I-1", "I-2", "I-3", "II-1", "II-2", "II-3")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown fibre type kind {self.kind!r}")
        if self.b != INFINITY and (not isinstance(self.b, int) or self.b < 1):
            raise ValueError(f"b must be a positive integer or INFINITY, got {self.b!r}")
        if self.kind == "II-3":
            if not isinstance(self.k, int) or self.k < 1:
                raise ValueError("kind II-3 needs a chain length k >= 1")
        elif self.k is not None:
            raise ValueError(f"kind {self.kind} takes no chain parameter")

    def __str__(self) -> str:
        b = "inf" if self.b == INFINITY else self.b
        if self.kind == "II-3":
            return f"({self.kind})_{{{b},{self.k}}}"
        return f"({self.kind})_{b}"


def _std(b) -> Rational:
    return Rational(1) if b == INFINITY else Rational(b - 1, b)


def _std_half(b) -> Rational:
    """(b-1)/2b, the coefficient on the halved exceptional pair."""
    return _HALF if b == INFINITY else Rational(b - 1, 2 * b)


def _std_cover(b) -> Rational:
    """(2b-1)/2b, the coefficient on the doubled-parameter curve."""
    return Rational(1) if b == INFINITY else Rational(2 * b - 1, 2 * b)


def _infer_b(coeff: Rational):
    """Recover b from (b-1)/b; None when the value is not standard."""
    coeff = Rational(coeff)
    if coeff == 1:
        return INFINITY
    if not 0 <= coeff < 1:
        return None
    b = 1 / (1 - coeff)
    if b.denominator != 1:
        return None
    return int(b)


def _marked(vid: str, coeff, self_int: int = 0, role: str = STRICT) -> CurveVertex:
    return CurveVertex(vid, self_int, 0, 1, Rational(coeff), role)


def dynkin_fibre_graph(kind: str, b, k: int | None = None) -> DualGraph:
    """The marked dual graph of a degenerate fibre type over a boundary point.

    Vertices are marked with their boundary coefficients as drawn; the
    central component records its self-intersection, exceptional curves
    are all (-2).
    """
    FibreTypeLabel(kind, b, k)  # validates the parameter set
    cb, hb, xb = _std(b), _std_half(b), _std_cover(b)
    if kind == "I-1":
        vs = [_marked("S1", 1), _marked("C", cb), _marked("H1", _HALF), _marked("H2", _HALF)]
        edges = [("S1", "C"), ("C", "H1"), ("C", "H2")]
    elif kind == "I-2":
        vs = [
            _marked("S1", 1),
            _marked("C", cb, self_int=-1),
            _marked("X1", hb, self_int=-2, role=EXCEPTIONAL),
            _marked("X2", hb, self_int=-2, role=EXCEPTIONAL),
        ]
        edges = [("S1", "C"), ("C", "X1"), ("C", "X2")]
    elif kind == "I-3":
        vs = [
            _marked("S1", 1),
            _marked("X1", xb, self_int=-2, role=EXCEPTIONAL),
            _marked("C", cb, self_int=-1),
            _marked("H1", _HALF),
            _marked("X2", hb, self_int=-2, role=EXCEPTIONAL),
        ]
        edges = [("S1", "X1"), ("X1", "C"), ("C", "H1"), ("C", "X2")]
    elif kind == "II-1":
        vs = [_marked("S1", 1), _marked("C", cb), _marked("S2", 1)]
        edges = [("S1", "C"), ("C", "S2")]
    elif kind == "II-2":
        vs = [_marked("S1", 1), _marked("C", cb), _marked("H1", _HALF)]
        edges = [("S1", "C"), ("C", "H1", 2)]
    else:  # II-3
        vs = [_marked("S1", 1), _marked("C", cb, self_int=-1)]
        vs += [_marked(f"X{i}", cb, self_int=-2, role=EXCEPTIONAL) for i in range(1, k + 1)]
        vs += [
            _marked("Y1", hb, self_int=-2, role=EXCEPTIONAL),
            _marked("Y2", hb, self_int=-2, role=EXCEPTIONAL),
        ]
        edges = [("S1", "C"), ("C", "X1")]
        edges += [(f"X{i}", f"X{i+1}") for i in range(1, k)]
        edges += [(f"X{k}", "Y1"), (f"X{k}", "Y2")]
    return DualGraph(vs, edges)


def recognize_fibre_type(g: DualGraph):
    """Match a marked fibre graph against the six standard-coefficient types.

    The parameter b is recovered from the central coefficient (b-1)/b and
    every other recorded coefficient and self-intersection is verified
    against it.

    >>> str(recognize_fibre_type(dynkin_fibre_graph("II-1", 3)))
    '(II-1)_3'
    """
    if g.tangency or g.coincident or g.by_role(FIBRE):
        return UNRECOGNIZED
    exc = g.by_role(EXCEPTIONAL)
    strict = g.by_role(STRICT)
    n = len(g.vertices)
    if any(v.self_int != -2 or v.genus != 0 for v in exc):
        return UNRECOGNIZED
    if any(v.genus != 0 for v in strict):
        return UNRECOGNIZED

    def entry_ok(a: str, b_: str, w: int = 1) -> bool:
        return g.entries(a, b_) == (w,)

    if n == 3 and not exc and len(g.edges) == 2:
        center = next((v for v in strict if len(g.neighbors(v.id)) == 2), None)
        if center is None or center.self_int != 0:
            return UNRECOGNIZED
        b = _infer_b(center.boundary_coeff)
        if b is None:
            return UNRECOGNIZED
        u, w = (g.vertex(x) for x in g.neighbors(center.id))
        eu, ew = g.entries(center.id, u.id), g.entries(center.id, w.id)
        if eu == ew == (1,) and u.boundary_coeff == w.boundary_coeff == 1:
            return FibreTypeLabel("II-1", b)
        if sorted((eu, ew)) == [(1,), (2,)]:
            heavy, light = (u, w) if eu == (2,) else (w, u)
            if heavy.boundary_coeff == _HALF and light.boundary_coeff == 1:
                return FibreTypeLabel("II-2", b)
        return UNRECOGNIZED
    if any(w != 1 for (_, _, w) in g.edges):
        return UNRECOGNIZED
    if n == 4 and len(g.edges) == 3:
        center = next((v for v in g.vertices if len(g.neighbors(v.id)) == 3), None)
        if center is None or center.role != STRICT:
            return UNRECOGNIZED
        b = _infer_b(center.boundary_coeff)
        if b is None:
            return UNRECOGNIZED
        leaves = [g.vertex(x) for x in g.neighbors(center.id)]
        if not exc and center.self_int == 0:
            if sorted(v.boundary_coeff for v in leaves) == sorted((Rational(1), _HALF, _HALF)):
                return FibreTypeLabel("I-1", b)
        if len(exc) == 2 and center.self_int == -1:
            strict_leaves = [v for v in leaves if v.role == STRICT]
            if len(strict_leaves) == 1 and strict_leaves[0].boundary_coeff == 1:
                if all(v.boundary_coeff == _std_half(b) for v in exc):
                    return FibreTypeLabel("I-2", b)
        return UNRECOGNIZED
    if n == 5 and len(g.edges) == 4 and len(exc) == 2:
        center = next(
            (v for v in strict if v.self_int == -1 and len(g.neighbors(v.id)) == 3), None
        )
        if center is None:
            return UNRECOGNIZED
        b = _infer_b(center.boundary_coeff)
        if b is None:
            return UNRECOGNIZED
        half_leaf = cover = tail = None
        for x in g.neighbors(center.id):
            v = g.vertex(x)
            if v.role == STRICT and v.boundary_coeff == _HALF and len(g.neighbors(x)) == 1:
                half_leaf = v
            elif v.role == EXCEPTIONAL and len(g.neighbors(x)) == 1:
                tail = v
            elif v.role == EXCEPTIONAL and len(g.neighbors(x)) == 2:
                cover = v
        if None in (half_leaf, cover, tail):
            return UNRECOGNIZED
        if cover.boundary_coeff != _std_cover(b) or tail.boundary_coeff != _std_half(b):
            return UNRECOGNIZED
        far = next(x for x in g.neighbors(cover.id) if x != center.id)
        anchor = g.vertex(far)
        if anchor.role == STRICT and anchor.boundary_coeff == 1 and len(g.neighbors(far)) == 1:
            return FibreTypeLabel("I-3", b)
        return UNRECOGNIZED
    # II-3: a strict tail and center, then an exceptional chain ending in a fork.
    if len(strict) == 2 and len(exc) >= 3 and len(g.edges) == n - 1:
        tail = next((v for v in strict if v.boundary_coeff == 1 and len(g.neighbors(v.id)) == 1), None)
        center = next((v for v in strict if v is not tail), None)
        if tail is None or center is None:
            return UNRECOGNIZED
        if center.self_int != -1 or len(g.neighbors(center.id)) != 2:
            return UNRECOGNIZED
        if tail.id not in g.neighbors(center.id):
            return UNRECOGNIZED
        b = _infer_b(center.boundary_coeff)
        if b is None:
            return UNRECOGNIZED
        cb, hb = _std(b), _std_half(b)
        chain = []
        prev, cur = center.id, next(x for x in g.neighbors(center.id) if x != tail.id)
        while True:
            v = g.vertex(cur)
            if v.role != EXCEPTIONAL:
                return UNRECOGNIZED
            nxt = [x for x in g.neighbors(cur) if x != prev]
            if len(nxt) == 1:
                if v.boundary_coeff != cb:
                    return UNRECOGNIZED
                chain.append(cur)
                prev, cur = cur, nxt[0]
                continue
            if len(nxt) == 2:
                # The fork curve closes the chain.
                if v.boundary_coeff != cb:
                    return UNRECOGNIZED
                chain.append(cur)
                forks = [g.vertex(x) for x in nxt]
                if all(
                    f.role == EXCEPTIONAL
                    and f.boundary_coeff == hb
                    and len(g.neighbors(f.id)) == 1
                    for f in forks
                ):
                    return FibreTypeLabel("II-3", b, len(chain))
                return UNRECOGNIZED
            return UNRECOGNIZED
    return UNRECOGNIZED


# ---------------------------------------------------------------------------
# JSON interchange.


def graph_to_json(g: DualGraph) -> dict:
    """Plain-data form of a graph (rationals as "p/q" strings)."""
    out = {
        "vertices": [
            {
                "id": v.id,
                "self_int": v.self_int,
                "genus": v.genus,
                "mult": v.multiplicity,
                "boundary": str(v.boundary_coeff),
                "role": v.role.lower(),
            }
            for v in g.vertices
        ],
        "edges": [{"a": a, "b": b, "w": w} for (a, b, w) in g.edges],
    }
    if g.tangency:
        out["tangency"] = dict(g.tangency)
    if g.coincident:
        out["coincident"] = [list(grp) for grp in g.coincident]
    return out


def graph_from_json(data: dict) -> DualGraph:
    """Rebuild a graph from its plain-data form; missing fields default.

    Integer fields must hold JSON integers: a bool or a float raises
    TypeError instead of being truncated.
    """
    vertices = []
    for item in data.get("vertices", []):
        vertices.append(
            CurveVertex(
                id=str(item["id"]),
                self_int=json_int(item, "self_int"),
                genus=json_int(item, "genus", 0),
                multiplicity=json_int(item, "mult", 1),
                boundary_coeff=Rational(str(item.get("boundary", 0))),
                role=str(item.get("role", "exceptional")).upper(),
            )
        )
    edges = [
        (str(e["a"]), str(e["b"]), json_int(e, "w", 1)) for e in data.get("edges", [])
    ]
    tangency = data.get("tangency", {})
    if not isinstance(tangency, dict):
        raise TypeError(f"tangency must be an object, got {tangency!r}")
    tangency = {str(k): json_int(tangency, k) for k in tangency}
    coincident = [tuple(str(x) for x in grp) for grp in data.get("coincident", [])]
    return DualGraph(vertices, edges, tangency, coincident)
