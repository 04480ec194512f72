"""Weighted dual graphs of curve configurations on a smooth surface, and their solvers.

A :class:`DualGraph` records irreducible curves (vertices, carrying
self-intersection, genus, fibre multiplicity and boundary coefficient) and
their mutual intersections (edges, one entry per intersection point with the
local intersection multiplicity as weight).  On top of that sit the exact
intersection-matrix utilities, the log-pullback linear solver and the
discrepancy-threshold classifier, the blow-down of a (-1)-curve, and the
reader of a graph's JSON form.  The recognizers, which need the catalogs,
live in ``dualgraph``; ``graph discrepancies`` and ``graph classify`` load
this module alone.

All arithmetic is exact: the solvers eliminate on integers and return
``fractions.Fraction`` answers; no numerical tolerance appears anywhere.
"""

from collections import Counter
from fractions import Fraction as Rational
from heapq import heapify, heappop, heappush
from itertools import chain, combinations, compress
from math import gcd, lcm, prod
from types import MappingProxyType

from .core import (ANSWER_CEILING, MAX_ANSWER_DIGITS, NOT_LC, Record, json_array, json_int,
                   parse_rational)

# Vertex roles.
EXCEPTIONAL = "EXCEPTIONAL"
STRICT = "STRICT"
FIBRE = "FIBRE"
_ROLES = (EXCEPTIONAL, STRICT, FIBRE)

# Log-pair classes, ordered from most to least special.  NOT_LC is shared
# with the germ trichotomy in fibration.
TERMINAL = "TERMINAL"
CANONICAL = "CANONICAL"
PLT = "PLT"
LT = "LT"
LC = "LC"

# The coefficient of a curve outside the boundary, shared by every such curve.
_ZERO = Rational(0)


class CurveVertex(Record):
    """One irreducible curve in a configuration.

    ``multiplicity`` is the coefficient in the fibre or divisor being
    modelled; ``boundary_coeff`` is the coefficient in the boundary divisor
    (0 for curves not appearing there).  ``role`` separates exceptional
    curves of the map being studied from strict transforms of boundary
    curves and from fibre components.
    """

    def __init__(self, id: str, self_int: int, genus: int = 0, multiplicity: int = 1,
                 boundary_coeff: Rational = _ZERO, role: str = EXCEPTIONAL) -> None:
        if type(self_int) is not int:
            raise ValueError(f"self-intersection must be an integer, got {self_int!r}")
        if type(genus) is not int or genus < 0:
            raise ValueError(f"genus must be >= 0, got {genus}")
        if type(multiplicity) is not int or multiplicity < 1:
            raise ValueError(f"multiplicity must be >= 1, got {multiplicity}")
        # A Fraction is kept as it is, and 0 <= p/q <= 1 (q > 0) is read on integers.
        coeff = boundary_coeff if type(boundary_coeff) is Rational else Rational(boundary_coeff)
        if coeff is not _ZERO and not 0 <= coeff.numerator <= coeff.denominator:
            raise ValueError(f"boundary coefficient must lie in [0,1], got {coeff}")
        if role not in _ROLES:
            raise ValueError(f"unknown role {role!r}")
        fields = self.__dict__  # one store per field keeps the class's shared-key dict
        fields["id"], fields["self_int"], fields["genus"] = id, self_int, genus
        fields["multiplicity"], fields["boundary_coeff"], fields["role"] = multiplicity, coeff, role


class DualGraph:
    """A finite weighted multigraph of curves.

    Each edge entry ``(a, b, w)``, or ``(a, b)`` with w = 1, is one
    intersection point of the two curves, of local intersection multiplicity
    ``w`` (two transverse points give two entries, one tangency of order two
    a single entry of weight 2).  ``tangency`` counts nodes of a single curve
    with itself.  A ``coincident`` group lists three or more curves that all
    pass through one common point; it takes one entry of each pair of its
    curves, so a pair needs an entry for every group holding both.  A group
    changes no intersection number, only the topology of the support.

    Instances are immutable: the containers are tuples, ``tangency`` is a
    read-only mapping, and once ``__init__`` has run, assigning or deleting
    any field raises AttributeError, as for ``core.Record``.  Only
    ``pullback_coefficients`` stores into the derived slot ``_pullback``,
    its first answer, which cannot go stale because nothing it depends on
    can change; equality and hashing ignore it, and copies, ``blow_down``
    and ``graph_from_json`` build new instances, which start without it.
    """

    __slots__ = ("vertices", "edges", "tangency", "coincident", "_index", "_pullback")

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
            match entry:
                case (a, b):
                    w = 1
                case (a, b, w):
                    pass
                case _:
                    raise ValueError(f"edge entry must be (a, b) or (a, b, w), got {entry!r}")
            if a not in index or b not in index:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown vertex")
            if a == b:
                raise ValueError(f"self-edge at {a!r}; use a tangency count instead")
            if type(w) is not int or w < 1:
                raise ValueError(f"edge weight must be a positive integer, got {w!r}")
            norm_edges.append((b, a, w) if b < a else (a, b, w))
        norm_edges.sort()
        tang = dict(tangency or {})
        for vid, count in tang.items():
            if vid not in index:
                raise ValueError(f"tangency count on unknown vertex {vid!r}")
            if type(count) is not int or count < 0:
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
        # A group is one point of each pair it holds, so it takes one entry apiece;
        # each pass takes an entry or stops, so a huge group costs no more than the edges.
        free = Counter((a, b) for a, b, _ in norm_edges) if groups else None
        for a, b in (pair for grp in groups for pair in combinations(grp, 2)):
            free[a, b] -= 1
            if free[a, b] < 0:
                raise ValueError(f"curves {a!r} and {b!r} lie in more coincident groups "
                                 f"than they have intersection entries")
        store = object.__setattr__
        store(self, "vertices", vs)
        store(self, "edges", tuple(norm_edges))
        store(self, "tangency", MappingProxyType({k: v for k, v in sorted(tang.items()) if v > 0}))
        store(self, "coincident", tuple(sorted(groups)))
        store(self, "_index", index)
        store(self, "_pullback", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return DualGraph, (self.vertices, self.edges, dict(self.tangency), self.coincident)

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
            + (f", tangency={dict(self.tangency)}" if self.tangency else "")
            + (f", coincident={self.coincident}" if self.coincident else "")
            + ")"
        )


# ---------------------------------------------------------------------------
# Intersection matrices and exact linear algebra.


def intersection_matrix(g: DualGraph, subset=None) -> list[list[int]]:
    """Intersection matrix of the named curves, in the given order.

    A cell pairing a curve with itself (a repeated id too) holds its recorded
    self-intersection; every other cell holds the total intersection number
    (the sum of entry weights), all added up in one pass over the edges.

    >>> a2 = DualGraph([CurveVertex("E1", -2), CurveVertex("E2", -2)], [("E1", "E2")])
    >>> intersection_matrix(a2)
    [[-2, 1], [1, -2]]
    """
    ids = list(subset) if subset is not None else list(g.ids())
    places = {}
    for i, vid in enumerate(ids):
        places.setdefault(vid, []).append(i)
    m = [[0] * len(ids) for _ in ids]
    for vid, at in places.items():  # in order of first appearance, so the first unknown id raises
        self_int = g.vertex(vid).self_int
        for i in at:
            for j in at:
                m[i][j] = self_int
    for a, b, w in g.edges:
        for i in places.get(a, ()):
            for j in places.get(b, ()):
                m[i][j] += w
                m[j][i] += w
    return m


def _negative_elimination(diagonal, rows, rhs=None):
    """The symmetric integer matrix with this diagonal and these rows, one dict
    of nonzero off-diagonal entries each, eliminated in minimum-degree order;
    or None at the first diagonal entry or pivot that is not negative.

    Each step takes the row with the fewest entries left, ties to the lower
    index, so on a tree every step removes a leaf and creates no entry, and on
    a cycle at most one (Rose, Tarjan and Lueker).  That order eliminates
    P m Pᵀ for a permutation P, which has m's inertia (Sylvester), and each
    pivot is a ratio of consecutive leading principal minors of P m Pᵀ: so m
    is negative definite exactly when every pivot is negative.  The pivot p
    clears its column from a row that meets it with entry c by adding c times
    its own row to -p times that one, integer ``rhs`` included, and dividing
    out the gcd (Bareiss): -p > 0, so each row stays a positive multiple of
    the true row, and its pivot has the true pivot's sign.  The arguments are
    worked on in place.  Returned are the steps ``(k, pivot, row)``, row k's
    pivot and entries then, over the rows eliminated after it, and the
    reduced ``rhs`` (None without one): back substitution over the steps in
    reverse solves m x = rhs.  Here a star's centre, row 0, waits until one
    leaf is left:

    >>> rows = [{1: 1, 2: 1, 3: 1}, {0: 1}, {0: 1}, {0: 1}]
    >>> steps, b = _negative_elimination([-4, -2, -2, -2], rows, [-2, 0, 0, 0])
    >>> [(k, pivot) for k, pivot, _ in steps]
    [(1, -2), (2, -2), (0, -3), (3, -5)]
    >>> x = [None] * 4
    >>> for k, pivot, row in reversed(steps):
    ...     x[k] = (b[k] - sum(c * x[j] for j, c in row.items())) / Rational(pivot)
    >>> x
    [Fraction(4, 5), Fraction(2, 5), Fraction(2, 5), Fraction(2, 5)]
    """
    # Each diagonal entry e_k . m e_k of a negative definite matrix is negative,
    # so one that is not ends it before any row is touched.
    if any(d >= 0 for d in diagonal):
        return None
    b = [0] * len(diagonal) if rhs is None else rhs
    # (entries left, index) of each row, pushed again whenever its count may have
    # changed; an entry whose count is no longer the row's is skipped.
    heap = [(len(row), k) for k, row in enumerate(rows)]
    heapify(heap)
    steps = []
    while heap:
        degree, k = heappop(heap)
        row = rows[k]
        if row is None or len(row) != degree:
            continue
        pivot = diagonal[k]
        if pivot >= 0:
            return None
        rows[k] = None
        steps.append((k, pivot, row))
        for i, c_ki in row.items():
            target = rows[i]
            c = target.pop(k)
            # s row_i + t row_k, with s / t = -pivot / c and s > 0
            h = gcd(pivot, c)
            s, t = -pivot // h, c // h
            if s != 1:
                for j in target:
                    target[j] *= s
            for j, x in row.items():
                if j != i:
                    target[j] = target.get(j, 0) + t * x
            d, r = s * diagonal[i] + t * c_ki, s * b[i] + t * b[k]
            common = gcd(d, r, *target.values())
            if common > 1:
                for j in target:
                    target[j] //= common
                d, r = d // common, r // common
            diagonal[i], b[i] = d, r
            heappush(heap, (len(target), i))
    return steps, rhs


def is_negative_definite(m) -> bool:
    """Whether the symmetric integer matrix is negative definite.

    Checked exactly: every pivot of its elimination in minimum-degree
    order must be negative.  A matrix that is not square, then one that is
    not symmetric, then one with a nonzero cell that is not an int, raises
    ValueError saying so.

    >>> is_negative_definite([[-2, 1], [1, -2]])
    True
    >>> is_negative_definite([[-2, 2], [2, -2]])
    False
    >>> is_negative_definite([[-1]])
    True
    >>> is_negative_definite([[-2, 0.5], [0.5, -2]])
    Traceback (most recent call last):
    ...
    ValueError: matrix cell (0, 1) must be an integer, got 0.5
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if list(map(tuple, m)) != list(zip(*m)):
        raise ValueError("matrix must be symmetric")
    # The nonzero cells, one dict per row, and their types are collected in C.
    rows = [dict(zip(compress(range(n), row), filter(None, row))) for row in m]
    if not set(map(type, chain.from_iterable(map(dict.values, rows)))) <= {int}:
        i, j = next((i, j) for i, row in enumerate(rows) for j, x in row.items() if type(x) is not int)
        raise ValueError(f"matrix cell ({i}, {j}) must be an integer, got {m[i][j]!r}")
    return _negative_elimination([row.pop(k, 0) for k, row in enumerate(rows)], rows) is not None


# ---------------------------------------------------------------------------
# Log pullback, classification, blow-down.

# Most exceptional curves pullback_coefficients solves for: its elimination grows as the
# cube of the count on a dense system (linearly on a tree or a cycle, quadratically on a
# star, whose centre row is rescaled as each leaf is cleared).
MAX_PULLBACK_CURVES = 100


def _pullback_system(g: DualGraph, exc) -> tuple[list, list, list, int]:
    """The pullback system over the curves ``exc``, from one pass over the edges.

    Returned are the diagonal, one dict of off-diagonal weights per row, the
    right-hand side 2 + E_j^2 - sum_C coeff(C) C.E_j times D, and D, the lcm
    of the denominators of the boundary coefficients that meet ``exc``.
    """
    place = {v.id: k for k, v in enumerate(exc)}
    diagonal = [v.self_int for v in exc]
    rows = [{} for _ in exc]
    touching = []
    for a, b, w in g.edges:
        i, j = place.get(a), place.get(b)
        if i is not None and j is not None:
            rows[i][j] = rows[i].get(j, 0) + w
            rows[j][i] = rows[j].get(i, 0) + w
        elif i is not None:
            touching.append((i, g._index[b].boundary_coeff, w))
        elif j is not None:
            touching.append((j, g._index[a].boundary_coeff, w))
    scale = lcm(*(coeff.denominator for _, coeff, _ in touching))
    rhs = [scale * (2 + d) for d in diagonal]
    for k, coeff, w in touching:
        rhs[k] -= coeff.numerator * (scale // coeff.denominator) * w
    return diagonal, rows, rhs, scale


def pullback_coefficients(g: DualGraph) -> dict[str, Rational]:
    """Coefficients a_i of the exceptional curves in the log pullback.

    Solves, for every exceptional curve E_j, the system

        (K + sum_C coeff(C) * C + sum_i a_i E_i) . E_j = 0

    over the exceptional curves, with K.E_j = -2 - E_j^2 (all exceptional
    curves must be smooth rational), by one integer elimination in
    minimum-degree order and back substitution; each a_i becomes a Fraction
    once, at the end.  The discrepancy of E_i is -a_i.  More than
    MAX_PULLBACK_CURVES exceptional curves raise ValueError before the
    system is built, and so does a system whose answer could outgrow
    MAX_ANSWER_DIGITS, before it is eliminated.

    The first answer is stored on ``g``: later calls on it, ``classify_pair``'s
    too, solve nothing and return a fresh dict.  A refusal is not stored; it
    is found again, with the same message, on every call.

    >>> g = DualGraph([CurveVertex("E", -4)])
    >>> pullback_coefficients(g)
    {'E': Fraction(1, 2)}
    """
    if g._pullback is not None:
        return dict(g._pullback)
    exc = g.by_role(EXCEPTIONAL)
    if len(exc) > MAX_PULLBACK_CURVES:
        raise ValueError(f"{len(exc)} exceptional curves exceed {MAX_PULLBACK_CURVES}")
    for v in exc:
        if v.genus != 0:
            raise ValueError(f"exceptional curve {v.id!r} must be rational")
        if g.tangency.get(v.id, 0):
            raise ValueError(f"exceptional curve {v.id!r} must be smooth (no self-tangency)")
    diagonal, rows, rhs, scale = _pullback_system(g, exc)
    # Cramer and Hadamard: with D the lcm of the right-hand side's denominators,
    # no reduced numerator or denominator exceeds D * prod_j (sum_k |m_jk| + |D rhs_j|).
    # The rhs is over scale, so D = scale / shared and D rhs_j = rhs[j] / shared.
    shared = gcd(scale, *rhs)
    bound = scale // shared * prod(abs(d) + sum(row.values()) + abs(r) // shared
                                   for d, row, r in zip(diagonal, rows, rhs))
    if bound >= ANSWER_CEILING:
        raise ValueError(f"the coefficients could have more than {MAX_ANSWER_DIGITS} digits")
    result = _negative_elimination(diagonal, rows, rhs)
    if result is None:
        raise ValueError("singular system (not negative definite)")
    # Step (k, pivot, row) reads pivot y_k + sum_j row[j] y_j = b[k], over the
    # curves j eliminated after k, and a = y / scale; y_j is kept as the pair
    # num[j] / den[j] in lowest terms.
    steps, b = result
    num, den = [0] * len(exc), [1] * len(exc)
    for k, pivot, row in reversed(steps):
        p, q = b[k], 1
        for j, c in row.items():
            common = lcm(q, den[j])
            p, q = p * (common // q) - c * num[j] * (common // den[j]), common
        q *= pivot
        h = gcd(p, q)
        num[k], den[k] = p // h, q // h
    object.__setattr__(g, "_pullback", {v.id: Rational(p, q * scale)
                                        for v, p, q in zip(exc, num, den)})
    return dict(g._pullback)


def classify_pair(g: DualGraph) -> str:
    """Singularity class of the pair presented by the graph.

    The graph must be a simple-normal-crossing resolution; the verdict
    certifies thresholds on this resolution only.  With a_i the pullback
    coefficients and the reduced boundary the curves of coefficient 1:
    max a_i > 1 is NOT_LC; max a_i = 1, or two reduced-boundary curves
    meeting, is LC; otherwise a reduced boundary curve forces PLT, and a
    boundary-free graph grades into LT / CANONICAL / TERMINAL as the
    maximal a_i sits in (0,1), = 0, or < 0 (vacuously TERMINAL when
    nothing is exceptional).  The coefficients come from
    ``pullback_coefficients``, so a graph it has already solved is not
    solved again.

    >>> a3 = DualGraph([CurveVertex(f"E{i}", -2) for i in (1, 2, 3)], [("E1", "E2"), ("E2", "E3")])
    >>> classify_pair(a3)
    'CANONICAL'
    >>> classify_pair(DualGraph([CurveVertex("E", -4)]))
    'LT'
    """
    # Where max a_i lies, read off a_i = p/q (q > 0) on integers: 0 below 0,
    # 1 at 0, 2 inside (0, 1), 3 at 1 and 4 above 1; 0 when nothing is exceptional.
    top = max(((p >= 0) + (p > 0) + (p >= q) + (p > q) for p, q in
               map(Rational.as_integer_ratio, pullback_coefficients(g).values())), default=0)
    if top == 4:
        return NOT_LC
    floor_ids = set()
    for v in g.vertices:
        if v.role != EXCEPTIONAL:
            p, q = v.boundary_coeff.as_integer_ratio()
            if p == q:  # p/q lies in [0, 1], so it is 1 exactly when p = q
                floor_ids.add(v.id)
    floor_meets_floor = bool(floor_ids) and (
        any(a in floor_ids and b in floor_ids for (a, b, w) in g.edges)
        or any(g.tangency.get(vid, 0) for vid in floor_ids))
    if top == 3 or floor_meets_floor:
        return LC
    if floor_ids:
        return PLT
    return (TERMINAL, CANONICAL, LT)[top]


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
# JSON input.


# The role names as the JSON form writes them, read without a case conversion.
_ROLE_NAMES = {role.lower(): role for role in _ROLES}


def _role(written) -> str:
    """The role a JSON vertex names, in any case; an unknown one is quoted as written."""
    role = str(written).upper()
    if role not in _ROLES:
        raise ValueError(f"unknown role {written!r}")
    return role


def graph_from_json(data: dict) -> DualGraph:
    """Rebuild a graph from its plain-data form; missing fields default.

    Integer fields must hold JSON integers: a bool or a float raises
    TypeError instead of being truncated.  List fields, and each coincident
    group, must hold JSON arrays: a string there raises TypeError instead of
    being read one character at a time.  An unreadable or oversized
    boundary literal raises ``core.ParseError`` (see ``core.parse_rational``).
    Each distinct boundary literal is parsed once per call.
    """
    literals = {"0": _ZERO}  # parse_rational reads str(value), so the text is the key
    vertices = []
    for item in json_array(data.get("vertices", []), "vertices"):
        vid, self_int = str(item["id"]), json_int(item, "self_int")
        genus, mult = json_int(item, "genus", 0), json_int(item, "mult", 1)
        text = str(item["boundary"]) if "boundary" in item else "0"
        coeff = literals.get(text)
        if coeff is None:
            coeff = literals[text] = parse_rational(text)
        role = item.get("role", "exceptional")
        role = (_ROLE_NAMES.get(role) if type(role) is str else None) or _role(role)
        vertices.append(CurveVertex(vid, self_int, genus, mult, coeff, role))
    edges = [
        (str(e["a"]), str(e["b"]), json_int(e, "w", 1))
        for e in json_array(data.get("edges", []), "edges")
    ]
    tangency = data.get("tangency", {})
    if not isinstance(tangency, dict):
        raise TypeError(f"tangency must be an object, got {tangency!r}")
    tangency = {str(k): json_int(tangency, k) for k in tangency}
    coincident = [
        tuple(str(x) for x in json_array(grp, "coincident group"))
        for grp in json_array(data.get("coincident", []), "coincident")
    ]
    return DualGraph(vertices, edges, tangency, coincident)
