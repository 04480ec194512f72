"""Height pairings of sections on elliptic surfaces.

The canonical height of a section, and the pairing of two sections, differ
from the naive intersection numbers by local contributions at reducible
fibres, depending only on which simple component each section meets.  This
module carries those contributions in closed form for every Kodaira type,
the canonical height of a section, and a solver that recovers all component
configurations compatible with a known height by a dynamic program over
partial sums of the corrections.
"""

from collections import Counter
from fractions import Fraction as Rational
from math import lcm

from .core import PLAIN_KODAIRA, KodairaLabel, Record, component_count

# Most (P.O) values, simple components over all fibres, partial sums
# computed, or configurations returned that solve_section_config allows.
MAX_SECTION_CANDIDATES = 100_000

# Fibre types of fixed shape with more than one simple component: the
# correction on the diagonal; off the diagonal it is half of that.
_DIAGONAL = {"III": Rational(1, 2), "IV": Rational(2, 3), "III*": Rational(3, 2),
             "IV*": Rational(4, 3)}


def _simple_count(label: KodairaLabel) -> int:
    """How many simple components a section can meet, numbered in ``kodaira_graph``
    vertex order: 0 meets the zero section; for I*_b, 1 is near, 2 and 3 far."""
    if label.kind == "I":
        return label.b
    if label.kind == "I*":
        return 4
    return PLAIN_KODAIRA[label.kind][1]


def pair_contribution(fibre: KodairaLabel, i: int, j: int) -> Rational:
    """Local correction for a pair of sections through simple components i and j.

    The entry -(A^-1)_ij of the inverse intersection matrix A of the
    components that miss the zero section (Shioda 1990), in closed form:
    for 0 < i <= j, i(b - j)/b on I_b; on I*_b, 1 near, 1 + b/4 on a far
    component, 1/2 near-far and 1/2 + b/4 far-far.  Zero when either
    section meets the zero component.

    >>> pair_contribution(KodairaLabel("I*", 1), 2, 3)
    Fraction(3, 4)
    """
    n = _simple_count(fibre)
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"{fibre} has simple components 0..{n - 1}, got ({i}, {j})")
    i, j = sorted((i, j))
    if i == 0:
        return Rational(0)
    if fibre.kind == "I":
        return Rational(i * (fibre.b - j), fibre.b)
    if fibre.kind == "I*":
        far = Rational(fibre.b, 4) if i > 1 else 0  # i > 1: both components are far
        return (Rational(1) if i == j else Rational(1, 2)) + far
    diagonal = _DIAGONAL[fibre.kind]
    return diagonal if i == j else diagonal / 2


def contribution(fibre: KodairaLabel, i: int) -> Rational:
    """Local height correction for a section through simple component i.

    >>> contribution(KodairaLabel("I", 3), 1)
    Fraction(2, 3)
    >>> contribution(KodairaLabel("I*", 1), 2)
    Fraction(5, 4)
    """
    return pair_contribution(fibre, i, i)


class SectionConfig(Record):
    """One way a section can sit: (P.O) plus the component met per fibre."""

    def __init__(self, po: int, hits: tuple[int, ...]) -> None:
        hits = tuple(hits)
        if type(po) is not int or po < 0:
            raise ValueError(f"(P.O) must be non-negative, got {po}")
        if any(type(i) is not int or i < 0 for i in hits):
            raise ValueError(f"component indices must be non-negative integers, got {hits}")
        self.__dict__.update(po=po, hits=hits)


def height_self(chi: int, po: int, contribs) -> Rational:
    """Canonical height of a section: 2 chi + 2 (P.O) - sum of corrections.

    >>> height_self(1, 0, [Rational(5, 4)])
    Fraction(3, 4)
    """
    return 2 * Rational(chi) + 2 * Rational(po) - sum(
        (Rational(c) for c in contribs), Rational(0)
    )


def _exceeds(what: str) -> ValueError:
    return ValueError(f"section search exceeds {MAX_SECTION_CANDIDATES} {what}")


def solve_section_config(target_height, fibres, chi: int = 1, po_max: int = 2):
    """All (po, component hits) giving the target canonical height.

    ``fibres`` lists (KodairaLabel, component count) pairs; the counts are
    validated against the labels.  Configurations with po in [0, po_max]
    are returned in canonical (po, hits) order.  A section of the target
    height has correction sum 2 chi + 2 po - target, so a backward pass
    keeps, for each fibre position, the correction sums of the fibres from
    there on with their configuration counts, and a forward walk follows
    only the components whose remaining sum is one of them.  The backward
    pass computes (sums kept) x (distinct corrections) partial sums at each
    fibre; the walk visits only prefixes of returned configurations and
    scans the next fibre's components once at each.

    A negative po_max raises ValueError.  So do more than
    MAX_SECTION_CANDIDATES values of po, simple components over all fibres,
    partial sums computed, or configurations; the first two are checked
    before any correction is computed, the partial sums before each fibre's
    are computed, and the configurations before any is built.
    """
    if po_max < 0:
        raise ValueError(f"po_max must be >= 0, got {po_max}")
    if po_max + 1 > MAX_SECTION_CANDIDATES:
        raise _exceeds("values of (P.O)")
    target = Rational(target_height)
    counts, total = [], 0
    for label, count in fibres:
        expected = component_count(label)
        if count != expected:
            raise ValueError(f"{label} has {expected} components, got {count}")
        counts.append(_simple_count(label))
        total += counts[-1]
        if total > MAX_SECTION_CANDIDATES:
            raise _exceeds("simple components")
    corrections = [[contribution(label, i) for i in range(n)]
                   for (label, _), n in zip(fibres, counts)]
    # Scaled to integers over a common denominator: a step on Fraction sums
    # costs about ten times as much, so the step limit would take a second.
    scale = lcm(1, *(c.denominator for row in corrections for c in row))
    rows = [[c.numerator * (scale // c.denominator) for c in row] for row in corrections]

    # reach[k]: correction sum of fibres k.. -> how many hits give it.  A
    # fibre with one simple component (correction 0) shares its tail's map.
    reach = [{0: 1}]
    work = 0
    for row in reversed(rows):
        tail = reach[-1]
        if len(row) > 1:
            step = Counter(row).items()
            work += len(tail) * len(step)
            if work > MAX_SECTION_CANDIDATES:
                raise _exceeds("partial sums")
            sums = {}
            for s, ways in tail.items():
                for c, m in step:
                    sums[s + c] = sums.get(s + c, 0) + ways * m
            tail = sums
        reach.append(tail)
    reach.reverse()

    needs = []
    for po in range(po_max + 1):
        need = (2 * chi + 2 * po - target) * scale
        if need.denominator == 1 and need.numerator in reach[0]:
            needs.append((po, need.numerator))
    if sum(reach[0][need] for _, need in needs) > MAX_SECTION_CANDIDATES:
        raise _exceeds("configurations")

    # Depth-first in lexicographic order, without recursion: hits[k] is the
    # component tried at fibre k, rest[k] the sum fibres k.. must still give.
    n = len(rows)
    out = []
    for po, need in needs:
        hits, rest = [0] * n, [need] + [0] * n
        k, i = 0, 0
        while k >= 0:
            if k == n:
                out.append(SectionConfig(po=po, hits=tuple(hits)))
            else:
                row, after = rows[k], reach[k + 1]
                while i < len(row) and rest[k] - row[i] not in after:
                    i += 1
                if i < len(row):
                    hits[k], rest[k + 1] = i, rest[k] - row[i]
                    k, i = k + 1, 0
                    continue
            k -= 1
            if k >= 0:
                i = hits[k] + 1
    return out
