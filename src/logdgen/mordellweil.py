"""Height pairings of sections on elliptic surfaces.

The canonical height of a section, and the pairing of two sections, differ
from the naive intersection numbers by local contributions at reducible
fibres, depending only on which simple component each section meets.  This
module carries those contributions in closed form for every Kodaira type,
the two height formulas, and a small exhaustive solver that recovers all
component configurations compatible with a known height.
"""

from __future__ import annotations

from fractions import Fraction as Rational
from itertools import product
from math import prod

from .core import KodairaLabel, Record, classical_euler

# Most (po, hits) candidates solve_section_config will try.
MAX_SECTION_CANDIDATES = 100_000

# Fibre types of fixed shape with more than one simple component: how many,
# and the correction on the diagonal; off the diagonal it is half of that.
_FIXED = {
    "III": (2, Rational(1, 2)),
    "IV": (3, Rational(2, 3)),
    "III*": (2, Rational(3, 2)),
    "IV*": (3, Rational(4, 3)),
}


def component_count(label: KodairaLabel) -> int:
    """Number of irreducible components of the fibre type.

    From the Euler number e(F) (Kodaira): b = e(F) for I_b, one for SMOOTH,
    and e(F) - 1 for every additive type.
    """
    if label.kind == "SMOOTH":
        return 1
    if label.kind == "I":
        return label.b
    return classical_euler(label) - 1


def _simple_count(label: KodairaLabel) -> int:
    if label.kind == "I":
        return label.b
    if label.kind == "I*":
        return 4
    return _FIXED.get(label.kind, (1,))[0]


def component_choices(label: KodairaLabel) -> tuple[int, ...]:
    """Indices a section can meet: the simple (multiplicity-one) components.

    They are numbered in ``kodaira_graph`` vertex order, 0 being the one
    that meets the zero section; for I*_b, 1 is the near one and 2 and 3
    the two far ones.
    """
    return tuple(range(_simple_count(label)))


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
    diagonal = _FIXED[fibre.kind][1]
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

    _fields = ("po", "hits")

    def __init__(self, po: int, hits: tuple[int, ...]) -> None:
        if po < 0:
            raise ValueError(f"(P.O) must be non-negative, got {po}")
        self.__dict__.update(po=po, hits=tuple(hits))


def height_self(chi: int, po: int, contribs) -> Rational:
    """Canonical height of a section: 2 chi + 2 (P.O) - sum of corrections.

    >>> height_self(1, 0, [Rational(5, 4)])
    Fraction(3, 4)
    """
    return 2 * Rational(chi) + 2 * Rational(po) - sum(
        (Rational(c) for c in contribs), Rational(0)
    )


def height_pair(chi: int, po: int, qo: int, pq: int, contribs) -> Rational:
    """Height pairing of two sections: chi + (P.O) + (Q.O) - (P.Q) - sum.

    >>> height_pair(1, 0, 0, 0, [Rational(5, 4)])
    Fraction(-1, 4)
    """
    return (
        Rational(chi)
        + Rational(po)
        + Rational(qo)
        - Rational(pq)
        - sum((Rational(c) for c in contribs), Rational(0))
    )


def solve_section_config(target_height, fibres, chi: int = 1, po_max: int = 2):
    """All (po, component hits) giving the target canonical height.

    ``fibres`` lists (KodairaLabel, component count) pairs; the counts are
    validated against the labels.  The search is exhaustive over
    po in [0, po_max] and all simple-component choices, returned in
    canonical (po, hits) order.  A negative po_max, or a search of more
    than MAX_SECTION_CANDIDATES candidates, raises ValueError before any
    correction is computed.
    """
    if po_max < 0:
        raise ValueError(f"po_max must be >= 0, got {po_max}")
    target = Rational(target_height)
    labels = [label for label, _ in fibres]
    counts = [_simple_count(label) for label in labels]
    if (po_max + 1) * prod(counts) > MAX_SECTION_CANDIDATES:
        raise ValueError(f"section search exceeds {MAX_SECTION_CANDIDATES} candidates")
    for label, count in fibres:
        expected = component_count(label)
        if count != expected:
            raise ValueError(f"{label} has {expected} components, got {count}")
    corrections = [[contribution(label, i) for i in range(n)] for label, n in zip(labels, counts)]
    # product() walks the hits in lexicographic order, so out is already sorted.
    out = []
    for po in range(po_max + 1):
        for hits in product(*map(range, counts)):
            contribs = [c[i] for c, i in zip(corrections, hits)]
            if height_self(chi, po, contribs) == target:
                out.append(SectionConfig(po=po, hits=hits))
    return out
