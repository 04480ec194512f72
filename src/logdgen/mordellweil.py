"""Height pairings of sections on elliptic surfaces.

The canonical height of a section, and the pairing of two sections, differ
from the naive intersection numbers by local contributions at reducible
fibres, depending only on which component each section meets.  This module
carries those contribution values for the fibre types that actually occur
in the worked examples (cyclic I_n fibres in general, I*_1 and I*_2 for
the quoted cases), the two height formulas, and a small exhaustive solver
that recovers all component configurations compatible with a known height.

Contribution values not on record are rejected, never interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Rational
from itertools import product
from math import prod

from .core import KodairaLabel, classical_euler

# Simple-component indexing for I*_m fibres: 0 is the component meeting the
# zero section, 1 the nearby simple component, 2 and 3 the two far ones.
_STAR_NEAR = 1
_STAR_FAR = (2, 3)

# Most (po, hits) candidates solve_section_config will try.
MAX_SECTION_CANDIDATES = 100_000


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


def component_choices(label: KodairaLabel) -> tuple[int, ...]:
    """Indices a section can meet: the reduced components of the fibre."""
    if label.kind == "I" and label.b >= 2:
        return tuple(range(label.b))
    if label.kind == "I*":
        return (0, 1, 2, 3)
    return (0,)


def contribution(fibre: KodairaLabel, i: int) -> Rational:
    """Local height correction for a section through component i.

    >>> contribution(KodairaLabel("I", 3), 1)
    Fraction(2, 3)
    >>> contribution(KodairaLabel("I*", 1), 2)
    Fraction(5, 4)
    """
    if i == 0:
        return Rational(0)
    if fibre.kind == "I" and fibre.b >= 2:
        if not 0 <= i < fibre.b:
            raise ValueError(f"I_{fibre.b} has components 0..{fibre.b - 1}, got {i}")
        return Rational(i * (fibre.b - i), fibre.b)
    if fibre.kind == "I*" and fibre.b in (1, 2):
        if i == _STAR_NEAR:
            return Rational(1)
        if i in _STAR_FAR:
            return 1 + Rational(fibre.b, 4)
        raise ValueError(f"{fibre} simple components are 0..3, got {i}")
    raise ValueError(f"no contribution on record for {fibre} component {i}")


def pair_contribution(fibre: KodairaLabel, i: int, j: int) -> Rational:
    """Local correction for a PAIR of sections through components i and j.

    Zero when either meets the zero component; equal to the single-section
    value when both meet the same component.  Beyond that, only the far
    components of I*_1 are on record (5/4 on the same one, 3/4 on the two
    different ones).
    """
    if i == 0 or j == 0:
        return Rational(0)
    if i == j:
        return contribution(fibre, i)
    if fibre.kind == "I*" and fibre.b == 1 and i in _STAR_FAR and j in _STAR_FAR:
        return Rational(3, 4)
    raise ValueError(
        f"no pair contribution on record for {fibre} components ({i}, {j})"
    )


@dataclass(frozen=True)
class LocalContrTable:
    """All recorded corrections of one fibre type, keyed by component."""

    fibre: KodairaLabel
    single: dict[int, Rational]
    pair: dict[tuple[int, int], Rational]

    @classmethod
    def of(cls, fibre: KodairaLabel) -> "LocalContrTable":
        choices = component_choices(fibre)
        single = {i: contribution(fibre, i) for i in choices}
        pair = {}
        for i in choices:
            for j in choices:
                try:
                    pair[(i, j)] = pair_contribution(fibre, i, j)
                except ValueError:
                    continue
        return cls(fibre, single, pair)


@dataclass(frozen=True)
class SectionConfig:
    """One way a section can sit: (P.O) plus the component met per fibre."""

    po: int
    hits: tuple[int, ...]
    pq: int | None = None

    def __post_init__(self) -> None:
        if self.po < 0:
            raise ValueError(f"(P.O) must be non-negative, got {self.po}")
        object.__setattr__(self, "hits", tuple(self.hits))


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
    po in [0, po_max] and all reduced-component choices, returned in
    canonical (po, hits) order.  A search of more than
    MAX_SECTION_CANDIDATES candidates raises ValueError before any fibre
    graph is built.
    """
    target = Rational(target_height)
    labels = [label for label, _ in fibres]
    choice_sets = [component_choices(label) for label in labels]
    if (max(po_max, 0) + 1) * prod(len(c) for c in choice_sets) > MAX_SECTION_CANDIDATES:
        raise ValueError(f"section search exceeds {MAX_SECTION_CANDIDATES} candidates")
    for label, count in fibres:
        expected = component_count(label)
        if count != expected:
            raise ValueError(f"{label} has {expected} components, got {count}")
    out = []
    for po in range(po_max + 1):
        for hits in product(*choice_sets):
            contribs = [contribution(l, i) for l, i in zip(labels, hits)]
            if height_self(chi, po, contribs) == target:
                out.append(SectionConfig(po=po, hits=hits))
    out.sort(key=lambda c: (c.po, c.hits))
    return out
