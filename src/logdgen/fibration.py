"""Fibre-configuration records for conic fibrations over a curve.

A configuration record lists the degenerate-fibre types of a relative-rank-one
fibration together with the generic type.  The checks here are the numeric
constraints such a record must satisfy to come from an actual log surface
with a standard boundary and orbifold Euler number zero:

* the orbifold budget: singular points riding on the fibres spend at most
  4 units of Euler number for a degree-2 horizontal curve and at most 2
  for a single section;
* the Hurwitz constraint: the fibres on which a horizontal degree-2 curve
  ramifies come in even number, and fix that curve's Euler number;
* the adjunction constraint on the horizontal floor curve: the boundary
  degree collected along it must equal its own Euler number, allowing one
  node on a degree-2 floor curve.

Nothing here constructs surfaces; the checks only accept or reject records.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as Rational

from .core import (
    GermBoundaryData,
    INFINITY,
    hurwitz_double_cover_euler,
    m_p,
)
from .dualgraph import FibreTypeLabel, _std

# How the horizontal part of the boundary floor sits over the base.
TWO_SECTIONS = "TWO_SECTIONS"
BISECTION = "BISECTION"
SECTION_ONLY = "SECTION_ONLY"
PROFILES = (TWO_SECTIONS, BISECTION, SECTION_ONLY)

# Orbifold Euler number available to singular points on the fibres:
# 4 for a degree-2 horizontal curve, 2 per section.
PROFILE_BUDGETS = {
    BISECTION: Rational(4),
    TWO_SECTIONS: Rational(4),
    SECTION_ONLY: Rational(2),
}

# Fibre kinds a profile can exhibit.  One floor contact (kinds I-*) needs a
# multiplicity-2 central curve to host a bisection, so I-2 and II-3 belong
# to the bisection; I-1, I-3 and II-2 carry half-boundary marks instead and
# ride over a single section; two sections see only II-1 fibres.
_ALLOWED_KINDS = {
    SECTION_ONLY: frozenset({"I-1", "I-3", "II-2"}),
    BISECTION: frozenset({"I-2", "II-1", "II-3"}),
    TWO_SECTIONS: frozenset({"II-1"}),
}

# Fibres on which a degree-2 horizontal curve is ramified: the floor
# bisection over the I-2 / II-3 central curves, the half-curve bisection
# over I-3 (multiplicity two) and II-2 (tangency).
_BRANCH_KINDS = {
    SECTION_ONLY: frozenset({"I-3", "II-2"}),
    BISECTION: frozenset({"I-2", "II-3"}),
    TWO_SECTIONS: frozenset(),
}


def _require_profile(profile: str) -> None:
    if profile not in PROFILES:
        raise ValueError(f"unknown horizontal profile {profile!r}")


def _label_key(label: FibreTypeLabel):
    b_inf = label.b == INFINITY
    return (label.kind, b_inf, 0 if b_inf else label.b, label.k or 0)


@dataclass(frozen=True)
class TypRecord:
    """Degenerate-fibre multiset plus the generic fibre type."""

    special: tuple[FibreTypeLabel, ...]
    generic: FibreTypeLabel

    def __post_init__(self) -> None:
        for label in self.special:
            if not isinstance(label, FibreTypeLabel):
                raise TypeError(f"expected FibreTypeLabel, got {type(label).__name__}")
        object.__setattr__(self, "special", tuple(sorted(self.special, key=_label_key)))
        g = self.generic
        if not isinstance(g, FibreTypeLabel):
            raise TypeError(f"expected FibreTypeLabel, got {type(g).__name__}")
        if g.k is not None:
            raise ValueError("the generic fibre type carries no chain parameter")
        if not isinstance(g.b, int) or g.b < 1:
            raise ValueError(f"the generic fibre type needs an integer b >= 1, got {g.b!r}")

    def counts(self) -> Counter:
        return Counter(self.special)

    def __str__(self) -> str:
        parts = [str(label) for label in self.special]
        return f"({' + '.join(parts) if parts else '-'}; {self.generic})"


def budget_contribution(label: FibreTypeLabel) -> Rational:
    """Orbifold Euler number spent by the singular points on one fibre.

    An I-2 fibre passes through two order-2 points, an I-3 fibre through
    one, and a (II-3)_{b,k} fibre through a single point of order 4k; the
    remaining kinds carry no singular points at all.

    >>> budget_contribution(FibreTypeLabel("I-2", 1))
    Fraction(1, 1)
    >>> budget_contribution(FibreTypeLabel("II-3", 1, 2))
    Fraction(7, 8)
    """
    order_two = m_p(GermBoundaryData(2))[0]
    if label.kind == "I-2":
        return 2 * order_two
    if label.kind == "I-3":
        return order_two
    if label.kind == "II-3":
        return Rational(4 * label.k - 1, 4 * label.k)
    if label.kind in ("I-1", "II-1", "II-2"):
        return Rational(0)
    raise ValueError(f"unsupported fibre type label {label!r}")


def boundary_budget(rec: TypRecord, horizontal_profile: str) -> Rational:
    """Total orbifold spend of the record's degenerate fibres.

    The total is compared against PROFILE_BUDGETS by check_typ; the profile
    is validated here but does not change the per-fibre values.

    >>> rec = TypRecord((FibreTypeLabel("I-2", 1),) * 4, FibreTypeLabel("II-1", 1))
    >>> boundary_budget(rec, BISECTION)
    Fraction(4, 1)
    """
    _require_profile(horizontal_profile)
    return sum((budget_contribution(l) for l in rec.special), Rational(0))


def _floor_weight(label: FibreTypeLabel, profile: str) -> Rational:
    """Boundary degree the fibre deposits on the horizontal floor curve(s).

    Transverse contact with the central curve of coefficient (b-1)/b gives
    (b-1)/b per contact point; the floor contact of an I-3 fibre runs
    through the order-2 point and picks up (2b-1)/2b instead.
    """
    if profile == SECTION_ONLY:
        if label.kind in ("I-1", "II-2"):
            return _std(label.b)
        if label.kind == "I-3":
            if label.b == INFINITY:
                return Rational(1)
            return Rational(2 * label.b - 1, 2 * label.b)
    elif profile == BISECTION:
        if label.kind in ("I-2", "II-3"):
            return _std(label.b)
        if label.kind == "II-1":
            return 2 * _std(label.b)
    elif profile == TWO_SECTIONS:
        if label.kind == "II-1":
            # per section; both sections cross the same central curve
            return _std(label.b)
    raise ValueError(f"fibre type {label} cannot ride over profile {profile}")


def branch_count(rec: TypRecord, profile: str) -> int:
    """Number of fibres ramifying the degree-2 horizontal curve."""
    _require_profile(profile)
    kinds = _BRANCH_KINDS[profile]
    return sum(1 for l in rec.special if l.kind in kinds)


_GENERIC_FOR = {
    SECTION_ONLY: FibreTypeLabel("I-1", 1),
    BISECTION: FibreTypeLabel("II-1", 1),
    TWO_SECTIONS: FibreTypeLabel("II-1", 1),
}


def check_typ(rec: TypRecord, profile: str) -> bool:
    """Whether the record satisfies every numeric constraint of its profile.

    Checked in turn: the generic type matches the profile's floor contact
    count; every special fibre kind can ride over the profile and none is
    the generic germ in disguise; the ramified fibres of a degree-2
    horizontal curve come in even number; the orbifold budget is not
    overspent; and the boundary degree collected on the floor matches the
    floor curve's Euler number (a degree-2 floor curve may carry one node).
    """
    _require_profile(profile)
    if rec.generic != _GENERIC_FOR[profile]:
        return False
    allowed = _ALLOWED_KINDS[profile]
    for label in rec.special:
        if label.kind not in allowed:
            return False
        if label == _GENERIC_FOR[profile]:
            return False

    m = branch_count(rec, profile)
    try:
        cover_euler = hurwitz_double_cover_euler(m)
    except ValueError:
        return False

    if boundary_budget(rec, profile) > PROFILE_BUDGETS[profile]:
        return False

    floor_total = sum(
        (_floor_weight(l, profile) for l in rec.special), Rational(0)
    )
    if profile == BISECTION:
        # adjunction on the normalized bisection: its Euler number splits
        # into floor boundary degree plus 2 per node, at most one node
        return cover_euler - floor_total in (Rational(0), Rational(2))
    # sections are smooth copies of the base: rational or elliptic
    return floor_total in (Rational(0), Rational(2))


def _label_to_json(label: FibreTypeLabel) -> dict:
    out = {"kind": label.kind, "b": "inf" if label.b == INFINITY else label.b}
    if label.k is not None:
        out["k"] = label.k
    return out


def _label_from_json(data: dict) -> FibreTypeLabel:
    b = data["b"]
    if b == "inf":
        b = INFINITY
    return FibreTypeLabel(data["kind"], b, data.get("k"))


def typ_to_json(rec: TypRecord) -> dict:
    """Plain-data form: {"special": [{kind, b[, k]}...], "generic": {kind, b}}."""
    return {
        "special": [_label_to_json(l) for l in rec.special],
        "generic": _label_to_json(rec.generic),
    }


def typ_from_json(data: dict) -> TypRecord:
    return TypRecord(
        tuple(_label_from_json(d) for d in data.get("special", ())),
        _label_from_json(data["generic"]),
    )
