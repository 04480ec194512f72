"""Fibre-configuration records for conic fibrations over a curve, and the germ calculus.

The germ calculus gives the local "different" multiplicity m_p of a curve
germ inside a log surface with standard boundary, and the Euler number of a
double cover of the line.

A configuration record lists the degenerate-fibre types of a relative-rank-one
fibration together with the generic type.  The checks here are the numeric
constraints such a record must satisfy to come from an actual log surface
with a standard boundary and orbifold Euler number zero:

* the orbifold budget: singular points riding on the fibres spend at most
  4 units of Euler number for a degree-2 horizontal curve and at most 2
  for a single section;
* the Hurwitz constraint: the fibres on which a horizontal degree-2 curve
  ramifies come in even number r, and fix that curve's Euler number 4 - r;
* the adjunction (floor) constraint on the horizontal floor curve: the
  boundary degree collected along it, never negative, must equal its own
  Euler number, allowing one node on a degree-2 floor curve.

The floor constraint implies the budget, so ``check_typ`` tests only the
other two (``boundary_budget`` still reports the spend).  Two sections admit
only II-1 fibres, which spend nothing.  Over a bisection each I-2 or II-3
fibre spends at most 1 and ramifies, and the floor degree must be 4 - r or
2 - r; it is never negative, so r <= 4 and the spend is at most 4.  Over a
single section each I-3 fibre spends 1/2 and puts at least 1/2 on a floor
that must total 0 or 2, and the other kinds spend nothing, so the spend is
at most 2.

Nothing here constructs surfaces; the checks only accept or reject records.
"""

from fractions import Fraction as Rational

from .core import INFINITY, NOT_LC, FibreTypeLabel, Record, quotient_defect, standard_coeff

# ---------------------------------------------------------------------------
# The germ calculus: the different multiplicity m_p of a curve germ inside a
# log surface with standard boundary.

# Trichotomy labels for the different multiplicity at a point; NOT_LC comes from core.
CASE1 = "CASE1"
CASE2 = "CASE2"
CASE3 = "CASE3"


class GermBoundaryData(Record):
    """Local data of a curve germ through a cyclic quotient point of order n.

    ``k`` maps each boundary parameter b >= 2 to the number k_b of boundary
    branches with coefficient (b-1)/b meeting the germ there, as a dict or as
    pairs, kept as the sorted pairs with k_b > 0: data equal up to zero counts
    compare and hash alike.  Sums k_b > 2 are representable; they classify NOT_LC.
    """

    def __init__(self, n: int, k: dict[int, int] | tuple = ()) -> None:
        k = dict(k)
        if type(n) is not int or n < 1:
            raise ValueError(f"cyclic order n must be >= 1, got {n}")
        for b, count in k.items():
            if type(b) is not int or b < 2:
                raise ValueError(f"boundary parameter b must be >= 2, got {b}")
            if type(count) is not int or count < 0:
                raise ValueError(f"branch count k_{b} must be >= 0, got {count}")
        self.__dict__.update(n=n, k=tuple(sorted((b, count) for b, count in k.items() if count)))


def m_p(data: GermBoundaryData) -> tuple[Rational, str]:
    """Different multiplicity of the germ and its case in the trichotomy.

    The value is (n-1)/n + sum_b ((b-1)/b) * (k_b/n), the coefficient of the
    different (Shokurov; Kollar et al., Flips and Abundance, 1992, ch. 16):
    on the germ's log resolution it is the pullback coefficient of the
    exceptional curve the germ meets.  The case label:
    no branches -> CASE1, a single branch -> CASE2, two half branches
    (k_2 = 2) -> CASE3 (value exactly 1); every other pattern exceeds 1
    and is NOT_LC.

    >>> m_p(GermBoundaryData(1))
    (Fraction(0, 1), 'CASE1')
    >>> m_p(GermBoundaryData(1, {2: 1}))
    (Fraction(1, 2), 'CASE2')
    >>> m_p(GermBoundaryData(2, {2: 2}))
    (Fraction(1, 1), 'CASE3')
    """
    n = data.n
    value = standard_coeff(n)
    for b, k_b in data.k:
        value += standard_coeff(b) * Rational(k_b, n)

    if not data.k:
        label = CASE1
    elif sum(k_b for _, k_b in data.k) == 1:
        label = CASE2
    elif data.k == ((2, 2),):
        label = CASE3
    else:
        label = NOT_LC
    if value > 1:
        label = NOT_LC
    return value, label


def hurwitz_double_cover_euler(branch_count: int) -> int:
    """Euler number of a double cover of the line with simple branch points.

    A degree-2 cover of P^1 branched at m points has Euler number 4 - m;
    m must be even for such a cover to exist.

    >>> hurwitz_double_cover_euler(4)
    0
    """
    if branch_count < 0:
        raise ValueError(f"branch count must be >= 0, got {branch_count}")
    if branch_count % 2:
        raise ValueError(f"no double cover with an odd branch count ({branch_count})")
    return 4 - branch_count


# ---------------------------------------------------------------------------
# Configuration records.

# How the horizontal part of the boundary floor sits over the base.
TWO_SECTIONS = "TWO_SECTIONS"
BISECTION = "BISECTION"
SECTION_ONLY = "SECTION_ONLY"

# One row per profile: the generic fibre, and each fibre kind the profile can
# exhibit, with the boundary degree that the fibre deposits on the horizontal
# floor curve(s) and whether a degree-2 horizontal curve ramifies over it.  A
# row (contacts, scale, ramified) meets the floor in that many contacts, each
# depositing (scale*b - 1)/(scale*b), or 1 when b is INFINITY.
# One floor contact (kinds I-*) needs a multiplicity-2 central curve to host a
# bisection, so I-2 and II-3 belong to the bisection; I-1, I-3 and II-2 carry
# half-boundary marks and ride over a single section; two sections see only
# II-1 fibres.  Each transverse contact with the central curve gives (b-1)/b
# (II-1 meets a bisection twice, and each of two sections once); the floor
# contact of an I-3 fibre runs through the order-2 point, giving (2b-1)/2b.
# The floor bisection ramifies over the I-2 / II-3 central curves, the
# half-curve bisection over I-3 (multiplicity two) and II-2 (tangency).
_PROFILE_TABLE = {
    TWO_SECTIONS: (FibreTypeLabel("II-1", 1), {"II-1": (1, 1, False)}),
    BISECTION: (FibreTypeLabel("II-1", 1), {
        "I-2": (1, 1, True),
        "II-1": (2, 1, False),
        "II-3": (1, 1, True),
    }),
    SECTION_ONLY: (FibreTypeLabel("I-1", 1), {
        "I-1": (1, 1, False),
        "I-3": (1, 2, True),
        "II-2": (1, 1, True),
    }),
}


def _profile(profile: str):
    """The profile's row: (generic fibre, {kind: (contacts, scale, ramified)})."""
    try:
        return _PROFILE_TABLE[profile]
    except (KeyError, TypeError):  # TypeError: an unhashable profile
        raise ValueError(f"unknown horizontal profile {profile!r}") from None


def _label_key(label: FibreTypeLabel):
    b_inf = label.b == INFINITY
    return (label.kind, b_inf, 0 if b_inf else label.b, label.k or 0)


class TypRecord(Record):
    """Degenerate-fibre multiset plus the generic fibre type."""

    def __init__(self, special: tuple[FibreTypeLabel, ...], generic: FibreTypeLabel) -> None:
        for label in special:
            if not isinstance(label, FibreTypeLabel):
                raise TypeError(f"expected FibreTypeLabel, got {type(label).__name__}")
        special = tuple(sorted(special, key=_label_key))
        if not isinstance(generic, FibreTypeLabel):
            raise TypeError(f"expected FibreTypeLabel, got {type(generic).__name__}")
        if generic.k is not None:
            raise ValueError("the generic fibre type carries no chain parameter")
        if not isinstance(generic.b, int) or generic.b < 1:
            raise ValueError(
                f"the generic fibre type needs an integer b >= 1, got {generic.b!r}")
        self.__dict__.update(special=special, generic=generic)

    def __str__(self) -> str:
        parts = [str(label) for label in self.special]
        return f"({' + '.join(parts) if parts else '-'}; {self.generic})"


# The orders of the cyclic quotient points on each fibre kind, given the
# chain length k of a (II-3)_{b,k} fibre.  A point of order n spends m_p of a
# bare germ there, (n-1)/n = 1 - 1/n.
_POINT_ORDERS = {
    "I-1": lambda k: (), "I-2": lambda k: (2, 2), "I-3": lambda k: (2,),
    "II-1": lambda k: (), "II-2": lambda k: (), "II-3": lambda k: (4 * k,),
}


def boundary_budget(rec: TypRecord, horizontal_profile: str) -> Rational:
    """Orbifold Euler number spent by the quotient points on the record's fibres.

    A record that check_typ accepts spends at most the profile's budget (the
    module docstring proves it); the profile is validated here but does not
    change the spend.

    >>> rec = TypRecord((FibreTypeLabel("I-2", 1),) * 4, FibreTypeLabel("II-1", 1))
    >>> boundary_budget(rec, BISECTION)
    Fraction(4, 1)
    >>> boundary_budget(TypRecord((FibreTypeLabel("II-3", 1, 2),), rec.generic), BISECTION)
    Fraction(7, 8)
    """
    _profile(horizontal_profile)
    orders = (o for label in rec.special for o in _POINT_ORDERS[label.kind](label.k))
    return Rational(*quotient_defect(orders))


def check_typ(rec: TypRecord, profile: str) -> bool:
    """Whether the record satisfies every numeric constraint of its profile.

    Checked: the generic type matches the profile's floor contact count;
    every special fibre kind can ride over the profile and none is the
    generic germ in disguise; the ramified fibres of a degree-2 horizontal
    curve come in even number; and the boundary degree collected on the
    floor matches the floor curve's Euler number (a degree-2 floor curve may
    carry one node).  A record passing the floor test is within the orbifold
    budget (see the module docstring), so the budget is not tested again.
    """
    generic, kinds = _profile(profile)
    if rec.generic != generic:
        return False
    # The floor degree is 1 per contact with b = INFINITY plus the quotient
    # defect of the other contacts' d = scale*b, kept as an integer over an lcm.
    ramified = reduced = 0
    dens = []
    for label in rec.special:
        row = kinds.get(label.kind)
        if row is None or label == generic:
            return False
        contacts, scale, ramifies = row
        ramified += ramifies
        if label.b == INFINITY:
            reduced += contacts
        else:
            dens += [scale * label.b] * contacts

    try:
        cover_euler = hurwitz_double_cover_euler(ramified)
    except ValueError:
        return False
    degree, lcm = quotient_defect(dens)
    if profile == BISECTION:
        # adjunction on the normalized bisection: its Euler number splits
        # into floor boundary degree plus 2 per node, at most one node
        closed = (cover_euler, cover_euler - 2)
    else:
        # sections are smooth copies of the base: rational or elliptic
        closed = (0, 2)
    return degree in ((floor - reduced) * lcm for floor in closed)
