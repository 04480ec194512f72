"""Du Val singularities, their index-r canonical covers, and covering defects.

A Du Val (rational double) point carries two classical integers: the order
o_p of its local fundamental group (the binary polyhedral order) and the
Euler number e_p of the exceptional fibre of its minimal resolution
(curve count + 1).  An index-r point whose canonical cover is Du Val falls
into one of six cases, each contributing a correction c_p and the covering
defect delta_p = e_p - 1/o_p - c_p.  The module also carries the catalog of
the 27 rank-one Gorenstein log del Pezzo surfaces with their orbifold Euler
numbers.
"""

from fractions import Fraction as Rational

from .core import Record, orbifold_euler


class DuValType(Record):
    """One of A_n (n >= 1), D_n (n >= 4), E_6, E_7, E_8."""

    def __init__(self, family: str, index: int) -> None:
        if type(index) is not int:
            ok = False
        elif family == "A":
            ok = index >= 1
        elif family == "D":
            ok = index >= 4
        elif family == "E":
            ok = index in (6, 7, 8)
        else:
            ok = False
        if not ok:
            raise ValueError(f"invalid Du Val type {family}_{index}")
        self.__dict__.update(family=family, index=index)

    @property
    def curve_count(self) -> int:
        """Number of exceptional curves of the minimal resolution."""
        return self.index

    @classmethod
    def parse(cls, text: str) -> "DuValType":
        """Accept 'A3', 'A_3', 'd5', 'E_8' and the like."""
        t = text.strip().replace("_", "")
        if len(t) < 2 or t[0].upper() not in "ADE":
            raise ValueError(f"cannot parse Du Val type from {text!r}")
        return cls(t[0].upper(), int(t[1:]))

    def __str__(self) -> str:
        return f"{self.family}_{self.index}"


def duval_order(t: DuValType) -> int:
    """Order of the local fundamental group (binary polyhedral order).

    >>> duval_order(DuValType("A", 3))
    4
    >>> duval_order(DuValType("E", 7))
    48
    """
    return _order(t.family, t.index)


def _order(family: str, index: int) -> int:
    if family == "A":
        return index + 1
    if family == "D":
        return 4 * (index - 2)
    return {6: 24, 7: 48, 8: 120}[index]


# One row per cover case 1..6: (r, nmin, base, c), where
#   r      is the index, or None for any r >= 2;
#   nmin   is the smallest n, or None when the case takes no n;
#   base   gives the Du Val type downstairs as a (family, index) pair of (r, n);
#   c      gives the correction c_p as an integer (numerator, denominator) of (r, n).
_COVER_CASES = {
    1: (None, 1, lambda r, n: ("A", r * n - 1), lambda r, n: (n * (r * r - 1), r)),
    2: (4, 2, lambda r, n: ("D", 2 * n + 1), lambda r, n: (3 * (2 * n + 3), 4)),
    3: (2, 2, lambda r, n: ("D", n + 2), lambda r, n: (3, 1)),
    4: (3, None, lambda r, n: ("E", 6), lambda r, n: (16, 3)),
    5: (2, 3, lambda r, n: ("D", 2 * n), lambda r, n: (3 * n, 2)),
    6: (2, None, lambda r, n: ("E", 7), lambda r, n: (9, 2)),
}


class CoverCase(Record):
    """An index-r point (r >= 2) whose canonical cover is Du Val or smooth.

    case_id 1..6 are the six cover actions of Table I.  The package computes
    only the base type and c_p of a case; the cover types below name the
    action, and the tests keep them as an oracle:

        1: A_{n-1}  -> A_{rn-1}   (r >= 2, n >= 1; cover smooth when n = 1)
        2: A_{2n-2} -> D_{2n+1}   (r = 4, n >= 2)
        3: A_{2n-1} -> D_{n+2}    (r = 2, n >= 2)
        4: D_4      -> E_6        (r = 3)
        5: D_{n+1}  -> D_{2n}     (r = 2, n >= 3)
        6: E_6      -> E_7        (r = 2)
    """

    def __init__(self, case_id: int, r: int, n: int | None = None) -> None:
        if type(case_id) is not int or case_id not in _COVER_CASES:
            raise ValueError(f"case_id must be 1..6, got {case_id!r}")
        index, nmin = _COVER_CASES[case_id][:2]
        r_ok = type(r) is int and (r >= 2 if index is None else r == index)
        n_ok = n is None if nmin is None else type(n) is int and n >= nmin
        if not (r_ok and n_ok):
            raise ValueError(f"invalid parameters for case {case_id}: r={r!r}, n={n!r}")
        self.__dict__.update(case_id=case_id, r=r, n=n)


def _base(cover: CoverCase) -> tuple[str, int]:
    """(family, index) of the Du Val type downstairs, without building it."""
    return _COVER_CASES[cover.case_id][2](cover.r, cover.n)


def _correction(cover: CoverCase) -> tuple[int, int]:
    """c_p as an integer (numerator, denominator)."""
    return _COVER_CASES[cover.case_id][3](cover.r, cover.n)


# Table I as published: per cover case the closed forms of e_p, o_p, c_p and
# delta_p, then hand-evaluated samples (r, n, e_p, o_p, c_p, delta_p) that
# ``logdgen tables I`` recomputes with the functions below.
COVER_TABLE_ROWS = (
    (1, ("rn", "rn", "n(r - 1/r)", "(n^2 - 1)/rn"), (
        (2, 1, 2, 2, Rational(3, 2), 0),
        (2, 2, 4, 4, 3, Rational(3, 4)),
        (3, 2, 6, 6, Rational(16, 3), Rational(1, 2)),
        (4, 3, 12, 12, Rational(45, 4), Rational(2, 3)),
    )),
    (2, ("2n + 2", "8n - 4", "3(2n + 3)/4", "n(n - 1)/(2n - 1)"), (
        (4, 2, 6, 12, Rational(21, 4), Rational(2, 3)),
        (4, 3, 8, 20, Rational(27, 4), Rational(6, 5)),
        (4, 5, 12, 36, Rational(39, 4), Rational(20, 9)),
    )),
    (3, ("n + 3", "4n", "3", "(4n^2 - 1)/4n"), (
        (2, 2, 5, 8, 3, Rational(15, 8)),
        (2, 3, 6, 12, 3, Rational(35, 12)),
        (2, 4, 7, 16, 3, Rational(63, 16)),
    )),
    (4, ("7", "24", "16/3", "13/8"), (
        (3, None, 7, 24, Rational(16, 3), Rational(13, 8)),
    )),
    (5, ("2n + 1", "8(n - 1)", "3n/2", "(4n^2 + 4n - 9)/8(n - 1)"), (
        (2, 3, 7, 16, Rational(9, 2), Rational(39, 16)),
        (2, 4, 9, 24, 6, Rational(71, 24)),
        (2, 5, 11, 32, Rational(15, 2), Rational(111, 32)),
    )),
    (6, ("8", "48", "9/2", "167/48"), (
        (2, None, 8, 48, Rational(9, 2), Rational(167, 48)),
    )),
)


def e_p(cover: CoverCase) -> int:
    """Euler number of the exceptional fibre over the point: curve_count + 1."""
    return _base(cover)[1] + 1


def o_p(cover: CoverCase) -> int:
    """Local fundamental group order at the point."""
    return _order(*_base(cover))


def c_p(cover: CoverCase) -> Rational:
    """Cover-case correction term.

    >>> c_p(CoverCase(1, r=3, n=2))
    Fraction(16, 3)
    >>> c_p(CoverCase(4, r=3))
    Fraction(16, 3)
    """
    return Rational(*_correction(cover))


def delta_p(cover: CoverCase) -> Rational:
    """Covering defect e_p - 1/o_p - c_p, over the common denominator o_p * den(c_p).

    >>> delta_p(CoverCase(1, r=2, n=1))
    Fraction(0, 1)
    >>> delta_p(CoverCase(4, r=3))
    Fraction(13, 8)
    """
    family, index = _base(cover)
    e, o = index + 1, _order(family, index)
    num, den = _correction(cover)
    return Rational((e * o - 1) * den - num * o, o * den)


class DelPezzoEntry(Record):
    """One row of the rank-one Gorenstein log del Pezzo catalog."""

    def __init__(self, row: int, degree: int, singularities: tuple[DuValType, ...],
                 e_orb: Rational) -> None:
        self.__dict__.update(row=row, degree=degree, singularities=singularities, e_orb=e_orb)


def _types(*names: str) -> tuple[DuValType, ...]:
    return tuple(DuValType.parse(s) for s in names)


# Catalog rows exactly as published, including row 17, whose printed value
# 65/48 is NOT reproduced by the orbifold Euler formula (see recompute_e_orb;
# the tests pin the discrepancy).
_DELPEZZO_ROWS: tuple[tuple[int, int, tuple[DuValType, ...], Rational], ...] = (
    (1, 8, _types("A1"), Rational(5, 2)),
    (2, 6, _types("A2", "A1"), Rational(11, 6)),
    (3, 5, _types("A4"), Rational(11, 5)),
    (4, 4, _types("D5"), Rational(25, 12)),
    (5, 4, _types("A3", "A1", "A1"), Rational(5, 4)),
    (6, 3, _types("E6"), Rational(49, 24)),
    (7, 3, _types("A5", "A1"), Rational(5, 3)),
    (8, 3, _types("A2", "A2", "A2"), Rational(1)),
    (9, 2, _types("E7"), Rational(97, 48)),
    (10, 2, _types("D6", "A1"), Rational(25, 16)),
    (11, 2, _types("A7"), Rational(17, 8)),
    (12, 2, _types("D4", "A3"), Rational(11, 8)),
    (13, 2, _types("A5", "A2"), Rational(3, 2)),
    (14, 2, _types("A3", "A3", "A1"), Rational(1)),
    (15, 1, _types("E8"), Rational(241, 120)),
    (16, 1, _types("E7", "A1"), Rational(73, 48)),
    (17, 1, _types("E7", "A2"), Rational(65, 48)),
    (18, 1, _types("A8"), Rational(19, 9)),
    (19, 1, _types("A7", "A1"), Rational(13, 8)),
    (20, 1, _types("A5", "A2", "A1"), Rational(1)),
    (21, 1, _types("D8"), Rational(49, 24)),
    (22, 1, _types("D6", "A1", "A1"), Rational(17, 16)),
    (23, 1, _types("D5", "A3"), Rational(4, 3)),
    (24, 1, _types("D4", "D4"), Rational(5, 4)),
    (25, 1, _types("A2", "A2", "A2", "A2"), Rational(1, 3)),
    (26, 1, _types("A3", "A3", "A1", "A1"), Rational(1, 2)),
    (27, 1, _types("A4", "A4"), Rational(7, 5)),
)

# Rows whose printed e_orb differs from recompute_e_orb: ``logdgen tables IV``
# notes them as a known discrepancy instead of failing the cross-check.
DELPEZZO_KNOWN_DISCREPANCIES = frozenset({17})


def delpezzo_catalog() -> list[DelPezzoEntry]:
    """The 27 published rows, with their literal orbifold Euler numbers."""
    return [DelPezzoEntry(*row) for row in _DELPEZZO_ROWS]


def recompute_e_orb(degree: int, singularities: tuple[DuValType, ...]) -> Rational:
    """Orbifold Euler number from first principles.

    The minimal resolution is a rational surface with crepant exceptional
    trees, so its topological Euler number is 12 - degree, each singular
    point having traded 1 for (curve_count + 1); subtracting the orbifold
    corrections 1 - 1/o_p gives

        e_orb = (12 - degree - sum curve_count) - sum (1 - 1/o_p).
    """
    whole = 12 - degree - sum(t.curve_count for t in singularities)
    return orbifold_euler(whole, (duval_order(t) for t in singularities))
