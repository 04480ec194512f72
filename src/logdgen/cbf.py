"""Canonical bundle formula invariants over one-dimensional bases.

For a fibre over a point of the base, three invariants drive the formula:
the smallest twist ell* making the relevant direct image behave, the
discrepancy-like correction mu*, and the induced boundary coefficient
s* = b((ell*-1)/ell* - mu*).  This module carries the well-known elliptic
table of these invariants, the twenty-seven abelian-fibre rows produced by
primitive vectors on quotient germs, Mori's integrality constraint on s*,
the totient-LCM function bounding local indices, symplectic group orders,
and the resulting global bound on the number of singular fibres.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Rational
from math import gcd, lcm, isqrt

from .dualgraph import KodairaLabel

V1 = "V1"
V2 = "V2"
INFEASIBLE = "INFEASIBLE"


@dataclass(frozen=True)
class FibreInvariants:
    """The invariant triple of one fibre, plus the plurigenus index b.

    Consistency of the four fields is NOT enforced here; that is what
    validate_fibre_invariants is for (so that inconsistent candidates can
    be represented and rejected).
    """

    ell: int
    mu: Rational
    b: int
    s: Rational

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise ValueError(f"ell must be a positive integer, got {self.ell}")
        if self.b < 1:
            raise ValueError(f"b must be a positive integer, got {self.b}")
        object.__setattr__(self, "mu", Rational(self.mu))
        object.__setattr__(self, "s", Rational(self.s))
        if self.mu < 0:
            raise ValueError(f"mu must be non-negative, got {self.mu}")


@dataclass(frozen=True)
class PrimitiveVector:
    """A primitive vector (r; a_0, a_1, a_2) of one of the two shapes.

    Shape V1 requires gcd(r, a_2) = 1; both shapes require 0 <= a_i < r
    and a_0 + a_1 + a_2 < r.
    """

    kind: str
    r: int
    a: tuple[int, int, int]

    def __post_init__(self) -> None:
        if self.kind not in (V1, V2):
            raise ValueError(f"kind must be V1 or V2, got {self.kind!r}")
        if self.r < 1:
            raise ValueError(f"index r must be positive, got {self.r}")
        a = tuple(int(x) for x in self.a)
        if len(a) != 3:
            raise ValueError("a must be a triple")
        object.__setattr__(self, "a", a)
        if any(not 0 <= x < self.r for x in a):
            raise ValueError(f"entries of {a} must lie in [0, {self.r})")
        if sum(a) >= self.r:
            raise ValueError(f"sum of {a} must be smaller than r = {self.r}")
        if self.kind == V1 and gcd(self.r, a[2]) != 1:
            raise ValueError(f"V1 needs gcd(r, a_2) = 1, got gcd({self.r}, {a[2]})")


def s_star(b: int, ell: int, mu) -> Rational:
    """Boundary coefficient b((ell-1)/ell - mu).

    >>> s_star(1, 6, Rational(2, 3))
    Fraction(1, 6)
    """
    if b < 1 or ell < 1:
        raise ValueError("b and ell must be positive integers")
    mu = Rational(mu)
    if mu < 0:
        raise ValueError(f"mu must be non-negative, got {mu}")
    return b * (Rational(ell - 1, ell) - mu)


# The elliptic table: kind -> (ell*, mu*, s*).  The multiple-fibre column
# _mI_b is parametric in m and handled in elliptic_table; a smooth fibre
# counts as its b = 0 member.
_ELLIPTIC_COLUMNS = {
    "I*": (2, Rational(0), Rational(1, 2)),
    "II": (6, Rational(2, 3), Rational(1, 6)),
    "II*": (6, Rational(0), Rational(5, 6)),
    "III": (4, Rational(1, 2), Rational(1, 4)),
    "III*": (4, Rational(0), Rational(3, 4)),
    "IV": (3, Rational(1, 3), Rational(1, 3)),
    "IV*": (3, Rational(0), Rational(2, 3)),
}


def elliptic_table(kodaira: KodairaLabel, m: int = 1) -> FibreInvariants:
    """Invariants of an elliptic fibre of the given type and multiplicity.

    >>> inv = elliptic_table(KodairaLabel("II*"))
    >>> (inv.ell, inv.mu, inv.s)
    (6, Fraction(0, 1), Fraction(5, 6))
    """
    if m < 1:
        raise ValueError(f"multiplicity must be positive, got {m}")
    if kodaira.kind in ("I", "SMOOTH"):
        return FibreInvariants(ell=m, mu=Rational(0), b=1, s=Rational(m - 1, m))
    if m != 1:
        raise ValueError(f"only the I_b column takes a multiplicity, not {kodaira.kind}")
    try:
        ell, mu, s = _ELLIPTIC_COLUMNS[kodaira.kind]
    except KeyError:
        raise ValueError(f"{kodaira} has no elliptic table column") from None
    return FibreInvariants(ell=ell, mu=mu, b=1, s=s)


def mu_star(v: PrimitiveVector, ell: int) -> Rational:
    """The correction invariant of a primitive vector at twist index ell.

    (r - sum a_i) over ell*a_2 for shape V1, over ell*(a_0 + a_1) for V2.

    >>> mu_star(PrimitiveVector(V1, 8, (3, 1, 3)), 8)
    Fraction(1, 24)
    """
    if ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell}")
    denom = v.a[2] if v.kind == V1 else v.a[0] + v.a[1]
    if denom == 0:
        raise ValueError(f"vector {v.a} gives a zero denominator")
    return Rational(v.r - sum(v.a), ell * denom)


def abelian_invariants(v: PrimitiveVector, ell: int) -> tuple[Rational, Rational]:
    """mu* of a primitive vector at twist index ell, and s* at b = 1."""
    mu = mu_star(v, ell)
    return mu, s_star(1, ell, mu)


@dataclass(frozen=True)
class AbelianTableRow:
    """One tabulated row: the vector plus the closed forms as coefficients.

    mu* = mu_num / (den * ell), s* = (den*ell - s_offset) / (den*ell), and
    the divisibility condition divisor | ell.
    """

    number: int
    table: str
    vector: PrimitiveVector
    mu_num: int
    den: int
    s_offset: int
    divisor: int

    def mu_at(self, ell: int) -> Rational:
        return Rational(self.mu_num, self.den * ell)

    def s_at(self, ell: int) -> Rational:
        return Rational(self.den * ell - self.s_offset, self.den * ell)

    def c_star(self) -> Rational:
        """ell* x mu*, independent of ell."""
        return Rational(self.mu_num, self.den)


def _row(number, table, kind, r, a, mu_num, den, s_offset, divisor):
    return AbelianTableRow(number, table, PrimitiveVector(kind, r, a),
                           mu_num, den, s_offset, divisor)


ABELIAN_TABLE_ROWS = (
    _row(1, "VI", V1, 3, (1, 0, 1), 1, 1, 2, 3),
    _row(2, "VI", V1, 4, (1, 1, 1), 1, 1, 2, 4),
    _row(3, "VI", V1, 4, (0, 1, 1), 2, 1, 3, 4),
    _row(4, "VI", V1, 5, (1, 2, 1), 1, 1, 2, 5),
    _row(5, "VI", V1, 6, (3, 1, 1), 1, 1, 2, 6),
    _row(6, "VI", V1, 6, (2, 1, 1), 2, 1, 3, 6),
    _row(7, "VI", V1, 6, (1, 1, 1), 3, 1, 4, 6),
    _row(8, "VI", V1, 6, (1, 0, 1), 4, 1, 5, 6),
    _row(9, "VI", V1, 8, (5, 1, 1), 1, 1, 2, 8),
    _row(10, "VI", V1, 8, (3, 1, 1), 3, 1, 4, 8),
    _row(11, "VI", V1, 8, (3, 1, 3), 1, 3, 4, 8),
    _row(12, "VI", V1, 10, (7, 1, 1), 1, 1, 2, 10),
    _row(13, "VI", V1, 10, (3, 1, 1), 5, 1, 6, 10),
    _row(14, "VI", V1, 10, (3, 1, 3), 1, 1, 2, 10),
    _row(15, "VI", V1, 12, (7, 1, 1), 3, 1, 4, 12),
    _row(16, "VI", V1, 12, (4, 3, 1), 4, 1, 5, 12),
    _row(17, "VI", V1, 12, (5, 1, 1), 5, 1, 6, 12),
    _row(18, "VI", V1, 12, (3, 2, 1), 6, 1, 7, 12),
    _row(19, "VI", V1, 12, (5, 1, 5), 1, 5, 6, 12),
    _row(20, "VI", V1, 12, (3, 2, 5), 2, 5, 7, 12),
    _row(21, "VII", V2, 3, (1, 0, 1), 1, 1, 2, 3),
    _row(22, "VII", V2, 4, (1, 0, 1), 2, 1, 3, 4),
    _row(23, "VII", V2, 4, (1, 1, 1), 1, 2, 3, 2),
    _row(24, "VII", V2, 6, (1, 0, 1), 4, 1, 5, 6),
    _row(25, "VII", V2, 6, (1, 1, 1), 3, 2, 5, 3),
    _row(26, "VII", V2, 6, (1, 2, 1), 2, 3, 5, 2),
    _row(27, "VII", V2, 6, (1, 3, 1), 1, 4, 5, 3),
)

# All values of c* = ell* x mu* occurring over the abelian table.
C_STAR_VALUES = frozenset({
    Rational(1, 5), Rational(1, 4), Rational(1, 3), Rational(2, 5),
    Rational(1, 2), Rational(2, 3), Rational(1), Rational(3, 2),
    Rational(2), Rational(3), Rational(4), Rational(5), Rational(6),
})


@dataclass(frozen=True)
class RegeneratedRow:
    """A table row with mu* and s* recomputed at sample twist indices."""

    row: AbelianTableRow
    evaluations: tuple[tuple[int, Rational, Rational, Rational, Rational], ...]
    divisibility_ok: bool

    @property
    def matches(self) -> bool:
        return self.divisibility_ok and all(
            mu_calc == mu_tab and s_calc == s_tab
            for (_, mu_calc, mu_tab, s_calc, s_tab) in self.evaluations
        )


def regenerate_table_vi_vii() -> list[RegeneratedRow]:
    """Recompute every tabulated row at ell = r and ell = 2r.

    mu* and s* come from the primitive vector via abelian_invariants; both
    are paired with the tabulated closed forms so callers can cross-check
    them.
    """
    out = []
    for row in ABELIAN_TABLE_ROWS:
        samples = []
        ok = True
        for ell in (row.vector.r, 2 * row.vector.r):
            if ell % row.divisor != 0:
                ok = False
            mu_calc, s_calc = abelian_invariants(row.vector, ell)
            samples.append((ell, mu_calc, row.mu_at(ell), s_calc, row.s_at(ell)))
        out.append(RegeneratedRow(row, tuple(samples), ok))
    return out


def _totient(n: int) -> int:
    """Euler's function by trial-division factorization."""
    if n < 1:
        raise ValueError(f"totient needs a positive integer, got {n}")
    result = n
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if rest > 1:
        result -= result // rest
    return result


def n_of_x(x: int) -> int:
    """LCM of every n whose totient is at most x.

    The set is finite: phi(n) >= sqrt(n/2), so n <= 2x^2 suffices; the
    search runs a little past that and asserts the margin stays empty.

    >>> n_of_x(1)
    2
    >>> n_of_x(2)
    12
    """
    if x < 1:
        raise ValueError(f"x must be a positive integer, got {x}")
    hits = [n for n in range(1, 2 * x * x + 5) if _totient(n) <= x]
    assert max(hits) <= 2 * x * x, "totient bound violated"
    return lcm(*hits)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, isqrt(n) + 1):
        if n % p == 0:
            return False
    return True


def sp_order(g: int, q: int) -> int:
    """Order of the symplectic group Sp(2g, F_q).

    >>> sp_order(1, 3)
    24
    """
    if g < 1:
        raise ValueError(f"g must be a positive integer, got {g}")
    if not _is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    order = q ** (g * g)
    for i in range(1, g + 1):
        order *= q ** (2 * i) - 1
    return order


def fibre_bound(d: int, n_va: int) -> int:
    """Bound on the number of singular fibres: 16 d n_va |Sp(32, F_3)|.

    d is the polarization degree; n_va is the very-ampleness constant of
    the family, which is not computable from first principles here and
    must be supplied.
    """
    if d < 1 or n_va < 1:
        raise ValueError("d and n_va must be positive integers")
    return 16 * d * n_va * sp_order(16, 3)


def mori_feasible(s, b: int, big_n: int):
    """Smallest integral solution (u, v) of s = (bNu - v)/(Nu), if any.

    v must be a positive integer with v <= bN; u is searched up to
    b*N*denominator(s).  Returns the pair, or INFEASIBLE.

    >>> mori_feasible(Rational(1, 2), 1, 12)
    (1, 6)
    """
    s = Rational(s)
    if b < 1 or big_n < 1:
        raise ValueError("b and N must be positive integers")
    if not 0 <= s < b:
        raise ValueError(f"s must lie in [0, b), got {s}")
    for u in range(1, b * big_n * s.denominator + 1):
        v = big_n * u * (b - s)
        if v.denominator == 1 and 0 < v <= b * big_n:
            return (u, int(v))
    return INFEASIBLE


def validate_fibre_invariants(inv: FibreInvariants) -> bool:
    """Check the defining relation and the vanishing criterion for s.

    True iff s = b((ell-1)/ell - mu), s >= 0, and s vanishes exactly when
    ell = 1.

    >>> validate_fibre_invariants(FibreInvariants(2, Rational(1, 2), 1, Rational(0)))
    False
    """
    if inv.s != s_star(inv.b, inv.ell, inv.mu):
        return False
    if inv.s < 0:
        return False
    return (inv.s == 0) == (inv.ell == 1)
