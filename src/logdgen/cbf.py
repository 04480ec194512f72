"""Canonical bundle formula invariants over one-dimensional bases.

For a fibre over a point of the base, three invariants drive the formula:
the smallest twist ell* making the relevant direct image behave, the
discrepancy-like correction mu*, and the induced boundary coefficient
s* = b((ell*-1)/ell* - mu*).  This module carries the well-known elliptic
table of these invariants, the twenty-seven abelian-fibre rows produced by
primitive vectors on quotient germs, Mori's integrality constraint on s*,
the totient-LCM function bounding local indices, symplectic group orders,
and the resulting global bound on the number of singular fibres.  A refusal
echoes its arguments in full; the CLI shortens what it prints.
"""

from fractions import Fraction as Rational
from math import gcd, lcm, isqrt

from .core import KodairaLabel, Record, bounded, classical_euler

V1 = "V1"
V2 = "V2"
INFEASIBLE = "INFEASIBLE"


class FibreInvariants(Record):
    """The invariant triple of one fibre, plus the plurigenus index b.

    Consistency of the four fields is NOT enforced here; that is what
    validate_fibre_invariants is for (so that inconsistent candidates can
    be represented and rejected).
    """

    def __init__(self, ell: int, mu: Rational, b: int, s: Rational) -> None:
        if type(ell) is not int or ell < 1:
            raise ValueError(f"ell must be a positive integer, got {ell}")
        if type(b) is not int or b < 1:
            raise ValueError(f"b must be a positive integer, got {b}")
        mu, s = Rational(mu), Rational(s)
        if mu < 0:
            raise ValueError(f"mu must be non-negative, got {mu}")
        self.__dict__.update(ell=ell, mu=mu, b=b, s=s)


class PrimitiveVector(Record):
    """A primitive vector (r; a_0, a_1, a_2) of one of the two shapes.

    Shape V1 requires gcd(r, a_2) = 1; both shapes require 0 <= a_i < r
    and a_0 + a_1 + a_2 < r.
    """

    def __init__(self, kind: str, r: int, a: tuple[int, int, int]) -> None:
        if kind not in (V1, V2):
            raise ValueError(f"kind must be V1 or V2, got {kind!r}")
        if type(r) is not int or r < 1:
            raise ValueError(f"index r must be positive, got {r}")
        a = tuple(a)
        if len(a) != 3 or any(type(x) is not int for x in a):
            raise ValueError(f"a must be a triple of integers, got {a}")
        if any(not 0 <= x < r for x in a):
            raise ValueError(f"entries of {a} must lie in [0, {r})")
        if sum(a) >= r:
            raise ValueError(f"sum of {a} must be smaller than r = {r}")
        if kind == V1 and gcd(r, a[2]) != 1:
            raise ValueError(f"V1 needs gcd(r, a_2) = 1, got gcd({r}, {a[2]})")
        self.__dict__.update(kind=kind, r=r, a=a)


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


def _elliptic_column(label: KodairaLabel) -> tuple[int, Rational, Rational]:
    """(ell*, mu*, s*) of a Kodaira column from Kodaira's s* = e(F)/12.

    ell* is the denominator of s* and mu* = (ell*-1)/ell* - s*, so that
    s* = b((ell*-1)/ell* - mu*) holds at b = 1.
    """
    s = Rational(classical_euler(label), 12)
    return s.denominator, Rational(s.denominator - 1, s.denominator) - s, s


# Table V, the elliptic table: kind -> (ell*, mu*, s*), derived from the
# Euler number of the b = 0 member (I*_b has s* = 1/2 for every b).  The
# multiple-fibre column _mI_b is parametric in m and handled in
# elliptic_table; a smooth fibre counts as its b = 0 member.
ELLIPTIC_COLUMNS = {
    kind: _elliptic_column(KodairaLabel(kind, 0) if kind == "I*" else KodairaLabel(kind))
    for kind in ("I*", "II", "II*", "III", "III*", "IV", "IV*")
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
    ell, mu, s = ELLIPTIC_COLUMNS[kodaira.kind]
    return FibreInvariants(ell=ell, mu=mu, b=1, s=s)


def elliptic_table_rows() -> list[tuple[str, int, KodairaLabel, FibreInvariants]]:
    """Table V as printed: (column, m, fibre type, invariants) per row.

    The _mI_b column at m = 1, 2, 3, 5 (fibre type I_1), then one row per
    Kodaira column in ELLIPTIC_COLUMNS order, I*_b taken at b = 0.
    """
    rows = [("_mI_b", m, KodairaLabel("I", 1)) for m in (1, 2, 3, 5)]
    rows += [
        ("I*_b", 1, KodairaLabel(kind, 0)) if kind == "I*" else (kind, 1, KodairaLabel(kind))
        for kind in ELLIPTIC_COLUMNS
    ]
    return [(column, m, label, elliptic_table(label, m)) for column, m, label in rows]


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
    """mu* of a primitive vector at twist index ell, and s* at b = 1; either
    one past MAX_ANSWER_DIGITS digits raises ValueError."""
    mu = bounded(mu_star(v, ell), "mu*")
    return mu, bounded(s_star(1, ell, mu), "s*")


class AbelianTableRow(Record):
    """One tabulated row: the vector plus the closed forms as coefficients.

    mu* = mu_num / (den * ell), s* = (den*ell - s_offset) / (den*ell), and
    the divisibility condition divisor | ell.
    """

    def __init__(self, number: int, table: str, vector: PrimitiveVector, mu_num: int, den: int,
                 s_offset: int, divisor: int) -> None:
        self.__dict__.update(number=number, table=table, vector=vector, mu_num=mu_num, den=den,
                             s_offset=s_offset, divisor=divisor)

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


class RegeneratedRow(Record):
    """A table row with mu* and s* recomputed at sample twist indices."""

    def __init__(self, row: AbelianTableRow,
                 evaluations: tuple[tuple[int, Rational, Rational, Rational, Rational], ...],
                 divisibility_ok: bool) -> None:
        self.__dict__.update(row=row, evaluations=evaluations, divisibility_ok=divisibility_ok)


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
    """Euler's function of a positive integer, by trial-division factorization."""
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


# Largest x n_of_x accepts: its trial-division scan of 2x^2 integers grows as x^3.
MAX_TOTIENT_X = 200


def n_of_x(x: int) -> int:
    """LCM of every n whose totient is at most x.

    The set is finite: phi(n) >= sqrt(n/2), so every such n is at most
    2x^2, and the scan stops there.  An x above MAX_TOTIENT_X raises
    ValueError before the scan.

    >>> n_of_x(1)
    2
    >>> n_of_x(2)
    12
    """
    if x < 1:
        raise ValueError(f"x must be a positive integer, got {x}")
    if x > MAX_TOTIENT_X:
        raise ValueError(f"x = {x} exceeds {MAX_TOTIENT_X}")
    return lcm(*(n for n in range(1, 2 * x * x + 1) if _totient(n) <= x))


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
    must be supplied.  A bound with more than MAX_ANSWER_DIGITS digits
    raises ValueError.
    """
    if d < 1 or n_va < 1:
        raise ValueError("d and n_va must be positive integers")
    return bounded(16 * d * n_va * sp_order(16, 3), "the bound")


def mori_feasible(s, b: int, big_n: int):
    """Smallest integral solution (u, v) of s = (bNu - v)/(Nu), if any.

    v = Nu(b - s) must be a positive integer with v <= bN.  For s = p/q in
    lowest terms, v is integral exactly when u is a multiple of
    q / gcd(q, N(bq - p)), and v grows with u, so that smallest multiple
    is the only candidate.  Returns the pair, or INFEASIBLE; u or v with
    more than MAX_ANSWER_DIGITS digits raises ValueError.

    >>> mori_feasible(Rational(1, 2), 1, 12)
    (1, 6)
    """
    s = Rational(s)
    if b < 1 or big_n < 1:
        raise ValueError("b and N must be positive integers")
    if not 0 <= s < b:
        raise ValueError(f"s must lie in [0, b), got {s}")
    p, q = s.numerator, s.denominator
    g = gcd(q, big_n * (b * q - p))
    u, v = q // g, big_n * (b * q - p) // g
    return (bounded(u, "u"), bounded(v, "v")) if v <= b * big_n else INFEASIBLE


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
