"""Exact scalar arithmetic and the standard-boundary coefficient calculus.

Every coefficient in the toolkit is a ``fractions.Fraction`` (re-exported as
``Rational``); nothing here or downstream touches floating point.  The module
also houses the local "different" multiplicity m_p of a curve germ inside a
log surface with standard boundary, the coefficient rule for extracted
divisors, and two small enumerators shared by the fibration modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Rational

# Trichotomy labels for the different multiplicity at a point.
CASE1 = "CASE1"
CASE2 = "CASE2"
CASE3 = "CASE3"
NOT_LC = "NOT_LC"

# Distinguished boundary parameter: coefficient (b-1)/b with b unbounded.
INFINITY = "INFINITY"


def json_int(data: dict, key: str, default: int | None = None) -> int:
    """The integer at ``data[key]`` (``default`` when absent and given).

    A bool, a float or any other JSON value there raises TypeError rather
    than being truncated.
    """
    value = data[key] if default is None else data.get(key, default)
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class StandardCoeff:
    """A standard boundary coefficient (b-1)/b, b a positive integer or INFINITY."""

    b: int | str

    def __post_init__(self) -> None:
        if self.b == INFINITY:
            return
        if not isinstance(self.b, int) or self.b < 1:
            raise ValueError(f"b must be a positive integer or INFINITY, got {self.b!r}")

    def value(self) -> Rational:
        """The coefficient itself: (b-1)/b, with the INFINITY tag mapping to 1.

        >>> StandardCoeff(1).value()
        Fraction(0, 1)
        >>> StandardCoeff(4).value()
        Fraction(3, 4)
        >>> StandardCoeff(INFINITY).value()
        Fraction(1, 1)
        """
        if self.b == INFINITY:
            return Rational(1)
        return Rational(self.b - 1, self.b)


@dataclass(frozen=True)
class GermBoundaryData:
    """Local data of a curve germ through a cyclic quotient point of order n.

    ``k`` maps each boundary parameter b >= 2 to the number k_b of boundary
    branches with coefficient (b-1)/b meeting the germ there.  Zero counts
    may be omitted.  Sums k_b > 2 are representable; they classify NOT_LC.
    """

    n: int
    k: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"cyclic order n must be >= 1, got {self.n}")
        for b, count in self.k.items():
            if b < 2:
                raise ValueError(f"boundary parameter b must be >= 2, got {b}")
            if count < 0:
                raise ValueError(f"branch count k_{b} must be >= 0, got {count}")

    def nonzero(self) -> dict[int, int]:
        return {b: c for b, c in self.k.items() if c > 0}


def m_p(data: GermBoundaryData) -> tuple[Rational, str]:
    """Different multiplicity of the germ and its case in the trichotomy.

    The value is (n-1)/n + sum_b ((b-1)/b) * (k_b/n).  The case label:
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
    counts = data.nonzero()
    value = Rational(n - 1, n)
    for b, k_b in counts.items():
        value += Rational(b - 1, b) * Rational(k_b, n)

    if not counts:
        label = CASE1
    elif sum(counts.values()) == 1:
        label = CASE2
    elif counts == {2: 2}:
        label = CASE3
    else:
        label = NOT_LC
    if value > 1:
        label = NOT_LC
    return value, label


def s_extraction_coeff(
    data: GermBoundaryData, strict_local_intersection: Rational
) -> Rational:
    """Boundary coefficient of the divisor extracted over the germ's point.

    In CASE1 and CASE2 the extracted coefficient is m_p itself.  In CASE3
    it is 1 minus the local intersection number with the strict boundary,
    which must land in {0, 1/2, 1}.  NOT_LC germs admit no extraction.
    """
    value, label = m_p(data)
    if label in (CASE1, CASE2):
        return value
    if label == CASE3:
        result = 1 - Rational(strict_local_intersection)
        if result not in (Rational(0), Rational(1, 2), Rational(1)):
            raise ValueError(
                f"inconsistent germ: extracted coefficient {result} not in {{0, 1/2, 1}}"
            )
        return result
    raise ValueError("germ is not log canonical; no extraction coefficient")


def enumerate_boundary_multisets(
    allowed: set[Rational] | frozenset[Rational],
    target: Rational,
    max_len: int,
) -> list[tuple[Rational, ...]]:
    """All multisets from ``allowed`` of size <= max_len summing exactly to target.

    Each multiset is a tuple sorted in descending order; the returned list is
    sorted lexicographically by those tuples, which makes the output stable
    for golden tests.

    >>> halves = enumerate_boundary_multisets({Rational(1, 2)}, Rational(1), 4)
    >>> halves
    [(Fraction(1, 2), Fraction(1, 2))]
    """
    values = sorted(allowed, reverse=True)
    if any(v <= 0 for v in values):
        raise ValueError("allowed values must be positive")
    target = Rational(target)
    found: list[tuple[Rational, ...]] = []

    def extend(prefix: list[Rational], start: int, remaining: Rational) -> None:
        if remaining == 0:
            found.append(tuple(prefix))
            return
        if len(prefix) == max_len:
            return
        for i in range(start, len(values)):
            v = values[i]
            if v > remaining:
                continue
            prefix.append(v)
            extend(prefix, i, remaining - v)
            prefix.pop()

    extend([], 0, target)
    found.sort()
    return found


def index_lcm(coeffs: list[Rational]) -> int:
    """Least common multiple of the reduced denominators.

    >>> index_lcm([Rational(1, 2), Rational(2, 3), Rational(5, 6)])
    6
    >>> index_lcm([])
    1
    """
    return math.lcm(*(Rational(c).denominator for c in coeffs)) if coeffs else 1


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


