"""Euler characteristics of degenerate fibres and the correction calculus.

The pieces assembled here: the sum of the cyclic-quotient Riemann-Roch
correction terms, the Euler number of a degenerate fibre, and the
top Euler number via Noether's equality.  The orbifold Euler number
e_orb = e - sum(1 - 1/o), ``orbifold_euler``, is one formula for the whole
package: it lives in ``core`` beside ``quotient_defect`` and is imported here
under the same name.

Everything works on per-component numerical aggregates; no threefold model
is constructed.
"""

from fractions import Fraction as Rational
from math import gcd, lcm

from .core import ANSWER_CEILING, MAX_ANSWER_DIGITS, Record, orbifold_euler


class FibreComponentData(Record):
    """Numerical data of one fibre component: multiplicity, orbifold Euler
    number of the open part, and the local excesses at its special points."""

    def __init__(self, m: int, e_orb: Rational, deltas: tuple[Rational, ...] = ()) -> None:
        if type(m) is not int or m < 1:
            raise ValueError(f"multiplicity must be positive, got {m}")
        e_orb = Rational(e_orb)
        deltas = tuple(Rational(d) for d in deltas)
        if any(d < 0 for d in deltas):
            raise ValueError("local excesses must be non-negative")
        self.__dict__.update(m=m, e_orb=e_orb, deltas=deltas)


def rr_correction_sum(r: int, a: int, m: int) -> Rational:
    """Sum over l = 1..m-1 of the correction term -a_l(r - a_l)/2r of the l-th
    twist at a cyclic quotient point of type (r; a), with a_l the residue of
    a*l mod r, in closed form: -m(r^2-1)/(12r).

    The type (r; a) must have r >= 1 and a prime to r, and r must divide m.
    Then l = 0..m-1 (the term at l = 0 is 0) runs through m/r full periods,
    in each of which a_l takes every residue 0..r-1 once, and
    sum_{k<r} k(r - k) = r(r^2-1)/6.  The tests keep the literal per-term
    sum as the oracle.

    >>> rr_correction_sum(5, 2, 5)
    Fraction(-2, 1)
    """
    if m < 1:
        raise ValueError(f"multiplicity must be positive, got {m}")
    if r and m % r != 0:  # r = 0 is refused as an index below
        raise ValueError(f"index {r} must divide the multiplicity {m}")
    if r < 1:
        raise ValueError(f"index must be positive, got {r}")
    if gcd(a, r) != 1:
        raise ValueError(f"twist {a} is not coprime to the index {r}")
    return Rational(-m * (r * r - 1), 12 * r)


def euler_degenerate_fibre(components) -> Rational:
    """Top Euler number of a degenerate fibre: sum m_i (e_orb_i + sum deltas).

    The terms are added as integers over the running lcm of their
    denominators.  Once that lcm or the numerator over it reaches
    10^MAX_ANSWER_DIGITS the sum raises ValueError, so every answer can be
    printed; a sum whose terms cancel may be refused too.

    >>> euler_degenerate_fibre([FibreComponentData(2, 3, [Rational(1, 2)])])
    Fraction(7, 1)
    """
    num, den = 0, 1
    for c in components:
        for term in (c.e_orb, *c.deltas):
            common = lcm(den, term.denominator)
            num = num * (common // den) + c.m * term.numerator * (common // term.denominator)
            den = common
            if den >= ANSWER_CEILING or abs(num) >= ANSWER_CEILING:
                raise ValueError(
                    f"the Euler number could have more than {MAX_ANSWER_DIGITS} digits")
    return Rational(num, den)


def noether_e_top(chi, k_sq, e_p_list) -> Rational:
    """Top Euler number from Noether's equality: 12 chi - K^2 - sum(e_p - 1).

    >>> noether_e_top(1, 8, [2])
    Fraction(3, 1)
    """
    return (
        12 * Rational(chi)
        - Rational(k_sq)
        - sum((Rational(e - 1) for e in e_p_list), Rational(0))
    )
