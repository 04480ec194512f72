"""Euler characteristic formulas and correction sums."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdgen.core import MAX_ANSWER_DIGITS, Record
from logdgen.dualgraph import configuration_euler, duval_graph
from logdgen.duval import DuValType, delpezzo_catalog, duval_order, recompute_e_orb
from logdgen.eulerform import (
    FibreComponentData,
    euler_degenerate_fibre,
    noether_e_top,
    orbifold_euler,
    rr_correction_sum,
)

Rational = F

# The structure-sheaf Euler characteristic, the type-3 numerology and the
# rank-one square: formulas of the paper that no command, table or other
# module computes, kept here as oracles.  The type-3 offsets are checked
# against Noether's equality below.


class ChiInput(Record):
    """Aggregated intersection data of a divisor D = sum m_i D_i.

    ``components`` holds per-component tuples (m_i, chi_i, D_i^3, D_i^2.K);
    the two totals are D^3 and D^2.K of the full divisor.  ``corrections``
    pairs each multiplicity with the list of local correction values c_p
    summed over the points of that component.
    """

    def __init__(self, components: tuple[tuple[int, Rational, Rational, Rational], ...],
                 total_D_cubed: Rational = Rational(0), total_D_sq_K: Rational = Rational(0),
                 corrections: tuple[tuple[int, tuple[Rational, ...]], ...] = ()) -> None:
        comps = tuple(
            (m, Rational(chi), Rational(d3), Rational(d2k)) for (m, chi, d3, d2k) in components
        )
        if not comps:
            raise ValueError("a divisor needs at least one component")
        corr = tuple((m, tuple(Rational(c) for c in cs)) for (m, cs) in corrections)
        if any(type(m) is not int or m < 1 for (m, *_) in comps + corr):
            raise ValueError("multiplicities must be positive")
        total_D_cubed, total_D_sq_K = Rational(total_D_cubed), Rational(total_D_sq_K)
        self.__dict__.update(components=comps, total_D_cubed=total_D_cubed,
                             total_D_sq_K=total_D_sq_K, corrections=corr)


def chi_structure_sheaf(data: ChiInput) -> Rational:
    """Structure-sheaf Euler characteristic of a normal-crossing divisor.

    chi(O_D) = sum m_i chi_i + (D^3 - sum m_i D_i^3)/6
             + (D^2.K - sum m_i D_i^2.K)/4
             - (1/12) sum_i m_i sum_p c_p,
    the last sum running over the correction terms at non-Gorenstein points;
    an input without corrections gets the plain formula.
    """
    total = sum((m * chi for (m, chi, _, _) in data.components), Rational(0))
    cubed = sum((m * d3 for (m, _, d3, _) in data.components), Rational(0))
    sq_k = sum((m * d2k for (m, _, _, d2k) in data.components), Rational(0))
    total += (data.total_D_cubed - cubed) / 6
    total += (data.total_D_sq_K - sq_k) / 4
    total -= sum((m * sum(cs, Rational(0)) for (m, cs) in data.corrections), Rational(0)) / 12
    return total


# The four Gorenstein singularity patterns occurring on the rank-one surfaces
# of the conic-bundle boundary analysis, with the constant that Noether's
# equality produces for each.
TYPE3_OFFSETS = {
    "4A_1": 8,
    "3A_2": 6,
    "A_1+2A_3": 5,
    "A_1+A_2+A_5": 4,
}


def type3_numerology(sing: str, rho: int, s: int) -> int:
    """Degree d = -2 rho - s + offset for the four singularity patterns.

    >>> type3_numerology("3A_2", 1, 1)
    3
    """
    if sing not in TYPE3_OFFSETS:
        raise ValueError(f"unknown singularity pattern {sing!r}")
    if rho < 1:
        raise ValueError(f"Picard rank must be positive, got {rho}")
    if s not in (0, 1, 2):
        raise ValueError(f"section count s must be 0, 1 or 2, got {s}")
    return -2 * rho - s + TYPE3_OFFSETS[sing]


def rank_one_square(d: int, gamma_dot_d) -> Rational:
    """Self-intersection pinned by a rank-one Picard group: (2/d)(G.D)^2.

    >>> rank_one_square(2, 2)
    Fraction(4, 1)
    """
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    return Rational(2, d) * Rational(gamma_dot_d) ** 2


def exceptional_euler(t: DuValType) -> int:
    """e_p of the index-1 point of type t: the Euler number of its tree of
    curve_count spheres, read off the resolution graph."""
    return configuration_euler(duval_graph(t))


def rr_correction_cyclic(r: int, a: int, l: int) -> F:
    """Correction term -a_l(r - a_l)/2r of the l-th twist at a cyclic quotient
    point of type (r; a), with a_l the residue of a*l mod r: the per-term
    oracle of ``rr_correction_sum``."""
    residue = (a * l) % r
    return F(-residue * (r - residue), 2 * r)


class TestOrbifoldEuler:
    def test_spec_examples(self):
        assert orbifold_euler(3, [2]) == F(5, 2)
        assert orbifold_euler(0, []) == 0
        assert orbifold_euler(3, [3, 3, 3]) == 1

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            orbifold_euler(3, [0])

    def test_order_one_points_are_invisible(self):
        assert orbifold_euler(7, [1, 1, 1]) == 7


class TestRRCorrection:
    def test_spec_examples(self):
        assert rr_correction_cyclic(5, 2, 1) == F(-3, 5)
        assert rr_correction_cyclic(2, 1, 1) == F(-1, 4)
        assert rr_correction_cyclic(3, 1, 3) == 0

    def test_coprimality_enforced(self):
        for a in (2, 3):
            with pytest.raises(ValueError, match=f"^twist {a} is not coprime to the index 6$"):
                rr_correction_sum(6, a, 6)

    def test_sum_spec_examples(self):
        assert rr_correction_sum(5, 2, 5) == -2
        assert rr_correction_sum(2, 1, 2) == F(-1, 4)
        assert rr_correction_sum(1, 1, 3) == 0

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            rr_correction_sum(3, 1, 4)

    @pytest.mark.parametrize("r,m", [(0, 5), (-1, 1), (-5, 5)])
    def test_sum_refuses_a_non_positive_index(self, r, m):
        with pytest.raises(ValueError, match=f"^index must be positive, got {r}$"):
            rr_correction_sum(r, 1, m)

    @given(st.integers(1, 30), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_closed_form(self, r, mult, data):
        units = [a for a in range(1, r + 1) if gcd(a, r) == 1]
        a = data.draw(st.sampled_from(units))
        m = mult * r
        total = rr_correction_sum(r, a, m)
        assert total == F(-m * (r * r - 1), 12 * r)
        assert total == sum((rr_correction_cyclic(r, a, l) for l in range(1, m)), F(0))
        assert type(total) is F

    @given(st.integers(2, 25), st.data())
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, r, data):
        units = [a for a in range(1, r) if gcd(a, r) == 1]
        a = data.draw(st.sampled_from(units))
        l = data.draw(st.integers(0, 3 * r))
        assert rr_correction_cyclic(r, a, l) == rr_correction_cyclic(r, a + r, l)

    @given(st.integers(2, 25), st.data())
    @settings(max_examples=40, deadline=None)
    def test_twist_multiset_independent_of_a(self, r, data):
        units = [a for a in range(1, r) if gcd(a, r) == 1]
        a = data.draw(st.sampled_from(units))
        base = sorted(rr_correction_cyclic(r, 1, l) for l in range(1, r))
        this = sorted(rr_correction_cyclic(r, a, l) for l in range(1, r))
        assert this == base


class TestChiStructureSheaf:
    def test_smooth_fibre(self):
        data = ChiInput(components=[(1, F(2), F(0), F(0))])
        assert chi_structure_sheaf(data) == 2

    def test_balanced_intersection_terms_vanish(self):
        # Totals equal to the weighted sums leave only sum m_i chi_i.
        data = ChiInput(
            components=[(2, F(1), F(3), F(-1)), (1, F(-1, 2), F(0), F(2))],
            total_D_cubed=F(6),
            total_D_sq_K=F(0),
        )
        assert chi_structure_sheaf(data) == 2 * 1 + F(-1, 2)

    def test_correction_shift(self):
        base = ChiInput(components=[(1, F(1), F(0), F(0))])
        with_corr = ChiInput(
            components=[(1, F(1), F(0), F(0))],
            corrections=[(2, [F(-3, 4)])],
        )
        assert chi_structure_sheaf(with_corr) == chi_structure_sheaf(base) + F(1, 8)

    def test_plain_equals_generalized_without_corrections(self):
        data = ChiInput(
            components=[(3, F(1, 3), F(2), F(-5))],
            total_D_cubed=F(7),
            total_D_sq_K=F(1, 2),
        )
        # the plain formula, sum m_i chi_i + (D^3 - sum m_i D_i^3)/6 + (D^2.K - sum m_i D_i^2.K)/4
        plain = 3 * F(1, 3) + (F(7) - 3 * 2) / 6 + (F(1, 2) - 3 * -5) / 4
        assert chi_structure_sheaf(data) == plain == F(121, 24)

    def test_empty_divisor_rejected(self):
        with pytest.raises(ValueError):
            ChiInput(components=[])


class TestEulerDegenerateFibre:
    def test_spec_examples(self):
        assert euler_degenerate_fibre([FibreComponentData(1, F(0))]) == 0
        comps = [FibreComponentData(2, F(3), [F(1, 2)]), FibreComponentData(1, F(0))]
        assert euler_degenerate_fibre(comps) == 7

    def test_zero_exactly_when_all_contributions_vanish(self):
        flat = [FibreComponentData(m, F(0), [F(0)] * 2) for m in (1, 2, 3)]
        assert euler_degenerate_fibre(flat) == 0
        bumped = flat + [FibreComponentData(1, F(0), [F(1, 7)])]
        assert euler_degenerate_fibre(bumped) > 0

    def test_linearity_in_components(self):
        a = FibreComponentData(2, F(5, 2), [F(1, 3)])
        b = FibreComponentData(3, F(-1), [F(2)])
        total = euler_degenerate_fibre([a, b])
        assert total == euler_degenerate_fibre([a]) + euler_degenerate_fibre([b])

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            FibreComponentData(1, F(0), [F(-1, 2)])

    @given(st.lists(st.tuples(st.integers(1, 6), st.fractions(max_denominator=60),
                              st.lists(st.fractions(0, 5, max_denominator=60), max_size=3)),
                    max_size=6))
    def test_integer_sum_agrees_with_the_fraction_sum(self, drawn):
        comps = [FibreComponentData(m, e, deltas) for m, e, deltas in drawn]
        oracle = sum((c.m * (c.e_orb + sum(c.deltas, F(0))) for c in comps), F(0))
        assert euler_degenerate_fibre(comps) == oracle

    @pytest.mark.parametrize("term", [F(10**MAX_ANSWER_DIGITS), F(1, 10**MAX_ANSWER_DIGITS)])
    def test_a_sum_past_the_printable_digits_is_refused(self, term):
        below = term - 1 if term > 1 else F(1, 10**MAX_ANSWER_DIGITS - 1)
        assert euler_degenerate_fibre([FibreComponentData(1, below)]) == below
        with pytest.raises(ValueError, match=f"^the Euler number could have more than "
                                             f"{MAX_ANSWER_DIGITS} digits$"):
            euler_degenerate_fibre([FibreComponentData(1, term)])


class TestNoether:
    def test_spec_examples(self):
        assert noether_e_top(2, 0, []) == 24
        assert noether_e_top(0, 0, []) == 0
        assert noether_e_top(1, 8, [2]) == 3

    def test_table_rows_reproduce_catalog_euler_part(self):
        # For every catalog surface: 12 - d - (number of exceptional
        # curves) computed through Noether's equality with chi = 1, and less
        # the quotient-point defects the orbifold Euler number of table IV.
        for entry in delpezzo_catalog():
            e_ps = [exceptional_euler(t) for t in entry.singularities]
            assert e_ps == [t.curve_count + 1 for t in entry.singularities]
            expected = 12 - entry.degree - sum(t.curve_count for t in entry.singularities)
            e_top = noether_e_top(1, entry.degree, e_ps)
            assert e_top == expected, entry
            orders = [duval_order(t) for t in entry.singularities]
            assert orbifold_euler(e_top, orders) == recompute_e_orb(entry.degree,
                                                                    entry.singularities), entry


class TestType3Numerology:
    def test_spec_examples(self):
        assert type3_numerology("3A_2", 1, 1) == 3
        assert type3_numerology("4A_1", 1, 2) == 4
        assert type3_numerology("A_1+2A_3", 2, 0) == 1

    def test_remaining_pattern(self):
        assert type3_numerology("A_1+A_2+A_5", 1, 1) == 1

    def test_offsets_are_twelve_minus_the_total_duval_index(self):
        totals = {}
        for pattern, offset in TYPE3_OFFSETS.items():
            types = []
            for part in pattern.split("+"):  # "2A_3" is two A_3 points
                count, name = (int(part[0]), part[1:]) if part[0].isdigit() else (1, part)
                types += [DuValType.parse(name)] * count
            totals[pattern] = sum(t.curve_count for t in types)
            assert offset == 12 - totals[pattern]
            assert offset == noether_e_top(1, 0, [exceptional_euler(t) for t in types])
        assert totals == {"4A_1": 4, "3A_2": 6, "A_1+2A_3": 7, "A_1+A_2+A_5": 8}

    def test_validation(self):
        with pytest.raises(ValueError):
            type3_numerology("2A_2", 1, 1)
        with pytest.raises(ValueError):
            type3_numerology("3A_2", 0, 1)
        with pytest.raises(ValueError):
            type3_numerology("3A_2", 1, 3)


class TestRankOneSquare:
    def test_spec_examples(self):
        assert rank_one_square(2, 2) == 4
        assert rank_one_square(4, 2) == 2
        assert rank_one_square(9, 0) == 0

    def test_rational_inputs(self):
        assert rank_one_square(3, F(3, 2)) == F(3, 2)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            rank_one_square(0, 1)
