"""Core coefficient calculus: different multiplicities, enumerators, lcm."""

from __future__ import annotations

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdgen.core import (
    CASE1,
    CASE2,
    CASE3,
    INFINITY,
    NOT_LC,
    GermBoundaryData,
    KodairaLabel,
    StandardCoeff,
    enumerate_boundary_multisets,
    hurwitz_double_cover_euler,
    index_lcm,
    m_p,
    s_extraction_coeff,
)


class TestStandardCoeff:
    def test_values(self):
        assert StandardCoeff(1).value() == 0
        assert StandardCoeff(2).value() == F(1, 2)
        assert StandardCoeff(6).value() == F(5, 6)
        assert StandardCoeff(INFINITY).value() == 1

    def test_rejects_bad_b(self):
        with pytest.raises(ValueError):
            StandardCoeff(0)
        with pytest.raises(ValueError):
            StandardCoeff(-3)


class TestMp:
    def test_smooth_point_zero_different(self):
        assert m_p(GermBoundaryData(1)) == (F(0), CASE1)

    def test_single_half_branch(self):
        assert m_p(GermBoundaryData(1, {2: 1})) == (F(1, 2), CASE2)

    def test_two_half_branches(self):
        assert m_p(GermBoundaryData(2, {2: 2})) == (F(1), CASE3)

    def test_case1_general(self):
        value, label = m_p(GermBoundaryData(5))
        assert (value, label) == (F(4, 5), CASE1)

    def test_case2_general(self):
        # (bn-1)/bn with b=3, n=2
        value, label = m_p(GermBoundaryData(2, {3: 1}))
        assert (value, label) == (F(5, 6), CASE2)

    def test_case3_any_n(self):
        for n in range(1, 8):
            value, label = m_p(GermBoundaryData(n, {2: 2}))
            assert (value, label) == (F(1), CASE3)

    @pytest.mark.parametrize(
        "k",
        [{2: 1, 3: 1}, {3: 2}, {2: 3}, {2: 2, 3: 1}, {6: 2}],
    )
    def test_not_lc_patterns(self, k):
        value, label = m_p(GermBoundaryData(1, k))
        assert label == NOT_LC
        assert value > 1

    def test_zero_counts_ignored(self):
        assert m_p(GermBoundaryData(3, {2: 0, 5: 0})) == (F(2, 3), CASE1)

    @given(
        n=st.integers(1, 30),
        b=st.integers(2, 12),
        bigger_n=st.integers(1, 10),
    )
    def test_monotone_in_n_and_k(self, n, b, bigger_n):
        base, _ = m_p(GermBoundaryData(n, {b: 1}))
        more_branches, _ = m_p(GermBoundaryData(n, {b: 2}))
        larger_n, _ = m_p(GermBoundaryData(n + bigger_n, {b: 1}))
        assert more_branches >= base
        assert larger_n >= base

    @given(
        n=st.integers(1, 20),
        ks=st.lists(st.integers(2, 9), max_size=2),
    )
    def test_value_set_matches_trichotomy(self, n, ks):
        k: dict[int, int] = {}
        for b in ks:
            k[b] = k.get(b, 0) + 1
        value, label = m_p(GermBoundaryData(n, k))
        if label == CASE1:
            assert value == F(n - 1, n)
        elif label == CASE2:
            (b,) = [b for b, c in k.items() if c]
            assert value == F(b * n - 1, b * n)
        elif label == CASE3:
            assert value == 1
        else:
            assert value > 1


class TestSExtractionCoeff:
    def test_case2_passthrough(self):
        assert s_extraction_coeff(GermBoundaryData(1, {3: 1}), F(0)) == F(2, 3)

    def test_case1_passthrough(self):
        assert s_extraction_coeff(GermBoundaryData(4), F(99)) == F(3, 4)

    def test_case3_half(self):
        assert s_extraction_coeff(GermBoundaryData(1, {2: 2}), F(1, 2)) == F(1, 2)

    def test_case3_full_intersection(self):
        assert s_extraction_coeff(GermBoundaryData(1, {2: 2}), F(1)) == F(0)

    def test_case3_disjoint(self):
        assert s_extraction_coeff(GermBoundaryData(2, {2: 2}), F(0)) == F(1)

    def test_case3_inconsistent(self):
        with pytest.raises(ValueError):
            s_extraction_coeff(GermBoundaryData(1, {2: 2}), F(1, 4))

    def test_not_lc_rejected(self):
        with pytest.raises(ValueError):
            s_extraction_coeff(GermBoundaryData(1, {3: 2}), F(0))


def _brute_force_multisets(allowed, target, max_len):
    """Independent route: try every combination up to max_len."""
    out = set()
    for length in range(max_len + 1):
        for combo in itertools.combinations_with_replacement(sorted(allowed), length):
            if sum(combo, F(0)) == target:
                out.add(tuple(sorted(combo, reverse=True)))
    return out


class TestEnumerateBoundaryMultisets:
    def test_fractional_fibre_patterns(self):
        # The four standard-coefficient patterns filling a degree-2 budget.
        got = enumerate_boundary_multisets(
            {F(1, 2), F(2, 3), F(3, 4), F(5, 6)}, F(2), 4
        )
        assert got == [
            (F(1, 2), F(1, 2), F(1, 2), F(1, 2)),
            (F(2, 3), F(2, 3), F(2, 3)),
            (F(3, 4), F(3, 4), F(1, 2)),
            (F(5, 6), F(2, 3), F(1, 2)),
        ]

    def test_halves(self):
        assert enumerate_boundary_multisets({F(1, 2)}, F(1), 4) == [(F(1, 2), F(1, 2))]

    def test_no_solution(self):
        assert enumerate_boundary_multisets({F(2, 3)}, F(1), 4) == []

    def test_descending_within_multiset(self):
        for ms in enumerate_boundary_multisets({F(1, 2), F(1, 3), F(1, 6)}, F(1), 6):
            assert list(ms) == sorted(ms, reverse=True)

    @given(
        allowed=st.sets(
            st.fractions(min_value=F(1, 6), max_value=1, max_denominator=6),
            min_size=1,
            max_size=4,
        ),
        target_num=st.integers(1, 4),
        max_len=st.integers(0, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_brute_force(self, allowed, target_num, max_len):
        target = F(target_num, 2)
        got = enumerate_boundary_multisets(allowed, target, max_len)
        assert set(got) == _brute_force_multisets(allowed, target, max_len)
        assert len(got) == len(set(got))


class TestIndexLcm:
    def test_examples(self):
        assert index_lcm([F(1, 2), F(3, 4), F(3, 4)]) == 4
        assert index_lcm([F(1, 2), F(2, 3), F(5, 6)]) == 6
        assert index_lcm([]) == 1

    @given(bs=st.lists(st.sampled_from([1, 2, 3, 4, 6]), max_size=6))
    def test_standard_small_b_divides_12(self, bs):
        coeffs = [StandardCoeff(b).value() for b in bs]
        assert 12 % index_lcm(coeffs) == 0


class TestHurwitz:
    @pytest.mark.parametrize("m,expected", [(4, 0), (2, 2), (0, 4), (6, -2)])
    def test_values(self, m, expected):
        assert hurwitz_double_cover_euler(m) == expected

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            hurwitz_double_cover_euler(3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            hurwitz_double_cover_euler(-2)


class TestKodairaLabelParse:
    @pytest.mark.parametrize("text", ["I_3_4", "I*_1_0", "I_+3", "I_ 3", "I_\u0663", "I_", "I_-1"])
    def test_b_only_in_ascii_digits(self, text):
        with pytest.raises(ValueError):
            KodairaLabel.parse(text)
