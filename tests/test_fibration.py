"""Budgets, Hurwitz parity, and floor degrees for conic-fibration records."""

import re
from collections import Counter
from fractions import Fraction as Rational
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, strategies as st

from logdgen.core import INFINITY, doubled_standard_coeff, enumerate_boundary_multisets, standard_coeff
from logdgen.dualgraph import FibreTypeLabel, KodairaLabel
from logdgen.fibration import (
    BISECTION,
    SECTION_ONLY,
    TWO_SECTIONS,
    TypRecord,
    boundary_budget,
    GermBoundaryData,
    check_typ,
    hurwitz_double_cover_euler,
    m_p,
)
from logdgen.fibration import _PROFILE_TABLE

PROFILES = tuple(_PROFILE_TABLE)


def branch_count(rec, profile) -> int:
    """The fibres of ``rec`` ramifying the degree-2 horizontal curve: the count
    check_typ keeps, read off the profile's row."""
    kinds = _PROFILE_TABLE[profile][1]
    return sum(kinds[label.kind][2] for label in rec.special)


def lab(kind, b, k=None):
    return FibreTypeLabel(kind, b, k)


SECTION_GENERIC = lab("I-1", 1)
PAIR_GENERIC = lab("II-1", 1)


def rec(special, generic):
    return TypRecord(tuple(special), generic)


def budget_contribution(label):
    """The orbifold Euler number the quotient points on one fibre spend."""
    return boundary_budget(rec([label], PAIR_GENERIC), BISECTION)


# Every special-fibre configuration a relatively minimal conic fibration can
# carry when the open orbifold Euler number of the complement vanishes, with
# the horizontal profile it runs over.  The a-rows live over an elliptic base
# (no special fibres at all); everything else lives over a rational one.
ZERO_EULER_CONFIGS = (
    ("a-1", (), SECTION_GENERIC, SECTION_ONLY),
    ("a-2", (), PAIR_GENERIC, TWO_SECTIONS),
    ("a-3", (), SECTION_GENERIC, SECTION_ONLY),
    ("a-4", (), SECTION_GENERIC, SECTION_ONLY),
    ("b-1", (lab("I-1", 2),) * 4, SECTION_GENERIC, SECTION_ONLY),
    ("b-2", (lab("I-1", 3),) * 3, SECTION_GENERIC, SECTION_ONLY),
    ("b-3", (lab("I-1", 2), lab("I-1", 4), lab("I-1", 4)), SECTION_GENERIC, SECTION_ONLY),
    ("b-4", (lab("I-1", 2), lab("I-1", 3), lab("I-1", 6)), SECTION_GENERIC, SECTION_ONLY),
    ("c-1", (lab("II-1", 2),) * 4, PAIR_GENERIC, TWO_SECTIONS),
    ("c-2", (lab("II-1", 3),) * 3, PAIR_GENERIC, TWO_SECTIONS),
    ("c-3", (lab("II-1", 2), lab("II-1", 4), lab("II-1", 4)), PAIR_GENERIC, TWO_SECTIONS),
    ("c-4", (lab("II-1", 2), lab("II-1", 3), lab("II-1", 6)), PAIR_GENERIC, TWO_SECTIONS),
    ("d-1", (lab("I-2", 1),) * 4, PAIR_GENERIC, BISECTION),
    ("d-2", (lab("I-3", 1),) * 4, SECTION_GENERIC, SECTION_ONLY),
    ("d-3", (lab("I-1", 2), lab("I-1", 2), lab("I-3", 1), lab("I-3", 1)), SECTION_GENERIC, SECTION_ONLY),
    ("d-4", (lab("I-1", 4), lab("I-3", 1), lab("I-3", 2)), SECTION_GENERIC, SECTION_ONLY),
    ("d-5", (lab("I-1", 2), lab("I-3", 2), lab("I-3", 2)), SECTION_GENERIC, SECTION_ONLY),
    ("d-6", (lab("I-1", 3), lab("I-3", 1), lab("I-3", 3)), SECTION_GENERIC, SECTION_ONLY),
    ("e-1", (lab("I-2", 2), lab("I-2", 2), lab("II-1", 2)), PAIR_GENERIC, BISECTION),
    ("e-2", (lab("I-2", 1), lab("I-2", 1), lab("II-1", 2), lab("II-1", 2)), PAIR_GENERIC, BISECTION),
    ("e-3", (lab("I-2", 1), lab("I-2", 3), lab("II-1", 3)), PAIR_GENERIC, BISECTION),
    ("e-4", (lab("I-2", 1), lab("I-2", 2), lab("II-1", 4)), PAIR_GENERIC, BISECTION),
)

# Configurations whose boundary acquires log canonical points: whole fibres
# sitting inside the boundary (b = INFINITY) or a floor that degenerates to a
# nodal rational bisection.
LC_BOUNDARY_CONFIGS = (
    ("full-fibre-pair", (lab("II-1", INFINITY),) * 2, PAIR_GENERIC, TWO_SECTIONS),
    ("nodal-bisection", (lab("I-2", 1),) * 2, PAIR_GENERIC, BISECTION),
    ("node-plus-full-fibre", (lab("I-2", 1), lab("I-2", 1), lab("II-1", INFINITY)), PAIR_GENERIC, BISECTION),
)


special_label = st.one_of(
    st.integers(min_value=2, max_value=9).map(lambda b: lab("I-1", b)),
    st.integers(min_value=1, max_value=9).map(lambda b: lab("I-2", b)),
    st.integers(min_value=1, max_value=9).map(lambda b: lab("I-3", b)),
    st.integers(min_value=2, max_value=9).map(lambda b: lab("II-1", b)),
    st.integers(min_value=1, max_value=9).map(lambda b: lab("II-2", b)),
    st.tuples(st.integers(1, 9), st.integers(1, 6)).map(lambda t: lab("II-3", *t)),
)


class TestRecord:
    def test_special_part_is_order_free(self):
        a = rec([lab("II-1", 2), lab("I-2", 1)], PAIR_GENERIC)
        b = rec([lab("I-2", 1), lab("II-1", 2)], PAIR_GENERIC)
        assert a == b
        assert a.special == (lab("I-2", 1), lab("II-1", 2))

    def test_counts(self):
        r = rec([lab("I-2", 1)] * 3 + [lab("II-1", 2)], PAIR_GENERIC)
        assert Counter(r.special) == {lab("I-2", 1): 3, lab("II-1", 2): 1}

    def test_str(self):
        r = rec([lab("II-3", 2, 1), lab("I-2", 1)], PAIR_GENERIC)
        assert str(r) == "((I-2)_1 + (II-3)_{2,1}; (II-1)_1)"
        assert str(rec([], SECTION_GENERIC)) == "(-; (I-1)_1)"

    def test_generic_carries_no_chain_parameter(self):
        with pytest.raises(ValueError):
            rec([], lab("II-3", 1, 1))

    def test_generic_needs_finite_b(self):
        with pytest.raises(ValueError):
            rec([], lab("II-1", INFINITY))

    def test_rejects_foreign_objects(self):
        with pytest.raises(TypeError):
            TypRecord(("(I-2)_1",), PAIR_GENERIC)


class TestBudgetContribution:
    def test_branch_fibre_costs_one(self):
        # the two half-circles of the double section each pin down 1/2
        for b in (1, 2, 5):
            assert budget_contribution(lab("I-2", b)) == 1

    def test_half_branch_fibre_costs_half(self):
        for b in (1, 3):
            assert budget_contribution(lab("I-3", b)) == Rational(1, 2)

    def test_pinched_branch_fibre(self):
        assert budget_contribution(lab("II-3", 1, 1)) == Rational(3, 4)
        assert budget_contribution(lab("II-3", 1, 2)) == Rational(7, 8)
        assert budget_contribution(lab("II-3", 3, 4)) == Rational(15, 16)

    def test_unbranched_fibres_are_free(self):
        for label in (lab("I-1", 2), lab("II-1", 3), lab("II-2", 1), lab("II-1", INFINITY)):
            assert budget_contribution(label) == 0

    def test_rejects_labels_from_other_catalogs(self):
        with pytest.raises(TypeError):
            budget_contribution(KodairaLabel("II"))

    def test_each_point_spends_m_p_of_a_bare_germ(self):
        order_two = m_p(GermBoundaryData(2))[0]
        assert budget_contribution(lab("I-2", 3)) == 2 * order_two
        assert budget_contribution(lab("I-3", 3)) == order_two
        for k in range(1, 6):
            assert budget_contribution(lab("II-3", 2, k)) == m_p(GermBoundaryData(4 * k))[0]


class TestBoundaryBudget:
    def test_four_branch_fibres_saturate_a_bisection(self):
        r = rec([lab("I-2", 1)] * 4, PAIR_GENERIC)
        assert boundary_budget(r, BISECTION) == 4

    def test_nodal_pair_with_a_full_fibre(self):
        r = rec([lab("I-2", 1), lab("I-2", 1), lab("II-1", INFINITY)], PAIR_GENERIC)
        assert boundary_budget(r, BISECTION) == 2

    def test_empty_record_costs_nothing(self):
        for profile in PROFILES:
            generic = SECTION_GENERIC if profile == SECTION_ONLY else PAIR_GENERIC
            assert boundary_budget(rec([], generic), profile) == 0

    def test_profile_must_be_known(self):
        with pytest.raises(ValueError):
            boundary_budget(rec([], PAIR_GENERIC), "TRISECTION")

    @given(st.lists(special_label, max_size=6), st.lists(special_label, max_size=6))
    def test_additive_over_disjoint_unions(self, xs, ys):
        whole = boundary_budget(rec(xs + ys, PAIR_GENERIC), BISECTION)
        parts = boundary_budget(rec(xs, PAIR_GENERIC), BISECTION) + boundary_budget(
            rec(ys, PAIR_GENERIC), BISECTION
        )
        assert whole == parts


class TestBranchCount:
    def test_counts_floor_double_points(self):
        r = rec([lab("I-2", 1), lab("I-2", 2), lab("II-1", 3)], PAIR_GENERIC)
        assert branch_count(r, BISECTION) == 2
        r2 = rec([lab("I-3", 1), lab("II-2", 2), lab("I-1", 2)], SECTION_GENERIC)
        assert branch_count(r2, SECTION_ONLY) == 2

    def test_disjoint_sections_never_branch(self):
        assert branch_count(rec([lab("II-1", 2)] * 4, PAIR_GENERIC), TWO_SECTIONS) == 0


class TestCheckTyp:
    @pytest.mark.parametrize(
        "special,generic,profile",
        [row[1:] for row in ZERO_EULER_CONFIGS],
        ids=[row[0] for row in ZERO_EULER_CONFIGS],
    )
    def test_zero_euler_catalog_verifies(self, special, generic, profile):
        assert check_typ(TypRecord(special, generic), profile)

    @pytest.mark.parametrize(
        "special,generic,profile",
        [row[1:] for row in LC_BOUNDARY_CONFIGS],
        ids=[row[0] for row in LC_BOUNDARY_CONFIGS],
    )
    def test_lc_boundary_catalog_verifies(self, special, generic, profile):
        assert check_typ(TypRecord(special, generic), profile)

    def test_five_branch_fibres_overrun_the_budget(self):
        # spend 5 > 4, but five branch points are odd, so the parity rule refuses it
        r = rec([lab("I-2", 1)] * 5, PAIR_GENERIC)
        assert not check_typ(r, BISECTION)

    def test_odd_branch_divisors_never_close(self):
        # budget 3 <= 4, but no double cover branches over three points
        r = rec([lab("I-2", 1)] * 3, PAIR_GENERIC)
        assert not check_typ(r, BISECTION)

    def test_wrong_generic_fibre(self):
        assert not check_typ(rec([], PAIR_GENERIC), SECTION_ONLY)
        assert not check_typ(rec([], SECTION_GENERIC), BISECTION)
        assert not check_typ(rec([], lab("II-1", 2)), TWO_SECTIONS)

    def test_special_fibres_must_fit_the_profile(self):
        assert not check_typ(rec([lab("I-3", 1)] * 4, PAIR_GENERIC), BISECTION)
        assert not check_typ(rec([lab("I-2", 1)] * 4, PAIR_GENERIC), TWO_SECTIONS)
        assert not check_typ(rec([lab("I-2", 1)] * 4, SECTION_GENERIC), SECTION_ONLY)

    def test_generic_label_may_not_recur_as_special(self):
        r = rec([lab("II-1", 1), lab("I-2", 1), lab("I-2", 1)], PAIR_GENERIC)
        assert not check_typ(r, BISECTION)

    def test_floor_degree_must_close(self):
        assert not check_typ(rec([lab("I-1", 2)], SECTION_GENERIC), SECTION_ONLY)
        assert not check_typ(rec([lab("I-1", 2)] * 5, SECTION_GENERIC), SECTION_ONLY)
        assert not check_typ(rec([lab("II-1", 2)] * 3, PAIR_GENERIC), TWO_SECTIONS)
        # a bisection with no branch points is rational and cannot close either
        assert not check_typ(rec([], PAIR_GENERIC), BISECTION)

    def test_pinched_branch_fibres_on_an_elliptic_bisection(self):
        r = rec([lab("II-3", 1, 1)] * 4, PAIR_GENERIC)
        assert check_typ(r, BISECTION)

    def test_tangent_half_section_fibres(self):
        r = rec([lab("I-1", 2)] * 2 + [lab("II-2", 2)] * 2, SECTION_GENERIC)
        assert check_typ(r, SECTION_ONLY)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            check_typ(rec([], PAIR_GENERIC), "SECTIONS")

    def test_product_rows_realize_every_degree_two_multiset(self):
        # the special coefficients of the b-rows are exactly the solutions of
        # sum (b-1)/b = 2 over the standard coefficient set
        allowed = [Rational(1, 2), Rational(2, 3), Rational(3, 4), Rational(5, 6)]
        expected = enumerate_boundary_multisets(allowed, Rational(2), 4)
        rows = [row[1] for row in ZERO_EULER_CONFIGS if row[0].startswith("b-")]
        got = {tuple(sorted((Rational(l.b - 1, l.b) for l in row), reverse=True)) for row in rows}
        assert got == set(expected)
        assert len(rows) == len(expected) == 4


@pytest.mark.parametrize("profile", ["SECTIONS", "bisection", None, ["BISECTION"]])
@pytest.mark.parametrize("check", [check_typ, boundary_budget])
def test_every_profile_check_refuses_an_unknown_profile(check, profile):
    with pytest.raises(ValueError, match=f"^unknown horizontal profile {re.escape(repr(profile))}$"):
        check(rec([lab("I-2", 1)], PAIR_GENERIC), profile)


# check_typ with every fact of a profile written out by hand, kept as the
# oracle for the one-row-per-profile table: the generic type, the orbifold
# budget (which check_typ leaves to the floor rule that implies it), the
# allowed kinds and their floor weights, the kinds over which a degree-2
# horizontal curve ramifies, and the orders of the cyclic quotient points on
# each fibre.
_GENERIC = {SECTION_ONLY: lab("I-1", 1), BISECTION: lab("II-1", 1), TWO_SECTIONS: lab("II-1", 1)}
_BUDGET = {SECTION_ONLY: 2, BISECTION: 4, TWO_SECTIONS: 4}
_ALLOWED_KINDS = {
    SECTION_ONLY: frozenset({"I-1", "I-3", "II-2"}),
    BISECTION: frozenset({"I-2", "II-1", "II-3"}),
    TWO_SECTIONS: frozenset({"II-1"}),
}
_RAMIFIED_KINDS = {
    SECTION_ONLY: frozenset({"I-3", "II-2"}),
    BISECTION: frozenset({"I-2", "II-3"}),
    TWO_SECTIONS: frozenset(),
}


def _floor_weight(label: FibreTypeLabel, profile: str) -> Rational:
    """Boundary degree the fibre deposits on the horizontal floor curve(s)."""
    if profile == SECTION_ONLY:
        if label.kind in ("I-1", "II-2"):
            return standard_coeff(label.b)
        if label.kind == "I-3":
            return doubled_standard_coeff(label.b)
    elif profile == BISECTION:
        if label.kind in ("I-2", "II-3"):
            return standard_coeff(label.b)
        if label.kind == "II-1":
            return 2 * standard_coeff(label.b)
    elif profile == TWO_SECTIONS:
        if label.kind == "II-1":
            # per section; both sections cross the same central curve
            return standard_coeff(label.b)
    raise ValueError(f"fibre type {label} cannot ride over profile {profile}")


def _point_orders(label: FibreTypeLabel) -> list[int]:
    """Orders of the cyclic quotient points the fibre passes through."""
    if label.kind == "II-3":
        return [4 * label.k]
    return {"I-2": [2, 2], "I-3": [2]}.get(label.kind, [])


def hand_check_typ(rec: TypRecord, profile: str) -> bool:
    if profile not in (TWO_SECTIONS, BISECTION, SECTION_ONLY):
        raise ValueError(f"unknown horizontal profile {profile!r}")
    if rec.generic != _GENERIC[profile]:
        return False
    for label in rec.special:
        if label.kind not in _ALLOWED_KINDS[profile]:
            return False
        if label == _GENERIC[profile]:
            return False

    # a double cover of the line branched at m points exists for even m only,
    # and has Euler number 4 - m
    m = sum(1 for l in rec.special if l.kind in _RAMIFIED_KINDS[profile])
    if m % 2:
        return False
    cover_euler = 4 - m

    spend = sum(Rational(n - 1, n) for l in rec.special for n in _point_orders(l))
    if spend > _BUDGET[profile]:
        return False

    floor_total = sum(
        (_floor_weight(l, profile) for l in rec.special), Rational(0)
    )
    if profile == BISECTION:
        return cover_euler - floor_total in (Rational(0), Rational(2))
    return floor_total in (Rational(0), Rational(2))


KINDS = ("I-1", "I-2", "I-3", "II-1", "II-2", "II-3")


@st.composite
def typ_cases(draw):
    """A profile and a record of at most 6 labels over every kind, b in 1..6 or INFINITY.

    Half the records draw only kinds the profile allows, half carry the
    profile's generic type, and half the b values come from 1, 2 and INFINITY,
    so that the floor weights are reached and their totals often hit 0 or 2.
    """
    profile = draw(st.sampled_from(PROFILES))
    kinds = draw(st.sampled_from((sorted(_ALLOWED_KINDS[profile]), KINDS)))
    b = st.one_of(st.sampled_from((1, 2, INFINITY)), st.integers(1, 6))
    drawn = draw(st.lists(st.tuples(st.sampled_from(kinds), b, st.integers(1, 4)), max_size=6))
    special = [lab(kind, b, k if kind == "II-3" else None) for kind, b, k in drawn]
    generic = draw(st.one_of(st.just(_GENERIC[profile]),
                             st.builds(lab, st.sampled_from(KINDS[:-1]), st.integers(1, 6))))
    return rec(special, generic), profile


@given(typ_cases())
def test_check_typ_agrees_with_the_hand_profiles(case):
    r, profile = case
    assert check_typ(r, profile) == hand_check_typ(r, profile)


def test_check_typ_agrees_with_the_hand_profiles_on_the_benchmark_records():
    # the enumeration the benchmark draws its records from: every multiset of
    # at most 4 labels a profile admits, b in 1, 2, 3, 4, 6 or INFINITY, k in
    # 1..3, the generic type left out; it accepts 228 of them, a share the
    # random draws above rarely reach
    seen = accepted = 0
    for profile in PROFILES:
        labels = [lab(kind, b, k) for kind in sorted(_ALLOWED_KINDS[profile])
                  for b in (1, 2, 3, 4, 6, INFINITY)
                  for k in ((1, 2, 3) if kind == "II-3" else (None,))]
        labels.remove(_GENERIC[profile])
        for size in range(5):
            for combo in combinations_with_replacement(labels, size):
                r = rec(combo, _GENERIC[profile])
                got = check_typ(r, profile)
                assert got == hand_check_typ(r, profile), (r, profile)
                # the floor rule keeps every accepted record within its budget
                assert not got or boundary_budget(r, profile) <= _BUDGET[profile], (r, profile)
                seen += 1
                accepted += got
    assert (seen, accepted) == (47031, 228)


def test_check_typ_agrees_with_the_hand_profiles_on_five_to_seven_labels():
    # check_typ leaves the budget to the floor rule, and only records of five
    # or more labels can overspend it; the benchmark's kinds with b in 1, 2 or
    # INFINITY and k = 1 give 11 901 such records (its full label sets give
    # millions)
    seen = accepted = 0
    for profile in PROFILES:
        labels = [lab(kind, b, 1 if kind == "II-3" else None)
                  for kind in sorted(_ALLOWED_KINDS[profile]) for b in (1, 2, INFINITY)]
        labels.remove(_GENERIC[profile])
        for size in range(5, 8):
            for combo in combinations_with_replacement(labels, size):
                r = rec(combo, _GENERIC[profile])
                got = check_typ(r, profile)
                assert got == hand_check_typ(r, profile), (r, profile)
                # the floor rule keeps every accepted record within its budget
                assert not got or boundary_budget(r, profile) <= _BUDGET[profile], (r, profile)
                seen += 1
                accepted += got
    assert (seen, accepted) == (11901, 60)


# Records whose ramified fibres come in even number but spend more than the
# budget: the floor rule alone refuses them.  Five I-3 fibres need a sixth
# ramified fibre, a II-2 one that spends nothing, to pass the parity rule.
@pytest.mark.parametrize("b", [1, 2, INFINITY])
@pytest.mark.parametrize("kinds, profile", [
    (("I-2",) * 6, BISECTION),
    (("I-3",) * 5 + ("II-2",), SECTION_ONLY),
    (("I-3",) * 6, SECTION_ONLY),
], ids=["six-I-2", "five-I-3", "six-I-3"])
def test_even_branch_records_over_the_budget_are_refused(kinds, profile, b):
    r = rec([lab(kind, b) for kind in kinds], _GENERIC[profile])
    assert branch_count(r, profile) % 2 == 0
    assert boundary_budget(r, profile) > _BUDGET[profile]
    assert not check_typ(r, profile)
    assert not hand_check_typ(r, profile)


@pytest.mark.parametrize("profile", PROFILES)
def test_profile_rows_agree_with_the_hand_profiles(profile):
    generic, kinds = _PROFILE_TABLE[profile]
    assert generic == _GENERIC[profile]
    assert {kind for kind, (*_, ramified) in kinds.items() if ramified} == _RAMIFIED_KINDS[profile]


@pytest.mark.parametrize("profile", PROFILES)
def test_floor_weights_agree_with_the_hand_profiles(profile):
    # every kind, b in 1..6 or INFINITY, k in 1..4: the same kinds ride over
    # the profile, with the same floor weight
    kinds = _PROFILE_TABLE[profile][1]
    assert set(kinds) == _ALLOWED_KINDS[profile]
    for kind in KINDS:
        for b in (*range(1, 7), INFINITY):
            for k in range(1, 5) if kind == "II-3" else (None,):
                label = lab(kind, b, k)
                try:
                    want = _floor_weight(label, profile)
                except ValueError:
                    assert kind not in kinds
                    continue
                contacts, scale, _ = kinds[kind]
                got = contacts * (Rational(1) if b == INFINITY else Rational(scale * b - 1, scale * b))
                assert got == want, label
