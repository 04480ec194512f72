"""Budgets, Hurwitz parity, and floor degrees for conic-fibration records."""

from fractions import Fraction as Rational

import pytest
from hypothesis import given, strategies as st

from logdgen.core import INFINITY, enumerate_boundary_multisets
from logdgen.dualgraph import FibreTypeLabel, KodairaLabel
from logdgen.fibration import (
    BISECTION,
    PROFILES,
    SECTION_ONLY,
    TWO_SECTIONS,
    TypRecord,
    boundary_budget,
    branch_count,
    budget_contribution,
    check_typ,
    typ_from_json,
    typ_to_json,
)


def lab(kind, b, k=None):
    return FibreTypeLabel(kind, b, k)


SECTION_GENERIC = lab("I-1", 1)
PAIR_GENERIC = lab("II-1", 1)


def rec(special, generic):
    return TypRecord(tuple(special), generic)


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
        assert r.counts()[lab("I-2", 1)] == 3
        assert r.counts()[lab("II-1", 2)] == 1

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
        with pytest.raises(ValueError):
            budget_contribution(KodairaLabel("II"))


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


class TestJson:
    def test_round_trip(self):
        for _, special, generic, _ in ZERO_EULER_CONFIGS + LC_BOUNDARY_CONFIGS:
            r = TypRecord(special, generic)
            assert typ_from_json(typ_to_json(r)) == r

    def test_infinite_b_spelled_inf(self):
        data = typ_to_json(rec([lab("II-1", INFINITY)], PAIR_GENERIC))
        assert data["special"][0] == {"kind": "II-1", "b": "inf"}
        assert data["generic"] == {"kind": "II-1", "b": 1}

    def test_chain_parameter_only_when_present(self):
        data = typ_to_json(rec([lab("II-3", 2, 1), lab("I-2", 1)], PAIR_GENERIC))
        by_kind = {entry["kind"]: entry for entry in data["special"]}
        assert by_kind["II-3"] == {"kind": "II-3", "b": 2, "k": 1}
        assert "k" not in by_kind["I-2"]

    @given(st.lists(special_label, max_size=5))
    def test_round_trip_property(self, labels):
        r = rec(labels, PAIR_GENERIC)
        assert typ_from_json(typ_to_json(r)) == r
