"""Local contributions, height formulas, and the configuration solver."""

from fractions import Fraction as Rational

import pytest
from hypothesis import given, strategies as st

from logdgen.dualgraph import KodairaLabel, _eliminate, intersection_matrix, kodaira_graph
from logdgen.mordellweil import (
    MAX_SECTION_CANDIDATES,
    SectionConfig,
    component_choices,
    component_count,
    contribution,
    height_pair,
    height_self,
    pair_contribution,
    solve_section_config,
)


def lab(kind, b=None):
    return KodairaLabel(kind, b)


class TestContribution:
    def test_quoted_values(self):
        assert contribution(lab("I", 3), 1) == Rational(2, 3)
        assert contribution(lab("I", 2), 1) == Rational(1, 2)
        assert contribution(lab("I*", 1), 2) == Rational(5, 4)
        assert contribution(lab("I*", 1), 3) == Rational(5, 4)
        assert contribution(lab("I*", 1), 1) == 1
        assert contribution(lab("I*", 2), 2) == Rational(3, 2)
        assert contribution(lab("I*", 2), 1) == 1

    def test_zero_component_always_zero(self):
        for label in [lab("I", 5), lab("I*", 2), lab("II"), lab("IV*"), lab("I", 1)]:
            assert contribution(label, 0) == 0

    def test_cyclic_formula(self):
        assert contribution(lab("I", 6), 2) == Rational(2 * 4, 6)
        assert contribution(lab("I", 7), 3) == Rational(12, 7)

    @given(n=st.integers(2, 30), i=st.integers(0, 29))
    def test_cyclic_symmetry(self, n, i):
        # walking the cycle the other way meets the mirror component
        i = i % n
        assert contribution(lab("I", n), i) == contribution(lab("I", n), n - i if i else 0)

    def test_unsupported_rejected(self):
        with pytest.raises(ValueError):
            contribution(lab("II"), 1)
        assert contribution(lab("IV"), 1) == Rational(2, 3)
        assert contribution(lab("I*", 0), 1) == 1
        assert contribution(lab("I*", 3), 2) == Rational(7, 4)
        with pytest.raises(ValueError):
            contribution(lab("I", 1), 1)
        with pytest.raises(ValueError):
            contribution(lab("I*", 1), 4)  # multiplicity-2 spine
        with pytest.raises(ValueError):
            contribution(lab("I", 4), 4)


class TestPairContribution:
    def test_zero_component(self):
        assert pair_contribution(lab("I*", 1), 0, 2) == 0
        assert pair_contribution(lab("I", 3), 1, 0) == 0

    def test_same_component_matches_single(self):
        assert pair_contribution(lab("I*", 1), 2, 2) == Rational(5, 4)
        assert pair_contribution(lab("I", 3), 1, 1) == Rational(2, 3)
        assert pair_contribution(lab("I", 2), 1, 1) == Rational(1, 2)

    def test_distinct_far_components(self):
        assert pair_contribution(lab("I*", 1), 2, 3) == Rational(3, 4)
        assert pair_contribution(lab("I*", 1), 3, 2) == Rational(3, 4)

    def test_off_diagonal_pairs(self):
        assert pair_contribution(lab("I*", 1), 1, 2) == Rational(1, 2)
        assert pair_contribution(lab("I*", 2), 2, 3) == 1
        assert pair_contribution(lab("I", 4), 1, 2) == Rational(1, 2)
        assert pair_contribution(lab("IV*"), 1, 2) == Rational(2, 3)

    def test_every_value_of_the_istar1_and_i4_fibres(self):
        istar1 = lab("I*", 1)
        assert [contribution(istar1, i) for i in range(4)] == [0, 1, Rational(5, 4), Rational(5, 4)]
        assert pair_contribution(istar1, 2, 3) == Rational(3, 4)
        assert pair_contribution(istar1, 2, 2) == Rational(5, 4)
        assert pair_contribution(istar1, 0, 3) == 0
        i4 = [contribution(lab("I", 4), i) for i in range(4)]
        assert i4 == [0, Rational(3, 4), 1, Rational(3, 4)]


_FIXED_TYPES = [lab(kind) for kind in ("II", "III", "IV", "II*", "III*", "IV*", "SMOOTH")]


def _graph_pairing(label):
    """-(A^-1) between the simple components, A the intersection matrix of
    every component of ``kodaira_graph`` but the one meeting the zero section."""
    g = kodaira_graph(label)
    simple = [v.id for v in g.vertices if v.multiplicity == 1]
    rest = [vid for vid in g.ids() if vid != simple[0]]
    a = intersection_matrix(g, rest)
    pairing = {}
    for j, column in enumerate(simple[1:], 1):
        pivots, _, rows = _eliminate(a, [int(vid == column) for vid in rest])
        for i, sid in enumerate(simple[1:], 1):
            k = rest.index(sid)
            pairing[i, j] = -rows[k][-1] / pivots[k]
    return simple, pairing


class TestGraphOracle:
    def test_pairing_is_minus_the_inverse_intersection_matrix(self):
        labels = _FIXED_TYPES + [lab("I", b) for b in range(1, 13)]
        labels += [lab("I*", b) for b in range(13)]
        for label in labels:
            simple, pairing = _graph_pairing(label)
            n = len(simple)
            for i in range(n):
                for j in range(n):
                    want = pairing.get((i, j), 0)
                    assert pair_contribution(label, i, j) == want, (label, i, j)

    def test_simple_components_are_the_multiplicity_one_vertices(self):
        labels = _FIXED_TYPES + [lab("I", b) for b in range(1, 31)]
        labels += [lab("I*", b) for b in range(31)]
        for label in labels:
            simple = [v for v in kodaira_graph(label).vertices if v.multiplicity == 1]
            assert len(component_choices(label)) == len(simple), label

    @given(
        label=st.sampled_from(_FIXED_TYPES)
        | st.builds(lab, st.just("I"), st.integers(1, 40))
        | st.builds(lab, st.just("I*"), st.integers(0, 40)),
        i=st.integers(-2, 42),
        j=st.integers(-2, 42),
    )
    def test_symmetric_with_contribution_on_the_diagonal(self, label, i, j):
        n = len(component_choices(label))
        if 0 <= i < n and 0 <= j < n:
            assert pair_contribution(label, i, j) == pair_contribution(label, j, i)
            assert pair_contribution(label, i, i) == contribution(label, i)
        else:
            with pytest.raises(ValueError):
                pair_contribution(label, i, j)


class TestComponentBookkeeping:
    def test_counts(self):
        assert component_count(lab("I", 3)) == 3
        assert component_count(lab("I*", 1)) == 6
        assert component_count(lab("I*", 2)) == 7
        assert component_count(lab("II")) == 1
        assert component_count(lab("III*")) == 8

    def test_counts_match_the_fibre_graph(self):
        labels = [lab(kind) for kind in ("II", "III", "IV", "II*", "III*", "IV*", "SMOOTH")]
        labels += [lab("I", b) for b in range(1, 31)] + [lab("I*", b) for b in range(31)]
        for label in labels:
            assert component_count(label) == len(kodaira_graph(label).vertices), label

    def test_choices(self):
        assert component_choices(lab("I", 4)) == (0, 1, 2, 3)
        assert component_choices(lab("I*", 2)) == (0, 1, 2, 3)
        assert component_choices(lab("II")) == (0,)
        assert component_choices(lab("I", 1)) == (0,)


class TestHeights:
    def test_self_examples(self):
        assert height_self(1, 0, [Rational(5, 4)]) == Rational(3, 4)
        assert height_self(1, 0, [Rational(5, 4), Rational(2, 3)]) == Rational(1, 12)
        assert height_self(1, 0, []) == 2

    def test_pair_examples(self):
        assert height_pair(1, 0, 0, 0, [Rational(5, 4)]) == Rational(-1, 4)
        assert height_pair(1, 0, 0, 1, []) == 0
        assert height_pair(1, 0, 0, 0, [Rational(3, 4)]) == Rational(1, 4)

    @given(chi=st.integers(1, 4), po=st.integers(0, 5))
    def test_trivial_config_height(self, chi, po):
        assert height_self(chi, po, []) == 2 * chi + 2 * po


# One rational elliptic surface with fibres I*_1 + II + I_3 carries a
# generator of height 3/4 and related sections of heights 1/12 and -1/4.
EX_FIBRES = [(lab("I*", 1), 6), (lab("II"), 1), (lab("I", 3), 3)]


class TestSolver:
    def test_height_three_quarters(self):
        got = solve_section_config(Rational(3, 4), EX_FIBRES, chi=1, po_max=2)
        assert got == [
            SectionConfig(po=0, hits=(2, 0, 0)),
            SectionConfig(po=0, hits=(3, 0, 0)),
        ]

    def test_height_one_twelfth(self):
        got = solve_section_config(Rational(1, 12), EX_FIBRES, chi=1, po_max=2)
        assert got == [
            SectionConfig(po=0, hits=(2, 0, 1)),
            SectionConfig(po=0, hits=(2, 0, 2)),
            SectionConfig(po=0, hits=(3, 0, 1)),
            SectionConfig(po=0, hits=(3, 0, 2)),
        ]

    def test_no_fibres(self):
        assert solve_section_config(2, [], chi=1, po_max=0) == [
            SectionConfig(po=0, hits=())
        ]

    def test_component_count_validated(self):
        with pytest.raises(ValueError):
            solve_section_config(2, [(lab("I*", 1), 5)], chi=1, po_max=0)

    def test_negative_po_max_rejected(self):
        # not an empty search: a section meets the zero section non-negatively
        with pytest.raises(ValueError, match="po_max"):
            solve_section_config(2, [], chi=1, po_max=-1)

    def test_search_size_limited_before_any_graph_is_built(self, monkeypatch):
        import logdgen.dualgraph as dualgraph

        monkeypatch.setattr(dualgraph, "kodaira_graph", None)  # any graph build would fail
        with pytest.raises(ValueError, match="exceeds"):
            solve_section_config(2, [], chi=1, po_max=MAX_SECTION_CANDIDATES)
        with pytest.raises(ValueError, match="exceeds"):
            solve_section_config(2, [(lab("I", 200_000), 200_000)], chi=1, po_max=0)
        with pytest.raises(ValueError, match="exceeds"):
            solve_section_config(2, [(lab("I", 9), 9)] * 6, chi=1, po_max=0)

    def test_torsion_sections_on_two_torsion_square_surface(self):
        # I*_2 + 2 I_2 with full 2-torsion: height-zero sections come in
        # exactly two shapes, (near, 1, 1) with corrections 1 + 1/2 + 1/2
        # and (far, 1, 0) with corrections 3/2 + 1/2 + 0.
        fibres = [(lab("I*", 2), 7), (lab("I", 2), 2), (lab("I", 2), 2)]
        got = solve_section_config(0, fibres, chi=1, po_max=1)
        assert got == [
            SectionConfig(po=0, hits=(1, 1, 1)),
            SectionConfig(po=0, hits=(2, 0, 1)),
            SectionConfig(po=0, hits=(2, 1, 0)),
            SectionConfig(po=0, hits=(3, 0, 1)),
            SectionConfig(po=0, hits=(3, 1, 0)),
        ]
        for cfg in got:
            contribs = [
                contribution(label, i)
                for (label, _), i in zip(fibres, cfg.hits)
            ]
            assert height_self(1, cfg.po, contribs) == 0

    def test_completeness_against_direct_enumeration(self):
        from itertools import product as iproduct

        fibres = [(lab("I", 4), 4), (lab("I*", 1), 6)]
        target = Rational(1, 4)
        got = solve_section_config(target, fibres, chi=1, po_max=1)
        expect = []
        for po in (0, 1):
            for hits in iproduct(range(4), (0, 1, 2, 3)):
                contribs = [
                    contribution(lab("I", 4), hits[0]),
                    contribution(lab("I*", 1), hits[1]),
                ]
                if height_self(1, po, contribs) == target:
                    expect.append(SectionConfig(po=po, hits=hits))
        expect.sort(key=lambda c: (c.po, c.hits))
        assert got == expect
        assert got  # the probe target is actually attainable

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SectionConfig(po=-1, hits=())
