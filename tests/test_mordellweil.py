"""Local contributions, height formulas, and the configuration solver."""

from collections import Counter
from fractions import Fraction as Rational
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import logdgen.mordellweil as mordellweil
from logdgen.dualgraph import KodairaLabel, kodaira_graph
from logdgen.graph import intersection_matrix
from logdgen.mordellweil import _simple_count
from logdgen.mordellweil import (
    MAX_SECTION_CANDIDATES,
    SectionConfig,
    component_count,
    contribution,
    height_self,
    pair_contribution,
    solve_section_config,
)
from test_dualgraph import pivoting_elimination


def lab(kind, b=None):
    return KodairaLabel(kind, b)


# The height pairing of two sections, which no command or other module uses,
# kept as an oracle: it is checked against height_self below.
def height_pair(chi: int, po: int, qo: int, pq: int, contribs) -> Rational:
    """Height pairing of two sections: chi + (P.O) + (Q.O) - (P.Q) - sum.

    >>> height_pair(1, 0, 0, 0, [Rational(5, 4)])
    Fraction(-1, 4)
    """
    return (
        Rational(chi)
        + Rational(po)
        + Rational(qo)
        - Rational(pq)
        - sum((Rational(c) for c in contribs), Rational(0))
    )


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
_LABELS = (st.sampled_from(_FIXED_TYPES)
           | st.builds(lab, st.just("I"), st.integers(1, 12))
           | st.builds(lab, st.just("I*"), st.integers(0, 8)))


def _graph_pairing(label):
    """-(A^-1) between the simple components, A the intersection matrix of
    every component of ``kodaira_graph`` but the one meeting the zero section."""
    g = kodaira_graph(label)
    simple = [v.id for v in g.vertices if v.multiplicity == 1]
    rest = [vid for vid in g.ids() if vid != simple[0]]
    a = intersection_matrix(g, rest)
    pairing = {}
    for j, column in enumerate(simple[1:], 1):
        _, _, rows = pivoting_elimination(a, [int(vid == column) for vid in rest])
        for i, sid in enumerate(simple[1:], 1):
            k = rest.index(sid)
            pairing[i, j] = -rows[k][-1] / rows[k][k]
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
            assert _simple_count(label) == len(simple), label

    @given(
        label=st.sampled_from(_FIXED_TYPES)
        | st.builds(lab, st.just("I"), st.integers(1, 40))
        | st.builds(lab, st.just("I*"), st.integers(0, 40)),
        i=st.integers(-2, 42),
        j=st.integers(-2, 42),
    )
    def test_symmetric_with_contribution_on_the_diagonal(self, label, i, j):
        n = _simple_count(label)
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
            vertices = kodaira_graph(label).vertices
            assert component_count(label) == len(vertices), label
            simple = sum(v.multiplicity == 1 for v in vertices)
            assert _simple_count(label) == simple, label

    def test_choices(self):
        assert _simple_count(lab("I", 4)) == 4
        assert _simple_count(lab("I*", 2)) == 4
        assert _simple_count(lab("II")) == 1
        assert _simple_count(lab("I", 1)) == 1


class TestHeights:
    def test_self_examples(self):
        assert height_self(1, 0, [Rational(5, 4)]) == Rational(3, 4)
        assert height_self(1, 0, [Rational(5, 4), Rational(2, 3)]) == Rational(1, 12)
        assert height_self(1, 0, []) == 2

    def test_pair_examples(self):
        assert height_pair(1, 0, 0, 0, [Rational(5, 4)]) == Rational(-1, 4)
        assert height_pair(1, 0, 0, 1, []) == 0
        assert height_pair(1, 0, 0, 0, [Rational(3, 4)]) == Rational(1, 4)

    @given(label=_LABELS, i=st.integers(0, 11), chi=st.integers(1, 4), po=st.integers(0, 5))
    def test_pairing_a_section_with_itself_is_its_height(self, label, i, chi, po):
        # a section is a (-chi)-curve, so <P, P> = chi + 2 (P.O) + chi - sum
        i %= _simple_count(label)
        assert height_pair(chi, po, po, -chi, [pair_contribution(label, i, i)]) == height_self(
            chi, po, [contribution(label, i)])

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
        monkeypatch.setattr(mordellweil, "contribution", None)  # so would any correction
        with pytest.raises(ValueError, match="exceeds 100000 values of"):
            solve_section_config(2, [], chi=1, po_max=MAX_SECTION_CANDIDATES)
        for fibres in ([(lab("I", 200_000), 200_000)], [(lab("I", 10**18), 10**18)],
                       [(lab("I", 99_999), 99_999)] * 1000):
            with pytest.raises(ValueError, match="exceeds 100000 simple components$"):
                solve_section_config(2, fibres, chi=1, po_max=0)

    def test_seven_i9_fibres_against_a_convolution(self):
        # 3 * 9^7 candidates, far more than the limit; the answer is not
        i9 = lab("I", 9)
        fibres = [(i9, 9)] * 7
        values = [contribution(i9, i) for i in range(9)]
        sums = Counter({Rational(0): 1})
        for _ in fibres:
            step = Counter()
            for total, ways in sums.items():
                for value in values:
                    step[total + value] += ways
            sums = step
        target = Rational(2)
        got = solve_section_config(target, fibres, chi=1, po_max=2)
        assert len(got) == sum(sums[2 + 2 * po - target] for po in range(3)) == 1779
        keys = [(c.po, c.hits) for c in got]
        assert keys == sorted(set(keys))
        for cfg in got:
            assert height_self(1, cfg.po, [values[i] for i in cfg.hits]) == target

    def test_more_configurations_than_the_limit_refused_before_any_is_built(self, monkeypatch):
        monkeypatch.setattr(mordellweil, "SectionConfig", None)
        with pytest.raises(ValueError, match="exceeds 100000 configurations"):
            solve_section_config(-4, [(lab("I", 9), 9)] * 7, chi=1, po_max=2)

    def test_more_partial_sums_than_the_limit_refused(self):
        # 10000 I_2 keep at most 10001 sums per position, but computing them
        # takes about 10^8 steps; three I_400 keep fewer than 14000 sums, but
        # the third fibre alone takes 13788 sums x 201 distinct corrections
        for fibres in ([(lab("I", 2), 2)] * 10_000, [(lab("I", 400), 400)] * 3):
            with pytest.raises(ValueError, match="exceeds 100000 partial sums"):
                solve_section_config(Rational(1, 3), fibres, chi=1, po_max=0)

    def test_ten_thousand_fibres_walked_without_recursion(self):
        fibres = [(lab("II"), 1)] * 9_999 + [(lab("I", 2), 2)]
        got = solve_section_config(Rational(3, 2), fibres, chi=1, po_max=2)
        assert got == [SectionConfig(po=0, hits=(0,) * 9_999 + (1,))]

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
        fibres = [(lab("I", 4), 4), (lab("I*", 1), 6)]
        got = solve_section_config(Rational(1, 4), fibres, chi=1, po_max=1)
        assert got == _product_walk(fibres, chi=1, po_max=1)[Rational(1, 4)]
        assert got  # the probe target is actually attainable

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SectionConfig(po=-1, hits=())


def _product_walk(fibres, chi=1, po_max=2):
    """Every (po, hits) candidate in turn, the search the solver replaced, as
    height -> the configurations of that height in walk order."""
    corrections = [[contribution(label, i) for i in range(_simple_count(label))]
                   for label, _ in fibres]
    walk = {}
    for po in range(po_max + 1):
        for hits in product(*(range(len(row)) for row in corrections)):
            height = height_self(chi, po, [row[i] for row, i in zip(corrections, hits)])
            walk.setdefault(height, []).append(SectionConfig(po=po, hits=hits))
    return walk


@settings(deadline=None)
@given(data=st.data(), po_max=st.integers(0, 3), chi=st.integers(1, 3))
def test_solver_equals_the_product_walk(data, po_max, chi):
    labels, candidates = [], po_max + 1
    for label in data.draw(st.lists(_LABELS, max_size=6)):
        if candidates * _simple_count(label) > 2000:
            break
        labels.append(label)
        candidates *= _simple_count(label)
    fibres = [(label, component_count(label)) for label in labels]
    walk = _product_walk(fibres, chi, po_max)  # one walk gives the heights and the answers
    target = data.draw(st.sampled_from(sorted(walk))
                       | st.fractions(-4, 2 * chi + 2 * po_max, max_denominator=60))
    want = walk.get(target, [])
    assert solve_section_config(target, fibres, chi, po_max) == want
