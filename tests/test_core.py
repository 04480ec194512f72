"""Core coefficients and enumerators, the germ calculus of fibration (different
multiplicities), and the Record base."""

from __future__ import annotations

import copy
import itertools
import math
import pickle
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from logdgen.core import (
    INFINITY,
    NOT_LC,
    FibreTypeLabel,
    MAX_LITERAL_DIGITS,
    KodairaLabel,
    ParseError,
    Record,
    enumerate_boundary_multisets,
    json_array,
    json_int,
    parse_rational,
    quotient_defect,
    standard_coeff,
)
from logdgen.cbf import ABELIAN_TABLE_ROWS, V1, FibreInvariants, PrimitiveVector, RegeneratedRow
from logdgen.cli import Report
from logdgen.graph import EXCEPTIONAL, STRICT, CurveVertex, DualGraph, pullback_coefficients
from logdgen.duval import CoverCase, DuValType, delpezzo_catalog
from logdgen.eulerform import FibreComponentData
from logdgen.fibration import (
    CASE1,
    CASE2,
    CASE3,
    GermBoundaryData,
    TypRecord,
    hurwitz_double_cover_euler,
    m_p,
)
from logdgen.mordellweil import SectionConfig
from test_eulerform import ChiInput


def replace(record, **changes):
    """A copy of ``record`` with ``changes``, built through its constructor and its checks."""
    return type(record)(**{**vars(record), **changes})


def trace_events(kernel, *args) -> int:
    """The sys.settrace events (calls, lines and returns, comprehensions
    included) of ``kernel(*args)``: a cost that repeats from run to run where
    a timing would not."""
    count = 0

    def tracer(frame, event, _):
        nonlocal count
        count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        kernel(*args)
    finally:
        sys.settrace(previous)
    return count


class TestStandardCoeff:
    """The coefficient (b-1)/b, and its parameter b as a fibre-type label checks it."""

    def test_values(self):
        assert standard_coeff(1) == 0
        assert standard_coeff(2) == F(1, 2)
        assert standard_coeff(6) == F(5, 6)
        assert standard_coeff(INFINITY) == 1

    def test_rejects_bad_b(self):
        with pytest.raises(ValueError):
            FibreTypeLabel("I-1", 0)
        with pytest.raises(ValueError):
            FibreTypeLabel("I-1", -3)

    @pytest.mark.parametrize("b", [True, 2.0])
    def test_rejects_a_bool_or_float_b(self, b):
        with pytest.raises(ValueError, match=f"^b must be a positive integer or INFINITY, got {b}"):
            FibreTypeLabel("I-1", b)


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


def germ_resolution(n: int, branches: tuple[int, ...]) -> DualGraph:
    """The log resolution of the germ C through a point of order n with boundary
    branches of coefficients (b-1)/b: for n = 1 one (-1)-curve E1 met once by C
    and once by every branch; for n >= 2 the (-2)-chain E1..E_{n-1}, C on E1 and
    the (at most one) branch on E_{n-1}."""
    chain = max(n - 1, 1)
    vs = [CurveVertex(f"E{i}", -1 if n == 1 else -2) for i in range(1, chain + 1)]
    vs.append(CurveVertex("C", 0, boundary_coeff=1, role=STRICT))
    vs += [CurveVertex(f"B{j}", 0, boundary_coeff=standard_coeff(b), role=STRICT)
           for j, b in enumerate(branches)]
    edges = [(f"E{i}", f"E{i + 1}") for i in range(1, chain)] + [("C", "E1")]
    edges += [(f"B{j}", f"E{chain}") for j in range(len(branches))]
    return DualGraph(vs, edges)


def test_m_p_is_the_pullback_coefficient_of_the_first_exceptional_curve():
    # m_p is the coefficient of the different (Shokurov; Kollar et al., Flips
    # and Abundance, ch. 16): on the germ's resolution, the log pullback
    # coefficient of E1, the exceptional curve that C meets
    bs = (2, 3, 4, 6)
    cases = [(1, branches) for size in range(3) for branches in
             itertools.combinations_with_replacement(bs, size)]
    cases += [(n, branches) for n in range(2, 9) for branches in ((), *((b,) for b in bs))]
    for n, branches in cases:
        k = {b: branches.count(b) for b in branches}
        got = pullback_coefficients(germ_resolution(n, branches))["E1"]
        assert m_p(GermBoundaryData(n, k))[0] == got, (n, branches)
    assert len(cases) == 50


# The coefficient rule for a divisor extracted over a germ's point, which no
# command or other module uses, kept here with its tests.
def s_extraction_coeff(
    data: GermBoundaryData, strict_local_intersection: F
) -> F:
    """Boundary coefficient of the divisor extracted over the germ's point.

    In CASE1 and CASE2 the extracted coefficient is m_p itself.  In CASE3
    it is 1 minus the local intersection number with the strict boundary,
    which must land in {0, 1/2, 1}.  NOT_LC germs admit no extraction.
    """
    value, label = m_p(data)
    if label in (CASE1, CASE2):
        return value
    if label == CASE3:
        result = 1 - F(strict_local_intersection)
        if result not in (F(0), F(1, 2), F(1)):
            raise ValueError(
                f"inconsistent germ: extracted coefficient {result} not in {{0, 1/2, 1}}"
            )
        return result
    raise ValueError("germ is not log canonical; no extraction coefficient")


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


def _fraction_multisets(allowed, target, max_len):
    """The enumerator as it was written on Fractions, kept as the oracle of the
    integer search: same depth-first walk, with no pruning but the size bound."""
    values = sorted(allowed, reverse=True)
    target = F(target)
    found = []

    def extend(prefix, start, remaining):
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


# Instances on which the Fraction walk visits many prefixes that cannot reach
# the target in the slots left.
LARGER_ENUMERATIONS = {
    "standard_b_2_to_9": (frozenset(F(b - 1, b) for b in range(2, 10)), F(3), 6),
    "standard_b_2_to_12": (frozenset(F(b - 1, b) for b in range(2, 13)), F(2), 4),
    "inverses_1_to_6": (frozenset(F(1, b) for b in range(1, 7)), F(2), 6),
}


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
        assert got == _fraction_multisets(allowed, target, max_len)

    @pytest.mark.parametrize("case", sorted(LARGER_ENUMERATIONS))
    def test_integer_search_costs_at_most_a_third_of_the_fraction_walk(self, case):
        args = LARGER_ENUMERATIONS[case]
        assert enumerate_boundary_multisets(*args) == _fraction_multisets(*args)
        walk = trace_events(_fraction_multisets, *args)
        search = trace_events(enumerate_boundary_multisets, *args)
        assert 3 * search <= walk, (search, walk)

    def test_ints_and_a_zero_target(self):
        assert enumerate_boundary_multisets({1, F(1, 2)}, 1, 2) == [(F(1, 2), F(1, 2)), (1,)]
        assert enumerate_boundary_multisets({F(1, 2)}, 0, 0) == [()]
        assert enumerate_boundary_multisets({F(1, 2)}, F(-1), 3) == []

    @pytest.mark.parametrize("allowed,max_len,message", [
        ({F(1, 2)}, -1, "max_len must be non-negative, got -1"),
        ({F(1, 2), F(0)}, 2, "allowed values must be positive"),
    ])
    def test_refuses_a_negative_size_or_value(self, allowed, max_len, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            enumerate_boundary_multisets(allowed, F(1), max_len)


class TestIndexLcm:
    @given(bs=st.lists(st.sampled_from([1, 2, 3, 4, 6]), max_size=6))
    def test_standard_small_b_divides_12(self, bs):
        coeffs = [standard_coeff(b) for b in bs]
        assert 12 % math.lcm(*(c.denominator for c in coeffs)) == 0


class TestJsonReaders:
    def test_array_refuses_a_string(self):
        with pytest.raises(TypeError, match="^special must be an array, got 'ab'$"):
            json_array("ab", "special")

    @pytest.mark.parametrize("data,key", [
        ({"b": True}, "b"), ({"b": 2.0}, "b"), ({"k": True}, "k"), ({"k": 1.5}, "k"),
    ])
    def test_int_refuses_a_bool_or_float(self, data, key):
        with pytest.raises(TypeError, match=rf"^{key} must be an integer, got {data[key]}$"):
            json_int(data, key)


class TestParseRational:
    """A plain ASCII digit string is read by ``int``; every other literal by
    the regex and ``Fraction``'s parser, which stay the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="0123456789", min_size=1, max_size=MAX_LITERAL_DIGITS))
    @example("0" * MAX_LITERAL_DIGITS)
    @example("0" * (MAX_LITERAL_DIGITS - 1) + "7")
    @example("9" * MAX_LITERAL_DIGITS)
    def test_a_digit_string_reads_as_fraction_reads_it(self, text):
        value = parse_rational(text)
        assert type(value) is F and value == F(text)

    def test_the_longest_digit_string_answers_and_one_more_digit_is_refused(self):
        assert parse_rational("1" + "0" * (MAX_LITERAL_DIGITS - 1)) == 10 ** (MAX_LITERAL_DIGITS - 1)
        text = "1" + "0" * MAX_LITERAL_DIGITS
        with pytest.raises(ParseError) as refused:
            parse_rational(text)
        assert str(refused.value) == f"rational literal {text!r} exceeds {MAX_LITERAL_DIGITS} digits"

    @pytest.mark.parametrize("text,value", [("-0", F(0)), ("+7", F(7)), ("٣", F(3)),
                                            (" 7", F(7)), ("7_0", F(70)), ("007/014", F(1, 2))])
    def test_a_signed_spaced_or_non_ascii_literal_keeps_its_value(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["", "7 8", "²", "1/0"])
    def test_an_unreadable_literal_keeps_its_message(self, text):
        with pytest.raises(ParseError) as refused:
            parse_rational(text)
        if text == "1/0":
            assert str(refused.value) == "Fraction(1, 0)"
        else:
            assert str(refused.value) == f"Invalid literal for Fraction: {text!r}"


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


class TestLabelParameters:
    @pytest.mark.parametrize("kind,b,message", [
        ("I", True, "I_b needs b >= 1"), ("I", 3.0, "I_b needs b >= 1"),
        ("I*", False, "I\\*_b needs b >= 0"), ("I*", True, "I\\*_b needs b >= 0"),
    ])
    def test_kodaira_label_refuses_a_bool_or_float_b(self, kind, b, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            KodairaLabel(kind, b)

    @pytest.mark.parametrize("kind,b,k,message", [
        ("II-3", True, True, "b must be a positive integer or INFINITY, got True"),
        ("I-1", True, None, "b must be a positive integer or INFINITY, got True"),
        ("I-2", 2.0, None, "b must be a positive integer or INFINITY, got 2.0"),
        ("II-3", 2, True, "kind II-3 needs a chain length k >= 1"),
        ("II-3", INFINITY, 1.0, "kind II-3 needs a chain length k >= 1"),
    ])
    def test_fibre_type_label_refuses_a_bool_or_float_parameter(self, kind, b, k, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            FibreTypeLabel(kind, b, k)


# Each record's integer fields, given a float or a bool.  Each one was
# truncated by int(), stored as given, or refused only later, in arithmetic.
BAD_INTEGER_FIELDS = {
    "PrimitiveVector": [lambda: PrimitiveVector(V1, 8, (3.7, 1, 3)),
                        lambda: PrimitiveVector(V1, 8, (True, 1, 3)),
                        lambda: PrimitiveVector(V1, 8.0, (3, 1, 3))],
    "ChiInput": [lambda: ChiInput(((1.7, 0, 0, 0),)),
                 lambda: ChiInput(((True, 0, 0, 0),)),
                 lambda: ChiInput(((1, 0, 0, 0),), corrections=((2.9, (F(1, 2),)),))],
    "FibreInvariants": [lambda: FibreInvariants(2.5, 0, 1, 0),
                        lambda: FibreInvariants(2, 0, True, 0)],
    "FibreComponentData": [lambda: FibreComponentData(1.5, 0),
                           lambda: FibreComponentData(True, 0)],
    "SectionConfig": [lambda: SectionConfig(0.5, ()),
                      lambda: SectionConfig(False, ()),
                      lambda: SectionConfig(0, (1.0,))],
    "CurveVertex": [lambda: CurveVertex("E", -2.5),
                    lambda: CurveVertex("E", -2, genus=True),
                    lambda: CurveVertex("E", -2, multiplicity=2.0)],
    "GermBoundaryData": [lambda: GermBoundaryData(2.5),
                         lambda: GermBoundaryData(True),
                         lambda: GermBoundaryData(2, {2: 1.0}),
                         lambda: GermBoundaryData(2, {2.0: 1})],
}


@pytest.mark.parametrize("record", sorted(BAD_INTEGER_FIELDS))
def test_integer_fields_refuse_a_bool_or_float(record):
    for build in BAD_INTEGER_FIELDS[record]:
        with pytest.raises(ValueError):
            build()


@example([])
@given(st.lists(st.integers(1, 40), max_size=8))
def test_quotient_defect_is_the_fraction_sum(orders):
    defect, lcm = quotient_defect(orders)
    assert lcm == math.lcm(*orders)
    assert F(defect, lcm) == sum((1 - F(1, o) for o in orders), F(0))


def test_quotient_defect_refuses_an_order_below_one():
    with pytest.raises(ValueError, match="^local group orders must be positive$"):
        quotient_defect([2, 0])


class TestKodairaLabelParse:
    @pytest.mark.parametrize("text", ["I_3_4", "I*_1_0", "I_+3", "I_ 3", "I_\u0663", "I_", "I_-1"])
    def test_b_only_in_ascii_digits(self, text):
        with pytest.raises(ValueError):
            KodairaLabel.parse(text)

    def test_a_b_past_the_literal_limit_is_refused_before_it_is_read(self):
        # int() would end in CPython's set_int_max_str_digits advice past 4300 digits
        assert KodairaLabel.parse("I_" + "9" * MAX_LITERAL_DIGITS).b == 10**MAX_LITERAL_DIGITS - 1
        for digits in (MAX_LITERAL_DIGITS + 1, 5000):
            with pytest.raises(ParseError, match=f"exceeds {MAX_LITERAL_DIGITS} digits$"):
                KodairaLabel.parse("I_" + "9" * digits)


# One instance of each value type in the package and its test oracles, with
# its repr as a frozen dataclass printed it (GermBoundaryData keeps k as pairs).
RECORDS = [
    (GermBoundaryData(2, {2: 1}), "GermBoundaryData(n=2, k=((2, 1),))"),
    (KodairaLabel("I", 3), "KodairaLabel(kind='I', b=3)"),
    (FibreTypeLabel("II-3", INFINITY, 2), "FibreTypeLabel(kind='II-3', b='INFINITY', k=2)"),
    (FibreInvariants(2, F(1, 2), 1, 0),
     "FibreInvariants(ell=2, mu=Fraction(1, 2), b=1, s=Fraction(0, 1))"),
    (PrimitiveVector(V1, 8, [3, 1, 3]), "PrimitiveVector(kind='V1', r=8, a=(3, 1, 3))"),
    (ABELIAN_TABLE_ROWS[0],
     "AbelianTableRow(number=1, table='VI', vector=PrimitiveVector(kind='V1', r=3, a=(1, 0, 1)), "
     "mu_num=1, den=1, s_offset=2, divisor=3)"),
    (RegeneratedRow(ABELIAN_TABLE_ROWS[0], ((3, F(1, 3), F(1, 3), F(1, 3), F(1, 3)),), True),
     "RegeneratedRow(row=AbelianTableRow(number=1, table='VI', vector=PrimitiveVector(kind='V1', "
     "r=3, a=(1, 0, 1)), mu_num=1, den=1, s_offset=2, divisor=3), evaluations=((3, "
     "Fraction(1, 3), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),), divisibility_ok=True)"),
    (DuValType("D", 5), "DuValType(family='D', index=5)"),
    (CoverCase(2, r=4, n=3), "CoverCase(case_id=2, r=4, n=3)"),
    (delpezzo_catalog()[0],
     "DelPezzoEntry(row=1, degree=8, singularities=(DuValType(family='A', index=1),), "
     "e_orb=Fraction(5, 2))"),
    (FibreComponentData(2, 1, [F(1, 2)]),
     "FibreComponentData(m=2, e_orb=Fraction(1, 1), deltas=(Fraction(1, 2),))"),
    (ChiInput([(1, 1, 0, 0)]),
     "ChiInput(components=((1, Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)),), "
     "total_D_cubed=Fraction(0, 1), total_D_sq_K=Fraction(0, 1), corrections=())"),
    (CurveVertex("E1", -2, boundary_coeff=F(1, 2), role=STRICT),
     "CurveVertex(id='E1', self_int=-2, genus=0, multiplicity=1, boundary_coeff=Fraction(1, 2), "
     "role='STRICT')"),
    (TypRecord((FibreTypeLabel("II-1", 2), FibreTypeLabel("I-1", 3)), FibreTypeLabel("I-1", 1)),
     "TypRecord(special=(FibreTypeLabel(kind='I-1', b=3, k=None), FibreTypeLabel(kind='II-1', "
     "b=2, k=None)), generic=FibreTypeLabel(kind='I-1', b=1, k=None))"),
    (SectionConfig(1, [0, 2]), "SectionConfig(po=1, hits=(0, 2))"),
    (Report("cbf", {"x": 1}, [("N", "2")], "OK"),
     "Report(command='cbf', inputs={'x': 1}, results=[('N', '2')], status='OK')"),
]


def test_records_cover_every_value_type():
    assert {type(record) for record, _ in RECORDS} == set(Record.__subclasses__())
    assert len(RECORDS) == 16


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_value_semantics(record, text):
    cls = type(record)
    # the fields are the constructor's parameters, stored in their order
    code = cls.__init__.__code__
    fields = code.co_varnames[1:code.co_argcount]
    assert repr(record) == text
    assert list(vars(record)) == list(fields)
    values = tuple(vars(record).values())
    twin = replace(record)  # keyword construction from the fields
    assert twin is not record and twin == record and not twin != record
    try:
        expected = hash(values)
    except TypeError:  # a dict or list field
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected
    # the same fields and values under another class are a different value
    other = object.__new__(type(cls.__name__, (Record,), {}))
    other.__dict__.update(vars(record))
    assert record.__eq__(other) is NotImplemented
    assert record != other and not record == other
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    for name in (fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert vars(record) == dict(zip(fields, values))


def test_keyword_construction_takes_the_defaults():
    assert GermBoundaryData(n=3) == GermBoundaryData(3, {})
    assert KodairaLabel(kind="II") == KodairaLabel("II", None)
    assert FibreTypeLabel(kind="I-1", b=2) == FibreTypeLabel("I-1", 2, None)
    assert CoverCase(case_id=4, r=3) == CoverCase(4, 3, None)
    assert FibreComponentData(m=1, e_orb=2) == FibreComponentData(1, 2, ())
    assert ChiInput(components=[(1, 1, 0, 0)]) == ChiInput(((1, 1, 0, 0),), 0, 0, ())
    assert CurveVertex(id="E", self_int=-2) == CurveVertex("E", -2, 0, 1, F(0), EXCEPTIONAL)


def test_germ_data_equal_up_to_zero_counts_compare_and_hash_alike():
    first, second = GermBoundaryData(1, {2: 1}), GermBoundaryData(1, {2: 1, 3: 0})
    assert first == second and hash(first) == hash(second)
    assert GermBoundaryData(2, {5: 1, 2: 1}) == GermBoundaryData(2, {2: 1, 5: 1})
    assert GermBoundaryData(2) == GermBoundaryData(2, {2: 0}) != GermBoundaryData(2, {2: 1})
    assert len({first, second, GermBoundaryData(1)}) == 2
