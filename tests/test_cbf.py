"""Canonical bundle formula invariants, tables, and the fibre-count bound.

Oracles here are deliberately independent of the implementation: the
totient oracle counts coprime residues directly, the symplectic orders are
counted by enumerating matrices that preserve the form, and the table
literals are frozen copies.
"""

from fractions import Fraction as F
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logdgen.cbf import (
    ABELIAN_TABLE_ROWS,
    C_STAR_VALUES,
    INFEASIBLE,
    V1,
    V2,
    FibreInvariants,
    PrimitiveVector,
    abelian_invariants,
    elliptic_table,
    elliptic_table_rows,
    fibre_bound,
    mori_feasible,
    mu_star,
    n_of_x,
    regenerate_table_vi_vii,
    s_star,
    sp_order,
    validate_fibre_invariants,
)
from logdgen.cbf import _totient
from logdgen.core import MAX_ANSWER_DIGITS
from logdgen.dualgraph import KodairaLabel
from logdgen.tables import _check_tables_abelian
from test_core import replace


def phi_oracle(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def n_of_x_oracle(x: int) -> int:
    hits = [n for n in range(1, 2 * x * x + 5) if phi_oracle(n) <= x]
    return lcm(*hits)


class TestSStar:
    def test_spec_examples(self):
        assert s_star(1, 1, 0) == 0
        assert s_star(1, 6, F(2, 3)) == F(1, 6)
        for m in (1, 2, 3, 5):
            assert s_star(1, m, 0) == F(m - 1, m)

    def test_negative_mu_rejected(self):
        with pytest.raises(ValueError):
            s_star(1, 2, F(-1, 3))


# Frozen copy of the elliptic table: kind -> (ell*, mu*, s*).
ELLIPTIC_EXPECTED = {
    "I*_0": (2, F(0), F(1, 2)),
    "I*_3": (2, F(0), F(1, 2)),
    "II": (6, F(2, 3), F(1, 6)),
    "II*": (6, F(0), F(5, 6)),
    "III": (4, F(1, 2), F(1, 4)),
    "III*": (4, F(0), F(3, 4)),
    "IV": (3, F(1, 3), F(1, 3)),
    "IV*": (3, F(0), F(2, 3)),
}


class TestEllipticTable:
    @pytest.mark.parametrize("text,expected", sorted(ELLIPTIC_EXPECTED.items()))
    def test_columns(self, text, expected):
        inv = elliptic_table(KodairaLabel.parse(text))
        assert (inv.ell, inv.mu, inv.s) == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_multiple_fibre_column(self, m):
        inv = elliptic_table(KodairaLabel("I", 4), m)
        assert (inv.ell, inv.mu, inv.s) == (m, 0, F(m - 1, m))
        smooth = elliptic_table(KodairaLabel("SMOOTH"), m)
        assert (smooth.ell, smooth.mu, smooth.s) == (m, 0, F(m - 1, m))

    def test_s_consistent_with_formula(self):
        for text in ELLIPTIC_EXPECTED:
            inv = elliptic_table(KodairaLabel.parse(text))
            assert inv.s == s_star(inv.b, inv.ell, inv.mu)
            assert validate_fibre_invariants(inv)

    def test_elliptic_c_star_values(self):
        # ell* x mu* over the whole elliptic table.
        seen = {F(0)}
        for text in ELLIPTIC_EXPECTED:
            inv = elliptic_table(KodairaLabel.parse(text))
            seen.add(inv.ell * inv.mu)
        for m in (1, 2, 3, 5):
            inv = elliptic_table(KodairaLabel("I", 1), m)
            seen.add(inv.ell * inv.mu)
        assert seen == {F(0), F(1), F(2), F(4)}

    def test_multiplicity_restricted_to_i_column(self):
        with pytest.raises(ValueError):
            elliptic_table(KodairaLabel("II"), 2)


class TestMuStar:
    def test_spec_examples(self):
        for ell in (3, 6, 24):
            assert mu_star(PrimitiveVector(V1, 8, (3, 1, 3)), ell) == F(1, 3 * ell)
            assert mu_star(PrimitiveVector(V2, 4, (1, 1, 1)), ell) == F(1, 2 * ell)
            assert mu_star(PrimitiveVector(V1, 3, (1, 0, 1)), ell) == F(1, ell)

    def test_vector_validation(self):
        with pytest.raises(ValueError):
            PrimitiveVector(V1, 4, (1, 1, 2))  # gcd(4, 2) = 2
        with pytest.raises(ValueError):
            PrimitiveVector(V2, 4, (2, 1, 1))  # sum not below r
        with pytest.raises(ValueError):
            PrimitiveVector(V1, 3, (0, -1, 1))
        with pytest.raises(ValueError):
            PrimitiveVector("V3", 3, (1, 0, 1))

    def test_zero_denominator(self):
        v = PrimitiveVector(V2, 5, (0, 0, 1))
        with pytest.raises(ValueError):
            mu_star(v, 5)


class TestAbelianTable:
    def test_row_count_and_numbering(self):
        assert [row.number for row in ABELIAN_TABLE_ROWS] == list(range(1, 28))
        assert sum(row.table == "VI" for row in ABELIAN_TABLE_ROWS) == 20
        assert sum(row.table == "VII" for row in ABELIAN_TABLE_ROWS) == 7

    def test_all_rows_regenerate(self):
        # the tables builder compares every regenerated row with its closed forms
        assert len(regenerate_table_vi_vii()) == 27
        built = _check_tables_abelian()
        assert [len(built[name][0]) for name in ("VI", "VII")] == [40, 14]
        assert built["VI"][1] == built["VII"][1] == []

    def test_spot_rows(self):
        by_number = {row.number: row for row in ABELIAN_TABLE_ROWS}
        r20 = by_number[20]
        assert (r20.vector.r, r20.vector.a) == (12, (3, 2, 5))
        assert r20.mu_at(12) == F(2, 60) and r20.s_at(12) == F(53, 60)
        r26 = by_number[26]
        assert (r26.vector.kind, r26.vector.a) == (V2, (1, 2, 1))
        assert r26.mu_at(6) == F(2, 18) and r26.s_at(6) == F(13, 18)
        r1 = by_number[1]
        assert mu_star(r1.vector, 3) == F(1, 3)
        assert s_star(1, 3, F(1, 3)) == F(1, 3)

    def test_c_star_set_is_exactly_the_thirteen_values(self):
        produced = {row.c_star() for row in ABELIAN_TABLE_ROWS}
        assert produced == set(C_STAR_VALUES)
        assert len(C_STAR_VALUES) == 13

    def test_divisibility_conditions_hold_at_samples(self):
        for check in regenerate_table_vi_vii():
            assert check.divisibility_ok
            for (ell, *_rest) in check.evaluations:
                assert ell % check.row.divisor == 0


class TestNOfX:
    def test_small_values_against_oracle(self):
        assert n_of_x(1) == 2
        assert n_of_x(2) == 12
        for x in range(1, 9):
            assert n_of_x(x) == n_of_x_oracle(x), x

    def test_occurring_indices_divide_n21(self):
        n21 = n_of_x(21)
        for index in (2, 3, 4, 6, 8, 12):
            assert n21 % index == 0

    def test_prime_power_closed_form(self):
        # phi(p^k m) >= phi(p^k) with equality at n = p^k, so the largest power
        # of p dividing the lcm is the largest p^k with phi(p^k) <= x.
        for x in range(1, 61):
            closed = 1
            for p in range(2, x + 2):
                if all(p % q for q in range(2, p)):
                    k = 1
                    while p**k * (p - 1) <= x:
                        k += 1
                    closed *= p**k
            assert n_of_x(x) == closed, x

    def test_monotone_divisibility_tower(self):
        values = [n_of_x(x) for x in range(1, 8)]
        for small, big in zip(values, values[1:]):
            assert big % small == 0


# A fibre's monodromy has a finite order acting on H^1 of the fibre, so its
# totient is at most the rank of H^1: 4 for an abelian surface and 2 for an
# elliptic curve.  n_of_x(x) is the lcm of every order with totient <= x.
def abelian_indices_within_the_totient_bound(rows) -> bool:
    """Whether the rows' indices r are exactly the n >= 3 with phi(n) <= 4, each one used."""
    bounded = {n for n in range(3, 2 * 4 * 4 + 1) if _totient(n) <= 4}
    return {row.vector.r for row in rows} == bounded


class TestTotientBound:
    def test_abelian_indices_are_the_orders_with_totient_at_most_four(self):
        assert abelian_indices_within_the_totient_bound(ABELIAN_TABLE_ROWS)
        indices = {row.vector.r for row in ABELIAN_TABLE_ROWS}
        assert indices == {n for n in range(3, 13) if phi_oracle(n) <= 4}
        assert lcm(*indices) == n_of_x(4) == 120

    @pytest.mark.parametrize("r", [7, 9])
    @pytest.mark.parametrize("number", [1, 21])  # the first rows of tables VI and VII
    def test_a_row_tampered_off_the_bound_fails(self, r, number):
        rows = list(ABELIAN_TABLE_ROWS)
        i = number - 1
        rows[i] = replace(rows[i], vector=replace(rows[i].vector, r=r))
        assert not abelian_indices_within_the_totient_bound(rows)

    def test_elliptic_twists_divide_n_of_two(self):
        # the multiple-fibre column takes ell = m, outside the bound
        twists = {inv.ell for column, _, _, inv in elliptic_table_rows() if column != "_mI_b"}
        assert twists == {2, 3, 4, 6}
        for ell in twists:
            assert _totient(ell) <= 2 and n_of_x(2) % ell == 0, ell
        assert n_of_x(2) == 12


def sp_order_bruteforce(g: int, q: int) -> int:
    """Count 2g x 2g matrices over F_q with M^T J M = J, by enumeration."""
    n = 2 * g
    j = [[0] * n for _ in range(n)]
    for i in range(g):
        j[i][g + i] = 1
        j[g + i][i] = q - 1  # -1 mod q
    vectors = list(product(range(q), repeat=n))

    def form(x, y):
        return sum(x[i] * j[i][k] * y[k] for i in range(n) for k in range(n)) % q

    count = 0
    # Depth-first over column tuples, pruning on the form constraints.
    stack = [((), 0)]
    while stack:
        cols, depth = stack.pop()
        if depth == n:
            count += 1
            continue
        for v in vectors:
            if all(form(cols[i], v) == j[i][depth] for i in range(depth)):
                stack.append((cols + (v,), depth + 1))
    return count


class TestSpOrder:
    @pytest.mark.parametrize("g,q", [(1, 2), (1, 3), (1, 5), (2, 2)])
    def test_against_bruteforce(self, g, q):
        assert sp_order(g, q) == sp_order_bruteforce(g, q)

    def test_known_values(self):
        assert sp_order(1, 2) == 6
        assert sp_order(1, 3) == 24
        assert sp_order(2, 2) == 720

    def test_prime_check(self):
        with pytest.raises(ValueError):
            sp_order(1, 4)


class TestFibreBound:
    def test_exact_value(self):
        expected = 16 * 3 ** 256
        for i in range(1, 17):
            expected *= 3 ** (2 * i) - 1
        assert fibre_bound(1, 1) == expected

    def test_linearity(self):
        base = fibre_bound(1, 1)
        assert fibre_bound(2, 1) == 2 * base
        assert fibre_bound(1, 5) == 5 * base

    def test_validation(self):
        with pytest.raises(ValueError):
            fibre_bound(0, 1)

    def test_a_bound_past_the_printable_digits_is_refused(self):
        largest = (10**MAX_ANSWER_DIGITS - 1) // fibre_bound(1, 1)
        assert len(str(fibre_bound(largest, 1))) == MAX_ANSWER_DIGITS
        message = f"^the bound has more than {MAX_ANSWER_DIGITS} digits$"
        with pytest.raises(ValueError, match=message):
            fibre_bound(largest + 1, 1)


CEILING = 10**MAX_ANSWER_DIGITS


# Each kernel's refused call, and the same call an order of magnitude smaller,
# which is answered.
@pytest.mark.parametrize("kernel,refused,answered,name", [
    (mori_feasible, (0, 1, CEILING), (0, 1, CEILING // 10), "v"),
    (mori_feasible, (1 - F(1, CEILING), 1, 1), (1 - F(1, CEILING // 10), 1, 1), "u"),
    (abelian_invariants, (PrimitiveVector(V1, 2, (0, 0, 1)), CEILING),
     (PrimitiveVector(V1, 2, (0, 0, 1)), CEILING // 10), "mu\\*"),
    (abelian_invariants, (PrimitiveVector(V1, CEILING + 1, (0, 0, 1)), CEILING),
     (PrimitiveVector(V1, CEILING // 10 + 1, (0, 0, 1)), CEILING // 10), "s\\*"),
], ids=["mori_v", "mori_u", "mu_star", "s_star"])
def test_answers_past_the_printable_digits_are_refused(kernel, refused, answered, name):
    with pytest.raises(ValueError, match=f"^{name} has more than {MAX_ANSWER_DIGITS} digits$"):
        kernel(*refused)
    assert kernel(*answered) != INFEASIBLE


class TestMoriFeasible:
    def test_spec_examples(self):
        assert mori_feasible(F(1, 2), 1, 12) == (1, 6)
        assert mori_feasible(F(4, 5), 1, 12) == (5, 12)
        assert mori_feasible(F(0), 1, 12) == (1, 12)

    def test_infeasible_case(self):
        # v = 2u(1 - 1/7) = 12u/7 needs u = 7, but then v = 12 > bN = 2.
        assert mori_feasible(F(1, 7), 1, 2) == INFEASIBLE

    def test_v_always_in_range(self):
        for num in range(0, 12):
            s = F(num, 12)
            result = mori_feasible(s, 1, 12)
            if result != INFEASIBLE:
                u, v = result
                assert u >= 1 and 0 < v <= 12
                assert F(12 * u - v, 12 * u) == s

    def test_s_domain_enforced(self):
        with pytest.raises(ValueError):
            mori_feasible(F(3, 2), 1, 12)

    def test_huge_denominator_answers_at_once(self):
        # The search loop would try up to 99999999 values of u here.
        assert mori_feasible(F(1, 99999999), 1, 1) == INFEASIBLE
        assert mori_feasible(F(1, 99999999), 1, 99999999) == (1, 99999998)


def mori_search(s, b, big_n):
    """Oracle: the smallest u up to b*N*denominator(s) with v integral and in range."""
    for u in range(1, b * big_n * s.denominator + 1):
        v = big_n * u * (b - s)
        if v.denominator == 1 and 0 < v <= b * big_n:
            return (u, int(v))
    return INFEASIBLE


@settings(max_examples=300, deadline=None)
@given(q=st.integers(1, 30), b=st.integers(1, 4), big_n=st.integers(1, 12), data=st.data())
def test_mori_closed_form_matches_the_search(q, b, big_n, data):
    s = F(data.draw(st.integers(0, b * q - 1)), q)
    assert mori_feasible(s, b, big_n) == mori_search(s, b, big_n)


class TestValidateFibreInvariants:
    def test_spec_examples(self):
        assert validate_fibre_invariants(FibreInvariants(1, F(0), 1, F(0)))
        assert not validate_fibre_invariants(FibreInvariants(2, F(1, 2), 1, F(0)))
        assert validate_fibre_invariants(FibreInvariants(6, F(2, 3), 1, F(1, 6)))

    def test_wrong_s_value(self):
        assert not validate_fibre_invariants(FibreInvariants(6, F(2, 3), 1, F(1, 3)))

    def test_table_rows_validate(self):
        for row in ABELIAN_TABLE_ROWS:
            ell = row.vector.r * row.divisor
            mu = mu_star(row.vector, ell)
            inv = FibreInvariants(ell, mu, 1, s_star(1, ell, mu))
            assert validate_fibre_invariants(inv), row
