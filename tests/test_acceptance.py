"""Acceptance gate: one test per shipped guarantee, in a fixed order.

Each test restates its oracle inline rather than importing the library's
own literals, so a regression in the code cannot hide behind a regression
in the data.
"""

import subprocess
import sys
from fractions import Fraction as Rational
from math import gcd, prod
from pathlib import Path
from time import perf_counter

import pytest

from logdgen.cbf import (
    C_STAR_VALUES,
    elliptic_table,
    fibre_bound,
    n_of_x,
    regenerate_table_vi_vii,
    sp_order,
)
from logdgen.core import classical_euler, enumerate_boundary_multisets
from logdgen.dualgraph import (
    KodairaLabel,
    configuration_euler,
    duval_graph,
    kodaira_graph,
    recognize_duval,
    recognize_kodaira,
)
from logdgen.duval import (
    CoverCase,
    DuValType,
    c_p,
    delpezzo_catalog,
    delta_p,
    e_p,
    o_p,
    recompute_e_orb,
)
from logdgen.eulerform import rr_correction_sum
from logdgen.fibration import TypRecord, check_typ
from logdgen.graph import LT, classify_pair, pullback_coefficients
from logdgen.mordellweil import (
    SectionConfig,
    contribution,
    height_self,
    pair_contribution,
    solve_section_config,
)
from test_cbf import sp_order_bruteforce
from test_dualgraph import half_catalog_minimal_graph
from test_fibration import LC_BOUNDARY_CONFIGS, ZERO_EULER_CONFIGS
from test_mordellweil import height_pair

_T0 = perf_counter()


def _cover_grid():
    """Every covering case with its four invariants in closed form."""
    R = Rational
    rows = []
    for r in range(2, 13):
        for n in range(1, 7):
            rows.append((CoverCase(1, r=r, n=n),
                         r * n, r * n, R(n * (r * r - 1), r), R(n * n - 1, r * n)))
    for n in range(2, 9):
        rows.append((CoverCase(2, r=4, n=n),
                     2 * n + 2, 8 * n - 4, R(3 * (2 * n + 3), 4), R(n * (n - 1), 2 * n - 1)))
    for n in range(2, 9):
        rows.append((CoverCase(3, r=2, n=n),
                     n + 3, 4 * n, R(3), R(4 * n * n - 1, 4 * n)))
    rows.append((CoverCase(4, r=3), 7, 24, R(16, 3), R(13, 8)))
    for n in range(3, 9):
        rows.append((CoverCase(5, r=2, n=n),
                     2 * n + 1, 8 * (n - 1), R(3 * n, 2), R(4 * n * n + 4 * n - 9, 8 * (n - 1))))
    rows.append((CoverCase(6, r=2), 8, 48, R(9, 2), R(167, 48)))
    return rows


def test_criterion_01_cover_invariants_regenerate():
    start = perf_counter()
    for cover, e, o, c, d in _cover_grid():
        assert e_p(cover) == e, cover
        assert o_p(cover) == o, cover
        assert c_p(cover) == c, cover
        assert delta_p(cover) == d, cover
    assert perf_counter() - start < 1.0


def test_criterion_02_local_excess_nonnegative_with_known_zeros():
    for cover, *_ in _cover_grid():
        d = delta_p(cover)
        assert d >= 0, cover
        assert (d == 0) == (cover.case_id == 1 and cover.n == 1), cover


@pytest.mark.xfail(
    strict=True,
    reason="one catalog entry prints 65/48 where the orbifold Euler number "
    "recomputes to 17/48; every other entry agrees",
)
def test_criterion_03_delpezzo_catalog_regenerates():
    for entry in delpezzo_catalog():
        assert recompute_e_orb(entry.degree, entry.singularities) == entry.e_orb, entry.row


def test_criterion_03_companion_all_rows_but_the_known_one():
    entries = delpezzo_catalog()
    assert len(entries) == 27
    for entry in entries:
        recomputed = recompute_e_orb(entry.degree, entry.singularities)
        if entry.row == 17:
            assert entry.e_orb == Rational(65, 48)
            assert recomputed == Rational(17, 48)
        else:
            assert recomputed == entry.e_orb, entry.row


def test_criterion_04_twist_correction_sum_identity():
    start = perf_counter()
    for r in range(2, 51):
        for a in range(1, r):
            if gcd(a, r) != 1:
                continue
            for m in (r, 2 * r, 3 * r):
                assert rr_correction_sum(r, a, m) == Rational(-m * (r * r - 1), 12 * r)
    assert perf_counter() - start < 10.0


def test_criterion_05_elliptic_fibre_invariant_columns():
    R = Rational
    for m in (1, 2, 3, 5):
        inv = elliptic_table(KodairaLabel("I", 1), m=m)
        assert (inv.ell, inv.mu, inv.s) == (m, 0, R(m - 1, m))
    fixed = {
        "I*_b": (2, R(0), R(1, 2)),
        "II": (6, R(2, 3), R(1, 6)),
        "III": (4, R(1, 2), R(1, 4)),
        "IV": (3, R(1, 3), R(1, 3)),
        "IV*": (3, R(0), R(2, 3)),
        "III*": (4, R(0), R(3, 4)),
        "II*": (6, R(0), R(5, 6)),
    }
    for column, (ell, mu, s) in fixed.items():
        label = KodairaLabel("I*", 0) if column == "I*_b" else KodairaLabel(column)
        inv = elliptic_table(label)
        assert (inv.ell, inv.mu, inv.s) == (ell, mu, s), column


def test_criterion_06_abelian_fibre_tables_regenerate():
    rows = regenerate_table_vi_vii()
    assert len(rows) == 27
    assert len(C_STAR_VALUES) == 13
    for row in rows:
        assert row.divisibility_ok, row.row.number
        for _, mu, mu_tab, s, s_tab in row.evaluations:
            assert (mu, s) == (mu_tab, s_tab), row.row.number
        assert tuple(ell for ell, *_ in row.evaluations) == (
            row.row.vector.r,
            2 * row.row.vector.r,
        )
        assert row.row.c_star() in C_STAR_VALUES, row.row.number


def test_criterion_07_boundary_multisets_and_record_checker():
    R = Rational
    allowed = {R(1, 2), R(2, 3), R(3, 4), R(5, 6)}
    # four halves already saturate the target, so length 4 is a full search
    got = enumerate_boundary_multisets(allowed, R(2), 4)
    assert got == [
        (R(1, 2), R(1, 2), R(1, 2), R(1, 2)),
        (R(2, 3), R(2, 3), R(2, 3)),
        (R(3, 4), R(3, 4), R(1, 2)),
        (R(5, 6), R(2, 3), R(1, 2)),
    ]
    assert len(ZERO_EULER_CONFIGS) == 22
    assert len(LC_BOUNDARY_CONFIGS) == 3
    for tag, special, generic, profile in ZERO_EULER_CONFIGS + LC_BOUNDARY_CONFIGS:
        assert check_typ(TypRecord(special, generic), profile), tag


def test_criterion_08_dual_graph_solver_and_recognizers():
    duval_types = [DuValType("A", n) for n in range(1, 9)]
    duval_types += [DuValType("D", n) for n in range(4, 9)]
    duval_types += [DuValType("E", n) for n in (6, 7, 8)]
    for t in duval_types:
        g = duval_graph(t)
        assert all(v == 0 for v in pullback_coefficients(g).values()), t
        assert recognize_duval(g) == t

    # chain-length parameter k only applies where the figure has a chain
    half_grid = [("gamma", (0,)), ("delta", (0, 1, 2)), ("epsilon", (0, 1, 2)),
                 ("zeta", (1, 2)), ("D-gamma", (0,)), ("D-delta", (0, 1, 2)),
                 ("D-epsilon", (0, 1, 2))]
    for family, ks in half_grid:
        for k in ks:
            g = half_catalog_minimal_graph(family, k)
            coeffs = pullback_coefficients(g)
            assert all(v == Rational(1, 2) for v in coeffs.values()), (family, k)
            assert classify_pair(g) == LT, (family, k)

    labels = [KodairaLabel("SMOOTH")]
    labels += [KodairaLabel("I", b) for b in range(1, 10)]
    labels += [KodairaLabel(kind) for kind in ("II", "III", "IV", "IV*", "III*", "II*")]
    labels += [KodairaLabel("I*", b) for b in range(0, 5)]
    classical = {"SMOOTH": 0, "II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}
    for label in labels:
        g = kodaira_graph(label)
        assert recognize_kodaira(g) == label
        if label.kind == "I":
            expected = label.b
        elif label.kind == "I*":
            expected = 6 + label.b
        else:
            expected = classical[label.kind]
        assert classical_euler(label) == expected, label
        assert configuration_euler(g) == expected, label


def test_criterion_09_section_heights_and_configurations():
    istar, cusp, cycle = KodairaLabel("I*", 1), KodairaLabel("II"), KodairaLabel("I", 3)
    fibres = [(istar, 6), (cusp, 1), (cycle, 3)]

    qq = height_self(1, 0, [contribution(istar, 2), contribution(cusp, 0),
                            contribution(cycle, 0)])
    assert qq == Rational(3, 4)
    pp = height_self(1, 0, [contribution(istar, 2), contribution(cusp, 0),
                            contribution(cycle, 1)])
    assert pp == Rational(1, 12)
    # both sections land on the same far component of the I*_1 fibre
    pq = height_pair(1, 0, 0, 0, [pair_contribution(istar, 2, 2),
                                  pair_contribution(cusp, 0, 0),
                                  pair_contribution(cycle, 1, 0)])
    assert pq == Rational(-1, 4)

    assert solve_section_config(Rational(3, 4), fibres, chi=1, po_max=2) == [
        SectionConfig(po=0, hits=(2, 0, 0)),
        SectionConfig(po=0, hits=(3, 0, 0)),
    ]
    assert solve_section_config(Rational(1, 12), fibres, chi=1, po_max=2) == [
        SectionConfig(po=0, hits=(2, 0, 1)),
        SectionConfig(po=0, hits=(2, 0, 2)),
        SectionConfig(po=0, hits=(3, 0, 1)),
        SectionConfig(po=0, hits=(3, 0, 2)),
    ]


def test_criterion_10_totients_group_orders_and_the_bound():
    assert n_of_x(1) == 2
    assert n_of_x(2) == 12
    assert n_of_x(21) % 12 == 0
    for g, q in ((1, 2), (1, 3), (1, 5), (2, 2)):
        assert sp_order(g, q) == sp_order_bruteforce(g, q), (g, q)
    expected = 16 * 3 ** 256 * prod(3 ** (2 * i) - 1 for i in range(1, 17))
    assert fibre_bound(1, 1) == expected


def test_criterion_11_whole_suite_stays_fast():
    # the other test modules run in a child interpreter; their wall time
    # plus this module's own elapsed time brackets a full-suite run
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--ignore", str(Path(__file__).resolve())],
        cwd=Path(__file__).resolve().parent.parent,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stdout[-2000:]
    assert perf_counter() - _T0 < 60.0
