"""Exact-arithmetic invariants of degenerating surfaces and their fibrations.

Everything is computed over the rationals with stdlib ``fractions.Fraction``;
no floating point is used anywhere.  The modules:

- ``core``: exact rationals, standard-boundary coefficients, multiset
  enumeration, the strict JSON readers, the literal and answer size bounds,
  the orbifold Euler formula, and the Kodaira and marked fibre-type labels.
- ``duval``: Du Val singularity data, the six index-r canonical-cover cases,
  the covering defect ``delta_p``, and the rank-one Gorenstein log del Pezzo
  catalog.
- ``graph``: weighted dual graphs and their JSON reader, the exact
  intersection-matrix solvers, the log-pullback solver and pair classifier,
  and blow-downs.
- ``dualgraph``: the recognizers (Du Val, elliptic fibre types, the
  index-two half-point catalog, conic-fibre types) and their catalog
  builders; it re-exports the solvers and reader of ``graph``.
- ``eulerform``: Riemann-Roch corrections, the Euler-number formula for a
  degenerate fibre, and Noether's equality.
- ``cbf``: canonical-bundle-formula coefficients (elliptic and abelian),
  the totient-lcm bound, symplectic group orders, and the singular-fibre
  bound.
- ``mordellweil``: local correction terms and canonical heights of sections
  of an elliptic surface, and the exhaustive section-configuration solver.
- ``fibration``: the germ calculus (different multiplicities m_p) and
  fibre-type bookkeeping for boundary budgets and the catalog of
  admissible fibre configurations.
- ``cli`` and ``tables``: the command line; ``tables`` holds the table
  builders and their cross-checks, which only the ``tables`` command loads.
"""

from fractions import Fraction as Rational

__version__ = "0.1.0"

__all__ = ["Rational", "__version__"]
