"""Exact-arithmetic invariants of degenerating surfaces and their fibrations.

Everything is computed over the rationals with stdlib ``fractions.Fraction``;
no floating point is used anywhere.  The subpackages:

- ``core``: standard-boundary coefficients, different multiplicities,
  multiset enumeration, index lcm, and the Kodaira and marked fibre-type
  labels.
- ``duval``: Du Val singularity data, the six index-r canonical-cover cases,
  the covering defect ``delta_p``, and the rank-one Gorenstein log del Pezzo
  catalog.
- ``dualgraph``: weighted dual graphs, the log-pullback solver, blow-downs,
  and recognizers (Du Val, elliptic fibre types, the index-two half-point
  catalog, conic-fibre types).
- ``eulerform``: Riemann-Roch corrections and the Euler-number formula for
  a degenerate fibre, plus the rational-surface numerology helpers.
- ``cbf``: canonical-bundle-formula coefficients (elliptic and abelian),
  the totient-lcm bound, symplectic group orders, and the singular-fibre
  bound.
- ``mordellweil``: local correction terms and height pairings of sections
  of an elliptic surface, and the exhaustive section-configuration solver.
- ``fibration``: fibre-type bookkeeping for boundary budgets and the
  catalog of admissible fibre configurations.
"""

from fractions import Fraction as Rational

__version__ = "0.1.0"

__all__ = ["Rational", "__version__"]
