"""Exact piecewise-polynomial algebra on the reference tetrahedron, on integer numerators."""

from .poincare import flux_potential, potential_table, scalar_potential, vector_potential
from .spaces import (
    IntegerFields,
    derivative_table,
    dim_poly,
    integer_rref,
    monomial_exponents,
    rank,
)
from .split import (
    INTERNAL_FACES,
    PARENT_FACE_VERTICES,
    REF_CENTER,
    REF_VERTICES,
    SUBTET_VERTICES,
    piecewise_poincare2,
    pullback_table,
    subtet_moment_table,
)

__all__ = [
    "IntegerFields",
    "scalar_potential",
    "vector_potential",
    "flux_potential",
    "potential_table",
    "piecewise_poincare2",
    "monomial_exponents",
    "dim_poly",
    "rank",
    "integer_rref",
    "pullback_table",
    "subtet_moment_table",
    "derivative_table",
    "REF_VERTICES",
    "REF_CENTER",
    "SUBTET_VERTICES",
    "INTERNAL_FACES",
    "PARENT_FACE_VERTICES",
]
