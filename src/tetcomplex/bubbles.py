"""Bubble fields on the reference Alfeld split.

Three constructions, all exact rational:

- continuous piecewise-polynomial spaces on the split (optionally with zero
  boundary trace), built as nullspaces of interface/boundary trace constraints;
- a local divergence solver: given a mean-zero piecewise polynomial target,
  produce a zero-trace continuous piecewise field with exactly that
  divergence (minimal H1-seminorm representative);
- the scalar cubic face bubbles, which ``elements.physical_face_bubble``
  corrects to a constant divergence with that solver, and interior bubbles
  whose divergences span the mean-corrected two-layer polynomial spaces.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .polyalg.poly import Polynomial, VectorField, _det3, grad, integrate_unit_simplex
from .polyalg.spaces import (
    Embedding,
    layered_mean_zero_basis,
    monomial_exponents,
    nullspace,
    rref,
)
from .polyalg.split import (
    INTERNAL_FACES,
    PARENT_FACE_VERTICES,
    REF_CENTER,
    REF_VERTICES,
    PiecewiseField,
    as_piecewise,
    face_param,
    subtet_affine,
)

_log = logging.getLogger("tetcomplex.bubbles")

# scalar face bubbles B_i = prod_{j != i} lambda_j on the reference cell
_X = [Polynomial.variable(i) for i in range(3)]
_LAMBDA = (
    Polynomial.constant(1) - _X[0] - _X[1] - _X[2],
    _X[0],
    _X[1],
    _X[2],
)


def scalar_face_bubble(i):
    out = Polynomial.constant(1)
    for j in range(4):
        if j != i:
            out = out * _LAMBDA[j]
    return out


@dataclass
class SplitC0Space:
    """Continuous piecewise-P_m space on the reference split (scalar basis)."""

    degree: int
    zero_trace: bool
    scalar_basis: list

    @property
    def dimension(self):
        return len(self.scalar_basis)

    def vector_basis(self):
        """Component-wise vector basis (3 x scalar dimension fields)."""
        out = []
        for phi in self.scalar_basis:
            for c in range(3):
                out.append(
                    phi.map(
                        lambda p, c=c: VectorField(
                            tuple(p if cc == c else Polynomial.zero() for cc in range(3))
                        ),
                        continuity="C0",
                    )
                )
        return out


@lru_cache(maxsize=None)
def build_split_space(m, zero_trace=False):
    """Nullspace construction of the continuous piecewise-P_m split space."""
    if m < 1:
        raise ValueError("degree must be >= 1")
    start = time.perf_counter()
    exps = monomial_exponents(m, 3)
    nb = len(exps)
    keys2 = monomial_exponents(m, 2)
    k2i = {e: i for i, e in enumerate(keys2)}
    rows = []

    def trace_block(pts):
        matrix, shift = face_param(pts)
        cols = []
        for e in exps:
            cols.append(Polynomial.monomial(e).compose_affine(matrix, shift))
        return cols

    for pair, edge in INTERNAL_FACES:
        i, j = pair
        k, l = edge
        cols = trace_block((REF_VERTICES[k], REF_VERTICES[l], REF_CENTER))
        block = [[Fraction(0)] * (4 * nb) for _ in keys2]
        for col, composed in enumerate(cols):
            for ke, v in composed.coeffs.items():
                block[k2i[ke]][i * nb + col] += v
                block[k2i[ke]][j * nb + col] -= v
        rows.extend(block)
    if zero_trace:
        for i in range(4):
            pts = tuple(REF_VERTICES[v] for v in PARENT_FACE_VERTICES[i])
            cols = trace_block(pts)
            block = [[Fraction(0)] * (4 * nb) for _ in keys2]
            for col, composed in enumerate(cols):
                for ke, v in composed.coeffs.items():
                    block[k2i[ke]][i * nb + col] += v
            rows.extend(block)

    basis_vecs = nullspace(rows)
    emb = Embedding(m, vector=False)
    basis = [emb.field(v, continuity="C0") for v in basis_vecs]
    for b in basis:
        assert b.check_c0()
        if zero_trace:
            assert b.vanishes_on_boundary()
    _log.debug(
        "built %s split space P%d, dim %d, in %.3f s",
        "zero-trace" if zero_trace else "continuous", m, len(basis), time.perf_counter() - start,
    )
    return SplitC0Space(m, zero_trace, basis)


class _ExactLinearSolver:
    """Reusable exact solver for D z = r with recorded row operations."""

    def __init__(self, matrix):
        self.ncols = len(matrix[0]) if matrix else 0
        nrows = len(matrix)
        aug = [list(matrix[i]) + [Fraction(1) if j == i else Fraction(0) for j in range(nrows)] for i in range(nrows)]
        reduced, pivots = rref(aug)
        self.pivots = [p for p in pivots if p < self.ncols]
        self.reduced = [row[: self.ncols] for row in reduced]
        self.transform = [row[self.ncols:] for row in reduced]
        self.matrix = matrix
        self.null_basis = nullspace(matrix) if matrix else []

    def solve(self, rhs):
        nrows = len(self.matrix)
        t_rhs = [sum(self.transform[r][i] * rhs[i] for i in range(nrows) if rhs[i] != 0) for r in range(nrows)]
        x = [Fraction(0)] * self.ncols
        for r, p in enumerate(self.pivots):
            x[p] = t_rhs[r]
        # consistency: rows beyond the pivot count must transform rhs to zero
        for r in range(len(self.pivots), nrows):
            if t_rhs[r] != 0:
                return None
        return x


class _DivSolver(NamedTuple):
    space: SplitC0Space
    vec_basis: list  # component-wise: scalar index a, component c -> 3a + c
    emb: Embedding
    solver: _ExactLinearSolver
    null: list  # nullspace of the divergence, in vec_basis coordinates
    gram_null: list  # H1-seminorm Gram matrix times each null vector
    reduced_solver: _ExactLinearSolver | None  # None when the nullspace is trivial


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


@lru_cache(maxsize=None)
def _div_solver(k):
    """Cached machinery for the zero-trace divergence problem at degree k."""
    start = time.perf_counter()
    space = build_split_space(k, zero_trace=True)
    vec_basis = space.vector_basis()
    emb = Embedding(k - 1, vector=False)
    cols = [emb.coords(v.div()) for v in vec_basis]
    matrix = [[cols[j][i] for j in range(len(cols))] for i in range(emb.size)]
    solver = _ExactLinearSolver(matrix)

    # H1-seminorm Gram of the scalar basis; each gradient is pulled back to
    # the unit simplex once per subtet
    ns = space.dimension
    grads = [phi.map(grad) for phi in space.scalar_basis]
    pulled = []
    for piece in range(4):
        matrix_s, shift_s = subtet_affine(piece)
        pulled.append(
            (
                [g.pieces[piece].compose_affine(matrix_s, shift_s) for g in grads],
                abs(_det3(matrix_s)),
            )
        )
    gram_scalar = [[Fraction(0)] * ns for _ in range(ns)]
    for a in range(ns):
        for b in range(a, ns):
            val = Fraction(0)
            for composed, det in pulled:
                val += integrate_unit_simplex(composed[a].dot(composed[b])) * det
            gram_scalar[a][b] = gram_scalar[b][a] = val

    # the Gram matrix of the component-wise basis is gram_scalar on each
    # component; applied to a null vector n it gives (G n)[3b + c]
    null = solver.null_basis
    gram_null = [
        [
            _dot([gram_scalar[a][b] for a in range(ns)], n[c::3])
            for b in range(ns)
            for c in range(3)
        ]
        for n in null
    ]
    reduced_gram = [[_dot(gn, n) for n in null] for gn in gram_null]
    reduced_solver = _ExactLinearSolver(reduced_gram) if null else None
    _log.debug(
        "built divergence solver k=%d, %d unknowns, nullity %d, in %.3f s",
        k, len(vec_basis), len(null), time.perf_counter() - start,
    )
    return _DivSolver(space, vec_basis, emb, solver, null, gram_null, reduced_solver)


def div_coefficients(target, k):
    """Coefficients in the zero-trace vector basis of the minimal-H1 solution.

    The particular solution is corrected within the divergence nullspace so
    that the result is H1-orthogonal to every null vector.
    """
    ds = _div_solver(k)
    z0 = ds.solver.solve(ds.emb.coords(target))
    if z0 is None:
        raise ArithmeticError("divergence target is outside the attainable range")
    if not ds.null:
        return z0
    q = ds.reduced_solver.solve([-_dot(gn, z0) for gn in ds.gram_null])
    z = list(z0)
    for qi, n in zip(q, ds.null):
        if qi != 0:
            z = [zz + qi * nn for zz, nn in zip(z, n)]
    return z


def solve_div(target, k):
    """Zero-trace continuous piecewise field with exact divergence ``target``.

    ``target`` must be a mean-zero (piecewise) polynomial of degree <= k-1.
    Among all solutions the minimal H1-seminorm representative is returned,
    which makes the selection well defined.
    """
    target = as_piecewise(target)
    if target.degree > k - 1:
        raise ValueError("divergence target degree exceeds k-1")
    if target.integrate() != 0:
        raise ValueError("divergence target must have zero mean")
    z = div_coefficients(target, k)
    out = None
    for coef, basis_field in zip(z, _div_solver(k).vec_basis):
        if coef == 0:
            continue
        term = basis_field * coef
        out = term if out is None else out + term
    if out is None:
        out = PiecewiseField.from_single(VectorField.zero())
    out = PiecewiseField(out.pieces, "C0")
    assert (out.div() - target).is_zero(), "exact divergence postcondition violated"
    return out


@dataclass
class InteriorBubble:
    """Zero-trace bubble with prescribed mean-zero two-layer divergence."""

    order: int
    target: Polynomial
    field: PiecewiseField


@lru_cache(maxsize=None)
def interior_bubbles(k):
    """One bubble of order k+1 per mean-corrected two-layer basis member."""
    if k < 1:
        raise ValueError("order must be >= 1")
    out = []
    for g in layered_mean_zero_basis(k):
        field = solve_div(as_piecewise(g), k + 1)
        out.append(InteriorBubble(k + 1, g, field))
    return tuple(out)
