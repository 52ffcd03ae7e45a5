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
from math import lcm
from operator import add
from typing import NamedTuple

import numpy as np

from .polyalg.poly import Polynomial, VectorField, _trusted, grad
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
    subtet_moment_table,
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


def _scaled(values):
    """Integer numerators of rationals over their common denominator: ``(nums, den)``."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


class _ExactLinearSolver:
    """Reusable exact solver for D z = r with recorded row operations.

    Each row of the row operations ``transform`` is kept as its sparse
    integer numerators ``{column: int}`` and their denominator, so that a
    solve forms one Fraction per unknown.
    """

    def __init__(self, matrix):
        self.ncols = len(matrix[0]) if matrix else 0
        nrows = len(matrix)
        aug = [list(matrix[i]) + [Fraction(1) if j == i else Fraction(0) for j in range(nrows)] for i in range(nrows)]
        reduced, pivots = rref(aug)
        self.pivots = [p for p in pivots if p < self.ncols]
        self.transform = []
        for row in reduced:
            nums, den = _scaled(row[self.ncols:])
            self.transform.append(({j: v for j, v in enumerate(nums) if v}, den))
        # the first ncols columns of the augmented reduced form are the
        # reduced form of the matrix itself, so its nullspace reads off them
        free = [c for c in range(self.ncols) if c not in self.pivots]
        self.null_basis = []
        for f in free:
            v = [Fraction(0)] * self.ncols
            v[f] = Fraction(1)
            for r, p in enumerate(self.pivots):
                v[p] = -reduced[r][f]
            self.null_basis.append(v)

    def solve(self, rhs):
        """The solution with every free unknown zero, or None if ``D z = r`` is inconsistent."""
        nums, den = _scaled(rhs)
        nz = [(i, v) for i, v in enumerate(nums) if v]
        t_rhs = [(sum(row[i] * v for i, v in nz if i in row), d * den) for row, d in self.transform]
        # consistency: rows beyond the pivot count must transform rhs to zero
        if any(num for num, _ in t_rhs[len(self.pivots):]):
            return None
        x = [Fraction(0)] * self.ncols
        for (num, d), p in zip(t_rhs, self.pivots):
            x[p] = Fraction(num, d)
        return x


class _DivSolver(NamedTuple):
    space: SplitC0Space
    vec_basis: list  # component-wise: scalar index a, component c -> 3a + c
    emb: Embedding
    solver: _ExactLinearSolver
    null: list  # nullspace of the divergence, in vec_basis coordinates
    gram_null: list  # H1-seminorm Gram matrix times each null vector
    # z0 -> the minimal-H1 solution z0 + sum q_i null_i, as integer rows
    # over one denominator; None when the nullspace is trivial
    minimal: tuple | None
    # vec_basis coefficient tables per field, piece and component, on integers
    # over one denominator
    basis_tables: tuple


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v) if a and b), Fraction(0))


def _object_matrix(rows):
    return np.array(rows, dtype=object).reshape(len(rows), -1)


def _h1_gram(space):
    """The H1-seminorm Gram matrix of the scalar basis of a split space, on integers.

    Per subtet ``p`` and component ``c`` the gradient coefficients of the
    basis are scaled to one integer matrix ``C`` (basis x monomials of
    degree <= m - 1); with ``M`` the subtet's integer moment table of the
    products, the Gram matrix is ``sum_pc C M C^T`` over the common
    denominator.  Returns that integer matrix and the denominator.
    """
    exps = monomial_exponents(space.degree - 1, 3)
    den_m, moments = subtet_moment_table(2 * (space.degree - 1))
    grads = [phi.map(grad) for phi in space.scalar_basis]
    terms = []
    for p in range(4):
        moment = _object_matrix([[moments[p][tuple(map(add, e, f))] for f in exps] for e in exps])
        for c in range(3):
            polys = [g.pieces[p].comps[c].coeffs for g in grads]
            nums, den = _scaled([poly.get(e, Fraction(0)) for poly in polys for e in exps])
            coef = _object_matrix(nums).reshape(len(polys), len(exps))
            terms.append((den * den, coef @ moment @ coef.T))
    common = lcm(*(den for den, _ in terms))
    return sum((block * (common // den) for den, block in terms), 0), common * den_m


def _minimal_correction(null, gram_null):
    """The exact map ``z0 -> z0 + sum_i q_i n_i`` that makes ``z`` H1-orthogonal to every null vector.

    ``q`` solves ``(N^T G N) q = -(G N)^T z0``, so the map is
    ``I - N (N^T G N)^-1 (G N)^T``.  It does not change when a null vector
    or a row of ``G N`` is scaled, so both come as integer matrices (one row
    per null vector) with their denominators dropped.  Returned as integer
    rows ``{column: int}`` over one denominator.
    """
    inverse = _ExactLinearSolver((gram_null @ null.T).tolist()).transform  # N^T G N is invertible
    den = lcm(*(d for _, d in inverse))
    inv = _object_matrix([[row.get(j, 0) * (den // d) for j in range(len(null))] for row, d in inverse])
    rows = []
    for i, row in enumerate(null.T @ inv @ gram_null):
        entries = {j: -v for j, v in enumerate(row) if v}
        entries[i] = entries.get(i, 0) + den
        rows.append({j: int(v) for j, v in entries.items() if v})
    return rows, den


def _basis_tables(vec_basis):
    """Integer coefficient tables of each field, piece and component, over one denominator."""
    polys = [poly for f in vec_basis for piece in f.pieces for poly in piece.comps]
    den = lcm(*(v.denominator for poly in polys for v in poly.coeffs.values()))
    tables = tuple(
        tuple(
            tuple({e: v.numerator * (den // v.denominator) for e, v in poly.coeffs.items()} for poly in piece.comps)
            for piece in f.pieces
        )
        for f in vec_basis
    )
    return tables, den


@lru_cache(maxsize=None)
def _div_solver(k):
    """Cached machinery for the zero-trace divergence problem at degree k."""
    start = time.perf_counter()
    space = build_split_space(k, zero_trace=True)
    split_s = time.perf_counter() - start
    vec_basis = space.vector_basis()

    # H1-seminorm Gram of the scalar basis; that of the component-wise
    # basis is the same matrix on each component
    mark = time.perf_counter()
    gram_num, gram_den = _h1_gram(space)
    gram_s = time.perf_counter() - mark

    mark = time.perf_counter()
    emb = Embedding(k - 1, vector=False)
    cols = [emb.coords(v.div()) for v in vec_basis]
    matrix = [[cols[j][i] for j in range(len(cols))] for i in range(emb.size)]
    solver = _ExactLinearSolver(matrix)
    # applied to a null vector n the Gram matrix gives (G n)[3b + c]
    null = solver.null_basis
    gram_null, minimal = [], None
    if null:
        scaled = [_scaled(n) for n in null]
        gram_null_num = _object_matrix(
            [(gram_num.T @ _object_matrix(nums).reshape(-1, 3)).ravel() for nums, _ in scaled]
        )
        gram_null = [[Fraction(int(v), gram_den * den) for v in row] for row, (_, den) in zip(gram_null_num, scaled)]
        minimal = _minimal_correction(_object_matrix([nums for nums, _ in scaled]), gram_null_num)
    elimination_s = time.perf_counter() - mark
    _log.debug(
        "built divergence solver k=%d, %d unknowns, nullity %d: split space %.3f s, "
        "gram %.3f s, elimination %.3f s, in %.3f s",
        k, len(vec_basis), len(null), split_s, gram_s, elimination_s, time.perf_counter() - start,
    )
    return _DivSolver(space, vec_basis, emb, solver, null, gram_null, minimal, _basis_tables(vec_basis))


def div_coefficients(target, k):
    """Coefficients in the zero-trace vector basis of the minimal-H1 solution.

    The particular solution is corrected within the divergence nullspace so
    that the result is H1-orthogonal to every null vector.
    """
    ds = _div_solver(k)
    z0 = ds.solver.solve(ds.emb.coords(target))
    if z0 is None:
        raise ArithmeticError("divergence target is outside the attainable range")
    if ds.minimal is None:
        return z0
    rows, den = ds.minimal
    nums, z_den = _scaled(z0)
    nz = [(j, v) for j, v in enumerate(nums) if v]
    den *= z_den
    return [Fraction(sum(row[j] * v for j, v in nz if j in row), den) for row in rows]


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
    tables, den = _div_solver(k).basis_tables
    nums, z_den = _scaled(z)
    den *= z_den
    # sum_j z_j basis_j on integer numerators, term by term in basis order as
    # the polynomial sum would run, so the same sums cancel and the keys come
    # out in the same order; one division at the end
    pieces = []
    for p in range(4):
        comps = []
        for c in range(3):
            acc = {}
            for coef, table in zip(nums, tables):
                if not coef:
                    continue
                for e, v in table[p][c].items():
                    s = acc.get(e, 0) + v * coef
                    if s:
                        acc[e] = s
                    else:
                        acc.pop(e, None)
            comps.append(_trusted({e: Fraction(v, den) for e, v in acc.items()}, 3))
        pieces.append(VectorField(comps))
    out = PiecewiseField(pieces, "C0")
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
