"""Bubble fields on the reference Alfeld split.

Three constructions, all exact rational:

- continuous piecewise-polynomial spaces on the split (optionally with zero
  boundary trace), built as nullspaces of interface/boundary trace constraints;
- a local divergence solver: given a mean-zero piecewise polynomial target,
  produce a zero-trace continuous piecewise field with exactly that
  divergence (minimal H1-seminorm representative), target and solution
  both integer numerators (:class:`IntegerFields`);
- the scalar cubic face bubbles, which ``elements.physical_face_bubble``
  corrects to a constant divergence with that solver, and interior bubbles
  whose divergences span the mean-corrected two-layer polynomial spaces.

Every field is integer numerators (:class:`IntegerFields`).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import factorial, gcd, lcm, prod
from operator import add

import numpy as np

from .polyalg.spaces import (
    IntegerFields,
    derivatives,
    integer_rref,
    monomial_exponents,
    null_numerators,
)
from .polyalg.split import (
    INTERNAL_FACES,
    PARENT_FACE_VERTICES,
    REF_CENTER,
    REF_VERTICES,
    _mul_tables,
    pullback_table,
    subtet_moment_table,
)

_log = logging.getLogger("tetcomplex.bubbles")

# the barycentric coordinates of the reference cell, as integer coefficient tables
_LAMBDA = (
    {(0, 0, 0): 1, (1, 0, 0): -1, (0, 1, 0): -1, (0, 0, 1): -1},
    {(1, 0, 0): 1},
    {(0, 1, 0): 1},
    {(0, 0, 1): 1},
)


@lru_cache(maxsize=None)
def scalar_face_bubble(i):
    """The integer coefficients of the face bubble ``B_i = prod_{j != i} lambda_j``.

    A read-only object array over the monomials of degree <= 3 in
    ``monomial_exponents`` order.
    """
    table = reduce(_mul_tables, (_LAMBDA[j] for j in range(4) if j != i))
    out = np.array([table.get(e, 0) for e in monomial_exponents(3)], dtype=object)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def layered_targets(k):
    """The mean-corrected two-layer space S_k as single scalar fields of :class:`IntegerFields`.

    S_k is spanned by the monomials of exact degree k and, for k >= 2, those
    of degree k - 1, each in ``monomial_exponents`` order; each member is
    corrected by its mean over the reference tetrahedron,
    ``6 e! / (|e| + 3)!``, to zero mean.  The fields are on the monomials
    of degree <= k, over the least common denominator of the means.
    """
    if k < 1:
        raise ValueError("layer order must be >= 1")
    exps = monomial_exponents(k, 3)
    degrees = (k, k - 1) if k >= 2 else (k,)
    layers = [j for d in degrees for j, e in enumerate(exps) if sum(e) == d]
    means = []
    for j in layers:
        num, den = 6 * prod(map(factorial, exps[j])), factorial(sum(exps[j]) + 3)
        g = gcd(num, den)
        means.append((num // g, den // g))
    den = lcm(*(d for _, d in means))
    nums = np.zeros((len(layers), 4, 1, len(exps)), dtype=object)
    for i, (j, (num, d)) in enumerate(zip(layers, means)):
        nums[i, :, 0, j] = den
        nums[i, :, 0, 0] = -num * (den // d)
    return IntegerFields(nums, den, ["single"] * len(layers))


@dataclass
class SplitC0Space:
    """Continuous piecewise-P_m space on the reference split (scalar basis).

    ``coefficients`` holds the basis as integer numerators (basis, pieces,
    monomials of degree <= m in ``monomial_exponents`` order) and their
    common denominator.  The component-wise vector basis has field
    ``3 a + c`` the scalar basis field ``a`` in component ``c``.
    """

    degree: int
    zero_trace: bool
    coefficients: tuple

    @property
    def dimension(self):
        return len(self.coefficients[0])


def _trace_conditions(zero_trace):
    """The trace conditions of a split space, as ``(signed pieces, face vertices)``.

    On each face the traces of the pieces, times their signs, sum to zero:
    two pieces agree on their internal face, and with ``zero_trace`` the
    one piece on a parent face vanishes there.
    """
    out = [
        (((i, 1), (j, -1)), (REF_VERTICES[k], REF_VERTICES[l], REF_CENTER))
        for (i, j), (k, l) in INTERNAL_FACES
    ]
    if zero_trace:
        out += [(((i, 1),), tuple(REF_VERTICES[v] for v in PARENT_FACE_VERTICES[i])) for i in range(4)]
    return out


@lru_cache(maxsize=None)
def build_split_space(m, zero_trace=False):
    """Nullspace construction of the continuous piecewise-P_m split space.

    Each trace condition contributes the rows of its face's integer
    pull-back table (:func:`pullback_table`), one block per piece it
    involves.  The basis fields are checked against every condition again
    on their own integer numerators.
    """
    if m < 1:
        raise ValueError("degree must be >= 1")
    start = time.perf_counter()
    exps = monomial_exponents(m, 3)
    conditions = [(pieces, pullback_table(m, points)[1]) for pieces, points in _trace_conditions(zero_trace)]
    rows = []
    for pieces, table in conditions:
        block = np.zeros((len(table), 4, len(exps)), dtype=object)
        for p, sign in pieces:
            block[:, p] = sign * table
        rows.extend(block.reshape(len(table), -1).tolist())

    vectors, den = null_numerators(*integer_rref(rows), len(rows[0]))
    g = gcd(den, *(v for vector in vectors for v in vector))
    nums = np.array(vectors, dtype=object).reshape(len(vectors), 4, len(exps)) // g
    den //= g
    for pieces, table in conditions:
        trace = sum(sign * nums[:, p] for p, sign in pieces) @ table.T
        if trace.any():
            raise ArithmeticError("split space trace postcondition violated")
    _log.debug(
        "built %s split space P%d, dim %d, in %.3f s",
        "zero-trace" if zero_trace else "continuous", m, len(nums), time.perf_counter() - start,
    )
    return SplitC0Space(m, zero_trace, (nums, den))


class _ExactLinearSolver:
    """Reusable exact solver for D z = r with recorded row operations.

    ``D`` is ``matrix / den``.  Each row of the row operations ``transform``
    is kept as its sparse integer numerators ``{column: int}`` and their
    denominator, so that a solve runs on integers alone.
    """

    def __init__(self, matrix, den=1):
        self.ncols = len(matrix[0]) if matrix else 0
        nrows = len(matrix)
        # each row of [matrix | den I] is den times that of [D | I]: the
        # reduction scales every row to coprime integers, so both reduce alike
        aug = [list(matrix[i]) + [den if j == i else 0 for j in range(nrows)] for i in range(nrows)]
        rows, pivots = integer_rref(aug)
        self.pivots = [p for p in pivots if p < self.ncols]
        # the row operations: each reduced row's last nrows entries over its
        # pivot entry, as coprime numerators over a positive denominator
        self.transform = []
        for row, p in zip(rows, pivots):
            ops = sorted((j - self.ncols, v) for j, v in row.items() if j >= self.ncols)
            g = gcd(row[p], *(v for _, v in ops))
            sign = 1 if row[p] > 0 else -1
            self.transform.append(({j: sign * v // g for j, v in ops}, abs(row[p]) // g))
        # the first ncols columns of the augmented reduced form are the
        # reduced form of the matrix itself, so its nullspace reads off them
        self.null_basis = null_numerators(rows, self.pivots, self.ncols)[0]

    def solve(self, nums, den):
        """The solution of ``D z = nums / den`` with every free unknown zero, as
        integer numerators over one denominator; None if the system is inconsistent."""
        nz = [(i, v) for i, v in enumerate(nums) if v]
        t_rhs = [(sum(row[i] * v for i, v in nz if i in row), d) for row, d in self.transform]
        # consistency: rows beyond the pivot count must transform rhs to zero
        if any(num for num, _ in t_rhs[len(self.pivots):]):
            return None
        common = lcm(*(d for _, d in t_rhs[:len(self.pivots)]))
        x = [0] * self.ncols
        for (num, d), p in zip(t_rhs, self.pivots):
            x[p] = num * (common // d)
        return x, common * den


@dataclass
class _DivSolver:
    space: SplitC0Space
    solver: _ExactLinearSolver
    null: list  # nullspace of the divergence, integer vectors in the component-wise basis
    gram_null: list  # H1-seminorm Gram matrix times each null vector, each row up to scale
    # z0 -> the minimal-H1 solution z0 + sum q_i null_i, as integer rows
    # over one denominator; None when the nullspace is trivial
    minimal: tuple | None


def _object_matrix(rows):
    return np.array(rows, dtype=object).reshape(len(rows), -1)


def _h1_gram(space):
    """The H1-seminorm Gram matrix of the scalar basis of a split space, on integers.

    Per subtet ``p`` and component ``c`` the gradient numerators of the
    basis are the derivatives of its numerators, scaled to
    coprime integers with their denominator, one integer matrix ``C``
    (basis x monomials of degree <= m - 1); with ``M`` the subtet's integer
    moment table of the products, the Gram matrix is ``sum_pc C M C^T`` over
    the common denominator.  Returns that integer matrix and the denominator.
    """
    exps = monomial_exponents(space.degree - 1, 3)
    den_m, moments = subtet_moment_table(2 * (space.degree - 1))
    nums, den = space.coefficients
    partials = derivatives(nums, axis=2)  # (basis, pieces, axes, monomials)
    terms = []
    for p in range(4):
        moment = _object_matrix([[moments[p][tuple(map(add, e, f))] for f in exps] for e in exps])
        for c in range(3):
            coef = partials[:, p, c]
            g = gcd(den, *coef.ravel())
            coef = coef // g
            terms.append(((den // g) ** 2, coef @ moment @ coef.T))
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


@lru_cache(maxsize=None)
def _div_solver(k):
    """Cached machinery for the zero-trace divergence problem at degree k."""
    start = time.perf_counter()
    space = build_split_space(k, zero_trace=True)
    split_s = time.perf_counter() - start

    # H1-seminorm Gram of the scalar basis; that of the component-wise
    # basis is the same matrix on each component
    mark = time.perf_counter()
    gram_num, _ = _h1_gram(space)
    gram_s = time.perf_counter() - mark

    mark = time.perf_counter()
    # the divergence of field 3a + c is the x_c derivative of scalar a:
    # rows piece by piece, then by monomial, over the basis denominator
    nums, den = space.coefficients
    div = derivatives(nums, axis=-1)  # (a, pieces, monomials, c)
    solver = _ExactLinearSolver(div.transpose(1, 2, 0, 3).reshape(-1, 3 * len(nums)).tolist(), den)
    # applied to a null vector n the Gram matrix gives (G n)[3b + c]
    null = solver.null_basis
    gram_null, minimal = [], None
    if null:
        gram_null = [(gram_num.T @ _object_matrix(n).reshape(-1, 3)).ravel().tolist() for n in null]
        minimal = _minimal_correction(_object_matrix(null), _object_matrix(gram_null))
    elimination_s = time.perf_counter() - mark
    _log.debug(
        "built divergence solver k=%d, %d unknowns, nullity %d: split space %.3f s, "
        "gram %.3f s, elimination %.3f s, in %.3f s",
        k, 3 * space.dimension, len(null), split_s, gram_s, elimination_s, time.perf_counter() - start,
    )
    return _DivSolver(space, solver, null, gram_null, minimal)


def div_coefficients(target, k):
    """Coefficients in the zero-trace vector basis of the minimal-H1 solution.

    ``target`` is one scalar field of :class:`IntegerFields` of degree <=
    k-1.  The particular solution is corrected within the divergence
    nullspace so that the result is H1-orthogonal to every null vector.
    Returns integer numerators over one denominator: ``(nums, den)``.
    """
    ds = _div_solver(k)
    solution = ds.solver.solve(target.resized(k - 1).nums[0, :, 0].ravel().tolist(), target.den)
    if solution is None:
        raise ArithmeticError("divergence target is outside the attainable range")
    if ds.minimal is None:
        return solution
    (nums, z_den), (rows, den) = solution, ds.minimal
    nz = [(j, v) for j, v in enumerate(nums) if v]
    return [sum(row[j] * v for j, v in nz if j in row) for row in rows], den * z_den


def solve_div(target, k):
    """Zero-trace continuous piecewise field with exact divergence ``target``, on numerators.

    ``target`` must be one mean-zero scalar field of :class:`IntegerFields`
    of degree <= k-1.  Among all solutions the minimal H1-seminorm
    representative is returned, which makes the selection well defined, as
    one ``"C0"`` field of :class:`IntegerFields` on the monomials of degree
    <= k.
    """
    if target.degree > k - 1:
        raise ValueError("divergence target degree exceeds k-1")
    t_nums = target.resized(k - 1).nums[0, :, 0]
    _, moments = subtet_moment_table(k - 1)
    exps = monomial_exponents(k - 1, 3)
    if sum(v * moments[p][e] for p, row in enumerate(t_nums.tolist()) for e, v in zip(exps, row) if v):
        raise ValueError("divergence target must have zero mean")
    z, z_den = div_coefficients(target, k)
    basis, den = _div_solver(k).space.coefficients
    # field 3a + c is the scalar basis field a in component c
    weights = np.array(z, dtype=object).reshape(-1, 3).T
    nums = (weights @ basis.reshape(len(basis), -1)).reshape(3, 4, -1).transpose(1, 0, 2)
    den *= z_den
    # the divergence on each piece, over den, against the target's numerators over its den
    partials = derivatives(nums, axis=1)  # (pieces, axes, components, monomials)
    div = partials[:, 0, 0] + partials[:, 1, 1] + partials[:, 2, 2]
    if (div * target.den - t_nums * den).any():
        raise ArithmeticError("exact divergence postcondition violated")
    return IntegerFields(nums[None], den, ["C0"]).reduced()


@dataclass
class InteriorBubble:
    """Zero-trace bubble with prescribed mean-zero two-layer divergence.

    ``target`` is the divergence, one member of :func:`layered_targets`,
    and ``numerators`` the bubble, one field of :class:`IntegerFields` as
    :func:`solve_div` returns it.
    """

    order: int
    target: IntegerFields
    numerators: IntegerFields


@lru_cache(maxsize=None)
def interior_bubbles(k):
    """One bubble of order k+1 per mean-corrected two-layer basis member."""
    if k < 1:
        raise ValueError("order must be >= 1")
    targets = layered_targets(k)
    return tuple(InteriorBubble(k + 1, g, solve_div(g, k + 1)) for g in (targets.take([i]) for i in range(len(targets))))
