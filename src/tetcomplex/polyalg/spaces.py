"""Polynomial space bases, homogeneous layers, and exact linear algebra.

Provides monomial bases, the homogeneous layers H_k and their two-layer
sums S_k with mean-corrected variants, coefficient-vector embeddings for
(piecewise) fields, and fraction-exact row reduction used for rank checks,
nullspaces, and rank-revealing basis selection.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd, lcm

import numpy as np

from .poly import _ZERO, Polynomial, VectorField
from .split import PiecewiseField, as_piecewise


def monomial_exponents(degree, nvars=3):
    """Exponent tuples of total degree <= degree, graded lexicographic."""
    return list(_monomial_exponents(degree, nvars))


@lru_cache(maxsize=None)
def _monomial_exponents(degree, nvars):
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(nvars), d):
            e = [0] * nvars
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    # stable, deterministic order: by degree then lexicographic
    return tuple(sorted(set(out), key=lambda e: (sum(e), e)))


@lru_cache(maxsize=None)
def derivative_table(degree):
    """The partial derivatives on monomial coefficients, as integer tables.

    ``table[c]`` takes the coefficients of a polynomial of degree <=
    ``degree`` (in :func:`monomial_exponents` order) to those of its
    derivative in ``x_c``, of degree <= ``degree - 1``.  Entries are Python
    ints in a read-only object array of shape (3, lower monomials, monomials).
    """
    exps = monomial_exponents(degree, 3)
    lower = {e: i for i, e in enumerate(monomial_exponents(degree - 1, 3))}
    table = np.zeros((3, len(lower), len(exps)), dtype=object)
    for j, e in enumerate(exps):
        for c in range(3):
            if e[c]:
                table[c, lower[tuple(v - (i == c) for i, v in enumerate(e))], j] = e[c]
    table.flags.writeable = False
    return table


def vector_monomials(degree):
    """Basis of vector polynomials of degree <= degree (component-major)."""
    out = []
    for e in monomial_exponents(degree, 3):
        for c in range(3):
            comps = [Polynomial.zero(3)] * 3
            comps[c] = Polynomial.monomial(e)
            out.append(VectorField(comps))
    return out


def dim_poly(degree, dim=3):
    """Dimension of polynomials of total degree <= degree in ``dim`` variables."""
    if degree < 0:
        return 0
    n = 1
    for i in range(1, dim + 1):
        n = n * (degree + i) // i
    return n


def dim_homogeneous(degree, dim=3):
    if degree < 0:
        return 0
    return dim_poly(degree, dim) - dim_poly(degree - 1, dim)


def homogeneous_basis(degree):
    """Monomials of exact total degree ``degree`` (about the origin)."""
    return [Polynomial.monomial(e) for e in monomial_exponents(degree, 3) if sum(e) == degree]


def layered_basis(k):
    """Basis of the two-layer space S_k: H_k for k = 1, H_k + H_{k-1} for k >= 2."""
    if k < 1:
        raise ValueError("layer order must be >= 1")
    basis = homogeneous_basis(k)
    if k >= 2:
        basis = basis + homogeneous_basis(k - 1)
    return basis


def layered_mean_zero_basis(k):
    """S_k basis corrected to zero mean over the reference tetrahedron."""
    from .poly import integrate_unit_simplex

    vol = Fraction(1, 6)
    out = []
    for p in layered_basis(k):
        mean = integrate_unit_simplex(p) / vol
        out.append(p - Polynomial.constant(mean))
    return out


def dim_layered(k):
    return dim_homogeneous(k) + (dim_homogeneous(k - 1) if k >= 2 else 0)


# ---------------------------------------------------------------------------
# coefficient embeddings

class Embedding:
    """Canonical coordinates for (piecewise) fields of bounded degree.

    Scalars embed as 4 * dim P_D coefficients (one block per subtet);
    vectors as three times that.  Single polynomials repeat across blocks.
    """

    def __init__(self, degree, vector):
        self.degree = degree
        self.vector = vector
        self.exponents = monomial_exponents(degree, 3)
        self.index = {e: i for i, e in enumerate(self.exponents)}
        self.block = len(self.exponents) * (3 if vector else 1)
        self.size = 4 * self.block

    def coords(self, field):
        pw = as_piecewise(field)
        vec = [Fraction(0)] * self.size
        for piece_i, piece in enumerate(pw.pieces):
            base = piece_i * self.block
            comps = piece.comps if self.vector else (piece,)
            for c, comp in enumerate(comps):
                for e, v in comp.coeffs.items():
                    try:
                        j = self.index[e]
                    except KeyError:
                        raise ValueError(
                            f"field degree {sum(e)} exceeds embedding degree {self.degree}"
                        ) from None
                    vec[base + c * len(self.exponents) + j] = v
        return vec

    def field(self, vec, continuity="L2"):
        pieces = []
        n = len(self.exponents)
        for piece_i in range(4):
            base = piece_i * self.block
            if self.vector:
                comps = []
                for c in range(3):
                    table = {
                        self.exponents[j]: vec[base + c * n + j]
                        for j in range(n)
                        if vec[base + c * n + j] != 0
                    }
                    comps.append(Polynomial(table, 3))
                pieces.append(VectorField(comps))
            else:
                table = {self.exponents[j]: vec[base + j] for j in range(n) if vec[base + j] != 0}
                pieces.append(Polynomial(table, 3))
        return PiecewiseField(pieces, continuity)


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals

def _integer_rows(rows):
    """Sparse integer rows ``{column: numerator}``, each a positive multiple
    of its rational row (Fraction or int entries) with coprime entries."""
    out = []
    try:
        for row in rows:
            nz = [(j, v) for j, v in enumerate(row) if v]
            den = lcm(*(v.denominator for _, v in nz))
            ints = {j: v.numerator * (den // v.denominator) for j, v in nz}
            g = gcd(*ints.values())
            if g > 1:
                ints = {j: v // g for j, v in ints.items()}
            out.append(ints)
    except AttributeError:
        raise TypeError("exact row reduction needs Fraction or int entries") from None
    return out


def _echelon(rows, ncols):
    """Fraction-free Gauss-Jordan elimination on sparse integer rows.

    Returns ``(pivot_rows, pivots)``: one integer row per pivot column, in
    column order, each zero in every other pivot column.  Each row is only
    ever replaced by an integer combination ``p * row - f * pivot_row``
    divided by the gcd of its entries, so the pivot columns and the rows up
    to scale are those of the unique reduced row echelon form, whatever
    row serves as pivot; the sparsest candidate does, to limit fill.
    ``rows`` is consumed.
    """
    active = [r for r in rows if r]
    done = []
    pivots = []
    for c in range(ncols):
        if not active:
            break
        best = None
        for i, row in enumerate(active):
            if c in row and (best is None or len(row) < len(active[best])):
                best = i
        if best is None:
            continue
        prow = active.pop(best)
        pv = prow[c]
        for row in active + done:
            f = row.get(c)
            if f is None:
                continue
            g = gcd(f, pv)
            f //= g
            p = pv // g
            if p != 1:
                for j in row:
                    row[j] *= p
            for j, v in prow.items():
                s = row.get(j, 0) - f * v
                if s:
                    row[j] = s
                else:
                    del row[j]
            g = gcd(*row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
        active = [r for r in active if r]
        done.append(prow)
        pivots.append(c)
    return done, pivots


def integer_rref(matrix):
    """The reduced row echelon form on integers: ``(rows, pivot_columns)``.

    One sparse integer row ``{column: int}`` per pivot column, in column
    order; divided by its entry in the pivot column it is that row of
    :func:`rref`.  ``matrix`` is a list of Fraction (or int) lists.
    """
    return _echelon(_integer_rows(matrix), len(matrix[0]) if matrix else 0)


def rref(matrix):
    """Fraction-exact reduced row echelon form.

    Returns (rows, pivot_columns): ``len(matrix)`` rows of Fractions, the
    pivot rows first in column order, then zero rows.  ``matrix`` is a list
    of Fraction (or int) lists; it is eliminated on integer numerators and
    divided into Fractions once at the end.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    done, pivots = integer_rref(matrix)
    rows = []
    for row, c in zip(done, pivots):
        pv = row[c]
        dense = [_ZERO] * ncols
        for j, v in row.items():
            dense[j] = Fraction(v, pv)
        rows.append(dense)
    rows.extend([_ZERO] * ncols for _ in range(nrows - len(rows)))
    return rows, pivots


def rank(matrix):
    return len(integer_rref(matrix)[1])


def null_vectors(rows, pivots, ncols):
    """Nullspace basis of the matrix with integer reduced form ``(rows, pivots)`` (:func:`integer_rref`).

    One Fraction vector per free column ``f`` among the first ``ncols``:
    1 at ``f`` and minus the reduced row's entry in ``f`` at each pivot.
    ``pivots`` must all lie below ``ncols``.
    """
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(rows, pivots):
            v[p] = Fraction(-row.get(f, 0), row[p])
        basis.append(v)
    return basis


def nullspace(matrix):
    """Exact nullspace basis vectors of a Fraction matrix."""
    if not matrix:
        return []
    return null_vectors(*integer_rref(matrix), len(matrix[0]))


def select_independent(columns):
    """Indices of a rank-revealing independent subset (first-come pivots).

    ``columns`` is a list of coordinate vectors; deterministic: earlier
    generators win ties, matching the documented generator ordering.
    """
    if not columns:
        return []
    return _echelon(_integer_rows(zip(*columns)), len(columns))[1]


def solve_exact(matrix, rhs_list):
    """Solve ``matrix x = rhs`` exactly for several right-hand sides.

    Returns (solutions, consistent) where inconsistent systems yield None
    entries.  ``matrix`` is row-major with Fraction entries.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    nrhs = len(rhs_list)
    aug = [list(matrix[i]) + [rhs[i] for rhs in rhs_list] for i in range(nrows)]
    rows, pivots = rref(aug)
    # pivots in the RHS block mean inconsistency for that system
    solutions = []
    for s in range(nrhs):
        col = ncols + s
        ok = all(p < ncols or p != col for p in pivots)
        if col in pivots:
            solutions.append(None)
            continue
        x = [Fraction(0)] * ncols
        for r, p in enumerate(pivots):
            if p < ncols:
                x[p] = rows[r][col]
        # verify (guards against free-variable interplay between systems)
        if ok:
            solutions.append(x)
    # exact residual check
    checked = []
    for s, x in enumerate(solutions):
        if x is None:
            checked.append(None)
            continue
        good = True
        for i in range(nrows):
            acc = Fraction(0)
            row = matrix[i]
            for j in range(ncols):
                if x[j] != 0 and row[j] != 0:
                    acc += row[j] * x[j]
            if acc != rhs_list[s][i]:
                good = False
                break
        checked.append(x if good else None)
    return checked
