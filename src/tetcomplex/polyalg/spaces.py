"""Polynomial space bases, homogeneous layers, and exact linear algebra.

Provides monomial bases, the homogeneous layers H_k and their two-layer
sums S_k with mean-corrected variants, piecewise fields as integer
numerator tensors (:class:`IntegerFields`), and fraction-free exact row
reduction used for rank checks, nullspaces, and rank-revealing basis
selection.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import gcd, lcm

import numpy as np

from .poly import _ZERO, Polynomial, VectorField, _trusted
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


def degree_of_columns(count):
    """The degree ``D`` with ``dim_poly(D) == count``: the monomials a coefficient axis holds."""
    degree = -1
    while dim_poly(degree) < count:
        degree += 1
    return degree


def integer_matrix(matrix):
    """A rational matrix as integer rows over its least common denominator: ``(rows, den)``."""
    den = lcm(*(v.denominator for row in matrix for v in row))
    return [[v.numerator * (den // v.denominator) for v in row] for row in matrix], den


class IntegerFields:
    """Piecewise fields on the split as integer numerators over one denominator.

    ``nums`` is an object array of Python ints shaped (fields, pieces,
    components, monomials): the four pieces of the split, three components
    for vector fields and one for scalars, and the monomials of degree <=
    some ``D`` in :func:`monomial_exponents` order.  ``den`` is a positive
    int and ``continuity`` holds the :class:`PiecewiseField` label of each
    field.  The exact fields are formed on first read, by iteration or
    indexing, one Fraction per nonzero coefficient.
    """

    def __init__(self, nums, den, continuity):
        self.nums = nums
        self.den = den
        self.continuity = tuple(continuity)

    @classmethod
    def from_fields(cls, fields, degree=None):
        """The numerators of (piecewise) fields with int, Fraction or float coefficients.

        A float counts as the exact dyadic rational it holds.  ``degree``
        defaults to the largest degree of the fields.
        """
        fields = [as_piecewise(f) for f in fields]
        vector = fields[0].is_vector
        if degree is None:
            degree = max(max(f.degree for f in fields), 0)
        index = {e: j for j, e in enumerate(monomial_exponents(degree, 3))}
        try:
            ratios = [
                [[[(index[e], v.as_integer_ratio()) for e, v in c.coeffs.items()] for c in (p.comps if vector else (p,))]
                 for p in f.pieces]
                for f in fields
            ]
        except AttributeError:
            raise TypeError("integer numerators need int, Fraction or float coefficients") from None
        den = lcm(*(d for f in ratios for p in f for c in p for _, (_, d) in c))
        nums = np.zeros((len(fields), 4, 3 if vector else 1, len(index)), dtype=object)
        for a, f in enumerate(ratios):
            for p, piece in enumerate(f):
                for c, comp in enumerate(piece):
                    for j, (n, d) in comp:
                        nums[a, p, c, j] = n * (den // d)
        return cls(nums, den, [f.continuity for f in fields])

    @classmethod
    def concatenate(cls, parts):
        """The fields of ``parts`` in order, over their least common denominator."""
        den = lcm(*(part.den for part in parts))
        width = max(part.nums.shape[-1] for part in parts)
        nums = np.concatenate([part.resized(degree_of_columns(width)).nums * (den // part.den) for part in parts])
        return cls(nums, den, sum((part.continuity for part in parts), ()))

    def __len__(self):
        return len(self.nums)

    def __iter__(self):
        return iter(self._fields)

    def __getitem__(self, i):
        return self._fields[i]

    @property
    def degree(self):
        """The largest degree of a nonzero coefficient; 0 for zero fields."""
        used = np.flatnonzero((self.nums != 0).reshape(-1, self.nums.shape[-1]).any(axis=0))
        return sum(monomial_exponents(degree_of_columns(self.nums.shape[-1]), 3)[used[-1]]) if len(used) else 0

    def resized(self, degree):
        """The same fields on the monomials of degree <= ``degree``: columns dropped (they must be zero) or zeros added."""
        width = dim_poly(degree)
        nums = self.nums[..., :width]
        if nums.shape[-1] < width:
            pad = np.zeros((*nums.shape[:-1], width - nums.shape[-1]), dtype=object)
            nums = np.concatenate([nums, pad], axis=-1)
        return IntegerFields(nums, self.den, self.continuity)

    def take(self, indices):
        indices = list(indices)
        return IntegerFields(self.nums[indices], self.den, [self.continuity[i] for i in indices])

    def reduced(self):
        """The same fields with numerators and denominator divided by their greatest common divisor."""
        g = gcd(self.den, *self.nums.ravel().tolist())
        if g == 1:
            return self
        return IntegerFields(self.nums // g, self.den // g, self.continuity)

    def single_pieces(self):
        """Whether each field's four pieces have the same numerators."""
        return (self.nums[:, 1:] == self.nums[:, :1]).reshape(len(self), -1).all(axis=1)

    @cached_property
    def _fields(self):
        exps = monomial_exponents(degree_of_columns(self.nums.shape[-1]), 3)
        den = self.den

        def poly(row):
            return _trusted({e: Fraction(v, den) for e, v in zip(exps, row) if v}, 3)

        def piece(comps):
            return VectorField(tuple(map(poly, comps))) if len(comps) == 3 else poly(comps[0])

        out = []
        for pieces, continuity in zip(self.nums.tolist(), self.continuity):
            if continuity == "single":
                out.append(PiecewiseField.from_single(piece(pieces[0])))
            else:
                out.append(PiecewiseField(map(piece, pieces), continuity))
        return out


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


def null_numerators(rows, pivots, ncols):
    """Nullspace basis of the matrix with integer reduced form ``(rows, pivots)``, on integers.

    One vector per free column ``f`` among the first ``ncols``: 1 at ``f``
    and minus the reduced row's entry in ``f`` over its pivot entry at each
    pivot, as integer numerators over one common denominator: ``(vectors, den)``.
    ``pivots`` must all lie below ``ncols``.
    """
    den = lcm(*(abs(row[p]) for row, p in zip(rows, pivots)))
    vectors = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = den
        for row, p in zip(rows, pivots):
            v[p] = -row.get(f, 0) * (den // row[p])
        vectors.append(v)
    return vectors, den


def null_vectors(rows, pivots, ncols):
    """:func:`null_numerators` as Fraction vectors."""
    vectors, den = null_numerators(rows, pivots, ncols)
    return [[Fraction(v, den) if v else _ZERO for v in vector] for vector in vectors]


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
