"""Monomial bases, piecewise fields on integer numerators, and exact linear algebra.

Provides the monomial orders, the integer derivative tables on monomial
coefficients, piecewise fields on the split as integer numerator tensors
(:class:`IntegerFields`), and fraction-free exact row reduction used for
rank checks, nullspaces, and rank-revealing basis selection.  Every exact
field of the package is an :class:`IntegerFields`; no ``Fraction`` is
formed here.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd, lcm

import numpy as np


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


@lru_cache(maxsize=None)
def derivative_gathers(degree):
    """:func:`derivative_table` as gathers: per axis, the source column and factor of each lower monomial.

    Each monomial of degree <= ``degree - 1`` is the derivative of exactly one
    monomial of degree <= ``degree``, so ``d/dx_c`` of numerators ``u`` is
    ``u[..., columns] * factors``.
    """
    out = []
    for table in derivative_table(degree):
        rows, columns = np.nonzero(table)
        out.append((columns, table[rows, columns]))
    return tuple(out)


def derivatives(nums, axis):
    """The three partial derivatives of numerators (..., monomials), stacked at ``axis``: one degree lower.

    The one exact derivative kernel: every derivative of numerators in the
    package is these gathers.
    """
    gathers = derivative_gathers(degree_of_columns(nums.shape[-1]))
    return np.stack([nums[..., columns] * factors for columns, factors in gathers], axis=axis)


def dim_poly(degree, dim=3):
    """Dimension of polynomials of total degree <= degree in ``dim`` variables."""
    if degree < 0:
        return 0
    n = 1
    for i in range(1, dim + 1):
        n = n * (degree + i) // i
    return n


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
    some ``D`` in :func:`monomial_exponents` order, piece ``i`` expressed in
    the global reference coordinates.  ``den`` is a positive int.
    ``continuity`` labels each field ``"single"`` (its four pieces are one
    polynomial), ``"C0"`` (continuous across the internal faces of the
    split) or ``"L2"``.
    """

    def __init__(self, nums, den, continuity):
        self.nums = nums
        self.den = den
        self.continuity = tuple(continuity)

    @classmethod
    def concatenate(cls, parts):
        """The fields of ``parts`` in order, over their least common denominator."""
        den = lcm(*(part.den for part in parts))
        width = max(part.nums.shape[-1] for part in parts)
        nums = np.concatenate([part.resized(degree_of_columns(width)).nums * (den // part.den) for part in parts])
        return cls(nums, den, sum((part.continuity for part in parts), ()))

    def __len__(self):
        return len(self.nums)

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


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals

def _integer_rows(rows):
    """Sparse integer rows ``{column: numerator}``, each a positive multiple
    of its rational row (Fraction or int entries) with coprime entries; no
    ``Fraction`` is formed."""
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
    order; divided by its entry in the pivot column it is that row of the
    rational reduced row echelon form.  ``matrix`` is a list of Fraction
    (or int) lists; only their numerators and denominators are read.
    """
    return _echelon(_integer_rows(matrix), len(matrix[0]) if matrix else 0)


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
