"""Poincare operators for the polynomial de Rham sequence.

The three integral operators are evaluated exactly by substituting the
parametrized ray ``W + t (x - W)``, expanding in the auxiliary variable t,
and integrating the t-monomials in closed form; no quadrature is involved.
The vector potential does this once per degree and base point, into an
integer table (:func:`potential_table`) that :func:`vector_potential`
contracts with the numerators of any number of fields.
They satisfy the null-homotopy identity ``d p + p d = id``, the complex
property ``p∘p = 0``, and raise the polynomial degree by at most one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .poly import Polynomial, VectorField, _mul_tables, _trusted


def _ray_exprs(base, nvars=3):
    """Substitution expressions x_i -> W_i + t (x_i - W_i) in (x, y, z, t)."""
    exprs = []
    for i in range(nvars):
        table = {}
        w = base[i]
        if w != 0:
            table[(0,) * (nvars + 1)] = w
            key_t = tuple(0 if j < nvars else 1 for j in range(nvars + 1))
            table[key_t] = -w
        key_xt = tuple((1 if j == i else 0) if j < nvars else 1 for j in range(nvars + 1))
        table[key_xt] = table.get(key_xt, 0) + 1
        exprs.append(Polynomial(table, nvars + 1))
    return exprs


def _offset_field(base, matrix=None, t_power=1, nvars=3):
    """The field ``t^p * M (x - W)`` expressed in (x, y, z, t) variables."""
    comps = []
    for i in range(3):
        table = {}
        for j in range(nvars):
            mij = 1 if matrix is None and i == j else (0 if matrix is None else matrix[i][j])
            if mij == 0:
                continue
            key = [0] * (nvars + 1)
            key[j] = 1
            key[nvars] = t_power
            table[tuple(key)] = table.get(tuple(key), 0) + mij
            if base[j] != 0:
                key0 = [0] * (nvars + 1)
                key0[nvars] = t_power
                k0 = tuple(key0)
                table[k0] = table.get(k0, 0) - mij * base[j]
        comps.append(Polynomial(table, nvars + 1))
    return VectorField(comps)


def _integrate_t(p: Polynomial) -> Polynomial:
    """Integrate the last variable over [0, 1] and drop it; sums that cancel are dropped."""
    out = {}
    for k, v in p.coeffs.items():
        key = k[:-1]
        m = k[-1]
        s = out.get(key, 0) + v * (Fraction(1, m + 1) if isinstance(v, Fraction) else 1.0 / (m + 1))
        if s != 0:
            out[key] = s
        else:
            out.pop(key, None)
    return _trusted(out, p.nvars - 1)


def poincare1(u: VectorField, base=(0, 0, 0)) -> Polynomial:
    """Scalar potential operator on 1-fields: ∫0^1 u(ray)·(x-W) dt."""
    ray = _ray_exprs(base)
    ur = u.substitute(ray)
    off = _offset_field(base, t_power=0)
    return _integrate_t(ur.dot(off))


@lru_cache(maxsize=None)
def potential_table(degree, base):
    """The vector potential about ``base`` on monomial numerators, as one integer table.

    ``table[l]`` takes the coefficients of a scalar polynomial ``p`` of
    degree <= ``degree`` to those of ``∫0^1 t p(W + t (x - W)) (x_l - W_l) dt``,
    of degree <= ``degree + 1``, both in ``monomial_exponents`` order: a
    polynomial with numerators ``c`` over ``B`` maps to the numerators
    ``table[l] @ c`` over ``B * den``.  With ``s`` the common denominator of
    ``W = w / s``, ``s (W_c + t (x_c - W_c))`` is the integer form
    ``w_c (1 - t) + s t x_c`` in ``(x, t)``, and ``s (x_l - W_l) t`` is
    ``(s x_l - w_l) t``; the image of ``x^e`` is the product of ``|e|``
    such forms and the offset, times ``s^(degree - |e|)``, over
    ``s^(degree + 1)``.  Integrating ``t^m`` to ``L / (m + 1)`` over
    ``L = lcm(1, ..., degree + 2)`` keeps it integer, so
    ``den = s^(degree + 1) L``.  Entries are Python ints in a read-only
    object array of shape (3, monomials of degree + 1, monomials of degree).
    """
    from .spaces import monomial_exponents  # spaces imports split, which imports this module

    base = [Fraction(v) for v in base]
    s = lcm(*(v.denominator for v in base))
    w = [v.numerator * (s // v.denominator) for v in base]
    t_key = (0, 0, 0, 1)
    forms, offsets = [], []
    for c in range(3):
        x_t = tuple(int(j == c) for j in range(3)) + (1,)
        forms.append({(0, 0, 0, 0): w[c], t_key: -w[c], x_t: s} if w[c] else {x_t: s})
        offsets.append({x_t: s, t_key: -w[c]} if w[c] else {x_t: s})
    top = lcm(*range(1, degree + 3))
    rows = {e: i for i, e in enumerate(monomial_exponents(degree + 1, 3))}
    exps = monomial_exponents(degree, 3)
    table = np.zeros((3, len(rows), len(exps)), dtype=object)
    pulled = {(0, 0, 0): {(0, 0, 0, 0): 1}}
    for col, e in enumerate(exps):
        if e not in pulled:
            c = next(c for c in range(3) if e[c])
            pulled[e] = _mul_tables(pulled[tuple(v - (j == c) for j, v in enumerate(e))], forms[c], 0)
        scale = s ** (degree - sum(e))
        for l in range(3):
            for key, v in _mul_tables(pulled[e], offsets[l], 0).items():
                table[l, rows[key[:3]], col] += v * scale * (top // (key[3] + 1))
    table.flags.writeable = False
    return s ** (degree + 1) * top, table


# (i, j, k) with Levi-Civita symbol +1; (i, k, j) has -1
_CYCLIC = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def vector_potential(nums, den, base=(0, 0, 0), matrix=None):
    """:func:`poincare2` on integer numerators.

    ``nums`` holds vector fields as an object array of Python ints
    (..., 3 components, monomials of degree <= D in ``monomial_exponents``
    order) over ``den``.  Component ``i`` of the potential is
    ``sum_jl C[i, j, l] P_l u_j`` with ``P_l`` the table of
    :func:`potential_table` and ``C[i, j, l] = sum_k eps_ijk M[k][l]``,
    so one integer product with the table and one with ``C`` serve every
    field.  Returns the numerators (..., 3, monomials of degree <= D + 1)
    and their denominator.
    """
    from .spaces import degree_of_columns, integer_matrix

    width = nums.shape[-1]
    t_den, table = potential_table(degree_of_columns(width), tuple(base))
    if matrix is None:
        rows, m_den = [[int(i == j) for j in range(3)] for i in range(3)], 1
    else:
        rows, m_den = integer_matrix(matrix)
    cross = np.zeros((3, 3, 3), dtype=object)
    for i, j, k in _CYCLIC:
        for l in range(3):
            cross[i, j, l] += rows[k][l]
            cross[i, k, l] -= rows[j][l]
    lead, out = nums.shape[:-2], table.shape[1]
    # (fields x 3 components j, monomials) @ (monomials, 3 axes l x out): every P_l u_j
    products = nums.reshape(-1, width) @ table.reshape(-1, width).T
    potentials = cross.reshape(3, 9) @ products.reshape(-1, 9, out)
    return potentials.reshape(*lead, 3, out), den * t_den * m_den


def poincare2(u: VectorField, base=(0, 0, 0), matrix=None) -> VectorField:
    """Vector potential operator on 2-fields: ∫0^1 u(ray) x t(x-W) dt.

    ``matrix`` generalizes the offset to ``t M (x - W)``, which is what the
    operator looks like for a physical cell written in reference coordinates.
    The coefficients of ``u`` are read as exact rationals (a float as the
    dyadic rational it holds); :func:`vector_potential` runs on their
    numerators.
    """
    from .spaces import IntegerFields

    fields = IntegerFields.from_fields([u])
    nums, den = vector_potential(fields.nums[0, 0], fields.den, base, matrix)
    return IntegerFields(np.repeat(nums[None, None], 4, axis=1), den, ["single"]).reduced()[0].pieces[0]


def poincare3(u: Polynomial, base=(0, 0, 0), matrix=None) -> VectorField:
    """Flux potential operator on 3-fields: ∫0^1 t^2 u(ray) (x-W) dt."""
    ray = _ray_exprs(base)
    ur = u.substitute(ray)
    off = _offset_field(base, matrix=matrix, t_power=2)
    return VectorField(tuple(_integrate_t(ur * c) for c in off.comps))
