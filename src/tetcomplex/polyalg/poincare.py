"""Poincare operators for the polynomial de Rham sequence, on integer numerators.

The three integral operators about a base point ``W``,

- ``p1 u = ∫0^1 u(W + t (x - W)) · (x - W) dt`` on 1-fields,
- ``p2 u = ∫0^1 u(W + t (x - W)) x t (x - W) dt`` on 2-fields,
- ``p3 q = ∫0^1 t^2 q(W + t (x - W)) (x - W) dt`` on 3-fields,

are evaluated exactly: the parametrized ray is substituted, the result
expanded in the auxiliary variable t, and the t-monomials integrated in
closed form; no quadrature is involved.  This is done once per degree,
base point and power of t, into an integer table (:func:`potential_table`)
that :func:`scalar_potential`, :func:`vector_potential` and
:func:`flux_potential` contract with the numerators of any number of
fields.  They satisfy the null-homotopy identity ``d p + p d = id``, the
complex property ``p∘p = 0``, and raise the polynomial degree by at most one.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

import numpy as np

from .spaces import _CYCLIC, degree_of_columns, monomial_exponents
from .split import _mul_tables


@lru_cache(maxsize=None)
def potential_table(degree, base, power=1):
    """The potential about ``base`` with weight ``t^power`` on monomial numerators, as one integer table.

    ``table[l]`` takes the coefficients of a scalar polynomial ``p`` of
    degree <= ``degree`` to those of
    ``∫0^1 t^power p(W + t (x - W)) (x_l - W_l) dt``, of degree <=
    ``degree + 1``, both in ``monomial_exponents`` order: a polynomial with
    numerators ``c`` over ``B`` maps to the numerators ``table[l] @ c`` over
    ``B * den``.  Power 0 serves :func:`scalar_potential`, 1
    :func:`vector_potential` and 2 :func:`flux_potential`.  With ``s`` the
    common denominator of ``W = w / s``, ``s (W_c + t (x_c - W_c))`` is the
    integer form ``w_c (1 - t) + s t x_c`` in ``(x, t)``, and
    ``s (x_l - W_l) t^power`` is ``(s x_l - w_l) t^power``; the image of
    ``x^e`` is the product of ``|e|`` such forms and the offset, times
    ``s^(degree - |e|)``, over ``s^(degree + 1)``.  Integrating ``t^m`` to
    ``L / (m + 1)`` over ``L = lcm(1, ..., degree + power + 1)`` keeps it
    integer, so ``den = s^(degree + 1) L``.  ``base`` holds ints or
    Fractions, of which only numerators and denominators are read.
    Entries are Python ints in a read-only object array of shape (3,
    monomials of degree + 1, monomials of degree).
    """
    s = lcm(*(v.denominator for v in base))
    w = [v.numerator * (s // v.denominator) for v in base]
    t_key, t_power = (0, 0, 0, 1), (0, 0, 0, power)
    forms, offsets = [], []
    for c in range(3):
        unit = tuple(int(j == c) for j in range(3))
        x_t, x_power = unit + (1,), unit + (power,)
        forms.append({(0, 0, 0, 0): w[c], t_key: -w[c], x_t: s} if w[c] else {x_t: s})
        offsets.append({x_power: s, t_power: -w[c]} if w[c] else {x_power: s})
    top = lcm(*range(1, degree + power + 2))
    rows = {e: i for i, e in enumerate(monomial_exponents(degree + 1, 3))}
    exps = monomial_exponents(degree, 3)
    table = np.zeros((3, len(rows), len(exps)), dtype=object)
    pulled = {(0, 0, 0): {(0, 0, 0, 0): 1}}
    for col, e in enumerate(exps):
        if e not in pulled:
            c = next(c for c in range(3) if e[c])
            pulled[e] = _mul_tables(pulled[tuple(v - (j == c) for j, v in enumerate(e))], forms[c])
        scale = s ** (degree - sum(e))
        for l in range(3):
            for key, v in _mul_tables(pulled[e], offsets[l]).items():
                table[l, rows[key[:3]], col] += v * scale * (top // (key[3] + 1))
    table.flags.writeable = False
    return s ** (degree + 1) * top, table


def scalar_potential(nums, den, base=(0, 0, 0)):
    """``p1`` on integer numerators: ``sum_l P_l u_l`` with the power-0 tables ``P_l``.

    ``nums`` holds vector fields as an object array of Python ints (..., 3
    components, monomials of degree <= D) over ``den``.  Returns the
    numerators (..., monomials of degree <= D + 1) and their denominator.
    """
    t_den, table = potential_table(degree_of_columns(nums.shape[-1]), tuple(base), 0)
    return sum(nums[..., l, :] @ table[l].T for l in range(3)), den * t_den


def vector_potential(nums, den, base=(0, 0, 0), matrix=None):
    """``p2`` on integer numerators, with the offset ``t M (x - W)``.

    ``matrix``, integer rows over a positive denominator ``(rows, den)``,
    generalizes the offset to ``t M (x - W)`` with ``M = rows / den``,
    which is what the operator looks like for a physical cell written in
    reference coordinates.  ``nums`` holds vector fields as an object array of Python
    ints (..., 3 components, monomials of degree <= D in
    ``monomial_exponents`` order) over ``den``.  Component ``i`` of the
    potential is ``sum_jl C[i, j, l] P_l u_j`` with ``P_l`` the power-1
    table of :func:`potential_table` and
    ``C[i, j, l] = sum_k eps_ijk M[k][l]``, so one integer product with the
    table and one with ``C`` serve every field.  Returns the numerators
    (..., 3, monomials of degree <= D + 1) and their denominator.
    """
    width = nums.shape[-1]
    t_den, table = potential_table(degree_of_columns(width), tuple(base))
    rows, m_den = ([[int(i == j) for j in range(3)] for i in range(3)], 1) if matrix is None else matrix
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


def flux_potential(nums, den, base=(0, 0, 0)):
    """``p3`` on integer numerators: component ``l`` is ``P_l q`` with the power-2 tables ``P_l``.

    ``nums`` holds scalar fields (..., monomials of degree <= D) over
    ``den``.  Returns the numerators (..., 3, monomials of degree <= D + 1)
    and their denominator.
    """
    t_den, table = potential_table(degree_of_columns(nums.shape[-1]), tuple(base), 2)
    return np.stack([nums @ table[l].T for l in range(3)], axis=-2), den * t_den
