"""Poincare operators for the polynomial de Rham sequence.

The three integral operators are evaluated exactly by substituting the
parametrized ray ``W + t (x - W)``, expanding in the auxiliary variable t,
and integrating the t-monomials in closed form; no quadrature is involved.
They satisfy the null-homotopy identity ``d p + p d = id``, the complex
property ``p∘p = 0``, and raise the polynomial degree by at most one.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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


def _t_integral(table, term):
    """Integrate the last variable of a coefficient table over [0, 1] and drop it.

    ``term(v, m)`` is the integral of ``v t^m``; sums that cancel are dropped.
    """
    out = {}
    for k, v in table.items():
        key = k[:-1]
        s = out.get(key, 0) + term(v, k[-1])
        if s != 0:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _integrate_t(p: Polynomial) -> Polynomial:
    """Integrate the last variable over [0, 1] and drop it."""
    def term(v, m):
        return v * (Fraction(1, m + 1) if isinstance(v, Fraction) else 1.0 / (m + 1))

    return _trusted(_t_integral(p.coeffs, term), p.nvars - 1)


def _integer_tables(field):
    """The components' coefficient tables on integer numerators over one common denominator."""
    den = lcm(*(v.denominator for c in field.comps for v in c.coeffs.values()))
    return [{k: v.numerator * (den // v.denominator) for k, v in c.coeffs.items()} for c in field.comps], den


def _sub_tables(p, q):
    """``p - q`` on coefficient tables, in the key order of ``Polynomial.__sub__``."""
    out = dict(p)
    for k, v in q.items():
        s = out.get(k, 0) - v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def poincare1(u: VectorField, base=(0, 0, 0)) -> Polynomial:
    """Scalar potential operator on 1-fields: ∫0^1 u(ray)·(x-W) dt."""
    ray = _ray_exprs(base)
    ur = u.substitute(ray)
    off = _offset_field(base, t_power=0)
    return _integrate_t(ur.dot(off))


def poincare2(u: VectorField, base=(0, 0, 0), matrix=None) -> VectorField:
    """Vector potential operator on 2-fields: ∫0^1 u(ray) x t(x-W) dt.

    ``matrix`` generalizes the offset to ``t M (x - W)``, which is what the
    operator looks like for a physical cell written in reference coordinates.
    """
    ray = _ray_exprs(base)
    ur = u.substitute(ray)
    off = _offset_field(base, matrix=matrix, t_power=1)
    try:
        a, a_den = _integer_tables(ur)
        b, b_den = _integer_tables(off)
    except AttributeError:  # a float coefficient
        return VectorField(tuple(_integrate_t(c) for c in ur.cross(off)))
    # the cross product and the t-integral on integer numerators: every term
    # and partial sum is the same multiple of its rational value, so the same
    # sums cancel and the keys come out in the order of the rational product
    crossed = (
        _sub_tables(_mul_tables(a[1], b[2], 0), _mul_tables(a[2], b[1], 0)),
        _sub_tables(_mul_tables(a[2], b[0], 0), _mul_tables(a[0], b[2], 0)),
        _sub_tables(_mul_tables(a[0], b[1], 0), _mul_tables(a[1], b[0], 0)),
    )
    top = max((k[-1] for c in crossed for k in c), default=0)
    t_den = lcm(*range(1, top + 2))
    den = a_den * b_den * t_den
    out = []
    for c in crossed:
        table = _t_integral(c, lambda v, m: v * (t_den // (m + 1)))
        out.append(_trusted({k: Fraction(v, den) for k, v in table.items()}, 3))
    return VectorField(tuple(out))


def poincare3(u: Polynomial, base=(0, 0, 0), matrix=None) -> VectorField:
    """Flux potential operator on 3-fields: ∫0^1 t^2 u(ray) (x-W) dt."""
    ray = _ray_exprs(base)
    ur = u.substitute(ray)
    off = _offset_field(base, matrix=matrix, t_power=2)
    return VectorField(tuple(_integrate_t(ur * c) for c in off.comps))
