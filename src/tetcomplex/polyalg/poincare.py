"""Poincare operators for the polynomial de Rham sequence.

The three integral operators are evaluated exactly by substituting the
parametrized ray ``W + t (x - W)``, expanding in the auxiliary variable t,
and integrating the t-monomials in closed form; no quadrature is involved.
They satisfy the null-homotopy identity ``d p + p d = id``, the complex
property ``p∘p = 0``, and raise the polynomial degree by at most one.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Polynomial, VectorField, _trusted


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
    """Integrate the last variable over [0, 1] and drop it."""
    n = p.nvars - 1
    out = {}
    for k, v in p.coeffs.items():
        m = k[-1]
        val = v * (Fraction(1, m + 1) if isinstance(v, Fraction) else 1.0 / (m + 1))
        key = k[:-1]
        s = out.get(key, 0) + val
        if s != 0:
            out[key] = s
        else:
            out.pop(key, None)
    return _trusted(out, n)


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
    crossed = ur.cross(off)
    return VectorField(tuple(_integrate_t(c) for c in crossed))


def poincare3(u: Polynomial, base=(0, 0, 0), matrix=None) -> VectorField:
    """Flux potential operator on 3-fields: ∫0^1 t^2 u(ray) (x-W) dt."""
    ray = _ray_exprs(base)
    ur = u.substitute(ray)
    off = _offset_field(base, matrix=matrix, t_power=2)
    return VectorField(tuple(_integrate_t(ur * c) for c in off.comps))
