"""Exact sympy references for the integer kernels, and Hypothesis strategies of integer fields.

A row of numerators on the monomials of degree <= D (``monomial_exponents``
order) over a denominator reads as a sympy ``Poly`` over the rationals;
every comparison against the integer kernels is an exact equality.
"""

from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import sympy
from hypothesis import strategies as st
from sympy import QQ, Poly

from tetcomplex.polyalg import (
    INTERNAL_FACES,
    PARENT_FACE_VERTICES,
    REF_CENTER,
    REF_VERTICES,
    SUBTET_VERTICES,
    IntegerFields,
    dim_poly,
    monomial_exponents,
)
from tetcomplex.polyalg.spaces import degree_of_columns

X = sympy.symbols("x y z")
T = sympy.Symbol("t")


def poly(row, den=1, gens=X):
    """Numerators on the monomials in ``len(gens)`` variables over ``den``, as a ``Poly``."""
    exps = monomial_exponents(degree_of_columns(len(row)) if len(gens) == 3 else _degree(len(row), len(gens)), len(gens))
    return Poly.from_dict({e: QQ(int(v), int(den)) for e, v in zip(exps, row) if v}, *gens, domain=QQ)


def _degree(count, nvars):
    degree = -1
    while dim_poly(degree, nvars) < count:
        degree += 1
    return degree


def row(p, degree, nvars=3):
    """The coefficients of a ``Poly`` on the monomials of degree <= ``degree``, as ``QQ`` values."""
    terms = dict(p.terms())
    return [terms.get(e, QQ(0)) for e in monomial_exponents(degree, nvars)]


def field(fields, i=0):
    """Field ``i`` of :class:`IntegerFields` as four pieces, each a list of ``Poly`` by component."""
    return [[poly(c, fields.den) for c in piece] for piece in fields.nums[i].tolist()]


def fields_of(polys, degree, continuity):
    """:class:`IntegerFields` of fields given as four pieces of ``Poly`` components each."""
    rows = [[[row(c, degree) for c in piece] for piece in f] for f in polys]
    den = sympy.ilcm(1, *(v.denominator for f in rows for piece in f for c in piece for v in c))
    nums = np.array(
        [[[[int(v.numerator) * (den // int(v.denominator)) for v in c] for c in piece] for piece in f] for f in rows],
        dtype=object,
    ).reshape(len(rows), 4, len(rows[0][0]), dim_poly(degree))
    return IntegerFields(nums, int(den), continuity)


def grad(p):
    return [p.diff(x) for x in X]


def curl(u):
    return [u[2].diff(X[1]) - u[1].diff(X[2]), u[0].diff(X[2]) - u[2].diff(X[0]), u[1].diff(X[0]) - u[0].diff(X[1])]


def div(u):
    return u[0].diff(X[0]) + u[1].diff(X[1]) + u[2].diff(X[2])


def matvec(matrix, u):
    """``matrix @ u`` for a rational 3 x 3 matrix and three ``Poly`` components."""
    return [sum((u[j] * QQ(matrix[i][j].numerator, matrix[i][j].denominator) for j in range(3)), Poly(0, *X, domain=QQ))
            for i in range(3)]


def substitute(p, exprs, gens):
    """``p`` with ``x_i`` replaced by the sympy expression ``exprs[i]``, as a ``Poly`` in ``gens``."""
    return Poly(p.as_expr().xreplace(dict(zip(X, exprs))), *gens, domain=QQ)


def affine(points, gens):
    """The map of the unit simplex in ``gens`` onto ``points``: one expression per coordinate."""
    p0 = points[0]
    return [sympy.Rational(p0[i]) + sum(sympy.Rational(p[i] - p0[i]) * y for p, y in zip(points[1:], gens)) for i in range(3)]


def simplex_integral(p):
    """The exact integral of a ``Poly`` in d variables over the unit d-simplex: ``e! / (|e| + d)!`` per monomial."""
    d = len(p.gens)
    return sum(
        (c * QQ(int(sympy.prod([sympy.factorial(a) for a in e])), int(sympy.factorial(sum(e) + d))) for e, c in p.terms()),
        QQ(0),
    )


def tet_integral(p, vertices):
    """The exact integral of a ``Poly`` in x, y, z over the tetrahedron on ``vertices``."""
    ys = sympy.symbols("u v w")
    pulled = substitute(p, affine(vertices, ys), ys)
    p0 = vertices[0]
    det = sympy.Matrix([[v[i] - p0[i] for v in vertices[1:]] for i in range(3)]).det()
    return simplex_integral(pulled) * QQ(abs(det).p, abs(det).q)


@lru_cache(maxsize=None)
def _subtet_monomial(piece, exps):
    return tet_integral(Poly.from_dict({exps: 1}, *X, domain=QQ), SUBTET_VERTICES[piece])


def split_integral(pieces):
    """The exact integral over the reference cell of a scalar ``Poly`` per subtet, monomial by monomial."""
    return sum((c * _subtet_monomial(i, e) for i, p in enumerate(pieces) for e, c in p.terms()), QQ(0))


_UV = sympy.symbols("u v")


def face_trace(p, points):
    """The restriction of a ``Poly`` to the triangle on ``points``, in its parameters (u, v)."""
    return substitute(p, affine(points, _UV), _UV)


def is_continuous(pieces):
    """Whether the four pieces (each a list of ``Poly`` components) agree on every internal face of the split."""
    for (i, j), (k, l) in INTERNAL_FACES:
        points = (REF_VERTICES[k], REF_VERTICES[l], REF_CENTER)
        if any(face_trace(a, points) != face_trace(b, points) for a, b in zip(pieces[i], pieces[j])):
            return False
    return True


def vanishes_on_boundary(pieces):
    """Whether piece ``i`` (a list of ``Poly`` components) vanishes on parent face ``i``, for every face."""
    return all(
        face_trace(c, tuple(REF_VERTICES[v] for v in face)).is_zero
        for piece, face in zip(pieces, PARENT_FACE_VERTICES)
        for c in piece
    )


def on_ray(p, base):
    """``p(W + t (x - W))`` as a ``Poly`` in x, y, z, t."""
    w = [sympy.Rational(b) for b in base]
    return substitute(p, [wi + T * (x - wi) for wi, x in zip(w, X)], (*X, T))


def integrate_t(p):
    """``∫0^1 p dt`` of a ``Poly`` in x, y, z, t, as a ``Poly`` in x, y, z: ``t^m`` integrates to ``1 / (m + 1)``."""
    out = {}
    for e, c in p.terms():
        out[e[:3]] = out.get(e[:3], QQ(0)) + c * QQ(1, e[3] + 1)
    return Poly.from_dict({e: c for e, c in out.items() if c}, *X, domain=QQ)


def offset(base, power=0):
    """The components ``t^power (x_l - W_l)`` as ``Poly`` in x, y, z, t."""
    return [Poly(T**power * (x - sympy.Rational(b)), *X, T, domain=QQ) for x, b in zip(X, base)]


small_ints = st.integers(-20, 20)


@st.composite
def integer_fields(draw, components=3, max_degree=3, max_count=3, labels=("C0", "L2")):
    """:class:`IntegerFields` with a few small numerators: each field single or four independent pieces."""
    count = draw(st.integers(1, max_count))
    width = dim_poly(draw(st.integers(0, max_degree)))
    nums = np.zeros((count, 4, components, width), dtype=object)
    continuity = []
    for a in range(count):
        single = draw(st.booleans())
        for p in range(1 if single else 4):
            for c in range(components):
                for j in draw(st.lists(st.integers(0, width - 1), max_size=5)):
                    nums[a, p, c, j] = draw(small_ints)
        if single:
            nums[a, 1:] = nums[a, 0]
        continuity.append("single" if single else draw(st.sampled_from(labels)))
    return IntegerFields(nums, draw(st.integers(1, 30)), continuity)


def single_field(exprs, degree):
    """One field of :class:`IntegerFields` on every piece from sympy expressions, one per component."""
    return fields_of([[[Poly(e, *X, domain=QQ) for e in exprs]] * 4], degree, ["single"])


def evaluate(nums, den, points):
    """Float values of numerators (..., monomials) over ``den`` at (m, 3) points: each coefficient
    rounded once and summed term by term about the origin; the values come last, (..., m)."""
    exps = np.array(monomial_exponents(degree_of_columns(nums.shape[-1])), dtype=int).reshape(-1, 3)
    monomials = np.prod(np.asarray(points, float)[:, None, :] ** exps[None], axis=-1)
    return (nums / den).astype(float) @ monomials.T


def exact_matrix(amap):
    """The matrix ``B`` of an affine map as Fraction rows."""
    return [[Fraction(v, amap.den) for v in row] for row in amap.rows]


def inverse(matrix):
    """The exact inverse of a 3 x 3 Fraction (or int) matrix: its adjugate over its determinant."""
    from tetcomplex.mesh import _adj3, _det3

    det = Fraction(_det3(matrix))
    return [[v / det for v in row] for row in _adj3(matrix)]


def cell_on(matrix):
    """A stand-in cell whose affine map has the Fraction ``matrix``, of positive determinant."""
    from tetcomplex.mesh import AffineMap
    from tetcomplex.polyalg.spaces import integer_matrix

    return SimpleNamespace(amap=AffineMap(*integer_matrix(matrix), (0, 1, 2, 3)))


def physical_derivative(which, matrix, fields):
    """``B^-T grad``, ``B curl(B^T .) / det B`` or ``div(B^-1 .)`` of reference-expressed
    :class:`IntegerFields`: the integer derivative tables contracted with ``B`` or its
    exact inverse as integer rows, a route that shares no code with the numerator
    operators ``elements.phys_*``.

    The images are :class:`IntegerFields` on the monomials of the fields' own degree.
    """
    from tetcomplex.mesh import _det3
    from tetcomplex.polyalg import derivative_table
    from tetcomplex.polyalg.spaces import integer_matrix

    nums, width = fields.nums, fields.nums.shape[-1]
    # d[c][..., a, :] is the numerator of d u_a / d x_c over fields.den, padded back to the fields' monomials
    d = [np.concatenate([nums @ t.T, np.zeros((*nums.shape[:-1], width - t.shape[0]), dtype=object)], axis=-1)
         for t in derivative_table(degree_of_columns(width))]
    if which in ("grad", "div"):
        inv, den = integer_matrix(inverse(matrix))
        if which == "grad":
            out = np.stack([sum(inv[c][i] * d[c][:, :, 0] for c in range(3)) for i in range(3)], axis=2)
        else:
            out = sum(inv[j][a] * d[j][:, :, a] for j in range(3) for a in range(3))[:, :, None]
    else:
        # v = B^T u has d_j v_m = sum_a B[a][m] d_j u_a; curl v, then B curl v / det B
        rows, b = integer_matrix(matrix)
        dv = [[sum(rows[a][m] * d[j][:, :, a] for a in range(3)) for m in range(3)] for j in range(3)]
        cv = [dv[1][2] - dv[2][1], dv[2][0] - dv[0][2], dv[0][1] - dv[1][0]]
        det = Fraction(_det3(matrix))
        sign = 1 if det > 0 else -1
        out = np.stack([sum(rows[i][m] * cv[m] for m in range(3)) * (sign * det.denominator) for i in range(3)], axis=2)
        den = b * b * abs(det.numerator)
    labels = ["single" if c == "single" else "L2" for c in fields.continuity]
    return IntegerFields(out, fields.den * den, labels)
