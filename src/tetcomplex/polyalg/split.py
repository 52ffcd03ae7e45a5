"""Reference Alfeld split and piecewise polynomial fields on it.

The reference tetrahedron (vertices 0, e1, e2, e3) is split into four
subtetrahedra by coning its barycenter.  Piecewise fields store one
polynomial (scalar or vector) per subtet, expressed in the *global*
reference coordinates, which makes continuity checks exact coefficient
comparisons after restriction to the shared interface planes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm

import numpy as np

from .poly import VectorField, _det3, _mul_tables, curl, div, grad

REF_VERTICES = (
    (Fraction(0), Fraction(0), Fraction(0)),
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
)
REF_CENTER = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4))

# subtet i replaces parent vertex i by the barycenter
SUBTET_VERTICES = tuple(
    tuple(REF_CENTER if j == i else REF_VERTICES[j] for j in range(4))
    for i in range(4)
)

# internal face shared by subtets i and j: parent edge {k, l} coned with the center
INTERNAL_FACES = tuple(
    (pair, tuple(k for k in range(4) if k not in pair))
    for pair in combinations(range(4), 2)
)

# parent face i (opposite parent vertex i) is a boundary face of subtet i only
PARENT_FACE_VERTICES = tuple(
    tuple(j for j in range(4) if j != i) for i in range(4)
)


def _affine_cols(points):
    p0 = points[0]
    return [[points[j + 1][i] - p0[i] for j in range(len(points) - 1)] for i in range(3)], list(p0)


def _integer_map(points):
    """The map of the unit simplex onto ``points`` on integers: ``(columns, shift, s)``, each entry times ``s``.

    ``s`` is the least common denominator of the entries.  Only the
    points' numerators and denominators are read (exact rationals or
    ints), so no ``Fraction`` is formed.
    """
    den = lcm(*(v.denominator for p in points for v in p))
    nums = [[v.numerator * (den // v.denominator) for v in p] for p in points]
    shift = nums[0]
    matrix = [[p[i] - shift[i] for p in nums[1:]] for i in range(3)]
    g = gcd(den, *shift, *(v for row in matrix for v in row))
    return [[v // g for v in row] for row in matrix], [v // g for v in shift], den // g


@lru_cache(maxsize=None)
def pullback_table(degree, points):
    """The pull-back ``p -> p o F`` on monomial numerators, as one integer table.

    ``F`` maps the unit simplex in ``m = len(points) - 1`` variables onto the
    simplex on ``points`` (rational points of R^3, ``points[0]`` the image
    of the origin), as :func:`face_param` does.
    Returns ``(den, table)``: ``table`` has one row per monomial of degree
    <= ``degree`` in ``m`` variables and one column per monomial of degree
    <= ``degree`` in 3 variables, both in ``monomial_exponents`` order, so
    that a polynomial with numerators ``c`` over ``B`` pulls back to the
    numerators ``table @ c`` over ``B * den``.  With ``s`` the common
    denominator of the map, ``s x_c o F`` is an affine form in ``y`` with
    integer coefficients and ``s^|e| x^e o F`` the product of one lower
    monomial's with one such form; column ``e`` holds it times
    ``s^(degree - |e|)``, so ``den = s^degree``.  Entries are Python ints
    in a read-only object array.
    """
    from .spaces import monomial_exponents  # spaces imports this module

    matrix, shift, s = _integer_map(points)
    m = len(points) - 1
    units = [tuple(int(j == i) for j in range(m)) for i in range(m)]
    forms = []
    for c in range(3):
        form = {(0,) * m: shift[c]} if shift[c] else {}
        for j in range(m):
            if matrix[c][j]:
                form[units[j]] = matrix[c][j]
        forms.append(form)
    rows = {f: i for i, f in enumerate(monomial_exponents(degree, m))}
    exps = monomial_exponents(degree, 3)
    table = np.zeros((len(rows), len(exps)), dtype=object)
    pulled = {(0, 0, 0): {(0,) * m: 1}}
    for col, e in enumerate(exps):
        if e not in pulled:
            c = next(c for c in range(3) if e[c])
            pulled[e] = _mul_tables(pulled[tuple(v - (j == c) for j, v in enumerate(e))], forms[c], 0)
        scale = s ** (degree - sum(e))
        for f, v in pulled[e].items():
            table[rows[f], col] = v * scale
    table.flags.writeable = False
    return s**degree, table


@lru_cache(maxsize=None)
def subtet_moment_table(degree):
    """Integrals of every monomial of degree <= ``degree`` over each subtet, on integers.

    Returns ``(den, tables)``: ``tables[i][e] / den`` is the exact integral of
    ``x^e`` over subtet ``i``.  Each monomial is pulled back to the unit
    simplex by :func:`pullback_table` (over ``s^degree``, ``s`` the common
    denominator of the subtet maps), where ``y^f`` integrates to
    ``f! / (|f| + 3)!``; so ``den = (degree + 3)! s^degree`` times the
    common denominator of the subtet volumes.
    """
    from .spaces import monomial_exponents  # spaces imports this module

    # each subtet's |det| as a reduced (numerator, denominator): that of its integer map over s^3
    dets = []
    for points in SUBTET_VERTICES:
        matrix, _, s = _integer_map(points)
        num, den = abs(_det3(matrix)), s**3
        g = gcd(num, den)
        dets.append((num // g, den // g))
    vol_den = lcm(*(d for _, d in dets))
    top = factorial(degree + 3)
    exps = monomial_exponents(degree, 3)
    # top times the integral of y^f over the unit simplex
    unit = np.array(
        [factorial(f[0]) * factorial(f[1]) * factorial(f[2]) * (top // factorial(sum(f) + 3)) for f in exps],
        dtype=object,
    )
    pulled = [pullback_table(degree, points) for points in SUBTET_VERTICES]
    den = lcm(*(d for d, _ in pulled))
    tables = []
    for (d, table), (det_num, det_den) in zip(pulled, dets):
        weight = det_num * (vol_den // det_den) * (den // d)
        tables.append(dict(zip(exps, (unit @ table * weight).tolist())))
    return top * den * vol_den, tuple(tables)


def face_param(points):
    """Affine parametrization (xi, eta) -> p0 + xi (p1-p0) + eta (p2-p0)."""
    return _affine_cols(points)


class PiecewiseField:
    """Field on the reference Alfeld split: one piece per subtet.

    ``continuity`` is one of ``"single"`` (all pieces the same polynomial),
    ``"C0"`` (claimed continuous across internal faces) or ``"L2"``.  The
    C0 claim can be verified exactly with :meth:`check_c0`.
    """

    __slots__ = ("pieces", "continuity")

    def __init__(self, pieces, continuity="L2"):
        pieces = tuple(pieces)
        if len(pieces) != 4:
            raise ValueError(f"a split field has 4 pieces, one per subtet, not {len(pieces)}")
        self.pieces = pieces
        self.continuity = continuity

    @classmethod
    def from_single(cls, field):
        return cls((field, field, field, field), "single")

    @property
    def is_vector(self):
        return isinstance(self.pieces[0], VectorField)

    @property
    def degree(self):
        return max(p.degree for p in self.pieces)

    def is_zero(self):
        return all(p.is_zero() for p in self.pieces)

    def map(self, fn, continuity=None):
        return PiecewiseField(
            tuple(fn(p) for p in self.pieces),
            continuity if continuity is not None else ("single" if self.continuity == "single" else "L2"),
        )

    def __add__(self, other):
        other = as_piecewise(other)
        cont = "single" if self.continuity == "single" and other.continuity == "single" else (
            "C0" if self.continuity in ("single", "C0") and other.continuity in ("single", "C0") else "L2"
        )
        return PiecewiseField(tuple(a + b for a, b in zip(self.pieces, other.pieces)), cont)

    def __sub__(self, other):
        other = as_piecewise(other)
        return self + (-other)

    def __neg__(self):
        return PiecewiseField(tuple(-p for p in self.pieces), self.continuity)

    def __mul__(self, scalar):
        return PiecewiseField(tuple(p * scalar for p in self.pieces), self.continuity)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, PiecewiseField) and all(
            a == b for a, b in zip(self.pieces, other.pieces)
        )

    # -- structure checks ----------------------------------------------

    def is_single(self):
        return all(p == self.pieces[0] for p in self.pieces[1:])

    def check_c0(self):
        """Exact trace agreement across all six internal split faces."""
        for pair, edge in INTERNAL_FACES:
            i, j = pair
            k, l = edge
            pts = (REF_VERTICES[k], REF_VERTICES[l], REF_CENTER)
            matrix, shift = face_param(pts)
            ti = self.pieces[i].compose_affine(matrix, shift)
            tj = self.pieces[j].compose_affine(matrix, shift)
            if not (ti - tj).is_zero():
                return False
        return True

    def boundary_trace(self, face_index):
        """Restriction to parent face ``face_index`` as a 2-var field.

        Parametrized by the face's vertices in index order (p0, p1, p2).
        """
        pts = tuple(REF_VERTICES[v] for v in PARENT_FACE_VERTICES[face_index])
        matrix, shift = face_param(pts)
        return self.pieces[face_index].compose_affine(matrix, shift)

    def vanishes_on_boundary(self):
        return all(self.boundary_trace(i).is_zero() for i in range(4))

    # -- calculus --------------------------------------------------------

    def grad(self):
        return self.map(grad)

    def curl(self):
        return self.map(curl)

    def div(self):
        return self.map(div)

    def matmul(self, matrix):
        return self.map(lambda p: p.matmul(matrix), continuity=self.continuity)

    def integrate(self):
        """Exact integral over the whole reference tet (sum over subtets).

        Vector fields integrate component-wise to a tuple.  The moments
        come from one integer table, that of the field's degree.
        """
        den, tables = subtet_moment_table(max(self.degree, 0))
        if self.is_vector:
            totals = [Fraction(0)] * 3
        else:
            totals = [Fraction(0)]
        for i in range(4):
            piece = self.pieces[i]
            comps = piece.comps if self.is_vector else (piece,)
            for c, comp in enumerate(comps):
                for e, v in comp.coeffs.items():
                    totals[c] += v * Fraction(tables[i][e], den)
        return tuple(totals) if self.is_vector else totals[0]

    def to_float(self):
        return PiecewiseField(tuple(p.to_float() for p in self.pieces), self.continuity)

    def dump(self):
        out = []
        for i, p in enumerate(self.pieces):
            out.append(f"[piece {i}]")
            out.extend(p.dump())
        return out

    def __repr__(self):
        kind = "vector" if self.is_vector else "scalar"
        return f"PiecewiseField({kind}, deg={self.degree}, {self.continuity})"


def as_piecewise(field):
    if isinstance(field, PiecewiseField):
        return field
    return PiecewiseField.from_single(field)


def piecewise_poincare2(field, base=None, matrix=None):
    """Apply the vector potential operator piece by piece.

    Valid only when ``base`` is the split center: every ray from the center
    to a point of a subtet then stays inside that subtet, and continuity is
    preserved because internal faces contain the center.  Fields whose four
    pieces agree accept any base point (the origin by default).

    ``field`` is a (piecewise) vector field, or :class:`IntegerFields`,
    whose potentials then come as ``IntegerFields`` too; either way they
    are formed by :func:`vector_potential` on integer numerators, on the
    first piece alone when every field's pieces agree.
    """
    from .poincare import vector_potential
    from .spaces import IntegerFields

    fields = field if isinstance(field, IntegerFields) else IntegerFields.from_fields([field])
    single = fields.single_pieces()
    if single.all():
        nums, den = vector_potential(fields.nums[:, :1], fields.den, base if base is not None else (0, 0, 0), matrix)
        out = IntegerFields(np.repeat(nums, 4, axis=1), den, ["single"] * len(fields))
    else:
        if base is None or tuple(base) != REF_CENTER:
            raise ValueError("piecewise vector potential requires the split center as base point")
        nums, den = vector_potential(fields.nums, fields.den, REF_CENTER, matrix)
        labels = [
            "single" if one else ("C0" if c in ("C0", "single") else "L2")
            for one, c in zip(single, fields.continuity)
        ]
        out = IntegerFields(nums, den, labels)
    out = out.reduced()
    return out if field is fields else out[0]
