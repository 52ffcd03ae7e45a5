"""The reference Alfeld split and the integer tables of piecewise fields on it.

The reference tetrahedron (vertices 0, e1, e2, e3) is split into four
subtetrahedra by coning its barycenter.  A piecewise field holds one
polynomial (scalar or vector) per subtet, expressed in the *global*
reference coordinates, as integer numerators (:class:`IntegerFields`).
Restriction to a face of the split is an integer pull-back table
(:func:`pullback_table`), so continuity and trace checks are exact integer
comparisons; integrals over the subtets are an integer moment table
(:func:`subtet_moment_table`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial, gcd, lcm
from operator import add

import numpy as np

from ..mesh import _det3
from .spaces import IntegerFields, monomial_exponents

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


def _mul_tables(p, q):
    """Product of two coefficient tables ``{exponents: value}``, term by term in table order.

    A sum that cancels is dropped, and a key that reappears later moves to the
    end, so the key order depends only on the zero pattern of the sums.
    """
    out = {}
    for k1, v1 in p.items():
        for k2, v2 in q.items():
            k = tuple(map(add, k1, k2))
            s = out.get(k, 0) + v1 * v2
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


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
    of the origin), ``y -> points[0] + sum_j y_j (points[j] - points[0])``.
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
            pulled[e] = _mul_tables(pulled[tuple(v - (j == c) for j, v in enumerate(e))], forms[c])
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


def piecewise_poincare2(fields, base=None, matrix=None):
    """Apply the vector potential operator piece by piece to :class:`IntegerFields`.

    Valid only when ``base`` is the split center: every ray from the center
    to a point of a subtet then stays inside that subtet, and continuity is
    preserved because internal faces contain the center.  Fields whose four
    pieces agree accept any base point (the origin by default).

    The potentials are formed by :func:`vector_potential` on the integer
    numerators (``matrix`` as there, integer rows over a denominator), on the first piece alone when every field's pieces agree,
    and come as :class:`IntegerFields` too.
    """
    from .poincare import vector_potential  # poincare imports this module

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
    return out.reduced()
