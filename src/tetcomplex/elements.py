"""Local element spaces, degrees of freedom, and nodal bases.

Four local spaces per (r, k) with r in {k, k+1, k+2}:

- ``lagrange``: scalar P_r (potentials)
- ``gradcurl``: gradients of P_r plus vector potentials of the velocity
  space (the grad-curl conforming space)
- ``velocity``: vector P_k enriched with modified face bubbles (k <= 2)
  and interior bubbles of the split
- ``pressure``: scalar P_{k-1}

All local fields are stored in reference coordinates of their cell; the
physical value at ``x = B xhat + b`` is the stored field evaluated at
``xhat``.  Entity DOFs are defined from globally oriented entity data
(ascending-vertex tangents, frames, exact face directions), so every
cell incident to a shared entity evaluates the identical functional.
Every exact quantity of a cell is read from its map's integer rows over
one denominator (:class:`~tetcomplex.mesh.AffineMap`); the fields are
integer numerators (:class:`IntegerFields`).
"""

from __future__ import annotations

import gc
import logging
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import permutations, product
from math import comb, factorial, gcd, lcm, prod
from operator import mul

import numpy as np

from .bubbles import interior_bubbles, layered_targets, scalar_face_bubble, solve_div
from .mesh import REF_EDGE_VERTICES, REF_FACE_VERTICES, AffineMap, MeshTopology, _rounded
from .polyalg.poincare import _CYCLIC
from .polyalg.spaces import (
    IntegerFields,
    degree_of_columns,
    derivative_gathers,
    derivatives,
    dim_poly,
    integer_rref,
    monomial_exponents,
    rank as exact_rank,
)
from .polyalg.split import (
    REF_CENTER,
    REF_VERTICES,
    SUBTET_VERTICES,
    piecewise_poincare2,
    subtet_moment_table,
)
from .quadrature import QuadratureRule, alfeld_composite

SPACE_KINDS = ("lagrange", "gradcurl", "velocity", "pressure")

_log = logging.getLogger("tetcomplex.elements")

# subtet containing each local edge (any valid choice works for the
# continuous fields DOFs are applied to)
_SUBTET_FOR_EDGE = tuple(min(set(range(4)) - set(pair)) for pair in REF_EDGE_VERTICES)


def validate_family(r, k):
    if k < 1:
        raise ValueError("enrichment order k must be >= 1")
    if r - k not in (0, 1, 2):
        raise ValueError(f"Lagrange order r={r} must be in {{k, k+1, k+2}} for k={k}")


# ---------------------------------------------------------------------------
# cell geometry bundle


class CellGeometry:
    """Entity data of a cell, from which its DOFs are defined, derived from its affine map.

    The map ``x = B xhat + b`` is all it reads.  A cell's vertex tuple is
    ascending, so an edge's or face's vertices in ascending global order
    are its reference vertices in the order of ``amap.vertex_order``.  Edge
    tangents and lengths and face frames are ``B`` times reference
    differences, each exact difference rounded once; a face's
    ``"direction"``, the cross product of its two edges from the lowest
    vertex, is coprime integers over ``"direction_den"``.  Entity points
    stay in reference coordinates (the reference ends of an edge and
    anchors of a face, in ascending global order), so of the float data
    only the map's shift depends on where the cell sits: the geometry of a
    class map (zero shift) serves every cell of its class, on any mesh.
    """

    def __init__(self, amap: AffineMap):
        self.amap = amap
        den = amap.den
        # the vertices less vertex 0, as integer numerators over den: 0 and the columns of B
        corners = np.array([(0, 0, 0), *zip(*amap.rows)], dtype=object)

        def ascending(ref):
            return sorted(ref, key=amap.vertex_order.__getitem__)

        self.edges = []
        for lo, hi in map(ascending, REF_EDGE_VERTICES):
            d = _rounded(corners[hi] - corners[lo], den)
            length = float(np.linalg.norm(d))
            self.edges.append(
                {
                    "ref_lo": REF_VERTICES[lo],
                    "ref_hi": REF_VERTICES[hi],
                    "tangent": d / length,
                    "length": length,
                }
            )

        self.faces = []
        for anchors in map(ascending, REF_FACE_VERTICES):
            e1, e2 = corners[anchors[1:]] - corners[anchors[0]]
            # the exact area-weighted normal, over den^2: both incident cells share it
            cross = np.cross(e1, e2).tolist()
            g = gcd(den * den, *cross)
            t1 = _rounded(e1, den)
            normal2 = np.cross(t1, _rounded(e2, den))  # length = 2 * area
            area = float(np.linalg.norm(normal2)) / 2.0
            n = normal2 / (2.0 * area)
            tau1 = t1 / np.linalg.norm(t1)
            self.faces.append(
                {
                    "ref_anchors": tuple(REF_VERTICES[v] for v in anchors),
                    "tau1": tau1,
                    "tau2": np.cross(n, tau1),
                    "normal": n,
                    "area": area,
                    "direction": tuple(c // g for c in cross),
                    "direction_den": den * den // g,
                }
            )

    @classmethod
    def standalone(cls, vertices):
        """The geometry of one cell on ``vertices``, its map shifted to vertex 0."""
        mesh = MeshTopology(vertices, [(0, 1, 2, 3)])
        origin = tuple(mesh.lattice[mesh.cell_vertices[0, 0]].tolist())
        return cls(replace(mesh.class_maps[0], shift=origin, shift_den=mesh.denominator))

    def signature(self):
        """Cache key: the congruence class of the cell's affine map."""
        return self.amap.signature()

    @property
    def scale(self):
        """Largest absolute matrix entry, the mesh size h on a Kuhn mesh: ``(numerator, denominator)``."""
        return max(abs(v) for row in self.amap.rows for v in row), self.amap.den

    def shape(self):
        """The matrix as coprime integers, which a homothety leaves unchanged."""
        rows = self.amap.rows
        g = gcd(*(v for row in rows for v in row))
        return tuple(tuple(v // g for v in row) for row in rows)

    def orbit_key(self):
        """Key that every similarity ``B -> t Q B S`` leaves unchanged.

        The least image of :meth:`shape` under the similarities, so two
        cells share it exactly when one is a similar image of the other.
        The vertex order is left out: it flips face directions only.
        """
        images = _images(self.shape())
        least = images[np.lexsort(images.T[::-1])[0]]
        return tuple(map(tuple, least.reshape(3, 3).tolist()))


# Similarities B -> Q B S of cell matrices, as (perm, signs, cols):
# Q is a signed permutation of the physical axes, (Q v)[i] = signs[i] v[perm[i]],
# and S a permutation of reference vertices 1-3, (B S)[:, j] = B[:, cols[j]].
# Vertex 0 stays fixed: it is the Poincare base point of the polynomial
# generators.  The identity comes first.
_SIMILARITIES = tuple(
    (perm, signs, cols)
    for perm in permutations(range(3))
    for signs in product((1, -1), repeat=3)
    for cols in permutations(range(3))
)


# (Q M S)[i][j] = signs[i] M[perm[i]][cols[j]]: with M flattened, the image
# under similarity n is _IMAGE_SIGNS[n] * M.ravel()[_IMAGE_GATHER[n]]
_IMAGE_GATHER = np.array([[3 * p + c for p in perm for c in cols] for perm, _, cols in _SIMILARITIES])
_IMAGE_SIGNS = np.array([[s for s in signs for _ in range(3)] for _, signs, _ in _SIMILARITIES])


def _images(shape):
    """The (288, 9) int64 array of the flattened images ``Q shape S``, one row per similarity in order."""
    return _IMAGE_SIGNS * np.array(shape, dtype=np.int64).ravel()[_IMAGE_GATHER]


@lru_cache(maxsize=1)
def reference_cell() -> CellGeometry:
    return CellGeometry.standalone(REF_VERTICES)


# ---------------------------------------------------------------------------
# physical grad, curl and div of reference-expressed fields, on integer numerators


def _physical(fields, nums, det):
    """Images of ``fields`` with numerators ``nums`` over ``det`` times their denominator.

    A field labelled ``"single"`` keeps its label; every other image is
    ``"L2"``: a derivative of a continuous field need not be continuous.
    """
    labels = ["single" if c == "single" else "L2" for c in fields.continuity]
    return IntegerFields(nums, det * fields.den, labels).reduced()


def phys_grad(cell: CellGeometry, fields):
    """``B^-T grad p`` of reference-expressed scalar fields, on numerators (:class:`IntegerFields`).

    With ``B^-1 = b adj(R) / det`` component ``i`` is
    ``(b / det) sum_c adj[c][i] d_c p``; the derivatives are gathers.
    """
    amap = cell.amap
    adjugate_t = np.array(amap.adjugate, dtype=object).T
    grads = adjugate_t @ derivatives(fields.nums[:, :, 0], axis=2) * amap.den
    return _physical(fields, grads, amap.det)


def phys_curl(cell: CellGeometry, fields):
    """``B curl(B^T u) / det B`` of reference-expressed vector fields, on numerators (:class:`IntegerFields`).

    With ``B = R / b`` and ``det B = d / b^3`` the curl is
    ``(b / d) sum_jm K[a, j, m] d_j u_m``, where
    ``K[a, j, m] = sum_ik R[a][i] eps_ijk R[m][k]`` is an integer 3 x 3 x 3
    contraction and the derivatives are gathers.
    """
    rows = cell.amap.rows
    cross = np.zeros((3, 3, 3), dtype=object)
    for i, j, k in _CYCLIC:
        for a in range(3):
            for m in range(3):
                cross[a, j, m] += rows[a][i] * rows[m][k]
                cross[a, k, m] -= rows[a][i] * rows[m][j]
    nums = fields.nums
    derivs = derivatives(nums, axis=2)
    count, lower = nums.shape[0] * nums.shape[1], derivs.shape[-1]
    curls = cross.reshape(3, 9) @ derivs.reshape(count, 9, lower) * cell.amap.den
    return _physical(fields, curls.reshape(*nums.shape[:3], lower), cell.amap.det)


def phys_div(cell: CellGeometry, fields):
    """``div(B^-1 u)`` of reference-expressed vector fields, on numerators (:class:`IntegerFields`): ``(b / det) div(adj(R) u)``."""
    amap = cell.amap
    divs = _divergence(np.array(amap.adjugate, dtype=object), fields.nums) * amap.den
    return _physical(fields, divs[:, :, None], amap.det)


def _divergence(adjugate, nums):
    """Numerators of ``div(adj u)`` for vector numerators ``u`` (..., 3, monomials): one degree lower."""
    inner = adjugate @ nums
    gathers = derivative_gathers(degree_of_columns(nums.shape[-1]))
    return sum(inner[..., c, columns] * factors for c, (columns, factors) in enumerate(gathers))


# ---------------------------------------------------------------------------
# raw space bases


def _monomial_fields(degree, vector):
    """The monomials of degree <= ``degree`` as single fields on numerators; vector
    monomials run over the exponents, the components inside."""
    width = dim_poly(degree)
    comps = 3 if vector else 1
    nums = np.zeros((width * comps, 4, comps, width), dtype=object)
    for j in range(width):
        for c in range(comps):
            nums[comps * j + c, :, c, j] = 1
    return IntegerFields(nums, 1, ["single"] * len(nums))


def lagrange_raw(r):
    return _monomial_fields(r, vector=False)


def pressure_raw(k):
    return _monomial_fields(k - 1, vector=False)


# the stage timers of an exact build (seconds by stage name), which the
# DEBUG record of ``local_element`` reports
_stage_seconds = Counter()


@contextmanager
def _timed(stage):
    start = time.perf_counter()
    try:
        yield
    finally:
        _stage_seconds[stage] += time.perf_counter() - start


def _face_bubble(cell: CellGeometry, local_face: int):
    """The modified face bubble of :func:`physical_face_bubble` on numerators: one ``"C0"`` field of :class:`IntegerFields`.

    The raw bubble is the integer scalar bubble times the face direction
    ``d``; its physical divergence ``div(B^-1 raw)`` is the gradient of the
    scalar bubble dotted with ``B^-1 d``.  The divergence target and the
    correction ``solve_div`` returns are integer numerators too.  The
    corrected field must have the raw divergence's mean as its constant
    divergence on every piece, checked on its numerators; otherwise
    ``ArithmeticError``.
    """
    amap = cell.amap
    rows, b, det = amap.rows, amap.den, amap.det
    adjugate = np.array(amap.adjugate, dtype=object)  # B^-1 = b adj / det
    raw, d_den = _raw_face_bubble(cell, local_face)
    # div(B^-1 raw) = grad S . (B^-1 d), over det d_den, and its mean over
    # the cell, 6 times its integral from the moments of the four subtets: mean / mean_den
    g = _divergence(adjugate, raw) * b
    g_den = det * d_den
    m_den, moments = subtet_moment_table(2)
    mean = 6 * sum(v * sum(m[e] for m in moments) for e, v in zip(monomial_exponents(2, 3), g.tolist()))
    mean_den = m_den * g_den
    # the target (g - mean) det B on integers over g_den m_den b^3, on every piece
    target = g * m_den
    target[0] -= mean
    target = IntegerFields(np.tile(target * det, (1, 4, 1, 1)), g_den * m_den * b**3, ["single"])
    w_hat = solve_div(target, 3)
    # beta = raw - B w / det = raw - b^2 R w / det
    c_den = det * w_hat.den
    den = lcm(d_den, c_den)
    correction = np.array(rows, dtype=object) @ w_hat.nums[0] * (b * b)
    beta = raw * (den // d_den) - correction * (den // c_den)
    # div(B^-1 beta) is b / det times div(adj beta): on each piece the mean, constant
    dv = _divergence(adjugate, beta) * b
    dv_den = det * den
    if dv[:, 1:].any() or any(v * mean_den != mean * dv_den for v in dv[:, 0].tolist()):
        raise ArithmeticError(
            f"face bubble {local_face}: corrected divergence is not the constant {mean}/{mean_den} on every piece"
        )
    return IntegerFields(beta[None], den, ["C0"]).reduced()


def _raw_face_bubble(cell: CellGeometry, local_face: int):
    """The integer scalar face bubble times the face direction ``d``: numerators (3, monomials of degree <= 3) over ``d``'s denominator."""
    info = cell.faces[local_face]
    return np.outer(np.array(info["direction"], dtype=object), scalar_face_bubble(local_face)), info["direction_den"]


def physical_face_bubble(cell: CellGeometry, local_face: int):
    """Modified face bubble on a physical cell, in reference expression.

    The bubble direction is the face's global rational direction (the
    ascending-vertex cross product), so both cells incident to a mesh face
    build the identical trace and the global space stays H1-conforming.
    Returns the corrected bubble and the raw bubble it matches on the
    boundary, each one field of :class:`IntegerFields`, and its constant
    physical divergence; :func:`_face_bubble` forms the bubble.
    """
    beta = _face_bubble(cell, local_face)
    divergence = phys_div(cell, beta)
    raw, d_den = _raw_face_bubble(cell, local_face)
    raw = IntegerFields(np.tile(raw, (1, 4, 1, 1)), d_den, ["single"])
    return beta, raw, Fraction(divergence.nums[0, 0, 0, 0], divergence.den)


# Scaling a cell by t (matrix B -> t B) multiplies each raw basis field by a
# fixed power of t: t^-1 for gradients (B^-T grad), t^0 for vector monomials,
# t^2 for face bubbles (the face direction is a cross product of edges),
# t^-2 for interior bubbles (B field / det B); a vector potential has its
# source's power plus one, and a physical curl the field's power minus one.
# ``derive_coefficients`` and ``derive_numerators`` combine these powers with a
# rotation or reflection.
GRADIENT_POWER, MONOMIAL_POWER, FACE_BUBBLE_POWER, INTERIOR_BUBBLE_POWER = -1, 0, 2, -2


def velocity_raw(cell: CellGeometry, k):
    """Vector P_k plus face bubbles (k <= 2) and interior bubbles.

    Returns the fields as :class:`IntegerFields` (the monomials first, then
    the bubbles), whether each is a bubble, and the power of the cell scale
    by which each field scales.
    """
    parts = [_monomial_fields(k, vector=True)]
    powers = [MONOMIAL_POWER] * len(parts[0])
    if k <= 2:
        parts.extend(_face_bubble(cell, i) for i in range(4))
        powers += [FACE_BUBBLE_POWER] * 4
    order = k - 1 if k >= 3 else (1 if k == 2 else None)
    if order is not None:
        # B field / det B = b^2 R field / det
        amap = cell.amap
        interior = IntegerFields.concatenate([ib.numerators for ib in interior_bubbles(order)])
        nums = np.array(amap.rows, dtype=object) @ interior.nums * amap.den**2
        parts.append(IntegerFields(nums, amap.det * interior.den, interior.continuity))
        powers += [INTERIOR_BUBBLE_POWER] * len(interior)
    is_bubble = [False] * len(parts[0]) + [True] * (len(powers) - len(parts[0]))
    return IntegerFields.concatenate(parts), is_bubble, powers


def _difference_rows(*parts):
    """The numerators of :class:`IntegerFields` as exact coordinate rows, one column per field in order.

    Each piece after the first is recoded as its difference from the first
    (an invertible recoding), so single fields give sparse rows; each
    field's column is over the denominator of its part, and coordinates
    that no field uses are dropped.
    """
    degree = max(part.nums.shape[-1] for part in parts)
    nums = np.concatenate([part.resized(degree_of_columns(degree)).nums for part in parts])
    diff = np.concatenate([nums[:, :1], nums[:, 1:] - nums[:, :1]], axis=1).reshape(len(nums), -1)
    return diff.T[(diff != 0).any(axis=0)]


def _independent(fields):
    """Indices of the first-come independent fields, by exact elimination on their numerators.

    The rows are the coordinates of :func:`_difference_rows` and the
    columns the fields, each divided by the gcd of its numerators, so the
    pivot columns of the reduced form are the fields that no earlier ones
    span.
    """
    rows = _difference_rows(fields)
    rows = rows // np.array([gcd(*column) or 1 for column in rows.T.tolist()], dtype=object)
    return integer_rref(rows.tolist())[1]


def gradcurl_raw(cell: CellGeometry, r, k):
    """Gradients of P_r plus vector potentials of the velocity basis.

    Base points (reference coordinates): the split center for bubble
    generators, the reference origin for polynomial generators.  An exact
    rank selection drops the dependent generators; the surviving dimension
    must equal dim velocity + dim P_r - dim P_{k-1} - 1.  Every step runs
    on integer numerators (:class:`IntegerFields`).

    Returns the selected fields and their scale powers.
    """
    validate_family(r, k)
    gradients = phys_grad(cell, lagrange_raw(r).take(range(1, dim_poly(r))))
    velocity, is_bubble, vel_powers = velocity_raw(cell, k)
    parts, powers = [gradients], [GRADIENT_POWER] * len(gradients)
    with _timed("potentials"):
        for bubble, base in ((False, (0, 0, 0)), (True, REF_CENTER)):
            group = [i for i, b in enumerate(is_bubble) if b == bubble]
            if group:
                parts.append(piecewise_poincare2(velocity.take(group), base, matrix=(cell.amap.rows, cell.amap.den)))
                powers += [vel_powers[i] + 1 for i in group]
    generators = IntegerFields.concatenate(parts)

    expected = len(velocity) + dim_poly(r) - dim_poly(k - 1) - 1
    with _timed("selection"):
        chosen = _independent(generators)
    if len(chosen) != expected:
        raise ArithmeticError(
            f"grad-curl space rank {len(chosen)} != expected {expected} for (r,k)=({r},{k})"
        )
    return generators.take(chosen), [powers[i] for i in chosen]


# ---------------------------------------------------------------------------
# DOF functionals


@dataclass
class DofFunctional:
    """Bounded linear functional on the local shape space, as a quadrature stencil.

    ``stencil(quad)`` gives ``(use, points, weights)``, the points in
    reference coordinates of the cell: the value of the functional on a
    field is ``sum(weights * field.<use>(x))`` at the physical images
    ``x`` of the points, ``use`` being ``"value"`` or ``"curl"``.  The
    weights carry the physical measures and directions (edge lengths, face
    areas, normals and tangents, ``B`` times reference offsets), which the
    geometry derives from the class map's matrix and vertex order alone.
    So one stencil serves every cell of a congruence class, on any mesh:
    the DOF matrix (:func:`dof_matrix`) reads the reference-expressed raw
    fields at the points as they are, and an interpolant maps them by the
    class map and moves them by each cell's absolute shift
    (``GlobalSpace.interpolate``; :meth:`apply_sample` maps them by one
    geometry's map, shift included).  Entity stencils read the segment and
    triangle rules of ``quad``; cell stencils read the split rule
    ``alfeld_composite(quad.degree)``, so that they integrate
    split-piecewise fields exactly.  ``slot`` numbers the functionals of
    one entity from 0, in the order :func:`build_dofs` lists them.
    """

    entity: tuple
    slot: int
    stencil: callable = dc_field(repr=False)

    def apply_sample(self, sample, quad, cell):
        """The functional of ``cell`` applied to a sample of a physical field."""
        use, pts, wts = self.stencil(quad)
        return float(np.sum(getattr(sample, use)(cell.amap.apply(pts)) * wts))


def _numbered(functionals):
    """The functionals of ``(entity, stencil)`` pairs, in order: each entity's slots count from 0 as they come."""
    slots = Counter()
    dofs = []
    for entity, stencil in functionals:
        dofs.append(DofFunctional(entity, slots[entity], stencil))
        slots[entity] += 1
    return dofs


_ONE = np.ones(1)
_UNIT = np.eye(3)
_REF = np.array(REF_VERTICES, dtype=float)


def _edge_points(info, spts):
    lo, hi = np.array([info["ref_lo"], info["ref_hi"]], dtype=float)
    return lo + spts[:, :1] * (hi - lo)


def _face_points(info, fpts):
    p0, p1, p2 = np.array(info["ref_anchors"], dtype=float)
    return p0 + fpts[:, :1] * (p1 - p0) + fpts[:, 1:2] * (p2 - p0)


# The four stencil shapes.  A weight is an exponent tuple, the monomial in
# the rule's own coordinates, or float coefficients (components..., monomials)
# of a (vector) polynomial in them, on the monomials in three variables (a
# face rule's third coordinate is zero); a direction is a fixed vector or a
# function of the stencil's points, one per point.


def _moment(use, pts, measure, rule_pts, weight, direction):
    """The stencil at ``pts``: ``measure`` times the weight at the rule's own points ``rule_pts``, times a direction."""
    if isinstance(weight, tuple):
        values = reduce(mul, (rule_pts[:, i] ** e for i, e in enumerate(weight)))
    else:
        padded = np.pad(rule_pts, ((0, 0), (0, 3 - rule_pts.shape[1])))
        values = _monomials(padded, degree_of_columns(weight.shape[-1])) @ weight.T
    wts = measure * values if values.ndim == 1 else measure[:, None] * values
    if direction is not None:
        wts = wts[:, None] * (direction(pts) if callable(direction) else direction)
    return use, pts, wts


def _mapped(rows, den, nums, nums_den):
    """The exact 3 x 3 matrix ``rows / den`` times vector weight numerators (3, monomials) over
    ``nums_den``, each exact coefficient rounded once to float64."""
    return _rounded(np.array(rows, dtype=object) @ nums, den * nums_den)


def _inverse_transpose(cell):
    """``B^-T = den adj^T / det`` as integer rows and their denominator."""
    amap = cell.amap
    return np.array(amap.adjugate, dtype=object).T * amap.den, amap.det


def _vertex(v, direction=None, use="value"):
    """The value (or curl) at vertex ``v``, times a fixed direction if there is one."""
    return lambda quad: (use, _REF[v:v + 1], _ONE if direction is None else direction[None, :])


def _edge(info, m, direction=None, use="value", measured=True):
    """The moment against ``s^m`` along the edge, times its length if ``measured``."""
    def stencil(quad):
        spts, w = quad.segment
        measure = (info["length"] if measured else 1.0) * w
        return _moment(use, _edge_points(info, spts), measure, spts, (m,), direction)
    return stencil


def _face(info, weight, direction=None, use="value", measured=True):
    """The moment against a weight on the face's parametric triangle, times twice its area if ``measured``, else 2."""
    def stencil(quad):
        fpts, w = quad.triangle
        measure = (2 * info["area"] if measured else 2) * w
        return _moment(use, _face_points(info, fpts), measure, fpts, weight, direction)
    return stencil


def _cell(cell, weight, direction=None, use="value", scale=1.0):
    """The split-rule moment against a weight, times ``det B`` and ``scale``."""
    def stencil(quad):
        rpts, w = alfeld_composite(quad.degree)
        return _moment(use, rpts, scale * cell.amap.det_f * w, rpts, weight, direction)
    return stencil


def _tangential_offsets(cell, info):
    """The physical offsets ``B (xhat - xhat_c)`` of face points from the face centroid."""
    centroid = np.mean(np.array(info["ref_anchors"], dtype=float), axis=0)
    return lambda pts: (pts - centroid) @ cell.amap.matrix_f.T


def lagrange_dofs(cell: CellGeometry, r):
    return _numbered(
        [(("vertex", v), _vertex(v)) for v in range(4)]
        + [(("edge", e), _edge(info, m)) for e, info in enumerate(cell.edges) for m in range(r - 1)]
        + [(("face", f), _face(info, e)) for f, info in enumerate(cell.faces) for e in monomial_exponents(r - 3, 2)]
        + [(("cell", 0), _cell(cell, exp)) for exp in monomial_exponents(r - 4, 3)]
    )


def pressure_dofs(cell: CellGeometry, k):
    # mean-value moments (1/|K|) \int p q dV: the order-zero nodal basis is
    # then the cell indicator and mass row sums are cell volumes
    inv_vol = 1.0 / (cell.amap.det / (6 * cell.amap.den**3))
    return _numbered((("cell", 0), _cell(cell, exp, scale=inv_vol)) for exp in monomial_exponents(k - 1, 3))


def velocity_dofs(cell: CellGeometry, k):
    functionals = [(("vertex", v), _vertex(v, _UNIT[c])) for v in range(4) for c in range(3)]
    for e, info in enumerate(cell.edges):
        functionals += [(("edge", e), _edge(info, m, _UNIT[c])) for m in range(k - 1) for c in range(3)]
    for f, info in enumerate(cell.faces):
        exps = monomial_exponents(k - 3, 2)
        functionals += [(("face", f), _face(info, exp, _UNIT[c])) for exp in exps for c in range(3)]
        if k <= 2:  # the normal flux
            functionals.append((("face", f), _face(info, (0, 0), info["normal"])))
    exps = monomial_exponents(k - 4, 3)
    functionals += [(("cell", 0), _cell(cell, exp, _UNIT[c])) for exp in exps for c in range(3)]
    if k >= 2:  # the gradients of the mean-zero two-layer space, B^-T grad v_hat
        targets = layered_targets(k - 1)
        grads = derivatives(targets.nums[:, 0, 0], axis=1)
        inverse_t = _inverse_transpose(cell)
        functionals += [(("cell", 0), _cell(cell, _mapped(*inverse_t, g, targets.den))) for g in grads]
    return _numbered(functionals)


@lru_cache(maxsize=None)
def _cross_position_basis(k):
    """Rank-selected basis of { p x xhat : p vector polynomial of degree k-5 }, as integer
    numerators (basis, 3 components, monomials of degree <= k - 4).

    The generator of the vector monomial ``x^e`` in component ``c`` has
    component ``i`` equal to ``sum_m eps_icm x^e x_m``.
    """
    if k < 5:
        return ()
    columns = _monomial_columns(k - 4)
    gens = np.zeros((3 * dim_poly(k - 5), 4, 3, len(columns)), dtype=object)
    for j, e in enumerate(monomial_exponents(k - 5, 3)):
        for i, c, m in _CYCLIC:  # eps_icm = 1, eps_imc = -1
            gens[3 * j + c, :, i, columns[tuple(v + (a == m) for a, v in enumerate(e))]] += 1
            gens[3 * j + m, :, i, columns[tuple(v + (a == c) for a, v in enumerate(e))]] -= 1
    return tuple(gens[_independent(IntegerFields(gens, 1, ["single"] * len(gens))), 0])


def _mean_free(exp):
    """The monomial less its mean ``2 a! b! / (a + b + 2)!`` over the parametric
    triangle (area 1/2), as float coefficients on the monomials in three variables."""
    a, b = exp
    columns = _monomial_columns(a + b)
    out = np.zeros(len(columns))
    out[columns[(a, b, 0)]] = 1.0
    out[0] -= 2 * factorial(a) * factorial(b) / factorial(a + b + 2)
    return out


def gradcurl_dofs(cell: CellGeometry, r, k):
    functionals = [(("vertex", v), _vertex(v, _UNIT[c], "curl")) for v in range(4) for c in range(3)]
    for e, info in enumerate(cell.edges):
        functionals += [(("edge", e), _edge(info, m, info["tangent"])) for m in range(r)]
        functionals += [
            (("edge", e), _edge(info, m, _UNIT[c], "curl", measured=False)) for m in range(k - 1) for c in range(3)
        ]
    exps = monomial_exponents(k - 3, 2)
    mean_free = [_mean_free(exp) for exp in exps[1:]]  # the constant, first, has none
    for f, info in enumerate(cell.faces):
        functionals += [(("face", f), _face(info, w, info["normal"], "curl")) for w in mean_free]
        functionals += [
            (("face", f), _face(info, e, info[t], "curl", measured=False)) for t in ("tau1", "tau2") for e in exps
        ]
        # tangential-position moments of the field itself
        offsets = _tangential_offsets(cell, info)
        functionals += [(("face", f), _face(info, e, offsets, measured=False)) for e in monomial_exponents(r - 3, 2)]
    inverse_t = _inverse_transpose(cell)
    cross = (_mapped(*inverse_t, q_hat, 1) for q_hat in _cross_position_basis(k))
    functionals += [(("cell", 0), _cell(cell, w, use="curl")) for w in cross]
    # (1/det) B q_hat with q_hat = xhat x^e, times det from dV
    amap = cell.amap
    moments = (_mapped(amap.rows, amap.den, _position_times(exp), 1) for exp in monomial_exponents(r - 4, 3))
    functionals += [(("cell", 0), _cell(cell, w, scale=1.0 / amap.det_f)) for w in moments]
    return _numbered(functionals)


def _position_times(exp):
    """The numerators of ``xhat x^e``: component ``c`` is ``x^e x_c``, on the monomials of degree <= |e| + 1."""
    columns = _monomial_columns(sum(exp) + 1)
    out = np.zeros((3, len(columns)), dtype=object)
    for c in range(3):
        out[c, columns[tuple(v + (a == c) for a, v in enumerate(exp))]] = 1
    return out


def build_dofs(kind, cell, r, k):
    if kind == "lagrange":
        return lagrange_dofs(cell, r)
    if kind == "gradcurl":
        return gradcurl_dofs(cell, r, k)
    if kind == "velocity":
        return velocity_dofs(cell, k)
    if kind == "pressure":
        return pressure_dofs(cell, k)
    raise ValueError(f"unknown space kind {kind!r}")


def build_raw_basis(kind, cell, r, k):
    """Raw basis fields of a space on a cell, and the scale power of each.

    Scalar spaces live in reference coordinates and do not scale.
    """
    if kind == "gradcurl":
        return gradcurl_raw(cell, r, k)
    if kind == "velocity":
        fields, _, powers = velocity_raw(cell, k)
        return fields, powers
    if kind == "lagrange":
        fields = lagrange_raw(r)
    elif kind == "pressure":
        fields = pressure_raw(k)
    else:
        raise ValueError(f"unknown space kind {kind!r}")
    return fields, [0] * len(fields)


_ENTITIES = ("vertex", "edge", "face", "cell")


def entity_dof_counts(kind, r, k):
    """Per-entity DOF block sizes for a space kind at (r, k).

    The number of functionals :func:`build_dofs` defines on each vertex,
    edge, face and cell; every entity of a type has as many.
    """
    return dict(zip(_ENTITIES, _entity_dof_counts(kind, r, k)))


@lru_cache(maxsize=None)
def _entity_dof_counts(kind, r, k):
    validate_family(r, k)
    dofs = build_dofs(kind, reference_cell(), r, k)
    return tuple(sum(d.entity == (e, 0) for d in dofs) for e in _ENTITIES)


def space_dimension(kind, r, k):
    counts = entity_dof_counts(kind, r, k)
    return (
        4 * counts["vertex"] + 6 * counts["edge"] + 4 * counts["face"] + counts["cell"]
    )


# ---------------------------------------------------------------------------
# nodal bases and the local element bundle


@dataclass(eq=False)
class LocalElement:
    """The local element of one space on one cell.

    ``coefficients`` holds the raw basis (key ``"value"``) and, for
    gradcurl, its physical curls (key ``"curl"``) as float64 tensors
    (fields, pieces, components, monomials) over the monomials of degree <=
    ``degree``, each piece about its centroid (:func:`_coefficients`): the
    one tensor of the DOF matrix, the class tables and the derivation of
    the orbit's other classes.  ``numerators`` holds the fields exactly
    (:class:`IntegerFields`, by the same keys), from ``exact_fields`` on
    first access: the build's own or, for a derived element, the built
    one's gathered (:func:`derive_numerators`).
    """

    kind: str
    r: int
    k: int
    cell: CellGeometry
    dofs: list
    dof_matrix: np.ndarray
    nodal: np.ndarray  # columns: nodal basis in raw-basis coordinates
    condition: float
    degree: int
    coefficients: dict
    exact_fields: callable = dc_field(repr=False)  # () -> numerators by use

    @cached_property
    def numerators(self):
        return self.exact_fields()

    @property
    def dimension(self):
        return len(self.dofs)


@lru_cache(maxsize=None)
def _monomial_columns(degree):
    """Column of each exponent tuple of degree <= ``degree`` in a coefficient tensor."""
    return {e: i for i, e in enumerate(monomial_exponents(degree, 3))}


# The centroid of each split piece, exact and in float: every float coefficient
# tensor expands piece i about it, so double sums keep what the fields cancel.
PIECE_CENTROIDS = tuple(tuple(sum(v[a] for v in piece) / 4 for a in range(3)) for piece in SUBTET_VERTICES)
PIECE_CENTROIDS_F = np.array(PIECE_CENTROIDS, dtype=float)
PIECE_CENTROIDS_F.flags.writeable = False


@lru_cache(maxsize=None)
def _centring(degree):
    """The translations ``p -> p(y + c_i)`` of the pieces on numerators, by the binomial theorem.

    Returns read-only ``(den, starts, targets, values)``: a numerator ``u``
    of ``x^e`` on piece ``i`` over ``B`` adds ``values[i, j] * u`` to that
    of ``y^targets[j]`` over ``B * den``, for ``starts[e] <= j <
    starts[e + 1]``: the ``y^f`` dividing ``x^e``, for every piece.  Every
    centroid is ``C_i / 16`` with no zero coordinate, so the value is
    ``prod_a binom(e_a, f_a) C_a^(e_a - f_a)`` times ``16^(degree - |e| +
    |f|)``, with ``den = 16^degree``.
    """
    exps = monomial_exponents(degree, 3)
    centres = [[v.numerator * (16 // v.denominator) for v in c] for c in PIECE_CENTROIDS]
    counts, targets, values = [], [], []
    for e in exps:
        divisors = [(j, f) for j, f in enumerate(exps) if all(a <= b for a, b in zip(f, e))]
        counts.append(len(divisors))
        for j, f in divisors:
            targets.append(j)
            scale = 16 ** (degree - sum(e) + sum(f))
            values.append([scale * prod(comb(b, a) * c ** (b - a) for a, b, c in zip(f, e, centre)) for centre in centres])
    starts, targets = np.r_[0, np.cumsum(counts)], np.array(targets)
    values = np.array(values, dtype=object).T
    for array in (starts, targets, values):
        array.flags.writeable = False
    return 16**degree, starts, targets, values


def _centred(nums):
    """Numerators (..., pieces, components, monomials) about each piece's centroid, over an extra ``den``: sparse, by nonzero."""
    den, starts, targets, values = _centring(degree_of_columns(nums.shape[-1]))
    flat = nums.reshape(-1, nums.shape[-1])
    rows, sources = np.nonzero(flat)
    counts = starts[sources + 1] - starts[sources]
    at = np.arange(counts.sum()) + np.repeat(starts[sources] - np.cumsum(counts) + counts, counts)
    pieces = rows // nums.shape[-2] % 4
    terms = np.repeat(flat[rows, sources], counts) * values[np.repeat(pieces, counts), at]
    out = np.zeros(flat.shape, dtype=object)
    np.add.at(out, (np.repeat(rows, counts), targets[at]), terms)
    return out.reshape(nums.shape), den


def _coefficients(fields, degree):
    """Float coefficient tensor (fields, pieces, components, monomials), each piece about its centroid.

    The monomials are those of degree <= ``degree`` and ``fields`` are
    :class:`IntegerFields`.  Each exact centred coefficient is rounded once
    (an int quotient rounds correctly).
    """
    nums, den = _centred(fields.resized(degree).nums)
    return (nums / (den * fields.den)).astype(float)


def _entity_piece(entity):
    """A piece of the split that holds a vertex, edge or face of the cell."""
    kind, i = entity
    if kind == "vertex":
        return (i + 1) % 4
    if kind == "edge":
        return _SUBTET_FOR_EDGE[i]
    return i  # face i is a face of piece i only


@lru_cache(maxsize=None)
def _exponent_array(degree):
    """The exponents of degree <= ``degree`` in :func:`monomial_exponents` order, as read-only (axes, monomials)."""
    powers = np.array(monomial_exponents(degree, 3), dtype=int).reshape(-1, 3).T
    powers.flags.writeable = False
    return powers


def _monomials(points, degree):
    """The monomials of degree <= ``degree`` (:func:`monomial_exponents` order) at each point: (points, monomials)."""
    powers = _exponent_array(degree)
    table = points[:, :, None] ** np.arange(degree + 1)  # (points, axes, powers)
    return table[:, 0, powers[0]] * table[:, 1, powers[1]] * table[:, 2, powers[2]]


def dof_matrix(dofs, values, curls=None):
    """Each functional's stencil applied to each raw field: entry ``(dof, field)``.

    ``values`` is the fields' centred coefficient tensor
    (:func:`_coefficients`, ``LocalElement.coefficients["value"]``) and
    ``curls`` that of their physical curls, which functionals of use
    ``"curl"`` read.  The tensor meets the monomials at the stencil's
    points (in reference coordinates, like the fields) less the centroid of
    the split piece that holds the functional's entity; a cell stencil's
    split rule has one block of points per piece, each less its piece's
    centroid.  The rule is exact to degree 2 deg + 2 for fields of degree
    deg, so every product of a field and a weight is integrated exactly.
    The sums run in double: about the origin the monomial coefficients of
    split fields are large against their values (by 10^3 for the
    lowest-order face bubbles), and their cancellation there took the
    assembled div o curl of (2,2) at N = 2 to 1.3e-12, against 9.5e-14
    about each piece's centroid.
    """
    degree = degree_of_columns(values.shape[-1])
    quad = QuadratureRule(2 * degree + 2)
    stencils = [d.stencil(quad) for d in dofs]
    out = np.empty((len(dofs), len(values)))
    for use, coef in (("value", values), ("curl", curls)):  # (fields, pieces, components, monomials)
        for i in (i for i, st in enumerate(stencils) if st[0] == use):
            _, pts, wts = stencils[i]
            wts = wts.reshape(len(pts), -1)  # (points, components)
            if dofs[i].entity[0] == "cell":  # the split rule: one block of points per piece
                local = pts.reshape(4, -1, 3) - PIECE_CENTROIDS_F[:, None]
                blocks = (a.reshape(4, -1, a.shape[1]) for a in (wts, _monomials(local.reshape(-1, 3), degree)))
                moment, piece = np.einsum("pqc,pqm->pcm", *blocks), slice(None)
            else:
                piece = _entity_piece(dofs[i].entity)
                moment = wts.T @ _monomials(pts - PIECE_CENTROIDS_F[piece], degree)
            out[i] = coef[:, piece].reshape(len(coef), -1) @ moment.ravel()
    return out


class ElementCache:
    """Local elements by cell signature, with one exact build per similarity orbit.

    ``elements`` maps ``(kind, r, k, cell.signature())`` to its element.
    ``orbits`` maps ``(kind, r, k, cell.orbit_key())`` to the first element
    built in that orbit and the scale powers of its raw basis.  Another
    cell of the orbit, ``B = t Q B0 S``, gathers its coefficient tensors
    from that element's (:func:`derive_coefficients`); only the DOFs, the
    DOF matrix and its inverse are computed for it, and its exact fields
    are gathered on first access (:func:`derive_numerators`).  ``built``,
    ``derived`` and ``hits`` count the three outcomes of a lookup.
    """

    def __init__(self):
        self.elements = {}
        self.orbits = {}
        self.built = self.derived = self.hits = 0

    def __len__(self):
        return len(self.elements)

    def counts(self):
        return self.built, self.derived, self.hits


_element_cache = ElementCache()


def _vertex_images(cols):
    """Reference vertex of the built cell that each vertex of the similar cell maps to."""
    return (0,) + tuple(c + 1 for c in cols)


def _curl_sign(perm, signs):
    """``det Q`` of the signed axis permutation ``Q``."""
    inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
    return (-1) ** inversions * signs[0] * signs[1] * signs[2]


def _gather(tensor, powers, t, similarity, curls):
    """A tensor (fields, pieces, components, monomials) of ``B0`` moved onto the similar cell ``t Q B0 S``.

    ``S`` fixes reference vertex 0 and the split centre and maps subtet
    ``i`` onto the subtet of the vertex it sends ``i`` to, and that
    subtet's centroid onto its own: the pieces are relabelled by the vertex
    images of ``S`` and the monomial columns permuted by ``S``, whether the
    pieces are expanded about the origin or about their centroids.  The
    components are permuted and sign-flipped by ``Q``.  Returns the moved
    tensor and each field's exact factor, ``t^a`` or ``det(Q) t^(a-1)``, as
    an integer numerator and a positive denominator.
    """
    perm, signs, cols = similarity
    columns = _monomial_columns(degree_of_columns(tensor.shape[-1]))
    moved = np.empty(len(columns), dtype=np.intp)  # old column of each new monomial
    moved[[columns[tuple(e[c] for c in cols)] for e in columns]] = np.arange(len(columns))
    axes, flips = (perm, signs) if tensor.shape[2] == 3 else ((0,), (1,))
    index = np.ix_(np.arange(len(tensor)), _vertex_images(cols), axes, moved)
    sign = _curl_sign(perm, signs) if curls else 1
    p, q = t.numerator, t.denominator
    factors = [(sign * p**e, q**e) if e >= 0 else (sign * q**-e, p**-e) for e in (a - 1 if curls else a for a in powers)]
    return tensor[index] * np.array(flips)[:, None], factors


def derive_coefficients(tensor, powers, t, similarity, curls=False):
    """A float coefficient tensor of ``B0`` carried to the similar cell ``t Q B0 S``: one gather and scaling.

    Field ``f`` of scale power ``a`` becomes ``t^a Q (f o S)``, a scalar
    field ``t^a (f o S)``; with ``curls`` the fields are physical curls
    and become ``det(Q) t^(a-1) Q (f o S)``.  The generators of every raw
    space are equivariant under the similarity (gradients through
    ``B^-T``, vector monomials as a span, face bubbles through their global
    direction and the linear ``solve_div``, interior bubbles through
    ``B / det B``, potentials about vertex 0 or the centre), so the results
    span the space a direct build on the new cell spans.  ``tensor`` is
    centred on each piece (:func:`_coefficients`).  ``t`` is a power of
    two, so every step is exact and the result is the tensor of the
    derived exact fields bit for bit; :func:`local_element` rounds the
    exact fields themselves for any other ``t``.
    """
    moved, factors = _gather(tensor, powers, t, similarity, curls)
    scale = np.array([n / d for n, d in factors])
    # adding 0 turns the zeros that a negative factor signs into +0, as an exact build has
    return moved * scale[:, None, None, None] + 0.0


def derive_numerators(fields, powers, t, similarity, curls=False):
    """:func:`derive_coefficients` on exact :class:`IntegerFields`: the same gather, exact integer scaling."""
    moved, factors = _gather(fields.nums, powers, t, similarity, curls)
    den = lcm(*(d for _, d in factors))
    scale = np.array([n * (den // d) for n, d in factors], dtype=object)
    return IntegerFields(moved * scale[:, None, None, None], fields.den * den, fields.continuity)


def similarity_between(cell0, cell):
    """``(t, similarity)`` with ``B = t Q B0 S``, for the cell ``cell`` of the orbit of ``cell0``.

    Of the similarities that take the shape of ``cell0`` to that of
    ``cell``, the first in ``_SIMILARITIES`` order.
    """
    match = (_images(cell0.shape()) == np.ravel(cell.shape())).all(axis=1)
    (p, q), (p0, q0) = cell.scale, cell0.scale
    return Fraction(p * q0, p0 * q), _SIMILARITIES[np.flatnonzero(match)[0]]


@contextmanager
def _collector_paused():
    """Hold cyclic garbage collection off inside the block, then restore its prior state.

    An exact construction allocates many short-lived Python ints and
    object arrays of them and leaves no cycles behind, so collections
    during it find nothing to free.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _describe(t, similarity):
    """``t``, ``Q`` as the images of the axes and ``S`` as the vertex images."""
    perm, signs, cols = similarity
    axes = ",".join(("-" if s < 0 else "") + "xyz"[p] for p, s in zip(perm, signs))
    vertices = ",".join(map(str, _vertex_images(cols)))
    return f" (t={t}, Q=({axes}), vertices ({vertices}))"


def local_element(kind, r, k, cell=None):
    """Build, derive or fetch the local element bundle for a cell.

    Cells of one congruence class (same matrix and vertex order) share the
    construction (translations do not change any of it).  The first class
    of a similarity orbit is built exactly, on integer numerators
    (:class:`IntegerFields`), and its raw basis (and curls) expanded about
    each piece's centroid and rounded once into one float64 coefficient
    tensor each (:func:`_coefficients`); a class similar to it, at any
    scale, rotation or reflection, gathers its exact numerators when read
    (:func:`derive_numerators`) and its tensors from those of the build
    (:func:`derive_coefficients`), or from its numerators if ``t`` is no
    power of two.
    """
    validate_family(r, k)
    if cell is None:
        cell = reference_cell()
    cache = _element_cache
    key = (kind, r, k, cell.signature())
    hit = cache.elements.get(key)
    if hit is not None:
        cache.hits += 1
        return hit
    start = time.perf_counter()
    orbit_key = (kind, r, k, cell.orbit_key())
    first = cache.orbits.get(orbit_key)
    if first is None:
        before = _stage_seconds.copy()
        with _collector_paused():
            mark = time.perf_counter()
            basis, powers = build_raw_basis(kind, cell, r, k)
            raw_s = time.perf_counter() - mark
            fields = {"value": basis}
            if kind == "gradcurl":
                with _timed("curls"):
                    fields["curl"] = phys_curl(cell, basis)
            degree = basis.degree
            coefficients = {use: _coefficients(f, degree) for use, f in fields.items()}
        spent = _stage_seconds - before
        exact_fields = lambda: fields
    else:
        el0, powers = first
        t, similarity = similarity_between(el0.cell, cell)
        degree = el0.degree
        exact_fields = lambda: {
            use: derive_numerators(f, powers, t, similarity, curls=use == "curl")
            for use, f in el0.numerators.items()
        }
        if t.numerator & (t.numerator - 1) or t.denominator & (t.denominator - 1):
            # rounding each coefficient twice took curl o grad at N = 3 to 1.3e-13 (1.5e-14 once)
            fields = exact_fields()
            exact_fields = lambda: fields
            coefficients = {use: _coefficients(f, degree) for use, f in fields.items()}
        else:  # every step of the gather is exact
            coefficients = {
                use: derive_coefficients(c, powers, t, similarity, curls=use == "curl")
                for use, c in el0.coefficients.items()
            }

    dofs = build_dofs(kind, cell, r, k)
    n_fields = len(coefficients["value"])
    if len(dofs) != n_fields:
        raise ArithmeticError(f"{kind}({r},{k}): {len(dofs)} functionals vs {n_fields} basis fields")
    mark = time.perf_counter()
    m = dof_matrix(dofs, coefficients["value"], coefficients.get("curl"))
    dof_matrix_s = time.perf_counter() - mark
    cond = float(np.linalg.cond(m))
    try:
        nodal = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"{kind}({r},{k}): singular DOF matrix") from exc
    el = LocalElement(kind, r, k, cell, dofs, m, nodal, cond, degree, coefficients, exact_fields)
    cache.elements[key] = el
    elapsed = time.perf_counter() - start
    if first is None:
        cache.built += 1
        cache.orbits[orbit_key] = (el, powers)
        _log.debug(
            "built %s(%d,%d) element in %.3f s: raw basis %.3f s, potentials %.3f s, "
            "selection %.3f s, curls %.3f s, DOF matrix %.3f s",
            kind, r, k, elapsed, raw_s - spent["potentials"] - spent["selection"],
            spent["potentials"], spent["selection"], spent["curls"], dof_matrix_s,
        )
    else:
        cache.derived += 1
        _log.debug("derived %s(%d,%d) element%s in %.3f s", kind, r, k, _describe(t, similarity), elapsed)
    return el


# ---------------------------------------------------------------------------
# structural reports on the reference cell


def _expand_in_basis(basis, images, what):
    """Exact coefficients of ``images`` in the independent ``basis``, both :class:`IntegerFields`.

    One integer reduction of the coordinate rows of :func:`_difference_rows`,
    the basis columns first: each reduced row is a basis field's pivot entry
    and its coefficients in the images, over the ratio of the denominators.
    Returns Fractions, ``matrix[i][j]`` the coefficient of field ``i`` in
    image ``j``; ``ArithmeticError`` if an image leaves the span.
    """
    rows, pivots = integer_rref(_difference_rows(basis, images).tolist())
    n = len(basis)
    if pivots != list(range(n)):
        raise ArithmeticError(f"{what}: image leaves the target space")
    return [[Fraction(row.get(n + j, 0) * basis.den, row[i] * images.den) for j in range(len(images))]
            for i, row in enumerate(rows)]


@lru_cache(maxsize=None)
def local_complex_matrices(r, k):
    """Exact matrices of grad/curl/div between the raw local bases."""
    validate_family(r, k)
    cell = reference_cell()
    lag, gc, vel, pre = (build_raw_basis(kind, cell, r, k)[0] for kind in SPACE_KINDS)
    grad_mat = _expand_in_basis(gc, phys_grad(cell, lag), "grad")
    curl_mat = _expand_in_basis(vel, phys_curl(cell, gc), "curl")
    div_mat = _expand_in_basis(pre, phys_div(cell, vel), "div")
    return grad_mat, curl_mat, div_mat


def local_exactness_table(r, k):
    """Exact rank table of the local complex (all entries rational ranks)."""
    grad_mat, curl_mat, div_mat = local_complex_matrices(r, k)
    grad_a, curl_a, div_a = (np.array(m, dtype=object) for m in (grad_mat, curl_mat, div_mat))
    dims = {kind: space_dimension(kind, r, k) for kind in SPACE_KINDS}
    rk_grad = exact_rank(grad_mat)
    rk_curl = exact_rank(curl_mat)
    rk_div = exact_rank(div_mat)
    table = {
        "dims": dims,
        "rank_grad": rk_grad,
        "rank_curl": rk_curl,
        "rank_div": rk_div,
        "nullity_curl": dims["gradcurl"] - rk_curl,
        "nullity_div": dims["velocity"] - rk_div,
        "curl_grad_zero": not (curl_a @ grad_a).any(),
        "div_curl_zero": not (div_a @ curl_a).any(),
    }
    table["exact"] = (
        table["curl_grad_zero"]
        and table["div_curl_zero"]
        and rk_grad == dims["lagrange"] - 1
        and table["nullity_curl"] == rk_grad
        and rk_curl == table["nullity_div"]
        and rk_div == dims["pressure"]
    )
    table["alternating_sum"] = (
        1 - dims["lagrange"] + dims["gradcurl"] - dims["velocity"] + dims["pressure"]
    )
    return table


def poly_inclusion_check(r, k, tol=1e-11):
    """Reproduction of vector polynomials of degree min{r-1, k+1} by interpolation.

    The interpolant is evaluated piece by piece at the split rule's point
    blocks, one block per piece, from the element's centred coefficient
    tensor, as the class tables evaluate fields.
    """
    validate_family(r, k)
    from .sampling import FieldSample

    s = min(r - 1, k + 1)
    cell = reference_cell()
    el = local_element("gradcurl", r, k, cell)
    quad = QuadratureRule(2 * max(r, k + 1) + 4)
    blocks = np.split(alfeld_composite(quad.degree)[0], 4)
    pts = np.concatenate(blocks)
    coef = el.coefficients["value"]  # (fields, pieces, components, monomials)
    basis_vals = np.concatenate([
        np.einsum("fcm,qm->fqc", coef[:, p], _monomials(b - PIECE_CENTROIDS_F[p], el.degree))
        for p, b in enumerate(blocks)
    ], axis=1)
    worst = 0.0
    monomials = _monomial_fields(s, vector=True)
    for i in range(len(monomials)):
        sample = FieldSample.from_fields(monomials.take([i]))
        coeffs = np.array([d.apply_sample(sample, quad, cell) for d in el.dofs])
        raw = el.nodal @ coeffs
        approx = np.einsum("j,jqc->qc", raw, basis_vals)
        exact = sample.value(pts)
        scale = max(1.0, float(np.abs(exact).max()))
        worst = max(worst, float(np.abs(approx - exact).max()) / scale)
    return {"s": s, "max_rel_error": worst, "ok": worst <= tol}


def element_info(r, k):
    """Dimensions, per-entity DOF counts, and the exactness rank table."""
    validate_family(r, k)
    info = {
        "r": r,
        "k": k,
        "dimensions": {kind: space_dimension(kind, r, k) for kind in SPACE_KINDS},
        "entity_dofs": {kind: entity_dof_counts(kind, r, k) for kind in SPACE_KINDS},
        "exactness": local_exactness_table(r, k),
    }
    return info
