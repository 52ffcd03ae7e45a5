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
(ascending-vertex tangents, frames, rational face directions), so every
cell incident to a shared entity evaluates the identical functional.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field as dc_field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import gcd, lcm

import numpy as np

from .bubbles import interior_bubbles, scalar_face_bubble, solve_div
from .mesh import MeshTopology, REF_EDGE_VERTICES
from .polyalg.poly import (
    Polynomial,
    VectorField,
    curl,
    div,
    grad,
    integrate_unit_simplex,
)
from .polyalg.spaces import (
    Embedding,
    dim_poly,
    layered_mean_zero_basis,
    monomial_exponents,
    rank as exact_rank,
    select_independent,
    vector_monomials,
)
from .polyalg.split import (
    REF_CENTER,
    REF_VERTICES,
    PiecewiseField,
    as_piecewise,
    piecewise_poincare2,
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


def _face_frame(mesh, vertices):
    """Float frame plus exact direction of the face on ascending ``vertices``.

    The direction (v1 - v0) x (v2 - v0) is the rational area-weighted
    normal; it depends on global ids only, so both incident cells share it.
    The float frame comes from the exact edge differences, rounded once,
    so a translated face has the same frame.
    """
    q0, q1, q2 = mesh.lattice[list(vertices)]
    den = mesh.denominator
    t1 = (q1 - q0) / den
    normal2 = np.cross(t1, (q2 - q0) / den)  # length = 2 * area
    area = float(np.linalg.norm(normal2)) / 2.0
    n = normal2 / (2.0 * area)
    tau1 = t1 / np.linalg.norm(t1)
    return {
        "tau1": tau1,
        "tau2": np.cross(n, tau1),
        "normal": n,
        "area": area,
        "direction": tuple(Fraction(int(c), den * den) for c in np.cross(q1 - q0, q2 - q0)),
    }


class CellGeometry:
    """Per-cell entity data needed to define globally consistent DOFs.

    The cell's map is its class map moved by the cell's exact shift; edge
    tangents and face frames come from exact coordinate differences, and
    entity points are kept in reference coordinates (the reference ends of
    an edge and anchors of a face, in ascending global order), so of the
    float data only the map's shift depends on where the cell sits.
    """

    def __init__(self, mesh: MeshTopology, cell_id: int):
        self.mesh = mesh
        self.cell_id = cell_id
        self.ref_to_global = tuple(mesh.cell_vertices[cell_id].tolist())
        self.amap = replace(
            mesh.class_maps[mesh.cell_class[cell_id]],
            shift=mesh.vertex_exact(self.ref_to_global[0]),
        )

        self.edges = []
        for (a, b), eidx in zip(REF_EDGE_VERTICES, mesh.cell_edges[cell_id].tolist()):
            ga, gb = self.ref_to_global[a], self.ref_to_global[b]
            key = mesh.edges[eidx].tolist()
            # the exact difference, rounded once
            d = (mesh.lattice[key[1]] - mesh.lattice[key[0]]) / mesh.denominator
            length = float(np.linalg.norm(d))
            self.edges.append(
                {
                    "global": eidx,
                    "locals": (a, b),
                    "ref_lo": REF_VERTICES[a] if ga < gb else REF_VERTICES[b],
                    "ref_hi": REF_VERTICES[b] if ga < gb else REF_VERTICES[a],
                    "tangent": d / length,
                    "length": length,
                }
            )

        self.faces = []
        for fidx in mesh.cell_faces[cell_id].tolist():
            globals_sorted = tuple(mesh.faces[fidx].tolist())
            ref_anchors = tuple(REF_VERTICES[self.ref_to_global.index(g)] for g in globals_sorted)
            self.faces.append(
                {
                    "global": fidx,
                    "ref_anchors": ref_anchors,
                    **_face_frame(mesh, globals_sorted),
                }
            )

        inv = self.amap.inverse
        self.b_inv = inv
        self.b_invT = tuple(tuple(inv[j][i] for j in range(3)) for i in range(3))
        self.b_T = tuple(tuple(self.amap.matrix[j][i] for j in range(3)) for i in range(3))

    @classmethod
    def standalone(cls, vertices):
        return cls(MeshTopology(vertices, [(0, 1, 2, 3)]), 0)

    def signature(self):
        """Cache key: the congruence class of the cell's affine map."""
        return self.amap.signature()

    @property
    def scale(self):
        """Largest absolute matrix entry: the mesh size h on a Kuhn mesh."""
        return max(abs(v) for row in self.amap.matrix for v in row)

    def shape(self):
        """The matrix as coprime integers, which a homothety leaves unchanged."""
        matrix = self.amap.matrix
        den = lcm(*(v.denominator for row in matrix for v in row))
        rows = [[v.numerator * (den // v.denominator) for v in row] for row in matrix]
        g = gcd(*(v for row in rows for v in row))
        return tuple(tuple(v // g for v in row) for row in rows)

    def orbit_key(self):
        """Key that every similarity ``B -> t Q B S`` leaves unchanged.

        The least image of :meth:`shape` under the similarities, so two
        cells share it exactly when one is a similar image of the other.
        The vertex order is left out: it flips face directions only.
        """
        shape = self.shape()
        return min(_similar(shape, s) for s in _SIMILARITIES)


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


def _similar(matrix, similarity):
    """``Q matrix S`` for a similarity ``(perm, signs, cols)``."""
    perm, signs, cols = similarity
    return tuple(
        tuple(matrix[p][c] if s > 0 else -matrix[p][c] for c in cols)
        for p, s in zip(perm, signs)
    )


@lru_cache(maxsize=1)
def reference_cell() -> CellGeometry:
    return CellGeometry.standalone(REF_VERTICES)


# ---------------------------------------------------------------------------
# physical differential operators on reference-expressed fields


def phys_grad(cell: CellGeometry, scalar_pw: PiecewiseField) -> PiecewiseField:
    return scalar_pw.map(lambda p: grad(p).matmul(cell.b_invT))


def phys_curl(cell: CellGeometry, vec_pw: PiecewiseField) -> PiecewiseField:
    det = cell.amap.det
    inv_det = Fraction(1, 1) / det if isinstance(det, Fraction) else 1.0 / det

    def one(p):
        return curl(p.matmul(cell.b_T)).matmul(cell.amap.matrix) * inv_det

    return vec_pw.map(one)


def phys_div(cell: CellGeometry, vec_pw: PiecewiseField) -> PiecewiseField:
    return vec_pw.map(lambda p: div(p.matmul(cell.b_inv)))


# ---------------------------------------------------------------------------
# raw space bases


def lagrange_raw(r):
    return [as_piecewise(Polynomial.monomial(e)) for e in monomial_exponents(r, 3)]


def pressure_raw(k):
    return [as_piecewise(Polynomial.monomial(e)) for e in monomial_exponents(k - 1, 3)]


def physical_face_bubble(cell: CellGeometry, local_face: int):
    """Modified face bubble on a physical cell, in reference expression.

    The bubble direction is the face's global rational direction (the
    ascending-vertex cross product), so both cells incident to a mesh face
    build the identical trace and the global space stays H1-conforming.
    Returns the corrected bubble, the raw bubble it matches on the boundary,
    and its constant physical divergence.
    """
    d = cell.faces[local_face]["direction"]
    scalar = scalar_face_bubble(local_face)
    raw = VectorField(tuple(scalar * dc for dc in d))
    g = phys_div(cell, as_piecewise(raw)).pieces[0]
    mean = integrate_unit_simplex(g) * 6
    target = (g - Polynomial.constant(mean)) * cell.amap.det
    w_hat = solve_div(as_piecewise(target), 3)
    inv_det = Fraction(1, 1) / cell.amap.det
    correction = w_hat.matmul(cell.amap.matrix) * inv_det
    beta = as_piecewise(raw) - correction
    beta = PiecewiseField(beta.pieces, "C0")
    dv = phys_div(cell, beta)
    assert dv.is_single() and dv.pieces[0] == Polynomial.constant(mean)
    return beta, raw, mean


# Scaling a cell by t (matrix B -> t B) multiplies each raw basis field by a
# fixed power of t: t^-1 for gradients (B^-T grad), t^0 for vector monomials,
# t^2 for face bubbles (the face direction is a cross product of edges),
# t^-2 for interior bubbles (B field / det B); a vector potential has its
# source's power plus one, and a physical curl the field's power minus one.
# ``derive_fields`` combines these powers with a rotation or reflection.
GRADIENT_POWER, MONOMIAL_POWER, FACE_BUBBLE_POWER, INTERIOR_BUBBLE_POWER = -1, 0, 2, -2


def velocity_raw(cell: CellGeometry, k):
    """Vector P_k plus face bubbles (k <= 2) and interior bubbles.

    Returns the fields, whether each is a bubble, and the power of the cell
    scale by which each field scales.
    """
    fields = [as_piecewise(v) for v in vector_monomials(k)]
    is_bubble = [False] * len(fields)
    powers = [MONOMIAL_POWER] * len(fields)
    if k <= 2:
        for i in range(4):
            beta, _, _ = physical_face_bubble(cell, i)
            fields.append(beta)
            is_bubble.append(True)
            powers.append(FACE_BUBBLE_POWER)
    order = k - 1 if k >= 3 else (1 if k == 2 else None)
    if order is not None:
        inv_det = Fraction(1, 1) / cell.amap.det
        for ib in interior_bubbles(order):
            fields.append(ib.field.matmul(cell.amap.matrix) * inv_det)
            is_bubble.append(True)
            powers.append(INTERIOR_BUBBLE_POWER)
    return fields, is_bubble, powers


def gradcurl_raw(cell: CellGeometry, r, k):
    """Gradients of P_r plus vector potentials of the velocity basis.

    Base points (reference coordinates): the split center for bubble
    generators, the reference origin for polynomial generators.  An exact
    rank selection drops the dependent generators; the surviving dimension
    must equal dim velocity + dim P_r - dim P_{k-1} - 1.

    Returns the selected fields and their scale powers.
    """
    validate_family(r, k)
    gens = []
    for e in monomial_exponents(r, 3):
        if sum(e) == 0:
            continue
        gens.append(as_piecewise(grad(Polynomial.monomial(e)).matmul(cell.b_invT)))
    powers = [GRADIENT_POWER] * len(gens)
    vel_fields, vel_bubble, vel_powers = velocity_raw(cell, k)
    origin = (Fraction(0), Fraction(0), Fraction(0))
    for psi, is_bub, power in zip(vel_fields, vel_bubble, vel_powers):
        base = REF_CENTER if is_bub else origin
        gens.append(piecewise_poincare2(psi, base, matrix=cell.amap.matrix))
        powers.append(power + 1)

    expected = (
        len(vel_fields) + dim_poly(r) - dim_poly(k - 1) - 1
    )
    degree = max(g.degree for g in gens)
    emb = Embedding(degree, vector=True)
    cols = [_difference_coords(emb.coords(g), emb.block) for g in gens]
    chosen = select_independent(cols)
    if len(chosen) != expected:
        raise ArithmeticError(
            f"grad-curl space rank {len(chosen)} != expected {expected} for (r,k)=({r},{k})"
        )
    return [gens[i] for i in chosen], [powers[i] for i in chosen]


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
    areas, normals and tangents, ``B`` times reference offsets), which
    depend on the cell's matrix and vertex order only.  So one stencil
    serves every cell of a congruence class, on any mesh: the DOF matrix
    (:func:`dof_matrix`) reads the reference-expressed raw fields at the
    points as they are, and an interpolant maps them by the cell's affine
    map (:meth:`apply_sample`).  Entity stencils read the segment and
    triangle rules of ``quad``; cell stencils read the split rule
    ``alfeld_composite(quad.degree)``, so that they integrate
    split-piecewise fields exactly.
    """

    entity: tuple
    slot: int
    label: str
    stencil: callable = dc_field(repr=False)

    def apply_sample(self, sample, quad, cell):
        """The functional of ``cell`` applied to a sample of a physical field."""
        use, pts, wts = self.stencil(quad)
        return float(np.sum(getattr(sample, use)(cell.amap.apply(pts)) * wts))


def _exps2(degree):
    return monomial_exponents(degree, 2) if degree >= 0 else []


_ONE = np.ones(1)
_UNIT = np.eye(3)
_REF = np.array(REF_VERTICES, dtype=float)


def _directed(stencil, direction):
    """A scalar stencil ``(use, points, weights)`` times a fixed vector."""
    use, pts, wts = stencil
    return use, pts, wts[:, None] * direction


def _edge_points(info, spts):
    lo, hi = np.array([info["ref_lo"], info["ref_hi"]], dtype=float)
    return lo + spts[:, :1] * (hi - lo)


def _face_points(info, fpts):
    p0, p1, p2 = np.array(info["ref_anchors"], dtype=float)
    return p0 + fpts[:, :1] * (p1 - p0) + fpts[:, 1:2] * (p2 - p0)


def lagrange_dofs(cell: CellGeometry, r):
    dofs = [
        DofFunctional(
            ("vertex", v), 0, f"value@v{v}", lambda q, v=v: ("value", _REF[v:v + 1], _ONE)
        )
        for v in range(4)
    ]
    for e, info in enumerate(cell.edges):
        for m in range(r - 1):
            dofs.append(
                DofFunctional(
                    ("edge", e), m, f"edge{e}-moment{m}",
                    lambda q, info=info, m=m: _edge_scalar_stencil(q, info, m),
                )
            )
    for f, info in enumerate(cell.faces):
        for slot, exp in enumerate(_exps2(r - 3)):
            dofs.append(
                DofFunctional(
                    ("face", f), slot, f"face{f}-moment{exp}",
                    lambda q, info=info, exp=exp: _face_scalar_stencil(q, info, exp),
                )
            )
    for slot, exp in enumerate(monomial_exponents(r - 4, 3) if r >= 4 else []):
        dofs.append(
            DofFunctional(
                ("cell", 0), slot, f"cell-moment{exp}",
                lambda q, exp=exp: _cell_scalar_stencil(q, cell, exp),
            )
        )
    return dofs


def _edge_scalar_stencil(quad, info, m):
    spts, w = quad.segment
    return "value", _edge_points(info, spts), info["length"] * w * spts[:, 0] ** m


def _face_scalar_stencil(quad, info, exp):
    fpts, w = quad.triangle
    mono = fpts[:, 0] ** exp[0] * fpts[:, 1] ** exp[1]
    return "value", _face_points(info, fpts), 2 * info["area"] * w * mono


def _cell_scalar_stencil(quad, cell, exp, scale=1.0):
    rpts, w = alfeld_composite(quad.degree)
    mono = rpts[:, 0] ** exp[0] * rpts[:, 1] ** exp[1] * rpts[:, 2] ** exp[2]
    return "value", rpts, scale * cell.amap.det_f * w * mono


def pressure_dofs(cell: CellGeometry, k):
    # mean-value moments (1/|K|) \int p q dV: the order-zero nodal basis is
    # then the cell indicator and mass row sums are cell volumes
    inv_vol = 1.0 / float(cell.amap.det * Fraction(1, 6))
    return [
        DofFunctional(
            ("cell", 0), slot, f"cell-mean-moment{exp}",
            lambda q, exp=exp: _cell_scalar_stencil(q, cell, exp, inv_vol),
        )
        for slot, exp in enumerate(monomial_exponents(k - 1, 3))
    ]


def velocity_dofs(cell: CellGeometry, k):
    dofs = [
        DofFunctional(
            ("vertex", v), c, f"value@v{v}[{c}]",
            lambda q, v=v, c=c: ("value", _REF[v:v + 1], _UNIT[c][None, :]),
        )
        for v in range(4)
        for c in range(3)
    ]
    for e, info in enumerate(cell.edges):
        slot = 0
        for m in range(max(k - 1, 0)):
            for c in range(3):
                dofs.append(
                    DofFunctional(
                        ("edge", e), slot, f"edge{e}-mom{m}[{c}]",
                        lambda q, info=info, m=m, c=c: _directed(
                            _edge_scalar_stencil(q, info, m), _UNIT[c]
                        ),
                    )
                )
                slot += 1
    for f, info in enumerate(cell.faces):
        slot = 0
        for exp in _exps2(k - 3):
            for c in range(3):
                dofs.append(
                    DofFunctional(
                        ("face", f), slot, f"face{f}-mom{exp}[{c}]",
                        lambda q, info=info, exp=exp, c=c: _directed(
                            _face_scalar_stencil(q, info, exp), _UNIT[c]
                        ),
                    )
                )
                slot += 1
        if k <= 2:
            dofs.append(
                DofFunctional(
                    ("face", f), slot, f"face{f}-normal-flux",
                    lambda q, info=info: _directed(
                        _face_scalar_stencil(q, info, (0, 0)), info["normal"]
                    ),
                )
            )
            slot += 1
    slot = 0
    for exp in (monomial_exponents(k - 4, 3) if k >= 4 else []):
        for c in range(3):
            dofs.append(
                DofFunctional(
                    ("cell", 0), slot, f"cell-mom{exp}[{c}]",
                    lambda q, exp=exp, c=c: _directed(
                        _cell_scalar_stencil(q, cell, exp), _UNIT[c]
                    ),
                )
            )
            slot += 1
    if k >= 2:
        for v_hat in layered_mean_zero_basis(k - 1):
            w = grad(v_hat).matmul(cell.b_invT)
            dofs.append(
                DofFunctional(
                    ("cell", 0), slot, f"cell-layered-grad{slot}",
                    lambda q, w=w: _cell_weighted_stencil(q, cell, w),
                )
            )
            slot += 1
    return dofs


def _cell_weighted_stencil(quad, cell, weight_vec, use="value", scale=1.0):
    rpts, w = alfeld_composite(quad.degree)
    wv = weight_vec.to_float().eval_many(rpts)
    return use, rpts, (scale * cell.amap.det_f * w)[:, None] * wv


@lru_cache(maxsize=None)
def _cross_position_basis(k):
    """Rank-selected basis of { p x xhat : p vector polynomial of degree k-5 }."""
    if k < 5:
        return ()
    xf = VectorField(tuple(Polynomial.variable(i) for i in range(3)))
    gens = [vm.cross(xf) for vm in vector_monomials(k - 5)]
    emb = Embedding(k - 4, vector=True)
    cols = [emb.coords(as_piecewise(g)) for g in gens]
    chosen = select_independent(cols)
    return tuple(gens[i] for i in chosen)


def gradcurl_dofs(cell: CellGeometry, r, k):
    dofs = [
        DofFunctional(
            ("vertex", v), c, f"curl@v{v}[{c}]",
            lambda q, v=v, c=c: ("curl", _REF[v:v + 1], _UNIT[c][None, :]),
        )
        for v in range(4)
        for c in range(3)
    ]
    for e, info in enumerate(cell.edges):
        slot = 0
        for m in range(r):
            dofs.append(
                DofFunctional(
                    ("edge", e), slot, f"edge{e}-tang{m}",
                    lambda q, info=info, m=m: _directed(
                        _edge_scalar_stencil(q, info, m), info["tangent"]
                    ),
                )
            )
            slot += 1
        for m in range(max(k - 1, 0)):
            for c in range(3):
                dofs.append(
                    DofFunctional(
                        ("edge", e), slot, f"edge{e}-curlmom{m}[{c}]",
                        lambda q, info=info, m=m, c=c: _edge_curl_stencil(q, info, m, c),
                    )
                )
                slot += 1
    for f, info in enumerate(cell.faces):
        slot = 0
        exps = _exps2(k - 3)
        for exp in exps:
            if exp == (0, 0):
                continue
            mono = Polynomial.monomial(exp)
            # mean over the parametric triangle (area 1/2)
            w = mono - Polynomial.constant(Fraction(integrate_unit_simplex(mono) * 2), 2)
            dofs.append(
                DofFunctional(
                    ("face", f), slot, f"face{f}-curl-n{exp}",
                    lambda q, info=info, w=w: _face_curl_normal_stencil(q, info, w),
                )
            )
            slot += 1
        for tname in ("tau1", "tau2"):
            for exp in exps:
                dofs.append(
                    DofFunctional(
                        ("face", f), slot, f"face{f}-curl-{tname}{exp}",
                        lambda q, info=info, exp=exp, t=info[tname]: _face_curl_tangent_stencil(
                            q, info, exp, t
                        ),
                    )
                )
                slot += 1
        # tangential-position moments of the field itself
        for exp in _exps2(r - 3):
            dofs.append(
                DofFunctional(
                    ("face", f), slot, f"face{f}-tangpos{exp}",
                    lambda q, info=info, exp=exp: _face_tangpos_stencil(q, info, exp, cell),
                )
            )
            slot += 1
    slot = 0
    for q_hat in _cross_position_basis(k):
        w = q_hat.matmul(cell.b_invT)
        dofs.append(
            DofFunctional(
                ("cell", 0), slot, f"cell-curlmom{slot}",
                lambda q, w=w: _cell_weighted_stencil(q, cell, w, use="curl"),
            )
        )
        slot += 1
    if r >= 4:
        xf = VectorField(tuple(Polynomial.variable(i) for i in range(3)))
        for exp in monomial_exponents(r - 4, 3):
            # (1/det) B q_hat, times det from dV
            w = (xf * Polynomial.monomial(exp)).matmul(cell.amap.matrix)
            dofs.append(
                DofFunctional(
                    ("cell", 0), slot, f"cell-mom{exp}",
                    lambda q, w=w: _cell_weighted_stencil(
                        q, cell, w, scale=1.0 / cell.amap.det_f
                    ),
                )
            )
            slot += 1
    return dofs


def _edge_curl_stencil(quad, info, m, c):
    spts, w = quad.segment
    return "curl", _edge_points(info, spts), (w * spts[:, 0] ** m)[:, None] * _UNIT[c]


def _face_curl_normal_stencil(quad, info, w2):
    fpts, w = quad.triangle
    wv = w2.to_float().eval_many(fpts)
    wts = (2 * info["area"] * w * wv)[:, None] * info["normal"]
    return "curl", _face_points(info, fpts), wts


def _face_curl_tangent_stencil(quad, info, exp, t):
    fpts, w = quad.triangle
    mono = fpts[:, 0] ** exp[0] * fpts[:, 1] ** exp[1]
    return "curl", _face_points(info, fpts), (2 * w * mono)[:, None] * t


def _face_tangpos_stencil(quad, info, exp, cell):
    """Moment against the physical offset from the face centroid, ``B (xhat - xhat_c)``."""
    fpts, w = quad.triangle
    pts = _face_points(info, fpts)
    centroid = np.mean(np.array(info["ref_anchors"], dtype=float), axis=0)
    offsets = (pts - centroid) @ cell.amap.matrix_f.T
    mono = fpts[:, 0] ** exp[0] * fpts[:, 1] ** exp[1]
    return "value", pts, (2 * w * mono)[:, None] * offsets


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


@dataclass
class LocalElement:
    kind: str
    r: int
    k: int
    cell: CellGeometry
    basis: list
    dofs: list
    dof_matrix: np.ndarray
    nodal: np.ndarray  # columns: nodal basis in raw-basis coordinates
    condition: float
    curls: list = None  # physical curls of the raw basis (gradcurl only)

    @property
    def dimension(self):
        return len(self.basis)


def _coefficient_entries(fields, columns):
    """Shape, flat positions and exact values of the coefficient tensor of piecewise fields.

    The tensor is (fields, subtets, components, monomials); ``columns`` maps
    each exponent tuple to its monomial's column.
    """
    comps = 3 if fields[0].is_vector else 1
    at, values = [], []
    for j, pw in enumerate(fields):
        for p, piece in enumerate(pw.pieces):
            for c, poly in enumerate(piece.comps if comps == 3 else (piece,)):
                base = ((j * 4 + p) * comps + c) * len(columns)
                for key, v in poly.coeffs.items():
                    at.append(base + columns[key])
                    values.append(v)
    return (len(fields), 4, comps, len(columns)), at, values


def _coefficients(fields, columns):
    """Float coefficient tensor (fields, subtets, components, monomials) of piecewise fields."""
    shape, at, values = _coefficient_entries(fields, columns)
    try:  # the correctly rounded quotient, as float(Fraction), without its generic dispatch
        values = [v.numerator / v.denominator for v in values]
    except AttributeError:  # a float coefficient
        values = [float(v) for v in values]
    out = np.zeros(shape)
    out.flat[at] = values
    return out


def _long_coefficients(fields, columns):
    """The coefficient tensor in long double: each exact quotient rounded there."""
    shape, at, values = _coefficient_entries(fields, columns)
    ratios = np.array([v.as_integer_ratio() for v in values], dtype=np.longdouble).reshape(-1, 2)
    out = np.zeros(shape, dtype=np.longdouble)
    out.flat[at] = ratios[:, 0] / ratios[:, 1]
    return out


def _entity_piece(entity):
    """A piece of the split that holds a vertex, edge or face of the cell."""
    kind, i = entity
    if kind == "vertex":
        return (i + 1) % 4
    if kind == "edge":
        return _SUBTET_FOR_EDGE[i]
    return i  # face i is a face of piece i only


def dof_matrix(dofs, basis, cell, curls=None):
    """Each functional's stencil applied to each raw field: entry ``(dof, field)``.

    The fields' exact coefficients become one tensor, which meets the
    monomials at the stencil's points (in reference coordinates, like the
    fields) on the split piece that holds the functional's entity; a cell
    stencil's split rule has one block of points per piece.  The rule is
    exact to degree 2 deg + 2 for fields of degree deg, so every product of
    a field and a weight is integrated exactly.  The sums run in long double: the monomial
    coefficients of split fields are large against their values (by 10^3
    for the lowest-order face bubbles), and in double their cancellation
    took the assembled div o curl of (1,1) at N = 2 from 2e-14 to 1.6e-12.
    ``curls`` are the physical curls of ``basis``, computed on ``cell``
    when a functional needs them and they are not given.
    """
    degree = max(max(b.degree for b in basis), 0)
    quad = QuadratureRule(2 * degree + 2)
    exps = monomial_exponents(degree, 3)
    columns = {e: i for i, e in enumerate(exps)}
    powers = np.array(exps).T  # (axes, monomials)
    stencils = [d.stencil(quad) for d in dofs]
    out = np.empty((len(dofs), len(basis)))
    for use in ("value", "curl"):
        rows = [i for i, st in enumerate(stencils) if st[0] == use]
        if not rows:
            continue
        fields = basis if use == "value" else curls or [phys_curl(cell, b) for b in basis]
        coef = _long_coefficients(fields, columns)  # (fields, pieces, components, monomials)
        for i in rows:
            _, pts, wts = stencils[i]
            # (points, axes, powers)
            table = pts.astype(np.longdouble)[:, :, None] ** np.arange(degree + 1)
            mono = table[:, 0, powers[0]] * table[:, 1, powers[1]] * table[:, 2, powers[2]]
            wts = wts.reshape(len(pts), -1).astype(np.longdouble)  # (points, components)
            if dofs[i].entity[0] == "cell":  # the split rule: one block of points per piece
                blocks = (a.reshape(4, -1, a.shape[1]) for a in (wts, mono))
                moment, piece = np.einsum("pqc,pqm->pcm", *blocks), slice(None)
            else:
                moment, piece = wts.T @ mono, _entity_piece(dofs[i].entity)
            out[i] = coef[:, piece].reshape(len(fields), -1) @ moment.ravel()
    return out


class ElementCache:
    """Local elements by cell signature, with one exact build per similarity orbit.

    ``elements`` maps ``(kind, r, k, cell.signature())`` to its element.
    ``orbits`` maps ``(kind, r, k, cell.orbit_key())`` to the first element
    built in that orbit and the scale powers of its raw basis.  Another
    cell of the orbit, ``B = t Q B0 S``, derives its raw basis and curls
    from that element (:func:`derive_fields`); only the DOFs, the DOF
    matrix and its inverse are computed for it.  ``built``, ``derived``
    and ``hits`` count the three outcomes of a lookup.
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


def derive_fields(fields, powers, t, similarity, curls=False):
    """Fields of a cell ``B0`` carried to the similar cell ``t Q B0 S``.

    Field ``f`` of scale power ``a`` becomes ``t^a Q (f o S)``, a scalar
    field ``t^a (f o S)``; with ``curls`` the fields are physical curls
    and become ``det(Q) t^(a-1) Q (f o S)``.  ``S`` fixes reference vertex
    0 and the split centre and maps subtet ``i`` onto the subtet of the
    vertex it sends ``i`` to, so the pieces are relabelled with it.  The
    generators of every raw space are equivariant under the similarity
    (gradients through ``B^-T``, vector monomials as a span, face bubbles
    through their global direction and the linear ``solve_div``, interior
    bubbles through ``B / det B``, potentials about vertex 0 or the
    centre), so the results span the space a direct build on the new cell
    spans.
    """
    perm, signs, cols = similarity
    vertex = _vertex_images(cols)
    sign = 1
    if curls:
        inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
        sign = (-1) ** inversions * signs[0] * signs[1] * signs[2]
        powers = [a - 1 for a in powers]

    def move(p, factor):
        p = p.permute_variables(cols)
        return p if factor == 1 else p * factor

    def field(f, a):
        factor = sign * t**a
        if isinstance(f.pieces[0], VectorField):
            one = lambda v: VectorField(move(v.comps[j], s * factor) for j, s in zip(perm, signs))
        else:
            one = lambda p: move(p, factor)
        if f.continuity == "single":
            return PiecewiseField.from_single(one(f.pieces[0]))
        return PiecewiseField((one(f.pieces[vertex[i]]) for i in range(4)), f.continuity)

    return [field(f, a) for f, a in zip(fields, powers)]


def _describe(t, similarity):
    """``t``, ``Q`` as the images of the axes and ``S`` as the vertex images."""
    perm, signs, cols = similarity
    axes = ",".join(("-" if s < 0 else "") + "xyz"[p] for p, s in zip(perm, signs))
    vertices = ",".join(map(str, _vertex_images(cols)))
    return f" (t={t}, Q=({axes}), vertices ({vertices}))"


def local_element(kind, r, k, cell=None):
    """Build, derive or fetch the local element bundle for a cell.

    Cells of one congruence class (same matrix and vertex order) share the
    construction (translations do not change any of it), and a class
    similar to one built before, at any scale, rotation or reflection,
    derives its raw basis from that build (:func:`derive_fields`).
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
        basis, powers = build_raw_basis(kind, cell, r, k)
        curls = [phys_curl(cell, b) for b in basis] if kind == "gradcurl" else None
        how, detail = "built", ""
    else:
        el0, powers = first
        curls = None
        shape0, shape = el0.cell.shape(), cell.shape()
        similarity = next(s for s in _SIMILARITIES if _similar(shape0, s) == shape)
        t = cell.scale / el0.cell.scale
        basis = derive_fields(el0.basis, powers, t, similarity)
        if el0.curls is not None:
            curls = derive_fields(el0.curls, powers, t, similarity, curls=True)
        how, detail = "derived", _describe(t, similarity)
    dofs = build_dofs(kind, cell, r, k)
    if len(dofs) != len(basis):
        raise ArithmeticError(
            f"{kind}({r},{k}): {len(dofs)} functionals vs {len(basis)} basis fields"
        )
    m = dof_matrix(dofs, basis, cell, curls=curls)
    cond = float(np.linalg.cond(m))
    try:
        nodal = np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"{kind}({r},{k}): singular DOF matrix") from exc
    el = LocalElement(kind, r, k, cell, basis, dofs, m, nodal, cond, curls)
    cache.elements[key] = el
    if first is None:
        cache.built += 1
        cache.orbits[orbit_key] = (el, powers)
    else:
        cache.derived += 1
    _log.debug(
        "%s %s(%d,%d) element%s in %.3f s", how, kind, r, k, detail, time.perf_counter() - start
    )
    return el


# ---------------------------------------------------------------------------
# structural reports on the reference cell


def _difference_coords(vec, block):
    """Recode (b0, b1, b2, b3) -> (b0, b1-b0, b2-b0, b3-b0); sparse for singles."""
    out = list(vec[:block])
    for piece in range(1, 4):
        base = piece * block
        out.extend(vec[base + j] - vec[j] for j in range(block))
    return out


def _expand_in_basis(basis_fields, images, embedding, what):
    """Coefficients of ``images`` in the span of ``basis_fields`` (exact)."""
    from .polyalg.spaces import solve_exact

    block = embedding.block
    cols = [_difference_coords(embedding.coords(f), block) for f in basis_fields]
    matrix = [[cols[j][i] for j in range(len(cols))] for i in range(embedding.size)]
    rhs = [_difference_coords(embedding.coords(f), block) for f in images]
    # drop rows that are zero in both the matrix and every rhs
    keep = [
        i
        for i in range(embedding.size)
        if any(matrix[i][j] != 0 for j in range(len(cols))) or any(r[i] != 0 for r in rhs)
    ]
    matrix = [matrix[i] for i in keep]
    rhs = [[r[i] for i in keep] for r in rhs]
    sols = solve_exact(matrix, rhs)
    if any(s is None for s in sols):
        raise ArithmeticError(f"{what}: image leaves the target space")
    return [[sols[j][i] for j in range(len(sols))] for i in range(len(cols))]


@lru_cache(maxsize=None)
def local_complex_matrices(r, k):
    """Exact matrices of grad/curl/div between the raw local bases."""
    validate_family(r, k)
    cell = reference_cell()
    lag, gc, vel, pre = (build_raw_basis(kind, cell, r, k)[0] for kind in SPACE_KINDS)

    deg_gc = max(f.degree for f in gc)
    emb_gc = Embedding(deg_gc, vector=True)
    deg_vel = max(f.degree for f in vel)
    emb_vel = Embedding(max(deg_vel, max(deg_gc - 1, 0)), vector=True)
    emb_pre = Embedding(k - 1, vector=False)

    grad_mat = _expand_in_basis(gc, [phys_grad(cell, p) for p in lag], emb_gc, "grad")
    curl_mat = _expand_in_basis(vel, [phys_curl(cell, u) for u in gc], emb_vel, "curl")
    div_mat = _expand_in_basis(pre, [phys_div(cell, u) for u in vel], emb_pre, "div")
    return grad_mat, curl_mat, div_mat


def _matmul_exact(a, b):
    n, m, p = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for kk in range(m):
            v = ai[kk]
            if v == 0:
                continue
            bk = b[kk]
            row = out[i]
            for j in range(p):
                if bk[j] != 0:
                    row[j] += v * bk[j]
    return out


def _is_zero_matrix(a):
    return all(v == 0 for row in a for v in row)


def local_exactness_table(r, k):
    """Exact rank table of the local complex (all entries rational ranks)."""
    grad_mat, curl_mat, div_mat = local_complex_matrices(r, k)
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
        "curl_grad_zero": _is_zero_matrix(_matmul_exact(curl_mat, grad_mat)),
        "div_curl_zero": _is_zero_matrix(_matmul_exact(div_mat, curl_mat)),
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


def poly_inclusion_check(r, k, rng=None, tol=1e-11):
    """Reproduction of vector polynomials of degree min{r-1, k+1} by interpolation."""
    validate_family(r, k)
    from .sampling import FieldSample

    s = min(r - 1, k + 1)
    cell = reference_cell()
    el = local_element("gradcurl", r, k, cell)
    rng = rng or np.random.default_rng(7)
    bary = rng.random((24, 4)) + 0.05
    bary /= bary.sum(axis=1, keepdims=True)
    pts = bary[:, 1:]
    quad = QuadratureRule(2 * max(r, k + 1) + 4)
    worst = 0.0
    basis_vals = np.stack([_eval_pw_vector(b, pts) for b in el.basis])
    for mono in vector_monomials(s):
        sample = FieldSample.from_vector_polynomial(mono)
        coeffs = np.array([d.apply_sample(sample, quad, cell) for d in el.dofs])
        raw = el.nodal @ coeffs
        approx = np.einsum("j,jqc->qc", raw, basis_vals)
        exact = sample.value(pts)
        scale = max(1.0, float(np.abs(exact).max()))
        worst = max(worst, float(np.abs(approx - exact).max()) / scale)
    return {"s": s, "max_rel_error": worst, "ok": worst <= tol}


@lru_cache(maxsize=1)
def _subtet_locators():
    """Float inverse maps of the four subtets for point location."""
    from .polyalg.split import SUBTET_VERTICES

    locs = []
    for i in range(4):
        verts = np.array([[float(c) for c in v] for v in SUBTET_VERTICES[i]])
        a = (verts[1:] - verts[0]).T
        locs.append((np.linalg.inv(a), verts[0]))
    return locs


def locate_subtet_float(points):
    """Subtet index per point (most-interior wins; boundary ties are fine)."""
    points = np.asarray(points, float)
    best = np.full(len(points), -1)
    best_q = np.full(len(points), -np.inf)
    for i, (inv, v0) in enumerate(_subtet_locators()):
        local = (points - v0) @ inv.T
        lam0 = 1.0 - local.sum(axis=1)
        quality = np.minimum(local.min(axis=1), lam0)
        take = quality > best_q
        best[take] = i
        best_q[take] = quality[take]
    return best


def _eval_pw_vector(pw, pts):
    """Float evaluation of a piecewise vector field at reference points."""
    pts = np.asarray(pts, float)
    fl = pw.to_float()
    if pw.is_single():
        return fl.pieces[0].eval_many(pts)
    out = np.zeros((len(pts), 3))
    which = locate_subtet_float(pts)
    for i in range(4):
        mask = which == i
        if mask.any():
            out[mask] = fl.pieces[i].eval_many(pts[mask])
    return out


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
