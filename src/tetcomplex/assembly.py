"""Global spaces, assembled operators, interpolation, and error norms.

Global DOFs are blocked by entity (vertices, edges, faces, cells); every
cell incident to an entity addresses the identical functional, so the
local-to-global map carries indices only.  Cells in one congruence class
share the local element construction and all local matrices; only
translations (and hence physical quadrature points) differ per cell.

Per class everything float is a dense product:

- ``ClassTables`` keeps the class geometry and the element's float
  raw-basis (and curl) coefficient tensors contracted with the nodal
  matrix; it forms a point table (values, curls, Jacobians, divergences)
  only on request, from monomial Vandermonde tables (values and first
  partials) that one quadrature degree and basis degree share across
  classes, spaces and levels, and keeps none;
- ``assemble`` computes each class's local matrix once from per-subtet
  monomial moment matrices, shared like the Vandermonde tables and
  contracted with the coefficient tensors and the cell map (a reference
  tensor times a geometry tensor, as in Kirby and Logg, ACM TOMS 32,
  2006), and builds the CSR matrix in row blocks: the (cell, local row)
  pairs of all classes sorted by global row once, then about
  ``_BLOCK_TRIPLETS`` triplets at a time turned into whole rows, their
  duplicates summed within the block, so explicit zeros stay and no
  global triplet array exists; given DOFs, it numbers rows and columns
  by their position among them and never forms the others' entries (a
  solver's interior block, in its order); a symmetric form is checked
  before its CSR matrix exists: each class's local matrix must equal its
  transpose and rows and columns share one labelling, which makes the
  matrix equal its transpose bit for bit;
- the load and the error norms of a sample with ``modes`` (see
  ``FieldSample``) share one kernel: templates and point tables reduce to
  small triangular factors that the class tables keep for every later
  call, one QR of the templates and one per table, of all its components
  stacked, and a cell's modes enter only through R11 c.  The load is
  R12^T (R11 c) on the values table's R12.  Classes whose maps differ by
  a signed axis permutation Q (two triples on a Kuhn level) form one
  group, whose first class builds the factors and whose others take them
  (``_group_similar``), evaluating their fields pulled back by Q.  Per
  cell the translation is folded into the product with R11, once per
  distinct x shift (``TranslationModes.folded``).

Every evaluation point is a point of a class map (zero shift) moved by
each cell's absolute shift: ``ClassTables`` keeps split-rule points and
``GlobalSpace.interpolate`` the DOF stencil points, mapped once per class.
Every layer logs one ``tetcomplex.assembly`` DEBUG record with its
classes, cells, path (coefficients, moments, numerators, modal or
pointwise), mode count and seconds; a space logs one record when it is
built, with how many of its elements were built, derived or found in the
element cache.
"""

from __future__ import annotations

import logging
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import elements as _elements

# ``build_dofs`` is read by no code here; it stays importable from this module
# because the benchmark's layer probes (perfbench/probes.py) wrap it by this name.
from .elements import (  # noqa: F401
    CellGeometry,
    build_dofs,
    dof_matrix,
    entity_dof_counts,
    local_element,
    phys_curl,
    phys_div,
    phys_grad,
    validate_family,
)
from .polyalg.spaces import derivative_gathers
from .quadrature import alfeld_composite

_log = logging.getLogger("tetcomplex.assembly")


def default_quadrature_degree(r, k, basis_degree):
    return max(2 * max(r, k + 1) + 2, 2 * basis_degree)


# ``GlobalSpace.interior_points`` scale: a multiple of 1, 2, 3 and 4 vertices, so the
# centroid of every entity is an integer point.
DOF_POINT_SCALE = 12

# Largest number of points (or mode coefficients) per cell times cells that
# one chunk of a class evaluates at once (bounds memory).
_POINT_CHUNK = 200_000

# Triplets (cell, local row, local column) that ``assemble`` turns into rows of
# its CSR matrix at a time: a block's keys, sort order and values take a few MB.
_BLOCK_TRIPLETS = 2**17


def _log_layer(layer, space, start, path, modes=0, status=None, blocks=None):
    """One DEBUG record of a layer over all classes of ``space``, begun at ``start``.

    ``path`` names how the layer evaluated (the class tables' coefficient
    tensors, moment matrices, exact numerators, modal or pointwise
    samples).  ``status`` counts the ``_error_factors`` outcomes of a
    modal layer's classes: its record's ``factors`` says whether the layer
    built or reused the per-class factors, ``factor_builds`` how many
    classes built them and ``factor_shared`` how many took those of a
    similar class.
    """
    if not _log.isEnabledFor(logging.DEBUG):
        return
    status = status or Counter()
    factors = None
    if path == "modal":
        factors = "built" if status["built"] or status["shared"] else "reused"
    fields = {
        "layer": layer,
        "classes": len(space.classes),
        "cells": space.mesh.n_cells,
        "path": path,
        "modes": modes,
        "factors": factors,
        "factor_builds": status["built"],
        "factor_shared": status["shared"],
        "blocks": None if blocks is None else blocks[0],
        "block_triplets": None if blocks is None else blocks[1],
        "seconds": time.perf_counter() - start,
    }
    details = ", factors %(factors)s (%(factor_builds)d built, %(factor_shared)d shared)"
    sizes = ", %(blocks)d row blocks, largest %(block_triplets)d triplets"
    _log.debug(
        "%(layer)s: %(classes)d classes, %(cells)d cells, %(path)s path, "
        "%(modes)d modes, %(seconds).3f s" + ("" if factors is None else details)
        + ("" if blocks is None else sizes),
        fields, extra=fields,
    )


def _sample_path(sample):
    """(path, mode count) of a load or error-norm sample."""
    return ("pointwise", 0) if sample.modes is None else ("modal", sample.modes.count)


class GlobalSpace:
    """Entity-blocked global numbering of one space kind on a mesh.

    Geometry and local element exist once per congruence class, keyed by
    the class's first cell id: the geometry is built from the class map
    alone, so neither it nor the element holds the mesh.  Every cell's DOF
    numbering is gathered from the mesh's connectivity arrays.
    """

    def __init__(self, mesh, kind, r, k):
        start = time.perf_counter()
        validate_family(r, k)
        self.mesh = mesh
        self.kind = kind
        self.r = r
        self.k = k
        counts = entity_dof_counts(kind, r, k)
        self.counts = counts
        nv, ne, nf, nc = mesh.n_vertices, mesh.n_edges, mesh.n_faces, mesh.n_cells
        self.vertex_base = 0
        self.edge_base = nv * counts["vertex"]
        self.face_base = self.edge_base + ne * counts["edge"]
        self.cell_base = self.face_base + nf * counts["face"]
        self.dim = self.cell_base + nc * counts["cell"]

        self.classes = mesh.classes
        self.cells_geom = {int(c[0]): CellGeometry(a) for c, a in zip(mesh.classes, mesh.class_maps)}
        before = _elements._element_cache.counts()
        self.elements = {ci: local_element(kind, r, k, g) for ci, g in self.cells_geom.items()}
        built, derived, hits = (
            b - a for a, b in zip(before, _elements._element_cache.counts())
        )
        self.local_to_global = self._numbering()
        self._tables = {}
        self.boundary_mask = np.concatenate(
            [np.repeat(flags, counts[e]) for e, (_, flags) in self._entities().items()]
        )
        self.basis_degree = max(el.degree for el in self.elements.values())
        _log.debug(
            "space %s(%d,%d): %d cells, %d classes, %d dofs, elements %d built, %d derived, "
            "%d hits, %.3f s",
            kind, r, k, mesh.n_cells, len(self.classes), self.dim, built, derived, hits,
            time.perf_counter() - start,
        )

    def _numbering(self):
        """Global DOF ids (n_cells, n_local): one gather per class and local DOF."""
        mesh = self.mesh
        entities = {
            "vertex": (self.vertex_base, mesh.cell_vertices),
            "edge": (self.edge_base, mesh.cell_edges),
            "face": (self.face_base, mesh.cell_faces),
            "cell": (self.cell_base, np.arange(mesh.n_cells)[:, None]),
        }
        n_local = len(self.elements[self.classes[0][0]].dofs)
        out = np.empty((mesh.n_cells, n_local), dtype=np.int64)
        for cells in self.classes:
            for i, d in enumerate(self.elements[cells[0]].dofs):
                entity, local = d.entity
                base, ids = entities[entity]
                out[cells, i] = base + ids[cells, local] * self.counts[entity] + d.slot
        return out

    @property
    def interior_dim(self):
        return int((~self.boundary_mask).sum())

    def _entities(self):
        """Per entity kind, in DOF-block order: its vertex ids (entities, k) and boundary flags."""
        mesh = self.mesh
        return {
            "vertex": (np.arange(mesh.n_vertices)[:, None], mesh.vertex_boundary),
            "edge": (mesh.edges, mesh.edge_boundary),
            "face": (mesh.faces, mesh.face_boundary),
            "cell": (mesh.cells, np.zeros(mesh.n_cells, dtype=bool)),
        }

    def interior_points(self):
        """(interior_dim, 3) int64: each interior DOF's entity centroid on the lattice, times ``DOF_POINT_SCALE``.

        Rows follow ``np.flatnonzero(~boundary_mask)``; no boundary DOF's
        point is formed.  The centroid of an entity's k vertices is
        ``DOF_POINT_SCALE // k`` times their lattice sum, an integer for
        k = 1..4; the lattice planes through the vertices are the multiples
        of ``DOF_POINT_SCALE``.
        """
        lattice = self.mesh.lattice
        return np.concatenate([
            np.repeat(DOF_POINT_SCALE // v.shape[1] * lattice[v[~flags]].sum(axis=1), self.counts[e], 0)
            for e, (v, flags) in self._entities().items()
        ])

    # -- per-congruence-class evaluation --------------------------------

    def class_tables(self, degree):
        """ClassTables of each of ``classes`` at one quadrature degree, built once."""
        tables = self._tables.get(degree)
        if tables is None:
            start = time.perf_counter()
            tables = [ClassTables(self, cells[0], degree) for cells in self.classes]
            _group_similar(tables)
            self._tables[degree] = tables
            _log_layer(f"class tables {self.kind} degree {degree}", self, start, "coefficients")
        return tables

    def interpolate(self, sample, quad):
        """Global coefficient vector of the canonical interpolant.

        A class's element holds its DOF stencils in reference coordinates,
        the same for every cell of the class.  Per class and stencil use
        their points are mapped once by the class map, and one evaluation
        at those points moved by each cell's absolute shift covers all of
        its cells.  The sample's point evaluators run at the moved points
        even when it has ``modes``: a stencil has few points, and the mode
        coefficients per cell cost more than evaluating there.
        """
        t0 = time.perf_counter()
        out = np.zeros(self.dim)
        for cells in self.classes:
            amap = self.cells_geom[cells[0]].amap
            stencils = [d.stencil(quad) for d in self.elements[cells[0]].dofs]
            for use in sorted({use for use, _, _ in stencils}):
                locs = [i for i, st in enumerate(stencils) if st[0] == use]
                pts = amap.apply(np.concatenate([stencils[i][1] for i in locs]))
                for chunk, vals in _values(self, cells, getattr(sample, use), pts):
                    start = 0
                    for i in locs:
                        wts = stencils[i][2]
                        part = vals[:, start:start + len(wts)]
                        out[self.local_to_global[chunk, i]] = np.tensordot(part, wts, axes=wts.ndim)
                        start += len(wts)
        _log_layer(f"interpolate {self.kind}", self, t0, "pointwise")
        return out


@dataclass
class SparseOperator:
    """An assembled CSR matrix."""

    matrix: sp.csr_matrix

    @property
    def shape(self):
        return self.matrix.shape

    def check_symmetry(self, tol=1e-13):
        """Whether max|A - A^T| <= tol * max(1, max|A|)."""
        m = self.matrix
        return abs(m - m.T).max() <= tol * max(1.0, abs(m).max())

    def export_text(self, path):
        coo = self.matrix.tocoo()
        with open(path, "w") as fh:
            fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
            for i, j, v in zip(coo.row, coo.col, coo.data):
                fh.write(f"{i} {j} {v:.17e}\n")


# ---------------------------------------------------------------------------
# per-class evaluation tables


@lru_cache(maxsize=None)
def _vandermonde(quad_degree, basis_degree):
    """Monomials up to ``basis_degree`` at the points of ``alfeld_composite(quad_degree)``, centred.

    Each of the rule's four subtet blocks of points is taken less its
    piece's centroid, as the elements' coefficient tensors expand each
    piece about it.  Returns the values (subtets, points, monomials) and
    the first partials (3, subtets, points, monomials), the monomials in
    :func:`monomial_exponents` order, so those of a lower degree come
    first.  Read-only: every class, space and level at these degrees
    shares them.
    """
    blocks = alfeld_composite(quad_degree)[0].reshape(4, -1, 3)
    points = (blocks - _elements.PIECE_CENTROIDS_F[:, None]).reshape(-1, 3)
    values = _elements._monomials(points, basis_degree)
    lower = _elements._monomials(points, basis_degree - 1)
    partials = np.zeros((3, *values.shape))
    for partial, (columns, factors) in zip(partials, derivative_gathers(basis_degree)):
        partial[:, columns] = lower * factors.astype(float)  # d/dx_a x^e = e_a x^(e - unit_a)
    values = values.reshape(4, -1, values.shape[1])
    partials = partials.reshape(3, *values.shape)
    values.flags.writeable = partials.flags.writeable = False
    return values, partials


@lru_cache(maxsize=None)
def _moments(quad_degree, basis_degree):
    """Weighted sums over each subtet of products of the :func:`_vandermonde` monomials.

    With m the centred monomials and w the weights of the split rule,
    returns read-only (value.value (subtets, m, m), partial.partial
    (subtets, 3, 3, m, m), value.partial (subtets, 3, m, m)): the sums of
    w m_a m_b, w d_i m_a d_j m_b and w m_a d_i m_b.  Every local matrix is
    one of them contracted with the classes' coefficient tensors and cell
    maps, so the rule's points enter no class.
    """
    values, partials = _vandermonde(quad_degree, basis_degree)
    weights = alfeld_composite(quad_degree)[1].reshape(4, -1, 1)
    nm = values.shape[-1]
    weighted = (values * weights).transpose(0, 2, 1)  # (subtets, monomials, points)
    stacked = partials.transpose(1, 2, 0, 3).reshape(4, -1, 3 * nm)  # (subtets, points, 3 x monomials)
    mass = weighted @ values
    stiffness = ((stacked * weights).transpose(0, 2, 1) @ stacked).reshape(4, 3, nm, 3, nm)
    mixed = (weighted @ stacked).reshape(4, nm, 3, nm)
    out = mass, stiffness.transpose(0, 1, 3, 2, 4), mixed.transpose(0, 2, 1, 3)
    for array in out:
        array.flags.writeable = False
    return out


# point tables a class of each space kind forms, by ``ClassTables.table`` name
_KIND_TABLES = {
    "gradcurl": ("values", "curl", "grad_curl"),
    "velocity": ("values", "grad", "div"),
    "lagrange": ("values", "grad"),
    "pressure": ("values",),
}


class ClassTables:
    """Geometry and nodal coefficient tensors of one congruence class.

    Built on the geometry of the class whose first cell is ``cell_id``:
    ``points`` are the quadrature points of the class map (zero shift),
    which each cell of the class sees moved by its absolute shift, with the
    reference ``weights``, ``det`` and the inverse map ``inverse``.
    ``coefficients`` holds the element's coefficient tensors of its raw
    basis (key ``"value"``) and, for grad-curl, its curls (``"curl"``),
    centred on each piece and contracted with the nodal matrix: (nodal
    basis, subtets, components, monomials).  ``assemble`` reads only these
    and the shared :func:`_moments`.  :meth:`table` forms a point table
    (values, curl, grad_curl, grad or div) on request and keeps none: the
    tensor times the leading columns of the shared monomial tables, values
    from the values and physical Jacobians from the partials times B^{-1}.
    No exact field is read, so a class derived in its element's similarity
    orbit forms none.  ``error_factors`` caches the triangular factors of
    the modal load and error norms (:func:`_error_factors`); ``similar``
    is None for a class that builds them and a :class:`Similar` for one
    that takes those of an earlier class (:func:`_group_similar`).
    """

    def __init__(self, space, cell_id, degree):
        el = space.elements[cell_id]
        geom = space.cells_geom[cell_id]
        self.degree, self.basis_degree = degree, space.basis_degree
        self.names = _KIND_TABLES[space.kind]
        self.ref_points, self.weights = alfeld_composite(degree)
        self.points = geom.amap.apply(self.ref_points)
        self.det = geom.amap.det_f
        self.matrix, self.inverse = geom.amap.matrix_f, geom.amap.inverse_f
        self.vertex_order = geom.amap.vertex_order
        self.error_factors = None
        self.similar = None
        self.coefficients = {}
        for use, raw in el.coefficients.items():
            self.coefficients[use] = (el.nodal.T @ raw.reshape(len(raw), -1)).reshape(raw.shape)

    def table(self, name):
        """Point table ``name`` of ``names``: (nodal basis, points, *components, *partials).

        Formed from the coefficient tensor on each call and not kept.
        """
        if name not in self.names:
            raise ValueError(f"no {name} table for this space")
        monomials, partials = _vandermonde(self.degree, self.basis_degree)
        coef = self.coefficients["curl" if name in ("curl", "grad_curl") else "value"]
        if name in ("values", "curl"):
            return _tabulate(coef, monomials.transpose(0, 2, 1)[..., None])
        # (subtets, monomials, points, 3 physical partials)
        gradients = np.tensordot(partials, self.inverse, axes=(0, 0)).transpose(0, 2, 1, 3)
        grad = _tabulate(coef, gradients)
        return np.einsum("mqaa->mq", grad) if name == "div" else grad


class Similar(NamedTuple):
    """How a class ``B = Q B_first`` of one vertex order takes the error factors of ``first``.

    ``rotation`` is the signed axis permutation Q.  Nodal basis function n
    of the class is the Q-image of function ``index[n]`` of ``first``:
    ``Q (phi o Q^T)`` for values, ``det Q`` times that for curls.  Both
    classes share the reference quadrature points, so every point table
    of the class is the one of ``first`` with its components moved by Q
    and its rows gathered.
    """

    first: ClassTables
    rotation: np.ndarray
    index: np.ndarray


# Largest difference, relative to the largest coefficient, of a class's nodal
# coefficient tensors and those of a similar class carried over by Q and the
# DOF permutation.
_SIMILAR_TOL = 1e-12


def _similar(tab, first):
    """The :class:`Similar` by which ``tab`` takes the factors of ``first``, or None.

    ``B_tab B_first^-1`` has to be a signed axis permutation Q, and every
    nodal coefficient tensor of ``tab`` a permutation of the rows of those
    of ``first`` with the components moved by Q (and times det Q for
    curls), within ``_SIMILAR_TOL``.  On a Kuhn mesh the DOFs of two such
    classes correspond without sign changes; a class whose basis would need
    one builds its own factors.
    """
    rotation = np.rint(tab.matrix @ first.inverse)
    if not (
        (np.abs(rotation).sum(axis=0) == 1).all()
        and (np.abs(rotation).sum(axis=1) == 1).all()
        and np.array_equal(rotation @ first.matrix, tab.matrix)
    ):
        return None
    det = round(np.linalg.det(rotation))
    mine, moved = [], []
    for use, coef in tab.coefficients.items():
        other = first.coefficients[use]
        if other.shape[2] == 3:
            other = np.moveaxis(np.tensordot(other, rotation, axes=(2, 1)), -1, 2)  # Q v
            other = other * det if use == "curl" else other
        mine.append(coef.reshape(len(coef), -1))
        moved.append(other.reshape(len(other), -1))
    mine, moved = np.hstack(mine), np.hstack(moved)
    index = (mine @ (moved / np.linalg.norm(moved, axis=1)[:, None]).T).argmax(axis=1)
    if len(np.unique(index)) < len(index):
        return None
    if np.abs(mine - moved[index]).max() > _SIMILAR_TOL * np.abs(mine).max():
        return None
    return Similar(first, rotation, index)


def _group_similar(tables):
    """Set ``similar`` on each class table that can take the error factors of an earlier one.

    Candidates share the vertex order and the rows of B up to order and
    sign (their absolute values, sorted); the first class of each group
    builds the factors, a class :func:`_similar` to none of them starts
    a group of its own.
    """
    groups = {}
    for tab in tables:
        key = (tab.vertex_order, tuple(sorted(map(tuple, np.abs(tab.matrix)))))
        firsts = groups.setdefault(key, [])
        for first in firsts:
            tab.similar = _similar(tab, first)
            if tab.similar is not None:
                break
        else:
            firsts.append(tab)


def _tabulate(coef, basis):
    """(nodal basis, points, *components, *partials) of a coefficient tensor on ``basis``.

    ``coef`` is (nodal basis, subtets, components, monomials) and ``basis``
    (subtets, monomials, points, 1 or 3 partials).
    """
    nf, _, comps, nm = coef.shape
    basis = basis[:, :nm]
    out = coef.transpose(1, 0, 2, 3).reshape(4, -1, nm) @ basis.reshape(4, nm, -1)
    nq, nd = basis.shape[2], basis.shape[3]
    out = out.reshape(4, nf, comps, nq, nd).transpose(1, 0, 3, 2, 4)
    shape = (nf, 4 * nq) + ((comps,) if comps == 3 else ()) + ((nd,) if nd == 3 else ())
    return np.ascontiguousarray(out).reshape(shape)


def _by_point(table, nq):
    """A table (n, nq, ...) viewed as (n, nq, components); a scalar has one component."""
    return table.reshape(len(table), nq, -1)


def _chunks(space, cells, per_cell):
    """Split one congruence class into chunks of at most ``_POINT_CHUNK // per_cell`` cells.

    Yields (cell ids, their shifts, shape (cells, 3)): the vertex 0 of
    each cell, which moves the class map's points onto the cell.
    """
    shifts = space.mesh.cell_shifts[cells]
    step = max(1, _POINT_CHUNK // per_cell)
    for lo in range(0, len(cells), step):
        yield cells[lo:lo + step], shifts[lo:lo + step]


def _values(space, cells, evaluate, points):
    """An evaluator at ``points`` of a class map, moved to every cell of the class.

    Yields (cell ids, values of shape (cells, len(points), *components))
    per chunk.
    """
    for chunk, shifts in _chunks(space, cells, len(points)):
        vals = evaluate((shifts[:, None, :] + points).reshape(-1, 3))
        yield chunk, vals.reshape((len(chunk), len(points)) + vals.shape[1:])


# ---------------------------------------------------------------------------
# form assembly


def _required_degree(form, space, other):
    d = space.basis_degree
    if form in ("mass", "gradcurl_stiffness", "h1"):
        return 2 * d
    if form == "div_pressure":
        return d + other.basis_degree
    raise ValueError(f"unknown form {form!r}")


def assemble(form, space, quad_degree=None, pressure_space=None, dofs=None):
    """Assemble a bilinear form into a SparseOperator.

    Forms: ``mass`` (any space), ``gradcurl_stiffness`` (the grad-curl
    energy (grad curl u, grad curl v) + (u, v)), ``h1`` (vector gradient
    Gram), ``div_pressure`` ((div u, q) coupling; needs ``pressure_space``).
    With ``dofs`` (DOF ids of ``space``) a form on ``space`` alone gives the
    block of those rows and columns, row and column r being DOF ``dofs[r]``;
    the other DOFs' entries are never formed.
    """
    if form == "div_pressure" and (pressure_space is None or dofs is not None):
        raise ValueError("the div_pressure form needs a pressure_space and takes no dofs")
    needed = _required_degree(form, space, pressure_space)
    if quad_degree is None:
        quad_degree = max(
            needed, default_quadrature_degree(space.r, space.k, space.basis_degree)
        )
    if quad_degree < needed:
        raise ValueError(
            f"quadrature degree {quad_degree} below the exactness requirement {needed}"
        )
    start = time.perf_counter()
    row_space = pressure_space if form == "div_pressure" else space
    rows, cols = row_space.local_to_global, space.local_to_global
    shape = (row_space.dim, space.dim)
    if dofs is not None:
        label = np.full(space.dim, -1, dtype=np.int64)
        label[dofs] = np.arange(len(dofs))
        rows = cols = label[cols]
        shape = (len(dofs), len(dofs))
    mass, stiffness, mixed = _moments(quad_degree, max(space.basis_degree, row_space.basis_degree))

    locals_ = []
    class_of = np.empty(space.mesh.n_cells, dtype=np.intp)
    for c, (cells, tab, rtab) in enumerate(zip(
        space.classes, space.class_tables(quad_degree), row_space.class_tables(quad_degree)
    )):
        class_of[cells] = c
        value = tab.coefficients["value"]
        if form == "div_pressure":
            pressure = rtab.coefficients["value"]
            mp, mv = pressure.shape[-1], value.shape[-1]
            # sum_i (B^-1)_ic w m_a d_i m_b: the pressure's monomial a against the velocity's (c, b)
            div = np.tensordot(mixed[:, :, :mp, :mv], tab.inverse, axes=(1, 0)).transpose(0, 1, 3, 2)
            local = _local_matrix(pressure, div.reshape(4, mp, -1), value)
        else:
            local = 0.0 if form == "h1" else _gram(value, mass)
            if form != "mass":
                metric = tab.inverse @ tab.inverse.T  # B^-1 B^-T
                coef = tab.coefficients["curl" if form == "gradcurl_stiffness" else "value"]
                local = local + _gram(coef, np.tensordot(metric, stiffness, axes=([0, 1], [1, 2])))
        locals_.append(local * tab.det)
    stacked = np.stack(locals_)
    # the two facts that make a symmetric form's output equal its transpose
    # bit for bit (see _gram); the output itself is not compared
    if form != "div_pressure" and not (rows is cols and np.array_equal(stacked, stacked.transpose(0, 2, 1))):
        raise ArithmeticError(f"assembled {form} operator lost symmetry")
    matrix, blocks, largest = _row_blocks(rows, cols, stacked, class_of, shape)
    del rows, cols  # a relabelled copy is as large as the numbering
    _log_layer(f"assemble {form}", space, start, "moments", blocks=(blocks, largest))
    return SparseOperator(matrix)


def _local_matrix(a, moments, b):
    """One class's local matrix: the sum over subtets s of a_s M_s b_s^T, without ``det``.

    ``a`` (rows, subtets, components, monomials) and ``b`` (cols, subtets,
    ...) are coefficient tensors, ``moments`` (subtets, monomials of a,
    components x monomials of b per component of a) the moment matrices,
    contracted with the cell map where the form has derivatives.
    """
    rows, _, _, nm = a.shape
    left = a.transpose(1, 0, 2, 3).reshape(4, -1, nm) @ moments
    left = left.reshape(4, rows, -1).transpose(1, 0, 2).reshape(rows, -1)
    return left @ b.reshape(len(b), -1).T


def _gram(coef, moments):
    """:func:`_local_matrix` of a coefficient tensor against itself, on moments (subtets, m, m) per component.

    Returned exactly symmetric: with rows and columns labelled alike,
    :func:`_row_blocks` sums an entry and its mirror over the same cells in
    the same order, so the assembled matrix equals its transpose bit for
    bit, and a solver may read its CSR arrays as its CSC ones.  ``assemble``
    checks both facts.
    """
    nm = coef.shape[-1]
    local = _local_matrix(coef, moments[:, :nm, :nm], coef)
    return (local + local.T) / 2


def _row_blocks(rows, cols, local, class_of, shape):
    """CSR of every cell's local matrix at its (rows, cols): duplicates summed, zeros kept.

    ``rows`` (cells, m) and ``cols`` (cells, n) hold the global row and
    column of each cell's local DOFs, -1 for one outside ``shape``, whose
    entries are dropped; ``local`` (classes, m, n) the local matrix of each
    class and ``class_of`` the class of each cell.  The (cell, local row)
    pairs are sorted by global row once, stably, so the cells that share an
    entry add in ascending order and a symmetric form stays exactly
    symmetric, also when rows and columns are relabelled alike (a
    symmetric permutation of a block).  Runs of whole rows of about
    ``_BLOCK_TRIPLETS`` triplets at a time become rows of the result:
    their (row, column) keys sorted stably and equal keys summed, written
    into the result's arrays, which grow in place by the projected rest.
    Returns the CSR matrix, the number of blocks and the largest block's
    triplets.
    """
    n_rows, n_cols = shape
    m, n = local.shape[1:]
    total = int((rows >= 0).sum(axis=1) @ (cols >= 0).sum(axis=1))  # triplets kept
    index = np.int32 if max(n_rows, n_cols, total) < 2**31 else np.int64
    flat = rows.ravel()
    # first pair of each row in ``order``, after the dropped rows' pairs (label -1)
    starts = np.cumsum(np.bincount(flat + 1, minlength=n_rows + 1))
    order = _stable_sort(flat + 1)[1]
    step = max(1, _BLOCK_TRIPLETS // max(n, 1))  # pairs per block
    indptr = np.zeros(n_rows + 1, dtype=index)
    indices, data = np.empty(0, dtype=index), np.empty(0)
    count = done = blocks = largest = lo = 0
    while lo < n_rows:
        hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + step, side="right")) - 1)
        pairs = order[starts[lo]:starts[hi]]
        cell, i = np.divmod(pairs, m)
        columns = cols[cell]
        keys = ((flat[pairs] - lo)[:, None] * n_cols + columns).ravel()
        values = local[class_of[cell], i].ravel()
        if columns.min() < 0:  # only the blocks that meet a dropped column compress
            kept = columns.ravel() >= 0
            keys, values = keys[kept], values[kept]
        keys, position = _stable_sort(keys)
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        done += len(keys)
        end = count + len(first)
        if end > len(data):  # the rest projected at the ratio so far
            grown = end + int(1.02 * (total - done) * end / done)
            data.resize(grown, refcheck=False)
            indices.resize(grown, refcheck=False)
        np.add.reduceat(values[position], first, out=data[count:end])
        keys = keys[first]
        indices[count:end] = keys % n_cols
        indptr[lo + 1:hi + 1] = count + np.cumsum(np.bincount(keys // n_cols, minlength=hi - lo))
        blocks, largest = blocks + 1, max(largest, len(position))
        count, lo = end, hi
    data.resize(count, refcheck=False)
    indices.resize(count, refcheck=False)
    matrix = sp.csr_matrix((data, indices, indptr), shape=shape)
    matrix.has_canonical_format = True  # each row's columns ascend, once each
    return matrix, blocks, largest


def _stable_sort(keys):
    """(sorted keys, their old positions) of non-negative int64 ``keys``, equal keys kept in order.

    Each key carries its position in its low bits, so one sort of unique
    values orders both.  OverflowError if a key does not leave room for
    them in int64.
    """
    shift = len(keys).bit_length()
    if len(keys) and int(keys.max()) >= 1 << (63 - shift):
        raise OverflowError("sort keys leave no room for their positions in int64")
    packed = keys << shift
    packed |= np.arange(len(keys))
    packed.sort()
    position = packed & ((1 << shift) - 1)
    packed >>= shift
    return packed, position


def assemble_load(space, sample, quad_degree):
    """Load vector (f, v) over the nodal basis of ``space``.

    With ``sample.modes`` the load shares the error norms' kernel: per
    class, with W the root weights, P the templates and T one component of
    the basis table, W P^T = Q1 R11 and W T^T = Q1 R12 + Q2 R22, so a cell's
    load T W^2 P^T c is R12^T (R11 c).  R12 of the values table comes from
    ``_error_factors`` and R11 c, per group of cells of one x shift, from
    ``_modal_groups``.  Otherwise the class forms its basis table once, and
    per chunk the weighted sample values times that table are the local
    loads.
    """
    start = time.perf_counter()
    modes = sample.modes
    out = np.zeros(space.dim)
    status = Counter()
    for cells, tab in zip(space.classes, space.class_tables(quad_degree)):
        if modes is not None:
            r11, factors, outcome = _error_factors(tab, modes)
            status[outcome] += 1
            r12 = factors["values"][0]
            parts = (
                (dofs, y.reshape(len(dofs), -1) @ r12.T)
                for dofs, (y,) in _modal_groups(space, cells, tab, modes, r11, ["value"])
            )
        else:
            basis = _by_point(tab.table("values"), len(tab.weights))
            weighted = (basis * tab.weights[:, None]).reshape(len(basis), -1).T
            parts = (
                (space.local_to_global[chunk], fv.reshape(len(chunk), -1) @ weighted)
                for chunk, fv in _values(space, cells, sample.value, tab.points)
            )
        for dofs, local in parts:
            local *= tab.det
            np.add.at(out, dofs, local)
    _log_layer(f"load {space.kind}", space, start, *_sample_path(sample), status)
    return out


# ---------------------------------------------------------------------------
# discrete differential operators


# relative disagreement of two cells' values of one shared discrete_d entry
_SHARED_ENTRY_TOL = 1e-9


def discrete_d(which, source, target):
    """Matrix of grad/curl/div from source-space coefficients to target DOFs.

    Entry (i, j) applies target DOF i to the derivative of the j-th source
    nodal basis function.  Every cell sharing the entry computes it, and
    conformity makes those values agree: the matrix keeps one of them, and
    ArithmeticError is raised if any other differs from it by more than
    ``_SHARED_ENTRY_TOL`` relative.  The derivatives are exact, on the
    source element's integer numerators, and rounded once into the
    coefficient tensor that the target's functionals read.
    """
    start = time.perf_counter()
    op = {"grad": phys_grad, "curl": phys_curl, "div": phys_div}[which]
    tensor = _elements._coefficients
    rows, cols, vals = [], [], []
    for cells in source.classes:
        geom = source.cells_geom[cells[0]]
        el_s, el_t = source.elements[cells[0]], target.elements[cells[0]]
        images = op(geom, el_s.numerators["value"])
        degree = images.degree
        curls = tensor(phys_curl(geom, images), degree) if target.kind == "gradcurl" else None
        local = dof_matrix(el_t.dofs, tensor(images, degree), curls) @ el_s.nodal
        li, lj = np.nonzero(local)
        rows.append(target.local_to_global[cells][:, li].ravel())
        cols.append(source.local_to_global[cells][:, lj].ravel())
        vals.append(np.tile(local[li, lj], len(cells)))
    vals = np.concatenate(vals)
    keys = np.concatenate(rows) * source.dim + np.concatenate(cols)
    keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    kept = vals[first]
    bad = np.abs(vals - kept[inverse]) > _SHARED_ENTRY_TOL * np.maximum(1.0, np.abs(vals))
    if bad.any():
        key = divmod(int(keys[inverse[np.argmax(bad)]]), source.dim)
        raise ArithmeticError(f"inconsistent shared DOF value for {which} at {key}")
    matrix = sp.coo_matrix(
        (kept, (keys // source.dim, keys % source.dim)), shape=(target.dim, source.dim)
    ).tocsr()
    _log_layer(f"discrete {which}", source, start, "numerators")
    return SparseOperator(matrix)


# ---------------------------------------------------------------------------
# error norms


# (table attribute, sample evaluator) of each error_norms entry
_NORMS = (("values", "value"), ("curl", "curl"), ("grad_curl", "grad_curl"), ("grad", "jacobian"))


def error_norms(space, coeffs, exact, quad_degree=None):
    """(L2, curl-, grad-curl-, H1-seminorm) of exact - represented field.

    A seminorm reads 0 where the space has no table for it or ``exact``
    has no evaluator: the curl and grad-curl seminorms need a grad-curl
    space, the H1 seminorm (the Jacobian's L2 norm) a velocity space and
    ``exact.jacobian``.

    With ``exact.modes`` no field is formed at the points: a cell's
    squared error is its weighted pointwise difference rotated by
    triangular factors built once per group of similar class tables
    (``_error_factors``), never the cancelling |u|^2 - 2 (u, u_h) +
    |u_h|^2.  Without modes, per
    class and quantity the point table is formed once, and per chunk the
    represented values are one matrix product of the cells' coefficients
    with it, less the evaluated field.
    """
    if quad_degree is None:
        quad_degree = default_quadrature_degree(space.r, space.k, space.basis_degree)
    start = time.perf_counter()
    modes = exact.modes
    acc = np.zeros(len(_NORMS))
    coeffs = np.asarray(coeffs)
    status = Counter()
    for cells, tab in zip(space.classes, space.class_tables(quad_degree)):
        used = [
            (i, table, name)
            for i, (table, name) in enumerate(_NORMS)
            if table in tab.names and getattr(exact, name) is not None
        ]
        if not used:
            continue
        if modes is not None:
            squared, outcome = _modal_squared_errors(space, cells, tab, coeffs, modes, used)
            acc += tab.det * squared
            status[outcome] += 1
            continue
        for i, table, name in used:
            flat = tab.table(table)
            flat = flat.reshape(len(flat), -1)
            w = np.repeat(tab.weights, flat.shape[1] // len(tab.weights))
            for chunk, vals in _values(space, cells, getattr(exact, name), tab.points):
                err = coeffs[space.local_to_global[chunk]] @ flat
                err -= vals.reshape(err.shape)
                err *= err
                acc[i] += tab.det * float((err @ w).sum())
    _log_layer(f"error norms {space.kind}", space, start, *_sample_path(exact), status)
    return tuple(np.sqrt(np.maximum(acc, 0.0)))


def _error_factors(tab, modes):
    """Factors R11 and (R12, R22) of every norm table of one class, for the modal load and error norms.

    With W the root weights, P the templates, T one component's basis
    table, the Householder QR of W [P^T | T^T] is taken blockwise:
    Q1 R11 = W P^T, R12 = Q1^T W T^T per component, and one R22 per table
    from the QR of the remainders W T^T - Q1 R12 of all its components
    stacked, as the sum over components of |R22_c a|^2 is the |R22 a|^2 of
    the stack.  None of it depends on the field: the translation templates
    depend on the points only.  The first call on a group of similar
    classes builds the factors of all of its tables that ``_NORMS`` names,
    on its first class and one QR of the templates; ``error_factors``
    keeps R11 and each table's (R12, R22), not Q1 or the tables.  A class
    with a ``similar`` class takes that class's factors, built there if
    missing, with the rows of R12 and R22 gathered by the DOF permutation.
    Returns R11, the (R12, R22) by table name, and whether the class built
    the factors (``"built"``), took them (``"shared"``) or had them (None).
    """
    if tab.error_factors is not None:
        return (*tab.error_factors, None)
    first = tab if tab.similar is None else tab.similar.first
    status = "shared" if first.error_factors is not None else "built"
    if first.error_factors is None:
        root = np.sqrt(first.weights)
        q1, r11 = np.linalg.qr(root[:, None] * modes.template(first.points).T)
        factors = {}
        for table in [table for table, _ in _NORMS if table in first.names]:
            values = first.table(table)
            n = len(values)
            # (points, components x basis): the rows of the stacked remainder come in any order
            weighted = _by_point(values, len(root)).transpose(1, 2, 0).reshape(len(root), -1) * root[:, None]
            r12 = q1.T @ weighted
            r22 = np.linalg.qr((weighted - q1 @ r12).reshape(-1, n), mode="r")
            factors[table] = r12.reshape(len(r12), -1, n).T.reshape(n, -1), r22.T
        first.error_factors = r11, factors
    if tab is not first:
        r11, factors = first.error_factors
        index = tab.similar.index
        tab.error_factors = r11, {table: (r12[index], r22[index]) for table, (r12, r22) in factors.items()}
    return (*tab.error_factors, status)


def _modal_groups(space, cells, tab, modes, r11, names):
    """R11 c of ``names`` for the cells of one class, a group of one x shift at a time.

    R11 c is ``modes.folded``: the x shift of each cell enters the R11
    product, and the cells are taken in groups of one x shift, so that a
    group's products stay in cache while they are used.  A class that
    took the factors of a similar class ``B = Q B_first`` evaluates there:
    its cells' fields pulled back by Q and their shifts by Q^T, so that
    the first class's points and factors serve.  Yields, per group, the
    global DOF ids of its cells and the products of each name, as
    (cells x components, modes).
    """
    rotation = None if tab.similar is None else tab.similar.rotation
    if rotation is not None:
        modes = modes.pulled_back(rotation)
    for chunk, shifts in _chunks(space, cells, modes.count):
        if rotation is not None:
            shifts = shifts @ rotation  # Q^T t
        for group, products in modes.folded(r11, shifts, names):
            yield space.local_to_global[chunk[group]], products


def _modal_squared_errors(space, cells, tab, coeffs, modes, used):
    """Squared errors (without the cell volume factor) of one class, from modes.

    With c a cell's mode and a its basis coefficients, |W (P^T c - T^T a)|^2
    = |R11 c - R12 a|^2 + |R22 a|^2 in the factors of ``_error_factors``,
    with the pointwise difference's rounding; R11 c comes from
    ``_modal_groups``, and each group's coefficients are gathered and its
    differences summed while they are in cache.  Returns the squared
    errors and the factor status of ``_error_factors``.
    """
    r11, factors, status = _error_factors(tab, modes)
    out = np.zeros(len(_NORMS))
    for dofs, products in _modal_groups(space, cells, tab, modes, r11, [name for _, _, name in used]):
        local = coeffs[dofs]
        for (i, table, _), y in zip(used, products):
            r12, r22 = factors[table]
            y -= (local @ r12).reshape(y.shape)
            z = local @ r22
            out[i] += np.vdot(y, y) + np.vdot(z, z)
    return out, status


def divergence_norm(space, coeffs, quad_degree=None):
    """L2 norm of the divergence of a represented velocity field."""
    if space.kind != "velocity":
        raise ValueError(f"divergence norm needs a velocity space, not {space.kind}")
    if quad_degree is None:
        quad_degree = default_quadrature_degree(space.r, space.k, space.basis_degree)
    total = 0.0
    coeffs = np.asarray(coeffs)
    for cells, tab in zip(space.classes, space.class_tables(quad_degree)):
        div = tab.table("div")
        for chunk, _ in _chunks(space, cells, len(tab.weights)):
            dh = coeffs[space.local_to_global[chunk]] @ div
            total += tab.det * float(np.einsum("cq,q->", dh**2, tab.weights))
    return float(np.sqrt(max(total, 0.0)))
