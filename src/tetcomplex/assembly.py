"""Global spaces, assembled operators, interpolation, and error norms.

Global DOFs are blocked by entity (vertices, edges, faces, cells); every
cell incident to an entity addresses the identical functional, so the
local-to-global map carries indices only.  Cells in one congruence class
share the local element construction and all local matrices; only
translations (and hence physical quadrature points) differ per cell.

Per class everything float is a dense product:

- ``ClassTables`` reads the element's exact raw-basis (and curl)
  coefficients into one float tensor, contracts it with the nodal matrix
  and multiplies by monomial Vandermonde tables (values and first
  partials) that one quadrature degree and basis degree share across
  classes, spaces and levels;
- ``assemble`` computes each class's local matrix once, as
  ``(A w) @ B^T``, turns it into one CSR matrix of the class's cells and
  merges the classes on the union of their patterns, so explicit zeros
  stay and no global triplet array exists;
- the load contracts a sample's mode templates with the weighted basis
  table once per class, and the error norms reduce templates and tables
  to small triangular factors that the class tables keep for every later
  call (see ``FieldSample`` for ``modes``).

Interpolation evaluates the sample at the class's DOF stencil points,
which are reference points mapped by each cell's affine map.
Every layer logs one ``tetcomplex.assembly`` DEBUG record with its
classes, cells, path (vandermonde, tables, modal or pointwise), mode
count and seconds; a space logs one record when it is built, with how
many of its elements were built, derived or found in the element cache.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass
from functools import lru_cache

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
from .quadrature import alfeld_composite

_log = logging.getLogger("tetcomplex.assembly")


def default_quadrature_degree(r, k, basis_degree=None):
    base = 2 * max(r, k + 1) + 2
    if basis_degree is not None:
        base = max(base, 2 * basis_degree)
    return base


# Largest number of points (or mode coefficients) per cell times cells that
# one chunk of a class evaluates at once (bounds memory).
_POINT_CHUNK = 200_000


def _log_layer(layer, space, start, path, modes=0, factors=None):
    """One DEBUG record of a layer over all classes of ``space``, begun at ``start``.

    ``path`` names how the layer evaluated (class tables, the Vandermonde
    table build, modal or pointwise samples), ``factors`` whether the error
    norms built or reused their per-class factors.
    """
    if not _log.isEnabledFor(logging.DEBUG):
        return
    fields = {
        "layer": layer,
        "classes": len(space.classes),
        "cells": space.mesh.n_cells,
        "path": path,
        "modes": modes,
        "factors": factors,
        "seconds": time.perf_counter() - start,
    }
    _log.debug(
        "%(layer)s: %(classes)d classes, %(cells)d cells, %(path)s path, "
        "%(modes)d modes, %(seconds).3f s" + ("" if factors is None else ", factors %(factors)s"),
        fields, extra=fields,
    )


def _sample_path(sample):
    """(path, mode count) of a load or error-norm sample."""
    return ("pointwise", 0) if sample.modes is None else ("modal", sample.modes.count)


class GlobalSpace:
    """Entity-blocked global numbering of one space kind on a mesh.

    Geometry and local element exist once per congruence class, keyed by
    the class's first cell id; every cell's DOF numbering is gathered from
    the mesh's connectivity arrays.
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
        self.cells_geom = {int(c[0]): CellGeometry(mesh, int(c[0])) for c in self.classes}
        before = _elements._element_cache.counts()
        self.elements = {ci: local_element(kind, r, k, g) for ci, g in self.cells_geom.items()}
        built, derived, hits = (
            b - a for a, b in zip(before, _elements._element_cache.counts())
        )
        self.local_to_global = self._numbering()
        self._tables = {}
        boundary = {
            "vertex": mesh.vertex_boundary,
            "edge": mesh.edge_boundary,
            "face": mesh.face_boundary,
            "cell": np.zeros(nc, dtype=bool),
        }
        self.boundary_mask = np.concatenate(
            [np.repeat(flags, counts[e]) for e, flags in boundary.items()]
        )
        self.basis_degree = max(b.degree for el in self.elements.values() for b in el.basis)
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

    # -- per-congruence-class evaluation --------------------------------

    def class_tables(self, degree):
        """ClassTables of each of ``classes`` at one quadrature degree, built once."""
        tables = self._tables.get(degree)
        if tables is None:
            start = time.perf_counter()
            tables = [ClassTables(self, cells[0], degree) for cells in self.classes]
            self._tables[degree] = tables
            _log_layer(f"class tables {self.kind} degree {degree}", self, start, "vandermonde")
        return tables

    def interpolate(self, sample, quad):
        """Global coefficient vector of the canonical interpolant.

        A class's element holds its DOF stencils in reference coordinates,
        the same for every cell of the class.  Per class and stencil use
        their points are mapped once by the first cell's affine map, and
        one evaluation at those points moved by each cell's translation
        covers all of its cells.  The sample's point evaluators run at the
        moved points even when it has ``modes``: a stencil has few points,
        and the mode coefficients per cell cost more than evaluating there.
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
    """CSR matrix with provenance and a symmetry flag."""

    matrix: sp.csr_matrix
    row_space: GlobalSpace
    col_space: GlobalSpace
    symmetric: bool = False

    @property
    def shape(self):
        return self.matrix.shape

    def check_symmetry(self, tol=1e-13):
        d = self.matrix - self.matrix.T
        scale = max(1.0, abs(self.matrix).max())
        return abs(d).max() <= tol * scale

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
    """Monomials up to ``basis_degree`` at the points of ``alfeld_composite(quad_degree)``.

    Returns the column of each exponent tuple, the values (subtets, points,
    monomials) and the first partials (3, subtets, points, monomials), the
    points in the rule's four subtet blocks.  Read-only: every class, space
    and level at these degrees shares them.
    """
    points = alfeld_composite(quad_degree)[0]
    exps = np.array(
        [e for e in itertools.product(range(basis_degree + 1), repeat=3) if sum(e) <= basis_degree]
    )
    powers = points[:, :, None] ** np.arange(basis_degree + 1)  # (points, axis, power)
    cols = [powers[:, i, exps[:, i]] for i in range(3)]
    lowered = [exps[:, i] * powers[:, i, np.maximum(exps[:, i] - 1, 0)] for i in range(3)]
    values = cols[0] * cols[1] * cols[2]
    partials = np.stack([
        lowered[0] * cols[1] * cols[2],
        cols[0] * lowered[1] * cols[2],
        cols[0] * cols[1] * lowered[2],
    ])
    values = values.reshape(4, -1, len(exps))
    partials = partials.reshape(3, 4, -1, len(exps))
    values.flags.writeable = partials.flags.writeable = False
    return {tuple(e): i for i, e in enumerate(exps.tolist())}, values, partials


class ClassTables:
    """Float tables of one congruence class at split-rule points.

    Built on the class's cell ``cell_id``: ``points`` are that cell's
    physical quadrature points, which the other cells of the class see
    moved by their translation.  Each table is the class's exact raw-basis
    coefficients, contracted with the nodal matrix, times the shared
    monomial tables of ``_vandermonde``: values from the values, physical
    Jacobians (a scalar field's gradient) from the partials times B^{-1}.
    ``error_factors`` caches the factors of ``_modal_squared_errors``.
    """

    def __init__(self, space, cell_id, degree):
        el = space.elements[cell_id]
        geom = space.cells_geom[cell_id]
        self.ref_points, self.weights = alfeld_composite(degree)
        self.points = geom.amap.apply(self.ref_points)
        self.det = geom.amap.det_f
        self.error_factors = {}
        columns, monomials, partials = _vandermonde(degree, space.basis_degree)
        # (subtets, monomials, points, 1 or 3 physical partials)
        monomials = monomials.transpose(0, 2, 1)[..., None]
        gradients = np.tensordot(partials, geom.amap.inverse_f, axes=(0, 0)).transpose(0, 2, 1, 3)

        def nodal(fields):
            """Coefficient tensor (nodal basis, subtets, components, monomials) of raw fields."""
            coef = _elements._coefficients(fields, columns)
            nf, _, comps, nm = coef.shape
            return (el.nodal.T @ coef.reshape(nf, -1)).reshape(nf, 4, comps, nm)

        def table(coef, basis):
            """(nodal basis, points, *components, *partials) of coefficients on ``basis``."""
            nf, _, comps, nm = coef.shape
            out = coef.transpose(1, 0, 2, 3).reshape(4, -1, nm) @ basis.reshape(4, nm, -1)
            nq, nd = basis.shape[2], basis.shape[3]
            out = out.reshape(4, nf, comps, nq, nd).transpose(1, 0, 3, 2, 4)
            shape = (nf, 4 * nq) + ((comps,) if comps == 3 else ()) + ((nd,) if nd == 3 else ())
            return np.ascontiguousarray(out).reshape(shape)

        basis = nodal(el.basis)
        self.values = table(basis, monomials)
        self.curl = self.grad_curl = self.grad = self.div = None
        if space.kind == "gradcurl":
            curls = nodal(el.curls or [phys_curl(geom, b) for b in el.basis])
            self.curl = table(curls, monomials)
            self.grad_curl = table(curls, gradients)
        elif space.kind in ("velocity", "lagrange"):
            self.grad = table(basis, gradients)
        if space.kind == "velocity":
            self.div = np.einsum("mqaa->mq", self.grad)


def _by_point(table, nq):
    """A table (n, nq, ...) viewed as (n, nq, components); a scalar has one component."""
    return table.reshape(len(table), nq, -1)


def _chunks(space, cells, per_cell):
    """Split one congruence class into chunks of at most ``_POINT_CHUNK // per_cell`` cells.

    Yields (cell ids, their translations from the class's first cell,
    shape (cells, 3)).
    """
    shifts = space.mesh.cell_shifts[cells] - space.mesh.cell_shifts[cells[0]]
    step = max(1, _POINT_CHUNK // per_cell)
    for lo in range(0, len(cells), step):
        yield cells[lo:lo + step], shifts[lo:lo + step]


def _values(space, cells, evaluate, points):
    """An evaluator at ``points`` of a class's first cell, moved to every cell.

    Yields (cell ids, values of shape (cells, len(points), *components))
    per chunk.
    """
    for chunk, shifts in _chunks(space, cells, len(points)):
        vals = evaluate((shifts[:, None, :] + points).reshape(-1, 3))
        yield chunk, vals.reshape((len(chunk), len(points)) + vals.shape[1:])


# ---------------------------------------------------------------------------
# form assembly


def _required_degree(form, space, other=None):
    d = space.basis_degree
    if form == "mass":
        return 2 * d
    if form == "gradcurl_stiffness":
        return 2 * d
    if form == "h1":
        return 2 * d
    if form == "div_pressure":
        return d + (other.basis_degree if other else 0)
    raise ValueError(f"unknown form {form!r}")


def assemble(form, space, quad_degree=None, pressure_space=None):
    """Assemble a bilinear form into a SparseOperator.

    Forms: ``mass`` (any space), ``gradcurl_stiffness`` (the grad-curl
    energy (grad curl u, grad curl v) + (u, v)), ``h1`` (vector gradient
    Gram), ``div_pressure`` ((div u, q) coupling; needs ``pressure_space``).
    """
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
    shape = (row_space.dim, space.dim)

    def parts():
        for cells, tab, rtab in zip(
            space.classes, space.class_tables(quad_degree), row_space.class_tables(quad_degree)
        ):
            if form == "mass":
                pairs = ((tab.values, tab.values),)
            elif form == "gradcurl_stiffness":
                pairs = ((tab.grad_curl, tab.grad_curl), (tab.values, tab.values))
            elif form == "h1":
                pairs = ((tab.grad, tab.grad),)
            else:
                pairs = ((rtab.values, tab.div),)
            w = tab.weights
            local = sum(
                (_by_point(a, len(w)) * w[:, None]).reshape(len(a), -1)
                @ b.reshape(len(b), -1).T
                for a, b in pairs
            ) * tab.det
            yield _class_matrix(
                row_space.local_to_global[cells], space.local_to_global[cells], local, shape
            )

    matrix = _merge(parts())
    sym = form in ("mass", "gradcurl_stiffness", "h1")
    op = SparseOperator(matrix, row_space, space, sym)
    if sym and not op.check_symmetry():
        raise ArithmeticError(f"assembled {form} operator lost symmetry")
    _log_layer(f"assemble {form}", space, start, "tables")
    return op


def _class_matrix(rows, cols, local, shape):
    """CSR of one class: ``local`` at every cell's (rows, cols), repeats summed, zeros kept."""
    index = np.int32 if max(shape) < 2**31 else np.int64
    full = (len(rows),) + local.shape
    return sp.coo_matrix(
        (
            np.broadcast_to(local, full).ravel(),
            (np.broadcast_to(rows.astype(index)[:, :, None], full).ravel(),
             np.broadcast_to(cols.astype(index)[:, None, :], full).ravel()),
        ),
        shape=shape,
    ).tocsr()


def _merge(parts):
    """Sum of canonical CSR matrices on the union of their patterns.

    A sum of the values drops every entry that is zero, from a cancellation
    or as an explicit zero of one part.  So the union of the patterns is
    summed beside it with boolean data, which never vanishes; at the end
    the entries the value sum kept are marked in the union by one more
    merge, and the rest of it holds zeros.  Every step is a linear merge
    of sorted rows, one part at a time.
    """
    pattern = total = None
    for part in parts:
        if total is None:
            pattern, total = _ones(part, bool), part
            continue
        pattern = pattern + _ones(part, bool)
        total = total + part
    if total.nnz == pattern.nnz:
        return total
    kept = (_ones(pattern, np.int8) + _ones(total, np.int8)).data == 2
    data = np.zeros(pattern.nnz)
    data[kept] = total.data
    return sp.csr_matrix((data, pattern.indices, pattern.indptr), shape=pattern.shape)


def _ones(matrix, dtype):
    """The pattern of a CSR matrix with unit data of ``dtype``."""
    return sp.csr_matrix(
        (np.ones(matrix.nnz, dtype), matrix.indices, matrix.indptr), shape=matrix.shape
    )


def assemble_load(space, sample, quad_degree):
    """Load vector (f, v) over the nodal basis of ``space``.

    With ``sample.modes``, per class the templates are contracted with the
    weighted basis table once, into (components x modes, basis), and per
    chunk the cells' mode coefficients times that matrix are the local
    loads.  Otherwise per chunk the weighted sample values times the basis
    table are.
    """
    start = time.perf_counter()
    modes = sample.modes
    out = np.zeros(space.dim)
    for cells, tab in zip(space.classes, space.class_tables(quad_degree)):
        basis = _by_point(tab.values, len(tab.weights))
        if modes is not None:
            load = (modes.template(tab.points) * tab.weights) @ basis.transpose(2, 1, 0)
            load = load.reshape(-1, len(basis))  # (components x modes, basis)
            parts = (
                (chunk, modes.coefficients("value", shifts).reshape(len(chunk), -1) @ load)
                for chunk, shifts in _chunks(space, cells, modes.count)
            )
        else:
            weighted = (basis * tab.weights[:, None]).reshape(len(basis), -1).T
            parts = (
                (chunk, fv.reshape(len(chunk), -1) @ weighted)
                for chunk, fv in _values(space, cells, sample.value, tab.points)
            )
        for chunk, local in parts:
            local *= tab.det
            np.add.at(out, space.local_to_global[chunk], local)
    _log_layer(f"load {space.kind}", space, start, *_sample_path(sample))
    return out


# ---------------------------------------------------------------------------
# discrete differential operators


def discrete_d(which, source, target, check_consistency=False, tol=1e-9):
    """Matrix of grad/curl/div from source-space coefficients to target DOFs.

    Entry (i, j) applies target DOF i to the derivative of the j-th source
    nodal basis function.  Every cell sharing the entry computes it, and
    conformity makes those values agree: the matrix keeps one of them, and
    ``check_consistency`` verifies that the others match it.
    """
    op = {"grad": phys_grad, "curl": phys_curl, "div": phys_div}[which]
    rows, cols, vals = [], [], []
    for cells in source.classes:
        geom = source.cells_geom[cells[0]]
        el_s, el_t = source.elements[cells[0]], target.elements[cells[0]]
        local = dof_matrix(el_t.dofs, [op(geom, b) for b in el_s.basis], geom) @ el_s.nodal
        li, lj = np.nonzero(local)
        rows.append(target.local_to_global[cells][:, li].ravel())
        cols.append(source.local_to_global[cells][:, lj].ravel())
        vals.append(np.tile(local[li, lj], len(cells)))
    vals = np.concatenate(vals)
    keys = np.concatenate(rows) * source.dim + np.concatenate(cols)
    keys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    kept = vals[first]
    if check_consistency:
        bad = np.abs(vals - kept[inverse]) > tol * np.maximum(1.0, np.abs(vals))
        if bad.any():
            key = divmod(int(keys[inverse[np.argmax(bad)]]), source.dim)
            raise ArithmeticError(f"inconsistent shared DOF value for {which} at {key}")
    matrix = sp.coo_matrix(
        (kept, (keys // source.dim, keys % source.dim)), shape=(target.dim, source.dim)
    ).tocsr()
    return SparseOperator(matrix, target, source)


# ---------------------------------------------------------------------------
# boundary restriction


def restrict_operator(op: SparseOperator, row_mask=None, col_mask=None):
    """Drop masked rows/columns (True in the mask = boundary = removed)."""
    m = op.matrix
    if row_mask is not None:
        m = m[~row_mask, :]
    if col_mask is not None:
        m = m[:, ~col_mask]
    return m.tocsr()


def restrict_vector(vec, mask):
    return np.asarray(vec)[~mask]


def extend_vector(vec, mask):
    out = np.zeros(len(mask))
    out[~mask] = vec
    return out


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
    triangular factors built once per class table (``_error_factors``),
    never the cancelling |u|^2 - 2 (u, u_h) + |u_h|^2.  Without modes, per
    chunk and quantity the represented values are one matrix product of
    the cells' coefficients with the table, less the evaluated field.
    """
    if quad_degree is None:
        quad_degree = default_quadrature_degree(space.r, space.k, space.basis_degree)
    start = time.perf_counter()
    modes = exact.modes
    acc = np.zeros(len(_NORMS))
    coeffs = np.asarray(coeffs)
    built = False
    for cells, tab in zip(space.classes, space.class_tables(quad_degree)):
        used = [
            (i, table, name)
            for i, (table, name) in enumerate(_NORMS)
            if getattr(tab, table) is not None and getattr(exact, name) is not None
        ]
        if not used:
            continue
        if modes is not None:
            squared, fresh = _modal_squared_errors(space, cells, tab, coeffs, modes, used)
            acc += tab.det * squared
            built |= fresh
            continue
        for i, table, name in used:
            flat = getattr(tab, table).reshape(len(tab.values), -1)
            w = np.repeat(tab.weights, flat.shape[1] // len(tab.weights))
            for chunk, vals in _values(space, cells, getattr(exact, name), tab.points):
                err = coeffs[space.local_to_global[chunk]] @ flat
                err -= vals.reshape(err.shape)
                err *= err
                acc[i] += tab.det * float((err @ w).sum())
    _log_layer(
        f"error norms {space.kind}", space, start, *_sample_path(exact),
        factors=None if modes is None else "built" if built else "reused",
    )
    return tuple(np.sqrt(np.maximum(acc, 0.0)))


def _error_factors(tab, modes, table):
    """Factors (R11, R12, R22) of one class table for ``_modal_squared_errors``.

    With W the root weights, P the templates, T one component's basis
    table, the Householder QR of W [P^T | T^T] is taken blockwise:
    Q1 R11 = W P^T, R12 = Q1^T W T^T per component and R22 from the QR of
    the remainder W T^T - Q1 R12.  None of it depends on the field: the
    translation templates depend on the points only, so (Q1, R11) is built
    once per class table and (R12, R22) once per table, and both are kept
    in ``tab.error_factors``.  Returns the factors and whether they were
    built.
    """
    cache = tab.error_factors
    if table in cache:
        return (cache["template"][1], *cache[table]), False
    root = np.sqrt(tab.weights)
    if "template" not in cache:
        cache["template"] = np.linalg.qr(root[:, None] * modes.template(tab.points).T)
    q1, r11 = cache["template"]
    values = getattr(tab, table)
    weighted = _by_point(values, len(root)).transpose(2, 1, 0) * root[:, None]
    r12 = q1.T @ weighted  # (components, modes, basis)
    r22 = np.linalg.qr(weighted - q1 @ r12, mode="r")
    n = len(values)
    cache[table] = r12.reshape(-1, n).T, r22.reshape(-1, n).T
    return (r11, *cache[table]), True


def _modal_squared_errors(space, cells, tab, coeffs, modes, used):
    """Squared errors (without the cell volume factor) of one class, from modes.

    With c a cell's mode and a its basis coefficients, |W (P^T c - T^T a)|^2
    = |R11 c - R12 a|^2 + |R22 a|^2 in the factors of ``_error_factors``,
    with the pointwise difference's rounding.  Returns the squared errors
    and whether any factor was built.
    """
    factors = [(i, name, *_error_factors(tab, modes, table)) for i, table, name in used]
    out = np.zeros(len(_NORMS))
    for chunk, shifts in _chunks(space, cells, modes.count):
        local = coeffs[space.local_to_global[chunk]]
        moved = modes.shifted(shifts)
        for i, name, (r11, r12, r22), _ in factors:
            y = moved(name).reshape(-1, modes.count) @ r11.T
            y -= (local @ r12).reshape(y.shape)
            z = local @ r22
            out[i] += np.vdot(y, y) + np.vdot(z, z)
    return out, any(fresh for *_, fresh in factors)


def divergence_norm(space, coeffs, quad_degree=None):
    """L2 norm of the divergence of a represented velocity field."""
    assert space.kind == "velocity"
    if quad_degree is None:
        quad_degree = default_quadrature_degree(space.r, space.k, space.basis_degree)
    total = 0.0
    coeffs = np.asarray(coeffs)
    for cells, tab in zip(space.classes, space.class_tables(quad_degree)):
        for chunk, _ in _chunks(space, cells, len(tab.weights)):
            dh = coeffs[space.local_to_global[chunk]] @ tab.div
            total += tab.det * float(np.einsum("cq,q->", dh**2, tab.weights))
    return float(np.sqrt(max(total, 0.0)))
