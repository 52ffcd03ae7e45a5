"""Tetrahedral meshes of the unit cube with globally oriented entities.

The structured mesh partitions the cube into N^3 subcubes, each split into
six tetrahedra sharing the subcube diagonal (Kuhn subdivision), which is
conforming across subcubes.  Exact coordinates are an int64 lattice over
one common denominator.  Entities (edges, faces) are rows of ascending
global vertex ids, so every cell incident to an entity sees the same
tangent/frame data.  The mesh partitions its cells into congruence
classes and holds one exact affine map per class, with positive
determinant, as integer rows over one denominator; a cell's map is its
class map moved by the cell's shift.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

_log = logging.getLogger("tetcomplex.mesh")

REF_EDGE_VERTICES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
REF_FACE_VERTICES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _adj3(m):
    """The adjugate of a 3x3 matrix: ``det(m)`` times its inverse."""
    return [
        [m[1][1] * m[2][2] - m[1][2] * m[2][1], m[0][2] * m[2][1] - m[0][1] * m[2][2], m[0][1] * m[1][2] - m[0][2] * m[1][1]],
        [m[1][2] * m[2][0] - m[1][0] * m[2][2], m[0][0] * m[2][2] - m[0][2] * m[2][0], m[0][2] * m[1][0] - m[0][0] * m[1][2]],
        [m[1][0] * m[2][1] - m[1][1] * m[2][0], m[0][1] * m[2][0] - m[0][0] * m[2][1], m[0][0] * m[1][1] - m[0][1] * m[1][0]],
    ]


# Largest lattice entry: cell determinants, sums of six triple products of
# coordinate differences (at most 2**20 each), then stay inside int64.
LATTICE_BOUND = 2**19
_INT64_MAX = np.iinfo(np.int64).max


def _rounded(nums, den):
    """Integer numerators over a positive ``den`` as float64, each exact quotient rounded once."""
    return (np.array(nums, dtype=object) / den).astype(float)


@dataclass
class AffineMap:
    """x = B xhat + b mapping the reference tet onto a cell, det B > 0.

    ``B = rows / den``: integer rows over the least positive denominator,
    to which the construction reduces any integer rows and denominator
    given, so equal matrices have equal ``(rows, den)``.  ``b = shift /
    shift_den``.  ``det`` is the integer numerator of ``det B = det /
    den^3`` and ``adjugate`` that of ``rows``, so ``B^-1 = den adjugate /
    det``.  The floats ``matrix_f``, ``inverse_f``, ``det_f`` and
    ``shift_f`` are these rationals, each rounded once.
    """

    rows: tuple  # 3x3 ints
    den: int
    vertex_order: tuple  # cell vertex slots (into the sorted tuple) hit by ref vertices
    shift: tuple = (0, 0, 0)  # 3 ints over shift_den
    shift_den: int = 1

    def __post_init__(self):
        g = math.gcd(self.den, *(v for row in self.rows for v in row))
        self.rows = tuple(tuple(v // g for v in row) for row in self.rows)
        self.den //= g
        self.det = _det3(self.rows)
        if self.det <= 0:
            raise ValueError(f"affine map determinant {self.det}/{self.den**3} is not positive")
        self.adjugate = _adj3(self.rows)
        self.matrix_f = _rounded(self.rows, self.den)
        self.inverse_f = _rounded([[self.den * v for v in row] for row in self.adjugate], self.det)
        self.shift_f = _rounded(self.shift, self.shift_den)
        self.det_f = self.det / self.den**3

    def apply(self, ref_points):
        return np.asarray(ref_points, float) @ self.matrix_f.T + self.shift_f

    def signature(self):
        """Congruence-class key: the matrix and the vertex order (translations factored out).

        Cell tuples are sorted, so the vertex order fixes which reference
        vertex is the lower-id end of every edge and face.
        """
        return self.rows, self.den, self.vertex_order


def _lattice(vertices):
    """Exact coordinates as int64 numerators over their least common denominator."""
    flat = [c for v in vertices for c in v]
    # keyed by object: a coordinate object shared by many vertices (as on a
    # structured mesh) converts once, and no Fraction is hashed
    exact = {id(c): Fraction(c) for c in {id(c): c for c in flat}.values()}
    denominator = math.lcm(*(f.denominator for f in exact.values()))
    numerators = {i: f.numerator * (denominator // f.denominator) for i, f in exact.items()}
    if max(map(abs, numerators.values()), default=0) > LATTICE_BOUND:
        raise ValueError(
            f"coordinates over the common denominator {denominator} exceed the "
            f"int64 lattice bound {LATTICE_BOUND}"
        )
    lattice = np.array([numerators[id(c)] for c in flat], dtype=np.int64).reshape(-1, 3)
    return lattice, denominator


def _row_groups(rows):
    """Group id of every row of an int array, numbered by first appearance,
    and the first row of each group."""
    order = np.lexsort(rows.T[::-1])  # stable: equal rows keep ascending ids
    ordered = rows[order]
    starts = np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)]
    firsts = order[starts]
    by_appearance = np.argsort(firsts)
    rank = np.empty_like(by_appearance)
    rank[by_appearance] = np.arange(len(firsts))
    groups = np.empty(len(rows), dtype=np.int64)
    groups[order] = rank[np.cumsum(starts) - 1]
    return groups, firsts[by_appearance]


class MeshTopology:
    """Tetrahedral mesh with derived, globally oriented entities, as arrays.

    - ``lattice`` (nv, 3) int64 and ``denominator``: exact coordinates;
      ``vertices_f`` their floats.
    - ``cells`` (nc, 4): ascending vertex ids; ``cell_vertices`` the same
      rows with the last two swapped where that orients the cell positively
      (the global ids hit by reference vertices 0..3).
    - ``edges`` (ne, 2), ``faces`` (nf, 3): ascending vertex ids, in
      lexicographic order; ``cell_edges`` (nc, 6) and ``cell_faces``
      (nc, 4) are their ids in REF_EDGE / REF_FACE order.
    - ``face_cells`` (nf, 2): incident cells in ascending order, -1 for the
      missing neighbour of a boundary face; ``vertex_boundary``,
      ``edge_boundary``, ``face_boundary``: bool flags.
    - ``cell_class``: congruence class, numbered by first appearance;
      ``classes`` the cell ids of each class; ``class_maps`` one exact
      affine map per class, with zero shift.
    """

    def __init__(self, vertices, cells):
        if len(vertices) ** 3 > _INT64_MAX:
            raise ValueError(f"{len(vertices)} vertices overflow the int64 face keys")
        self.lattice, self.denominator = _lattice(vertices)
        self.vertices_f = self.lattice / self.denominator
        self.cells = np.sort(np.asarray(cells, dtype=np.int64).reshape(-1, 4), axis=1)
        if not ((self.cells >= 0) & (self.cells < self.n_vertices)).all():
            raise ValueError("cell vertex ids out of range")
        if len(_row_groups(self.cells)[1]) != self.n_cells:
            raise ValueError("duplicate cells")
        self._build_classes()
        self._build_entities()

    # -- construction ---------------------------------------------------

    def _build_classes(self):
        cells = self.cells
        # rows: the three edge vectors from each cell's first vertex
        spans = self.lattice[cells[:, 1:]] - self.lattice[cells[:, :1]]
        det = np.einsum("ci,ci->c", spans[:, 0], np.cross(spans[:, 1], spans[:, 2]))
        if not det.all():
            raise ValueError(f"degenerate cell {tuple(cells[np.argmin(np.abs(det))])}")
        swap = det < 0
        self.cell_vertices = cells.copy()
        self.cell_vertices[swap, 2:] = cells[swap, :1:-1]
        spans[swap, 1:] = spans[swap, :0:-1]
        self.cell_shifts = self.vertices_f[self.cell_vertices[:, 0]]

        self.cell_class, firsts = _row_groups(np.column_stack([spans.reshape(-1, 9), swap]))
        by_class = np.argsort(self.cell_class, kind="stable")
        self.classes = np.split(by_class, np.cumsum(np.bincount(self.cell_class))[:-1])

        # B's columns are the spans over the lattice denominator
        self.class_maps = [
            AffineMap(spans[c].T.tolist(), self.denominator, (0, 1, 3, 2) if swap[c] else (0, 1, 2, 3))
            for c in firsts
        ]

    def _entities(self, ref_entities):
        """Unique entities of the cells, each cell's entity ids, and incidence counts.

        Keys in base ``n_vertices`` of the ascending vertex rows ascend
        with the rows' lexicographic order.
        """
        rows = np.sort(self.cell_vertices[:, ref_entities], axis=-1)
        keys = rows @ self.n_vertices ** np.arange(rows.shape[-1])[::-1]
        _, first, inverse, counts = np.unique(
            keys, return_index=True, return_inverse=True, return_counts=True
        )
        entities = rows.reshape(-1, rows.shape[-1])[first]
        return entities, inverse.reshape(self.n_cells, -1), counts

    def _build_entities(self):
        self.edges, self.cell_edges, _ = self._entities(REF_EDGE_VERTICES)
        self.faces, self.cell_faces, counts = self._entities(REF_FACE_VERTICES)
        if (counts > 2).any():
            bad = int(np.argmax(counts))
            raise ValueError(f"face {tuple(self.faces[bad])} shared by {counts[bad]} cells")
        self.face_boundary = counts == 1

        # incident cells: each face's incidences, in ascending cell id
        owners = np.argsort(self.cell_faces.reshape(-1), kind="stable") // 4
        start = np.cumsum(counts) - counts
        self.face_cells = np.full((self.n_faces, 2), -1, dtype=np.int64)
        self.face_cells[:, 0] = owners[start]
        interior = ~self.face_boundary
        self.face_cells[interior, 1] = owners[start[interior] + 1]

        boundary_faces = self.faces[self.face_boundary]
        self.vertex_boundary = np.zeros(self.n_vertices, dtype=bool)
        self.vertex_boundary[boundary_faces] = True
        powers = np.array([self.n_vertices, 1])
        boundary_edges = boundary_faces[:, [[0, 1], [0, 2], [1, 2]]] @ powers
        self.edge_boundary = np.isin(self.edges @ powers, boundary_edges)

    # -- queries ----------------------------------------------------------

    def vertex_exact(self, v):
        """Exact rational coordinates of vertex ``v``."""
        return tuple(Fraction(int(c), self.denominator) for c in self.lattice[v])

    @property
    def n_vertices(self):
        return len(self.lattice)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def n_faces(self):
        return len(self.faces)

    @property
    def n_cells(self):
        return len(self.cells)

    def euler_characteristic(self):
        return self.n_vertices - self.n_edges + self.n_faces - self.n_cells

    def boundary_counts(self):
        flags = (self.vertex_boundary, self.edge_boundary, self.face_boundary)
        return tuple(int(f.sum()) for f in flags)

    def info(self):
        nv_b, ne_b, nf_b = self.boundary_counts()
        return {
            "vertices": self.n_vertices,
            "edges": self.n_edges,
            "faces": self.n_faces,
            "cells": self.n_cells,
            "classes": len(self.classes),
            "boundary_vertices": nv_b,
            "boundary_edges": ne_b,
            "boundary_faces": nf_b,
            "euler": self.euler_characteristic(),
            "euler_ok": self.euler_characteristic() == 1,
            "boundary_identity": -nv_b + ne_b - nf_b,
            "boundary_identity_ok": (-nv_b + ne_b - nf_b) == -2,
        }

    # -- plain-text export ----------------------------------------------

    def export_text(self, path):
        with open(path, "w") as fh:
            fh.write(f"{self.n_vertices}\n")
            for v in range(self.n_vertices):
                fh.write(" ".join(str(c) for c in self.vertex_exact(v)) + "\n")
            fh.write(f"{self.n_cells}\n")
            for c in self.cells.tolist():
                fh.write(" ".join(str(i) for i in c) + "\n")


# The six tets of the unit subcube: corner paths from (0, 0, 0) to (1, 1, 1),
# one axis step at a time, one path per permutation of the axes.
_KUHN_PATHS = np.array([
    np.cumsum([(0, 0, 0), *np.eye(3, dtype=int)[list(perm)]], axis=0)
    for perm in permutations(range(3))
])


def build_structured_cube(n):
    """Kuhn (6-tet) subdivision of the unit cube into 6 n^3 cells."""
    if n < 1:
        raise ValueError("mesh level must be >= 1")
    start = time.perf_counter()
    stride = n + 1
    # vertex (i, j, k) has id i + stride * (j + stride * k): i fastest
    k, j, i = np.indices((stride,) * 3).reshape(3, -1)
    values = [Fraction(t, n) for t in range(stride)]
    vertices = [(values[a], values[b], values[c]) for a, b, c in zip(i, j, k)]
    corners = np.stack(np.indices((n,) * 3)[::-1], axis=-1).reshape(-1, 1, 1, 3)
    path = corners + _KUHN_PATHS  # (subcubes, 6 tets, 4 vertices, xyz)
    cells = path[..., 0] + stride * (path[..., 1] + stride * path[..., 2])
    mesh = MeshTopology(vertices, cells.reshape(-1, 4))
    _log.debug(
        "structured cube N=%d: %d cells, %d classes, %d vertices, %.3f s",
        n, mesh.n_cells, len(mesh.classes), mesh.n_vertices, time.perf_counter() - start,
    )
    return mesh


def random_rational_cell(rng, denominator=8, scale=1):
    """Shape-regular random cell with small rational coordinates (for tests)."""
    while True:
        base = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float) * scale
        jitter = rng.integers(-denominator // 4, denominator // 4 + 1, size=(4, 3))
        verts = [
            tuple(Fraction(int(round(base[r, c] * denominator)) + int(jitter[r, c]), denominator) for c in range(3))
            for r in range(4)
        ]
        cols = [[verts[j + 1][i] - verts[0][i] for j in range(3)] for i in range(3)]
        det = _det3(cols)
        norms = [sum(float(cols[i][j]) ** 2 for i in range(3)) ** 0.5 for j in range(3)]
        if det != 0 and abs(float(det)) > 0.3 * np.prod(norms):
            return verts
