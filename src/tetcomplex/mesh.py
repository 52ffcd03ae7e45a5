"""Tetrahedral meshes of the unit cube with globally oriented entities.

The structured mesh partitions the cube into N^3 subcubes, each split into
six tetrahedra sharing the subcube diagonal (Kuhn subdivision), which is
conforming across subcubes.  Entities (edges, faces) are identified by
ascending global vertex ids, so every cell incident to an entity sees the
same tangent/frame data; cells store exact rational affine maps onto the
reference tetrahedron with positive determinant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .polyalg.poly import _det3, _inv3

REF_EDGE_VERTICES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
REF_FACE_VERTICES = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def _frac_point(coords):
    return tuple(Fraction(c) for c in coords)


@lru_cache(maxsize=1024)
def _matrix_data(matrix):
    """Exact determinant and inverse plus read-only float copies of a matrix.

    Cells of one congruence class share the matrix, so a structured mesh
    computes these once per class rather than once per cell.
    """
    det = _det3(matrix)
    inverse = _inv3(matrix, det) if det != 0 else None
    matrix_f = np.array([[float(v) for v in row] for row in matrix])
    matrix_f.flags.writeable = False
    inverse_f = None
    if inverse is not None:
        inverse_f = np.array([[float(v) for v in row] for row in inverse])
        inverse_f.flags.writeable = False
    return det, inverse, matrix_f, inverse_f


@dataclass
class AffineMap:
    """x = B xhat + b mapping the reference tet onto a cell, det B > 0."""

    matrix: tuple  # 3x3 Fractions (rows)
    shift: tuple  # 3 Fractions
    vertex_order: tuple  # cell vertex slots (into the sorted tuple) hit by ref vertices

    def __post_init__(self):
        self.det, self.inverse, self.matrix_f, self.inverse_f = _matrix_data(self.matrix)
        assert self.det > 0
        self.shift_f = np.array([float(v) for v in self.shift])
        self.det_f = float(self.det)

    def apply(self, ref_points):
        return np.asarray(ref_points, float) @ self.matrix_f.T + self.shift_f

    def apply_exact(self, ref_point):
        return tuple(
            sum(self.matrix[i][j] * ref_point[j] for j in range(3)) + self.shift[i]
            for i in range(3)
        )

    def invert_exact(self, point):
        d = [Fraction(point[j]) - self.shift[j] for j in range(3)]
        return tuple(sum(self.inverse[i][j] * d[j] for j in range(3)) for i in range(3))

    def signature(self):
        """Congruence-class key: the matrix and the vertex order (translations factored out).

        Cell tuples are sorted, so the vertex order fixes which reference
        vertex is the lower-id end of every edge and face.
        """
        return tuple(tuple(row) for row in self.matrix), self.vertex_order


def affine_map_for(vertices):
    """Positively oriented affine map for a cell given 4 vertex coordinates.

    ``vertices`` are in ascending-global-id order; if that order is
    negatively oriented the last two reference vertices swap targets.
    """
    order = (0, 1, 2, 3)
    cols = tuple(tuple(vertices[j + 1][i] - vertices[0][i] for j in range(3)) for i in range(3))
    if _matrix_data(cols)[0] < 0:
        order = (0, 1, 3, 2)
        cols = tuple(
            tuple(vertices[order[j + 1]][i] - vertices[0][i] for j in range(3)) for i in range(3)
        )
    if _matrix_data(cols)[0] == 0:
        raise ValueError("degenerate cell")
    return AffineMap(cols, tuple(vertices[0]), order)


@dataclass
class EdgeData:
    vertices: tuple  # ascending global ids
    boundary: bool = False

    def geometry(self, coords):
        lo, hi = (coords[v] for v in self.vertices)
        d = np.array([float(b - a) for a, b in zip(lo, hi)])
        length = float(np.linalg.norm(d))
        return {"tangent": d / length, "length": length}


@dataclass
class FaceData:
    vertices: tuple  # ascending global ids
    boundary: bool = False
    cells: tuple = ()

    def geometry(self, coords):
        p0, p1, p2 = (np.array([float(c) for c in coords[v]]) for v in self.vertices)
        t1 = p1 - p0
        t2raw = p2 - p0
        normal2 = np.cross(t1, t2raw)  # length = 2 * area
        area = float(np.linalg.norm(normal2)) / 2.0
        n = normal2 / (2.0 * area)
        tau1 = t1 / np.linalg.norm(t1)
        tau2 = np.cross(n, tau1)
        centroid = (p0 + p1 + p2) / 3.0
        return {
            "tau1": tau1,
            "tau2": tau2,
            "normal": n,
            "area": area,
            "centroid": centroid,
        }

    def direction_exact(self, coords):
        """Rational area-weighted normal (v1-v0) x (v2-v0); shared by both cells."""
        p0, p1, p2 = (coords[v] for v in self.vertices)
        a = [p1[i] - p0[i] for i in range(3)]
        b = [p2[i] - p0[i] for i in range(3)]
        return (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )

    def centroid_exact(self, coords):
        p0, p1, p2 = (coords[v] for v in self.vertices)
        return tuple((p0[i] + p1[i] + p2[i]) / 3 for i in range(3))


class MeshTopology:
    """Tetrahedral mesh with derived, globally oriented entities."""

    def __init__(self, vertices, cells):
        self.vertices = [_frac_point(v) for v in vertices]
        self.vertices_f = np.array([[float(c) for c in v] for v in self.vertices])
        self.cells = [tuple(sorted(int(v) for v in c)) for c in cells]
        if len({c for c in self.cells}) != len(self.cells):
            raise ValueError("duplicate cells")
        self._edge_geometry = {}
        self._face_geometry = {}
        self._face_direction = {}
        self._build_entities()
        self._build_cell_maps()
        # data other layers derive from the mesh alone, built once per mesh
        self.derived = {}

    # -- construction ---------------------------------------------------

    def _build_entities(self):
        edge_set = set()
        face_set = set()
        for cell in self.cells:
            for pair in combinations(cell, 2):
                edge_set.add(pair)
            for tri in combinations(cell, 3):
                face_set.add(tri)
        self.edges = [EdgeData(e) for e in sorted(edge_set)]
        self.faces = [FaceData(f) for f in sorted(face_set)]

        face_cells = {f: [] for f in face_set}
        for ci, cell in enumerate(self.cells):
            for tri in combinations(cell, 3):
                face_cells[tri].append(ci)
        boundary_vertices = set()
        boundary_edges = set()
        for f in self.faces:
            f.cells = tuple(face_cells[f.vertices])
            if len(f.cells) == 1:
                f.boundary = True
                boundary_vertices.update(f.vertices)
                for pair in combinations(f.vertices, 2):
                    boundary_edges.add(pair)
            elif len(f.cells) != 2:
                raise ValueError(f"face {f.vertices} shared by {len(f.cells)} cells")
        for e in self.edges:
            e.boundary = e.vertices in boundary_edges
        self.vertex_boundary = [i in boundary_vertices for i in range(len(self.vertices))]

    def _build_cell_maps(self):
        self.cell_maps = [affine_map_for([self.vertices[v] for v in cell]) for cell in self.cells]
        order = np.array([amap.vertex_order for amap in self.cell_maps])
        # per cell: global vertex ids hit by the reference vertices, in order
        self.cell_vertices = np.take_along_axis(np.array(self.cells), order, axis=1)
        self.cell_shifts = self.vertices_f[self.cell_vertices[:, 0]]
        # per cell: 6 global edge ids in REF_EDGE order, 4 face ids in REF_FACE order
        self.cell_edges = self._entity_ids(self.edges, REF_EDGE_VERTICES)
        self.cell_faces = self._entity_ids(self.faces, REF_FACE_VERTICES)
        # per cell: congruence class, numbered by first appearance of its signature
        classes = {}
        self.cell_class = np.array(
            [classes.setdefault(amap.signature(), len(classes)) for amap in self.cell_maps]
        )

    def _entity_ids(self, entities, ref_entities):
        """Global ids of every cell's entities, one column per reference entity.

        Entities are sorted tuples of ascending vertex ids, so their keys in
        base ``n_vertices`` ascend with the entity index.
        """
        powers = self.n_vertices ** np.arange(len(ref_entities[0]))[::-1]
        known = np.array([e.vertices for e in entities]) @ powers
        local = np.sort(self.cell_vertices[:, ref_entities], axis=-1)
        return np.searchsorted(known, local @ powers)

    # -- queries ----------------------------------------------------------

    def edge_geometry(self, ei):
        """Float tangent and length of edge ``ei``, computed once per edge."""
        geo = self._edge_geometry.get(ei)
        if geo is None:
            geo = self._edge_geometry[ei] = self.edges[ei].geometry(self.vertices)
        return geo

    def face_direction(self, fi):
        """Exact area-weighted normal of face ``fi``, computed once per face."""
        d = self._face_direction.get(fi)
        if d is None:
            d = self._face_direction[fi] = self.faces[fi].direction_exact(self.vertices)
        return d

    def face_geometry(self, fi):
        """Float frame plus exact direction and centroid of face ``fi``, once per face."""
        geo = self._face_geometry.get(fi)
        if geo is None:
            face = self.faces[fi]
            geo = {
                "direction": self.face_direction(fi),
                "centroid_exact": face.centroid_exact(self.vertices),
                **face.geometry(self.vertices),
            }
            self._face_geometry[fi] = geo
        return geo

    @property
    def n_vertices(self):
        return len(self.vertices)

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
        nv = sum(self.vertex_boundary)
        ne = sum(e.boundary for e in self.edges)
        nf = sum(f.boundary for f in self.faces)
        return nv, ne, nf

    def cell_volume(self, ci):
        return self.cell_maps[ci].det * Fraction(1, 6)

    def info(self):
        nv_b, ne_b, nf_b = self.boundary_counts()
        return {
            "vertices": self.n_vertices,
            "edges": self.n_edges,
            "faces": self.n_faces,
            "cells": self.n_cells,
            "boundary_vertices": nv_b,
            "boundary_edges": ne_b,
            "boundary_faces": nf_b,
            "euler": self.euler_characteristic(),
            "euler_ok": self.euler_characteristic() == 1,
            "boundary_identity": -nv_b + ne_b - nf_b,
            "boundary_identity_ok": (-nv_b + ne_b - nf_b) == -2,
        }

    # -- plain-text exchange ----------------------------------------------

    def export_text(self, path):
        with open(path, "w") as fh:
            fh.write(f"{self.n_vertices}\n")
            for v in self.vertices:
                fh.write(" ".join(str(c) for c in v) + "\n")
            fh.write(f"{self.n_cells}\n")
            for c in self.cells:
                fh.write(" ".join(str(i) for i in c) + "\n")

    @classmethod
    def import_text(cls, path):
        with open(path) as fh:
            tokens = fh.read().split("\n")
        idx = 0
        nv = int(tokens[idx]); idx += 1
        verts = []
        for _ in range(nv):
            verts.append(tuple(Fraction(t) for t in tokens[idx].split())); idx += 1
        nc = int(tokens[idx]); idx += 1
        cells = []
        for _ in range(nc):
            cells.append(tuple(int(t) for t in tokens[idx].split())); idx += 1
        return cls(verts, cells)


def build_structured_cube(n):
    """Kuhn (6-tet) subdivision of the unit cube into 6 n^3 cells."""
    if n < 1:
        raise ValueError("mesh level must be >= 1")
    stride = n + 1

    def vid(i, j, k):
        return i + stride * (j + stride * k)

    vertices = [  # i fastest, as vid() numbers them
        (Fraction(i, n), Fraction(j, n), Fraction(k, n))
        for k in range(stride)
        for j in range(stride)
        for i in range(stride)
    ]

    axes = np.eye(3, dtype=int)
    cells = []
    for k in range(n):
        for j in range(n):
            for i in range(n):
                corner = np.array([i, j, k])
                for perm in permutations(range(3)):
                    path = [corner]
                    for ax in perm:
                        path.append(path[-1] + axes[ax])
                    cells.append(tuple(vid(*p) for p in path))
    return MeshTopology(vertices, cells)


def alfeld(mesh, cell_id):
    """Alfeld split data of a physical cell: barycenter and 4 subtet vertex lists."""
    cell = mesh.cells[cell_id]
    pts = [mesh.vertices[v] for v in cell]
    center = tuple(sum(p[i] for p in pts) / 4 for i in range(3))
    subtets = [
        tuple(center if j == i else pts[j] for j in range(4))
        for i in range(4)
    ]
    return {"barycenter": center, "subtets": subtets}


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
