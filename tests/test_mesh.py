"""Structured meshes: entity counts, orientation, affine maps, exchange format."""

from fractions import Fraction as F
from itertools import combinations
from math import gcd

import numpy as np
import pytest

from exact_reference import exact_matrix, inverse
from tetcomplex.elements import CellGeometry
from tetcomplex.mesh import (
    LATTICE_BOUND,
    AffineMap,
    REF_EDGE_VERTICES,
    REF_FACE_VERTICES,
    MeshTopology,
    build_structured_cube,
    _det3,
    random_rational_cell,
)
from tetcomplex.polyalg.split import REF_VERTICES

REF = [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]


def _vertices(mesh):
    return [mesh.vertex_exact(v) for v in range(mesh.n_vertices)]


def _apply_exact(amap, ref_point):
    """``B xhat + b`` in Fractions."""
    return tuple(
        sum(b * x for b, x in zip(row, ref_point)) + F(s, amap.shift_den)
        for row, s in zip(exact_matrix(amap), amap.shift)
    )


class TestStructuredCube:
    def test_level_one_counts(self):
        m = build_structured_cube(1)
        assert (m.n_vertices, m.n_edges, m.n_faces, m.n_cells) == (8, 19, 18, 6)

    def test_level_two_counts(self):
        m = build_structured_cube(2)
        assert m.n_cells == 48 and m.n_vertices == 27

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_euler_formula(self, n):
        m = build_structured_cube(n)
        assert m.euler_characteristic() == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_boundary_identity(self, n):
        nv, ne, nf = build_structured_cube(n).boundary_counts()
        assert -nv + ne - nf == -2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            build_structured_cube(0)

    def test_face_cell_incidence(self):
        m = build_structured_cube(2)
        assert np.array_equal((m.face_cells >= 0).sum(axis=1), np.where(m.face_boundary, 1, 2))
        for f, cells in enumerate(m.face_cells):
            for c in cells[cells >= 0]:
                assert f in m.cell_faces[c]

    def test_six_congruence_classes(self):
        m = build_structured_cube(2)
        assert len({CellGeometry(a).signature() for a in m.class_maps}) == 6
        assert len(m.classes) == len(m.class_maps) == 6


class TestOrientation:
    def test_shared_face_frames_agree(self):
        m = build_structured_cube(2)
        geoms = [CellGeometry(a) for a in m.class_maps]
        frames = {}
        for c in range(m.n_cells):
            for f, g in zip(m.cell_faces[c], geoms[m.cell_class[c]].faces):
                assert abs(np.dot(g["tau1"], g["tau2"])) < 1e-14
                assert abs(np.dot(g["tau1"], g["normal"])) < 1e-14
                for key in ("tau1", "tau2", "normal"):
                    assert abs(np.linalg.norm(g[key]) - 1) < 1e-14
                # the frame depends only on global ids, so both incident cells see it
                frame = tuple(tuple(g[key]) for key in ("tau1", "tau2", "normal", "direction")) + (g["direction_den"],)
                assert frames.setdefault(int(f), frame) == frame
        assert len(frames) == m.n_faces

    def test_edge_tangent_lo_to_hi(self):
        m = build_structured_cube(1)
        vertices = _vertices(m)
        geoms = [CellGeometry(a) for a in m.class_maps]
        for c in range(m.n_cells):
            for e, g in zip(m.cell_edges[c], geoms[m.cell_class[c]].edges):
                lo, hi = (vertices[v] for v in m.edges[e])
                d = np.array([float(b - a) for a, b in zip(lo, hi)])
                assert np.allclose(g["tangent"] * g["length"], d)


class TestAffineMaps:
    def test_vertices_reproduced(self):
        m = build_structured_cube(1)
        for ci, cell in enumerate(m.cells):
            amap = m.class_maps[m.cell_class[ci]]
            origin = m.vertex_exact(cell[amap.vertex_order[0]])
            assert amap.det > 0 and amap.shift == (0, 0, 0)
            for r in range(4):
                moved = tuple(x + o for x, o in zip(_apply_exact(amap, REF[r]), origin))
                assert moved == m.vertex_exact(cell[amap.vertex_order[r]])

    def test_volumes_sum_to_one(self):
        m = build_structured_cube(2)
        maps = [m.class_maps[c] for c in m.cell_class]
        assert sum(F(amap.det, 6 * amap.den**3) for amap in maps) == 1

    @pytest.mark.parametrize("last", [-1, 0])
    def test_non_positive_determinant_rejected(self, last):
        with pytest.raises(ValueError, match="not positive"):
            AffineMap(((1, 0, 0), (0, 1, 0), (0, 0, last)), 1, (0, 1, 2, 3))

    def test_rows_reduced_over_least_denominator(self):
        amap = AffineMap(((4, 0, 2), (0, 6, 0), (0, 0, 8)), 12, (0, 1, 2, 3))
        assert (amap.rows, amap.den) == (((2, 0, 1), (0, 3, 0), (0, 0, 4)), 6)
        assert amap.det == 24 and amap.det_f == 24 / 216
        # every float is the exact rational rounded once
        assert np.array_equal(amap.matrix_f, np.array(exact_matrix(amap), dtype=float))
        assert np.array_equal(amap.inverse_f, np.array(inverse(exact_matrix(amap)), dtype=float))


def _import_text(path):
    """The vertices (Fractions) and cells (ints) of a text export, line by line."""
    lines = path.read_text().split("\n")
    nv = int(lines[0])
    vertices = [tuple(F(t) for t in line.split()) for line in lines[1:nv + 1]]
    nc = int(lines[nv + 1])
    cells = [tuple(int(t) for t in line.split()) for line in lines[nv + 2:nv + 2 + nc]]
    assert lines[nv + 2 + nc:] == [""]
    return vertices, cells


class TestExchange:
    def test_text_roundtrip(self, tmp_path):
        m = build_structured_cube(1)
        path = tmp_path / "mesh.txt"
        m.export_text(path)
        vertices, cells = _import_text(path)
        assert vertices == _vertices(m)
        m2 = MeshTopology(vertices, cells)
        assert np.array_equal(m2.lattice, m.lattice) and m2.denominator == m.denominator
        assert np.array_equal(m2.cells, m.cells)
        assert m2.info() == m.info()


class TestInputChecks:
    CUBE = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]

    def test_duplicate_cell(self):
        with pytest.raises(ValueError, match="duplicate"):
            MeshTopology(self.CUBE, [(0, 1, 2, 3), (3, 2, 1, 0)])

    @pytest.mark.parametrize("cell", [(0, 1, 2, 5), (-1, 0, 1, 2)])
    def test_vertex_id_out_of_range(self, cell):
        with pytest.raises(ValueError, match="out of range"):
            MeshTopology(self.CUBE, [cell])

    def test_zero_volume_cell(self):
        with pytest.raises(ValueError, match="degenerate"):
            MeshTopology([(0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 0, 1)], [(0, 1, 2, 3)])

    def test_face_shared_by_three_cells(self):
        verts = self.CUBE + [(F(1, 2), -1, 3)]
        with pytest.raises(ValueError, match="shared by 3 cells"):
            MeshTopology(verts, [(1, 2, 3, 0), (1, 2, 3, 4), (1, 2, 3, 5)])

    def test_lattice_overflow(self):
        # the common denominator 2**19 + 1 puts the numerator of 1 past the bound
        verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, F(1, LATTICE_BOUND + 1))]
        with pytest.raises(ValueError, match="lattice"):
            MeshTopology(verts, [(0, 1, 2, 3)])
        MeshTopology(verts[:3] + [(0, 0, F(1, LATTICE_BOUND))], [(0, 1, 2, 3)])

    def test_entity_key_overflow(self):
        # face keys are base-n_vertices numbers of three ids: n_vertices**3 must fit
        n = 2**21 + 1
        verts = [(0, 0, 0)] * n
        with pytest.raises(ValueError, match="face keys"):
            MeshTopology(verts, [(0, 1, 2, 3)])


def _reference_entities(mesh):
    """The set-based, per-cell extraction the mesh arrays replace."""
    vertices = _vertices(mesh)
    cells = [tuple(sorted(int(v) for v in c)) for c in mesh.cells]
    edge_set, face_set = set(), set()
    for cell in cells:
        edge_set.update(combinations(cell, 2))
        face_set.update(combinations(cell, 3))
    edges, faces = sorted(edge_set), sorted(face_set)
    face_cells = {f: [] for f in faces}
    for ci, cell in enumerate(cells):
        for tri in combinations(cell, 3):
            face_cells[tri].append(ci)
    boundary_faces = [f for f in faces if len(face_cells[f]) == 1]
    boundary_vertices = {v for f in boundary_faces for v in f}
    boundary_edges = {pair for f in boundary_faces for pair in combinations(f, 2)}

    edge_id = {e: i for i, e in enumerate(edges)}
    face_id = {f: i for i, f in enumerate(faces)}
    cell_vertices, maps, keys = [], [], []
    for cell in cells:
        order = (0, 1, 2, 3)
        pts = [vertices[v] for v in cell]
        cols = tuple(tuple(pts[j + 1][i] - pts[0][i] for j in range(3)) for i in range(3))
        if _det3(cols) < 0:
            order = (0, 1, 3, 2)
            cols = tuple(
                tuple(pts[order[j + 1]][i] - pts[0][i] for j in range(3)) for i in range(3)
            )
        cell_vertices.append(tuple(cell[o] for o in order))
        maps.append((cols, pts[0]))
        keys.append((cols, order))
    classes = {}
    for key in keys:
        classes.setdefault(key, len(classes))
    return {
        "edges": edges,
        "faces": faces,
        "cell_vertices": cell_vertices,
        "cell_edges": [
            [edge_id[tuple(sorted(cv[v] for v in e))] for e in REF_EDGE_VERTICES]
            for cv in cell_vertices
        ],
        "cell_faces": [
            [face_id[tuple(sorted(cv[v] for v in f))] for f in REF_FACE_VERTICES]
            for cv in cell_vertices
        ],
        "face_cells": [face_cells[f] + [-1] * (2 - len(face_cells[f])) for f in faces],
        "vertex_boundary": [v in boundary_vertices for v in range(len(vertices))],
        "edge_boundary": [e in boundary_edges for e in edges],
        "face_boundary": [len(face_cells[f]) == 1 for f in faces],
        "cell_class": [classes[key] for key in keys],
        "maps": maps,
    }


def _reference_meshes(numbering_meshes):
    meshes = {f"kuhn{n}": build_structured_cube(n) for n in (1, 2, 3)}
    meshes.update({k: numbering_meshes[k] for k in ("permuted", "jittered")})
    verts = random_rational_cell(np.random.default_rng(7))
    meshes["random"] = MeshTopology(verts, [(0, 1, 2, 3)])
    return meshes


def test_arrays_match_set_based_reference(numbering_meshes):
    for n in (1, 2, 3):
        s = range(n + 1)
        lattice = [(F(i, n), F(j, n), F(k, n)) for k in s for j in s for i in s]
        assert _vertices(build_structured_cube(n)) == lattice
    assert numbering_meshes["jittered"].vertex_exact(13) == (F(9, 16), F(15, 32), F(33, 64))
    for label, mesh in _reference_meshes(numbering_meshes).items():
        ref = _reference_entities(mesh)
        for key, expected in ref.items():
            if key != "maps":
                assert np.array_equal(getattr(mesh, key), expected), (label, key)
        for ci, (cols, origin) in enumerate(ref["maps"]):
            amap = mesh.class_maps[mesh.cell_class[ci]]
            assert tuple(map(tuple, exact_matrix(amap))) == cols, (label, ci)
            assert mesh.vertex_exact(mesh.cell_vertices[ci, 0]) == origin, (label, ci)
            assert np.array_equal(mesh.cell_shifts[ci], np.array(origin, dtype=float)), (label, ci)
            for r in range(4):
                vertex = mesh.vertex_exact(mesh.cell_vertices[ci, r])
                moved = tuple(x + o for x, o in zip(_apply_exact(amap, REF[r]), origin))
                assert moved == vertex, (label, ci)


def test_random_cells_shape_regular():
    rng = np.random.default_rng(5)
    for _ in range(10):
        verts = random_rational_cell(rng)

        cols = [[verts[j + 1][i] - verts[0][i] for j in range(3)] for i in range(3)]
        assert _det3(cols) != 0


def _array_entity_data(mesh, ci):
    """Edge and face data of cell ``ci`` computed from the mesh arrays.

    The independent reference for ``CellGeometry``: ascending ends and
    anchors from ``edges`` and ``faces``, reference vertices from
    ``cell_vertices``, tangents and frames from lattice differences.
    """
    lattice, den = mesh.lattice, mesh.denominator
    ref_of = {int(g): REF_VERTICES[r] for r, g in enumerate(mesh.cell_vertices[ci])}
    edges = []
    for e in mesh.cell_edges[ci]:
        lo, hi = mesh.edges[e]
        d = (lattice[hi] - lattice[lo]) / den
        length = float(np.linalg.norm(d))
        edges.append(
            {"ref_lo": ref_of[lo], "ref_hi": ref_of[hi], "tangent": d / length, "length": length}
        )
    faces = []
    for f in mesh.cell_faces[ci]:
        q0, q1, q2 = lattice[mesh.faces[f]]
        cross = np.cross(q1 - q0, q2 - q0).tolist()
        g = gcd(den * den, *cross)
        t1 = (q1 - q0) / den
        normal2 = np.cross(t1, (q2 - q0) / den)
        area = float(np.linalg.norm(normal2)) / 2
        n = normal2 / (2 * area)
        tau1 = t1 / np.linalg.norm(t1)
        faces.append({
            "ref_anchors": tuple(ref_of[v] for v in mesh.faces[f]),
            "tau1": tau1,
            "tau2": np.cross(n, tau1),
            "normal": n,
            "area": area,
            "direction": tuple(c // g for c in cross),
            "direction_den": den * den // g,
        })
    return edges, faces


@pytest.mark.parametrize("variant", ["kuhn", "permuted", "jittered", "kuhn3"])
def test_class_geometry_equals_array_data(variant, numbering_meshes):
    # every cell's entity data equals, bit for bit, the geometry of its class map
    mesh = build_structured_cube(3) if variant == "kuhn3" else numbering_meshes[variant]
    geoms = [CellGeometry(a) for a in mesh.class_maps]
    for ci in range(mesh.n_cells):
        geom = geoms[mesh.cell_class[ci]]
        edges, faces = _array_entity_data(mesh, ci)
        for got, expected in zip(geom.edges + geom.faces, edges + faces, strict=True):
            assert got.keys() == expected.keys()
            for key, value in expected.items():
                assert np.array_equal(got[key], value), (variant, ci, key)
