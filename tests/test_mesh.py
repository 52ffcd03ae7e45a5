"""Structured meshes: entity counts, orientation, affine maps, exchange format."""

from fractions import Fraction as F

import numpy as np
import pytest

from tetcomplex.mesh import (
    MeshTopology,
    alfeld,
    build_structured_cube,
    random_rational_cell,
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
        for f in m.faces:
            assert len(f.cells) == (1 if f.boundary else 2)

    def test_six_congruence_classes(self):
        m = build_structured_cube(2)
        assert len({m.cell_maps[c].signature() for c in range(m.n_cells)}) == 6


class TestOrientation:
    def test_shared_face_frames_agree(self):
        m = build_structured_cube(2)
        for f in m.faces:
            g = f.geometry(m.vertices)
            assert abs(np.dot(g["tau1"], g["tau2"])) < 1e-14
            assert abs(np.dot(g["tau1"], g["normal"])) < 1e-14
            for key in ("tau1", "tau2", "normal"):
                assert abs(np.linalg.norm(g[key]) - 1) < 1e-14
            # frame depends only on global ids, so both incident cells see it

    def test_edge_tangent_lo_to_hi(self):
        m = build_structured_cube(1)
        for e in m.edges:
            g = e.geometry(m.vertices)
            lo, hi = (m.vertices[v] for v in e.vertices)
            d = np.array([float(b - a) for a, b in zip(lo, hi)])
            assert np.allclose(g["tangent"] * g["length"], d)


class TestAffineMaps:
    def test_vertices_reproduced(self):
        m = build_structured_cube(1)
        ref = [(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))]
        for ci, cell in enumerate(m.cells):
            amap = m.cell_maps[ci]
            assert amap.det > 0
            for r in range(4):
                assert amap.apply_exact(ref[r]) == m.vertices[cell[amap.vertex_order[r]]]

    def test_volumes_sum_to_one(self):
        m = build_structured_cube(2)
        assert sum(m.cell_volume(c) for c in range(m.n_cells)) == 1


class TestAlfeld:
    def test_reference_split_volumes(self):
        m = MeshTopology(
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2, 3)]
        )
        data = alfeld(m, 0)
        from tetcomplex.polyalg.poly import _det3

        vols = []
        for st in data["subtets"]:
            cols = [[st[j + 1][i] - st[0][i] for j in range(3)] for i in range(3)]
            vols.append(abs(_det3(cols)) * F(1, 6))
        assert all(v == F(1, 24) for v in vols)

    def test_barycenter_is_mean(self):
        m = build_structured_cube(1)
        data = alfeld(m, 3)
        pts = [m.vertices[v] for v in m.cells[3]]
        mean = tuple(sum(p[i] for p in pts) / 4 for i in range(3))
        assert data["barycenter"] == mean

    def test_split_commutes_with_map(self):
        m = build_structured_cube(1)
        amap = m.cell_maps[2]
        ref_center = (F(1, 4), F(1, 4), F(1, 4))
        assert amap.apply_exact(ref_center) == alfeld(m, 2)["barycenter"]


class TestExchange:
    def test_text_roundtrip(self, tmp_path):
        m = build_structured_cube(1)
        path = tmp_path / "mesh.txt"
        m.export_text(path)
        m2 = MeshTopology.import_text(path)
        assert m2.vertices == m.vertices and m2.cells == m.cells
        assert m2.info() == m.info()


def test_random_cells_shape_regular():
    rng = np.random.default_rng(5)
    for _ in range(10):
        verts = random_rational_cell(rng)
        from tetcomplex.polyalg.poly import _det3

        cols = [[verts[j + 1][i] - verts[0][i] for j in range(3)] for i in range(3)]
        assert _det3(cols) != 0
