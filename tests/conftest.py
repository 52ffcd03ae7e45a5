"""Meshes and counters shared by several test modules."""

from fractions import Fraction as F

import numpy as np
import pytest

from tetcomplex.mesh import MeshTopology, build_structured_cube


@pytest.fixture(scope="session")
def numbering_meshes():
    """N=2 Kuhn mesh, the same with its cells permuted, and with its interior vertex moved."""
    mesh = build_structured_cube(2)
    perm = np.random.default_rng(1).permutation(mesh.n_cells)
    vertices = [mesh.vertex_exact(v) for v in range(mesh.n_vertices)]
    moved = list(vertices)
    moved[13] = (F(9, 16), F(15, 32), F(33, 64))  # vertex (1/2, 1/2, 1/2), off the lattice
    return {
        "kuhn": mesh,
        "permuted": MeshTopology(vertices, mesh.cells[perm]),
        "jittered": MeshTopology(moved, mesh.cells),
    }


@pytest.fixture
def fraction_count(monkeypatch):
    """A counter of ``fractions.Fraction`` constructions: ``counter[0]`` grows by one for each."""
    counter = [0]
    construct = F.__new__

    def counting(cls, *args, **kwargs):
        counter[0] += 1
        return construct(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting)
    return counter
