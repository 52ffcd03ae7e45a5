"""Global numbering, assembled operators, discrete complex, interpolation."""

import dataclasses
import logging
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from tetcomplex import assembly as assembly_module
from tetcomplex.assembly import (
    ClassTables,
    GlobalSpace,
    assemble,
    assemble_load,
    discrete_d,
    error_norms,
    restrict_operator,
)
from tetcomplex.elements import (
    SPACE_KINDS,
    CellGeometry,
    build_dofs,
    dof_matrix,
    local_element,
    phys_curl,
    phys_div,
    phys_grad,
)
from tetcomplex.mesh import (
    REF_EDGE_VERTICES,
    REF_FACE_VERTICES,
    MeshTopology,
    build_structured_cube,
)
from tetcomplex.polyalg import Polynomial, VectorField, monomial_exponents
from tetcomplex.problems import ManufacturedSolution, TranslationModes, get_spaces
from tetcomplex.quadrature import QuadratureRule, alfeld_composite
from tetcomplex.sampling import FieldSample


@pytest.fixture(scope="module")
def mesh1():
    return build_structured_cube(1)


@pytest.fixture(scope="module")
def spaces1(mesh1):
    return {kind: GlobalSpace(mesh1, kind, 1, 1) for kind in SPACE_KINDS}


def _numeric_rank(matrix, tol=1e-8):
    m = np.asarray(matrix.todense())
    if min(m.shape) == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return int((s > tol * max(s[0], 1.0)).sum())


def _check_numbering(space, geoms, label):
    """Compare the gathered numbering and boundary mask with per-cell, per-entity loops."""
    mesh, c = space.mesh, space.counts
    base = {
        "vertex": space.vertex_base,
        "edge": space.edge_base,
        "face": space.face_base,
        "cell": space.cell_base,
    }
    for geom in geoms:
        ids = {
            "vertex": geom.ref_to_global,
            "edge": [e["global"] for e in geom.edges],
            "face": [f["global"] for f in geom.faces],
            "cell": [geom.cell_id],
        }
        expected = [
            base[entity] + ids[entity][local] * c[entity] + dof.slot
            for dof in build_dofs(space.kind, geom, space.r, space.k)
            for entity, local in [dof.entity]
        ]
        assert space.local_to_global[geom.cell_id].tolist() == expected, label
    mask = np.zeros(space.dim, dtype=bool)
    for entity, flags in (
        ("vertex", mesh.vertex_boundary),
        ("edge", mesh.edge_boundary),
        ("face", mesh.face_boundary),
    ):
        n = c[entity]
        for i, flag in enumerate(flags):
            mask[base[entity] + i * n:base[entity] + (i + 1) * n] = flag
    assert np.array_equal(space.boundary_mask, mask), label


class TestNumbering:
    def test_lagrange_level_one(self, spaces1):
        assert spaces1["lagrange"].dim == 8

    def test_gradcurl_level_one(self, spaces1):
        assert spaces1["gradcurl"].dim == 3 * 8 + 19  # 43

    def test_alternating_sums(self):
        for n in (1, 2):
            mesh = build_structured_cube(n)
            dims = {kind: GlobalSpace(mesh, kind, 1, 1).dim for kind in SPACE_KINDS}
            assert (
                -1 + dims["lagrange"] - dims["gradcurl"] + dims["velocity"] - dims["pressure"]
            ) == 0

    def test_shared_dofs_identical_indices(self, monkeypatch, numbering_meshes):
        # the numbering reads only the DOFs of each class's element, so the
        # exact construction (minutes on 30 jittered classes) is left out
        monkeypatch.setattr(
            assembly_module,
            "local_element",
            lambda kind, r, k, cell: SimpleNamespace(
                dofs=build_dofs(kind, cell, r, k), basis=[SimpleNamespace(degree=0)]
            ),
        )
        for variant, mesh in numbering_meshes.items():
            geoms = [CellGeometry(mesh, ci) for ci in range(mesh.n_cells)]
            groups = {}
            for geom in geoms:
                ref_to_global = tuple(mesh.cells[geom.cell_id][v] for v in geom.amap.vertex_order)
                assert geom.ref_to_global == ref_to_global
                for entities, owners, ref in (
                    (geom.edges, mesh.edges, REF_EDGE_VERTICES),
                    (geom.faces, mesh.faces, REF_FACE_VERTICES),
                ):
                    assert [tuple(owners[e["global"]]) for e in entities] == [
                        tuple(sorted(ref_to_global[v] for v in local)) for local in ref
                    ]
                patterns = (
                    tuple((e["locals"], e["ref_lo"]) for e in geom.edges),
                    tuple(f["ref_anchors"] for f in geom.faces),
                )
                groups.setdefault((geom.amap.matrix, patterns), []).append(geom.cell_id)
            partition = [cells.tolist() for cells in mesh.classes]
            assert partition == list(groups.values()), variant
            assert len(groups) == (30 if variant == "jittered" else 6)

            for rk in ((1, 1), (2, 2), (3, 3)):
                for kind in SPACE_KINDS:
                    space = GlobalSpace(mesh, kind, *rk)
                    _check_numbering(space, geoms, (variant, rk, kind))

    def test_interior_counts_level_one(self, spaces1):
        assert spaces1["gradcurl"].interior_dim == 1  # only the body diagonal
        assert spaces1["velocity"].interior_dim == 6  # six interior faces
        assert spaces1["lagrange"].interior_dim == 0


class TestForms:
    def test_pressure_mass_row_sums_are_volumes(self, spaces1, mesh1):
        m = assemble("mass", spaces1["pressure"])
        rows = np.asarray(m.matrix.sum(axis=1)).ravel()
        assert np.allclose(rows, float(mesh1.cell_volume(0)))

    def test_stiffness_spd_after_restriction(self, spaces1):
        a = assemble("gradcurl_stiffness", spaces1["gradcurl"])
        assert a.check_symmetry()
        mask = spaces1["gradcurl"].boundary_mask
        a0 = np.asarray(restrict_operator(a, mask, mask).todense())
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(a0.shape[0])
            if np.linalg.norm(x) > 0:
                assert x @ a0 @ x > 0

    def test_gradient_energy_is_mass_energy(self, spaces1):
        # for u_h = grad(phi_h), curl u_h = 0, so the grad-curl energy is mass-only
        quad = QuadratureRule(10)
        dg = discrete_d("grad", spaces1["lagrange"], spaces1["gradcurl"])
        p = Polynomial({(1, 0, 0): F(1), (0, 1, 1): F(2)})
        coeffs = spaces1["lagrange"].interpolate(FieldSample.from_scalar_polynomial(p), quad)
        u = dg.matrix @ coeffs
        a = assemble("gradcurl_stiffness", spaces1["gradcurl"]).matrix
        m = assemble("mass", spaces1["gradcurl"]).matrix
        assert abs(u @ (a @ u) - u @ (m @ u)) < 1e-11 * max(1.0, abs(u @ (m @ u)))

    def test_quadrature_degree_guard(self, spaces1):
        with pytest.raises(ValueError):
            assemble("mass", spaces1["gradcurl"], quad_degree=2)

    def test_order_independence(self, mesh1):
        # permuting the cell list must not change entries beyond roundoff
        perm = [3, 0, 5, 1, 4, 2]
        vertices = [mesh1.vertex_exact(v) for v in range(mesh1.n_vertices)]
        mesh_p = MeshTopology(vertices, mesh1.cells[perm])
        a1 = assemble("gradcurl_stiffness", GlobalSpace(mesh1, "gradcurl", 1, 1)).matrix
        a2 = assemble("gradcurl_stiffness", GlobalSpace(mesh_p, "gradcurl", 1, 1)).matrix
        diff = abs(a1 - a2).max()
        assert diff <= 1e-13 * max(1.0, abs(a1).max())


def _eval_many_tables(space, cell_id, degree, raw_cache=None):
    """Reference for ClassTables: every raw field evaluated per subtet with eval_many.

    Returns the tables by attribute name (values, and curl and grad_curl or
    grad).  ``raw_cache`` keeps the evaluations of an element shared by
    several cells, which only the inverse map of the Jacobians tells apart.
    """
    el, geom = space.elements[cell_id], space.cells_geom[cell_id]
    blocks = np.split(alfeld_composite(degree)[0], 4)

    def evaluate(fields, jac):
        raw = []
        for pw in fields:
            parts = []
            for piece, pts in zip(pw.to_float().pieces, blocks):
                if not jac:
                    parts.append(piece.eval_many(pts))
                    continue
                comps = getattr(piece, "comps", None)
                partials = [c.derivative(b) for c in comps or (piece,) for b in range(3)]
                d = np.stack([p.eval_many(pts) for p in partials], axis=-1)
                parts.append(d.reshape(len(pts), 3, 3) if comps else d)
            raw.append(np.concatenate(parts))
        return np.stack(raw)

    def table(fields, jac=False):
        key = (id(fields), degree, jac)
        cache = {} if raw_cache is None else raw_cache
        if key not in cache:
            cache[key] = evaluate(fields, jac)
        raw = cache[key]
        if jac:
            raw = raw @ geom.amap.inverse_f
        return np.einsum("j...,jm->m...", raw, el.nodal)

    out = {"values": table(el.basis)}
    if space.kind == "gradcurl":
        out["curl"] = table(el.curls)
        out["grad_curl"] = table(el.curls, jac=True)
    elif space.kind in ("velocity", "lagrange"):
        out["grad"] = table(el.basis, jac=True)
    return out


def _assert_tables_match(space, degree, label, raw_cache=None):
    for cells in space.classes:
        tab = ClassTables(space, cells[0], degree)
        for name, expected in _eval_many_tables(space, cells[0], degree, raw_cache).items():
            got = getattr(tab, name)
            assert got.shape == expected.shape, (label, name)
            np.testing.assert_allclose(
                got, expected, rtol=0, atol=1e-12 * np.abs(expected).max(), err_msg=f"{label} {name}"
            )


class TestClassTables:
    """Vandermonde class tables against per-field eval_many tables."""

    @pytest.mark.parametrize("rk", [(1, 1), (2, 2), (3, 3)])
    def test_structured_mesh(self, rk):
        spaces = get_spaces(2, *rk, SPACE_KINDS)
        for kind in SPACE_KINDS:
            degree = 14 if rk == (3, 3) and kind == "gradcurl" else 2 * spaces[kind].basis_degree
            _assert_tables_match(spaces[kind], degree, (rk, kind))

    @pytest.mark.parametrize("rk", [(1, 1), (2, 2), (3, 3)])
    def test_jittered_mesh(self, rk, numbering_meshes):
        # The builders are linear in the element's fields and the cell's
        # inverse map: the jittered cells' maps carry the Kuhn elements of
        # the same vertex order, which leaves out the exact construction
        # (minutes on 30 jittered classes).
        mesh = numbering_meshes["jittered"]
        for kind in SPACE_KINDS:
            kuhn = get_spaces(2, *rk, [kind])[kind]
            by_order = {kuhn.cells_geom[c[0]].amap.vertex_order: kuhn.elements[c[0]] for c in kuhn.classes}
            geoms = {int(c[0]): CellGeometry(mesh, int(c[0])) for c in mesh.classes}
            space = SimpleNamespace(
                kind=kind, mesh=mesh, classes=mesh.classes, basis_degree=kuhn.basis_degree,
                cells_geom=geoms,
                elements={ci: by_order[g.amap.vertex_order] for ci, g in geoms.items()},
            )
            assert len(space.classes) == 30
            _assert_tables_match(space, 2 * kuhn.basis_degree, (rk, kind), raw_cache={})


def _global_coo(form, space, degree, pressure_space=None):
    """Reference for assemble: every cell's local block as triplets, one coo->csr."""
    row_space = pressure_space or space
    rows, cols, vals = [], [], []
    for cells, tab, rtab in zip(
        space.classes, space.class_tables(degree), row_space.class_tables(degree)
    ):
        pairs = {
            "mass": ((tab.values, tab.values),),
            "gradcurl_stiffness": ((tab.grad_curl, tab.grad_curl), (tab.values, tab.values)),
            "h1": ((tab.grad, tab.grad),),
            "div_pressure": ((rtab.values, tab.div),),
        }[form]
        nq = len(tab.weights)
        local = sum(
            np.einsum("mqc,nqc,q->mn", a.reshape(len(a), nq, -1), b.reshape(len(b), nq, -1), tab.weights)
            for a, b in pairs
        ) * tab.det
        shape = (len(cells),) + local.shape
        rows.append(np.broadcast_to(row_space.local_to_global[cells][:, :, None], shape).ravel())
        cols.append(np.broadcast_to(space.local_to_global[cells][:, None, :], shape).ravel())
        vals.append(np.broadcast_to(local, shape).ravel())
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row_space.dim, space.dim),
    ).tocsr()


class TestPerClassAssembly:
    @pytest.mark.parametrize("rk", [(1, 1), (2, 2)])
    @pytest.mark.parametrize(
        "form, kind, pressure",
        [
            ("mass", "gradcurl", None),
            ("gradcurl_stiffness", "gradcurl", None),
            ("h1", "velocity", None),
            ("div_pressure", "velocity", "pressure"),
        ],
    )
    def test_matches_global_coo(self, rk, form, kind, pressure):
        spaces = get_spaces(2, *rk, [kind] + ([pressure] if pressure else []))
        space, other = spaces[kind], spaces.get(pressure)
        degree = 2 * space.basis_degree
        got = assemble(form, space, degree, pressure_space=other).matrix
        expected = _global_coo(form, space, degree, other)
        # the pattern keeps every coupled pair, exact cancellations included
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.indices, expected.indices)
        np.testing.assert_allclose(
            got.data, expected.data, rtol=0, atol=1e-14 * np.abs(expected.data).max()
        )


# (operator, source kind, target kind) of each map of the complex
_COMPLEX = (
    ("grad", "lagrange", "gradcurl"),
    ("curl", "gradcurl", "velocity"),
    ("div", "velocity", "pressure"),
)


def _translated(mesh, shift):
    """A copy of ``mesh`` moved by the exact vector ``shift``, with the same numbering."""
    vertices = [
        tuple(c + s for c, s in zip(mesh.vertex_exact(v), shift)) for v in range(mesh.n_vertices)
    ]
    return MeshTopology(vertices, mesh.cells)


def _per_entry_discrete_d(which, source, target):
    """Reference for discrete_d: a cell-by-cell, entry-by-entry assembly."""
    op = {"grad": phys_grad, "curl": phys_curl, "div": phys_div}[which]
    locals_by_class = {}
    entries = {}
    for ci in range(source.mesh.n_cells):
        geom = CellGeometry(source.mesh, ci)
        el_s = local_element(source.kind, source.r, source.k, geom)
        el_t = local_element(target.kind, target.r, target.k, geom)
        sig = geom.signature()
        if sig not in locals_by_class:
            derived = [op(geom, b) for b in el_s.basis]
            locals_by_class[sig] = dof_matrix(el_t.dofs, derived, geom) @ el_s.nodal
        local = locals_by_class[sig]
        for li, gi in enumerate(target.local_to_global[ci]):
            for lj, gj in enumerate(source.local_to_global[ci]):
                if local[li, lj] != 0.0:
                    entries[gi, gj] = local[li, lj]
    out = np.zeros((target.dim, source.dim))
    for (gi, gj), v in entries.items():
        out[gi, gj] = v
    return out


class TestDiscreteComplex:
    @pytest.mark.parametrize("rk", [(1, 1), (2, 2)])
    def test_batched_matches_per_entry(self, rk):
        mesh = build_structured_cube(2)
        spaces = {kind: GlobalSpace(mesh, kind, *rk) for kind in SPACE_KINDS}
        for which, source, target in _COMPLEX:
            ref = _per_entry_discrete_d(which, spaces[source], spaces[target])
            got = discrete_d(which, spaces[source], spaces[target]).matrix.toarray()
            assert np.abs(got - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max()), which

    def test_translated_mesh_matches(self):
        # the translated copy is built second, so each of its classes finds
        # the element that a cell of the original built
        mesh = build_structured_cube(2)
        copies = [
            {kind: GlobalSpace(m, kind, 1, 1) for kind in SPACE_KINDS}
            for m in (mesh, _translated(mesh, (1, 0, 0)))
        ]
        for which, source, target in _COMPLEX:
            a, b = (discrete_d(which, s[source], s[target]).matrix for s in copies)
            assert abs(a - b).max() <= 1e-12 * abs(a).max(), which

    def test_consistency_check_catches_perturbed_entry(self, spaces1, monkeypatch):
        calls = []

        def perturbed(dofs, basis, cell, curls=None):
            m = dof_matrix(dofs, basis, cell, curls)
            calls.append(cell)
            return m * (1 + 1e-6) if len(calls) == 2 else m  # one class disagrees

        monkeypatch.setattr(assembly_module, "dof_matrix", perturbed)
        args = ("curl", spaces1["gradcurl"], spaces1["velocity"])
        discrete_d(*args)  # without the check the matrix is assembled
        calls.clear()
        with pytest.raises(ArithmeticError, match="inconsistent shared DOF"):
            discrete_d(*args, check_consistency=True)

    @pytest.mark.parametrize(
        "n,rk", [(1, (1, 1)), (2, (1, 1)), (2, (2, 2))], ids=["1", "2", "2-r2-k2"]
    )
    def test_products_vanish(self, n, rk):
        mesh = build_structured_cube(n)
        spaces = {kind: GlobalSpace(mesh, kind, *rk) for kind in SPACE_KINDS}
        dg = discrete_d("grad", spaces["lagrange"], spaces["gradcurl"], check_consistency=True)
        dc = discrete_d("curl", spaces["gradcurl"], spaces["velocity"], check_consistency=True)
        dd = discrete_d("div", spaces["velocity"], spaces["pressure"], check_consistency=True)
        scale = max(1.0, abs(dc.matrix).max())
        assert abs(dc.matrix @ dg.matrix).max() < 1e-12 * scale
        assert abs(dd.matrix @ dc.matrix).max() < 1e-12 * scale

    def test_rank_identities_level_one(self, spaces1):
        dg = discrete_d("grad", spaces1["lagrange"], spaces1["gradcurl"])
        dc = discrete_d("curl", spaces1["gradcurl"], spaces1["velocity"])
        dd = discrete_d("div", spaces1["velocity"], spaces1["pressure"])
        rg, rc, rd = (_numeric_rank(m.matrix) for m in (dg, dc, dd))
        assert rg == spaces1["lagrange"].dim - 1
        assert spaces1["gradcurl"].dim - rc == rg
        assert rc == spaces1["velocity"].dim - rd
        assert rd == spaces1["pressure"].dim  # divergence is onto

    def test_restricted_rank_identities(self, spaces1):
        dg = discrete_d("grad", spaces1["lagrange"], spaces1["gradcurl"])
        dc = discrete_d("curl", spaces1["gradcurl"], spaces1["velocity"])
        dd = discrete_d("div", spaces1["velocity"], spaces1["pressure"])
        ml, mg, mv = (spaces1[k].boundary_mask for k in ("lagrange", "gradcurl", "velocity"))
        rg = _numeric_rank(dg.matrix[:, ~ml][~mg, :])
        rc = _numeric_rank(dc.matrix[:, ~mg][~mv, :])
        rd = _numeric_rank(dd.matrix[:, ~mv])
        dims = (
            spaces1["lagrange"].interior_dim,
            spaces1["gradcurl"].interior_dim,
            spaces1["velocity"].interior_dim,
            spaces1["pressure"].dim - 1,
        )
        assert rg == dims[0] and dims[1] - rc == rg
        assert rc == dims[2] - rd and rd == dims[3]
        assert dims[0] - dims[1] + dims[2] - dims[3] == 0


class TestConformity:
    def test_no_trace_jumps(self, spaces1):
        # random global velocity/gradcurl fields have continuous traces
        rng = np.random.default_rng(4)
        mesh = spaces1["velocity"].mesh
        from tetcomplex.elements import _eval_pw_vector, phys_curl

        for kind, probe in (("velocity", "value"), ("gradcurl", "curl")):
            space = spaces1[kind]
            coeffs = rng.standard_normal(space.dim)
            for fi, face in enumerate(mesh.faces):
                if mesh.face_boundary[fi]:
                    continue
                pts_phys = mesh.vertices_f[face].mean(axis=0)[None, :]
                vals = []
                for ci in mesh.face_cells[fi]:
                    geom = CellGeometry(mesh, ci)
                    local = coeffs[space.local_to_global[ci]]
                    ref = (pts_phys - geom.amap.shift_f) @ geom.amap.inverse_f.T
                    el = local_element(kind, space.r, space.k, geom)
                    fields = el.basis
                    raw = el.nodal @ local
                    acc = np.zeros(3)
                    for cj, b in zip(raw, fields):
                        fld = phys_curl(geom, b) if probe == "curl" else b
                        acc = acc + cj * _eval_pw_vector(fld, ref)[0]
                    vals.append(acc)
                jump = np.abs(vals[0] - vals[1]).max()
                scale = max(1.0, np.abs(vals[0]).max())
                assert jump < 1e-9 * scale, (kind, fi, jump)

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: the grad-curl space is not H(curl)-conforming; at N=2 for "
        "(1,1) the field's tangential trace jumps across all 72 interior faces, by up to "
        "9.6e-1, while its curl is continuous. Mending it changes the quadcurl outputs "
        "pinned in perfbench/reference.json.",
    )
    def test_gradcurl_tangential_trace_continuous(self):
        from tetcomplex.elements import _eval_pw_vector

        space = GlobalSpace(build_structured_cube(2), "gradcurl", 1, 1)
        mesh = space.mesh
        coeffs = np.random.default_rng(4).standard_normal(space.dim)
        # barycentric face points: the centroid and four interior points
        bary = np.array(
            [[1, 1, 1], [3, 1, 1], [1, 3, 1], [1, 1, 3], [5, 3, 2]], float
        )
        bary /= bary.sum(axis=1, keepdims=True)
        worst = 0.0
        for fi, face in enumerate(mesh.faces):
            if mesh.face_boundary[fi]:
                continue
            pts = bary @ mesh.vertices_f[face]
            vals = []
            for ci in mesh.face_cells[fi]:
                geom = CellGeometry(mesh, ci)
                normal = next(f["normal"] for f in geom.faces if f["global"] == fi)
                el = local_element(space.kind, space.r, space.k, geom)
                ref = (pts - geom.amap.shift_f) @ geom.amap.inverse_f.T
                raw = el.nodal @ coeffs[space.local_to_global[ci]]
                vals.append(sum(c * _eval_pw_vector(b, ref) for c, b in zip(raw, el.basis)))
            jump = vals[0] - vals[1]
            tangential = jump - np.outer(jump @ normal, normal)
            worst = max(worst, np.abs(tangential).max() / max(1.0, np.abs(vals[0]).max()))
        assert worst < 1e-9


class TestInterpolationAndNorms:
    def test_polynomial_reproduced(self, spaces1):
        quad = QuadratureRule(10)
        u = VectorField(
            (Polynomial.constant(1), Polynomial.constant(-2), Polynomial.constant(F(1, 2)))
        )
        sample = FieldSample.from_vector_polynomial(u)
        coeffs = spaces1["gradcurl"].interpolate(sample, quad)
        errs = error_norms(spaces1["gradcurl"], coeffs, sample, 8)
        assert max(errs) < 1e-10

    def test_error_scaling(self, spaces1):
        quad = QuadratureRule(8)
        rng = np.random.default_rng(2)

        def poly(deg):
            return Polynomial(
                {e: F(int(rng.integers(-3, 4)), 2) for e in monomial_exponents(deg)}
            )

        u = VectorField((poly(2), poly(2), poly(2)))
        sample = FieldSample.from_vector_polynomial(u)
        coeffs = spaces1["gradcurl"].interpolate(sample, quad)
        base = error_norms(spaces1["gradcurl"], coeffs, sample, 8)

        scaled = FieldSample.from_vector_polynomial(u * 3)
        errs = error_norms(spaces1["gradcurl"], 3 * coeffs, scaled, 8)
        for a, b in zip(errs, base):
            assert a == pytest.approx(3 * b, rel=1e-10, abs=1e-13)

    @pytest.mark.parametrize("kind", SPACE_KINDS)
    def test_batched_interpolation_matches_per_cell(self, kind):
        # N=2 puts eight translated cells in every congruence class; the
        # translated mesh finds every class's element in the cache
        mesh = build_structured_cube(2)
        scalar = kind in ("lagrange", "pressure")
        ms = ManufacturedSolution()
        manufactured = ms.pressure_sample() if scalar else ms.solution_sample()
        rng = np.random.default_rng(8)
        polys = [
            Polynomial({e: F(int(rng.integers(-4, 5)), 3) for e in monomial_exponents(3)})
            for _ in range(1 if scalar else 3)
        ]
        random_poly = (
            FieldSample.from_scalar_polynomial(polys[0])
            if scalar
            else FieldSample.from_vector_polynomial(VectorField(tuple(polys)))
        )
        quad = QuadratureRule(8)
        for m, sample in (
            (mesh, manufactured),
            (_translated(mesh, (1, 0, 0)), manufactured),
            (mesh, random_poly),
        ):
            space = GlobalSpace(m, kind, 1, 1)
            coeffs = space.interpolate(sample, quad)
            for ci in range(m.n_cells):
                geom = CellGeometry(m, ci)
                local = [d.apply_sample(sample, quad, geom) for d in build_dofs(kind, geom, 1, 1)]
                np.testing.assert_allclose(
                    coeffs[space.local_to_global[ci]], local, rtol=0, atol=1e-12
                )

    def test_batched_load_matches_per_cell(self):
        space = GlobalSpace(build_structured_cube(2), "gradcurl", 1, 1)
        sample = ManufacturedSolution().forcing_sample()
        load = assemble_load(space, sample, 8)
        expected = np.zeros(space.dim)
        tables = {}
        for ci in range(space.mesh.n_cells):
            geom = CellGeometry(space.mesh, ci)
            if geom.signature() not in tables:  # a class's first cell carries its tables
                tables[geom.signature()] = ClassTables(space, ci, 8)
            tab = tables[geom.signature()]
            fv = sample.value(geom.amap.apply(tab.ref_points))
            local = np.einsum("qc,mqc,q->m", fv, tab.values, tab.weights) * tab.det
            np.add.at(expected, space.local_to_global[ci], local)
        np.testing.assert_allclose(load, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_point_chunks_do_not_change_results(self, monkeypatch):
        space = GlobalSpace(build_structured_cube(2), "gradcurl", 1, 1)
        ms = ManufacturedSolution()
        quad = QuadratureRule(8)

        def evaluate(modal):
            # without modes every sample goes through its point evaluators
            solution, forcing = ms.solution_sample(), ms.forcing_sample()
            if not modal:
                solution = dataclasses.replace(solution, modes=None)
                forcing = dataclasses.replace(forcing, modes=None)
            coeffs = space.interpolate(solution, quad)
            load = assemble_load(space, forcing, 8)
            return coeffs, load, np.array(error_norms(space, coeffs, solution, 8))

        whole = [evaluate(modal) for modal in (False, True)]
        # chunks smaller than one class split every class into several calls
        monkeypatch.setattr(assembly_module, "_POINT_CHUNK", 1000)
        for modal, expected in zip((False, True), whole):
            for a, b in zip(evaluate(modal), expected):
                np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())

    def test_velocity_h1_error_of_linear_interpolant(self):
        # u(x, y, z) = (1 + 2y - z, x - 3z, 2x + y + z): a non-symmetric constant Jacobian
        x, y, z = (Polynomial.variable(i, 3) for i in range(3))
        u = VectorField((1 + 2 * y - z, x - 3 * z, 2 * x + y + z))
        sample = FieldSample.from_vector_polynomial(u)
        space = GlobalSpace(build_structured_cube(2), "velocity", 1, 1)
        coeffs = space.interpolate(sample, QuadratureRule(8))
        errs = error_norms(space, coeffs, sample, 8)
        assert errs[0] <= 1e-10 and errs[3] <= 1e-10
        # zero coefficients leave |grad u| over the unit cube: sqrt(sum J_ij^2)
        zero = error_norms(space, np.zeros(space.dim), sample, 8)
        assert zero[3] == pytest.approx(np.sqrt(4 + 1 + 1 + 9 + 4 + 1 + 1), rel=1e-12)

    def test_class_tables_built_once_per_space_and_degree(self, monkeypatch):
        space = GlobalSpace(build_structured_cube(2), "gradcurl", 1, 1)
        ms = ManufacturedSolution()
        built = []

        def counted(*args):
            built.append(args[1])
            return ClassTables(*args)

        monkeypatch.setattr(assembly_module, "ClassTables", counted)
        assemble("gradcurl_stiffness", space, 8)
        assemble_load(space, ms.forcing_sample(), 8)
        error_norms(space, np.zeros(space.dim), ms.solution_sample(), 8)
        assert len(built) == len(space.classes) == 6
        assert sorted(built) == sorted(cells[0] for cells in space.classes)

    def test_error_factors_reused_across_samples(self, monkeypatch):
        ms = ManufacturedSolution()
        first = ms.solution_sample()
        other = dataclasses.replace(
            first, modes=TranslationModes({name: -2.5 * t for name, t in first.modes.tensors.items()})
        )
        coeffs = np.random.default_rng(3).standard_normal(
            get_spaces(2, 1, 1, ["gradcurl"])["gradcurl"].dim
        )
        cold = error_norms(GlobalSpace(build_structured_cube(2), "gradcurl", 1, 1), coeffs, other, 8)
        warm = GlobalSpace(build_structured_cube(2), "gradcurl", 1, 1)
        error_norms(warm, np.zeros(warm.dim), first, 8)
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: calls.append(1) or qr(*a, **kw))
        again = error_norms(warm, coeffs, other, 8)
        assert calls == []
        np.testing.assert_allclose(again, cold, rtol=1e-14, atol=0)

    def test_interpolant_matches_modal_stencil_values(self):
        # the interpolant evaluates the sample pointwise; the translation
        # modes give the same stencil values
        space = get_spaces(2, 1, 1, ["gradcurl"])["gradcurl"]
        sample = ManufacturedSolution().solution_sample()
        quad = QuadratureRule(8)
        expected = np.zeros(space.dim)
        for cells in space.classes:
            first = space.cells_geom[cells[0]]
            shifts = space.mesh.cell_shifts[cells] - space.mesh.cell_shifts[cells[0]]
            for i, dof in enumerate(build_dofs("gradcurl", first, 1, 1)):
                use, pts, wts = dof.stencil(quad)
                pts = first.amap.apply(pts)
                vals = np.moveaxis(sample.modes.coefficients(use, shifts) @ sample.modes.template(pts), -1, 1)
                expected[space.local_to_global[cells, i]] = np.tensordot(vals, wts, axes=wts.ndim)
        got = space.interpolate(sample, quad)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("k", [1, 2])
    def test_velocity_div_table_is_exact_divergence(self, k):
        space = GlobalSpace(build_structured_cube(1), "velocity", k, k)
        for cells, tab in zip(space.classes, space.class_tables(8)):
            el, geom = space.elements[cells[0]], space.cells_geom[cells[0]]
            blocks = np.split(tab.ref_points, 4)
            raw = np.stack([
                np.concatenate([
                    piece.eval_many(pts)
                    for piece, pts in zip(phys_div(geom, b).to_float().pieces, blocks)
                ])
                for b in el.basis
            ])
            exact = np.einsum("jq,jm->mq", raw, el.nodal)
            np.testing.assert_allclose(tab.div, exact, rtol=0, atol=1e-12 * np.abs(exact).max())

    def test_export_roundtrip(self, spaces1, tmp_path):
        m = assemble("mass", spaces1["pressure"])
        path = tmp_path / "mass.txt"
        m.export_text(path)
        lines = path.read_text().strip().split("\n")
        nr, nc, nnz = (int(t) for t in lines[0].split())
        assert (nr, nc) == m.shape and nnz == len(lines) - 1
        i, j, v = lines[1].split()
        assert float(v) == m.matrix[int(i), int(j)]


class TestStructuredEvaluation:
    """Manufactured-solution fields from translation modes equal flat evaluation."""

    EVALUATORS = (
        "value", "curl", "grad_curl", "divergence", "jacobian", "forcing",
        "stokes_forcing", "pressure", "pressure_gradient",
    )

    @pytest.mark.parametrize("variant", ["kuhn3", "permuted", "jittered"])
    def test_class_chunks(self, variant, numbering_meshes):
        mesh = build_structured_cube(3) if variant == "kuhn3" else numbering_meshes[variant]
        ms = ManufacturedSolution()
        modes = ms.translation_modes(**{name: getattr(ms, name) for name in self.EVALUATORS})
        ref_points = alfeld_composite(6)[0]
        space = SimpleNamespace(mesh=mesh)
        for cells in mesh.classes:
            points = CellGeometry(mesh, int(cells[0])).amap.apply(ref_points)
            template = modes.template(points)
            for chunk, shifts in assembly_module._chunks(space, cells, len(points)):
                moved = (shifts[:, None, :] + points).reshape(-1, 3)
                for name in self.EVALUATORS:
                    expected = getattr(ms, name)(moved)
                    got = np.moveaxis(modes.coefficients(name, shifts) @ template, -1, 1)
                    # the divergence is 0 up to the rounding of its terms
                    scale = np.abs(ms.jacobian(moved) if name == "divergence" else expected)
                    np.testing.assert_allclose(
                        got.reshape(expected.shape), expected,
                        rtol=0, atol=1e-14 * scale.max(), err_msg=name,
                    )

    def test_point_evaluators_reject_mode_factors_beyond_trig(self):
        class WithPolynomial(ManufacturedSolution):
            def pressure(self, pts, factors=None):
                return super().pressure(pts, factors) + np.asarray(pts)[:, 0]

        with pytest.raises(ValueError, match="trigonometric"):
            WithPolynomial().pressure_sample()


class TestModalMatchesPointwise:
    """Load and error norms from translation modes against the point evaluators."""

    @staticmethod
    def _compare(space, quad_degree, samples, load_sample=None):
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(space.dim)
        for sample in samples:
            flat = dataclasses.replace(sample, modes=None)
            modal = np.array(error_norms(space, coeffs, sample, quad_degree))
            pointwise = np.array(error_norms(space, coeffs, flat, quad_degree))
            np.testing.assert_allclose(modal, pointwise, rtol=1e-12, atol=0)
            near = space.interpolate(flat, QuadratureRule(quad_degree))
            near += 1e-3 * coeffs  # an error far below the field
            modal = np.array(error_norms(space, near, sample, quad_degree))
            pointwise = np.array(error_norms(space, near, flat, quad_degree))
            np.testing.assert_allclose(modal, pointwise, rtol=1e-12, atol=0)
        if load_sample is not None:
            modal = assemble_load(space, load_sample, quad_degree)
            pointwise = assemble_load(space, dataclasses.replace(load_sample, modes=None), quad_degree)
            np.testing.assert_allclose(modal, pointwise, rtol=0, atol=1e-12 * np.abs(pointwise).max())

    @pytest.mark.parametrize("rk", [(1, 1), (2, 1), (3, 3)])
    def test_gradcurl(self, rk):
        space = get_spaces(2, *rk, ["gradcurl"])["gradcurl"]
        ms = ManufacturedSolution()
        degree = 2 * space.basis_degree
        self._compare(space, degree, [ms.solution_sample()], ms.forcing_sample())

    def test_velocity_pressure(self):
        spaces = get_spaces(2, 1, 1, ["velocity", "pressure"])
        ms = ManufacturedSolution()
        degree = 2 * spaces["velocity"].basis_degree
        self._compare(
            spaces["velocity"], degree, [ms.solution_sample()], ms.stokes_forcing_sample(0.5)
        )
        self._compare(spaces["pressure"], degree, [ms.pressure_sample()])

    def test_mesh_and_space_builds_are_logged(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="tetcomplex"):
            space = GlobalSpace(build_structured_cube(2), "pressure", 1, 1)
        messages = {
            r.name: r.getMessage() for r in caplog.records
            if r.name in ("tetcomplex.mesh", "tetcomplex.assembly")
        }
        assert messages["tetcomplex.mesh"].startswith("structured cube N=2: 48 cells, 6 classes, 27 vertices, ")
        assert messages["tetcomplex.assembly"].startswith(
            f"space pressure(1,1): 48 cells, 6 classes, {space.dim} dofs, "
        )

    def test_one_debug_record_per_layer(self, caplog):
        space = GlobalSpace(build_structured_cube(2), "gradcurl", 1, 1)
        ms = ManufacturedSolution()
        with caplog.at_level(logging.DEBUG, logger="tetcomplex.assembly"):
            assemble("gradcurl_stiffness", space, 8)
            assemble_load(space, ms.forcing_sample(), 8)
            error_norms(space, np.zeros(space.dim), ms.solution_sample(), 8)
            error_norms(space, np.ones(space.dim), ms.solution_sample(), 8)
            error_norms(space, np.zeros(space.dim), FieldSample(lambda p: np.zeros((len(p), 3))), 8)
        records = [r for r in caplog.records if r.name == "tetcomplex.assembly"]
        assert [(r.layer, r.path, r.modes, r.factors) for r in records] == [
            ("class tables gradcurl degree 8", "vandermonde", 0, None),
            ("assemble gradcurl_stiffness", "tables", 0, None),
            ("load gradcurl", "modal", 64, None),
            ("error norms gradcurl", "modal", 64, "built"),
            ("error norms gradcurl", "modal", 64, "reused"),
            ("error norms gradcurl", "pointwise", 0, None),
        ]
        for r in records:
            assert (r.classes, r.cells) == (6, 48) and r.seconds >= 0
            assert r.getMessage().startswith(f"{r.layer}: 6 classes, 48 cells, {r.path} path")
