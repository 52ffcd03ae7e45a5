"""Local elements: dimensions, unisolvence, exactness, polynomial reproduction."""

from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tetcomplex.elements import (
    CellGeometry,
    SPACE_KINDS,
    dof_matrix,
    entity_dof_counts,
    element_info,
    local_element,
    local_complex_matrices,
    local_exactness_table,
    phys_curl,
    phys_div,
    phys_grad,
    poly_inclusion_check,
    reference_cell,
    space_dimension,
    validate_family,
)
from tetcomplex.mesh import random_rational_cell
from tetcomplex.polyalg import IntegerFields, as_piecewise, curl, div, grad
from tetcomplex.polyalg.poly import _det3, _inv3
from tetcomplex.polyalg.spaces import rank as exact_rank

CONFIGS = [(1, 1), (2, 1), (3, 1), (2, 2), (3, 3)]


def _coords(fields):
    """Exact coordinates of (piecewise) fields: each piece's coefficients by component and exponent."""
    pieces = [[getattr(p, "comps", (p,)) for p in as_piecewise(f).pieces] for f in fields]
    keys = sorted({(i, c, e) for f in pieces for i, p in enumerate(f) for c, comp in enumerate(p) for e in comp.coeffs})
    return [[f[i][c].coeffs.get(e, 0) for i, c, e in keys] for f in pieces]


def _in_span(basis, fields):
    return exact_rank(_coords(basis)) == exact_rank(_coords(list(basis) + list(fields)))


# References for the numerator operators: Fraction polynomials, piece by piece


def _transpose(matrix):
    return [[matrix[j][i] for j in range(3)] for i in range(3)]


def _reference_grad(matrix, field):
    """``B^-T grad p``."""
    inverse_t = _transpose(_inv3(matrix))
    return field.map(lambda p: grad(p).matmul(inverse_t))


def _reference_curl(matrix, field):
    """``B curl(B^T u) / det B``."""
    return field.map(lambda p: curl(p.matmul(_transpose(matrix))).matmul(matrix) * (1 / _det3(matrix)))


def _reference_div(matrix, field):
    """``div(B^-1 u)``."""
    inverse = _inv3(matrix)
    return field.map(lambda p: div(p.matmul(inverse)))


_REFERENCES = {"grad": _reference_grad, "curl": _reference_curl, "div": _reference_div}
_OPERATORS = {"grad": phys_grad, "curl": phys_curl, "div": phys_div}
_COMPLEX = (("grad", "lagrange", "gradcurl"), ("curl", "gradcurl", "velocity"), ("div", "velocity", "pressure"))


class TestDimensions:
    def test_lowest_order_fingerprint(self):
        dims = [space_dimension(kind, 1, 1) for kind in SPACE_KINDS]
        assert dims == [4, 18, 16, 1]

    @pytest.mark.parametrize(
        "r,k,expected",
        [
            (2, 1, [10, 24, 16, 1]),
            (3, 1, [20, 34, 16, 1]),
            (2, 2, [10, 42, 37, 4]),
            (3, 3, [20, 78, 69, 10]),
        ],
    )
    def test_family_dimensions(self, r, k, expected):
        assert [space_dimension(kind, r, k) for kind in SPACE_KINDS] == expected

    @pytest.mark.parametrize("r,k", CONFIGS)
    def test_alternating_sum(self, r, k):
        dims = {kind: space_dimension(kind, r, k) for kind in SPACE_KINDS}
        assert (
            1 - dims["lagrange"] + dims["gradcurl"] - dims["velocity"] + dims["pressure"]
        ) == 0

    @pytest.mark.parametrize("r,k", [(k + d, k) for k in range(1, 7) for d in range(3)])
    def test_closed_form_dimensions(self, r, k):
        # counted from the functionals on the reference cell, so every DOF
        # family is built: velocity cell moments from k = 4, grad-curl
        # cross-position moments from k = 5 and cell moments from r = 4
        def split_dim(j):  # |S_j|, the layered space of the interior bubbles
            return comb(j + 2, 2) + comb(j + 1, 2)

        interior = split_dim(k - 1) if k >= 3 else (3 if k == 2 else 0)
        velocity = 3 * comb(k + 3, 3) + 4 * (k <= 2) + interior
        expected = {
            "lagrange": comb(r + 3, 3),
            "gradcurl": velocity + comb(r + 3, 3) - comb(k + 2, 3) - 1,
            "velocity": velocity,
            "pressure": comb(k + 2, 3),
        }
        assert {kind: space_dimension(kind, r, k) for kind in SPACE_KINDS} == expected

    def test_velocity_case_split(self):
        assert space_dimension("velocity", 1, 1) == 16  # 12 + 4 face bubbles
        assert space_dimension("velocity", 2, 2) == 37  # 30 + 4 + 3
        assert space_dimension("velocity", 3, 3) == 69  # 60 + 9

    def test_family_constraint(self):
        with pytest.raises(ValueError):
            validate_family(4, 1)
        with pytest.raises(ValueError):
            validate_family(1, 2)
        with pytest.raises(ValueError):
            validate_family(0, 0)

    @pytest.mark.parametrize("r,k", CONFIGS)
    def test_dof_counts_match_dimensions(self, r, k):
        for kind in SPACE_KINDS:
            counts = entity_dof_counts(kind, r, k)
            total = (
                4 * counts["vertex"]
                + 6 * counts["edge"]
                + 4 * counts["face"]
                + counts["cell"]
            )
            assert total == space_dimension(kind, r, k)

    def test_gradcurl_dof_layout_lowest(self):
        counts = entity_dof_counts("gradcurl", 1, 1)
        assert counts == {"vertex": 3, "edge": 1, "face": 0, "cell": 0}

    def test_gradcurl_dof_layout_22(self):
        counts = entity_dof_counts("gradcurl", 2, 2)
        assert counts == {"vertex": 3, "edge": 5, "face": 0, "cell": 0}
        assert 4 * 3 + 6 * 5 == 42

    def test_velocity_dof_layout_lowest(self):
        counts = entity_dof_counts("velocity", 1, 1)
        assert counts == {"vertex": 3, "edge": 0, "face": 1, "cell": 0}


class TestUnisolvence:
    @pytest.mark.parametrize("r,k", CONFIGS)
    def test_reference_cell(self, r, k):
        for kind in SPACE_KINDS:
            el = local_element(kind, r, k)
            assert el.dimension == space_dimension(kind, r, k)
            assert el.condition < 1e8
            resid = np.abs(el.dof_matrix @ el.nodal - np.eye(el.dimension)).max()
            assert resid < 1e-12

    @pytest.mark.parametrize("r,k", [(1, 1), (2, 2)])
    def test_random_cells(self, r, k):
        rng = np.random.default_rng(17 * r + k)
        for _ in range(3):
            cell = CellGeometry.standalone(random_rational_cell(rng))
            for kind in ("gradcurl", "velocity"):
                el = local_element(kind, r, k, cell)
                assert el.condition < 1e8


class TestLocalExactness:
    @pytest.mark.parametrize("r,k", CONFIGS)
    def test_rank_table(self, r, k):
        t = local_exactness_table(r, k)
        dims = t["dims"]
        assert t["curl_grad_zero"] and t["div_curl_zero"]
        assert t["rank_grad"] == dims["lagrange"] - 1
        assert t["nullity_curl"] == t["rank_grad"]
        assert t["rank_curl"] == t["nullity_div"]
        assert t["rank_div"] == dims["pressure"]
        assert t["alternating_sum"] == 0 and t["exact"]


class TestConformity:
    @pytest.mark.parametrize("r,k", CONFIGS)
    def test_curl_of_gradcurl_inside_velocity(self, r, k):
        # the physical curl of every grad-curl basis field, formed on Fraction
        # polynomials, lies in the velocity span, exactly
        from tetcomplex.elements import build_raw_basis

        cell = CellGeometry.standalone(random_rational_cell(np.random.default_rng(r + 7 * k)))
        gc, _ = build_raw_basis("gradcurl", cell, r, k)
        vel, _ = build_raw_basis("velocity", cell, r, k)
        assert _in_span(vel, [_reference_curl(cell.amap.matrix, u) for u in gc])

    def test_gradients_inside_gradcurl(self):
        # every Lagrange gradient, formed on Fraction polynomials, lies in the grad-curl span
        from tetcomplex.elements import build_raw_basis, lagrange_raw

        for r, k in CONFIGS:
            cell = reference_cell()
            gc, _ = build_raw_basis("gradcurl", cell, r, k)
            assert _in_span(gc, [_reference_grad(cell.amap.matrix, p) for p in lagrange_raw(r)])

    @pytest.mark.parametrize("r,k", CONFIGS)
    def test_local_complex_matches_fraction_reference(self, r, k):
        # each image, formed on Fraction polynomials, is the exact combination
        # of the target basis that ``local_complex_matrices`` gives
        from fractions import Fraction

        from tetcomplex.elements import build_raw_basis

        cell = reference_cell()
        bases = {kind: list(build_raw_basis(kind, cell, r, k)[0]) for kind in SPACE_KINDS}
        for (which, source, target), matrix in zip(_COMPLEX, local_complex_matrices(r, k)):
            for j, field in enumerate(bases[source]):
                image = _REFERENCES[which](cell.amap.matrix, field)
                combo = sum((b * matrix[i][j] for i, b in enumerate(bases[target]) if matrix[i][j]), image * Fraction(0))
                assert combo == image, (which, j)


class TestPolynomialReproduction:
    @pytest.mark.parametrize("r,k,s", [(1, 1, 0), (2, 1, 1), (3, 1, 2)])
    def test_inclusion_order(self, r, k, s):
        rep = poly_inclusion_check(r, k)
        assert rep["s"] == s and rep["ok"]


def test_element_info_shape():
    info = element_info(1, 1)
    assert info["dimensions"]["gradcurl"] == 18
    assert info["exactness"]["exact"]
    assert set(info["entity_dofs"]) == set(SPACE_KINDS)


def _class_representatives(n):
    from tetcomplex.mesh import build_structured_cube

    mesh = build_structured_cube(n)
    return [CellGeometry(amap) for amap in mesh.class_maps]


@pytest.fixture
def fresh_cache(monkeypatch):
    from tetcomplex import elements

    cache = elements.ElementCache()
    monkeypatch.setattr(elements, "_element_cache", cache)
    return cache


def _raw_builds(monkeypatch):
    """Record the kind of every exact raw-basis build."""
    from tetcomplex import elements

    builds = []
    build = elements.build_raw_basis
    monkeypatch.setattr(
        elements,
        "build_raw_basis",
        lambda *args, **kwargs: builds.append(args[0]) or build(*args, **kwargs),
    )
    return builds


def _direct_element(monkeypatch, kind, r, k, cell):
    """The element built from scratch on ``cell``, outside the shared cache."""
    from tetcomplex import elements

    cache = elements._element_cache
    monkeypatch.setattr(elements, "_element_cache", elements.ElementCache())
    try:
        return local_element(kind, r, k, cell)
    finally:
        monkeypatch.setattr(elements, "_element_cache", cache)


def _nodal_at_quadrature(fields, nodal, degree=4):
    """Nodal functions at the split-rule points, one block of points per subtet."""
    from tetcomplex.quadrature import alfeld_composite

    blocks = np.split(alfeld_composite(degree)[0], 4)
    raw = np.stack([
        np.concatenate([p.eval_many(b) for p, b in zip(f.to_float().pieces, blocks)])
        for f in fields
    ])
    return np.tensordot(nodal.T, raw, axes=1)


def _assert_same_element(derived, direct):
    """Exact span and curls of the raw basis; nodal functions to 1e-12 relative."""
    coords = _coords(derived.basis + direct.basis)
    ours, theirs = coords[:direct.dimension], coords[direct.dimension:]
    assert exact_rank(ours) == exact_rank(theirs) == exact_rank(ours + theirs) == direct.dimension
    pairs = [(derived.basis, direct.basis)]
    if direct.curls is not None:
        assert derived.curls == [_reference_curl(derived.cell.amap.matrix, b) for b in derived.basis]
        pairs.append((derived.curls, direct.curls))
    for ours_f, theirs_f in pairs:
        got = _nodal_at_quadrature(ours_f, derived.nodal)
        want = _nodal_at_quadrature(theirs_f, direct.nodal)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestHomothety:
    """Finer Kuhn levels derive their elements from the first level's build."""

    @pytest.mark.parametrize(
        "kind,r,k",
        [
            ("gradcurl", 1, 1),
            ("gradcurl", 2, 1),
            ("gradcurl", 2, 2),
            ("gradcurl", 3, 3),
            ("velocity", 1, 1),
            ("velocity", 2, 2),
            ("velocity", 3, 3),
        ],
    )
    def test_derived_equals_direct_build(self, kind, r, k, monkeypatch, fresh_cache):
        # one class per level (the first at N=2, the last at N=3) keeps the
        # cost of the direct builds down; the first N=1 class is built, and
        # every other cell derives from it, by homothety alone at N=2
        picks = {2: 0, 3: -1}
        coarse = _class_representatives(1)
        for i in picks.values():
            local_element(kind, r, k, coarse[i])
        for n, i in picks.items():
            cell = _class_representatives(n)[i]
            derived = local_element(kind, r, k, cell)
            direct = _direct_element(monkeypatch, kind, r, k, cell)
            if n == 2:
                assert derived.basis == direct.basis
                assert derived.curls == direct.curls
                scale = np.abs(direct.nodal).max()
                assert np.abs(derived.nodal - direct.nodal).max() <= 1e-12 * scale
            _assert_same_element(derived, direct)
        assert (fresh_cache.built, fresh_cache.derived) == (1, 3)

    def test_scaled_cell_reuses_first_build(self, monkeypatch, fresh_cache):
        from fractions import Fraction

        from tetcomplex import elements

        raw_builds = _raw_builds(monkeypatch)
        verts = [
            (Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(1, 2), Fraction(1), Fraction(0)),
            (Fraction(1, 3), Fraction(1, 4), Fraction(1)),
        ]
        first = local_element("gradcurl", 1, 1, CellGeometry.standalone(verts))
        doubled = local_element(
            "gradcurl", 1, 1, CellGeometry.standalone([tuple(2 * c for c in v) for v in verts])
        )
        assert len(raw_builds) == 1
        assert (fresh_cache.built, fresh_cache.derived) == (1, 1)
        _, powers = elements.gradcurl_raw(doubled.cell, 1, 1)
        assert doubled.basis == [b * Fraction(2) ** a for b, a in zip(first.basis, powers)]

        # a reflection is a similarity, a shear is not
        reflected = [(-x, y, z) for x, y, z in verts]
        sheared = [(x + y, y, z) for x, y, z in verts]
        for other in (reflected, sheared):
            local_element("gradcurl", 1, 1, CellGeometry.standalone(other))
        assert len(raw_builds) == 2
        assert (fresh_cache.built, fresh_cache.derived, fresh_cache.hits) == (2, 2, 0)
        local_element("gradcurl", 1, 1, CellGeometry.standalone(sheared))
        assert fresh_cache.hits == 1 and len(fresh_cache) == 4

    def test_build_and_derivation_are_logged(self, caplog, fresh_cache):
        cells = [_class_representatives(n)[0] for n in (1, 2)] + [_class_representatives(2)[1]]
        with caplog.at_level("DEBUG", logger="tetcomplex.elements"):
            for cell in cells:
                local_element("velocity", 1, 1, cell)
        messages = [rec.getMessage() for rec in caplog.records if rec.name == "tetcomplex.elements"]
        assert len(messages) == 3
        assert messages[0].startswith("built velocity(1,1) element in ")
        assert messages[1].startswith(
            "derived velocity(1,1) element (t=1/2, Q=(x,y,z), vertices (0,1,2,3)) in "
        )
        assert messages[2].startswith(
            "derived velocity(1,1) element (t=1/2, Q=(x,z,y), vertices (0,1,3,2)) in "
        )


def _similar(matrix, similarity):
    """``Q matrix S`` for a similarity ``(perm, signs, cols)``, entry by entry."""
    perm, signs, cols = similarity
    return tuple(
        tuple(matrix[p][c] if s > 0 else -matrix[p][c] for c in cols)
        for p, s in zip(perm, signs)
    )


def integer_matrices(bound):
    return st.lists(st.integers(-bound, bound), min_size=9, max_size=9).map(
        lambda v: tuple(tuple(v[3 * i:3 * i + 3]) for i in range(3))
    )


class TestSimilarityImages:
    """The int64 image array gives the least image and the first matching similarity of the scans."""

    @given(st.one_of(integer_matrices(3), integer_matrices(2**40)))
    @settings(max_examples=200, deadline=None)
    def test_orbit_key_is_least_image(self, shape):
        from tetcomplex.elements import _SIMILARITIES

        key = CellGeometry.orbit_key(SimpleNamespace(shape=lambda: shape))
        assert key == min(_similar(shape, s) for s in _SIMILARITIES)
        assert all(type(v) is int for row in key for v in row)

    @given(integer_matrices(3), st.integers(0, 287))
    @settings(max_examples=200, deadline=None)
    def test_lookup_finds_the_first_similarity(self, shape, pick):
        # small entries repeat, so several similarities often match
        from tetcomplex.elements import _SIMILARITIES, similarity_between

        image = _similar(shape, _SIMILARITIES[pick])
        cell0 = SimpleNamespace(shape=lambda: shape, scale=2)
        cell = SimpleNamespace(shape=lambda: image, scale=1)
        t, similarity = similarity_between(cell0, cell)
        assert t == 0.5
        assert similarity == next(s for s in _SIMILARITIES if _similar(shape, s) == image)


class TestCollectorPause:
    def test_restores_the_prior_state(self):
        import gc

        from tetcomplex.elements import _collector_paused

        enabled = gc.isenabled()
        try:
            for before in (True, False):
                (gc.enable if before else gc.disable)()
                with _collector_paused():
                    assert not gc.isenabled()
                assert gc.isenabled() == before
            gc.enable()
            with pytest.raises(ZeroDivisionError), _collector_paused():
                1 / 0
            assert gc.isenabled()
        finally:
            (gc.enable if enabled else gc.disable)()


class TestSimilarity:
    """The six Kuhn classes are one orbit of ``B -> t Q B S``: one exact build."""

    @pytest.mark.parametrize(
        "kind,r,k",
        [
            ("gradcurl", 1, 1),
            ("gradcurl", 2, 1),
            ("gradcurl", 2, 2),
            ("velocity", 1, 1),
            ("velocity", 2, 2),
        ],
    )
    def test_every_class_derives_the_direct_element(self, kind, r, k, monkeypatch, fresh_cache):
        cells = _class_representatives(2)
        derived = [local_element(kind, r, k, cell) for cell in cells]
        assert (fresh_cache.built, fresh_cache.derived) == (1, 5)
        for el in derived[1:]:
            _assert_same_element(el, _direct_element(monkeypatch, kind, r, k, el.cell))

    def test_kuhn_spaces_build_once_per_family(self, monkeypatch, fresh_cache, caplog):
        from tetcomplex.assembly import GlobalSpace
        from tetcomplex.mesh import build_structured_cube

        raw_builds = _raw_builds(monkeypatch)
        with caplog.at_level("DEBUG", logger="tetcomplex.assembly"):
            for n in (2, 3):
                mesh = build_structured_cube(n)
                for kind in SPACE_KINDS:
                    GlobalSpace(mesh, kind, 1, 1)
        assert sorted(raw_builds) == sorted(SPACE_KINDS)
        assert (fresh_cache.built, fresh_cache.derived) == (4, 44)
        counts = [
            rec.getMessage().split("dofs, ")[1].rsplit(",", 1)[0]
            for rec in caplog.records if rec.name == "tetcomplex.assembly"
        ]
        assert counts == ["elements 1 built, 5 derived, 0 hits"] * 4 + [
            "elements 0 built, 6 derived, 0 hits"
        ] * 4

    def test_jittered_classes_are_built(self, monkeypatch, fresh_cache, numbering_meshes):
        # moving the centre vertex off the lattice leaves no similar pair
        # among the 24 cells around it; the 24 others are the Kuhn orbit
        from tetcomplex.assembly import GlobalSpace

        mesh = numbering_meshes["jittered"]
        raw_builds = _raw_builds(monkeypatch)
        GlobalSpace(mesh, "lagrange", 1, 1)
        moved = [cells for cells in mesh.classes if (mesh.cell_vertices[cells[0]] == 13).any()]
        assert len(mesh.classes) == 30 and len(moved) == 24
        assert len(raw_builds) == fresh_cache.built == 25 and fresh_cache.derived == 5


def _config_cases():
    from tetcomplex.verify import DEFAULT_CONFIGS

    return [(kind, r, k) for r, k in DEFAULT_CONFIGS for kind in SPACE_KINDS]


def _assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def _exact_tensors(el):
    """The centred tensors of the element's exact fields by use, each coefficient rounded once."""
    from tetcomplex.elements import _coefficients

    fields = {"value": el.basis, "curl": el.curls}
    return {use: _coefficients(IntegerFields.from_fields(f), el.degree) for use, f in fields.items() if f is not None}


class TestCoefficientGather:
    """Derived classes gather the orbit build's tensors; their exact fields come on demand."""

    @pytest.mark.parametrize("kind,r,k", _config_cases())
    def test_kuhn_gather_equals_exact_fields(self, kind, r, k, fresh_cache):
        # class 0 at N = 1 is built; the other N = 1 classes derive with
        # t = 1 and the N = 2 classes with t = 1/2, both exact in binary, so
        # each gathered centred tensor is the once-rounded centred tensor of
        # the derived exact fields
        derived = [local_element(kind, r, k, c) for n in (1, 2) for c in _class_representatives(n)]
        assert (fresh_cache.built, fresh_cache.derived) == (1, 11)
        el0, _ = fresh_cache.orbits[(kind, r, k, derived[0].cell.orbit_key())]
        assert el0 is derived[0]
        for el in derived[1:]:
            exact = _exact_tensors(el)
            assert np.array_equal(dof_matrix(el.dofs, exact["value"], exact.get("curl")), el.dof_matrix)
            assert sorted(el.coefficients) == sorted(exact)
            for use, tensor in el.coefficients.items():
                _assert_bitwise_equal(tensor, exact[use])

    @pytest.mark.parametrize("kind,r,k", _config_cases())
    def test_rational_scale_matches_exact_fields(self, kind, r, k, fresh_cache):
        # N = 3 after an N = 2 build: t = 2/3 is no power of two, so each
        # tensor is the derived exact fields' rounded once, not a rounded gather
        local_element(kind, r, k, _class_representatives(2)[0])
        for cell in _class_representatives(3):
            el = local_element(kind, r, k, cell)
            tensors = _exact_tensors(el)
            for use, tensor in el.coefficients.items():
                _assert_bitwise_equal(tensor, tensors[use])
            exact = dof_matrix(el.dofs, tensors["value"], tensors.get("curl"))
            assert np.abs(el.dof_matrix - exact).max() <= 1e-12 * np.abs(exact).max()
            nodal = np.linalg.inv(exact)
            assert np.abs(el.nodal - nodal).max() <= 1e-12 * np.abs(nodal).max()
        assert (fresh_cache.built, fresh_cache.derived) == (1, 6)

    def test_solve_path_forms_no_exact_derived_field(self, monkeypatch, fresh_cache):
        from tetcomplex import elements, problems

        def refuse(*args, **kwargs):
            raise AssertionError("exact numerators gathered on the solve path")

        monkeypatch.setattr(elements, "derive_numerators", refuse)
        monkeypatch.setattr(problems, "_space_cache", problems.SpaceCache())
        for n in (2, 4):
            spaces = problems.get_spaces(n, 1, 1, SPACE_KINDS)
            for kind in SPACE_KINDS:
                spaces[kind].class_tables(2 * spaces[kind].basis_degree)
            _, row = problems.solve_quadcurl(problems.QuadCurlProblem(n=n, r=1, k=1))
            assert row["residual"] <= 1e-9 and np.isfinite([row["l2"], row["gradcurl"]]).all()
        assert (fresh_cache.built, fresh_cache.derived) == (4, 44)


def _dof_matrix_cases():
    # cell functionals: velocity from k = 2, lagrange and gradcurl from r = 4
    return _config_cases() + [("lagrange", 4, 2), ("gradcurl", 4, 2)]


class TestDofMatrix:
    """The DOF matrix applies each functional's quadrature stencil exactly."""

    @pytest.mark.parametrize("kind,r,k", _dof_matrix_cases())
    def test_higher_rule_changes_no_entry(self, kind, r, k, monkeypatch):
        from tetcomplex import elements
        from tetcomplex.quadrature import QuadratureRule

        random_cell = CellGeometry.standalone(random_rational_cell(np.random.default_rng(5)))
        for cell in (reference_cell(), random_cell):
            el = local_element(kind, r, k, cell)
            tensors = _exact_tensors(el)
            assert np.array_equal(dof_matrix(el.dofs, tensors["value"], tensors.get("curl")), el.dof_matrix)
            with monkeypatch.context() as patch:
                patch.setattr(elements, "QuadratureRule", lambda degree: QuadratureRule(degree + 6))
                higher = dof_matrix(el.dofs, tensors["value"], tensors.get("curl"))
            scale = np.abs(el.dof_matrix).max(axis=1, keepdims=True)
            assert np.all(np.abs(higher - el.dof_matrix) <= 1e-13 * scale)


    @pytest.mark.parametrize("kind,bound", [("gradcurl", 1e-14), ("velocity", 4e-14)])
    def test_double_sums_meet_the_exact_reference(self, kind, bound, fresh_cache):
        # each entry against the largest exact entry of its field, on the
        # reference cell and on an N = 2 class derived from the N = 1 build;
        # the worst error is 5.6e-15 (gradcurl) and 2.7e-14 (velocity) with
        # tensors centred on the pieces, and 1.9e-14 and 5.3e-14 with
        # float64 tensors expanded about the origin
        local_element(kind, 1, 1, _class_representatives(1)[0])
        derived = local_element(kind, 1, 1, _class_representatives(2)[5])
        assert fresh_cache.derived == 1
        for el in (local_element(kind, 1, 1, reference_cell()), derived):
            exact = _exact_dof_matrix(el)
            error = np.abs(el.dof_matrix - exact) / np.abs(exact).max(axis=0)
            assert error.max() <= bound


def _exact_dof_matrix(el):
    """The DOF matrix of the element's exact fields, each entry rounded once.

    Each stencil's float points and weights count as the exact dyadic
    rationals they hold, and every sum runs on integers over one
    denominator.
    """
    from math import lcm

    from tetcomplex.elements import _entity_piece
    from tetcomplex.polyalg import monomial_exponents
    from tetcomplex.quadrature import QuadratureRule

    def dyadic(values):
        pairs = [v.as_integer_ratio() for v in np.ravel(values).tolist()]
        den = lcm(*(d for _, d in pairs))
        return np.array([n * (den // d) for n, d in pairs], dtype=object).reshape(np.shape(values)), den

    degree = el.degree
    quad = QuadratureRule(2 * degree + 2)
    exps = monomial_exponents(degree, 3)
    out = np.empty(el.dof_matrix.shape)
    for i, dof in enumerate(el.dofs):
        use, pts, wts = dof.stencil(quad)
        fields = el.numerators[use].resized(degree)
        if dof.entity[0] == "cell":  # the split rule: one block of points per piece
            pieces = np.repeat(range(4), len(pts) // 4)
        else:
            pieces = [_entity_piece(dof.entity)] * len(pts)
        (p, p_den), (w, w_den) = dyadic(pts), dyadic(wts.reshape(len(pts), -1))
        total = 0
        for x, weights, piece in zip(p, w, pieces):
            # p_den^degree times each monomial at the point
            mono = [x[0] ** a * x[1] ** b * x[2] ** c * p_den ** (degree - a - b - c) for a, b, c in exps]
            total = total + (fields.nums[:, piece] @ np.array(mono, dtype=object)) @ weights
        den = fields.den * p_den**degree * w_den
        out[i] = [v / den for v in total.tolist()]
    return out


small = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def exact_vectors(draw, max_degree=3):
    """Vector fields with a few small rational coefficients."""
    from tetcomplex.polyalg import Polynomial, VectorField, monomial_exponents

    exps = monomial_exponents(draw(st.integers(0, max_degree)))
    comps = []
    for _ in range(3):
        keys = draw(st.lists(st.sampled_from(exps), max_size=5))
        comps.append(Polynomial({e: draw(small) for e in keys}))
    return VectorField(comps)


@st.composite
def exact_fields(draw, max_degree=3):
    """Piecewise vector fields: a single field or four independent pieces."""
    from tetcomplex.polyalg import PiecewiseField

    if draw(st.booleans()):
        return PiecewiseField.from_single(draw(exact_vectors(max_degree)))
    return PiecewiseField([draw(exact_vectors(max_degree)) for _ in range(4)], draw(st.sampled_from(["C0", "L2"])))


@st.composite
def exact_scalars(draw, max_degree=3):
    """Piecewise scalar fields: a single polynomial or four independent pieces."""
    from tetcomplex.polyalg import PiecewiseField

    pieces = [draw(exact_vectors(max_degree)).comps[0] for _ in range(4)]
    if draw(st.booleans()):
        return PiecewiseField.from_single(pieces[0])
    return PiecewiseField(pieces, draw(st.sampled_from(["C0", "L2"])))


def _first_independent(columns):
    """Reference: the first-come independent columns, by Fraction elimination."""
    pivots, chosen = [], []
    for i, column in enumerate(columns):
        v = list(column)
        for p, row in pivots:
            if v[p]:
                factor = v[p] / row[p]
                v = [a - factor * b for a, b in zip(v, row)]
        nonzero = [j for j, a in enumerate(v) if a]
        if nonzero:
            pivots.append((nonzero[0], v))
            chosen.append(i)
    return chosen


class TestIntegerKernels:
    """The integer kernels of the orbit build against Fraction polynomial references."""

    @given(st.lists(exact_fields(), min_size=1, max_size=3), st.lists(small, min_size=9, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_physical_curl_matches_fraction_reference(self, fields, entries):
        from hypothesis import assume

        matrix = [entries[3 * i:3 * i + 3] for i in range(3)]
        assume(_det3(matrix) != 0)
        cell = SimpleNamespace(amap=SimpleNamespace(matrix=matrix))
        curls = phys_curl(cell, IntegerFields.from_fields(fields))
        for field, got in zip(fields, curls):
            want = _reference_curl(matrix, field)
            assert [[c.coeffs for c in p.comps] for p in got.pieces] == [[c.coeffs for c in p.comps] for p in want.pieces]
            assert got.continuity == ("single" if field.continuity == "single" else "L2")

    @given(st.data(), st.lists(small, min_size=9, max_size=9))
    @settings(max_examples=30, deadline=None)
    def test_physical_grad_and_div_match_fraction_reference(self, data, entries):
        from hypothesis import assume

        matrix = [entries[3 * i:3 * i + 3] for i in range(3)]
        assume(_det3(matrix) != 0)
        cell = SimpleNamespace(amap=SimpleNamespace(matrix=matrix))
        scalars = data.draw(st.lists(exact_scalars(), min_size=1, max_size=2))
        vectors = data.draw(st.lists(exact_fields(), min_size=1, max_size=2))
        for which, fields in (("grad", scalars), ("div", vectors)):
            images = _OPERATORS[which](cell, IntegerFields.from_fields(fields))
            for field, got in zip(fields, images):
                assert got == _REFERENCES[which](matrix, field), which
                assert got.continuity == ("single" if field.continuity == "single" else "L2")

    @given(st.lists(exact_fields(), min_size=1, max_size=3), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_centred_coefficients_match_fraction_reference(self, fields, extra):
        # each piece re-expanded about its centroid by ``compose_affine``, then rounded once
        from tetcomplex.elements import PIECE_CENTROIDS, _coefficients, _monomial_columns

        degree = max(max(f.degree for f in fields), 0) + extra
        columns = _monomial_columns(degree)
        got = _coefficients(IntegerFields.from_fields(fields, degree), degree)
        identity = [[int(i == j) for j in range(3)] for i in range(3)]
        for a, field in enumerate(fields):
            for p, (piece, centroid) in enumerate(zip(field.pieces, PIECE_CENTROIDS)):
                for c, comp in enumerate(piece.comps):
                    want = np.zeros(len(columns))
                    for e, v in comp.compose_affine(identity, centroid).coeffs.items():
                        want[columns[e]] = float(v)
                    _assert_bitwise_equal(got[a, p, c], want)

    @given(st.lists(exact_fields(max_degree=2), min_size=1, max_size=5), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_rank_selection_matches_fraction_reference(self, fields, rnd):
        from fractions import Fraction

        from tetcomplex.elements import _independent
        from tetcomplex.polyalg import IntegerFields

        # plant dependent fields: rational combinations of earlier ones, and zero fields
        for _ in range(rnd.randint(1, 3)):
            a, b = (Fraction(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(2))
            i, j = rnd.randrange(len(fields)), rnd.randrange(len(fields))
            fields.insert(rnd.randint(0, len(fields)), fields[i] * a + fields[j] * b)
        assert _independent(IntegerFields.from_fields(fields)) == _first_independent(_coords(fields))

    def test_perturbed_face_bubble_correction_raises(self, monkeypatch):
        from tetcomplex import elements

        solve = elements.solve_div

        def doubled(target, k):
            w = solve(target, k)
            return IntegerFields(w.nums * 2, w.den, w.continuity)

        monkeypatch.setattr(elements, "solve_div", doubled)
        with pytest.raises(ArithmeticError, match="face bubble 0"):
            elements.physical_face_bubble(reference_cell(), 0)

    def test_face_bubble_solves_form_no_fraction(self, monkeypatch, fresh_cache, fraction_count):
        # a cold velocity (1,1) element with a cold divergence solver: each of its
        # four face-bubble solves, the first with the solver's build, runs on integers
        from functools import lru_cache

        from tetcomplex import bubbles, elements
        from tetcomplex.polyalg import split

        cached = [(bubbles, "_div_solver"), (bubbles, "build_split_space")] + [
            (module, name) for module in (bubbles, split) for name in ("pullback_table", "subtet_moment_table")
        ]
        for module, name in cached:
            monkeypatch.setattr(module, name, lru_cache(maxsize=None)(getattr(module, name).__wrapped__))
        solve, counts = elements.solve_div, []

        def counted(target, k):
            before = fraction_count[0]
            out = solve(target, k)
            counts.append(fraction_count[0] - before)
            return out

        monkeypatch.setattr(elements, "solve_div", counted)
        local_element("velocity", 1, 1, reference_cell())
        assert counts == [0, 0, 0, 0]

    def test_face_bubble_check_survives_optimized_mode(self):
        # the divergence check is an exception, not an assert that ``python -O`` strips
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "from tetcomplex import elements\n"
            "solve = elements.solve_div\n"
            "def doubled(target, k):\n"
            "    w = solve(target, k)\n"
            "    return elements.IntegerFields(w.nums * 2, w.den, w.continuity)\n"
            "elements.solve_div = doubled\n"
            "try:\n"
            "    elements.physical_face_bubble(elements.reference_cell(), 1)\n"
            "except ArithmeticError:\n"
            "    print('raised')\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(src), "PATH": ""},
        )
        assert run.stdout.strip() == "raised", run.stderr

    def test_build_record_splits_its_time(self, caplog, fresh_cache):
        import re

        with caplog.at_level("DEBUG", logger="tetcomplex.elements"):
            local_element("gradcurl", 1, 1, _class_representatives(1)[0])
        (message,) = [rec.getMessage() for rec in caplog.records if rec.name == "tetcomplex.elements"]
        number = r"(\d+\.\d{3})"
        match = re.fullmatch(
            rf"built gradcurl\(1,1\) element in {number} s: raw basis {number} s, potentials {number} s, "
            rf"selection {number} s, curls {number} s, DOF matrix {number} s",
            message,
        )
        assert match, message
        total, *parts = map(float, match.groups())
        assert all(p >= 0 for p in parts) and sum(parts) <= total + 0.003
