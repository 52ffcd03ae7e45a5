"""Local elements: dimensions, unisolvence, exactness, polynomial reproduction."""

from fractions import Fraction
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import QQ

from exact_reference import (
    cell_on,
    curl,
    div,
    exact_matrix,
    field,
    grad,
    integer_fields,
    inverse,
    matvec,
    physical_derivative,
)
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
from tetcomplex.mesh import _det3, random_rational_cell
from tetcomplex.polyalg import IntegerFields
from tetcomplex.polyalg.spaces import degree_of_columns, rank as exact_rank

CONFIGS = [(1, 1), (2, 1), (3, 1), (2, 2), (3, 3)]


def _coords(*parts):
    """Exact coordinates of the fields of :class:`IntegerFields` parts over one denominator:
    each piece's numerators by component and monomial."""
    fields = IntegerFields.concatenate(parts)
    return fields.nums.reshape(len(fields), -1).tolist()


def _in_span(basis, fields):
    return exact_rank(_coords(basis)) == exact_rank(_coords(basis, fields))


def _same_values(a, b):
    """Whether two :class:`IntegerFields` hold the same fields, whatever their denominators."""
    width = max(a.nums.shape[-1], b.nums.shape[-1])
    a, b = (f.resized(degree_of_columns(width)) for f in (a, b))
    return a.nums.shape == b.nums.shape and not (a.nums * b.den - b.nums * a.den).any()


# References for the numerator operators: sympy polynomials, piece by piece


def _transpose(matrix):
    return [[matrix[j][i] for j in range(3)] for i in range(3)]


def _reference_grad(matrix, pieces):
    """``B^-T grad p``."""
    inverse_t = _transpose(inverse(matrix))
    return [matvec(inverse_t, grad(p[0])) for p in pieces]


def _reference_curl(matrix, pieces):
    """``B curl(B^T u) / det B``."""
    det = Fraction(_det3(matrix))
    return [[c * QQ(det.denominator, det.numerator) for c in matvec(matrix, curl(matvec(_transpose(matrix), u)))] for u in pieces]


def _reference_div(matrix, pieces):
    """``div(B^-1 u)``."""
    return [[div(matvec(inverse(matrix), u))] for u in pieces]


def _images(which, cell, fields):
    """The reference images of every field of :class:`IntegerFields` on ``cell``, as
    :class:`IntegerFields` on the monomials of the fields' degree: Fraction matrices against
    the derivative tables."""
    return physical_derivative(which, exact_matrix(cell.amap), fields)


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
        # the physical curl of every grad-curl basis field, formed apart from
        # the numerator operators, lies in the velocity span, exactly
        from tetcomplex.elements import build_raw_basis

        cell = CellGeometry.standalone(random_rational_cell(np.random.default_rng(r + 7 * k)))
        gc, _ = build_raw_basis("gradcurl", cell, r, k)
        vel, _ = build_raw_basis("velocity", cell, r, k)
        assert _in_span(vel, _images("curl", cell, gc))

    def test_gradients_inside_gradcurl(self):
        # every Lagrange gradient, formed apart from the numerator operators, lies in the grad-curl span
        from tetcomplex.elements import build_raw_basis, lagrange_raw

        for r, k in CONFIGS:
            cell = reference_cell()
            gc, _ = build_raw_basis("gradcurl", cell, r, k)
            assert _in_span(gc, _images("grad", cell, lagrange_raw(r)))

    @pytest.mark.parametrize("r,k", CONFIGS)
    def test_local_complex_matches_fraction_reference(self, r, k):
        # each image, formed apart from the numerator operators, is the exact
        # combination of the target basis that ``local_complex_matrices`` gives
        from tetcomplex.elements import build_raw_basis
        from tetcomplex.polyalg.spaces import integer_matrix

        cell = reference_cell()
        bases = {kind: build_raw_basis(kind, cell, r, k)[0] for kind in SPACE_KINDS}
        for (which, source, target), matrix in zip(_COMPLEX, local_complex_matrices(r, k)):
            images = _images(which, cell, bases[source])
            basis = bases[target].resized(degree_of_columns(images.nums.shape[-1]))
            rows, den = integer_matrix([list(column) for column in zip(*matrix)])
            combos = np.array(rows, dtype=object) @ basis.nums.reshape(len(basis), -1)
            want = images.nums.reshape(len(images), -1) * (den * basis.den)
            assert not (combos * images.den - want).any(), which


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
    """Nodal functions at the split-rule points, one block of points per subtet.

    The exact fields are rounded once about each piece's centroid and
    evaluated by the monomial table of the class quadrature.
    """
    from tetcomplex.elements import PIECE_CENTROIDS_F, _coefficients, _monomials
    from tetcomplex.quadrature import alfeld_composite

    blocks = np.split(alfeld_composite(degree)[0], 4)
    coef = _coefficients(fields, fields.degree)
    raw = np.concatenate([
        np.einsum("fcm,qm->fqc", coef[:, p], _monomials(b - PIECE_CENTROIDS_F[p], fields.degree))
        for p, b in enumerate(blocks)
    ], axis=1)
    return np.tensordot(nodal.T, raw, axes=1)


def _assert_same_element(derived, direct):
    """Exact span and curls of the raw basis; nodal functions to 1e-12 relative."""
    ours, theirs = derived.numerators["value"], direct.numerators["value"]
    assert exact_rank(_coords(ours)) == exact_rank(_coords(theirs)) == exact_rank(_coords(ours, theirs)) == direct.dimension
    pairs = [(ours, theirs)]
    if "curl" in direct.numerators:
        assert _same_values(derived.numerators["curl"], _images("curl", derived.cell, ours))
        pairs.append((derived.numerators["curl"], direct.numerators["curl"]))
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
                assert sorted(derived.numerators) == sorted(direct.numerators)
                for use, fields in direct.numerators.items():
                    assert _same_values(derived.numerators[use], fields)
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
        basis = first.numerators["value"]
        scale = [Fraction(2) ** a for a in powers]
        den = max(f.denominator for f in scale)  # powers of two: their lcm
        factors = np.array([f.numerator * (den // f.denominator) for f in scale], dtype=object)
        scaled = IntegerFields(factors[:, None, None, None] * basis.nums, basis.den * den, basis.continuity)
        assert _same_values(doubled.numerators["value"], scaled)

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
        cell0 = SimpleNamespace(shape=lambda: shape, scale=(2, 1))
        cell = SimpleNamespace(shape=lambda: image, scale=(1, 1))
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

    return {use: _coefficients(f, el.degree) for use, f in el.numerators.items()}


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


def _first_independent(columns):
    """Reference: the first-come independent columns, by Fraction elimination."""
    from fractions import Fraction

    pivots, chosen = [], []
    for i, column in enumerate(columns):
        v = [Fraction(a) for a in column]
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
    """The integer kernels of the orbit build against sympy references."""

    @given(integer_fields(), st.lists(small, min_size=9, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_physical_curl_matches_sympy(self, fields, entries):
        from hypothesis import assume

        matrix = [entries[3 * i:3 * i + 3] for i in range(3)]
        assume(_det3(matrix) != 0)
        if _det3(matrix) < 0:  # a cell map has a positive determinant
            matrix = [[-v for v in row] for row in matrix]
        cell = cell_on(matrix)
        curls = phys_curl(cell, fields)
        for a, label in enumerate(fields.continuity):
            assert field(curls, a) == _reference_curl(matrix, field(fields, a))
            assert curls.continuity[a] == ("single" if label == "single" else "L2")

    @given(integer_fields(components=1, max_count=2), integer_fields(max_count=2), st.lists(small, min_size=9, max_size=9))
    @settings(max_examples=25, deadline=None)
    def test_physical_grad_and_div_match_sympy(self, scalars, vectors, entries):
        from hypothesis import assume

        matrix = [entries[3 * i:3 * i + 3] for i in range(3)]
        assume(_det3(matrix) != 0)
        if _det3(matrix) < 0:  # a cell map has a positive determinant
            matrix = [[-v for v in row] for row in matrix]
        cell = cell_on(matrix)
        for which, fields in (("grad", scalars), ("div", vectors)):
            images = _OPERATORS[which](cell, fields)
            for a, label in enumerate(fields.continuity):
                assert field(images, a) == _REFERENCES[which](matrix, field(fields, a)), which
                assert images.continuity[a] == ("single" if label == "single" else "L2")

    @given(integer_fields(), st.integers(0, 2))
    @settings(max_examples=30, deadline=None)
    def test_centred_coefficients_match_sympy(self, fields, extra):
        # each piece re-expanded about its centroid by sympy substitution, then rounded once
        from tetcomplex.elements import PIECE_CENTROIDS, _coefficients
        from exact_reference import X, row, substitute

        degree = degree_of_columns(fields.nums.shape[-1]) + extra
        got = _coefficients(fields, degree)
        for a in range(len(fields)):
            for p, (piece, centroid) in enumerate(zip(field(fields, a), PIECE_CENTROIDS)):
                shifted = [x + sympy.Rational(c.numerator, c.denominator) for x, c in zip(X, centroid)]
                for c, comp in enumerate(piece):
                    want = np.array([float(v) for v in row(substitute(comp, shifted, X), degree)])
                    _assert_bitwise_equal(got[a, p, c], want)

    @given(integer_fields(max_degree=2, max_count=5), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_rank_selection_matches_fraction_reference(self, fields, rnd):
        from tetcomplex.elements import _independent

        # plant dependent fields: integer combinations of earlier ones, and zero fields
        nums, labels = list(fields.nums), list(fields.continuity)
        for _ in range(rnd.randint(1, 3)):
            a, b = rnd.randint(-3, 3), rnd.randint(-3, 3)
            i, j = rnd.randrange(len(nums)), rnd.randrange(len(nums))
            at = rnd.randint(0, len(nums))
            nums.insert(at, nums[i] * a + nums[j] * b)
            labels.insert(at, "L2")
        planted = IntegerFields(np.array(nums), fields.den, labels)
        assert _independent(planted) == _first_independent(_coords(planted))

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


def _run(script, **env):
    """Run ``script`` in a fresh interpreter on this checkout; its standard output."""
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": str(src), "PATH": "", **env},
    )
    assert run.returncode == 0, run.stderr
    return run.stdout


# The SHA-256 of every element's exact numerators (``nums.tolist()`` and
# ``den`` by use) for the ``DEFAULT_CONFIGS`` pairs and the four kinds, on the
# reference cell and the six Kuhn classes of N = 2, as the exact construction
# on ``Polynomial`` fields built them: an exact port must keep it.
NUMERATOR_DIGEST = "e89210fe03e176edd27648bca6bfad5820db4240b1a75c89e5c993996bc6c574"

_DIGEST_SCRIPT = """
import hashlib
from tetcomplex.elements import CellGeometry, SPACE_KINDS, local_element, reference_cell
from tetcomplex.mesh import build_structured_cube
from tetcomplex.verify import DEFAULT_CONFIGS

cells = [reference_cell()] + [CellGeometry(m) for m in build_structured_cube(2).class_maps]
digest = hashlib.sha256()
for r, k in DEFAULT_CONFIGS:
    for kind in SPACE_KINDS:
        for cell in cells:
            numerators = local_element(kind, r, k, cell).numerators
            for use in sorted(numerators):
                fields = numerators[use]
                digest.update(repr((kind, r, k, use, fields.nums.tolist(), fields.den)).encode())
print(digest.hexdigest())
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_exact_numerators_match_the_pinned_digest(seed):
    # a cold process per hash seed: no set or dict order may reach the numerators
    assert _run(_DIGEST_SCRIPT, PYTHONHASHSEED=seed).strip() == NUMERATOR_DIGEST


# The SHA-256 of the exact numerators (as for ``NUMERATOR_DIGEST``), the DOF
# and nodal matrices' bytes and the float geometry (map, edges, faces) of
# every element for the ``DEFAULT_CONFIGS`` pairs and the four kinds, on
# seeded random rational cells and a translate of one: their maps mix
# denominators, so a non-canonical exact map would show here.
CELL_MAP_DIGEST = "9e41aeb34a7a0a6b719dee42521c02167db51eb8f43a8c0eef3818ff981ef06a"

_CELL_MAP_DIGEST_SCRIPT = """
import hashlib
from fractions import Fraction

import numpy as np

from tetcomplex.elements import CellGeometry, SPACE_KINDS, local_element
from tetcomplex.mesh import random_rational_cell
from tetcomplex.verify import DEFAULT_CONFIGS

vertices = [random_rational_cell(np.random.default_rng(seed), denominator=den) for seed, den in ((3, 8), (4, 6), (11, 12))]
offset = (Fraction(1, 16), Fraction(-3, 32), Fraction(1, 5))
vertices.append([tuple(c + o for c, o in zip(v, offset)) for v in vertices[0]])
cells = [CellGeometry.standalone(v) for v in vertices]
digest = hashlib.sha256()
for cell in cells:
    amap = cell.amap
    digest.update(b"".join(np.asarray(a, float).tobytes() for a in (amap.matrix_f, amap.inverse_f, amap.shift_f, amap.det_f)))
    for edge in cell.edges:
        digest.update(edge["tangent"].tobytes() + np.float64(edge["length"]).tobytes())
    for face in cell.faces:
        digest.update(b"".join(np.asarray(face[key], float).tobytes() for key in ("tau1", "tau2", "normal", "area")))
for r, k in DEFAULT_CONFIGS:
    for kind in SPACE_KINDS:
        for cell in cells:
            element = local_element(kind, r, k, cell)
            for use in sorted(element.numerators):
                fields = element.numerators[use]
                digest.update(repr((kind, r, k, use, fields.nums.tolist(), fields.den)).encode())
            digest.update(element.dof_matrix.tobytes() + element.nodal.tobytes())
print(digest.hexdigest())
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_cell_maps_match_the_pinned_digest(seed):
    assert _run(_CELL_MAP_DIGEST_SCRIPT, PYTHONHASHSEED=seed).strip() == CELL_MAP_DIGEST


_FRACTION_COUNT_SCRIPT = """
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from tetcomplex import elements, problems

package = str(Path(problems.__file__).resolve().parent) + "/"
construct = Fraction.__new__
counts = Counter()

def counting(cls, *args, **kwargs):
    frame = sys._getframe(1)
    while frame is not None and not frame.f_code.co_filename.startswith(package):
        frame = frame.f_back
    if frame is None:
        counts["outside"] += 1
    else:
        function = frame.f_code.co_qualname.split(".<locals>")[0]
        counts[frame.f_code.co_filename[len(package):] + ":" + function] += 1
    return construct(cls, *args, **kwargs)

Fraction.__new__ = counting
problems.solve_quadcurl(problems.QuadCurlProblem(n=4, r=1, k=1))
Fraction.__new__ = construct
print(json.dumps({"counts": counts, "derived": elements._element_cache.derived}))
"""


def test_cold_solve_forms_fractions_only_from_coordinates_and_scale_ratios():
    # each Fraction is charged to the nearest function of the package: the
    # exact algebra and the cell maps run on integers, so Fractions come only
    # from the input coordinates and one scale ratio per derived element
    import json

    report = json.loads(_run(_FRACTION_COUNT_SCRIPT))
    counts, derived = report["counts"], report["derived"]
    assert sum(counts.values()) > 0 and derived > 0
    assert [site for site in counts if site.startswith("polyalg/")] == []
    assert set(counts) <= {"mesh.py:build_structured_cube", "mesh.py:_lattice", "elements.py:similarity_between"}
    assert counts.get("elements.py:similarity_between", 0) <= derived


class TestPolynomialWeights:
    """The polynomial DOF weights, formed on integer numerators and rounded once."""

    @pytest.mark.parametrize("exp", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 3), (2, 2)])
    def test_mean_free_face_weights_integrate_to_zero(self, exp):
        from tetcomplex.elements import _mean_free, _moment
        from tetcomplex.quadrature import QuadratureRule

        fpts, w = QuadratureRule(10).triangle
        _, _, wts = _moment("value", fpts, w, fpts, _mean_free(exp), None)
        assert abs(wts.sum()) <= 1e-16

    @pytest.mark.parametrize("k", [5, 6, 7])
    def test_cross_position_basis(self, k):
        # p x xhat is orthogonal to xhat; its kernel is the radial fields f xhat, f of degree k - 6
        from tetcomplex.elements import _cross_position_basis
        from tetcomplex.polyalg import dim_poly

        from exact_reference import poly

        basis = _cross_position_basis(k)
        assert len(basis) == 3 * dim_poly(k - 5) - dim_poly(k - 6)
        assert exact_rank([q.ravel().tolist() for q in basis]) == len(basis)
        position = [sympy.Poly(x, *sympy.symbols("x y z"), domain=QQ) for x in sympy.symbols("x y z")]
        for q in basis:
            assert sum((poly(c) * x for c, x in zip(q, position)), sympy.Poly(0, *sympy.symbols("x y z"), domain=QQ)).is_zero
