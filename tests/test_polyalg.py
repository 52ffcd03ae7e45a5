"""Exact algebra: derivative, pull-back and potential tables, integration, exact linear algebra.

The integer kernels are checked against exact sympy references
(:mod:`exact_reference`) or against integer identities.
"""

import ast
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st
from sympy import QQ

import tetcomplex.polyalg
from exact_reference import (
    X,
    affine,
    cell_on,
    curl,
    field,
    integer_fields,
    inverse,
    matvec,
    T,
    integrate_t,
    offset,
    on_ray,
    poly,
    row,
    simplex_integral,
    substitute,
    tet_integral,
)
from tetcomplex.elements import phys_curl
from tetcomplex.mesh import _det3
from tetcomplex.polyalg import (
    INTERNAL_FACES,
    PARENT_FACE_VERTICES,
    REF_CENTER,
    REF_VERTICES,
    SUBTET_VERTICES,
    IntegerFields,
    derivative_table,
    dim_poly,
    flux_potential,
    integer_rref,
    monomial_exponents,
    piecewise_poincare2,
    potential_table,
    pullback_table,
    rank,
    scalar_potential,
    subtet_moment_table,
    vector_potential,
)
from tetcomplex.polyalg.spaces import curl as _curl, derivatives, divergence as _div, integer_matrix, null_numerators
from tetcomplex.polyalg.split import _mul_tables
from tetcomplex.verify import _lifted


def _grad(nums):
    """The gradients of scalar numerators (..., monomials): (..., 3, monomials of one degree lower)."""
    return derivatives(nums, axis=-2)


@st.composite
def numerators(draw, components=None, max_degree=3, min_degree=0):
    """Integer numerators (components, monomials) on the monomials of some degree, and a denominator."""
    width = dim_poly(draw(st.integers(min_degree, max_degree)))
    shape = (width,) if components is None else (components, width)
    nums = np.zeros(shape, dtype=object)
    for index in draw(st.lists(st.tuples(*(st.integers(0, n - 1) for n in shape)), max_size=8)):
        nums[index] = draw(st.integers(-12, 12))
    return nums, draw(st.integers(1, 12))


def _polys(nums, den):
    return [poly(c, den) for c in nums] if nums.ndim == 2 else poly(nums, den)


def _ints(expr, degree, components=None):
    """The integer coefficients of a sympy expression (or of each of a list) on the monomials of degree <= ``degree``."""
    if components is not None:
        return np.array([_ints(e, degree) for e in expr], dtype=object)
    return np.array([int(v) for v in row(sympy.Poly(expr, *X, domain=QQ), degree)], dtype=object)


def _same(nums, den, want):
    """Whether numerators over ``den`` are the ``Poly`` (or list of ``Poly``) ``want``."""
    return _polys(nums, den) == want


class TestDifferential:
    def test_grad_product_rule(self):
        x, y, z = X
        assert _same(_grad(_ints(x * y, 2)), 1, [sympy.Poly(e, *X, domain=QQ) for e in (y, x, 0)])

    def test_div_direct(self):
        x, y, z = X
        assert _same(_div(_ints((x * x, y * y, z * z), 2, 3)), 1, sympy.Poly(2 * x + 2 * y + 2 * z, *X, domain=QQ))

    @given(numerators(min_degree=1))
    @settings(max_examples=15, deadline=None)
    def test_degree_drops(self, p):
        nums, den = p
        assume(_polys(nums, den).total_degree() >= 1)
        degree = max(g.total_degree() for g in _polys(_grad(nums), den))
        assert degree == _polys(nums, den).total_degree() - 1

    @given(numerators())
    @settings(max_examples=25, deadline=None)
    def test_curl_grad_is_zero(self, p):
        assert not _curl(_grad(p[0])).any()

    @given(numerators(components=3))
    @settings(max_examples=25, deadline=None)
    def test_div_curl_is_zero(self, u):
        assert not _div(_curl(u[0])).any()


def _matvec4(matrix, u):
    """``matrix @ u`` for ``Poly`` components in x, y, z, t."""
    return [sum((u[j] * QQ(matrix[i][j].numerator, matrix[i][j].denominator) for j in range(3)), sympy.Poly(0, *X, T, domain=QQ))
            for i in range(3)]


def _p1(u, base):
    """Reference ``p1``: ``∫ u(ray) . (x - W) dt``."""
    ray = [on_ray(c, base) for c in u]
    return integrate_t(sum((a * b for a, b in zip(ray, offset(base))), sympy.Poly(0, *X, T, domain=QQ)))


def _p2(u, base, matrix=None):
    """Reference ``p2``: ``∫ u(ray) x t M (x - W) dt``, component by component."""
    off = offset(base, 1) if matrix is None else _matvec4(matrix, offset(base, 1))
    ray = [on_ray(c, base) for c in u]
    crossed = [ray[1] * off[2] - ray[2] * off[1], ray[2] * off[0] - ray[0] * off[2], ray[0] * off[1] - ray[1] * off[0]]
    return [integrate_t(c) for c in crossed]


def _p3(q, base):
    """Reference ``p3``: ``∫ t^2 q(ray) (x - W) dt``."""
    return [integrate_t(on_ray(q, base) * o) for o in offset(base, 2)]


bases = st.sampled_from([(0, 0, 0), REF_CENTER, (F(1, 3), F(-1, 5), F(2, 7))])
small = st.fractions(min_value=-4, max_value=4, max_denominator=5)


class TestPoincare:
    def test_scalar_potential_of_gradient(self):
        # potentials of gradients recover the function (vanishing at the base): p1(y, x, 0) = xy
        x, y, z = X
        assert _same(*scalar_potential(_ints((y, x, 0), 1, 3), 1), sympy.Poly(x * y, *X, domain=QQ))

    def test_linear_example(self):
        x, y, z = X
        assert _same(*scalar_potential(_ints((y, 0, 0), 1, 3), 1), sympy.Poly(x * y / 2, *X, domain=QQ))

    def test_zero(self):
        assert not scalar_potential(np.zeros((3, 4), dtype=object), 1)[0].any()

    def test_split_identity_example(self):
        # grad p1(u) + p2(curl u) reassembles u = (y, 0, 0)
        x, y, z = X
        u = _ints((y, 0, 0), 1, 3)
        g = _polys(_grad(scalar_potential(u, 1)[0]), scalar_potential(u, 1)[1])
        c = _polys(*vector_potential(_lifted(_curl(u), 4), 1))
        assert g == [sympy.Poly(e, *X, domain=QQ) for e in (y / 2, x / 2, 0)]
        assert c == [sympy.Poly(e, *X, domain=QQ) for e in (y / 2, -x / 2, 0)]
        assert [a + b for a, b in zip(g, c)] == _polys(u, 1)

    def test_constant_2field(self):
        u = np.array([[0], [0], [1]], dtype=object)
        assert _same(*vector_potential(u, 1), [sympy.Poly(-X[1] / 2, *X, domain=QQ), sympy.Poly(X[0] / 2, *X, domain=QQ), sympy.Poly(0, *X, domain=QQ)])

    def test_constant_3field(self):
        assert _same(*flux_potential(np.array([1], dtype=object), 1), [sympy.Poly(x / 3, *X, domain=QQ) for x in X])

    @given(numerators(components=3), bases)
    @settings(max_examples=25, deadline=None)
    def test_scalar_potential_matches_sympy(self, u, base):
        nums, den = u
        assert _same(*scalar_potential(nums, den, base), _p1(_polys(nums, den), base))

    @given(numerators(), bases)
    @settings(max_examples=25, deadline=None)
    def test_flux_potential_matches_sympy(self, q, base):
        nums, den = q
        assert _same(*flux_potential(nums, den, base), _p3(_polys(nums, den), base))

    @given(numerators(components=3), bases, st.lists(small, min_size=9, max_size=9))
    @settings(max_examples=25, deadline=None)
    def test_vector_potential_matches_sympy(self, u, base, entries):
        nums, den = u
        matrix = [entries[3 * i:3 * i + 3] for i in range(3)]
        assert _same(*vector_potential(nums, den, base), _p2(_polys(nums, den), base))
        assert _same(*vector_potential(nums, den, base, integer_matrix(matrix)), _p2(_polys(nums, den), base, matrix))

    @pytest.mark.parametrize("degree", range(6))
    def test_null_homotopy_all_degrees(self, degree):
        # d p + p d = id and div p3 = id on numerators, about a rational base
        rng = np.random.default_rng(degree)
        base = (F(1, 3), F(-1, 5), F(2, 7))
        width = dim_poly(degree)
        for _ in range(5):
            u = rng.integers(-6, 7, size=(3, width)).astype(object)
            q = rng.integers(-6, 7, size=width).astype(object)
            u1 = np.concatenate([u, np.zeros((3, dim_poly(degree + 1) - width), dtype=object)], axis=1)
            (a, da), (b, db) = scalar_potential(u, 1, base), vector_potential(_curl(u1), 1, base)
            assert [f + g for f, g in zip(_polys(_grad(a), da), _polys(b, db))] == _polys(u, 1)
            (a, da), (b, db) = vector_potential(u, 1, base), flux_potential(_div(u1), 1, base)
            assert [f + g for f, g in zip(_polys(_curl(a), da), _polys(b, db))] == _polys(u, 1)
            a, da = flux_potential(q, 1, base)
            assert _same(_div(a), da, _polys(q, 1))

    @pytest.mark.parametrize("degree", range(6))
    def test_complex_property(self, degree):
        rng = np.random.default_rng(100 + degree)
        for _ in range(5):
            u = rng.integers(-6, 7, size=(3, dim_poly(degree))).astype(object)
            q = rng.integers(-6, 7, size=dim_poly(degree)).astype(object)
            assert not scalar_potential(*vector_potential(u, 1))[0].any()
            assert not vector_potential(*flux_potential(q, 1))[0].any()

    @given(numerators(components=3))
    @settings(max_examples=20, deadline=None)
    def test_polynomial_preserving(self, u):
        nums, den = u
        degree = max(max((p.total_degree() for p in _polys(nums, den)), default=0), 0)
        out = _polys(*vector_potential(nums, den))
        assert all(p.is_zero or p.total_degree() <= degree + 1 for p in out)

    @pytest.mark.parametrize("m", range(4))
    def test_koszul_poincare_scaling(self, m):
        # p2 of a homogeneous field v of degree m is v x xhat / (m + 2)
        for j, e in enumerate(monomial_exponents(m)):
            if sum(e) != m:
                continue
            v = np.zeros((3, dim_poly(m)), dtype=object)
            v[0, j] = v[2, j] = 1
            p = _polys(v, 1)
            position = [sympy.Poly(x, *X, domain=QQ) for x in X]
            cross = [p[1] * position[2] - p[2] * position[1], p[2] * position[0] - p[0] * position[2],
                     p[0] * position[1] - p[1] * position[0]]
            assert _same(*vector_potential(v, 1), [c * QQ(1, m + 2) for c in cross])

    def test_one_table_serves_every_power(self):
        # the constant 1 about the origin maps to x_l / (power + 1) under the table of each power of t
        one = np.array([1], dtype=object)
        for power in (0, 1, 2):
            den, table = potential_table(0, (0, 0, 0), power)
            assert [poly(t @ one, den) for t in table] == [sympy.Poly(x / (power + 1), *X, domain=QQ) for x in X]


class TestIntegration:
    def test_reference_volume(self):
        assert simplex_integral(sympy.Poly(1, *X, domain=QQ)) == QQ(1, 6)

    def test_subtet_moment_table(self):
        # the integer table against the exact integral over each subtet
        den, tables = subtet_moment_table(4)
        for i, vertices in enumerate(SUBTET_VERTICES):
            for e in monomial_exponents(4):
                mono = sympy.Poly.from_dict({e: 1}, *X, domain=QQ)
                assert QQ(tables[i][e], den) == tet_integral(mono, vertices)

    def test_barycentric_product(self):
        # the integral of lambda_0 lambda_1 lambda_2 lambda_3 over the cell is 1/5040, from the subtet moments
        x, y, z = X
        product = sympy.Poly((1 - x - y - z) * x * y * z, *X, domain=QQ)
        den, tables = subtet_moment_table(4)
        total = sum(int(c) * t[e] for e, c in product.terms() for t in tables)
        assert F(total, den) == F(1, 5040)

    def test_subtets_tile_the_cell(self):
        # the four subtet moments of each monomial sum to its integral e! / (|e| + 3)! over the cell
        den, tables = subtet_moment_table(3)
        for e in monomial_exponents(3):
            total = F(sum(t[e] for t in tables), den)
            assert total == F(int(np.prod([sympy.factorial(a) for a in e])), int(sympy.factorial(sum(e) + 3)))

    def test_quadrature_agreement(self):
        from tetcomplex.elements import _monomials
        from tetcomplex.quadrature import rule

        pts, wts = rule(3, 12)
        exact = np.array([float(simplex_integral(sympy.Poly.from_dict({e: 1}, *X, domain=QQ))) for e in monomial_exponents(12)])
        assert np.abs(wts @ _monomials(pts, 12) - exact).max() < 1e-14


# every map the split space and its moments pull back with: internal faces,
# parent faces and subtets
SPLIT_MAPS = (
    [(REF_VERTICES[k], REF_VERTICES[l], REF_CENTER) for _, (k, l) in INTERNAL_FACES]
    + [tuple(REF_VERTICES[v] for v in face) for face in PARENT_FACE_VERTICES]
    + list(SUBTET_VERTICES)
)

points3 = st.tuples(small, small, small)


class TestIntegerTables:
    """The integer pull-back and derivative tables against sympy substitution and differentiation."""

    @given(numerators(max_degree=4), st.integers(0, 2), st.lists(points3, min_size=3, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_pullback_table_matches_sympy(self, p, extra, random_points):
        nums, den = p
        degree = next(d for d in range(6) if dim_poly(d) == len(nums)) + extra
        nums = _lifted(nums, dim_poly(degree))
        for points in SPLIT_MAPS + [tuple(random_points), tuple(random_points[:2])]:
            gens = sympy.symbols("u v w")[:len(points) - 1]
            scale, table = pullback_table(degree, tuple(points))
            want = substitute(poly(nums, den), affine(points, gens), gens)
            assert poly(table @ nums, den * scale, gens) == want

    @given(numerators(max_degree=4, min_degree=1))
    @settings(max_examples=30, deadline=None)
    def test_derivative_table_matches_sympy(self, p):
        nums, den = p
        degree = next(d for d in range(6) if dim_poly(d) == len(nums))
        for c, table in enumerate(derivative_table(degree)):
            assert poly(table @ nums, den) == poly(nums, den).diff(X[c])

    def test_tables_are_read_only(self):
        for table in (pullback_table(2, SPLIT_MAPS[0])[1], derivative_table(2), potential_table(2, REF_CENTER)[1]):
            with pytest.raises(ValueError):
                table[0, 0] = 1

    def test_mul_tables_drops_cancelled_sums(self):
        # (x + 1)(x - 1) = x^2 - 1: the x terms cancel and leave no key
        assert _mul_tables({(1,): 1, (0,): 1}, {(1,): 1, (0,): -1}) == {(2,): 1, (0,): -1}


class TestPullback:
    B = [[F(2), F(1), F(0)], [F(0), F(1), F(1)], [F(1), F(0), F(3)]]

    @given(numerators(components=3))
    @settings(max_examples=15, deadline=None)
    def test_curl_transforms_contravariantly(self, u):
        # the physical curl of the covariant field B^-T uhat is B curl(uhat) / det B
        nums, den = u
        inverse_t = [[inverse(self.B)[j][i] for j in range(3)] for i in range(3)]
        uhat = _polys(nums, den)
        covariant = matvec(inverse_t, uhat)
        got = phys_curl(cell_on(self.B), _single(covariant, len(nums[0])))
        det = _det3(self.B)
        want = [c * QQ(det.denominator, det.numerator) for c in matvec(self.B, curl(uhat))]
        assert all(piece == want for piece in field(got))


def _single(polys, width):
    """One field of :class:`IntegerFields` on every piece from ``Poly`` components."""
    from exact_reference import fields_of

    degree = next(d for d in range(8) if dim_poly(d) == width)
    return fields_of([[polys] * 4], degree, ["single"])


class TestPiecewise:
    def test_piecewise_poincare_needs_center(self):
        nums = np.zeros((1, 4, 3, 1), dtype=object)
        nums[0, :, :, 0] = np.arange(4)[:, None]
        fields = IntegerFields(nums, 1, ["L2"])
        with pytest.raises(ValueError):
            piecewise_poincare2(fields, (F(0), F(0), F(0)))
        out = piecewise_poincare2(fields, REF_CENTER)
        assert isinstance(out, IntegerFields) and out.continuity == ("L2",)

    @given(integer_fields(), st.lists(small, min_size=9, max_size=9))
    @settings(max_examples=25, deadline=None)
    def test_piecewise_potentials_match_sympy(self, fields, entries):
        # single fields about the origin (or the centre), piecewise ones about the centre
        matrix = [entries[3 * i:3 * i + 3] for i in range(3)]
        base = (0, 0, 0) if fields.single_pieces().all() else REF_CENTER
        got = piecewise_poincare2(fields, base, integer_matrix(matrix))
        assert len(got) == len(fields)
        for a, single in enumerate(fields.single_pieces()):
            want = [_p2(piece, base, matrix) for piece in field(fields, a)]
            assert field(got, a) == want
            label = fields.continuity[a]
            assert got.continuity[a] == ("single" if single else ("C0" if label in ("C0", "single") else "L2"))


def _rational_rows(rnd, nrows, ncols):
    """Sparse rational rows, often rank-deficient, with zero rows and zero columns."""
    density = rnd.choice([0.1, 0.25, 0.5, 1.0])
    rows = [
        [F(rnd.randint(-5, 5), rnd.randint(1, 4)) if rnd.random() < density else F(0) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    for i in range(nrows):
        kind = rnd.random()
        if kind < 0.15:
            rows[i] = [F(0)] * ncols
        elif kind < 0.4 and i >= 2:
            a, b = F(rnd.randint(-3, 3), rnd.randint(1, 3)), F(rnd.randint(-3, 3))
            j, l = rnd.sample(range(i), 2)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[l])]
    for c in range(ncols):
        if rnd.random() < 0.15:
            for row in rows:
                row[c] = F(0)
    return rows


@st.composite
def sparse_matrices(draw, max_size=9):
    nrows = draw(st.integers(1, max_size))
    ncols = draw(st.integers(1, max_size))
    return _rational_rows(draw(st.randoms(use_true_random=False)), nrows, ncols)


def _sympy_rref(matrix):
    reduced, pivots = sympy.Matrix(matrix).rref()
    return reduced, list(pivots)


class TestExactLinearAlgebra:
    def test_rank_and_nullspace(self):
        m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
        assert rank(m) == 2
        (v,), den = null_numerators(*integer_rref(m), 3)
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0

    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_integer_rref_matches_sympy(self, matrix):
        # each integer row over its pivot entry is that row of the reduced form
        rows, pivots = integer_rref(matrix)
        reduced, want = _sympy_rref(matrix)
        assert pivots == want and rank(matrix) == len(want)
        for i, (row, p) in enumerate(zip(rows, pivots)):
            assert [sympy.Rational(row.get(j, 0), row[p]) for j in range(len(matrix[0]))] == list(reduced.row(i))

    @given(sparse_matrices())
    @settings(max_examples=30, deadline=None)
    def test_integer_rref_of_augmented_identity(self, matrix):
        # the [A | I] elimination of the exact linear solver in ``bubbles``
        n = len(matrix)
        aug = [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
        rows, pivots = integer_rref(aug)
        reduced, want = _sympy_rref(aug)
        assert pivots == want
        assert [[sympy.Rational(row.get(j, 0), row[p]) for j in range(len(aug[0]))] for row, p in zip(rows, pivots)] == [
            list(reduced.row(i)) for i in range(len(pivots))
        ]

    @given(sparse_matrices())
    @settings(max_examples=40, deadline=None)
    def test_null_numerators_match_sympy(self, matrix):
        ncols = len(matrix[0])
        vectors, den = null_numerators(*integer_rref(matrix), ncols)
        want = sympy.Matrix(matrix).nullspace()
        assert [[sympy.Rational(v, den) for v in vector] for vector in vectors] == [list(w) for w in want]

    def test_rref_edge_shapes(self):
        assert integer_rref([]) == ([], [])
        assert integer_rref([[F(0), F(0)], [F(0), F(0)]]) == ([], [])
        assert integer_rref([[F(3)]]) == ([{0: 1}], [0])
        with pytest.raises(TypeError):
            integer_rref([[0.5, F(1)]])


class TestExports:
    def test_every_export_is_read_by_the_program(self):
        # a name that only tests read is no package API: import it from its module
        root = Path(__file__).resolve().parents[1]
        package = root / "src" / "tetcomplex" / "polyalg" / "__init__.py"
        read = set()
        for path in (p for d in ("src", "scripts", "perfbench") for p in (root / d).rglob("*.py")):
            if path == package:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name)
        assert sorted(set(tetcomplex.polyalg.__all__) - read) == []
