"""Exact algebra: differentials, vector potentials, integration, exact linear algebra."""

import ast
from fractions import Fraction as F
from itertools import product
from math import lcm
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tetcomplex.polyalg
from tetcomplex.elements import phys_curl
from tetcomplex.polyalg import (
    SUBTET_VERTICES,
    IntegerFields,
    PiecewiseField,
    Polynomial,
    REF_CENTER,
    VectorField,
    as_piecewise,
    curl,
    div,
    face_param,
    grad,
    homogeneous_basis,
    integrate_unit_simplex,
    monomial_exponents,
    piecewise_poincare2,
    poincare1,
    poincare2,
    poincare3,
    rank,
)
from tetcomplex.polyalg.poincare import _integrate_t, _offset_field, _ray_exprs, potential_table
from tetcomplex.polyalg.poly import _det3, _inv3
from tetcomplex.polyalg.spaces import derivative_table, nullspace, rref, select_independent
from tetcomplex.polyalg.split import (
    INTERNAL_FACES,
    PARENT_FACE_VERTICES,
    REF_VERTICES,
    pullback_table,
    subtet_moment_table,
)

X, Y, Z = (Polynomial.variable(i) for i in range(3))
POSITION = VectorField((X, Y, Z))


def _tet_integral(p, vertices):
    """Exact integral over a tetrahedron: the pull-back to the unit simplex times |det|."""
    v0 = vertices[0]
    matrix = [[v[i] - v0[i] for v in vertices[1:]] for i in range(3)]
    return integrate_unit_simplex(p.compose_affine(matrix, v0)) * abs(_det3(matrix))


def _segment_param(p0, p1):
    """The affine map t -> p0 + t (p1 - p0) as (matrix columns, shift)."""
    return [[p1[i] - p0[i]] for i in range(3)], list(p0)


def random_polynomial(rng, degree, density=0.6):
    table = {}
    for e in monomial_exponents(degree):
        if rng.random() < density:
            table[e] = F(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
    return Polynomial(table)


def random_vector(rng, degree):
    return VectorField(tuple(random_polynomial(rng, degree) for _ in range(3)))


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def polynomials(draw, max_degree=3):
    exps = monomial_exponents(draw(st.integers(0, max_degree)))
    table = {}
    for e in draw(st.lists(st.sampled_from(exps), min_size=1, max_size=6)):
        table[e] = draw(coeffs)
    return Polynomial(table)


@st.composite
def vector_fields(draw, max_degree=3):
    return VectorField(tuple(draw(polynomials(max_degree)) for _ in range(3)))


class TestDifferential:
    def test_grad_product_rule(self):
        assert grad(X * Y) == VectorField((Y, X, Polynomial.zero()))

    def test_div_direct(self):
        u = VectorField((X * X, Y * Y, Z * Z))
        assert div(u) == 2 * X + 2 * Y + 2 * Z

    @given(polynomials())
    @settings(max_examples=25, deadline=None)
    def test_curl_grad_is_zero(self, p):
        assert curl(grad(p)).is_zero()

    @given(vector_fields())
    @settings(max_examples=25, deadline=None)
    def test_div_curl_is_zero(self, u):
        assert div(curl(u)).is_zero()

    @given(polynomials())
    @settings(max_examples=15, deadline=None)
    def test_degree_drops(self, p):
        g = grad(p)
        if not g.is_zero():
            assert g.degree == p.degree - 1


class TestPoincare:
    def test_scalar_potential_of_gradient(self):
        # potentials of gradients recover the function (vanishing at the base)
        u = VectorField((Y, X, Polynomial.zero()))
        assert poincare1(u) == X * Y

    def test_linear_example(self):
        u = VectorField((Y, Polynomial.zero(), Polynomial.zero()))
        assert poincare1(u) == X * Y * F(1, 2)

    def test_zero(self):
        assert poincare1(VectorField.zero()).is_zero()

    def test_constant_2field(self):
        u = VectorField.constant((0, 0, 1))
        assert poincare2(u) == VectorField((Y * F(-1, 2), X * F(1, 2), Polynomial.zero()))

    def test_constant_3field(self):
        assert poincare3(Polynomial.constant(1)) == VectorField(
            (X * F(1, 3), Y * F(1, 3), Z * F(1, 3))
        )

    def test_split_identity_example(self):
        # grad p1(u) + p2(curl u) reassembles u = (y, 0, 0)
        u = VectorField((Y, Polynomial.zero(), Polynomial.zero()))
        g = grad(poincare1(u))
        c = poincare2(curl(u))
        assert g == VectorField((Y * F(1, 2), X * F(1, 2), Polynomial.zero()))
        assert c == VectorField((Y * F(1, 2), X * F(-1, 2), Polynomial.zero()))
        assert g + c == u

    @pytest.mark.parametrize("degree", range(6))
    def test_null_homotopy_all_degrees(self, degree):
        rng = np.random.default_rng(degree)
        base = (F(1, 3), F(-1, 5), F(2, 7))
        for _ in range(5):
            u = random_vector(rng, degree)
            assert grad(poincare1(u, base)) + poincare2(curl(u), base) == u
            assert curl(poincare2(u, base)) + poincare3(div(u), base) == u
            q = random_polynomial(rng, degree)
            assert div(poincare3(q, base)) == q

    @pytest.mark.parametrize("degree", range(6))
    def test_complex_property(self, degree):
        rng = np.random.default_rng(100 + degree)
        base = (F(0), F(0), F(0))
        for _ in range(5):
            u = random_vector(rng, degree)
            q = random_polynomial(rng, degree)
            assert poincare1(poincare2(u, base), base).is_zero()
            assert poincare2(poincare3(q, base), base).is_zero()

    @given(vector_fields())
    @settings(max_examples=20, deadline=None)
    def test_polynomial_preserving(self, u):
        out = poincare2(u)
        if not out.is_zero():
            assert out.degree <= u.degree + 1

    # the Koszul operator u -> u x (x, y, z)
    def test_koszul_direct(self):
        assert VectorField.constant((1, 0, 0)).cross(POSITION) == VectorField(
            (Polynomial.zero(), -Z, Y)
        )

    def test_koszul_kills_radial(self):
        p = X + Y * Z
        assert VectorField(tuple(p * c for c in POSITION.comps)).cross(POSITION).is_zero()

    @pytest.mark.parametrize("m", range(4))
    def test_koszul_poincare_scaling(self, m):
        for p in homogeneous_basis(m):
            v = VectorField((p, Polynomial.zero(), p))
            assert poincare2(v) == v.cross(POSITION) * F(1, m + 2)


class TestIntegration:
    def test_reference_volume(self):
        assert integrate_unit_simplex(Polynomial.constant(1)) == F(1, 6)

    def test_barycentric_product(self):
        lam = (1 - X - Y - Z) * X * Y * Z
        assert integrate_unit_simplex(lam) == F(1, 5040)

    def test_face_relative_value(self):
        # xi*eta*(1-xi-eta) over the parametric triangle is 1/60 of its area
        xi = Polynomial.variable(0, 2)
        eta = Polynomial.variable(1, 2)
        val = integrate_unit_simplex(xi * eta * (1 - xi - eta))
        assert val == F(1, 120) and val / F(1, 2) == F(1, 60)

    def test_affine_tet(self):
        verts = [(F(0), F(0), F(0)), (F(2), F(0), F(0)), (F(0), F(3), F(0)), (F(0), F(0), F(1))]
        assert _tet_integral(Polynomial.constant(1), verts) == F(1, 1)

    def test_subtet_moment_table(self):
        # the integer table against the exact integral over each subtet
        den, tables = subtet_moment_table(4)
        for i, vertices in enumerate(SUBTET_VERTICES):
            for e in monomial_exponents(4):
                assert F(tables[i][e], den) == _tet_integral(Polynomial.monomial(e), vertices)

    def test_quadrature_agreement(self):
        from tetcomplex.quadrature import rule

        rng = np.random.default_rng(11)
        pts, wts = rule(3, 12)
        for _ in range(50):
            e = tuple(int(v) for v in rng.integers(0, 5, size=3))
            if sum(e) > 12:
                continue
            p = Polynomial.monomial(e)
            exact = float(integrate_unit_simplex(p))
            approx = float((wts * p.eval_many(pts)).sum())
            assert abs(approx - exact) < 1e-14


# every map the split space and its moments pull back with: internal faces,
# parent faces and subtets
SPLIT_MAPS = (
    [(REF_VERTICES[k], REF_VERTICES[l], REF_CENTER) for _, (k, l) in INTERNAL_FACES]
    + [tuple(REF_VERTICES[v] for v in face) for face in PARENT_FACE_VERTICES]
    + list(SUBTET_VERTICES)
)


def _numerators(p, degree):
    """Coefficient numerators of ``p`` over the monomials of degree <= ``degree``, and their denominator."""
    den = lcm(*(v.denominator for v in p.coeffs.values()))
    return np.array([int(p.coeffs.get(e, 0) * den) for e in monomial_exponents(degree)], dtype=object), den


def _simplex_map(points):
    """Matrix columns and shift of the map of the unit simplex onto ``points``."""
    p0 = points[0]
    return [[points[j + 1][i] - p0[i] for j in range(len(points) - 1)] for i in range(3)], list(p0)


class TestIntegerTables:
    """The integer pull-back and derivative tables against Polynomial algebra."""

    @given(polynomials(max_degree=4), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_pullback_table_matches_compose_affine(self, p, extra):
        degree = max(p.degree, 0) + extra
        nums, den = _numerators(p, degree)
        for points in SPLIT_MAPS:
            scale, table = pullback_table(degree, points)
            composed = p.compose_affine(*_simplex_map(points))
            rows = monomial_exponents(degree, len(points) - 1)
            got = {f: F(v, den * scale) for f, v in zip(rows, (table @ nums).tolist()) if v}
            assert got == composed.coeffs

    @given(polynomials(max_degree=4))
    @settings(max_examples=40, deadline=None)
    def test_derivative_table_matches_derivative(self, p):
        degree = max(p.degree, 1)
        nums, den = _numerators(p, degree)
        lower = monomial_exponents(degree - 1)
        for c, table in enumerate(derivative_table(degree)):
            got = {e: F(v, den) for e, v in zip(lower, (table @ nums).tolist()) if v}
            assert got == p.derivative(c).coeffs

    def test_tables_are_read_only(self):
        for table in (pullback_table(2, SPLIT_MAPS[0])[1], derivative_table(2), potential_table(2, REF_CENTER)[1]):
            with pytest.raises(ValueError):
                table[0, 0] = 1


class TestPullback:
    B = [[F(2), F(1), F(0)], [F(0), F(1), F(1)], [F(1), F(0), F(3)]]

    @given(vector_fields())
    @settings(max_examples=15, deadline=None)
    def test_curl_transforms_contravariantly(self, uhat):
        # the physical curl of the covariant field B^-T uhat is B curl(uhat) / det B
        inverse_t = [[_inv3(self.B)[j][i] for j in range(3)] for i in range(3)]
        covariant = IntegerFields.from_fields([uhat.matmul(inverse_t)])
        got = phys_curl(SimpleNamespace(amap=SimpleNamespace(matrix=self.B)), covariant)[0]
        assert got == as_piecewise(curl(uhat).matmul(self.B) * (1 / _det3(self.B)))


class TestPiecewise:
    def test_single_is_c0(self):
        pw = PiecewiseField.from_single(VectorField((X * Y, Y * Z, Z)))
        assert pw.check_c0() and pw.is_single()

    def test_c0_violation_detected(self):
        pieces = [Polynomial.constant(i) for i in range(4)]
        pw = PiecewiseField(pieces, "L2")
        assert not pw.check_c0()

    def test_piecewise_poincare_needs_center(self):
        pieces = [Polynomial.constant(i) for i in range(4)]
        pw = PiecewiseField(
            [VectorField((p, p, p)) for p in pieces], "L2"
        )
        with pytest.raises(ValueError):
            piecewise_poincare2(pw, (F(0), F(0), F(0)))
        out = piecewise_poincare2(pw, REF_CENTER)
        assert isinstance(out, PiecewiseField)

    def test_dump_sorted(self):
        p = X * Y * 2 + Z
        lines = p.dump()
        assert lines == sorted(lines) or len(lines) == 2


class TestExactLinearAlgebra:
    def test_rank_and_nullspace(self):
        m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]]
        assert rank(m) == 2
        ns = nullspace(m)
        assert len(ns) == 1
        v = ns[0]
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0


# ---------------------------------------------------------------------------
# the exact kernels against the plain Fraction algorithms they replaced


def _dense_rref(matrix):
    """Reference: dense Gauss-Jordan elimination in Fractions."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((rr for rr in range(r, nrows) if rows[rr][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [v / pv for v in rows[r]]
        for rr in range(nrows):
            if rr != r and rows[rr][c] != 0:
                f = rows[rr][c]
                rows[rr] = [a - f * b for a, b in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _termwise_substitute(p, exprs):
    """Reference: substitution term by term with polynomial ring products."""
    nvars_out = exprs[0].nvars
    powers = [{0: Polynomial.constant(1, nvars_out)} for _ in exprs]

    def power(i, e):
        if e not in powers[i]:
            powers[i][e] = power(i, e - 1) * exprs[i]
        return powers[i][e]

    out = Polynomial.zero(nvars_out)
    for k, v in p.coeffs.items():
        term = Polynomial.constant(v, nvars_out)
        for i, e in enumerate(k):
            if e:
                term = term * power(i, e)
        out = out + term
    return out


def _termwise_call(p, point):
    """Reference: the value at ``point`` as a plain sum of coefficient times powers."""
    out = F(0)
    for k, v in p.coeffs.items():
        term = v
        for x, e in zip(point, k):
            if e:
                term = term * x**e
        out = out + term
    return out


def _affine_exprs(matrix, shift):
    """The substitution that ``compose_affine(matrix, shift)`` performs."""
    m = len(matrix[0])
    exprs = []
    for row, b in zip(matrix, shift):
        table = {(0,) * m: b}
        for j, a in enumerate(row):
            table[tuple(int(jj == j) for jj in range(m))] = a
        exprs.append(Polynomial(table, m))
    return exprs


def _reference_poincare2(u, base, matrix):
    """Reference: the cross product with the offset and the t-integral on Fraction polynomials."""
    crossed = u.substitute(_ray_exprs(base)).cross(_offset_field(base, matrix=matrix, t_power=1))
    return VectorField(tuple(_integrate_t(c) for c in crossed.comps))


def _same_polynomial(a, b):
    return a.nvars == b.nvars and a.coeffs == b.coeffs and list(a.coeffs) == list(b.coeffs)


small = st.fractions(min_value=-4, max_value=4, max_denominator=5)
points3 = st.tuples(small, small, small)


@st.composite
def sparse_matrices(draw, max_size=9):
    """Sparse rational matrices: tall or wide, often rank-deficient, with
    zero rows and zero columns."""
    nrows = draw(st.integers(1, max_size))
    ncols = draw(st.integers(1, max_size))
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    rows = [
        [F(rnd.randint(-5, 5), rnd.randint(1, 4)) if rnd.random() < density else F(0)
         for _ in range(ncols)]
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


def _augmented(matrix):
    n = len(matrix)
    return [list(row) + [F(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]


class TestExactKernels:
    @given(sparse_matrices())
    @settings(max_examples=150, deadline=None)
    def test_rref_matches_dense_reference(self, matrix):
        assert rref(matrix) == _dense_rref(matrix)
        assert rank(matrix) == len(_dense_rref(matrix)[1])

    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rref_of_augmented_identity(self, matrix):
        # the [A | I] elimination of the exact linear solver in ``bubbles``
        aug = _augmented(matrix)
        assert rref(aug) == _dense_rref(aug)

    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_nullspace_matches_reference(self, matrix):
        rows, pivots = _dense_rref(matrix)
        ncols = len(matrix[0])
        expected = []
        for f in (c for c in range(ncols) if c not in pivots):
            v = [F(0)] * ncols
            v[f] = F(1)
            for r, p in enumerate(pivots):
                v[p] = -rows[r][f]
            expected.append(v)
        basis = nullspace(matrix)
        assert basis == expected
        for v in basis:
            assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in matrix)

    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_select_independent_matches_reference(self, matrix):
        # the matrix rows serve as the generator columns
        transposed = [list(r) for r in zip(*matrix)]
        expected = _dense_rref([r for r in transposed if any(r)])[1] if any(map(any, matrix)) else []
        assert select_independent(matrix) == expected

    @given(vector_fields(), points3, st.lists(small, min_size=9, max_size=9))
    @settings(max_examples=40, deadline=None)
    def test_poincare2_matches_polynomial_cross_product(self, u, base, entries):
        # reference: the cross product and the t-integral on Fraction polynomials
        for matrix in (None, [entries[3 * i:3 * i + 3] for i in range(3)]):
            out = poincare2(u, base, matrix)
            assert [c.coeffs for c in out.comps] == [c.coeffs for c in _reference_poincare2(u, base, matrix).comps]

    @given(st.data(), st.lists(small, min_size=9, max_size=9))
    @settings(max_examples=25, deadline=None)
    def test_vector_potential_matches_fraction_reference(self, data, entries):
        # several fields at once: single fields about the origin, piecewise
        # ones about the split centre, each piece against the Fraction reference
        matrix = [entries[3 * i:3 * i + 3] for i in range(3)]
        count = data.draw(st.integers(1, 3))
        for base, single in (((0, 0, 0), True), (REF_CENTER, False)):
            fields = []
            for _ in range(count):
                if single:
                    fields.append(PiecewiseField.from_single(data.draw(vector_fields())))
                else:
                    fields.append(PiecewiseField([data.draw(vector_fields()) for _ in range(4)], "C0"))
            got = piecewise_poincare2(IntegerFields.from_fields(fields), base, matrix)
            assert len(got) == count
            for field, potential in zip(fields, got):
                want = [_reference_poincare2(piece, base, matrix) for piece in field.pieces]
                assert [[c.coeffs for c in p.comps] for p in potential.pieces] == [
                    [c.coeffs for c in p.comps] for p in want
                ]
                assert potential.continuity == ("single" if field.is_single() else "C0")

    @given(st.lists(vector_fields(), min_size=4, max_size=4), st.sampled_from(["C0", "L2"]))
    @settings(max_examples=40, deadline=None)
    def test_integer_fields_round_trip(self, pieces, continuity):
        fields = [PiecewiseField(pieces, continuity), PiecewiseField.from_single(pieces[0])]
        exact = IntegerFields.from_fields(fields)
        assert list(exact) == fields
        assert [f.continuity for f in exact] == [continuity, "single"]
        assert exact.degree == max(max(f.degree for f in fields), 0)
        assert list(exact.resized(exact.degree + 1).reduced()) == fields

    def test_rref_edge_shapes(self):
        assert rref([]) == ([], [])
        assert rref([[F(0), F(0)], [F(0), F(0)]]) == _dense_rref([[F(0), F(0)], [F(0), F(0)]])
        assert rref([[F(3)]]) == ([[F(1)]], [0])
        with pytest.raises(TypeError):
            rref([[0.5, F(1)]])

    @given(polynomials(max_degree=4), points3)
    @settings(max_examples=60, deadline=None)
    def test_substitute_poincare_ray(self, p, base):
        # 3 -> 4 variables: x_i -> W_i + t (x_i - W_i)
        for b in (base, REF_CENTER, (F(0), F(0), F(0))):
            ray = _ray_exprs(b)
            assert _same_polynomial(p.substitute(ray), _termwise_substitute(p, ray))

    @given(polynomials(max_degree=4), points3, points3, points3)
    @settings(max_examples=60, deadline=None)
    def test_compose_affine_face_and_edge(self, p, p0, p1, p2):
        # 3 -> 2 (face) and 3 -> 1 (edge) variables
        for matrix, shift in (face_param((p0, p1, p2)), _segment_param(p0, p1)):
            ref = _termwise_substitute(p, _affine_exprs(matrix, shift))
            assert _same_polynomial(p.compose_affine(matrix, shift), ref)

    @given(polynomials(max_degree=3), st.integers(1, 4), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_substitute_nonlinear_expressions(self, p, m, rnd):
        # quadratic expressions make products cancel inside terms
        exps = [e for e in product(range(3), repeat=m) if sum(e) <= 2]
        exprs = [
            Polynomial({e: F(rnd.randint(-3, 3), rnd.randint(1, 3)) for e in rnd.sample(exps, min(3, len(exps)))}, m)
            for _ in range(3)
        ]
        assert _same_polynomial(p.substitute(exprs), _termwise_substitute(p, exprs))

    def test_substitute_zero_and_constant(self):
        for m in (1, 2, 4):
            exprs = [Polynomial.variable(i % m, m) + F(1, 3) for i in range(3)]
            for p in (Polynomial.zero(), Polynomial.constant(F(-7, 3))):
                out = p.substitute(exprs)
                assert _same_polynomial(out, _termwise_substitute(p, exprs))
                assert out.nvars == m

    @given(polynomials(max_degree=4), points3, points3, points3)
    @settings(max_examples=40, deadline=None)
    def test_float_coefficients_take_the_same_expansion(self, p, p0, p1, p2):
        # float coefficients restrict to edges and faces like exact ones;
        # a float matrix is the other side
        pf = p.to_float()
        for matrix, shift in (face_param((p0, p1, p2)), _segment_param(p0, p1)):
            exprs = _affine_exprs(matrix, shift)
            out = pf.compose_affine(matrix, shift)
            assert _same_polynomial(out, _termwise_substitute(pf, exprs))
            assert all(type(v) is float for v in out.coeffs.values())
            exact = p.compose_affine(matrix, shift)
            for key, v in exact.coeffs.items():
                assert out.coeffs.get(key, 0.0) == pytest.approx(float(v), rel=1e-12, abs=1e-9)
            fm = [[float(a) for a in row] for row in matrix]
            fs = [float(b) for b in shift]
            assert _same_polynomial(
                p.compose_affine(fm, fs), _termwise_substitute(p, _affine_exprs(fm, fs))
            )

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_call_at_exact_points_matches_termwise(self, m, data):
        exps = [e for e in product(range(4), repeat=m) if sum(e) <= 4]
        keys = data.draw(st.lists(st.sampled_from(exps), max_size=6))
        p = Polynomial({e: data.draw(coeffs) for e in keys}, m)
        point = data.draw(st.tuples(*[small | st.integers(-3, 3)] * m))
        out = p(point)
        assert type(out) is F and out == _termwise_call(p, point)
        assert Polynomial.zero(m)(point) == 0

    @given(polynomials(max_degree=4), points3)
    @settings(max_examples=40, deadline=None)
    def test_call_with_a_float_side_sums_the_terms(self, p, point):
        fpoint = tuple(float(x) for x in point)
        assert p(fpoint) == _termwise_call(p, fpoint)
        assert p.to_float()(point) == _termwise_call(p.to_float(), point)


class TestTrustedConstructor:
    P4 = Polynomial({(1, 0, 0, 2): F(2, 3), (0, 0, 0, 0): F(-1)})

    def test_zero_plus_wider_polynomial_takes_its_nvars(self):
        assert (Polynomial.zero(3) + self.P4).nvars == 4
        assert (self.P4 + Polynomial.zero(3)).nvars == 4
        assert (Polynomial.zero(3) - self.P4).nvars == 4

    def test_empty_results_keep_the_left_operand_nvars(self):
        assert (self.P4 * 0).nvars == 4
        assert (self.P4 * F(0)).nvars == 4
        assert (self.P4 * Polynomial.zero(3)).nvars == 4
        assert (Polynomial.zero(3) * self.P4).nvars == 3
        assert (self.P4 - self.P4).nvars == 4
        assert (-Polynomial.zero(4)).nvars == 4
        assert Polynomial.zero(4).derivative(0).nvars == 4

    def test_ring_results_match_the_validating_constructor(self):
        q = Polynomial({(0, 1, 0, 1): F(1, 2)})
        for out in (self.P4 + q, self.P4 * q, -self.P4, self.P4 * F(3), self.P4.derivative(3)):
            rebuilt = Polynomial(dict(out.coeffs), out.nvars)
            assert _same_polynomial(out, rebuilt)
            assert all(type(v) is F and v != 0 for v in out.coeffs.values())

    def test_to_float_drops_underflow(self):
        p = Polynomial({(1, 0, 0): F(1, 10**400), (0, 0, 0): F(1, 2)})
        f = p.to_float()
        assert f.coeffs == {(0, 0, 0): 0.5} and f.nvars == 3
        assert Polynomial.zero(2).to_float().nvars == 2


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
