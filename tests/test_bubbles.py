"""Bubble constructions: split spaces, divergence solver, face/interior bubbles."""

import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tetcomplex.bubbles import (
    _div_solver,
    _h1_gram,
    build_split_space,
    div_coefficients,
    interior_bubbles,
    solve_div,
)
from tetcomplex.elements import CellGeometry, physical_face_bubble, reference_cell
from tetcomplex.mesh import random_rational_cell
from tetcomplex.polyalg import (
    IntegerFields,
    PiecewiseField,
    Polynomial,
    VectorField,
    as_piecewise,
    div,
    grad,
    integrate_unit_simplex,
    layered_mean_zero_basis,
    rank,
)
from tetcomplex.polyalg.poly import _det3
from tetcomplex.polyalg.split import SUBTET_VERTICES


def _target(p, degree=None):
    """An exact (piecewise) polynomial as a divergence target on numerators."""
    return IntegerFields.from_fields([as_piecewise(p)], degree)


def _solve(p, k):
    """:func:`solve_div` of an exact (piecewise) polynomial, as an exact field."""
    return solve_div(_target(p), k)[0]


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v) if a and b), F(0))


def _solve_square(matrix, rhs):
    """The solution of an invertible Fraction system, by Gauss-Jordan elimination on Fractions."""
    n = len(matrix)
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for c in range(n):
        p = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                rows[i] = [a - rows[i][c] * b for a, b in zip(rows[i], rows[c])]
    return [row[n] for row in rows]


class TestSplitSpaces:
    def test_linear_dimension(self):
        space = build_split_space(1)
        assert space.dimension == 5  # nodal values at the five split vertices
        assert len(space.vector_basis()) == 15

    def test_linear_zero_trace(self):
        space = build_split_space(1, zero_trace=True)
        assert space.dimension == 1  # only the split-center node survives

    @pytest.mark.parametrize("m,expected", [(2, 5), (3, 15)])
    def test_zero_trace_dimensions(self, m, expected):
        assert build_split_space(m, zero_trace=True).dimension == expected

    def test_members_continuous(self):
        # the polynomial-level check, independent of the build's integer one
        for m in (1, 2, 3):
            for zero_trace in (False, True):
                for b in build_split_space(m, zero_trace=zero_trace).scalar_basis:
                    assert b.check_c0()

    def test_zero_trace_members_vanish(self):
        for m in (1, 2, 3):
            for b in build_split_space(m, zero_trace=True).scalar_basis:
                assert b.vanishes_on_boundary()

    @pytest.mark.parametrize("zero_trace", [False, True])
    def test_trace_postcondition_catches_a_broken_basis(self, zero_trace, monkeypatch):
        # one basis vector moved off the constraints fails the integer checks
        from tetcomplex import bubbles

        solve = bubbles.null_numerators

        def broken(*args):
            (first, *rest), den = solve(*args)
            return [[first[0] + 1, *first[1:]], *rest], den

        monkeypatch.setattr(bubbles, "null_numerators", broken)
        with pytest.raises(ArithmeticError, match="trace postcondition"):
            build_split_space.__wrapped__(2, zero_trace)

    def test_basis_independent(self):
        space = build_split_space(2)
        coords = IntegerFields.from_fields(space.scalar_basis).nums.reshape(space.dimension, -1)
        assert rank(coords.T.tolist()) == space.dimension


class TestSolveDiv:
    def test_zero_gives_zero(self):
        v = _solve(Polynomial.zero(), 2)
        assert v.is_zero()

    def test_piecewise_constant_pattern(self):
        p = PiecewiseField(
            tuple(Polynomial.constant(c) for c in (1, -1, 1, -1)), "L2"
        )
        v = _solve(p, 1)
        assert (v.div() - p).is_zero()
        assert v.vanishes_on_boundary()

    def test_divergence_postcondition_catches_a_wrong_solution(self, monkeypatch):
        from tetcomplex import bubbles

        solve = bubbles.div_coefficients

        def doubled(target, k):
            z, den = solve(target, k)
            return [2 * v for v in z], den

        monkeypatch.setattr(bubbles, "div_coefficients", doubled)
        target = PiecewiseField(tuple(Polynomial.constant(c) for c in (2, -1, 0, -1)), "L2")
        with pytest.raises(ArithmeticError, match="exact divergence postcondition"):
            _solve(target, 2)

    def test_postconditions_survive_optimized_mode(self):
        # both checks are exceptions, not asserts that ``python -O`` strips
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "from tetcomplex import bubbles\n"
            "from tetcomplex.polyalg import IntegerFields, PiecewiseField, Polynomial\n"
            "solve = bubbles.null_numerators\n"
            "def broken(*args):\n"
            "    (first, *rest), den = solve(*args)\n"
            "    return [[first[0] + 1, *first[1:]], *rest], den\n"
            "bubbles.null_numerators = broken\n"
            "try:\n"
            "    bubbles.build_split_space.__wrapped__(2, False)\n"
            "except ArithmeticError as exc:\n"
            "    print(exc)\n"
            "bubbles.null_numerators = solve\n"
            "coefficients = bubbles.div_coefficients\n"
            "def doubled(target, k):\n"
            "    z, den = coefficients(target, k)\n"
            "    return [2 * v for v in z], den\n"
            "bubbles.div_coefficients = doubled\n"
            "pieces = tuple(Polynomial.constant(c) for c in (2, -1, 0, -1))\n"
            "target = IntegerFields.from_fields([PiecewiseField(pieces, 'L2')])\n"
            "try:\n"
            "    bubbles.solve_div(target, 2)\n"
            "except ArithmeticError as exc:\n"
            "    print(exc)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        run = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(src), "PATH": ""},
        )
        assert run.stdout.splitlines() == [
            "split space trace postcondition violated",
            "exact divergence postcondition violated",
        ], run.stderr

    def test_mean_zero_required(self):
        with pytest.raises(ValueError):
            _solve(Polynomial.constant(1), 2)

    def test_degree_guard(self):
        x = Polynomial.variable(0)
        with pytest.raises(ValueError):
            _solve(x * x - Polynomial.constant(F(1, 20) * 2), 2)

    def test_idempotent_divergence(self):
        # resolving the divergence of a solution reproduces that divergence
        p = PiecewiseField(
            tuple(Polynomial.constant(c) for c in (2, -1, 0, -1)), "L2"
        )
        v = _solve(p, 2)
        again = _solve(v.div(), 2)
        assert (again.div() - v.div()).is_zero()

    def test_stability_bound(self):
        # H1 norms stay bounded by a single constant over random unit targets
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(20):
            vals = rng.integers(-4, 5, size=4)
            consts = [F(int(v)) for v in vals]
            mean = sum(consts) / 4
            consts = [c - mean for c in consts]
            p = PiecewiseField(tuple(Polynomial.constant(c) for c in consts), "L2")
            norm_p = float(p.map(lambda q: q * q, continuity="L2").integrate()) ** 0.5
            if norm_p == 0:
                continue
            v = _solve(p, 1)
            h1 = 0.0
            for c in range(3):
                comp = v.map(lambda u, c=c: u.comps[c], continuity="L2")
                gsq = comp.map(lambda q: grad(q).dot(grad(q)), continuity="L2")
                sq = comp.map(lambda q: q * q, continuity="L2")
                h1 += float(gsq.integrate()) + float(sq.integrate())
            worst = max(worst, h1**0.5 / norm_p)
        assert worst < 50.0  # single constant across all targets

    def test_minimal_h1_orthogonal_to_divergence_nullspace(self):
        # the minimal-H1 property: the solution is H1-seminorm orthogonal,
        # exactly, to every zero-trace divergence-free field of the space
        # (degree 3 is the lowest with a nonzero divergence nullspace)
        k = 3
        ds = _div_solver(k)
        assert ds.null
        zero = PiecewiseField.from_single(VectorField.zero())
        null_fields = [sum((f * c for c, f in zip(n, ds.vec_basis) if c), zero) for n in ds.null]

        def h1_inner(u, v):
            pieces = [
                sum(
                    (grad(a).dot(grad(b)) for a, b in zip(pu.comps, pv.comps)),
                    Polynomial.zero(),
                )
                for pu, pv in zip(u.pieces, v.pieces)
            ]
            return PiecewiseField(pieces, "L2").integrate()

        for g in layered_mean_zero_basis(k - 1):
            z, _ = div_coefficients(_target(g), k)
            assert all(_dot(gn, z) == 0 for gn in ds.gram_null)
            u = _solve(g, k)
            assert all(h1_inner(u, nf) == 0 for nf in null_fields)


def _polynomial_product_gram(space):
    """Reference H1-seminorm Gram matrix: gradient products pulled back to the unit simplex."""
    grads = [phi.map(grad) for phi in space.scalar_basis]
    pulled = []
    for piece, (p0, *others) in enumerate(SUBTET_VERTICES):
        matrix = [[v[i] - p0[i] for v in others] for i in range(3)]  # columns: the edges from p0
        pulled.append(([g.pieces[piece].compose_affine(matrix, list(p0)) for g in grads], abs(_det3(matrix))))
    return [
        [sum((integrate_unit_simplex(c[a].dot(c[b])) * det for c, det in pulled), F(0)) for b in range(len(grads))]
        for a in range(len(grads))
    ]


class TestIntegerKernels:
    @pytest.mark.parametrize("k", [2, 3])
    def test_gram_matches_polynomial_products(self, k):
        space = build_split_space(k, zero_trace=True)
        total, den = _h1_gram(space)
        assert [[F(int(v), den) for v in row] for row in total] == _polynomial_product_gram(space)

    def test_solution_matches_polynomial_reference(self):
        # reference: z0 + sum q_i n_i with (N^T G N) q = -(G N)^T z0, and the
        # field as a sum of Fraction polynomials
        k = 3
        ds = _div_solver(k)
        reduced = [[_dot(gn, n) for n in ds.null] for gn in ds.gram_null]
        zero = PiecewiseField.from_single(VectorField.zero())
        for g in layered_mean_zero_basis(k - 1):
            target = _target(g, k - 1)
            nums, den = ds.solver.solve(target.nums[0, :, 0].ravel().tolist(), target.den)
            z0 = [F(v, den) for v in nums]
            q = _solve_square(reduced, [-_dot(gn, z0) for gn in ds.gram_null])
            expected = [zz + sum(qi * n[j] for qi, n in zip(q, ds.null)) for j, zz in enumerate(z0)]
            nums, den = div_coefficients(target, k)
            assert [F(v, den) for v in nums] == expected
            field = sum((f * c for c, f in zip(expected, ds.vec_basis) if c), zero)
            assert solve_div(target, k)[0] == field

    @given(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
    @settings(max_examples=20, deadline=None)
    def test_random_targets_exact_and_minimal(self, weights):
        basis = layered_mean_zero_basis(2)
        target = as_piecewise(sum((g * w for g, w in zip(basis, weights)), Polynomial.zero()))
        assert (_solve(target, 3).div() - target).is_zero()
        z, _ = div_coefficients(_target(target), 3)
        assert all(_dot(gn, z) == 0 for gn in _div_solver(3).gram_null)


def _reference_bubble(i):
    """The production face bubble on the reference cell: (bubble, raw field, divergence)."""
    return physical_face_bubble(reference_cell(), i)


class TestFaceBubbles:
    @pytest.mark.parametrize("i", range(4))
    def test_constant_divergence_exact(self, i):
        beta, _, div_value = _reference_bubble(i)
        dv = beta.div()
        assert dv.is_single()
        assert dv.pieces[0] == Polynomial.constant(div_value)

    @pytest.mark.parametrize("i", range(4))
    def test_trace_matches_raw(self, i):
        beta, raw, _ = _reference_bubble(i)
        assert (beta - as_piecewise(raw)).vanishes_on_boundary()

    @pytest.mark.parametrize("i", range(4))
    def test_genuinely_piecewise(self, i):
        # documents why single polynomials cannot carry the correction
        assert not _reference_bubble(i)[0].is_single()

    def test_divergence_value_via_flux(self):
        # the constant equals the boundary flux divided by the volume
        _, raw, div_value = _reference_bubble(0)
        flux = as_piecewise(raw).div().integrate()
        assert div_value == flux * 6

    def test_reference_divergences(self):
        values = [_reference_bubble(i)[2] for i in range(4)]
        assert values == [F(3, 20), F(-1, 20), F(1, 20), F(-1, 20)]

    def test_random_cell_constant_divergence_and_trace(self):
        # the bubbles on a cell that is not the reference cell: the physical
        # divergence is one constant and the correction has zero trace
        cell = CellGeometry.standalone(random_rational_cell(np.random.default_rng(5)))
        for i in range(4):
            beta, raw, div_value = physical_face_bubble(cell, i)
            dv = beta.map(lambda p: div(p.matmul(cell.amap.inverse)))
            assert dv.is_single()
            assert dv.pieces[0] == Polynomial.constant(div_value)
            assert (beta - as_piecewise(raw)).vanishes_on_boundary()


class TestInteriorBubbles:
    def test_counts(self):
        assert len(interior_bubbles(1)) == 3
        assert len(interior_bubbles(2)) == 9

    @pytest.mark.parametrize("k", [1, 2])
    def test_exact_divergence_and_trace(self, k):
        for ib in interior_bubbles(k):
            assert (ib.field.div() - as_piecewise(ib.target)).is_zero()
            assert ib.field.vanishes_on_boundary()
            assert ib.order == k + 1

    def test_dof_gram_invertible(self):
        # integration against gradients of the divergence targets is unisolvent
        for k in (1, 2):
            qs = layered_mean_zero_basis(k)
            gram = []
            for ib in interior_bubbles(k):
                gram.append(
                    [
                        ib.field.map(lambda v, q=q: v.dot(grad(q)), continuity="L2").integrate()
                        for q in qs
                    ]
                )
            assert rank(gram) == len(qs)


class TestGoldenDumps:
    def test_polynomial_dump_sorted_lines(self):
        from tetcomplex.polyalg import Polynomial

        p = Polynomial({(1, 1, 0): F(2), (0, 0, 1): F(1, 3)})
        assert p.dump() == ["1/3 * z^1", "2 * x^1 y^1"]

    def test_face_bubble_divergence_dump(self):
        # frozen golden line: the constant-divergence value of bubble 0
        dv = _reference_bubble(0)[0].div()
        assert dv.pieces[0].dump() == ["3/20 * 1"]

    def test_bubble_dump_has_four_pieces(self):
        lines = _reference_bubble(1)[0].dump()
        assert sum(1 for ln in lines if ln.startswith("[piece")) == 4
        assert any("*" in ln for ln in lines)


class TestBuildRecords:
    @staticmethod
    def _records(caplog):
        return [rec.getMessage() for rec in caplog.records if rec.name == "tetcomplex.bubbles"]

    def test_split_space_and_div_solver_are_logged(self, caplog):
        # the undecorated builders, so that a cache filled by other tests
        # cannot hide the record
        with caplog.at_level("DEBUG", logger="tetcomplex.bubbles"):
            build_split_space.__wrapped__(2, zero_trace=True)
        assert len(self._records(caplog)) == 1
        space = self._records(caplog)[0]
        assert space.startswith("built zero-trace split space P2, dim 5, in ")
        assert float(space.split(" in ")[1].removesuffix(" s")) >= 0
        caplog.clear()
        with caplog.at_level("DEBUG", logger="tetcomplex.bubbles"):
            _div_solver.__wrapped__(2)
        solver = [m for m in self._records(caplog) if "divergence solver" in m]
        assert len(solver) == 1
        assert solver[0].startswith("built divergence solver k=2, 15 unknowns, nullity ")
        assert float(solver[0].split(" in ")[1].removesuffix(" s")) >= 0
        stages = re.findall(r"(split space|gram|elimination) (\S+) s, ", solver[0])
        assert [name for name, _ in stages] == ["split space", "gram", "elimination"]
        assert all(float(seconds) >= 0 for _, seconds in stages)

    def test_cached_builds_are_silent(self, caplog):
        _div_solver(2)
        with caplog.at_level("DEBUG", logger="tetcomplex.bubbles"):
            _div_solver(2)
            build_split_space(2, zero_trace=True)
        assert self._records(caplog) == []
