"""Bubble constructions: split spaces, divergence solver, face/interior bubbles.

The integer constructions are checked against exact sympy references
(:mod:`exact_reference`): continuity and traces by substitution into the
faces of the split, divergences by differentiation, integrals monomial by
monomial.
"""

import re
from fractions import Fraction as F

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy import QQ

from exact_reference import (
    X,
    div,
    exact_matrix,
    field,
    fields_of,
    grad,
    inverse,
    is_continuous,
    matvec,
    poly,
    simplex_integral,
    split_integral,
    vanishes_on_boundary,
)
from tetcomplex.bubbles import (
    _div_solver,
    _h1_gram,
    build_split_space,
    div_coefficients,
    interior_bubbles,
    layered_targets,
    scalar_face_bubble,
    solve_div,
)
from tetcomplex.elements import CellGeometry, physical_face_bubble, reference_cell
from tetcomplex.mesh import random_rational_cell
from tetcomplex.polyalg import IntegerFields, monomial_exponents, rank


def _target(values, degree=0):
    """A scalar divergence target: the piece constants ``values`` over 1, on the monomials of degree <= ``degree``."""
    from tetcomplex.polyalg import dim_poly

    nums = np.zeros((1, 4, 1, dim_poly(degree)), dtype=object)
    nums[0, :, 0, 0] = values
    return IntegerFields(nums, 1, ["single" if len(set(values)) == 1 else "L2"])


def _scalar(pieces, degree):
    """One scalar divergence target from a ``Poly`` per piece."""
    return fields_of([[[p] for p in pieces]], degree, ["L2"])


def _divergences(fields, i=0):
    """The divergence of field ``i`` on each piece, as ``Poly``."""
    return [div(piece) for piece in field(fields, i)]


def _space_members(space):
    """The scalar basis of a split space: per member, four pieces of one ``Poly`` each."""
    nums, den = space.coefficients
    return [[[poly(row, den)] for row in member] for member in nums.tolist()]


def _vector_fields(space, vectors, den=1):
    """Fields with coordinates ``vectors`` in the component-wise basis (field ``3 a + c``:
    scalar ``a`` in component ``c``), as four pieces of three ``Poly`` components."""
    basis, b_den = space.coefficients
    out = []
    for v in vectors:
        weights = np.array(v, dtype=object).reshape(-1, 3).T  # (components, scalars)
        nums = (weights @ basis.reshape(len(basis), -1)).reshape(3, 4, -1).transpose(1, 0, 2)
        out.append([[poly(c, b_den * den) for c in piece] for piece in nums.tolist()])
    return out


def _h1_inner(u, v):
    """The H1-seminorm inner product of two piecewise vector fields (four pieces of three ``Poly``)."""
    pieces = [
        sum((a.diff(x) * b.diff(x) for a, b in zip(pu, pv) for x in X), sympy.Poly(0, *X, domain=QQ))
        for pu, pv in zip(u, v)
    ]
    return split_integral(pieces)


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
        assert build_split_space(1).dimension == 5  # nodal values at the five split vertices

    def test_linear_zero_trace(self):
        space = build_split_space(1, zero_trace=True)
        assert space.dimension == 1  # only the split-center node survives

    @pytest.mark.parametrize("m,expected", [(2, 5), (3, 15)])
    def test_zero_trace_dimensions(self, m, expected):
        assert build_split_space(m, zero_trace=True).dimension == expected

    def test_members_continuous(self):
        # the sympy check, independent of the build's integer one
        for m in (1, 2, 3):
            for zero_trace in (False, True):
                for member in _space_members(build_split_space(m, zero_trace=zero_trace)):
                    assert is_continuous(member)

    def test_zero_trace_members_vanish(self):
        for m in (1, 2, 3):
            for member in _space_members(build_split_space(m, zero_trace=True)):
                assert vanishes_on_boundary(member)

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
        coords = space.coefficients[0].reshape(space.dimension, -1)
        assert rank(coords.T.tolist()) == space.dimension


class TestSolveDiv:
    def test_zero_gives_zero(self):
        assert not solve_div(_target([0, 0, 0, 0]), 2).nums.any()

    def test_piecewise_constant_pattern(self):
        v = solve_div(_target([1, -1, 1, -1]), 1)
        assert _divergences(v) == [sympy.Poly(c, *X, domain=QQ) for c in (1, -1, 1, -1)]
        assert vanishes_on_boundary(field(v)) and is_continuous(field(v))

    def test_divergence_postcondition_catches_a_wrong_solution(self, monkeypatch):
        from tetcomplex import bubbles

        solve = bubbles.div_coefficients

        def doubled(target, k):
            z, den = solve(target, k)
            return [2 * v for v in z], den

        monkeypatch.setattr(bubbles, "div_coefficients", doubled)
        with pytest.raises(ArithmeticError, match="exact divergence postcondition"):
            solve_div(_target([2, -1, 0, -1]), 2)

    def test_postconditions_survive_optimized_mode(self):
        # both checks are exceptions, not asserts that ``python -O`` strips
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import numpy as np\n"
            "from tetcomplex import bubbles\n"
            "from tetcomplex.polyalg import IntegerFields\n"
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
            "nums = np.array([2, -1, 0, -1], dtype=object).reshape(1, 4, 1, 1)\n"
            "try:\n"
            "    bubbles.solve_div(IntegerFields(nums, 1, ['L2']), 2)\n"
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
            solve_div(_target([1, 1, 1, 1]), 2)

    def test_degree_guard(self):
        x = sympy.Poly(X[0], *X, domain=QQ)
        with pytest.raises(ValueError):
            solve_div(_scalar([x * x - QQ(1, 10)] * 4, 2), 2)

    def test_idempotent_divergence(self):
        # resolving the divergence of a solution reproduces that divergence
        v = solve_div(_target([2, -1, 0, -1]), 2)
        again = solve_div(_scalar(_divergences(v), 1), 2)
        assert _divergences(again) == _divergences(v)

    def test_stability_bound(self):
        # H1 norms stay bounded by a single constant over random unit targets
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(20):
            vals = [int(v) for v in rng.integers(-4, 5, size=4)]
            consts = [4 * c - sum(vals) for c in vals]  # 4 times the mean-free constants
            norm_p = float(split_integral([sympy.Poly(c * c, *X, domain=QQ) for c in consts])) ** 0.5
            if norm_p == 0:
                continue
            v = field(solve_div(_target(consts), 1))
            h1 = float(_h1_inner(v, v)) + float(split_integral([sum((c * c for c in piece), sympy.Poly(0, *X, domain=QQ)) for piece in v]))
            worst = max(worst, h1**0.5 / norm_p)
        assert worst < 50.0  # single constant across all targets

    def test_minimal_h1_orthogonal_to_divergence_nullspace(self):
        # the minimal-H1 property: the solution is H1-seminorm orthogonal,
        # exactly, to every zero-trace divergence-free field of the space
        # (degree 3 is the lowest with a nonzero divergence nullspace)
        k = 3
        ds = _div_solver(k)
        assert ds.null
        null_fields = _vector_fields(ds.space, ds.null)
        targets = layered_targets(k - 1)
        for i in range(len(targets)):
            z, _ = div_coefficients(targets.take([i]), k)
            assert all(_dot(gn, z) == 0 for gn in ds.gram_null)
            u = field(solve_div(targets.take([i]), k))
            assert all(_h1_inner(u, nf) == 0 for nf in null_fields)


class TestIntegerKernels:
    @pytest.mark.parametrize("k", [2, 3])
    def test_gram_matches_polynomial_products(self, k):
        space = build_split_space(k, zero_trace=True)
        total, den = _h1_gram(space)
        members = _space_members(space)
        grads = [[grad(piece[0]) for piece in member] for member in members]
        want = [
            [split_integral([sum((a * b for a, b in zip(ga[p], gb[p])), sympy.Poly(0, *X, domain=QQ)) for p in range(4)])
             for gb in grads]
            for ga in grads
        ]
        assert [[QQ(int(v), den) for v in row] for row in total] == want

    def test_solution_matches_polynomial_reference(self):
        # reference: z0 + sum q_i n_i with (N^T G N) q = -(G N)^T z0, and the
        # field as the sum of the component-wise basis in sympy
        k = 3
        ds = _div_solver(k)
        reduced = [[_dot(gn, n) for n in ds.null] for gn in ds.gram_null]
        targets = layered_targets(k - 1)
        for i in range(len(targets)):
            target = targets.take([i])
            nums, den = ds.solver.solve(target.nums[0, :, 0].ravel().tolist(), target.den)
            z0 = [F(v, den) for v in nums]
            q = _solve_square(reduced, [-_dot(gn, z0) for gn in ds.gram_null])
            expected = [zz + sum(qi * n[j] for qi, n in zip(q, ds.null)) for j, zz in enumerate(z0)]
            nums, den = div_coefficients(target, k)
            assert [F(v, den) for v in nums] == expected
            common = sympy.ilcm(1, *(e.denominator for e in expected))
            (want,) = _vector_fields(ds.space, [[int(e * common) for e in expected]], int(common))
            assert field(solve_div(target, k)) == want

    @given(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
    @settings(max_examples=15, deadline=None)
    def test_random_targets_exact_and_minimal(self, weights):
        basis = layered_targets(2)
        nums = np.array(weights, dtype=object) @ basis.nums.reshape(len(basis), -1)
        target = IntegerFields(nums.reshape(1, *basis.nums.shape[1:]), basis.den, ["single"])
        assert _divergences(solve_div(target, 3)) == [poly(row[0], target.den) for row in target.nums[0].tolist()]
        z, _ = div_coefficients(target, 3)
        assert all(_dot(gn, z) == 0 for gn in _div_solver(3).gram_null)


def _reference_bubble(i):
    """The production face bubble on the reference cell: (bubble, raw field, divergence)."""
    return physical_face_bubble(reference_cell(), i)


class TestFaceBubbles:
    def test_scalar_bubbles_are_barycentric_products(self):
        x, y, z = X
        lam = (1 - x - y - z, x, y, z)
        for i in range(4):
            want = sympy.Poly(sympy.prod([lam[j] for j in range(4) if j != i]), *X, domain=QQ)
            assert poly(scalar_face_bubble(i)) == want

    @pytest.mark.parametrize("i", range(4))
    def test_constant_divergence_exact(self, i):
        beta, _, div_value = _reference_bubble(i)
        assert _divergences(beta) == [sympy.Poly(sympy.Rational(div_value.numerator, div_value.denominator), *X, domain=QQ)] * 4

    @pytest.mark.parametrize("i", range(4))
    def test_trace_matches_raw(self, i):
        beta, raw, _ = _reference_bubble(i)
        difference = [[a - b for a, b in zip(p, q)] for p, q in zip(field(beta), field(raw))]
        assert vanishes_on_boundary(difference) and is_continuous(field(beta))

    @pytest.mark.parametrize("i", range(4))
    def test_genuinely_piecewise(self, i):
        # documents why single polynomials cannot carry the correction
        assert not _reference_bubble(i)[0].single_pieces()[0]

    def test_divergence_value_via_flux(self):
        # the constant equals the boundary flux divided by the volume
        _, raw, div_value = _reference_bubble(0)
        flux = simplex_integral(div(field(raw)[0]))
        assert div_value == F(int(flux.numerator), int(flux.denominator)) * 6

    def test_reference_divergences(self):
        values = [_reference_bubble(i)[2] for i in range(4)]
        assert values == [F(3, 20), F(-1, 20), F(1, 20), F(-1, 20)]

    def test_random_cell_constant_divergence_and_trace(self):
        # the bubbles on a cell that is not the reference cell: the physical
        # divergence is one constant and the correction has zero trace
        cell = CellGeometry.standalone(random_rational_cell(np.random.default_rng(5)))
        for i in range(4):
            beta, raw, div_value = physical_face_bubble(cell, i)
            value = sympy.Poly(sympy.Rational(div_value.numerator, div_value.denominator), *X, domain=QQ)
            assert [div(matvec(inverse(exact_matrix(cell.amap)), piece)) for piece in field(beta)] == [value] * 4
            difference = [[a - b for a, b in zip(p, q)] for p, q in zip(field(beta), field(raw))]
            assert vanishes_on_boundary(difference)


class TestInteriorBubbles:
    def test_counts(self):
        assert len(interior_bubbles(1)) == 3
        assert len(interior_bubbles(2)) == 9

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_targets_are_mean_free_layers(self, k):
        # S_k: the monomials of degree k and, from k = 2, k - 1, each less its mean over the cell
        targets = layered_targets(k)
        degrees = (k, k - 1) if k >= 2 else (k,)
        exps = [e for d in degrees for e in monomial_exponents(k) if sum(e) == d]
        assert len(targets) == len(exps) and targets.continuity == ("single",) * len(exps)
        for i, e in enumerate(exps):
            mono = sympy.Poly.from_dict({e: 1}, *X, domain=QQ)
            mean = simplex_integral(mono) * 6
            assert field(targets, i) == [[mono - mean]] * 4

    @pytest.mark.parametrize("k", [1, 2])
    def test_exact_divergence_and_trace(self, k):
        for ib in interior_bubbles(k):
            assert _divergences(ib.numerators) == [piece[0] for piece in field(ib.target)]
            assert vanishes_on_boundary(field(ib.numerators))
            assert ib.order == k + 1

    def test_dof_gram_invertible(self):
        # integration against gradients of the divergence targets is unisolvent
        for k in (1, 2):
            targets = layered_targets(k)
            gradients = [grad(field(targets, j)[0][0]) for j in range(len(targets))]
            gram = []
            for ib in interior_bubbles(k):
                pieces = field(ib.numerators)
                gram.append([
                    split_integral([sum((a * b for a, b in zip(piece, g)), sympy.Poly(0, *X, domain=QQ)) for piece in pieces])
                    for g in gradients
                ])
            assert sympy.Matrix(gram).rank() == len(targets)


class TestGoldenValues:
    def test_face_bubble_divergence(self):
        # frozen golden value: the constant divergence of bubble 0, on every piece
        assert [str(d.as_expr()) for d in _divergences(_reference_bubble(0)[0])] == ["3/20"] * 4


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
