"""Model problems: manufactured fields, solves, Stokes, convergence machinery."""

import dataclasses
import tracemalloc
import weakref
from itertools import permutations, product

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from finite_differences import fd_check, richardson_curl
from tetcomplex.assembly import (
    DOF_POINT_SCALE,
    GlobalSpace,
    assemble,
    default_quadrature_degree,
    discrete_d,
)
from tetcomplex.problems import (
    DERIVATIVE,
    ConfigError,
    ConvergenceReport,
    ManufacturedSolution,
    QuadCurlProblem,
    SolverFailure,
    StokesProblem,
    _dissection,
    _factor_spd,
    _nested_dissection,
    _peak_rss_mb,
    _pressure_constant_coeffs,
    _solve_saddle,
    get_spaces,
    inf_sup_constant,
    interpolation_study,
    run_convergence,
    shift_matrices,
    solve_quadcurl,
    solve_stokes,
)
from tetcomplex.quadrature import QuadratureRule
from tetcomplex.sampling import FieldSample


@pytest.fixture(scope="module")
def manufactured():
    return ManufacturedSolution()


class TestManufactured:
    def test_validation(self, manufactured):
        # divergence-free, zero value and curl on the boundary, and the forcing
        # against the Richardson-extrapolated curl of the third-derivative field
        rng = np.random.default_rng(123)
        pts = rng.random((40, 3))
        assert np.abs(manufactured.divergence(pts)).max() < 1e-10
        edge = rng.random((40, 3))
        for axis in range(3):
            for val in (0.0, 1.0):
                q = edge.copy()
                q[:, axis] = val
                assert np.abs(manufactured.value(q)).max() < 1e-12
                assert np.abs(manufactured.curl(q)).max() < 1e-12
        interior = rng.random((40, 3)) * 0.9 + 0.05
        f_ref = -richardson_curl(manufactured.lap_curl, interior, h=1e-3) + manufactured.value(interior)
        f_an = manufactured.forcing(interior)
        assert np.abs(f_an - f_ref).max() / max(1.0, np.abs(f_an).max()) < 1e-8

    def test_sample_fd_consistency(self, manufactured):
        rng = np.random.default_rng(1)
        pts = rng.random((15, 3)) * 0.8 + 0.1
        rep = fd_check(manufactured.solution_sample(), pts)
        assert rep["ok"], rep

    def test_fields_match_closed_form(self, manufactured):
        pts = np.random.default_rng(6).random((1000, 3)) * 4 - 2
        (s1, s2, s3), (c1, c2, c3) = np.sin(np.pi * pts).T, np.cos(np.pi * pts).T
        value = np.stack([
            s1**3 * s2**2 * c2 * s3**2 * c3,
            s1**2 * c1 * s2**3 * s3**2 * c3,
            -2 * s1**2 * c1 * s2**2 * c2 * s3**3,
        ], axis=1)
        np.testing.assert_allclose(manufactured.value(pts), value, rtol=0, atol=1e-15)
        np.testing.assert_allclose(manufactured.pressure(pts), c1 * c2 * c3, rtol=0, atol=1e-15)

    def test_pressure_gradient_fd_consistency(self, manufactured):
        pts = np.random.default_rng(7).random((15, 3)) * 0.8 + 0.1
        sample = manufactured.pressure_sample()
        rep = fd_check(sample, pts)
        assert rep["ok"] and rep["gradient"] < 1e-8, rep
        wrong = dataclasses.replace(sample, gradient=lambda p: 1.01 * manufactured.pressure_gradient(p))
        rep = fd_check(wrong, pts)
        assert not rep["ok"] and rep["gradient"] > 1e-3, rep

    def test_forcing_is_divergence_free(self, manufactured):
        # f = -curl(...) + u with div u = 0, checked by finite differences
        rng = np.random.default_rng(2)
        pts = rng.random((10, 3)) * 0.8 + 0.1
        step = 1e-5
        eye = np.eye(3)
        divf = sum(
            (manufactured.forcing(pts + step * eye[j])[:, j]
             - manufactured.forcing(pts - step * eye[j])[:, j]) / (2 * step)
            for j in range(3)
        )
        assert np.abs(divf).max() < 1e-4 * max(1.0, np.abs(manufactured.forcing(pts)).max())

    def test_pressure_mean_zero(self, manufactured):
        quad = QuadratureRule(10)
        # tensorized check over the cube via the structured mesh
        spaces = get_spaces(2, 1, 1, ["pressure"])
        pre = spaces["pressure"]
        coeffs = pre.interpolate(manufactured.pressure_sample(), quad)
        mass = assemble("mass", pre)
        total = float(np.ones(pre.dim) @ (mass.matrix @ coeffs))
        assert abs(total) < 1e-12


# the cubic modes s^3, s^2 c, s c^2, c^3 (s = sin(pi x), c = cos(pi x)) as
# amplitudes of sin(pi x), cos(pi x), sin(3 pi x), cos(3 pi x)
_FOURIER = np.array([
    [3, 0, -1, 0],
    [0, 1, 0, -1],
    [1, 0, 1, 0],
    [0, 3, 0, 1],
]) / 4


def _direct(coeffs, order, x):
    """d^order/dx^order of sum_a coeffs[a] s^(3-a) c^a at x, from sines and cosines."""
    amplitude = np.asarray(coeffs) @ _FOURIER
    out = np.zeros_like(x)
    for amp, k, phase in zip(amplitude, (1, 1, 3, 3), (0, 1, 0, 1)):
        out += amp * (k * np.pi) ** order * np.sin(k * np.pi * x + (phase + order) * np.pi / 2)
    return out


class TestShiftMatrices:
    @given(
        coeffs=st.lists(st.floats(-1, 1), min_size=4, max_size=4),
        order=st.integers(0, 4),
        shift=st.floats(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_acts_on_cubic_coefficients(self, coeffs, order, shift):
        x = np.linspace(-1, 1, 9)
        derived = np.linalg.matrix_power(DERIVATIVE, order) @ coeffs
        moved = shift_matrices([shift])[0] @ derived
        s, c = np.sin(np.pi * x), np.cos(np.pi * x)
        scale = max(1.0, sum(abs(v) for v in coeffs)) * (3 * np.pi) ** order
        for v, at in ((derived, x), (moved, x + shift)):
            modal = sum(v[a] * s ** (3 - a) * c**a for a in range(4))
            np.testing.assert_allclose(modal, _direct(coeffs, order, at), rtol=0, atol=1e-13 * scale)


# every signed axis permutation Q, (Q p)[i] = signs[i] p[perm[i]]
_SIGNED_PERMUTATIONS = [
    np.eye(3)[list(perm)] * np.array(signs, float)[:, None]
    for perm in permutations(range(3))
    for signs in product((1, -1), repeat=3)
]


class TestTranslationModes:
    NAMES = ("value", "curl", "grad_curl", "jacobian", "divergence", "pressure", "pressure_gradient")

    @given(points=st.lists(st.tuples(*[st.floats(-2, 2)] * 3), min_size=1, max_size=6))
    @settings(max_examples=15, deadline=None)
    def test_pull_back_by_every_signed_axis_permutation(self, manufactured, points):
        # the pulled-back modes at p are the field at Q p, its components moved
        # by Q^T (vectors), Q^T J Q (Jacobians) and det Q for curls
        p = np.array(points)
        modes = manufactured.modes
        assert len(_SIGNED_PERMUTATIONS) == 48
        for q in _SIGNED_PERMUTATIONS:
            pulled = modes.pulled_back(q)
            det = np.linalg.det(q)
            for name in self.NAMES:
                field = modes.evaluate(name, p @ q.T)
                if field.ndim == 2:
                    field = field @ q
                elif field.ndim == 3:
                    field = np.einsum("ki,mkl,lj->mij", q, field, q)
                if name in ("curl", "grad_curl"):
                    field = field * det
                # every mode is at most 1 in size: the terms' sum bounds the rounding
                scale = np.abs(modes.tensors[name]).sum()
                np.testing.assert_allclose(
                    pulled.evaluate(name, p), field, rtol=1e-13, atol=1e-13 * scale, err_msg=name
                )

    @given(seed=st.integers(0, 2**32 - 1), cells=st.integers(1, 40))
    @settings(max_examples=15, deadline=None)
    def test_folded_equals_moved_coefficients(self, manufactured, seed, cells):
        # shifts on a coarse lattice repeat: groups of one x shift, pairs seen twice or not at all
        # with the template's transpose as ``left`` the products are the fields at the moved points
        rng = np.random.default_rng(seed)
        shifts = rng.integers(-2, 3, (cells, 3)) / 4
        points = rng.random((7, 3))
        left = manufactured.modes.template(points).T
        names = ("value", "grad_curl", "pressure")
        seen = []
        for group, products in manufactured.modes.folded(left, shifts, names):
            seen.extend(group)
            assert len(set(shifts[group, 0])) == 1
            moved = (shifts[group][:, None, :] + points).reshape(-1, 3)
            for name, got in zip(names, products):
                expected = getattr(manufactured, name)(moved).reshape(len(group), len(points), -1)
                expected = expected.transpose(0, 2, 1)  # (cells, components, points), as ``folded`` gives
                np.testing.assert_allclose(
                    got, expected.reshape(got.shape), rtol=0, atol=1e-13 * np.abs(expected).max(), err_msg=name
                )
        assert sorted(seen) == list(range(cells))


class TestQuadCurlSolve:
    def test_zero_forcing_zero_solution(self):
        spaces = get_spaces(2, 1, 1, ["gradcurl"])
        v = spaces["gradcurl"]
        x = _factor_spd(_dissection(v, 8, "gradcurl_stiffness")).solve(np.zeros(v.dim))
        assert x.shape == (v.dim,) and np.abs(x).max() == 0.0

    def test_errors_decrease(self):
        rows = []
        for n in (2, 4):
            _, row = solve_quadcurl(QuadCurlProblem(n=n, r=2, k=1))
            rows.append(row)
        assert rows[1]["l2"] < rows[0]["l2"]
        assert rows[1]["hcurl"] < rows[0]["hcurl"]
        assert rows[1]["gradcurl"] < rows[0]["gradcurl"]

    def test_residual_reported(self):
        _, row = solve_quadcurl(QuadCurlProblem(n=1, r=1, k=1))
        assert row["residual"] < 1e-10
        assert row["iterations"] >= 1

    def test_galerkin_orthogonality(self):
        coeffs, row = solve_quadcurl(QuadCurlProblem(n=2, r=1, k=1))
        spaces = get_spaces(2, 1, 1, ["gradcurl"])
        v = spaces["gradcurl"]
        from tetcomplex.assembly import assemble_load

        qd = 2 * v.basis_degree
        a = assemble("gradcurl_stiffness", v, qd)
        f = assemble_load(v, ManufacturedSolution().forcing_sample(), qd)
        # the coefficients vanish on the boundary DOFs, so these rows are those of the interior system
        resid = (f - a.matrix @ coeffs)[~v.boundary_mask]
        assert np.abs(resid).max() < 1e-9 * max(1.0, np.abs(f).max())

    def test_discrete_curl_is_divergence_free(self):
        # curl of the solution, expressed in the velocity space, is killed by div
        coeffs, _ = solve_quadcurl(QuadCurlProblem(n=2, r=1, k=1))
        spaces = get_spaces(2, 1, 1, ["gradcurl", "velocity", "pressure"])
        dc = discrete_d("curl", spaces["gradcurl"], spaces["velocity"])
        dd = discrete_d("div", spaces["velocity"], spaces["pressure"])
        w = dd.matrix @ (dc.matrix @ coeffs)
        assert np.abs(w).max() < 1e-10 * max(1.0, np.abs(dc.matrix @ coeffs).max())

    def test_energy_not_above_interpolant(self):
        coeffs, _ = solve_quadcurl(QuadCurlProblem(n=2, r=1, k=1))
        spaces = get_spaces(2, 1, 1, ["gradcurl"])
        v = spaces["gradcurl"]
        qd = 2 * v.basis_degree
        a = assemble("gradcurl_stiffness", v, qd).matrix
        interp = v.interpolate(ManufacturedSolution().solution_sample(), QuadratureRule(qd))
        interp[v.boundary_mask] = 0.0
        assert coeffs @ (a @ coeffs) <= interp @ (a @ interp) * (1 + 1e-12)


class TestStokes:
    def test_divergence_free(self):
        for n in (2, 3):
            _, _, rep = solve_stokes(StokesProblem(n=n, k=1))
            assert rep["div_norm"] <= 1e-9

    def test_velocity_error_decreases(self):
        reps = [solve_stokes(StokesProblem(n=n, k=1))[2] for n in (2, 3)]
        assert reps[1]["velocity_l2"] < reps[0]["velocity_l2"]

    @staticmethod
    def _saddle_blocks(qd):
        spaces = get_spaces(2, 1, 1, ["velocity", "pressure"])
        vel, pre = spaces["velocity"], spaces["pressure"]
        b = assemble("div_pressure", vel, qd, pressure_space=pre)
        qc = _pressure_constant_coeffs(pre)
        cvec = assemble("mass", pre, qd).matrix @ qc
        return vel, _dissection(vel, qd, "h1"), b.matrix.T.tocsr(), qc, cvec

    def test_zero_forcing(self):
        vel, a0, b_t, qc, cvec = self._saddle_blocks(10)
        u, p, its, _ = _solve_saddle(a0, b_t, np.zeros(vel.dim), qc, cvec, 1e-12)
        assert its == 0
        assert np.abs(u).max() == 0.0 and np.abs(p).max() == 0.0

    def test_gradient_forcing_gives_zero_velocity(self):
        # pressure-gradient forcing is invisible to the div-free velocity space
        from tetcomplex.assembly import assemble_load

        ms = ManufacturedSolution()
        qd = 12
        vel, a0, b_t, qc, cvec = self._saddle_blocks(qd)
        f = assemble_load(vel, FieldSample(lambda pts: ms.pressure_gradient(pts)), qd)
        u, _, _, _ = _solve_saddle(a0, b_t, f, qc, cvec, 1e-12)
        assert np.abs(u).max() < 1e-10

    def test_n4_iterations_and_velocity_error_pinned(self):
        # the values before the symmetric minimum-degree factorization
        _, _, rep = solve_stokes(StokesProblem(n=4, k=1))
        assert rep["iterations"] == 66
        assert rep["velocity_l2"] == pytest.approx(0.059789701471807656, rel=1e-8)

    def test_quadrature_degree_honoured(self):
        _, _, default = solve_stokes(StokesProblem(n=2, k=1))
        spaces = get_spaces(2, 1, 1, ["velocity", "pressure"])
        vel, pre = spaces["velocity"], spaces["pressure"]
        degree = max(
            default_quadrature_degree(1, 1, vel.basis_degree), vel.basis_degree + pre.basis_degree
        )
        _, _, explicit = solve_stokes(StokesProblem(n=2, k=1, quad_degree=degree))
        for rep in (default, explicit):
            del rep["timings"], rep["seconds"], rep["factor_s"], rep["peak_rss_mb"]
        assert explicit == default
        _, _, higher = solve_stokes(StokesProblem(n=2, k=1, quad_degree=degree + 2))
        assert higher["velocity_l2"] != default["velocity_l2"]
        with pytest.raises(ValueError, match="below the exactness requirement"):
            solve_stokes(StokesProblem(n=2, k=1, quad_degree=2 * vel.basis_degree - 1))

    @pytest.mark.parametrize("n", [2, 3])
    def test_gradient_added_to_pressure_leaves_velocity(self, n):
        u_plain, _, _ = solve_stokes(StokesProblem(n=n, k=1))
        u_shift, _, _ = solve_stokes(
            StokesProblem(n=n, k=1, solution=_ShiftedPressureSolution())
        )
        assert np.abs(u_shift - u_plain).max() <= 1e-10 * np.abs(u_plain).max()


class _ShiftedPressureSolution(ManufacturedSolution):
    """The manufactured solution with grad q added to the Stokes forcing, as
    if to the pressure, q = x^2 y + y z^2 - x y z.  A cubic q keeps the load
    exact under the solver's quadrature, so any change of the discrete
    velocity would come from the discretization alone.  grad q is no
    product of trigonometric factors, so this forcing has no translation
    modes and its load goes point by point."""

    def stokes_forcing_sample(self, viscosity=1.0):
        def forcing(pts):
            x, y, z = np.asarray(pts, float).T
            grad_q = np.stack([2 * x * y - y * z, x**2 + z**2 - x * z, 2 * y * z - x * y], axis=1)
            return self.stokes_forcing(pts, viscosity) + grad_q

        return FieldSample(forcing)


class TestSchurCg:
    def test_indefinite_operator_raises(self):
        from tetcomplex.problems import _cg_operator

        a = np.diag([1.0, -2.0])
        with pytest.raises(SolverFailure) as info:
            _cg_operator(lambda v: a @ v, np.ones(2), tol=1e-12)
        assert info.value.iterations == 0
        assert info.value.residual == pytest.approx(1.0)

    def test_maxiter_raises_with_true_residual(self):
        from tetcomplex.problems import _cg_operator

        a = np.diag(np.arange(1.0, 11.0))
        rhs = np.ones(10)
        applied = []

        def apply_op(v):
            applied.append(v.copy())
            return a @ v

        with pytest.raises(SolverFailure) as info:
            _cg_operator(apply_op, rhs, tol=1e-12, maxiter=2)
        assert info.value.iterations == 2
        x = applied[-1]  # the residual is evaluated at the returned iterate
        true = np.linalg.norm(a @ x - rhs) / np.linalg.norm(rhs)
        assert info.value.residual == pytest.approx(true, rel=1e-12)
        assert info.value.residual > 1e-3


def _reference_dissection(points, ids, cuts, level=0):
    """Per-part recursion of ``_nested_dissection`` on the points ``ids``.

    Returns their order and appends each cut's (level, left, right,
    separator ids) to ``cuts``.
    """
    pts = points[ids]
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    step = DOF_POINT_SCALE
    first, last = (lo // step + 1) * step, (hi - 1) // step * step
    extent = np.where(first <= last, hi - lo, 0)
    axis = int(extent.argmax())
    if extent[axis] == 0:
        return ids
    coord = pts[:, axis]
    median = np.sort(coord)[len(coord) // 2]
    plane = min(max((median + step // 2) // step * step, first[axis]), last[axis])
    left, right, on = ids[coord < plane], ids[coord > plane], ids[coord == plane]
    cuts.append((level, left, right, on))
    return np.concatenate([
        _reference_dissection(points, left, cuts, level + 1),
        _reference_dissection(points, right, cuts, level + 1),
        on,
    ])


class TestFactorSpd:
    """The one SPD factorization: nested dissection of the DOF points, SuperLU in symmetric mode."""

    @staticmethod
    def _form(space):
        """The SPD form of a velocity (h1) or grad-curl space, and its quadrature degree."""
        if space.kind == "velocity":
            return "h1", 10
        return "gradcurl_stiffness", 2 * space.basis_degree

    def _block(self, space):
        """The SPD matrix of a velocity or grad-curl space, in the space's numbering, and the space."""
        form, degree = self._form(space)
        return assemble(form, space, degree).matrix, space

    def _ordered(self, space):
        """The ``Dissection`` of the SPD form of a velocity or grad-curl space."""
        form, degree = self._form(space)
        return _dissection(space, degree, form)

    @staticmethod
    def _interior(a, space):
        """The reference restriction: ``a`` indexed to the interior rows and columns, and those DOFs."""
        interior = np.flatnonzero(~space.boundary_mask)
        return a[interior][:, interior], interior

    def _quadcurl_block(self, r, k, n=2):
        return self._block(get_spaces(n, r, k, ["gradcurl"])["gradcurl"])

    def _velocity_block(self, n):
        return self._block(get_spaces(n, 1, 1, ["velocity"])["velocity"])

    @pytest.mark.parametrize(
        "mesh, kind, rk",
        [
            (2, "gradcurl", (1, 1)), (2, "gradcurl", (2, 2)), (2, "velocity", (1, 1)),
            (3, "velocity", (1, 1)), (3, "gradcurl", (1, 1)), (4, "velocity", (1, 1)),
            ("permuted", "gradcurl", (1, 1)), ("permuted", "velocity", (1, 1)),
            ("jittered", "gradcurl", (1, 1)), ("jittered", "velocity", (1, 1)),
        ],
        ids=[
            "quadcurl-11", "quadcurl-22", "velocity-2", "velocity-3", "quadcurl-11-n3",
            "velocity-4", "permuted-quadcurl-11", "permuted-velocity", "jittered-quadcurl-11",
            "jittered-velocity",
        ],
    )
    def test_solve_matches_default_splu(self, mesh, kind, rk, numbering_meshes):
        # not the quadcurl stiffness at N = 4: its condition number, 5.1e6, puts a
        # minimum-degree solve 1.0e-10 away from the default one as well
        import scipy.sparse.linalg as spla

        if isinstance(mesh, int):
            space = get_spaces(mesh, *rk, [kind])[kind]
        else:
            space = GlobalSpace(numbering_meshes[mesh], kind, *rk)
        # right-hand sides and solutions in the space's numbering, exactly 0 on its boundary
        a, _ = self._block(space)
        a0, interior = self._interior(a, space)
        lu, ref = _factor_spd(self._ordered(space)), spla.splu(a0.tocsc())
        rhs = np.random.default_rng(7).standard_normal((space.dim, 3))
        for b in (rhs[:, 0], rhs):
            x, expected = lu.solve(b), ref.solve(b[interior])
            assert x.shape == b.shape
            assert np.all(x[space.boundary_mask] == 0)
            assert np.linalg.norm(x[interior] - expected) <= 1e-10 * np.linalg.norm(expected)

    @pytest.mark.parametrize("kind", ["velocity", "gradcurl"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_separators_split_no_cell(self, n, kind):
        space = get_spaces(n, 1, 1, [kind])[kind]
        mask = space.boundary_mask
        points = space.interior_points()
        order, depth = _nested_dissection(points)
        cuts = []
        assert np.array_equal(order, _reference_dissection(points, np.arange(len(points)), cuts))
        assert np.array_equal(np.sort(order), np.arange(len(points)))
        assert depth == 1 + max(level for level, *_ in cuts) >= 3
        # restricted index of every cell's DOFs, -1 on the boundary
        restricted = np.where(mask, -1, np.cumsum(~mask) - 1)[space.local_to_global]
        for _, left, right, on in cuts:
            assert len(on) > 0
            in_left = np.isin(restricted, left).any(axis=1)
            in_right = np.isin(restricted, right).any(axis=1)
            assert not (in_left & in_right).any()

    def test_store_below_minimum_degree_at_n8(self):
        import scipy.sparse.linalg as spla

        for a, space in (self._quadcurl_block(1, 1, n=8), self._velocity_block(8)):
            mmd = spla.splu(
                self._interior(a, space)[0].tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
            assert _factor_spd(self._ordered(space)).nnz < mmd.nnz

    def test_fill_below_default_at_n4(self):
        import scipy.sparse.linalg as spla

        a, space = self._velocity_block(4)
        fill = _factor_spd(self._ordered(space)).nnz
        default_fill = spla.splu(self._interior(a, space)[0].tocsc()).nnz
        assert fill < default_fill
        # nested dissection: 46954 against COLAMD's 111091 (minimum degree on A + A^T: 48990)
        assert 2 * fill <= default_fill

    def test_reports_carry_lu_fill(self):
        # the fill depends on the sparsity pattern alone, not on the quadrature
        _, row = solve_quadcurl(QuadCurlProblem(n=2, r=1, k=1))
        assert row["lu_nnz"] == _factor_spd(self._ordered(self._quadcurl_block(1, 1)[1])).nnz > 0
        assert row["factor_s"] > 0
        _, _, rep = solve_stokes(StokesProblem(n=2, k=1))
        assert rep["lu_nnz"] == _factor_spd(self._ordered(self._velocity_block(2)[1])).nnz > 0
        assert rep["factor_s"] > 0

    @pytest.mark.parametrize("solve", ["quadcurl", "stokes"])
    def test_operators_released_before_the_factor(self, solve, monkeypatch):
        # every operator and matrix that ``assemble`` returns is dropped before the factor;
        # quadcurl assembles its interior block alone, never the full-size stiffness
        from tetcomplex import problems

        refs, shapes, dead = [], [], []
        assemble_, factor = problems.assemble, problems._factor_spd

        def recorded(*args, **kwargs):
            op = assemble_(*args, **kwargs)
            refs.extend([weakref.ref(op), weakref.ref(op.matrix)])
            shapes.append(op.shape)
            return op

        def checked(*args, **kwargs):
            dead.append([ref() is None for ref in refs])
            return factor(*args, **kwargs)

        monkeypatch.setattr(problems, "assemble", recorded)
        monkeypatch.setattr(problems, "_factor_spd", checked)
        if solve == "quadcurl":
            solve_quadcurl(QuadCurlProblem(n=2, r=1, k=1))
            interior = get_spaces(2, 1, 1, ["gradcurl"])["gradcurl"].interior_dim
            assert shapes == [(interior, interior)]
        else:
            solve_stokes(StokesProblem(n=2, k=1))
        assert len(refs) == (2 if solve == "quadcurl" else 6)
        assert dead == [[True] * len(refs)]

    def test_dissection_csc_is_the_permuted_matrix(self, numbering_meshes):
        # the block assembled in dissection order against two passes: the full matrix indexed
        # to the interior rows and columns, then the CSC of P A0 P^T by triplets, duplicates
        # summed; the same arrays and dtypes
        spaces = [self._quadcurl_block(1, 1, n=3)[1], self._velocity_block(3)[1]]
        spaces += [
            GlobalSpace(numbering_meshes[mesh], kind, 1, 1)
            for mesh in ("permuted", "jittered") for kind in ("gradcurl", "velocity")
        ]
        for space in spaces:
            a0, interior = self._interior(self._block(space)[0], space)
            order, depth = _nested_dissection(space.interior_points())
            coo = a0.tocoo()
            rank = np.empty_like(order)
            rank[order] = np.arange(len(order))
            expected = sp.csc_matrix((coo.data, (rank[coo.row], rank[coo.col])), shape=a0.shape)
            permuted, dofs, got_depth, seconds = self._ordered(space)
            assert np.array_equal(dofs, interior[order]) and got_depth == depth >= 1 and seconds > 0
            assert permuted.format == "csc" and permuted.has_sorted_indices
            for name in ("indptr", "indices", "data"):
                got, want = getattr(permuted, name), getattr(expected, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name

    @pytest.mark.parametrize("kind", ["gradcurl", "velocity"])
    def test_block_assembly_peaks_below_the_full_matrix(self, kind):
        # ordering the interior and assembling its block allocates no more at its peak than
        # assembling the full matrix; the class tables are built before either is traced
        space = get_spaces(8, 1, 1, [kind])[kind]
        self._block(space)
        peaks = []
        for build in (lambda: self._block(space), lambda: self._ordered(space)):
            tracemalloc.start()
            try:
                build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0]

    @pytest.mark.parametrize("kind", ["gradcurl", "velocity"])
    def test_dissection_at_n16_peaks_below_1_9_blocks(self, kind):
        # tracemalloc peak of ordering plus block assembly, class tables built first, against
        # the CSR arrays it returns: 1.78x (grad-curl) and 1.80x (velocity); a symmetry check
        # of the output that formed the entries' mirror positions beside it read 2.15x and 2.17x
        space = get_spaces(16, 1, 1, [kind])[kind]
        self._ordered(space)
        tracemalloc.start()
        try:
            block = self._ordered(space).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.9 * (block.data.nbytes + block.indices.nbytes + block.indptr.nbytes)

    def test_interior_points_are_the_entity_centroids(self, numbering_meshes):
        # the reference forms every DOF's point, in the space's numbering, then takes the interior
        for mesh, kind in product(numbering_meshes.values(), ["gradcurl", "velocity"]):
            space = GlobalSpace(mesh, kind, 1, 1)
            entities = [np.arange(mesh.n_vertices)[:, None], mesh.edges, mesh.faces, mesh.cells]
            points = np.concatenate([
                np.repeat(DOF_POINT_SCALE // len(v[0]) * mesh.lattice[v].sum(axis=1), space.counts[e], 0)
                for e, v in zip(("vertex", "edge", "face", "cell"), entities)
            ])
            got = space.interior_points()
            assert got.dtype == np.int64
            assert np.array_equal(got, points[~space.boundary_mask])

    def test_each_factorization_is_logged(self, caplog):
        with caplog.at_level("DEBUG", logger="tetcomplex.problems"):
            solve_stokes(StokesProblem(n=2, k=1))
        messages = [
            rec.getMessage() for rec in caplog.records if rec.name == "tetcomplex.problems"
        ]
        assert len(messages) == 1
        a, _ = self._interior(*self._velocity_block(2))
        head = f"factored SPD matrix n={a.shape[0]}, nnz {a.nnz}, LU fill "
        assert messages[0].startswith(head)
        assert float(messages[0].split(" in ")[1].removesuffix(" s")) >= 0
        assert ", dissection depth " in messages[0] and ", ordering " in messages[0]


class TestInfSup:
    def test_positive_and_stable(self):
        alphas = [inf_sup_constant(n, 1) for n in (1, 2, 3)]
        assert all(a > 0 for a in alphas)
        assert max(alphas) / min(alphas) < 2.0

    def test_desk_scale_guard(self):
        with pytest.raises(ConfigError):
            inf_sup_constant(5, 1)


class TestTimings:
    def _check(self, row):
        assert set(row["timings"]) == {"assemble", "load", "solve", "errors", "interpolate"}
        assert all(t >= 0 for t in row["timings"].values())
        assert sum(row["timings"].values()) <= row["seconds"]
        assert 0 < row["peak_rss_mb"] <= _peak_rss_mb()

    def test_quadcurl_row(self):
        _, row = solve_quadcurl(QuadCurlProblem(n=2, r=1, k=1))
        self._check(row)
        assert row["timings"]["solve"] > 0 and row["timings"]["interpolate"] == 0

    def test_stokes_row(self):
        _, _, rep = solve_stokes(StokesProblem(n=2, k=1))
        self._check(rep)
        assert rep["velocity_h1"] > 0 and "velocity_h1curl" not in rep

    def test_convergence_json_passes_timings(self):
        rep = interpolation_study([1, 2], 1, 1)
        for row, out in zip(rep.rows, rep.to_json()["rows"]):
            self._check(row)
            assert out["timings"] == row["timings"]
            assert out["peak_rss_mb"] == row["peak_rss_mb"]


class TestConvergenceHarness:
    def test_report_format(self, tmp_path):
        rep = run_convergence("quadcurl", [1, 2], 1, 1)
        path = tmp_path / "table.csv"
        rep.to_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "N,l2,l2_rate,hcurl,hcurl_rate,gradcurl,gradcurl_rate"
        first = lines[1].split(",")
        assert first[2] == "" and first[4] == "" and first[6] == ""  # blank first rates
        second = lines[2].split(",")
        assert second[2] != ""

    def test_json_mirrors_columns(self, tmp_path):
        rep = run_convergence("quadcurl", [1, 2], 1, 1)
        payload = rep.to_json(tmp_path / "table.json")
        assert payload["columns"] == list(ConvergenceReport.COLUMNS)
        assert payload["rows"][0]["l2_rate"] is None
        assert payload["rows"][1]["dofs"] is not None

    def test_unknown_problem_rejected(self):
        with pytest.raises(ConfigError):
            run_convergence("heat", [1], 1, 1)

    def test_repeated_level_rejected(self, monkeypatch):
        # a repeated level would give 0/0 rates; it is refused before any level is solved
        from tetcomplex import problems

        def unexpected(*args, **kwargs):
            raise AssertionError("a level was solved")

        monkeypatch.setattr(problems, "solve_quadcurl", unexpected)
        monkeypatch.setattr(problems, "get_spaces", unexpected)
        with pytest.raises(ConfigError, match="levels repeat: 1"):
            run_convergence("quadcurl", [1, 2, 1], 1, 1)
        with pytest.raises(ConfigError, match="levels repeat: 1"):
            interpolation_study([1, 1], 1, 1)

    def test_levels_run_finest_first(self, monkeypatch):
        from tetcomplex import problems

        solved, built = [], []
        solve, spaces = problems.solve_quadcurl, problems.get_spaces

        def recording_solve(problem):
            solved.append(problem.n)
            return solve(problem)

        def recording_spaces(n, *args):
            built.append(n)
            return spaces(n, *args)

        monkeypatch.setattr(problems, "solve_quadcurl", recording_solve)
        run_convergence("quadcurl", [1, 3, 2], 1, 1)
        monkeypatch.setattr(problems, "get_spaces", recording_spaces)
        interpolation_study([1, 3, 2], 1, 1)
        assert solved == built == [3, 2, 1]

    @pytest.mark.parametrize("study", ["convergence", "interpolation"])
    def test_rows_in_the_callers_order_equal_single_level_runs(self, study):
        def run(levels):
            if study == "convergence":
                return run_convergence("quadcurl", levels, 1, 1)
            return interpolation_study(levels, 1, 1)

        levels = [8, 4, 6]
        rows = run(levels).rows
        assert [row["N"] for row in rows] == levels
        keys = ("dofs", "l2", "hcurl", "gradcurl") + (
            ("residual", "iterations", "lu_nnz") if study == "convergence" else ()
        )
        for row in rows:
            alone = run([row["N"]]).rows[0]
            assert [row[key] for key in keys] == [alone[key] for key in keys]
        # each rate compares a row with the one before it in the caller's order
        for prev, row in zip(rows, rows[1:]):
            for key in ("l2", "hcurl", "gradcurl"):
                rate = np.log(prev[key] / row[key]) / np.log(row["N"] / prev["N"])
                assert row[f"{key}_rate"] == float(rate)
        assert all(rows[0][f"{key}_rate"] is None for key in ("l2", "hcurl", "gradcurl"))

    def test_interpolation_study_runs(self):
        rep = interpolation_study([1, 2], 1, 1)
        assert len(rep.rows) == 2
        assert rep.rows[1]["l2_rate"] is not None


class TestSpaceCache:
    """``get_spaces`` keeps the most recently used (n, r, k) entries."""

    def test_five_levels_evict_the_least_recent(self, monkeypatch, caplog):
        from tetcomplex import problems

        monkeypatch.setattr(problems, "_space_cache", problems.SpaceCache())
        assert problems.SPACE_CACHE_SIZE == 4
        with caplog.at_level("DEBUG", logger="tetcomplex.problems.spaces"):
            for n in range(1, 6):
                get_spaces(n, 1, 1, ["pressure"])
            kept = get_spaces(4, 1, 1, ["pressure"])
            get_spaces(1, 1, 1, ["pressure"])
        cache = problems._space_cache
        assert list(cache) == [(3, 1, 1), (5, 1, 1), (4, 1, 1), (1, 1, 1)]
        assert (cache.hits, cache.misses, cache.evictions) == (1, 6, 2)
        assert cache[(4, 1, 1)] is kept
        assert all(set(entry) == {"mesh", "pressure"} for entry in cache.values())
        messages = [rec.getMessage() for rec in caplog.records if rec.name == "tetcomplex.problems.spaces"]
        assert len(messages) == 7
        assert messages[-1] == "spaces N=1 (r,k)=(1,1): 4 of 4 entries, 1 hits, 6 misses, 2 evictions"

    def test_ladder_levels_hit_on_reuse(self, monkeypatch):
        from tetcomplex import problems

        monkeypatch.setattr(problems, "_space_cache", problems.SpaceCache())
        first = [get_spaces(n, 1, 1, ["pressure"]) for n in (2, 4)]
        again = [get_spaces(n, 1, 1, ["pressure"]) for n in (2, 4)]
        assert all(a is b for a, b in zip(first, again))
        cache = problems._space_cache
        assert (cache.hits, cache.misses, cache.evictions) == (2, 2, 0)
