"""Model problems: manufactured fields, solves, Stokes, convergence machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tetcomplex.assembly import (
    assemble,
    default_quadrature_degree,
    discrete_d,
    restrict_operator,
    restrict_vector,
)
from tetcomplex.problems import (
    ConfigError,
    ConvergenceReport,
    ManufacturedSolution,
    QuadCurlProblem,
    SolverFailure,
    StokesProblem,
    TrigPoly1D,
    _factor_spd,
    _pressure_constant_coeffs,
    _solve_saddle,
    _solve_spd,
    get_spaces,
    inf_sup_constant,
    interpolation_study,
    run_convergence,
    shift_matrices,
    solve_quadcurl,
    solve_stokes,
)
from tetcomplex.quadrature import QuadratureRule, rule
from tetcomplex.sampling import FieldSample


@pytest.fixture(scope="module")
def manufactured():
    return ManufacturedSolution()


class TestManufactured:
    def test_validation(self, manufactured):
        rep = manufactured.validate()
        assert rep["div"] < 1e-10
        assert rep["boundary_value"] < 1e-12 and rep["boundary_curl"] < 1e-12
        assert rep["forcing_fd"] < 1e-8
        assert rep["ok"]

    def test_sample_fd_consistency(self, manufactured):
        rng = np.random.default_rng(1)
        pts = rng.random((15, 3)) * 0.8 + 0.1
        rep = manufactured.solution_sample().fd_check(pts)
        assert rep["ok"], rep

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
        pts, w = rule(3, quad.degree)
        # tensorized check over the cube via the structured mesh
        spaces = get_spaces(2, 1, 1, ["pressure"])
        pre = spaces["pressure"]
        coeffs = pre.interpolate(manufactured.pressure_sample(), quad)
        mass = assemble("mass", pre)
        total = float(np.ones(pre.dim) @ (mass.matrix @ coeffs))
        assert abs(total) < 1e-12


class TestShiftMatrices:
    @given(
        degree=st.sampled_from([1, 3]),
        coeffs=st.lists(st.floats(-1, 1), min_size=4, max_size=4),
        order=st.integers(0, 4),
        shift=st.floats(-3, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_shift_acts_on_cubic_coefficients(self, degree, coeffs, order, shift):
        f = TrigPoly1D({(degree - j, j): coeffs[j] for j in range(degree + 1)})
        for _ in range(order):
            f = f.derivative()
        x = np.linspace(-1, 1, 9)

        def direct(pts):
            s, c = np.sin(np.pi * pts), np.cos(np.pi * pts)
            return sum(coeff * s**a * c**b for (a, b), coeff in f.terms.items())

        moved = shift_matrices([shift])[0] @ f.cubic()
        s, c = np.sin(np.pi * x), np.cos(np.pi * x)
        modal = sum(moved[a] * s ** (3 - a) * c**a for a in range(4))
        scale = max(1.0, sum(abs(v) for v in f.terms.values()))
        np.testing.assert_allclose(modal, direct(x + shift), rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(
            sum(f.cubic()[a] * s ** (3 - a) * c**a for a in range(4)), direct(x),
            rtol=0, atol=1e-13 * scale,
        )

    def test_other_degrees_have_no_cubic_form(self):
        with pytest.raises(ValueError, match="not a cubic form"):
            TrigPoly1D({(2, 0): 1.0}).cubic()


class TestQuadCurlSolve:
    def test_zero_forcing_zero_solution(self):
        spaces = get_spaces(2, 1, 1, ["gradcurl"])
        v = spaces["gradcurl"]
        a = assemble("gradcurl_stiffness", v, 8)
        mask = v.boundary_mask
        a0 = restrict_operator(a, mask, mask)
        f0 = np.zeros(a0.shape[0])
        x, _, _ = _solve_spd(a0, f0, "direct", 1e-10)
        assert np.abs(x).max() == 0.0

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

    def test_cg_solver_matches_direct(self):
        _, row_d = solve_quadcurl(QuadCurlProblem(n=2, r=1, k=1, solver="direct"))
        _, row_c = solve_quadcurl(QuadCurlProblem(n=2, r=1, k=1, solver="cg"))
        assert row_c["l2"] == pytest.approx(row_d["l2"], rel=1e-6)
        assert row_c["residual"] < 1e-9

    def test_galerkin_orthogonality(self):
        coeffs, row = solve_quadcurl(QuadCurlProblem(n=2, r=1, k=1))
        spaces = get_spaces(2, 1, 1, ["gradcurl"])
        v = spaces["gradcurl"]
        from tetcomplex.assembly import assemble_load

        qd = 2 * v.basis_degree
        a = assemble("gradcurl_stiffness", v, qd)
        f = assemble_load(v, ManufacturedSolution().forcing_sample(), qd)
        mask = v.boundary_mask
        resid = restrict_vector(f, mask) - restrict_operator(a, mask, mask) @ restrict_vector(
            coeffs, mask
        )
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

    def test_invalid_solver_rejected(self):
        with pytest.raises(ConfigError):
            solve_quadcurl(QuadCurlProblem(n=1, r=1, k=1, solver="magic"))


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
        a = assemble("h1", vel, qd)
        b = assemble("div_pressure", vel, qd, pressure_space=pre)
        mask = vel.boundary_mask
        qc = _pressure_constant_coeffs(pre)
        cvec = assemble("mass", pre, qd).matrix @ qc
        return vel, restrict_operator(a, mask, mask), b.matrix[:, ~mask], qc, cvec

    def test_zero_forcing(self):
        _, a0, b0, qc, cvec = self._saddle_blocks(10)
        u0, p, its, _ = _solve_saddle(a0, b0, np.zeros(a0.shape[0]), qc, cvec, 1e-12)
        assert its == 0
        assert np.abs(u0).max() == 0.0 and np.abs(p).max() == 0.0

    def test_gradient_forcing_gives_zero_velocity(self):
        # pressure-gradient forcing is invisible to the div-free velocity space
        from tetcomplex.assembly import assemble_load

        ms = ManufacturedSolution()
        qd = 12
        vel, a0, b0, qc, cvec = self._saddle_blocks(qd)
        f0 = restrict_vector(
            assemble_load(vel, FieldSample(lambda pts: ms.pressure_gradient(pts)), qd),
            vel.boundary_mask,
        )
        u0, _, _, _ = _solve_saddle(a0, b0, f0, qc, cvec, 1e-12)
        assert np.abs(u0).max() < 1e-10

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
            del rep["timings"], rep["seconds"]
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


class TestFactorSpd:
    """The one SPD factorization against SuperLU's default COLAMD / partial pivoting."""

    @staticmethod
    def _quadcurl_block(r, k):
        v = get_spaces(2, r, k, ["gradcurl"])["gradcurl"]
        a = assemble("gradcurl_stiffness", v, 2 * v.basis_degree)
        return restrict_operator(a, v.boundary_mask, v.boundary_mask)

    @staticmethod
    def _velocity_block(n):
        vel = get_spaces(n, 1, 1, ["velocity"])["velocity"]
        a = assemble("h1", vel, 10)
        return restrict_operator(a, vel.boundary_mask, vel.boundary_mask)

    @pytest.mark.parametrize(
        "block",
        [("quadcurl", (1, 1)), ("quadcurl", (2, 2)), ("velocity", 2), ("velocity", 3)],
        ids=["quadcurl-11", "quadcurl-22", "velocity-2", "velocity-3"],
    )
    def test_solve_matches_default_splu(self, block):
        import scipy.sparse.linalg as spla

        kind, arg = block
        a = self._quadcurl_block(*arg) if kind == "quadcurl" else self._velocity_block(arg)
        b = np.random.default_rng(7).standard_normal(a.shape[0])
        ref = spla.splu(a.tocsc()).solve(b)
        x = _factor_spd(a).solve(b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_fill_below_default_at_n4(self):
        import scipy.sparse.linalg as spla

        a = self._velocity_block(4)
        fill, default_fill = _factor_spd(a).nnz, spla.splu(a.tocsc()).nnz
        assert fill < default_fill
        # minimum degree on A + A^T: 48990 against COLAMD's 111036
        assert 2 * fill <= default_fill

    def test_reports_carry_lu_fill(self):
        # the fill depends on the sparsity pattern alone, not on the quadrature
        _, row = solve_quadcurl(QuadCurlProblem(n=2, r=1, k=1))
        assert row["lu_nnz"] == _factor_spd(self._quadcurl_block(1, 1)).nnz > 0
        _, row = solve_quadcurl(QuadCurlProblem(n=1, r=1, k=1, solver="cg-diagonal"))
        assert row["lu_nnz"] == 0
        _, _, rep = solve_stokes(StokesProblem(n=2, k=1))
        assert rep["lu_nnz"] == _factor_spd(self._velocity_block(2)).nnz > 0

    def test_each_factorization_is_logged(self, caplog):
        with caplog.at_level("DEBUG", logger="tetcomplex.problems"):
            solve_stokes(StokesProblem(n=2, k=1))
        messages = [
            rec.getMessage() for rec in caplog.records if rec.name == "tetcomplex.problems"
        ]
        assert len(messages) == 1
        a = self._velocity_block(2)
        head = f"factored SPD matrix n={a.shape[0]}, nnz {a.nnz}, LU fill "
        assert messages[0].startswith(head)
        assert float(messages[0].split(" in ")[1].removesuffix(" s")) >= 0


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

    def test_interpolation_study_runs(self):
        rep = interpolation_study([1, 2], 1, 1)
        assert len(rep.rows) == 2
        assert rep.rows[1]["l2_rate"] is not None
