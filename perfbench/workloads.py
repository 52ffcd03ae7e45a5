"""Benchmark workloads and the checks on their outputs.

Every workload is deterministic: a structured Kuhn mesh of the unit cube
and the trigonometric manufactured solution.  None of them consumes the
run's ``--seed``.  ``setup`` builds the mesh and the global spaces of every
level (``problems.get_spaces`` caches them, so ``run`` reuses them);
``run`` returns one output row per operation, or ``{"error": ...}`` for an
operation that raised ``SolverFailure``.

The library module is passed in, so the parent process can import this
file for the checks without importing numpy or the library.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

# Tolerance handed to every quadcurl solve; the residual gate is 10 * TOL,
# the same margin ``solve_quadcurl`` enforces itself.
QUADCURL_TOL = 1e-10
REL_TOL = 1e-8
DIV_NORM_MAX = 1e-9
CLOSE_KEYS = ("l2", "hcurl", "gradcurl", "velocity_l2")
EXACT_KEYS = ("N", "dofs", "iterations")
# Recorded but not gated: both look like defects of the library (see NOTES.md).
RECORDED_KEYS = ("pressure_l2", "velocity_h1curl")


@dataclass(frozen=True)
class Workload:
    setup: Callable  # problems module -> None
    run: Callable  # problems module -> {operation: output row}


def _error(exc):
    return {"error": f"{type(exc).__name__}: {exc} (residual {exc.residual})"}


def _convergence(problems, levels, r, k, quad_degree=None):
    try:
        report = problems.run_convergence(
            "quadcurl", levels, r, k, tol=QUADCURL_TOL, quad_degree=quad_degree
        )
    except problems.SolverFailure as exc:
        return {f"solve N={n}": _error(exc) for n in levels}
    return {f"solve N={row['N']}": row for row in report.rows}


def _interpolation(problems, levels, r, k):
    report = problems.interpolation_study(levels, r, k)
    return {f"interpolate N={row['N']}": row for row in report.rows}


def _gradcurl_setup(levels, r, k):
    def setup(problems):
        for n in levels:
            problems.get_spaces(n, r, k, ["gradcurl"])

    return setup


def _ladder_run(problems):
    return {**_convergence(problems, [4, 8], 1, 1), **_interpolation(problems, [4, 8], 1, 1)}


def _highorder_run(problems):
    return _convergence(problems, [2], 3, 3, quad_degree=14)


def _stokes_setup(problems):
    problems.get_spaces(8, 1, 1, ["velocity", "pressure"])


def _stokes_run(problems):
    try:
        _, _, report = problems.solve_stokes(problems.StokesProblem(n=8, k=1))
    except problems.SolverFailure as exc:
        return {"stokes N=8": _error(exc)}
    return {"stokes N=8": report}


WORKLOADS = {
    "quadcurl-ladder": Workload(_gradcurl_setup([4, 8], 1, 1), _ladder_run),
    "stokes-n8": Workload(_stokes_setup, _stokes_run),
    "highorder-n2": Workload(_gradcurl_setup([2], 3, 3), _highorder_run),
}


def check(ops, reference):
    """Per expected operation: a list of problems with its output (empty = ok)."""
    result = {}
    for op, ref in reference.items():
        row = ops.get(op)
        if row is None:
            result[op] = ["missing"]
            continue
        if "error" in row:
            result[op] = [row["error"]]
            continue
        bad = []
        for key in CLOSE_KEYS:
            if key in ref and not abs(row[key] - ref[key]) <= REL_TOL * abs(ref[key]):
                bad.append(f"{key} {row[key]!r} != reference {ref[key]!r}")
        for key in EXACT_KEYS:
            if key in ref and row[key] != ref[key]:
                bad.append(f"{key} {row[key]!r} != reference {ref[key]!r}")
        if "residual" in row and not row["residual"] <= 10 * QUADCURL_TOL:
            bad.append(f"residual {row['residual']:.3e} above {10 * QUADCURL_TOL:.0e}")
        if "div_norm" in row and not row["div_norm"] <= DIV_NORM_MAX:
            bad.append(f"div_norm {row['div_norm']:.3e} above {DIV_NORM_MAX:.0e}")
        result[op] = bad
    return result
