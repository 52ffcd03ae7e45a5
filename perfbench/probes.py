"""Layer probes for the traced run.

``install`` replaces the module attributes through which the library's
layers call one another with traced wrappers, from outside the library:
each wrapper records one span per call, and a few also count work
(cells, dofs, nonzeros, points, LU fill).  A name is wrapped where it is
looked up at call time, e.g. ``assembly.local_element`` for the call from
``GlobalSpace`` and ``problems.assemble`` for the calls from the solvers.
``layer_metrics`` turns the spans and counts into the per-layer metrics.
"""

from __future__ import annotations

import numpy as np

# per-layer metric -> span name whose inclusive seconds it reports
SPAN_SECONDS = {
    "mesh.build_s": "mesh.build",
    "elements.construct_s": "elements.construct",
    "elements.raw_basis_s": "elements.raw_basis",
    "elements.dof_matrix_s": "elements.dof_matrix",
    "bubbles.solve_div_s": "bubbles.solve_div",
    "polyalg.poincare_s": "polyalg.poincare",
    "elements.cell_geometry_s": "elements.cell_geometry",
    "assembly.class_tables_s": "assembly.class_tables",
    "assembly.assemble_s": "assembly.assemble",
    "assembly.load_s": "assembly.load",
    "problems.forcing_s": "problems.forcing",
    "assembly.error_norms_s": "assembly.error_norms",
    "assembly.divergence_norm_s": "assembly.divergence_norm",
    "assembly.interpolate_s": "assembly.interpolate",
    "solver.factor_s": "solver.factor",
    "solver.lu_solve_s": "solver.lu_solve",
}
# per-layer metric -> span name whose number of calls it reports
SPAN_CALLS = {
    "elements.constructs": "elements.construct",
    "elements.cell_geometry_calls": "elements.cell_geometry",
    "bubbles.solve_div_calls": "bubbles.solve_div",
    "assembly.class_tables_builds": "assembly.class_tables",
    "problems.forcing_calls": "problems.forcing",
    "elements.build_dofs_calls": "elements.build_dofs",
    "problems.field_calls": "problems.field",
    "solver.lu_solves": "solver.lu_solve",
}
COUNTERS = (
    "mesh.cells",
    "assembly.dofs",
    "assembly.nnz",
    "problems.field_points",
    "solver.lu_fill_nnz",
)
FIELD_EVALUATORS = ("value", "curl", "grad_curl", "divergence", "pressure", "pressure_gradient")


class _TracedLU:
    """A SuperLU factor whose ``solve`` calls are traced; other attributes pass through."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self.solve = lu.solve
        tracer.wrap(self, "solve", "solver.lu_solve")

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer):
    """Wrap the layer boundaries; returns a callable giving the layer metrics."""
    import scipy.sparse.linalg as spla
    from tetcomplex import assembly, bubbles, elements, problems

    counts = tracer.counts
    seen_elements = set()
    distinct_tables = set()
    schur_residuals = []

    def add(key, amount):
        def after(out, args, kwargs, span):
            counts[key] += amount(out, args)

        return after

    def construct_or_hit(out, args, kwargs, span):
        # a call that returns an element not seen before built it
        if id(out) not in seen_elements:
            seen_elements.add(id(out))
            span[0] = "elements.construct"

    def table_key(out, args, kwargs, span):
        space, cell_id, degree = args
        distinct_tables.add(
            (space.kind, space.r, space.k, degree, space.cells_geom[cell_id].signature())
        )

    def lu_factor(out, args, kwargs, span):
        counts["solver.lu_fill_nnz"] += out.L.nnz + out.U.nnz
        return _TracedLU(out, tracer)

    def schur_residual(out, args, kwargs, span):
        apply_op, rhs = args[0], args[1]
        tracer.paused = True
        try:
            r = apply_op(out[0]) - rhs
        finally:
            tracer.paused = False
        schur_residuals.append(float(np.linalg.norm(r) / (np.linalg.norm(rhs) or 1.0)))

    wrap = tracer.wrap
    wrap(assembly.GlobalSpace, "interpolate", "assembly.interpolate")
    wrap(problems, "build_structured_cube", "mesh.build", add("mesh.cells", lambda o, a: o.n_cells))
    wrap(problems, "GlobalSpace", "assembly.global_space", add("assembly.dofs", lambda o, a: o.dim))
    wrap(assembly, "CellGeometry", "elements.cell_geometry")
    wrap(assembly, "local_element", "elements.local_element", construct_or_hit)
    wrap(elements, "build_raw_basis", "elements.raw_basis")
    wrap(elements, "dof_matrix", "elements.dof_matrix")
    for module in (elements, assembly):
        wrap(module, "build_dofs", "elements.build_dofs")
    for module in (bubbles, elements):
        wrap(module, "solve_div", "bubbles.solve_div")
    wrap(elements, "piecewise_poincare2", "polyalg.poincare")
    wrap(assembly, "ClassTables", "assembly.class_tables", table_key)
    wrap(problems, "assemble", "assembly.assemble", add("assembly.nnz", lambda o, a: o.matrix.nnz))
    wrap(problems, "assemble_load", "assembly.load")
    wrap(problems, "error_norms", "assembly.error_norms")
    wrap(problems, "divergence_norm", "assembly.divergence_norm")
    wrap(problems, "_pressure_error", "problems.pressure_error")
    solution = problems.ManufacturedSolution
    for attr in ("forcing", "stokes_forcing"):
        wrap(solution, attr, "problems.forcing")
    for attr in FIELD_EVALUATORS:
        # the forcing evaluates the field itself; those calls belong to the forcing
        wrap(solution, attr, "problems.field", add("problems.field_points", lambda o, a: len(a[1])),
             skip_under=("problems.forcing",))
    wrap(spla, "splu", "solver.factor", lu_factor)
    wrap(problems, "_cg_operator", "solver.schur_cg", schur_residual)

    def layer_metrics(ops):
        totals = tracer.totals()
        calls = {name: c for name, (c, _, _) in totals.items()}
        metrics = {m: totals.get(name, (0, 0.0, 0.0))[1] for m, name in SPAN_SECONDS.items()}
        metrics.update({m: calls.get(name, 0) for m, name in SPAN_CALLS.items()})
        metrics.update({key: counts[key] for key in COUNTERS})
        constructs = calls.get("elements.construct", 0)
        lookups = constructs + calls.get("elements.local_element", 0)
        metrics["elements.local_element_calls"] = lookups
        metrics["elements.cache_hit_ratio"] = (lookups - constructs) / lookups if lookups else 0.0
        metrics["assembly.class_tables_distinct"] = len(distinct_tables)
        rows = [row for row in ops.values() if "error" not in row]
        metrics["solver.iterations"] = sum(row.get("iterations", 0) for row in rows)
        metrics["solver.residual"] = max(
            [row["residual"] for row in rows if "residual" in row] + schur_residuals, default=0.0
        )
        return metrics

    return layer_metrics
