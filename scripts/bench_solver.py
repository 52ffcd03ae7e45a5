#!/usr/bin/env python3
"""Stored entries, seconds and peak memory of the SPD direct solves, as BENCH rows.

A row factors one restricted SPD matrix with ``problems._factor_spd`` of
the measured source and solves once, for the matrix's own load:

- ``quadcurl:<N>``: the grad-curl (1,1) stiffness and the quadcurl forcing;
- ``velocity:<N>``: the Stokes (k=1) velocity block and the Stokes forcing.

Each row runs in its own child process, with BLAS on one thread and the
address-space limit of ``bench_layers.py``.  A record holds the matrix's
size and nnz, the ordering, the entries the factor stores
(``SuperLU.nnz``) and ``L.nnz + U.nnz`` (null when a copy of L or U
does not fit under the limit), the seconds to order and factor
and to solve once, the relative residual, and the peak RSS before the
factor, after it and after the solve.  A source whose ``_factor_spd``
takes the matrix alone orders by minimum degree; one that also takes the
DOF points orders by nested dissection.

    python3 scripts/bench_solver.py --label change
    python3 scripts/bench_solver.py --label parent --src ../parent/src --git-sha <sha>
    python3 scripts/bench_solver.py --label change --rows quadcurl:24

Rows land in ``BENCH_solver.json`` at the repository root (``--out``);
rows of the same label, problem and level are replaced, others are kept.
``--save-solution DIR`` also writes each row's solution as
``<label>_<problem>_N<N>.npy``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import time
from pathlib import Path

from bench_layers import ROOT, collect, enter_row, peak_rss_mb

ROWS = ("quadcurl:16", "velocity:16")


def row(name, src, save_solution=None):
    """One row, in this process: factor and solve the SPD matrix ``name`` names."""
    enter_row(src)
    import numpy as np

    from tetcomplex import problems
    from tetcomplex.assembly import (
        assemble,
        assemble_load,
        default_quadrature_degree,
        restrict_operator,
        restrict_vector,
    )

    problem, n = name.split(":")
    n = int(n)
    ms = problems.ManufacturedSolution()
    if problem == "quadcurl":
        space = problems.get_spaces(n, 1, 1, ["gradcurl"])["gradcurl"]
        degree = max(default_quadrature_degree(1, 1, space.basis_degree), 2 * space.basis_degree)
        a = assemble("gradcurl_stiffness", space, degree)
        f = assemble_load(space, ms.forcing_sample(), degree)
    elif problem == "velocity":
        spaces = problems.get_spaces(n, 1, 1, ["velocity", "pressure"])
        space, pressure = spaces["velocity"], spaces["pressure"]
        degree = max(
            default_quadrature_degree(1, 1, space.basis_degree),
            space.basis_degree + pressure.basis_degree,
        )
        a = assemble("h1", space, degree)
        f = assemble_load(space, ms.stokes_forcing_sample(), degree)
    else:
        raise SystemExit(f"unknown row {name!r}: quadcurl:<N> or velocity:<N>")
    mask = space.boundary_mask
    a0, f0 = restrict_operator(a, mask, mask), restrict_vector(f, mask)
    del a

    nested = "points" in inspect.signature(problems._factor_spd).parameters
    record = {
        "problem": problem,
        "N": n,
        "n": int(a0.shape[0]),
        "nnz": int(a0.nnz),
        "ordering": "nested dissection" if nested else "minimum degree",
        "setup_peak_rss_mb": peak_rss_mb(),
    }
    start = time.perf_counter()
    lu = problems._factor_spd(a0, space.dof_points()[~mask]) if nested else problems._factor_spd(a0)
    record["factor_s"] = time.perf_counter() - start
    record["factor_peak_rss_mb"] = peak_rss_mb()
    start = time.perf_counter()
    x = lu.solve(f0)
    record["solve_s"] = time.perf_counter() - start
    record["residual"] = float(np.linalg.norm(a0 @ x - f0) / np.linalg.norm(f0))
    record["peak_rss_mb"] = peak_rss_mb()
    record["lu_nnz"] = int(lu.nnz)
    superlu = lu.lu if nested else lu
    try:  # one triangle at a time: each is a copy of the factor's half
        record["l_plus_u_nnz"] = int(superlu.L.nnz) + int(superlu.U.nnz)
    except MemoryError:  # the copy does not fit under the address-space limit
        record["l_plus_u_nnz"] = None
    if save_solution:
        np.save(save_solution, x)
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="name of the measured source, e.g. parent or change")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding tetcomplex/")
    parser.add_argument("--git-sha", help="SHA of the source when --src is not in a git checkout")
    parser.add_argument("--out", default=str(ROOT / "BENCH_solver.json"))
    parser.add_argument("--rows", default=",".join(ROWS), help="comma-separated quadcurl:<N> / velocity:<N>")
    parser.add_argument("--save-solution", help="directory for each row's solution (.npy)")
    parser.add_argument("--row", help=argparse.SUPPRESS)  # one row in this process
    args = parser.parse_args()

    if args.row is not None:
        problem, n = args.row.split(":")
        save = args.save_solution and str(Path(args.save_solution, f"{args.label}_{problem}_N{n}.npy"))
        print(json.dumps(row(args.row, Path(args.src).resolve(), save)))
        return
    extra = ["--save-solution", args.save_solution] if args.save_solution else []
    names = [name for name in args.rows.split(",") if name]
    collect(__file__, args, names, lambda rec: (rec["label"], rec["problem"], rec["N"]), extra)


if __name__ == "__main__":
    main()
