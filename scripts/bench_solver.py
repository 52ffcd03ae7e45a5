#!/usr/bin/env python3
"""Stored entries, seconds and peak memory of the SPD direct solves, as BENCH rows.

A row assembles the interior block of one SPD matrix in nested-dissection
order with ``problems._dissection``, as the solves do, factors it with
``problems._factor_spd`` and solves once, for the matrix's own load:

- ``quadcurl:<N>``: the grad-curl (1,1) stiffness and the quadcurl forcing;
- ``velocity:<N>``: the Stokes (k=1) velocity block and the Stokes forcing.

A ``study:<N>,<N>,...`` row instead runs the quadcurl (1,1) convergence
study ``problems.run_convergence`` over those levels in the process: its
record holds the study's seconds (``study_s``), the process's peak RSS
after it, and ``N``, ``dofs`` and ``lu_nnz`` as lists, one entry per level.
Next to ``quadcurl:<N>`` at the finest level it shows what the coarser
levels add to the study's peak.

Each row runs ``REPEATS`` times, each time in its own cold child process,
with BLAS on one thread and the address-space limit of
``bench_layers.py``; seconds and peak RSS are the median over the
processes, with min and max beside them (``bench_layers.summarize``).  A
record holds the matrix's size and nnz (of the interior block), the
ordering, the entries the factor stores (``SuperLU.nnz``) and
``L.nnz + U.nnz`` (null when a copy of L or U does not fit under the
limit), the seconds to order and factor (``SpdFactor.seconds``) and to
solve once, the relative residual on the interior DOFs, and the peak RSS
before the factor, after it and after the solve.

    python3 scripts/bench_solver.py --label change
    python3 scripts/bench_solver.py --label change --rows quadcurl:24,study:4,8,12,16
    python3 ../parent/scripts/bench_solver.py --label parent --out BENCH_solver.json

A parent's rows come from the parent checkout's own script, which calls
the parent's API, with ``--out`` pointing at this checkout's BENCH file;
where the parent has every function a row calls, this script with
``--src`` at the parent's ``src`` and ``--git-sha`` at its commit will do.

Rows land in ``BENCH_solver.json`` at the repository root (``--out``);
rows of the same label, problem and level (or levels) are replaced,
others are kept.
``--save-solution DIR`` also writes each row's solution, in the space's
numbering, as ``<label>_<problem>_N<N>.npy``.
"""

from __future__ import annotations

import argparse
import json
import re
import time
from pathlib import Path

from bench_layers import REPEATS, ROOT, collect, enter_row, peak_rss_mb

ROWS = ("quadcurl:16", "velocity:16", "study:4,8,12,16")


def row_names(text):
    """The names in a comma-separated ``--rows``; a comma starts a name only before a letter."""
    return [name for name in re.split(r",(?=[a-z])", text) if name]


def study(levels, problems):
    """The record of a quadcurl (1,1) ``run_convergence`` over ``levels``."""
    start = time.perf_counter()
    rows = problems.run_convergence("quadcurl", levels, 1, 1).rows
    return {
        "problem": "study",
        "study_s": time.perf_counter() - start,
        "peak_rss_mb": peak_rss_mb(),
        **{key: [row[key] for row in rows] for key in ("N", "dofs", "lu_nnz")},
    }


def row(name, src, save_solution=None):
    """One row, in this process: factor and solve the SPD matrix ``name`` names, or run its study."""
    enter_row(src)
    import numpy as np

    from tetcomplex import problems
    from tetcomplex.assembly import assemble_load, default_quadrature_degree

    problem, n = name.split(":")
    if problem == "study":
        return study([int(level) for level in n.split(",")], problems)
    n = int(n)
    ms = problems.ManufacturedSolution()
    if problem == "quadcurl":
        space = problems.get_spaces(n, 1, 1, ["gradcurl"])["gradcurl"]
        degree = max(default_quadrature_degree(1, 1, space.basis_degree), 2 * space.basis_degree)
        form = "gradcurl_stiffness"
        f = assemble_load(space, ms.forcing_sample(), degree)
    elif problem == "velocity":
        spaces = problems.get_spaces(n, 1, 1, ["velocity", "pressure"])
        space, pressure = spaces["velocity"], spaces["pressure"]
        degree = max(
            default_quadrature_degree(1, 1, space.basis_degree),
            space.basis_degree + pressure.basis_degree,
        )
        form = "h1"
        f = assemble_load(space, ms.stokes_forcing_sample(), degree)
    else:
        raise SystemExit(f"unknown row {name!r}: quadcurl:<N>, velocity:<N> or study:<N>,<N>,...")
    a0 = problems._dissection(space, degree, form)

    record = {
        "problem": problem,
        "N": n,
        "n": int(a0.matrix.shape[0]),
        "nnz": int(a0.matrix.nnz),
        "ordering": "nested dissection",
        "setup_peak_rss_mb": peak_rss_mb(),
    }
    lu = problems._factor_spd(a0)
    record["factor_s"] = lu.seconds
    record["factor_peak_rss_mb"] = peak_rss_mb()
    start = time.perf_counter()
    x = lu.solve(f)
    record["solve_s"] = time.perf_counter() - start
    f0 = f[a0.dofs]
    record["residual"] = float(np.linalg.norm(a0.matrix @ x[a0.dofs] - f0) / np.linalg.norm(f0))
    record["peak_rss_mb"] = peak_rss_mb()
    record["lu_nnz"] = int(lu.nnz)
    try:  # one triangle at a time: each is a copy of the factor's half
        record["l_plus_u_nnz"] = int(lu.lu.L.nnz) + int(lu.lu.U.nnz)
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
    parser.add_argument(
        "--rows", default=",".join(ROWS), help="comma-separated quadcurl:<N> / velocity:<N> / study:<N>,<N>,..."
    )
    parser.add_argument("--save-solution", help="directory for each row's solution (.npy)")
    parser.add_argument("--row", help=argparse.SUPPRESS)  # one row in this process
    args = parser.parse_args()

    if args.row is not None:
        problem, n = args.row.split(":")
        save = args.save_solution and str(Path(args.save_solution, f"{args.label}_{problem}_N{n}.npy"))
        print(json.dumps(row(args.row, Path(args.src).resolve(), save)))
        return
    extra = ["--save-solution", args.save_solution] if args.save_solution else []
    names = row_names(args.rows)
    collect(__file__, args, names, lambda rec: (rec["label"], rec["problem"], rec["N"]), extra, REPEATS)


if __name__ == "__main__":
    main()
