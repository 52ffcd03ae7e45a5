#!/usr/bin/env python3
"""Per-layer timings and peak memory of one quadcurl (1,1) assembly pass, as BENCH rows.

Each row runs ``REPEATS`` times, each time in its own cold child process,
with BLAS on one thread and an address-space limit (``LIMIT_GB``) that
the child sets on itself, so a row that runs out of memory fails alone
instead of taking the machine with it.  A row times, one after another:
the structured mesh, the grad-curl space, its class tables, the factor
input (``factor_input``) as the solve forms it, ``problems._dissection``:
the interior DOFs put in nested-dissection order and the stiffness's
interior block assembled in that order, which ``problems._factor_spd``
hands to SuperLU; it runs before any full-size matrix exists and is
dropped after, so its peak RSS is its own.  The factor input is then
formed once more under ``tracemalloc``, untimed: its traced peak
(``factor_input_traced_peak_mb``), the bytes of the CSR arrays it returns
(``factor_input_block_mb``) and their ratio (``factor_input_traced_ratio``)
give its transient apart from the process's heap.  Then the full stiffness
assembly, the load of the manufactured forcing, and the error norms of a
zero field (the same work as for a solved field) twice.
The load (``load``) builds the per-class factors that load and error
norms share, and both error-norm passes (``errors``, ``errors_again``)
reuse them, so they time the per-cell work alone.  A
flat record holds each layer's seconds (``<layer>_s``) and the process's
peak RSS when the layer ended (``<layer>_peak_rss_mb``) as the median
over the processes, with ``<key>_min`` and ``<key>_max`` beside it (so
are the traced figures); the
dofs, the full matrix's nnz, pattern digest and Frobenius norm and the
factor input's nnz, which every process must repeat;
and the source it ran: the git SHA of the checkout (null when the source
has uncommitted changes) and a digest of its ``src/tetcomplex`` files.
Rows are run at the levels ``LEVELS``.

    python3 scripts/bench_layers.py --label change
    python3 ../parent/scripts/bench_layers.py --label parent --out BENCH_assembly.json

A parent's rows come from the parent checkout's own script, which calls
the parent's API, with ``--out`` pointing at this checkout's BENCH file;
where the parent has every function a row calls, this script with
``--src`` at the parent's ``src`` and ``--git-sha`` at its commit will do.
Rows land in ``BENCH_assembly.json`` at the repository root (``--out``);
rows of the same label and level are replaced, others are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LEVELS = (16, 32)
LIMIT_GB = 6.0
# one cold process cannot resolve a set-up change of tens of milliseconds
REPEATS = 5


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted(Path(src, "tetcomplex").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha(src):
    """HEAD of the checkout holding ``src``; None outside git or when ``src`` has changes."""

    def git(*args):
        done = subprocess.run(["git", *args], cwd=src, capture_output=True, text=True, check=False)
        return done.stdout.strip() if done.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    return head if head and git("status", "--porcelain", "--", ".") == "" else None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def enter_row(src):
    """Set up a row's child process: limit its address space and import from ``src``."""
    limit = int(LIMIT_GB * 2**30)
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, str(src))


def summarize(records):
    """One record from those of repeated processes of a row.

    Seconds, memory figures and ratios (keys ending in ``_s``, ``_mb`` or
    ``_ratio``) become the median over the processes, with ``<key>_min``
    and ``<key>_max`` beside it; every other value must be the same in all
    of them.
    """
    out = {"processes": len(records)}
    for key, value in records[0].items():
        values = [rec[key] for rec in records]
        if key.endswith(("_s", "_mb", "_ratio")):
            out[key] = statistics.median(values)
            out[f"{key}_min"], out[f"{key}_max"] = min(values), max(values)
        elif any(v != value for v in values):
            sys.exit(f"{key} differs between the processes of one row: {values}")
        else:
            out[key] = value
    return out


def collect(script, args, names, key, extra=(), repeats=1):
    """Run ``script --row <name>`` for each of ``names``, ``repeats`` times, each in its own child process.

    The child prints its record as the last stdout line; with ``repeats``
    above one the row is the :func:`summarize` of its processes.  Each
    row, with the source's label, SHA and digest, is printed and merged
    into ``args.out``, replacing an older row with the same ``key(record)``.
    """
    src = Path(args.src).resolve()
    meta = {
        "label": args.label,
        "git_sha": args.git_sha or git_sha(src),
        "src_digest": source_digest(src),
        "blas_threads": 1,
        "limit_gb": LIMIT_GB,
    }
    path = Path(args.out)
    rows = json.loads(path.read_text())["rows"] if path.exists() else []
    for name in names:
        cmd = [sys.executable, script, "--row", str(name), "--label", args.label, "--src", str(src)]
        env = {**os.environ, **PIN}
        runs = []
        for _ in range(repeats):
            done = subprocess.run([*cmd, *extra], env=env, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"row {name} failed:\n{done.stderr}")
            runs.append(json.loads(done.stdout.splitlines()[-1]))
        record = {**meta, **(runs[0] if repeats == 1 else summarize(runs))}
        print(json.dumps(record))
        rows = [old for old in rows if key(old) != key(record)] + [record]
        path.write_text(json.dumps({"rows": rows}, indent=1) + "\n")


def row(n, src, save_matrix=None):
    """One row, in this process: the layers of a quadcurl (1,1) pass at level ``n``."""
    enter_row(src)
    import numpy as np

    from tetcomplex import problems
    from tetcomplex.assembly import (
        GlobalSpace,
        assemble,
        assemble_load,
        default_quadrature_degree,
        error_norms,
    )
    from tetcomplex.mesh import build_structured_cube
    from tetcomplex.problems import ManufacturedSolution

    r, k = 1, 1
    record = {"problem": "quadcurl", "r": r, "k": k, "N": n}

    def layer(name, fn):
        start = time.perf_counter()
        result = fn()
        record[f"{name}_s"] = time.perf_counter() - start
        record[f"{name}_peak_rss_mb"] = peak_rss_mb()
        return result

    ms = ManufacturedSolution()
    mesh = layer("mesh", lambda: build_structured_cube(n))
    space = layer("space", lambda: GlobalSpace(mesh, "gradcurl", r, k))
    degree = max(default_quadrature_degree(r, k, space.basis_degree), 2 * space.basis_degree)
    layer("class_tables", lambda: space.class_tables(degree))
    permuted = layer("factor_input", lambda: problems._dissection(space, degree, "gradcurl_stiffness").matrix)
    record["factor_input_nnz"] = int(permuted.nnz)
    block = permuted.data.nbytes + permuted.indices.nbytes + permuted.indptr.nbytes
    del permuted
    tracemalloc.start()
    try:
        problems._dissection(space, degree, "gradcurl_stiffness")
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    record["factor_input_block_mb"] = block / 2**20
    record["factor_input_traced_peak_mb"] = traced / 2**20
    record["factor_input_traced_ratio"] = traced / block
    matrix = layer("assemble", lambda: assemble("gradcurl_stiffness", space, degree)).matrix
    layer("load", lambda: assemble_load(space, ms.forcing_sample(), degree))
    layer("errors", lambda: error_norms(space, np.zeros(space.dim), ms.solution_sample(), degree))
    layer("errors_again", lambda: error_norms(space, np.zeros(space.dim), ms.solution_sample(), degree))
    # the int64 bytes of indptr then indices, hashed a slice at a time: two whole int64
    # copies of the pattern at once would set the row's peak RSS
    pattern = hashlib.sha256()
    for array in (matrix.indptr, matrix.indices):
        for lo in range(0, len(array), 1 << 20):
            pattern.update(array[lo:lo + (1 << 20)].astype(np.int64).tobytes())
    if save_matrix:
        np.savez(save_matrix, indptr=matrix.indptr, indices=matrix.indices, data=matrix.data)
    record.update({
        "quad_degree": degree,
        "cells": int(mesh.n_cells),
        "dofs": int(space.dim),
        "interior_dofs": int(space.interior_dim),
        "nnz": int(matrix.nnz),
        "pattern_sha256": pattern.hexdigest()[:16],
        "frobenius": float(np.sqrt(np.vdot(matrix.data, matrix.data))),
    })
    return {**record, "peak_rss_mb": peak_rss_mb()}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="name of the measured source, e.g. parent or change")
    parser.add_argument("--src", default=str(ROOT / "src"), help="directory holding tetcomplex/")
    parser.add_argument("--git-sha", help="SHA of the source when --src is not in a git checkout")
    parser.add_argument("--out", default=str(ROOT / "BENCH_assembly.json"))
    parser.add_argument("--save-matrix", help="directory for each row's stiffness matrix (.npz)")
    parser.add_argument("--row", type=int, help=argparse.SUPPRESS)  # one row in this process
    args = parser.parse_args()

    if args.row is not None:
        save = args.save_matrix and str(Path(args.save_matrix, f"{args.label}_N{args.row}.npz"))
        print(json.dumps(row(args.row, Path(args.src).resolve(), save)))
        return
    extra = ["--save-matrix", args.save_matrix] if args.save_matrix else []
    collect(__file__, args, LEVELS, lambda rec: (rec["label"], rec["N"]), extra, REPEATS)


if __name__ == "__main__":
    main()
