"""Command-line interface: mesh/element info, verification, solving, studies.

Exit codes: 0 success, 1 verification failure, 2 solver failure, 3 invalid
configuration.  A key=value config file may supply defaults; explicit flags
win.  The environment variable TETCOMPLEX_LOG sets the log level (errors
and progress go to standard error; results go to stdout or files).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

log = logging.getLogger("tetcomplex")

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_SOLVER = 2
EXIT_CONFIG = 3

_UNSET = object()  # parse-time default of every option


def _setup_logging():
    level = os.environ.get("TETCOMPLEX_LOG", "warning").upper()
    logging.basicConfig(
        stream=sys.stderr,
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _apply_threads(n):
    if n is None:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)


def _load_config_file(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _defer_defaults(parser):
    """Swap every option's default for ``_UNSET``; returns {dest: (default, type)}.

    An option still ``_UNSET`` after parsing was not given on the command
    line, whatever value it would default to.  Subcommands share this map,
    so options of one name must share their default.
    """
    deferred = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                for dest, (default, cast) in _defer_defaults(sub).items():
                    if deferred.setdefault(dest, (default, cast))[0] != default:
                        raise ValueError(f"option {dest!r} has two defaults")
        elif action.option_strings and action.default is not argparse.SUPPRESS:
            deferred[action.dest] = (action.default, action.type)
            action.default = _UNSET
    return deferred


def _merge_config(args, parser_defaults):
    """Fill the options not given as flags: from the config file, else their defaults.

    A file key must name an option of some subcommand; any other key is an
    error, so a misspelt option cannot fall back to its default unnoticed.
    """
    file_values = _load_config_file(args.config) if args.config is not _UNSET else {}
    unknown = sorted(set(file_values) - set(parser_defaults))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    for key, (default, cast) in parser_defaults.items():
        if getattr(args, key, None) is _UNSET:
            raw = file_values.get(key)
            setattr(args, key, default if raw is None else (cast or str)(raw))
    return args


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tetcomplex",
        description="Grad-curl conforming tetrahedral elements and discrete Stokes complexes",
    )
    parser.add_argument("--config", help="key=value config file (flags win)")
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS thread budget (results are order-independent)")
    sub = parser.add_subparsers(dest="command", required=True)

    mesh = sub.add_parser("mesh", help="mesh utilities")
    mesh_sub = mesh.add_subparsers(dest="subcommand", required=True)
    mesh_info = mesh_sub.add_parser("info", help="entity counts and Euler check")
    mesh_info.add_argument("--N", type=int, required=True)
    mesh_info.add_argument("--out", help="optional path for the mesh text export")

    element = sub.add_parser("element", help="element utilities")
    el_sub = element.add_subparsers(dest="subcommand", required=True)
    el_info = el_sub.add_parser("info", help="dimensions, DOF counts, exactness ranks")
    el_info.add_argument("--r", type=int, required=True)
    el_info.add_argument("--k", type=int, required=True)

    verify = sub.add_parser("verify", help="run structural verification claims")
    verify.add_argument(
        "group",
        choices=["all", "bubbles", "exactness", "unisolvence", "commuting", "rates"],
    )
    verify.add_argument("--r", type=int, default=None)
    verify.add_argument("--k", type=int, default=None)
    verify.add_argument("--N", type=int, default=None)
    verify.add_argument("--out", help="JSON report path")

    solve = sub.add_parser("solve", help="solve a model problem at one level")
    solve.add_argument("problem", choices=["quadcurl", "stokes"])
    solve.add_argument("--N", type=int, required=True)
    solve.add_argument("--r", type=int, default=None)
    solve.add_argument("--k", type=int, required=True)
    solve.add_argument("--tol", type=float, default=None, help="solver tolerance (default: the problem's own)")
    solve.add_argument("--quad-degree", type=int, default=None)
    solve.add_argument("--out", help="CSV output path")

    conv = sub.add_parser("convergence", help="multi-level convergence study")
    conv.add_argument("--problem", default="quadcurl", choices=["quadcurl", "interpolation"])
    conv.add_argument("--levels", required=True, help="comma-separated mesh levels, e.g. 2,4,8")
    conv.add_argument("--r", type=int, required=True)
    conv.add_argument("--k", type=int, required=True)
    conv.add_argument("--tol", type=float, default=None, help="solver tolerance (default: the problem's own)")
    conv.add_argument("--quad-degree", type=int, default=None)
    conv.add_argument("--out", help="CSV output path")
    conv.add_argument("--json", dest="json_out", help="JSON output path")
    return parser


def cmd_mesh_info(args):
    from .mesh import build_structured_cube

    if args.N < 1:
        raise ValueError("mesh level must be >= 1")
    start = time.perf_counter()
    mesh = build_structured_cube(args.N)
    build_s = time.perf_counter() - start
    info = mesh.info()
    info["N"] = args.N
    info["build_s"] = build_s
    if args.out:
        mesh.export_text(args.out)
        info["exported"] = args.out
    print(json.dumps(info, indent=2))
    return EXIT_OK


def cmd_element_info(args):
    from .elements import element_info

    info = element_info(args.r, args.k)
    print(json.dumps(info, indent=2, default=str))
    return EXIT_OK


def cmd_verify(args):
    from .verify import verify_all

    groups = None if args.group == "all" else [args.group]
    if (args.r is None) != (args.k is None):
        missing = "--k" if args.k is None else "--r"
        raise ValueError(f"verify narrows to one (r, k) pair only with both --r and --k: {missing} is missing")
    configs = None if args.r is None else ((args.r, args.k),)
    levels = (args.N,) if args.N is not None else None
    report = verify_all(groups, configs, levels=levels)
    if args.out:
        report.to_json(args.out)
    print(report.table())
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def cmd_solve(args):
    from .problems import QuadCurlProblem, StokesProblem, solve_quadcurl, solve_stokes

    given = {} if args.tol is None else {"tol": args.tol}
    if args.problem == "quadcurl":
        r = args.r if args.r is not None else args.k
        problem = QuadCurlProblem(n=args.N, r=r, k=args.k, quad_degree=args.quad_degree, **given)
        _, row = solve_quadcurl(problem)
        columns = ["N", "dofs", "l2", "hcurl", "gradcurl", "residual", "lu_nnz", "factor_s",
                   "seconds"]
    else:
        problem = StokesProblem(n=args.N, k=args.k, quad_degree=args.quad_degree, **given)
        _, _, row = solve_stokes(problem)
        columns = [
            "N", "dofs", "velocity_l2", "velocity_h1", "pressure_l2", "div_norm", "lu_nnz",
            "factor_s", "seconds",
        ]
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(",".join(columns) + "\n")
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")
    print(json.dumps({c: row[c] for c in columns}, indent=2))
    return EXIT_OK


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.6e}"
    return str(v)


def cmd_convergence(args):
    from .problems import interpolation_study, run_convergence

    levels = [int(t) for t in args.levels.split(",") if t]
    if not levels or any(n < 1 for n in levels):
        raise ValueError("levels must be positive integers")
    if args.problem == "interpolation":
        report = interpolation_study(levels, args.r, args.k, quad_degree=args.quad_degree)
    else:
        given = {} if args.tol is None else {"tol": args.tol}
        report = run_convergence("quadcurl", levels, args.r, args.k, quad_degree=args.quad_degree, **given)
    if args.out:
        report.to_csv(args.out)
    payload = report.to_json(args.json_out)
    if not args.out and not args.json_out:
        print(json.dumps(payload, indent=2))
    else:
        for row in report.rows:
            log.info("N=%s l2=%.3e", row.get("N"), row.get("l2"))
    return EXIT_OK


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    defaults = _defer_defaults(parser)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        args = _merge_config(args, defaults)
        _apply_threads(args.threads)
        if args.command == "mesh":
            return cmd_mesh_info(args)
        if args.command == "element":
            return cmd_element_info(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "convergence":
            return cmd_convergence(args)
        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, FileNotFoundError) as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # solver and verification failures
        from .problems import SolverFailure

        if isinstance(exc, SolverFailure):
            print(f"solver failure: {exc}", file=sys.stderr)
            return EXIT_SOLVER
        raise


if __name__ == "__main__":
    sys.exit(main())
