"""One cold workload process: import the library, set up, run, report.

Started by ``run.py`` in a fresh interpreter, so the library's module
caches start empty as they do for a user.  Prints one JSON object as the
last line of its standard output.

    python perfbench/worker.py WORKLOAD TRACE SPAWN_TIME SRC_DIR SPANS_PATH
"""

from tracer import Tracer, calibrate, now

# taken before any other import: the process.start span ends here
T_MAIN = now()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv):
    name, trace, t_spawn, src_dir, spans_path = argv
    trace, t_spawn, src_dir = trace == "1", float(t_spawn), Path(src_dir).resolve()
    tracer = Tracer(Path(spans_path).stem) if trace else None

    sys.path.insert(0, str(src_dir))
    import numpy
    import scipy
    from tetcomplex import problems

    from workloads import WORKLOADS

    if src_dir not in Path(problems.__file__).resolve().parents:
        raise SystemExit(f"tetcomplex imported from {problems.__file__}, not from {src_dir}")
    t_imported = now()
    layer_metrics, per_call = None, 0.0
    if tracer:
        import probes

        tracer.add("process.start", t_spawn, T_MAIN)
        tracer.add("process.import", T_MAIN, t_imported)
        tracer.open("trace.install", t_imported)
        layer_metrics = probes.install(tracer)
        per_call = calibrate(tracer)
        tracer.close()

    workload = WORKLOADS[name]
    t0 = now()
    if tracer:
        tracer.open("workload.setup", t0)
    workload.setup(problems)
    t1 = now()
    if tracer:
        tracer.close()
        tracer.open("workload.run", t1)
    ops = workload.run(problems)
    t2 = now()
    if tracer:
        tracer.close()
    usage = resource.getrusage(resource.RUSAGE_SELF)

    out = {
        "wall_s": t2 - t_spawn,
        "setup_s": t1 - t0,
        "run_s": t2 - t1,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "ops": ops,
        "counts": cheap_counts(problems, ops),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer:
        tracer.dump(spans_path)
        totals = tracer.totals()
        out["layers"] = layer_metrics(ops)
        out["self_times"] = sorted(
            ([n, c, s] for n, (c, _, s) in totals.items()), key=lambda t: -t[2]
        )
        out["top_level"] = tracer.top_level()
        out["spans"] = len(tracer.spans)
        out["wrapper_s"] = per_call * len(tracer.spans)
    print(json.dumps(out))


def cheap_counts(problems, ops):
    """Counts readable after an untraced run without any wrapping."""
    from tetcomplex import elements

    spaces = list(problems._space_cache.values())
    rows = [row for row in ops.values() if "error" not in row]
    return {
        "mesh.cells": sum(entry["mesh"].n_cells for entry in spaces),
        "assembly.dofs": sum(
            s.dim for entry in spaces for key, s in entry.items() if key != "mesh"
        ),
        "elements.constructs": len(elements._element_cache),
        "solver.iterations": sum(row.get("iterations", 0) for row in rows),
    }


if __name__ == "__main__":
    main(sys.argv[1:])
