"""Benchmark of the tetcomplex library: cold-process workloads, end to end and per layer.

    python3 perfbench/run.py --workload quadcurl-ladder --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout that holds ``src/tetcomplex``.  Each
run starts fresh worker interpreters (``worker.py``) one after another
until ``--seconds`` have gone by (at least one), checks every output
against ``reference.json``, and prints the medians over the workers.
With ``--trace 0`` those are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` the workers run with layer probes and the run prints
the per-layer metrics plus a self-time table.  The last stdout line is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans and a record of every run are written under ``perfbench/out/``.
See ``NOTES.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
from tracer import now  # noqa: E402
from workloads import RECORDED_KEYS, WORKLOADS, check  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Counts that must repeat exactly from run to run of the same source.
REPEAT_COUNTS = (
    "mesh.cells",
    "assembly.dofs",
    "assembly.nnz",
    "solver.lu_fill_nnz",
    "solver.iterations",
    "elements.constructs",
    "assembly.class_tables_builds",
    "problems.field_points",
)
WORKER_TIMEOUT_S = 170
PIN = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


def provenance(args, digest):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seed_note": "workloads are deterministic and do not consume the seed",
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "src_digest": digest,
        "python": sys.version.split()[0],
        "worker_env": PIN,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load1": os.getloadavg()[0],
    }


def run_worker(workload, trace, run_id):
    env = {**os.environ, **PIN}
    env.pop("PYTHONPATH", None)  # the worker imports the library from this checkout only
    spans_path = OUT / f"spans-{run_id}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(int(trace)), repr(now()),
         str(ROOT / "src"), str(spans_path)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"worker for {workload} failed with exit code {done.returncode}")
    return json.loads(lines[-1])


def repeat_check(workload, digest, samples):
    """Mismatches of the exact-repeat counts within this run and against earlier runs."""
    path = OUT / f"counts-{workload}-{digest}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    bad = []
    for sample in samples:
        counts = {**sample["counts"], **sample.get("layers", {})}
        for key in REPEAT_COUNTS:
            if key not in counts:
                continue
            if key in known and known[key] != counts[key]:
                bad.append(f"{key}: {counts[key]} != {known[key]} in an earlier run")
            known.setdefault(key, counts[key])
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return bad


def untraced_wall_median(workload, digest):
    if not (OUT / "runs.jsonl").exists():
        return None
    walls = []
    for line in (OUT / "runs.jsonl").read_text().splitlines():
        rec = json.loads(line)
        prov = rec["provenance"]
        if prov["workload"] == workload and prov["src_digest"] == digest and not prov["trace"]:
            walls += [s["wall_s"] for s in rec["samples"]]
    return statistics.median(walls) if walls else None


def print_trace_report(samples, overhead, basis):
    wall = statistics.median(s["wall_s"] for s in samples)
    sample = samples[len(samples) // 2]
    print(f"self time per layer (worker {len(samples) // 2 + 1}, wall_s {sample['wall_s']:.3f}):")
    print(f"  {'span':28s} {'calls':>8s} {'self_s':>9s} {'share':>7s}")
    for name, calls, self_s in sample["self_times"]:
        print(f"  {name:28s} {calls:8d} {self_s:9.3f} {100 * self_s / sample['wall_s']:6.2f}%")
    covered = sum(d for _, d in sample["top_level"])
    print(
        f"top-level spans ({', '.join(n for n, _ in sample['top_level'])}) cover "
        f"{covered:.3f} s of wall_s {sample['wall_s']:.3f} s; unnamed gap "
        f"{sample['wall_s'] - covered:.4f} s"
    )
    print(
        f"tracing overhead {overhead:.3f} s over traced wall_s {wall:.3f} s ({basis}); "
        f"{sample['spans']} spans, wrapper bookkeeping estimate {sample['wrapper_s']:.3f} s"
    )


def measure(args, reference):
    """Start workers one after another until ``args.seconds`` have gone by."""
    samples, attempted, failed = [], 0, 0
    start = now()
    while True:
        run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{len(samples)}"
        sample = run_worker(args.workload, args.trace, run_id)
        samples.append(sample)
        results = check(sample["ops"], reference)
        attempted += len(results)
        failed += sum(1 for bad in results.values() if bad)
        print(
            f"worker {len(samples)}: wall_s {sample['wall_s']:.3f} setup_s {sample['setup_s']:.3f} "
            f"run_s {sample['run_s']:.3f} cpu_s {sample['cpu_s']:.3f} "
            f"peak_rss_mb {sample['peak_rss_mb']:.1f}"
        )
        for op, bad in results.items():
            row = sample["ops"].get(op, {})
            noted = ", ".join(f"{k} {row[k]:.6g}" for k in RECORDED_KEYS if k in row)
            print(
                f"  {op}: {'ok' if not bad else 'FAILED ' + '; '.join(bad)}"
                + (f" (recorded, not gated: {noted})" if noted else "")
            )
        if now() - start >= args.seconds:
            return samples, attempted, failed


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="recorded only: the workloads are deterministic")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "tetcomplex" / "__init__.py").is_file():
        raise SystemExit(f"no library source under {ROOT / 'src'}: run inside a tetcomplex checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]
    OUT.mkdir(exist_ok=True)
    digest = source_digest(ROOT / "src")
    prov = provenance(args, digest)
    print("provenance: " + json.dumps(prov))

    samples, attempted, failed = measure(args, reference)
    prov["versions"] = samples[0]["versions"]
    repeat_bad = repeat_check(args.workload, digest, samples)
    for msg in repeat_bad:
        print(f"exact-repeat check FAILED: {msg}")

    if args.trace:
        metrics = {m: statistics.median(s["layers"][m] for s in samples) for m in units if m in samples[0]["layers"]}
        wall = statistics.median(s["wall_s"] for s in samples)
        base = untraced_wall_median(args.workload, digest)
        if base is None:
            overhead = statistics.median(s["wrapper_s"] for s in samples)
            basis = "no untraced run of this source yet: wrapper estimate"
        else:
            overhead, basis = wall - base, f"untraced median wall_s {base:.3f} s"
        metrics["trace.overhead_s"] = overhead
        print_trace_report(samples, overhead, basis)
    else:
        metrics = {m: statistics.median(s[m] for s in samples) for m in units}
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")

    print(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} operations failed)")
    for m, v in metrics.items():
        print(f"{m:32s} {v:>16.6g} {units[m]}")
    correct = failed == 0 and not repeat_bad
    record = {
        "provenance": prov,
        "samples": [{k: v for k, v in s.items() if k not in ("self_times", "top_level")} for s in samples],
        "metrics": metrics,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
    }
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
