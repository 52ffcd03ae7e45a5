"""The library names that the traced benchmark run looks up still exist.

``perfbench/probes.py`` wraps library attributes by name and
``perfbench/worker.py`` reads two module caches; a rename or deletion in
the library would otherwise only surface in a traced benchmark run.  One
traced worker run checks what the probes read at run time.
"""

import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from tetcomplex import elements, problems

ROOT = Path(__file__).resolve().parents[1]
PROBES = ROOT / "perfbench" / "probes.py"


class _ResolvingTracer:
    """Tracer stand-in whose ``wrap`` only looks the wrapped attribute up."""

    def __init__(self):
        self.counts = Counter()
        self.paused = False
        self.wrapped = []

    def wrap(self, owner, attr, name, after=None, skip_under=()):
        getattr(owner, attr)
        self.wrapped.append((getattr(owner, "__name__", type(owner).__name__), attr))


def _load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probe_install_resolves_every_wrapped_name():
    tracer = _ResolvingTracer()
    layer_metrics = _load_probes().install(tracer)
    assert callable(layer_metrics)
    assert len(tracer.wrapped) == len(set(tracer.wrapped)) > 0


def test_worker_cache_reads_exist():
    assert isinstance(problems._space_cache, dict)
    assert len(elements._element_cache) >= 0


def test_traced_worker_run(tmp_path):
    # stokes-n8 builds a velocity and a pressure space on the six Kuhn classes
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OMP_NUM_THREADS": "1"}
    worker = ROOT / "perfbench" / "worker.py"
    args = ["stokes-n8", "1", "0.0", str(ROOT / "src"), str(tmp_path / "spans.json")]
    run = subprocess.run(
        [sys.executable, str(worker), *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert run.returncode == 0, run.stderr
    layers = json.loads(run.stdout.strip().splitlines()[-1])["layers"]
    for metric in (
        "elements.cell_geometry_calls", "assembly.class_tables_distinct", "elements.constructs"
    ):
        assert layers[metric] == 12, metric
