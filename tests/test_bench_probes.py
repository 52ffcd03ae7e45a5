"""The library names that the traced benchmark run looks up still exist.

``perfbench/probes.py`` wraps library attributes by name and
``perfbench/worker.py`` reads two module caches; a rename or deletion in
the library would otherwise only surface in a traced benchmark run.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from tetcomplex import elements, problems

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


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
