"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
enclosing span in ``Tracer.spans`` (or ``None`` for a top-level span).
Spans are only kept in memory while the workload runs; ``dump`` writes
them once at the end, tagged with the workload-run id.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from types import SimpleNamespace


def now():
    """System-wide monotonic clock, comparable between parent and child."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counts = Counter()
        self.paused = False
        self._stack = []

    # -- recording ---------------------------------------------------------

    def open(self, name, start=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, now() if start is None else start, None, parent])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def add(self, name, start, end):
        """Record a finished top-level span."""
        self.spans.append([name, start, end, None])

    def close(self):
        self.spans[self._stack.pop()][2] = now()

    def current(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, owner, attr, name, after=None, skip_under=()):
        """Replace ``owner.attr`` by a callable that records one span per call.

        ``after(result, args, kwargs, span)`` may update counters, relabel the
        span, or return a replacement result.  Calls made while the current
        span is named in ``skip_under`` pass through unrecorded, so work a
        layer does on another layer's behalf is counted with that layer.
        """
        inner = getattr(owner, attr)
        tracer = self

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            if tracer.paused or tracer.current() in skip_under:
                return inner(*args, **kwargs)
            span = tracer.open(name)
            try:
                out = inner(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                replaced = after(out, args, kwargs, span)
                if replaced is not None:
                    out = replaced
            return out

        setattr(owner, attr, traced)

    # -- summaries ---------------------------------------------------------

    def totals(self):
        """Per name: (calls, inclusive seconds, self seconds).

        Inclusive time skips spans nested inside a span of the same name, so
        recursion is not counted twice.  Self time is a span's duration minus
        the part covered by its direct children.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
            p = parent
            while p is not None and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p is None:
                incl[name] += end - start
        return {n: (calls[n], incl[n], self_s[n]) for n in calls}

    def top_level(self):
        return [(name, end - start) for name, start, end, parent in self.spans if parent is None]

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["id", "name", "start", "end", "parent", "run_id"],
                    "spans": [[i, *s, self.run_id] for i, s in enumerate(self.spans)],
                },
                fh,
            )


def calibrate(tracer, calls=20000):
    """Seconds of bookkeeping one traced call adds, measured on a no-op."""
    holder = SimpleNamespace(noop=lambda: None)

    def loop():
        t0 = now()
        for _ in range(calls):
            holder.noop()
        return (now() - t0) / calls

    plain = loop()
    tracer.wrap(holder, "noop", "trace.calibrate")
    traced = loop()
    del tracer.spans[-calls:]
    return max(traced - plain, 0.0)
