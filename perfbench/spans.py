"""In-memory spans around the benchmark's own calls into alphacf.

A span records its name, its duration, the op it belongs to and the span
that was open when it started, plus any counts the caller attaches to it
after the call returns (so computing a count never lands inside the span).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

import numpy as np


class NullTracer:
    """Tracing off: spans cost one throwaway dict, grid callables stay bare."""

    op = None

    def span(self, name, **attrs):
        return nullcontext({})

    def wrap_grid(self, name, f):
        return f


class Tracer:
    """Tracing on: every span is kept in ``spans`` in start order."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._open = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans),
               "parent": self._open[-1] if self._open else None,
               "op": self.op, "name": name, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        t0 = time.perf_counter()
        try:
            yield rec
        finally:
            rec["ms"] = (time.perf_counter() - t0) * 1e3
            self._open.pop()

    def wrap_grid(self, name, f):
        """Wrap a grid callable handed to bmo_lab so each call is a span."""

        def traced(xs):
            with self.span(name, points=int(np.size(xs))) as rec:
                vals = f(xs)
            rec["nonfinite"] = int(np.count_nonzero(~np.isfinite(vals)))
            return vals

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
