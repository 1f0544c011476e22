"""In-memory span recording around the library calls of each layer.

A span holds its name, start and end (``time.perf_counter`` seconds),
the id of the span open when it began, and the id of the operation it
belongs to. Spans stay in memory and are written out once, when the
run ends, so recording costs a list append per call.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Records nothing; used for the untraced operations."""

    _NULL = nullcontext()

    def span(self, name):
        return self._NULL


class Tracer:
    """Collects spans for every operation of one run."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op_id = None

    @contextmanager
    def span(self, name):
        record = {
            "id": len(self.spans),
            "name": name,
            "op": self.op_id,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_ms(self) -> dict[str, list[float]]:
        """Per span name, the self time in ms summed within each op.

        A span's self time is its duration minus the durations of its
        direct children. Each list has one entry per op (or set-up
        round) that ran the span.
        """
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        per_op = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            own = s["end"] - s["start"] - child[s["id"]]
            per_op[s["name"]][s["op"]] += 1e3 * own
        return {name: list(ops.values()) for name, ops in per_op.items()}

    def median_self_ms(self) -> dict[str, float]:
        return {
            name: statistics.median(values)
            for name, values in self.self_ms().items()
        }

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n")
