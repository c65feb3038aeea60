"""In-memory spans recorded by the benchmark around calls into isoposet.

A span is ``[span_id, parent_id, name, start_s, end_s]`` on the
``time.perf_counter`` clock of the process that recorded it; ``parent_id``
is -1 for a root.  Spans are kept in a list and written out only when the
benchmark ends, so recording costs two clock reads and a list append.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Collects spans; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.spans)
        record = [span_id, self._stack[-1] if self._stack else -1, name,
                  time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record[4] = time.perf_counter()


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover.  Children of one span never overlap here (one
    thread records them in sequence), so the covered part is the sum of the
    children's durations.
    """
    covered = [0.0] * len(spans)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for span_id, _, name, start, end in spans:
        out[name] = out.get(name, 0.0) + (end - start) - covered[span_id]
    return out

