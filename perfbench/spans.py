"""In-memory span recorder for the traced run, and the self-time arithmetic.

A span is one call across a layer boundary: its name, start, end, the index
of the span that was open when it started (its parent), the batch it belongs
to, an optional tag (the block name for optimizer steps) and optional counts
recorded at the same boundary. Spans stay in a list until the run ends.

Batches: a span whose parent is a root span (one with no parent) may open a
new batch or join the current one; every other span inherits its parent's
batch. So all spans of one training batch, and everything below them, share
one id, while evaluation under the same root has none.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    batch: int | None = None
    tag: str | None = None
    counts: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._batch = 0

    def open(self, name: str, tag: str | None = None, batch_role: str | None = None) -> int:
        """Start a span; batch_role is None, "open" or "join"."""
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            batch = None
        elif self.spans[parent].parent is None:
            if batch_role == "open":
                self._batch += 1
            batch = self._batch if batch_role else None
        else:
            batch = self.spans[parent].batch
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, parent, batch, tag))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")
        self.spans[idx].end = end

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a root-level or nested span."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, batch_role: str | None = None, tag=None, count=None):
        """A stand-in for fn that records a span around each call.

        tag(*args) names the span's tag; count(result, *args) returns counts,
        computed after the span has closed so they do not inflate it.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name, tag(*args) if tag else None, batch_role)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.spans[idx].counts = count(result, *args)
            return result

        return traced


def write_jsonl(spans: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(asdict(span)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cursor = span.start
        for kid in sorted(kids, key=lambda k: spans[k].start):
            lo = max(spans[kid].start, cursor)
            hi = min(spans[kid].end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out
