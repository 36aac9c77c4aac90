"""In-memory span recorder for the benchmark's traced runs.

A span is (id, name, start_ns, end_ns, parent id).  Times come from
time.perf_counter_ns, which reads CLOCK_MONOTONIC on Linux and so is
comparable across the benchmark's processes: spans a child process
records can be merged under the parent's span for that child unchanged.

Spans stay in memory until the run ends.  For names that fire very often
(one span per bound_eval query) only the first KEEP_PER_NAME spans are
kept in full; later ones are folded into a per-name count and total, so
a long stream does not grow the trace without limit.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

KEEP_PER_NAME = 20_000


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int | None]] = []
        self.folded: dict[str, list[int]] = {}  # name -> [count, total_ns]
        self.counts: dict[str, int] = {}
        self._kept: dict[str, int] = {}
        self._stack: list[int] = []
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def span(self, name: str):
        sid = self._new_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self._store(sid, name, start, end, parent)

    def add(self, name: str, start: int, end: int) -> None:
        """Record a span timed by the caller, under the current span."""
        parent = self._stack[-1] if self._stack else None
        self._store(self._new_id(), name, start, end, parent)

    def _store(self, sid: int, name: str, start: int, end: int, parent: int | None) -> None:
        kept = self._kept.get(name, 0)
        if kept < KEEP_PER_NAME:
            self._kept[name] = kept + 1
            self.spans.append((sid, name, start, end, parent))
        else:
            acc = self.folded.setdefault(name, [0, 0])
            acc[0] += 1
            acc[1] += end - start

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def merge(self, dump: dict, parent: int | None) -> None:
        """Adopt the spans of another recorder's dump() under `parent`."""
        # a span is stored when it ends, so children precede their parent
        remap = {span[0]: self._new_id() for span in dump["spans"]}
        for sid, name, start, end, par in dump["spans"]:
            self._store(remap[sid], name, start, end, remap.get(par, parent))
        for name, (n, total) in dump["folded"].items():
            acc = self.folded.setdefault(name, [0, 0])
            acc[0] += n
            acc[1] += total
        for name, n in dump["counts"].items():
            self.count(name, n)

    def dump(self) -> dict:
        return {"spans": self.spans, "folded": self.folded, "counts": self.counts}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)
