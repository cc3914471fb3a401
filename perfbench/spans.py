"""Span recorder for traced runs.

Spans are recorded from the benchmark's own files, around each call into
a layer's public entry point: ``(name, start, end, parent, op)``, kept in
memory and written to ``perfbench/out/trace_<workload>.json`` when the
run ends.  A span's *self time* is its duration minus the part covered by
its direct children.  Spans inside ``src/`` are a later issue.

The untraced run uses :class:`NullRecorder`: the same ``with`` blocks,
no clock reads, no list appends.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional


class NullRecorder:
    """Recorder of the untraced run: every span is a shared no-op."""

    _NULL = nullcontext()

    def span(self, name: str, op: Optional[int] = None):
        return self._NULL


class SpanRecorder:
    """In-memory spans; safe to use from several client threads (each
    thread nests its own spans, ``list.append`` is atomic)."""

    def __init__(self) -> None:
        #: [name, start_s, end_s, parent index or -1, op id or -1]
        self.spans: List[list] = []
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, op: Optional[int] = None) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        if op is None and parent >= 0:
            op = self.spans[parent][4]
        record = [name, 0.0, 0.0, parent, -1 if op is None else op]
        self.spans.append(record)
        # Index by identity: another thread may have appended meanwhile.
        index = len(self.spans) - 1
        while self.spans[index] is not record:
            index -= 1
        stack.append(index)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            stack.pop()

    # -- aggregation ----------------------------------------------------------

    def durations_ms(self, name: str) -> List[float]:
        return [(s[2] - s[1]) * 1e3 for s in self.spans if s[0] == name]

    def self_times_ms(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus its direct children."""
        covered = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        out: Dict[str, List[float]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            out[span[0]].append((span[2] - span[1] - covered[index]) * 1e3)
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_ms", "end_ms", "parent", "op"],
            "spans": [
                [s[0], round((s[1] - origin) * 1e3, 4), round((s[2] - origin) * 1e3, 4), s[3], s[4]]
                for s in self.spans
            ],
            "self_ms_total": {
                name: round(sum(values), 4)
                for name, values in sorted(self.self_times_ms().items())
            },
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
