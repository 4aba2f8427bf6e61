"""In-memory span recorder for the benchmark's traced run.

A span is one call into a wbpose module, timed from the benchmark side:
name, start and end (perf_counter ns), the index of the enclosing span, the
op it belongs to, the run phase ("setup", "op" or "check") and a few
attributes such as the crowd size. Spans stay in a list until the run ends
and are written out in one piece, so recording costs two clock reads and an
append per span.

The untraced run uses the same call sites with a disabled recorder, whose
``span`` hands back one shared no-op context manager.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

_NULL = nullcontext()


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None  # index into Tracer.spans
    op_id: int | None
    phase: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class _Recording:
    __slots__ = ("tracer", "name", "attrs", "index")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Recording":
        t = self.tracer
        parent = t.stack[-1] if t.stack else None
        self.index = len(t.spans)
        t.spans.append(Span(self.name, time.perf_counter_ns(), 0, parent, t.op_id, t.phase, self.attrs))
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.spans[self.index].end_ns = time.perf_counter_ns()
        t.stack.pop()
        t.last_closed = self.index


class Tracer:
    """Records spans while ``enabled``; ``phase`` and ``op_id`` are set by
    the caller and stamped on every span opened after the change."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.op_id: int | None = None
        self.last_closed: int | None = None

    def span(self, name: str, **attrs):
        if not self.enabled:
            return _NULL
        return _Recording(self, name, attrs)

    def annotate_last(self, **attrs) -> None:
        """Add attributes known only after the call (such as the decoder's
        own phase timers) to the span that closed last."""
        if self.enabled:
            self.spans[self.last_closed].attrs.update(attrs)

    def self_times_ns(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children.
        Children run inside the parent on one thread, so they never overlap."""
        own = [s.duration_ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration_ns
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans]}, fh)
