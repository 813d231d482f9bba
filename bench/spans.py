"""In-memory span recorder for the traced in-process run.

A span is (name, start_ns, end_ns, parent, run_id); ``parent`` is the
index of the enclosing span or -1.  Spans are recorded by wrappers that
the benchmark installs on the names the calling modules bound, so the
program itself carries no tracing code.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Callable, Iterable, Iterator, NamedTuple


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int
    run_id: int


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.run_id)

        return traced

    @contextlib.contextmanager
    def installed(self, targets: Iterable[tuple[object, str, str]]) -> Iterator[None]:
        """Wrap ``owner.attr`` as span ``name`` for each target; restore on exit."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times_ns(self) -> dict[int, dict[str, list[int]]]:
        """Per run id and span name, each span's duration minus its children's.

        Calls nest on one thread, so children never overlap and the part
        of a span they cover is the sum of their durations.
        """
        child_ns = defaultdict(int)
        for s in self.spans:
            if s is not None and s.parent >= 0:
                child_ns[s.parent] += s.end_ns - s.start_ns
        out: dict[int, dict[str, list[int]]] = defaultdict(lambda: defaultdict(list))
        for index, s in enumerate(self.spans):
            if s is not None:
                out[s.run_id][s.name].append(s.end_ns - s.start_ns - child_ns[index])
        return out
