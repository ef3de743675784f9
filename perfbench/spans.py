"""In-memory spans recorded from outside the program, around calls into its layers.

A span has a name, a start, an end, the index of the span that was open
when it started (its parent) and the id of the benchmark iteration it
belongs to.  Spans stay in memory while the workload runs and are written
out once at the end.  A span's self time is its duration minus the
durations of its direct children, so the self times of one iteration sum
to the iteration's wall time.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    iteration: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.iteration = -1

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.iteration))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called name."""

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self, iteration: int) -> dict[str, float]:
        """Summed self time per span name within one iteration."""
        own = {i: s for i, s in enumerate(self.spans) if s.iteration == iteration}
        out: dict[str, float] = defaultdict(float)
        for i, s in own.items():
            out[s.name] += s.end - s.start
            if s.parent in own:
                out[own[s.parent].name] -= s.end - s.start
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


@contextlib.contextmanager
def instrumented(tracer: Tracer, module, names: dict[str, str]):
    """Temporarily replace module attributes by span-recording wrappers.

    names maps an attribute of module (a function or class the module calls)
    to the span name its calls are recorded under.  The originals are put
    back on exit, so untraced iterations run the unmodified program.
    """
    saved = {attr: getattr(module, attr) for attr in names}
    try:
        for attr, span_name in names.items():
            setattr(module, attr, tracer.wrap(span_name, saved[attr]))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)
