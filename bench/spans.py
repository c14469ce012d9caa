"""Span recorder for the traced benchmark run, and the arithmetic on spans.

A span is one timed call into a layer: name, start, end, parent span and
thread.  Spans are kept in memory and written out once, when the run ends.
Only the standard library is used (`contextvars`, `perf_counter`), so the
recorder loads nothing the program does not.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; `span(name)` times a block, `wrap(name, fn)` a callable."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("bench_span", default=None)
        self._home = threading.get_ident()
        self._home_open: list[int] = []

    @contextmanager
    def span(self, name: str):
        thread = threading.get_ident()
        home = thread == self._home
        parent = self._current.get()
        if parent is None and not home and self._home_open:
            # Pool threads start with an empty context; their work was
            # submitted by the innermost span open in the recording thread.
            parent = self._home_open[-1]
        sid = next(self._ids)
        token = self._current.set(sid)
        if home:
            self._home_open.append(sid)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            if home:
                self._home_open.pop()
            self._current.reset(token)
            self.spans.append(Span(sid, name, start, end, parent, thread))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced


class NullRecorder:
    """Recorder for untraced runs: a span costs one no-op context."""

    spans: list[Span] = []

    def span(self, name: str):
        return nullcontext()

    def wrap(self, name: str, fn):
        return fn


def union_length(intervals) -> float:
    """Total length covered by (start, end) intervals; overlaps count once."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[str, float]:
    """Per span name: duration minus the part of it that child spans cover.

    Children are clipped to their parent's interval, and children running
    at the same time in different threads are counted once.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]
        )
        out[s.name] += s.duration - covered
    return dict(out)


def durations(spans, name: str) -> list[float]:
    return [s.duration for s in spans if s.name == name]


def concurrency(spans, name: str) -> float:
    """Summed span time of `name` over the wall time in which any of them ran."""
    picked = [(s.start, s.end) for s in spans if s.name == name]
    wall = union_length(picked)
    return sum(hi - lo for lo, hi in picked) / wall if wall > 0 else 0.0
