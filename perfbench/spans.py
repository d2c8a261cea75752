"""Spans for the traced pass, kept in memory and written out at the end.

The benchmark opens one root span per operation (a protocol run, a state
certified, a bound set, a CLI call). `wrap_functions` puts a child span
around eprlab's public functions by replacing them at every eprlab module
attribute that holds them, which is where callers look them up, and puts
the originals back afterwards. A span's self time is its duration minus
the time its direct children cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Optional

perf_counter = time.perf_counter


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "attrs", "child_time")

    def __init__(self, name: str, parent: Optional[int], root: Optional[int], attrs: dict):
        self.name = name
        self.parent = parent
        self.root = root
        self.attrs = attrs
        self.child_time = 0.0
        self.start = perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Recorder:
    """Collects spans; `root` is the index of the operation span a span belongs to."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else index
        record = Span(name, parent, root, attrs)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_time += record.duration

    def named(self, *names: str, roots: Optional[Iterable[str]] = None) -> list[Span]:
        """Spans with one of the names, optionally only under root spans of the given names."""
        wanted = set(roots) if roots is not None else None
        return [
            s for s in self.spans
            if s.name in names and (wanted is None or self.spans[s.root].name in wanted)
        ]

    def write(self, path: str, header: dict) -> None:
        rows = [
            [s.name, s.start, s.end, s.parent, s.root, s.attrs] for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "columns": ["name", "start", "end", "parent", "root", "attrs"],
                       "spans": rows}, handle, default=str)


OnResult = Callable[[Span, tuple, dict, object], None]


@contextmanager
def wrap_functions(recorder: Recorder, targets: Iterable[tuple[str, str, Optional[OnResult]]]):
    """Span-wrap each `module.function` for the duration of the block.

    targets holds (dotted function path, span name, on_result); on_result,
    when given, may read the call and its result into the span's attrs.
    """
    restore = []
    try:
        for path, span_name, on_result in targets:
            module_name, _, attr = path.rpartition(".")
            original = getattr(sys.modules[module_name], attr)
            wrapper = _wrapper(recorder, original, span_name, on_result)
            for name, module in list(sys.modules.items()):
                if (name == "eprlab" or name.startswith("eprlab.")) and \
                        getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    restore.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(restore):
            setattr(module, attr, original)


def _wrapper(recorder: Recorder, original, span_name: str, on_result: Optional[OnResult]):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with recorder.span(span_name) as record:
            result = original(*args, **kwargs)
            if on_result is not None:
                on_result(record, args, kwargs, result)
            return result

    return wrapper
