"""In-memory span tracing around calls into balmod's modules.

The traced run replaces module and class attributes with timing wrappers for
the duration of the run and restores them afterwards; nothing under `src/`
knows about tracing.  Every lookup site is wrapped exactly once:

* modules that bind a function by name (`bec` does `from .ldpc import
  syndrome`) get their own wrapper under the canonical span name, because
  patching `ldpc.syndrome` does not reach them;
* `harness.bec` is the `bec` module itself, so sites are keyed by the owner
  object, and a second wrap of the same site is an error rather than a
  doubled count;
* classmethods (`BitWord.from_array`) are unwrapped and re-wrapped as
  classmethods on the defining class, so subclasses are covered too.
"""

from __future__ import annotations

import functools
import inspect
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int        # index into Tracer.spans, -1 at the top
    trial: int | None  # trial index the span belongs to
    info: object       # what the site's observer extracted from the result


class Tracer:
    """Records spans in memory; `spans[i].parent` links each to its caller."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.trial: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._sites: set[tuple[int, str]] = set()

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, start, info) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = Span(name, start, end, parent, self.trial, info)

    @contextmanager
    def span(self, name: str):
        idx, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, name, start, None)

    def _wrapper(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent = tracer._open()
            start = perf_counter()
            info = None
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    info = observe(out)
                return out
            finally:
                tracer._close(idx, parent, name, start, info)

        traced.__perfbench_traced__ = True
        return traced

    def wrap(self, owner, attr: str, observe: Callable | None = None) -> None:
        """Replace `owner.attr` by a span-recording wrapper.

        The span is named after the function's defining module and qualified
        name (`ldpc.syndrome` whether looked up in `ldpc` or in `bec`).
        """
        key = (id(owner), attr)
        if key in self._sites:
            raise ValueError(f"lookup site {owner!r}.{attr} wrapped twice")
        original = inspect.getattr_static(owner, attr)
        raw = original.__func__ if isinstance(original, classmethod) else original
        if getattr(raw, "__perfbench_traced__", False):
            raise ValueError(f"{owner!r}.{attr} is already a traced wrapper")
        name = f"{raw.__module__.rsplit('.', 1)[-1]}.{raw.__qualname__}"
        wrapped = self._wrapper(name, raw, observe)
        if isinstance(original, classmethod):
            wrapped = classmethod(wrapped)
        self._sites.add(key)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._sites.clear()

    def records(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return list(self.spans)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanStats(NamedTuple):
    calls: dict[str, int]
    busy: dict[str, float]        # summed duration per span name
    self_time: dict[str, float]   # duration minus direct children, per span name
    layer_self: dict[str, float]  # self time summed per module
    layer_busy: dict[str, float]  # time inside the module, nested calls counted once
    info: dict[str, list]         # observer values per span name, in call order


def summarize(spans: list[Span]) -> SpanStats:
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    self_time: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    layer_busy: dict[str, float] = {}
    info: dict[str, list] = {}
    for i, s in enumerate(spans):
        dur = s.end - s.start
        own = dur - child_time[i]
        layer = layer_of(s.name)
        calls[s.name] = calls.get(s.name, 0) + 1
        busy[s.name] = busy.get(s.name, 0.0) + dur
        self_time[s.name] = self_time.get(s.name, 0.0) + own
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if s.parent < 0 or layer_of(spans[s.parent].name) != layer:
            layer_busy[layer] = layer_busy.get(layer, 0.0) + dur
        if s.info is not None:
            info.setdefault(s.name, []).append(s.info)
    return SpanStats(calls, busy, self_time, layer_self, layer_busy, info)
