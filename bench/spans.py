"""In-memory spans and counters for the traced benchmark run.

A span is ``[name, start, end, parent]``: ``parent`` is the index of the
enclosing span in the same list, or -1 for a top-level span. Spans are kept
in memory and written out once, when the traced operation ends.

This module imports nothing outside the standard library, so the benchmark
process can compute self times without loading the package under test.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter


class Tracer:
    """Records nested spans and named counts for one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.monotonic(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.monotonic()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        """Return ``fn`` recorded as span ``name``.

        ``on_result(tracer, args, kwargs, result)`` and
        ``on_error(tracer, exc)`` update counts; the exception is re-raised.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(self, exc)
                raise
            finally:
                self.end(index)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def patch_functions(modules: dict, tracer: Tracer, hooks: dict) -> None:
    """Wrap the public functions of each module, at every module binding them.

    ``modules`` maps a layer name (``"market"``) to its module object; the
    public functions are the names in ``__all__`` that are plain functions.
    Every module in ``modules`` that binds the same function object under any
    name gets the wrapper, so ``from .market import normal_matrix`` call sites
    are traced too. ``hooks`` maps a span name to ``(on_result, on_error)``.
    """
    wrapped: dict[int, object] = {}
    for layer, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if not inspect.isfunction(fn) or id(fn) in wrapped:
                continue
            name = f"{layer}.{attr}"
            on_result, on_error = hooks.get(name, (None, None))
            wrapped[id(fn)] = (fn, tracer.wrap(name, fn, on_result, on_error))
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            entry = wrapped.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Child intervals are clipped to the parent before their union is taken,
    so overlapping or overhanging children are never counted twice.
    """
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        clipped = [
            (max(s, start), min(e, end))
            for s, e in children.get(index, ())
            if min(e, end) > max(s, start)
        ]
        out.append((end - start) - covered(clipped))
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def bucket_self_times(spans, roots=()) -> dict[str, float]:
    """Self time per bucket.

    A span starts a bucket of its own name when its name is in ``roots`` or
    its caller belongs to another layer (or it has no caller); otherwise it
    adds its self time to its caller's bucket. So ``market.growth_factors``
    includes the ``market.log_return_increment`` it calls, and a
    ``market.normal_matrix`` called from ``fund.simulate_batch`` is a bucket
    of its own.
    """
    own = self_times(spans)
    bucket: list[str] = []
    totals: Counter = Counter()
    for index, (name, start, end, parent) in enumerate(spans):
        nested = parent >= 0 and layer_of(spans[parent][0]) == layer_of(name)
        bucket.append(bucket[parent] if nested and name not in roots else name)
        totals[bucket[index]] += own[index]
    return dict(totals)


def layer_self_times(spans) -> dict[str, float]:
    """Self time summed per layer (the part of the name before the dot)."""
    totals: Counter = Counter()
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[layer_of(name)] += own
    return dict(totals)


def top_level_time(spans) -> float:
    """Time covered by the spans that have no parent."""
    return covered([(s, e) for _, s, e, parent in spans if parent < 0])
