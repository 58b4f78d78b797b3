"""Spans recorded from outside the program, at its layer boundaries.

:func:`install` replaces a layer's public function or method with a
timing wrapper wherever the program binds it: the defining module,
every ``repro.*`` module that imported it by name, and the class that
defines a method.  :meth:`Patch.restore` puts every original back.
Nothing under ``src/`` knows it is being traced, so an in-process
profile and a served one are cut at the same boundaries.

A span is ``(id, parent, op, name, start, end)``; spans of one
benchmark operation share ``op``.  They stay in memory until the run
ends.  A layer's self time is its spans' time minus the time of their
direct children (:func:`self_times`).
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, Optional[int], int, str, float, float]

#: (module, attribute path, span name, hook).  The hook, when given,
#: sees ``(recorder, result, args, kwargs, before)`` after each call and
#: turns the layer's public return value into counts; ``before`` is what
#: the hook's optional ``before(args, kwargs)`` returned ahead of the
#: call (None without one).
Target = Tuple[str, str, str, Optional[Callable]]


class Recorder:
    """Collects spans and counts; one per traced phase."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, hook=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        before = hook.before(args, kwargs) if hasattr(hook, "before") else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, self.op, name, start, end))
        if hook is not None:
            hook(self, result, args, kwargs, before)
        return result

    def run_op(self, index: int, fn, *args):
        """One benchmark operation: a root span all its layers nest in."""
        self.op = index
        return self.call("bench.op", fn, args, {})


def _wrap(recorder: Recorder, name: str, fn, hook):
    def traced(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, hook)

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", name)
    return traced


class Patch:
    """The replaced bindings of one :func:`install`, restorable."""

    def __init__(self) -> None:
        self.replaced: List[Tuple[object, str, object]] = []

    def restore(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def _program_modules():
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def install(recorder: Recorder, targets: Iterable[Target]) -> Patch:
    """Wrap every target; functions are rebound in every ``repro``
    module that holds them, methods on their defining class."""
    patch = Patch()
    modules = _program_modules()
    try:
        for module_name, attr_path, span_name, hook in targets:
            module = sys.modules[module_name]
            owner_name, _, attr = attr_path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                patch.replaced.append((owner, attr, original))
                setattr(owner, attr, _wrap(recorder, span_name, original, hook))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(recorder, span_name, original, hook)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        patch.replaced.append((holder, key, original))
                        setattr(holder, key, wrapper)
    except BaseException:
        patch.restore()
        raise
    return patch


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds per span name, each span minus its direct children."""
    spans = list(spans)
    child_time: Dict[int, float] = defaultdict(float)
    for _id, parent, _op, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for span_id, _parent, _op, name, start, end in spans:
        totals[name] += (end - start) - child_time[span_id]
    return dict(totals)


def outer_times(spans: Iterable[Span]) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Inclusive seconds and call counts per span name, counting a span
    only when no ancestor has the same name (so recursion and a layer
    calling itself are not counted twice)."""
    spans = list(spans)
    info = {span[0]: (span[1], span[3]) for span in spans}
    totals: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span_id, parent, _op, name, start, end in spans:
        calls[name] += 1
        nested = False
        while parent is not None:
            parent, parent_name = info[parent]
            if parent_name == name:
                nested = True
                break
        if not nested:
            totals[name] += end - start
    return dict(totals), dict(calls)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Self seconds per layer (the prefix of the span name)."""
    totals: Dict[str, float] = defaultdict(float)
    for name, seconds in self_times(spans).items():
        totals[layer_of(name)] += seconds
    return dict(totals)
