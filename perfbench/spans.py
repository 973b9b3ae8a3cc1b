"""Span tracer installed from outside the program.

``Tracer.install`` wraps every public function and every public method of
public classes defined in the given modules, and rebinds each name that
refers to a wrapped function in every given module. That covers names
imported into other modules (``from .solver import solve_forward``), which
a patch of the defining module alone would miss.

A wrapper records a span only when its caller lives in another module,
so spans mark layer boundaries; calls inside one module run untraced.
A span is ``[name, start, end, parent, info]``: ``parent`` indexes the
enclosing span in ``Tracer.spans`` (-1 at the root), and ``info`` is what
the name's annotator extracted from the arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self, modules, annotators=None):
        self.modules = list(modules)
        self.annotators = dict(annotators or {})
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(
                        f"{layer}.{attr}", mod.__name__, obj))
                elif inspect.isclass(obj):
                    for mattr, method in list(vars(obj).items()):
                        if not mattr.startswith("_") \
                                and inspect.isfunction(method):
                            self._patch(obj, mattr, self._wrap(
                                f"{layer}.{attr}.{mattr}", mod.__name__,
                                method))
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, home: str, fn):
        annotate = self.annotators.get(name)
        spans, stack = self.spans, self._stack
        clock, caller = time.perf_counter, sys._getframe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if caller(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if annotate is not None:
                span[INFO] = annotate(fn, args, kwargs, result)
            return result

        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def argument(fn, args, kwargs, name: str):
    """The value ``fn`` received for parameter ``name``, defaults included."""
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


@functools.lru_cache(maxsize=None)
def _signature(fn):
    return inspect.signature(fn)
