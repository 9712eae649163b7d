"""In-memory span recorder that wraps module-level functions.

A span is (name id, start ns, end ns, parent span index).  Spans are
appended to a list while the traced code runs and analysed or written out
only afterwards.  Self time of a span is its duration minus the durations
of its direct children; calls are strictly nested on one thread, so the
children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Wraps functions so every call records a span.

    `observers` maps a qualified name ("module.function") to a callable
    `observer(tracer, arguments, result, exc)` that updates
    `tracer.counters`; `arguments` holds the call's bound arguments with
    defaults applied.  Observers run after the span is closed.
    """

    def __init__(self, observers=None):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._observers = observers or {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, qualname: str, fn):
        """Return a wrapper of fn that records a span named qualname."""
        name_id = len(self.names)
        self.names.append(qualname)
        observer = self._observers.get(qualname)
        signature = inspect.signature(fn) if observer else None
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name_id, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if observer is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    observer(self, bound.arguments, result, exc)

        return wrapper

    def install(self, modules, skip=()):
        """Wrap every public function defined in `modules` and rebind it at
        every attribute of every loaded module of the same package that
        holds it, so calls across modules are seen as well."""
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(module).items():
                qualname = f"{short}.{attr}"
                if (attr.startswith("_") or qualname in skip
                        or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                wrappers[id(value)] = (value, self.wrap(qualname, value))
        package = modules[0].__name__.split(".", 1)[0]
        for name, module in list(sys.modules.items()):
            if module is None or name.split(".", 1)[0] != package:
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path):
        """Write names and spans as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))


def self_times(spans) -> list[int]:
    """Self time (ns) of each span: duration minus its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(names, spans) -> dict[str, tuple[int, float]]:
    """Per qualified name: (call count, summed self time in seconds)."""
    calls = defaultdict(int)
    total = defaultdict(int)
    for (name_id, *_), own in zip(spans, self_times(spans)):
        calls[names[name_id]] += 1
        total[names[name_id]] += own
    return {name: (calls[name], total[name] / 1e9) for name in calls}


def top_level_ns(spans) -> int:
    """Time covered by spans without a parent."""
    return sum(end - start for _, start, end, parent in spans if parent < 0)
