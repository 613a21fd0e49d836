"""In-memory span tracer installed from outside the traced package.

``Tracer.install`` wraps every public function and public method of the given
modules.  A module-level function is replaced everywhere a module of the
package binds it, because modules import each other's functions by name.  Each
call records one span ``[name, start, end, parent, iteration]``; spans stay in
memory until ``write_csv``.  ``uninstall`` restores every original binding, so
untraced iterations run the unmodified code.
"""

from __future__ import annotations

import csv
import enum
import functools
import inspect
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import ModuleType
from typing import Callable

# A counter hook receives the call's bound arguments and its result and
# returns counts to add to the current iteration, keyed by metric suffix.
CounterHook = Callable[[dict, object], dict]


def _public_callables(mod: ModuleType):
    """(span name, owner, attribute, raw object, function) for each public callable."""
    short = mod.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{short}.{name}", mod, name, obj, obj
        elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if inspect.isfunction(fn):
                    yield f"{short}.{obj.__qualname__}.{attr}", obj, attr, raw, fn


class Tracer:
    def __init__(self, counters: dict[str, CounterHook] | None = None):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.iteration = -1
        self._counters = counters or {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = self._counters.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.iteration]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, value in hook(bound.arguments, result).items():
                    counts[(self.iteration, f"{name}.{key}")] += value
            return result

        return traced

    def install(self, modules: list[ModuleType], package: str) -> None:
        """Wrap the public callables of ``modules`` in every module of ``package``."""
        bindings = [m for n, m in sys.modules.items()
                    if m is not None and (n == package or n.startswith(package + "."))]
        for mod in modules:
            for name, owner, attr, raw, fn in list(_public_callables(mod)):
                wrapped = self._wrap(name, fn)
                if isinstance(owner, ModuleType):
                    for binder in bindings:
                        for key, value in list(vars(binder).items()):
                            if value is fn:
                                self._patches.append((binder, key, value))
                                setattr(binder, key, wrapped)
                else:
                    self._patches.append((owner, attr, raw))
                    setattr(owner, attr, type(raw)(wrapped) if raw is not fn else wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_csv(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("id", "name", "start_s", "end_s", "parent", "iteration"))
            for i, (name, start, end, parent, iteration) in enumerate(self.spans):
                writer.writerow((i, name, repr(start), repr(end), parent, iteration))


def span_tables(spans: list[list]) -> dict[int, tuple[dict[str, dict], float]]:
    """Per iteration: calls, inclusive and self seconds per span name, and the
    summed duration of the iteration's top-level spans.

    Inclusive time counts only the outermost span of a name, so a recursive
    call is not counted twice.  Self time is a span's duration minus the time
    its direct children cover; spans of one thread never overlap, so that is
    the sum of the children's durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    tables: dict[int, dict] = defaultdict(
        lambda: defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}))
    top_level: dict[int, float] = defaultdict(float)
    for i, (name, start, end, parent, iteration) in enumerate(spans):
        row = tables[iteration][name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        if parent < 0:
            top_level[iteration] += end - start
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            row["s"] += end - start
    return {it: (dict(table), top_level[it]) for it, table in tables.items()}
