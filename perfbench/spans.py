"""In-memory span recorder for the traced benchmark run.

`instrument` swaps each layer's public functions for timing wrappers in
every frametime module that binds them, so a caller that imported a
function by name (`governor` takes `rls_update` from `estimator`, `cli`
takes `parse_trace` from `trace`) reaches the wrapper too.  Spans live in
flat arrays until the run ends; a span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

ROOT_PARENT = -1


class Tracer:
    """Spans as parallel arrays: name id, start, end, parent index, pass id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        self.counts: dict[tuple[int, str], float] = {}
        self.current_pass = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        span_id = self._ids.get(name)
        if span_id is None:
            span_id = self._ids[name] = len(self.names)
            self.names.append(name)
        return span_id

    def open(self, span_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(span_id)
        self.parent.append(self._stack[-1] if self._stack else ROOT_PARENT)
        self.pass_id.append(self.current_pass)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())  # last, so bookkeeping falls outside
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, value: float = 1) -> None:
        """Add to a per-pass counter recorded at a layer boundary."""
        slot = (self.current_pass, key)
        self.counts[slot] = self.counts.get(slot, 0) + value

    def span_name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,pass\n")
            for i in range(len(self)):
                fh.write(f"{self.span_name(i)},{self.start[i]!r},{self.end[i]!r},"
                         f"{self.parent[i]},{self.pass_id[i]}\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(starts, ends)]
    for s, e, p in zip(starts, ends, parents):
        if p != ROOT_PARENT:
            own[p] -= e - s
    return own


def _wrap(tracer: Tracer, fn, name: str, label=None, observe=None):
    span_id = tracer.intern(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = span_id if label is None else tracer.intern(f"{name}[{label(args, kwargs)}]")
        idx = tracer.open(sid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if observe is not None:
            observe(tracer, args, result)
        return result
    return traced


def instrument(tracer: Tracer, package: str, layers, labels=None, observers=None):
    """Wrap every public function each layer module defines; return the undo.

    labels maps a span name to f(args, kwargs) -> suffix, splitting one
    function's spans by an argument; observers maps a span name to
    f(tracer, args, result), which records counts from the call.
    """
    labels = labels or {}
    observers = observers or {}
    wrappers = {}
    for layer in layers:
        module = sys.modules[f"{package}.{layer}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_")):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, _wrap(tracer, obj, name,
                                                labels.get(name), observers.get(name)))

    patched = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, obj in list(vars(module).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])
                patched.append((module, attr, obj))

    def restore():
        for module, attr, obj in patched:
            setattr(module, attr, obj)
    return restore
