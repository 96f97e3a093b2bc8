"""In-memory spans around calls into binarx's layers, recorded from outside.

A span is recorded by wrapping a public function as seen from its caller:
either the benchmark's own call (`Tracer.wrap`) or a name looked up in a
binarx module's globals (`Tracer.patch`, e.g. `binarx.experiments.fit_mple`).
Nothing inside the program is edited.  Spans live in flat arrays until the
run ends; a layer's self time is its spans' durations minus their children's.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # (layer, function) per name id
        self._name_ids: dict[tuple[str, str], int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")  # work done by the span: transitions, rows, reps...
        self.error: dict[int, str] = {}  # span index -> exception class name
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, count=None):
        """`fn` wrapped in a span; `count(args, kwargs, result)` gives its work count."""
        key = (layer, fn.__name__)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(key)
        name_id = self._name_ids[key]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.count.append(0)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = perf_counter_ns()
                self.error[idx] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
            self.end[idx] = perf_counter_ns()
            if count is not None:
                self.count[idx] = int(count(args, kwargs, result))
            return result

        return traced

    def patch(self, module, attr: str, layer: str, count=None, adapt=None):
        """Replace `module.attr` by a traced wrapper until `restore()`.

        `adapt(original)`, when given, builds the function that is traced in
        place of the original.  A module that no longer has `attr` (a refactor
        stopped importing it) is left alone: its layer then records no span
        and is reported missing rather than failing the run.
        """
        if not hasattr(module, attr):
            return
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        fn = adapt(original) if adapt else original
        setattr(module, attr, self.wrap(layer, fn, count))

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def arrays(self) -> dict:
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": parent,
            "dur_ns": dur,
            "self_ns": dur - child,
            "count": np.frombuffer(self.count, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per (layer, function): calls, total and self seconds, summed counts, errors."""
        a = self.arrays()
        out = {}
        for name_id, (layer, fn) in enumerate(self.names):
            sel = a["name"] == name_id
            errors: dict[str, int] = {}
            for idx in np.nonzero(sel)[0]:
                if int(idx) in self.error:
                    cls = self.error[int(idx)]
                    errors[cls] = errors.get(cls, 0) + 1
            out[f"{layer}.{fn}"] = {
                "calls": int(sel.sum()),
                "total_s": float(a["dur_ns"][sel].sum()) / 1e9,
                "self_s": float(a["self_ns"][sel].sum()) / 1e9,
                "count": int(a["count"][sel].sum()),
                "errors": errors,
            }
        return out

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(
            path, names=np.array([f"{l}.{f}" for l, f in self.names]), **a
        )
