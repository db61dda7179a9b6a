"""Span recording around rhomin's public functions, from outside the package.

`Tracer.install()` wraps every public function of the layer modules in the
module that defines it and rebinds the wrapper wherever another rhomin module
imported the function by name (`from .x import y`), so calls made between
layers are seen. `CertifiedRoot.refine` is wrapped on its class. Spans are
kept in flat in-memory arrays and written out once, after the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

LAYER_MODULES = ("graphs", "families", "exactpoly", "transfer", "search")
SPEC_KINDS = {"OpenQuipu": "open", "ClosedQuipu": "closed", "Dagger": "dagger"}


class Tracer:
    """Spans as parallel arrays: name id, start, end, parent index, op id."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.specs: dict[str, int] = {}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def intern(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, name_id: int | None = None) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        if name_id is not None:
            self.name[idx] = name_id

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, label: str, fn):
        nid = self.intern(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def _wrap_enumeration(self, label: str, fn):
        """Each step of the generator is one span, named after the kind of
        spec it yields. The final, exhausted step finishes the enumeration of
        the last kind yielded, so it is charged to that kind."""
        ids = {kind: self.intern(f"{label}.{kind}") for kind in SPEC_KINDS.values()}

        def steps(gen):
            kind = "open"
            while True:
                idx = self.open(ids[kind])
                try:
                    spec = next(gen)
                except StopIteration:
                    self.close(idx)
                    return
                except BaseException:
                    self.close(idx)
                    raise
                kind = SPEC_KINDS[type(spec).__name__]
                self.close(idx, ids[kind])
                key = f"{label}.{kind}.specs"
                self.specs[key] = self.specs.get(key, 0) + 1
                yield spec

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return traced

    def _rebind(self, package: str, original, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self, package: str = "rhomin") -> None:
        for short in LAYER_MODULES:
            module = sys.modules[f"{package}.{short}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                label = f"{short}.{attr}"
                if inspect.isgeneratorfunction(fn):
                    wrapper = self._wrap_enumeration(label, fn)
                else:
                    wrapper = self._wrap(label, fn)
                self._rebind(package, fn, wrapper)
        root_cls = sys.modules[f"{package}.exactpoly"].CertifiedRoot
        self._restore.append((root_cls, "refine", root_cls.refine))
        root_cls.refine = self._wrap("exactpoly.refine", root_cls.refine)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.arrays())

    def summary(self) -> dict[str, float]:
        """Per label: `<label>.self_s` (duration minus the time covered by
        child spans) and `<label>.calls`, plus `<child>.under.<parent>`
        counts of direct calls from one label into another."""
        a = self.arrays()
        k = len(self.names)
        out: dict[str, float] = {}
        if len(a["name"]) == 0:
            return out
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested], minlength=len(dur))
        self_s = np.bincount(a["name"], weights=dur - covered, minlength=k)
        calls = np.bincount(a["name"], minlength=k)
        for i, label in enumerate(self.names):
            out[f"{label}.self_s"] = float(self_s[i])
            out[f"{label}.calls"] = int(calls[i])
        pairs = a["name"][nested] * k + a["name"][a["parent"][nested]]
        for pair, count in zip(*np.unique(pairs, return_counts=True)):
            child, parent = divmod(int(pair), k)
            out[f"{self.names[child]}.under.{self.names[parent]}"] = int(count)
        out.update(self.specs)
        return out
