"""Outside-in tracer for the benchmark's traced run.

The package binds names with ``from .x import f``, so a function lives in
several module namespaces at once (``majorana.parity_of`` is also
``hierarchy.parity_of`` and ``circuits.parity_of``). ``Tracer.install``
wraps every public function of every ``matchgates`` module once and writes
the same wrapper into each namespace that holds the function, so a call
through any binding is recorded. Nothing in ``src/`` is edited.

A span is (name, start, end, parent, task id). Spans stay in memory while
the workload runs; ``Tracer.write`` dumps them when the run ends, and
``Tracer.analyse`` returns a ``SpanTable`` from which the run derives call
counts, self times, hit ratios and the level-search node count.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

MODULES = ("linalg", "majorana", "hierarchy", "circuits", "teleport", "svn", "io", "cli", "sampling", "selftest")


def _dim_of(obj) -> int:
    """Leading dimension of an operator or state, or of the first entry of an operator tuple.

    Spans record it for a call's first argument and its result.
    """
    if isinstance(obj, np.ndarray):
        return obj.shape[0] if obj.ndim else 0
    if isinstance(obj, (list, tuple)) and obj and isinstance(obj[0], np.ndarray) and obj[0].ndim:
        return obj[0].shape[0]
    return 0


class Tracer:
    """Records spans around every public ``matchgates`` function while enabled."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.task = array("i")
        self.hit = array("b")
        self.dim = array("i")
        self.task_id = -1
        self.enabled = False
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.task.append(self.task_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.hit.append(0)
        self.dim.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[i] = t0
        self.end[i] = t1

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        i = self._open(self._intern(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(i, t0, time.perf_counter())

    def _wrap(self, name: str, fn):
        name_id = self._intern(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            i = tracer._open(name_id)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(i, t0, clock())
            tracer.hit[i] = out is not None
            tracer.dim[i] = max(_dim_of(args[0]) if args else 0, _dim_of(out))
            return out

        return traced

    def install(self) -> None:
        """Wrap each public function once and rebind it in every module that holds it."""
        if self._patched:
            return
        package = importlib.import_module("matchgates")
        modules = [package] + [importlib.import_module(f"matchgates.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if not isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper)):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("matchgates."):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{home.split('.', 1)[1]}.{obj.__name__}", obj)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        """Restore every original binding."""
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.start)

    def analyse(self) -> "SpanTable":
        """Self time of every span and the ancestry flags the metrics need."""
        return SpanTable(self)

    def write(self, path) -> None:
        """Dump every span as tab-separated text (gzip): index, name, start, end, parent, task."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\ttask\n")
            for i in range(len(self)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                    f"\t{self.parent[i]}\t{self.task[i]}\n"
                )


class SpanTable:
    """Columns of a tracer's spans with self times and ancestry flags.

    A span's self time is its duration minus the durations of its direct
    children. Parents precede their children, so one forward sweep
    propagates "has an ancestor named X".
    """

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.task = np.frombuffer(tracer.task, dtype=np.int32).copy()
        self.hit = np.frombuffer(tracer.hit, dtype=np.int8).astype(bool)
        self.dim = np.frombuffer(tracer.dim, dtype=np.int32).copy()
        dur = np.frombuffer(tracer.end, dtype=np.float64) - np.frombuffer(tracer.start, dtype=np.float64)
        child = np.zeros(len(dur))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], dur[has_parent])
        self.self_s = dur - child
        self._ids = {name: i for i, name in enumerate(self.names)}

    def is_(self, name: str) -> np.ndarray:
        return self.name_id == self._ids.get(name, -1)

    def under(self, name: str) -> np.ndarray:
        own = self.is_(name).tolist()
        par = self.parent.tolist()
        out = [False] * len(own)
        for i, p in enumerate(par):
            out[i] = own[i] or (p >= 0 and out[p])
        return np.array(out, dtype=bool)

    def per_name(self, mask: np.ndarray) -> dict[str, dict]:
        """calls, self_s and hits (non-None results) per span name within mask."""
        out = {}
        for nid, name in enumerate(self.names):
            sel = mask & (self.name_id == nid)
            if sel.any():
                out[name] = {
                    "calls": int(sel.sum()),
                    "self_s": float(self.self_s[sel].sum()),
                    "hits": int(self.hit[sel].sum()),
                }
        return out
