"""Outside-in span recorder for the traced benchmark run.

`Recorder.install` replaces every public function and method of the six
gegwalk layers with a timing wrapper, at every module binding that holds
it (``cli.local_time_counts``, ``verify.local_time_counts``,
``walk_sim.kernel_row``, ...), so a call made through any import path is
seen.  Nothing under ``src/`` changes.  Spans stay in memory until
`write` dumps them at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("cli", "verify", "specfun", "hypergroup", "gegenbauer", "walk_sim")

# Calls whose arguments and results the layer metrics read after the run.
KEEP = {
    "hypergroup.n_step",
    "hypergroup.n_step_sequence",
    "walk_sim.local_time_counts",
    "walk_sim.LocalTimeSamples.to_csv",
    "walk_sim.LocalTimeSamples.summary_json",
}


class Recorder:
    """Thread-safe store of finished spans.

    A span opened on a thread with no open span of its own (a replica
    block running on a pool thread) is attributed to the innermost open
    span of the thread that installed the recorder, which is blocked in
    the call that started the pool.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.kept: list[tuple[str, tuple, dict, object]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._roots: dict[int, int] = {}
        self._main = threading.get_ident()
        self._suspended = False

    def _open(self) -> tuple[int, int | None, int]:
        me = threading.get_ident()
        with self._lock:
            sid = next(self._ids)
            stack = self._stacks.setdefault(me, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and me != self._main else None
            root = self._roots[parent] if parent is not None else sid
            self._roots[sid] = root
            stack.append(sid)
        return sid, parent, root

    def _close(self, span: dict) -> None:
        with self._lock:
            self._stacks[threading.get_ident()].pop()
            self.spans.append(span)

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if self._suspended:
                return func(*args, **kwargs)
            sid, parent, root = self._open()
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._close({
                    "id": sid, "parent": parent, "root": root, "name": name,
                    "t0": t0, "t1": t1, "thread": threading.get_ident(),
                })
            if name in KEEP:
                with self._lock:
                    self.kept.append((name, args, kwargs, result))
            return result

        return wrapper

    @contextmanager
    def suspended(self):
        """Calls made inside run unrecorded (the benchmark's own checks)."""
        self._suspended = True
        try:
            yield
        finally:
            self._suspended = False

    def install(self) -> None:
        """Wrap the layers' public callables and rebind every reference."""
        import gegwalk  # noqa: F401  (imports every layer module)

        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"gegwalk.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        # rebind every module-level reference to a wrapped function
        for mname, mod in list(sys.modules.items()):
            if mname != "gegwalk" and not mname.startswith("gegwalk."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.wrap(name, raw.__func__)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# -- span arithmetic --------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["t0"], s["t1"]))
    out = {}
    for s in spans:
        kids = [
            (max(a, s["t0"]), min(b, s["t1"]))
            for a, b in children.get(s["id"], [])
            if b > s["t0"] and a < s["t1"]
        ]
        out[s["id"]] = (s["t1"] - s["t0"]) - _union_length(kids)
    return out


def busy_seconds(spans: list[dict], names: set[str]) -> float:
    """Summed duration of spans named in `names`, outermost ones only.

    A span nested (through any chain of parents) inside another span of
    the set is already covered by it and is skipped; concurrent spans on
    different threads each count in full.
    """
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        if s["name"] not in names:
            continue
        p = s["parent"]
        while p is not None and by_id[p]["name"] not in names:
            p = by_id[p]["parent"]
        if p is None:
            total += s["t1"] - s["t0"]
    return total


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
