"""Host-time spans around calls into lightmesh's public functions.

The tracer patches functions from outside the package: for each traced
function it finds every module-level binding of that function object in
every loaded ``lightmesh`` module (the defining module, modules that
from-import it, and the package's re-exports) and replaces each binding
with one timing wrapper.  Calls made through any of those names are then
recorded, including calls between modules.  A traced name the package no
longer defines is recorded as absent and reports zero calls.

Spans are kept in memory as parallel arrays (function, start, end, parent
span, operation id) and written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from array import array
from time import perf_counter

import numpy as np

# (module, function) pairs timed in the traced run, named as the metrics are.
TRACED = (
    ("sim", "run_sweep"),
    ("sim", "run_simulation"),
    ("workload", "load_workload"),
    ("workload", "lower_to_gemms"),
    ("workload", "plan_tiles"),
    ("timing", "workload_timelines"),
    ("timing", "gemm_timeline"),
    ("timing", "build_memory_trace"),
    ("nonlinear", "layer_nongemm_cycles"),
    ("buffering", "max_batch"),
    ("buffering", "double_buffering_batch"),
    ("buffering", "solve_schedule"),
    ("energy", "rollup"),
    ("report", "build_report"),
    ("report", "emit_report"),
    ("mesh", "measure_matrix_error"),
    ("mesh", "program_tile"),
)

# Functions whose results are counted: GEMMs timed, GEMMs lowered, trials run.
ITEM_COUNTERS = {
    "timing.workload_timelines": len,
    "workload.lower_to_gemms": len,
    "mesh.measure_matrix_error": lambda result: len(result[1]),
}

PACKAGE = "lightmesh"
OP = "op"  # the benchmark's own span around one whole operation


class Tracer:
    """Records nested spans of the traced functions while installed."""

    def __init__(self):
        self.names = [OP] + [f"{mod}.{fn}" for mod, fn in TRACED]
        self.absent: list[str] = []
        self.errors = dict.fromkeys(self.names, 0)
        self.items = dict.fromkeys(self.names, 0)
        self.fid = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _modules(self) -> list:
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        self.absent = []
        for mod, fn in TRACED:
            name = f"{mod}.{fn}"
            home = sys.modules.get(f"{PACKAGE}.{mod}")
            original = getattr(home, fn, None) if home is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(self.names.index(name), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, fid: int, fn):
        name = self.names[fid]
        count_items = ITEM_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            sid = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                self._close(sid)
            if count_items is not None:
                self.items[name] += count_items(result)
            return result

        return traced

    # -- spans ------------------------------------------------------------

    def _open(self, fid: int) -> int:
        sid = len(self.fid)
        self.fid.append(fid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    def run_op(self, op_id: int, call):
        """Run one operation as a root span; returns (result, seconds)."""
        self.op_id = op_id
        sid = self._open(0)
        try:
            result = call()
        finally:
            self._close(sid)
            self.op_id = -1
        return result, self.end[sid] - self.start[sid]

    # -- summary ----------------------------------------------------------

    def summary(self, op_scale) -> dict[str, dict[str, float]]:
        """Per function: calls, total_s, self_s (total minus the time of
        direct child spans), errors and counted items.  Each span's duration
        is multiplied by op_scale[its operation id]."""
        fid = np.frombuffer(self.fid, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        dur = ((np.frombuffer(self.end) - np.frombuffer(self.start))
               * np.asarray(op_scale)[op])
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        child_s = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=fid.size)
        n = len(self.names)
        calls = np.bincount(fid, minlength=n)
        total = np.bincount(fid, weights=dur, minlength=n)
        self_s = np.bincount(fid, weights=dur - child_s, minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i]), "errors": self.errors[name],
                       "items": self.items[name]}
                for i, name in enumerate(self.names)}

    def calls_inside(self, name: str, ancestors: set[str]) -> int:
        """Spans of `name` that run inside a span of any of `ancestors`."""
        fid = np.frombuffer(self.fid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        anc_ids = [self.names.index(a) for a in ancestors]
        is_anc = np.isin(fid, anc_ids)
        inside = np.zeros(fid.size, dtype=bool)
        has_parent = parent >= 0
        while True:  # spread "has a matching ancestor" one level per pass
            nxt = inside.copy()
            p = parent[has_parent]
            nxt[has_parent] = is_anc[p] | inside[p]
            if np.array_equal(nxt, inside):
                break
            inside = nxt
        return int(np.count_nonzero(inside & (fid == self.names.index(name))))

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names),
                 function=np.frombuffer(self.fid, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32))
