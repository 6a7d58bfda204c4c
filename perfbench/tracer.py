"""In-memory span tracer for nsflab's public functions.

The tracer is installed from outside the package: it replaces every module
attribute of ``nsflab`` that is bound to a public function of one of the
layer modules by a wrapper that records a span (name, parent span, start,
end, work).  Spans live in per-thread arrays, so threads of a sweep never
share a stack, and are reduced to per-name totals only when the process
writes its trace at exit.  A span's self time is its duration minus the
durations of its direct children, which on one thread never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import types
from array import array
from time import perf_counter

LAYERS = ("thermo", "grid_fields", "nsf_solver", "euler_reference",
          "relative_energy", "diagnostics", "sweep")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(args, kwargs, out):
    return float(os.path.getsize(_arg(args, kwargs, 0, "path")))


# work units recorded per span, by qualified name: cells or bytes
_WORK = {
    "thermo.temperature_from_energy":
        lambda args, kwargs, out: float(getattr(out, "size", 1)),
    "nsf_solver.step":
        lambda args, kwargs, out: float(out.rho.size),
    "grid_fields.write_snapshot": _file_bytes,
    "grid_fields.read_snapshot": _file_bytes,
}


class _ThreadSpans:
    def __init__(self):
        self.name = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.work = array("d")
        self.stack = []


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers = []
        self._ids = {}
        self.names = []

    def _id(self, name: str) -> int:
        with self._lock:
            if name not in self._ids:
                self._ids[name] = len(self.names)
                self.names.append(name)
            return self._ids[name]

    def _buffer(self) -> _ThreadSpans:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _ThreadSpans()
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def reset(self) -> None:
        """Drop every span recorded so far (set-up work is not traced)."""
        with self._lock:
            for buf in self._buffers:
                for arr in (buf.name, buf.parent, buf.t0, buf.t1, buf.work):
                    del arr[:]

    def wrap(self, qualname: str, fn):
        base = self._id(qualname)
        work = _WORK.get(qualname)
        if qualname == "thermo.temperature_from_energy":
            # the a = 0 and a > 0 inversions take different paths
            a0, arad = self._id(qualname + ".a0"), self._id(qualname + ".arad")

            def name_of(args, kwargs):
                return a0 if float(_arg(args, kwargs, 1, "a")) == 0.0 else arad
        else:
            def name_of(args, kwargs):
                return base

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            i = len(buf.t0)
            buf.name.append(name_of(args, kwargs))
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.work.append(0.0)
            buf.t1.append(0.0)
            buf.stack.append(i)
            buf.t0.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                buf.t1[i] = perf_counter()
                buf.stack.pop()
            if work is not None:
                buf.work[i] = work(args, kwargs, out)
            return out

        return traced

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds, work; run_euler cache hits."""
        stats = {}
        run_euler = self._ids.get("euler_reference.run_euler")
        rhs_euler = self._ids.get("euler_reference.rhs_euler")
        euler_runs = euler_computed = 0
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            n = len(buf.t0)
            child = [0.0] * n
            names, parents, t0, t1 = buf.name, buf.parent, buf.t0, buf.t1
            for i in range(n):
                p = parents[i]
                if p >= 0:
                    child[p] += t1[i] - t0[i]
            computed = set()
            for i in range(n):
                nid = names[i]
                dur = t1[i] - t0[i]
                s = stats.setdefault(self.names[nid], [0, 0.0, 0.0, 0.0])
                s[0] += 1
                s[1] += dur
                s[2] += dur - child[i]
                s[3] += buf.work[i]
                if nid == run_euler:
                    euler_runs += 1
                elif nid == rhs_euler:
                    p = parents[i]
                    while p >= 0 and names[p] != run_euler:
                        p = parents[p]
                    if p >= 0:
                        computed.add(p)
            euler_computed += len(computed)
        return {
            "spans": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2],
                          "work": v[3]} for k, v in stats.items()},
            "run_euler_calls": euler_runs,
            "run_euler_hits": euler_runs - euler_computed,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.summary(), fh)


def install(tracer: Tracer, package: str = "nsflab") -> None:
    """Wrap public layer functions everywhere the package binds them.

    A function imported by name into another module (for example
    ``recover_temperature`` in ``euler_reference``) is the same object, so
    every binding is replaced, not only the defining one.
    """
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for attr, val in vars(mod).items():
            if (not attr.startswith("_") and isinstance(val, types.FunctionType)
                    and val.__module__ == mod.__name__):
                wrappers[id(val)] = (val, tracer.wrap(f"{layer}.{attr}", val))
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
