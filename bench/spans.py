"""In-memory span recording around g2kit's public functions.

A :class:`Tracer` replaces each public function of the traced g2kit modules,
and each public method of their public classes (``dga``'s whole interface is
methods), with a wrapper that records one span per call: name, start, end,
parent span and request id.  The wrapper is bound at
every site that holds the original function, including names re-imported
into other g2kit modules and into ``cli``, so calls through ``from .x import
f`` bindings are seen too.  Spans live in flat arrays (28 bytes each) and are
written once, by :meth:`Tracer.write`, when the run ends.

Tracing is single-threaded: the open-span stack is one list, so the traced
pass must not run the program's worker threads.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
from time import perf_counter

MODULES = (
    "scalars", "linalg", "forms", "polyforms", "g2", "sampling", "sphere",
    "compat", "threeforms", "almost_symplectic", "chern", "dga", "jsonio", "cli",
)
ROOT = "request"
_FIELDS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"), ("request", "i"))


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self.name_ids = {ROOT: 0}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.request = array.array("i")
        self._stack = [-1]
        self._request_id = -1
        self._restore = []

    def __len__(self):
        return len(self.name)

    def open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.request.append(self._request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span_request(self, request_id, fn, *args):
        """Run ``fn(*args)`` as request ``request_id`` under a root span."""
        self._request_id = request_id
        idx = self.open(0)
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self._request_id = -1

    def wrap(self, name, fn):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    # -- installation ---------------------------------------------------------
    def install(self):
        """Wrap every public g2kit function at every module that binds it."""
        import g2kit

        mods = {m: importlib.import_module(f"g2kit.{m}") for m in MODULES}
        wrapped = {}
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{mname}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._rebind(obj, meth, fn, self.wrap(f"{mname}.{attr}.{meth}", fn))
        for mod in (g2kit, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(mod, attr, obj, wrapped[obj])

    def _rebind(self, owner, attr, orig, new):
        setattr(owner, attr, new)
        self._restore.append((owner, attr, orig))

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ---------------------------------------------------------------
    def write(self, path):
        """One JSON header line, then the raw field arrays in header order."""
        header = {"names": self.names, "count": len(self), "fields": [f for f, _ in _FIELDS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in _FIELDS:
                getattr(self, field).tofile(fh)


def load_spans(path):
    """Read a file written by :meth:`Tracer.write` into (names, {field: array})."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        out = {}
        for field, code in _FIELDS:
            arr = array.array(code)
            arr.fromfile(fh, header["count"])
            out[field] = arr
    return header["names"], out


def self_times(start, end, parent):
    """Per-span self time: duration minus the union of its children's intervals.

    Spans must come in start order, as a :class:`Tracer` records them.
    Children are clipped to the parent's interval, and overlapping children
    (as from worker threads) count once: visiting them in start order lets
    one running end per parent track their union.
    """
    n = len(start)
    covered = array.array("d", bytes(8 * n))
    union_end = array.array("d", [float("-inf")]) * n
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        a, b = max(start[i], start[p], union_end[p]), min(end[i], end[p])
        if b > a:
            covered[p] += b - a
            union_end[p] = b
    return array.array("d", (end[i] - start[i] - covered[i] for i in range(n)))
