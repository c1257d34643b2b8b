"""Span tracing of bfgeo's public functions, from outside the package.

``Tracer.install`` replaces every module binding of each public function of
the layer modules (and the public methods of ``Field``, ``FieldHom`` and
``MatrixSpace`` on their classes) with a wrapper that records one span per
call: name, start, end, parent span and whether the call raised.  Spans
stay in memory in flat integer arrays until the run ends; ``uninstall``
puts the original bindings back.

Self time is a span's duration minus the part of it covered by its child
spans; busy time is the summed duration of the outermost spans of a name,
so recursion (``det``) is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# the bfgeo modules that count as layers, in dependency order
LAYERS = ("fields", "_bulk", "matrices", "cliques", "grassmann", "homs",
          "recovery", "verify")
# classes whose public methods are wrapped on the class itself
CLASSES = {"fields": ("Field", "FieldHom"), "matrices": ("MatrixSpace",)}


def _targets(pkg: str):
    """(owner, attribute, function, span name) for every function to wrap.

    Module-level functions are found in the module that defines them; the
    rebinding step later finds every other module that imported them.
    """
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"{pkg}.{layer}")
        label = layer.lstrip("_")  # metric names start with a letter: bulk.*
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                out.append((None, attr, obj, f"{label}.{attr}"))
        for cls_name in CLASSES.get(layer, ()):
            cls = getattr(mod, cls_name, None)
            if cls is None:
                continue
            # Field methods are the field layer's kernels: fields.vadd
            prefix = label if cls_name == "Field" else f"{label}.{cls_name}"
            for attr, obj in vars(cls).items():
                if not attr.startswith("_") and inspect.isfunction(obj):
                    out.append((cls, attr, obj, f"{prefix}.{attr}"))
    return out


class Tracer:
    """In-memory span recorder plus the bookkeeping to patch and unpatch."""

    def __init__(self, counters=None):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("b")
        self._stack = [-1]
        # span name -> hook(args, kwargs, result) -> {count name: amount}
        self._counters = counters or {}
        self.work: dict[str, int] = {}
        self._restore = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = self._counters.get(name)
        names, parents, starts, ends, failed = (self.name, self.parent, self.start,
                                                self.end, self.failed)
        stack = self._stack
        clock = time.perf_counter_ns
        work = self.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            failed.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed[idx] = 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                for key, amount in hook(args, kwargs, result).items():
                    key = f"{name}.{key}"
                    work[key] = work.get(key, 0) + amount
            return result

        return traced

    # -- patching ---------------------------------------------------------------

    def install(self, pkg: str = "bfgeo"):
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, fn, name in _targets(pkg):
            w = self.wrap(fn, name)
            if owner is None:
                wrappers[id(fn)] = (fn, w)
            else:
                self._restore.append((owner, attr, fn))
                setattr(owner, attr, w)
        prefix = pkg + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == pkg or mod_name.startswith(prefix)):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._restore.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore = []

    # -- export -------------------------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: (name id, parent, start ns, end ns, failed)."""
        return (np.frombuffer(self.name, dtype=np.int64),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64),
                np.frombuffer(self.failed, dtype=np.int8))

    def save(self, path):
        name, parent, start, end, failed = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end, failed=failed)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(parent, start, end):
    """Duration minus the union of the child intervals, per span (ns).

    Children of one parent are merged in start order with a running maximum
    of their ends, so overlapping children are covered once.  The running
    maximum is taken over all groups at once by lifting each parent's group
    above the previous one by more than the whole time range.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    dur = end - start
    covered = np.zeros(len(dur), dtype=np.int64)
    kids = np.nonzero(parent >= 0)[0]
    if kids.size:
        t0 = int(start.min())
        p = parent[kids]
        s = start[kids] - t0
        e = end[kids] - t0
        order = np.lexsort((s, p))
        p, s, e = p[order], s[order], e[order]
        first = np.r_[True, p[1:] != p[:-1]]
        gid = np.cumsum(first) - 1
        lift = int(e.max()) + 1
        if int(gid[-1]) * lift >= 1 << 62:
            raise OverflowError("span range too large for the grouped merge")
        runmax = np.maximum.accumulate(e + gid * lift)
        prev_end = np.r_[0, runmax[:-1]] - gid * lift
        eff_start = np.where(first, s, np.maximum(s, prev_end))
        np.add.at(covered, p, np.maximum(0, e - eff_start))
    return dur - covered


def nested_in_same(name, parent):
    """True where some ancestor span has the same name (recursive calls)."""
    name = np.asarray(name)
    parent = np.asarray(parent, dtype=np.int64)
    nested = np.zeros(len(name), dtype=bool)
    anc = parent.copy()
    live = np.nonzero(anc >= 0)[0]
    while live.size:
        a = anc[live]
        nested[live] |= name[a] == name[live]
        anc[live] = parent[a]
        live = live[anc[live] >= 0]
    return nested


def summarize(names, name, parent, start, end, failed):
    """Per span name: calls, self_s, busy_s, failed; plus root total (s).

    ``names`` maps name ids to span names; the arrays are one entry per span,
    as ``Tracer.arrays`` returns them.
    """
    if len(name) == 0:
        return {}, 0.0
    selfs = self_times(parent, start, end)
    dur = end - start
    outer = ~nested_in_same(name, parent)
    k = len(names)
    calls = np.bincount(name, minlength=k)
    self_ns = np.bincount(name, weights=selfs, minlength=k)
    busy_ns = np.bincount(name[outer], weights=dur[outer], minlength=k)
    fails = np.bincount(name, weights=failed, minlength=k)
    stats = {}
    for i, nm in enumerate(names):
        stats[nm] = {"calls": int(calls[i]), "self_s": self_ns[i] / 1e9,
                     "busy_s": busy_ns[i] / 1e9, "failed": int(fails[i])}
    roots_s = float(dur[parent < 0].sum()) / 1e9
    return stats, roots_s
