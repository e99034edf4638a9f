"""In-memory span tracer that wraps the package's public functions from outside.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each
traced function (or method) by a wrapper, in its defining module and in
every ``lzscatter`` module that imported the name, and
:meth:`Tracer.uninstall` puts the originals back.

A span is one call: name, start, end, parent span and an optional size
(for instance the time span a propagation covered).  Spans live in flat
arrays (about 30 bytes each) and are written out once, at the end.
``numpy.linalg.eigh`` is called tens of thousands of times per propagation,
so inside propagation spans it is counted (calls, matrices, seconds) instead
of being recorded as spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name, size taken from the call, size taken from the result)
TRACED = (
    ("lzscatter.models", "build_model", "models.build", None, None),
    ("lzscatter.models", "AffineModel.hamiltonian", "models.hamiltonian", None, None),
    ("lzscatter.models", "AffineModel.partner", "models.partner", None, None),
    ("lzscatter.numerics", "propagate_unitary", "numerics.propagate",
     lambda a, kw: abs(float(_arg(a, kw, 2, "t1")) - float(_arg(a, kw, 1, "t0"))), None),
    ("lzscatter.oracle", "numeric_smatrix", "oracle.solve",
     lambda a, kw: 2.0 * float(_arg(a, kw, 2, "t_final") or 0.0), None),
    ("lzscatter.laxflow", "evolve_lax", "laxflow.evolve_lax", None, None),
    ("lzscatter.laxflow", "smatrix_spin", "laxflow.smatrix_spin", None, None),
    ("lzscatter.crossings", "derive_schedule_generic", "crossings.derive", None, len),
    ("lzscatter.crossings", "compose", "crossings.compose", None, None),
    ("lzscatter.crossings", "brentq", "crossings.brentq", None, None),
    ("lzscatter.zerocurv", "verify_pair", "zerocurv.verify", None, None),
)

CLI_TRACED = (
    ("lzscatter.cli", "cmd_model_show", "cli.command.model_show", None, None),
    ("lzscatter.cli", "cmd_smatrix", "cli.command.smatrix", None, None),
    ("lzscatter.cli", "cmd_sweep", "cli.command.sweep", None, None),
    ("lzscatter.cli", "cmd_zero_curvature", "cli.command.zero-curvature", None, None),
)

PROPAGATE = "numerics.propagate"


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Tracer:
    """Records spans of the wrapped calls; one instance per traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.counters = {"eigh_calls": 0, "eigh_matrices": 0, "eigh_s": 0.0}
        self._stack = []
        self._propagating = 0
        self._patches = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, size_in=None, size_out=None):
        nid = self.name_id(name)
        is_propagate = name == PROPAGATE
        stack, clock = self._stack, time.perf_counter
        names, parents, sizes = self.name, self.parent, self.size
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            sizes.append(size_in(args, kwargs) if size_in is not None else 0.0)
            ends.append(0.0)
            stack.append(idx)
            if is_propagate:
                self._propagating += 1
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if is_propagate:
                    self._propagating -= 1
            if size_out is not None:
                sizes[idx] = size_out(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _counted_eigh(self, eigh):
        counters, clock = self.counters, time.perf_counter

        def traced_eigh(a, *args, **kwargs):
            if not self._propagating:
                return eigh(a, *args, **kwargs)
            t0 = clock()
            out = eigh(a, *args, **kwargs)
            counters["eigh_s"] += clock() - t0
            counters["eigh_calls"] += 1
            shape = np.shape(a)
            counters["eigh_matrices"] += int(np.prod(shape[:-2])) if len(shape) > 2 else 1
            return out

        return traced_eigh

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, targets=TRACED):
        """Wrap every target, names imported into other package modules too.

        Each ``install`` is undone by one ``uninstall`` before the next.
        """
        for module_name, attr, name, size_in, size_out in targets:
            module = sys.modules[module_name]
            owner_path, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_path) if owner_path else module
            original = getattr(owner, leaf)
            traced = self.wrap(original, name, size_in, size_out)
            self._patch(owner, leaf, traced)
            if owner_path:
                continue
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "lzscatter" or mod_name.startswith("lzscatter.")) \
                        and mod is not module and getattr(mod, leaf, None) is original:
                    self._patch(mod, leaf, traced)
        self._patch(np.linalg, "eigh", self._counted_eigh(np.linalg.eigh))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def table(self):
        """Spans as numpy arrays: names list plus name/parent/start/end/size."""
        return {
            "names": list(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "size": np.frombuffer(self.size, dtype=np.float64).copy(),
            "counters": dict(self.counters),
        }


def save_table(table, path):
    """Write a span table as ``.npz`` (arrays) with the names and counters as JSON."""
    np.savez(
        path,
        name=table["name"], parent=table["parent"], start=table["start"],
        end=table["end"], size=table["size"],
        meta=np.frombuffer(json.dumps(
            {"names": table["names"], "counters": table["counters"]}).encode(), dtype=np.uint8),
    )


def load_table(path):
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        return {"names": meta["names"], "counters": meta["counters"],
                **{key: data[key] for key in ("name", "parent", "start", "end", "size")}}


def merge_tables(tables):
    """One table from several (e.g. one per CLI process); parents re-indexed."""
    names, ids = [], {}
    parts = {key: [] for key in ("name", "parent", "start", "end", "size")}
    counters = {}
    offset = 0
    for table in tables:
        remap = np.array([ids.setdefault(n, len(ids)) for n in table["names"]] or [0],
                         dtype=np.int32)
        names = list(ids)
        parts["name"].append(remap[table["name"]] if len(table["name"]) else table["name"])
        parts["parent"].append(np.where(table["parent"] >= 0, table["parent"] + offset, -1)
                               .astype(np.int32))
        for key in ("start", "end", "size"):
            parts[key].append(table[key])
        for key, value in table["counters"].items():
            counters[key] = counters.get(key, 0) + value
        offset += len(table["start"])
    merged = {key: (np.concatenate(v) if v else np.zeros(0)) for key, v in parts.items()}
    merged["names"] = names
    merged["counters"] = counters
    return merged


def self_times(start, end, parent):
    """Each span's duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's, and overlapping children
    are counted once.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    order = np.argsort(start, kind="stable").tolist()
    lo_of, hi_of, parent_of = start.tolist(), end.tolist(), np.asarray(parent).tolist()
    covered = [0.0] * len(lo_of)
    reach = {}
    for i in order:
        p = parent_of[i]
        if p < 0:
            continue
        lo = max(lo_of[i], lo_of[p], reach.get(p, lo_of[p]))
        hi = min(hi_of[i], hi_of[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return end - start - np.array(covered)


def ancestor_of(table, name):
    """Index of each span's nearest ancestor-or-self called ``name`` (-1 if none)."""
    n = len(table["parent"])
    if name not in table["names"]:
        return np.full(n, -1)
    target = table["names"].index(name)
    is_target = table["name"] == target
    anc = np.where(is_target, np.arange(n), -1)
    up = table["parent"].astype(np.int64)
    todo = (anc < 0) & (up >= 0)
    while todo.any():
        hit = todo.copy()
        hit[todo] = is_target[up[todo]]
        anc[hit] = up[hit]
        up[todo] = table["parent"][up[todo]]
        todo = (anc < 0) & (up >= 0)
    return anc
