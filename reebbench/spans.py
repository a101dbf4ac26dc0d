"""Layer spans for the benchmark's traced run, installed from benchmark code only.

``Tracer.install()`` wraps, in place, the public functions of each layer module,
every name another reebforge module re-imports (``reebforge.cli.compute_reeb``
and the like), and the coarse methods listed in ``METHODS``. Per-item helpers
(``LevelSlicer.neighbors``, ``edge_active``, the ``SimplicialComplex``
incidence getters, ``total_order`` and the value parsers) stay unwrapped: one
span per item would swamp the work being measured. ``uninstall()`` puts every
original back.

Each span records its name, start, end, parent span and op id in flat arrays
that stay in memory until ``write()``. A span's self time is its duration minus
the durations of its direct children; the benchmark opens one ``harness.op``
root span per op, so the self times of all spans of an op add up to its wall
time. Count hooks run inside the span they describe.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from functools import update_wrapper
from time import perf_counter

LAYERS = ("simplicial", "fields", "levels", "reeb", "certify", "oracle", "gallery", "export", "cli")

# public functions called once per item (vertex, value, pair): not wrapped
PER_ITEM = {"fields.total_order", "fields.format_value", "fields.parse_value", "simplicial.vertex_link"}

METHODS = {
    "simplicial": {"SimplicialComplex": ("__init__", "is_surface")},
    "fields": {"ScalarField": ("__init__",)},
    "levels": {"LevelSlicer": ("__init__", "component", "components_from", "advance")},
}

REEB_FUNCTIONS = ("compute_reeb", "minimal_structure", "graphs_isomorphic")

COUNTS = (
    "simplicial.triangles_built",
    "fields.values_checked",
    "levels.component_calls",
    "levels.items_visited",
    "reeb.vertices_swept",
    "reeb.nodes_out",
    "reeb.arcs_out",
    "certify.cuts_walked",
    "certify.checks",
    "certify.failed",
    "oracle.cuts_sliced",
    "oracle.mismatches",
    "gallery.vertices_generated",
    "export.bytes_out",
    "cli.nonzero_exits",
)

# (name, unit, better) of every metric the traced run reports
PER_LAYER_METRICS = (
    [(f"{layer}.self_ms", "ms", "lower") for layer in LAYERS]
    + [(f"reeb.{fn}.self_ms", "ms", "lower") for fn in REEB_FUNCTIONS]
    + [("harness.self_ms", "ms", "lower")]
    + [(name, "B" if name == "export.bytes_out" else "count", "lower") for name in COUNTS]
    + [("levels.distinct_component_frac", "ratio", "higher"), ("trace.overhead_frac", "ratio", "lower")]
)


def _certificate_counts(counts, cert):
    parts = cert.embedding + cert.cylindrical + cert.starlike
    counts["certify.checks"] += len(parts)
    counts["certify.failed"] += sum(1 for x in parts if not x.ok)
    counts["certify.cuts_walked"] += sum(x.cuts_tested for x in cert.cylindrical) + sum(
        stub.cuts_walked for x in cert.starlike for stub in x.stubs
    )


def _hooks(tracer):
    counts = tracer.counts

    def add(key, amount):
        counts[key] += amount

    def component(args, res):
        slicer, t = args[0], args[1]
        counts["levels.component_calls"] += 1
        counts["levels.items_visited"] += len(res)
        tracer.components_seen.add((id(slicer.c), id(slicer.field), t, min(res)))

    def compute_reeb(args, g):
        counts["reeb.vertices_swept"] += args[0].vertex_count
        counts["reeb.nodes_out"] += len(g.nodes)
        counts["reeb.arcs_out"] += len(g.arcs)

    def sliced(args, res):
        distinct = len(set(args[1].values))
        add("oracle.cuts_sliced", max(0, 2 * distinct - 1))

    def serialized(args, res):
        add("export.bytes_out", len(res))

    return {
        "simplicial.SimplicialComplex.__init__": lambda a, r: add(
            "simplicial.triangles_built", len(a[0].triangles)
        ),
        "fields.ScalarField.__init__": lambda a, r: add("fields.values_checked", len(a[0].values)),
        "levels.LevelSlicer.component": component,
        "reeb.compute_reeb": compute_reeb,
        "certify.certify_graph": lambda a, r: _certificate_counts(counts, r),
        "oracle.oracle_reeb": sliced,
        "gallery.realize": lambda a, r: add("gallery.vertices_generated", r[0].vertex_count),
        "gallery.subdivided_sphere": lambda a, r: add("gallery.vertices_generated", r.vertex_count),
        "gallery.grid_torus": lambda a, r: add("gallery.vertices_generated", r.vertex_count),
        "export.graph_to_json_bytes": serialized,
        "export.graph_to_dot": serialized,
        "export.certificates_to_json_bytes": serialized,
        "cli.main": lambda a, r: add("cli.nonzero_exits", int(r != 0)),
    }


class Tracer:
    """In-memory span recorder plus the per-run counts of the layer hooks."""

    def __init__(self, counts):
        self.counts = counts
        self.names = []
        self._name_ids = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op = -1
        self.components_seen = set()
        self._patches = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_op.append(self.op)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, hook):
        nid = self._name_id(name)
        span_open, span_close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = span_open(nid)
            try:
                res = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, res)
                return res
            finally:
                span_close(idx)

        return update_wrapper(wrapper, fn)

    @contextmanager
    def op_span(self, op):
        """Root span of one op; level components are deduplicated per op."""
        self.op = op
        idx = self._open(self._name_id("harness.op"))
        try:
            yield
        finally:
            self._close(idx)
            self.counts["levels.distinct_components"] += len(self.components_seen)
            self.components_seen.clear()
            self.op = -1

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        hooks = _hooks(self)
        modules = {layer: sys.modules[f"reebforge.{layer}"] for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or name in PER_ITEM
                ):
                    continue
                replaced[fn] = self._wrap(name, fn, hooks.get(name))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{layer}.{cls_name}.{meth}"
                    raw = cls.__dict__[meth]
                    if isinstance(raw, property):
                        wrapped = property(self._wrap(name, raw.fget, hooks.get(name)))
                    else:
                        wrapped = self._wrap(name, raw, hooks.get(name))
                    self._patch(cls, meth, wrapped)
        # rebind the wrapped functions wherever a reebforge module holds them
        for modname, mod in list(sys.modules.items()):
            if modname != "reebforge" and not modname.startswith("reebforge."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._patch(mod, attr, replaced[value])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Total self time in seconds per span name."""
        n = len(self.start)
        child = [0.0] * n
        parent, start, end = self.span_parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        totals = Counter()
        names = self.names
        span_name = self.span_name
        for i in range(n):
            totals[names[span_name[i]]] += end[i] - start[i] - child[i]
        return totals

    def layer_metrics(self, ops):
        """Every per-layer metric except trace.overhead_frac, for `ops` traced ops."""
        per_op_ms = 1000.0 / ops
        totals = self.self_times()
        out = {}
        for layer in LAYERS + ("harness",):
            prefix = layer + "."
            out[f"{layer}.self_ms"] = per_op_ms * sum(
                t for name, t in totals.items() if name.startswith(prefix)
            )
        for fn in REEB_FUNCTIONS:
            out[f"reeb.{fn}.self_ms"] = per_op_ms * totals[f"reeb.{fn}"]
        for name in COUNTS:
            out[name] = self.counts[name]
        calls = self.counts["levels.component_calls"]
        out["levels.distinct_component_frac"] = (
            self.counts["levels.distinct_components"] / calls if calls else 0.0
        )
        return out

    def write(self, path):
        """Spans as gzipped TSV: op, span, parent, name, start and end in ns."""
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{self.span_op[i]}\t{i}\t{self.span_parent[i]}\t"
                    f"{names[self.span_name[i]]}\t{int(self.start[i] * 1e9)}\t"
                    f"{int(self.end[i] * 1e9)}\n"
                )
