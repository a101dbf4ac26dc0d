"""The benchmark's three workloads: seeded inputs, one timed op each, output checks.

A workload is built by ``make_workload(name, seed, state)``. ``setup()`` turns
the seed into the op list and every input the ops need; ``run_op(i)`` performs
op ``i`` and returns ``(triangles, problem)``, where ``problem`` is ``None``
when every output check passed. Ops call the program only through module
attributes (``reeb.compute_reeb``, never a name imported here), so the traced
run's wrappers see every call.

Why these three (sizes are the defaults of each class):

* ``sweep-sphere``: one 8 192-triangle sphere reused by every op, a fresh
  generic float field per op. The sweep's singleton fast path and saddle
  contour walks dominate; certify, levels and oracle do no work. The mesh is
  reused, so per-mesh caching shows here.
* ``realize-certify``: ops alternate (a) ``random_spec`` -> ``realize`` with
  exact heights and flat-cluster nodes, and (b) a random closed sphere or torus
  of 40..140 vertices with a distinct float field. Each op sweeps, certifies
  and compares with the expected graph (the spec's for (a), the slab oracle's
  for (b)). Certification and level slicing dominate; every op builds a fresh
  mesh, so no per-mesh cache can help.
* ``cli-crosscheck``: the user path ``reebforge run mesh field --oracle
  --format json,dot --out DIR`` on OFF and field files of random closed
  surfaces (100..400 vertices) with tied exact values k/32. Parsing, building,
  the oracle, the sweep's tie path and atomic writes all run per op, with no
  object shared between ops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import shutil
import tempfile
from fractions import Fraction

from reebforge import certify, cli, export, fields, gallery, oracle, reeb, simplicial

_SUMMARY = re.compile(
    r"^nodes=(\d+) arcs=(\d+) b1=(\d+) loops=(\d+) components=(\d+)$"
)


class DigestStore:
    """SHA-256 of each op's output, kept per (workload, seed, sizes) across runs.

    A run fails an op whose output digest differs from one recorded for the
    same key by this run or an earlier run in the same checkout.
    """

    def __init__(self, path):
        self.path = path
        self.digests = {}
        if path is not None and os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                self.digests = json.load(fh)

    def check(self, key, data):
        digest = hashlib.sha256(data).hexdigest()
        known = self.digests.setdefault(key, digest)
        if known != digest:
            return f"output digest for {key} changed: {known[:12]} -> {digest[:12]}"
        return None

    def save(self):
        if self.path is None:
            return
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="ascii") as fh:
            json.dump(self.digests, fh, sort_keys=True)
        os.replace(tmp, self.path)


def _graph_problem(g, vertex_count):
    """Internal consistency of a computed graph; None when it holds."""
    if len(g.vertex_map) != vertex_count:
        return f"vertex map has {len(g.vertex_map)} entries for {vertex_count} vertices"
    limits = {"node": len(g.nodes), "arc": len(g.arcs)}
    for v, entry in enumerate(g.vertex_map):
        if entry is None or not 0 <= entry[1] < limits[entry[0]]:
            return f"vertex {v} is not mapped to a graph point: {entry!r}"
    if sum(n.degree for n in g.nodes) != 2 * len(g.arcs):
        return "node degrees disagree with the arc list"
    return None


def _random_closed_surface(rng, vertices):
    """Sphere or torus base plus random 1-to-3 triangle splits up to `vertices`.

    Returns (triangles, vertex_count) as plain data, so the op builds the mesh.
    """
    if rng.random() < 0.5:
        # level 2 has 66 vertices: too many for the smaller targets
        base = gallery.subdivided_sphere(rng.randrange(0, 3 if vertices >= 66 else 2))
    else:
        base = gallery.grid_torus(rng.randrange(3, 7), rng.randrange(3, 7))
    tris = list(base.triangles)
    nv = base.vertex_count
    while nv < vertices:
        i = rng.randrange(len(tris))
        a, b, d = tris[i]
        tris[i] = (a, b, nv)
        tris.append((b, d, nv))
        tris.append((a, d, nv))
        nv += 1
    return tris, nv


def _distinct_floats(rng, n):
    while True:
        vals = [rng.random() for _ in range(n)]
        if len(set(vals)) == n:
            return vals


def _gap_span(spec):
    """Height gaps crossed by all arcs together; realize() grows one ring per gap."""
    rank = {h: k for k, h in enumerate(sorted(spec.heights))}
    return sum(abs(rank[spec.heights[a]] - rank[spec.heights[b]]) for a, b in spec.arcs)


def _stratified_specs(rng, max_nodes, strata=8):
    """One random_spec from each gap-span stratum, in random order.

    Of strata**2 draws sorted by gap span, the middle draw of each stratum is
    kept, so every run sees small and large realizations in equal shares.
    """
    draws = sorted(
        (gallery.random_spec(rng, max_nodes=max_nodes) for _ in range(strata * strata)),
        key=_gap_span,
    )
    picked = draws[strata // 2 :: strata]
    rng.shuffle(picked)
    return picked


def spec_graph(spec):
    """The spec's own graph, built the way the test suite's reference is."""
    heights = spec.validate()
    degrees = spec.degrees()
    node_rec = [
        {
            "height": h,
            "kind": "extremum" if degrees[i] == 1 else "flat-cluster",
            "witness": i,
            "vertices": (i,),
        }
        for i, h in enumerate(heights)
    ]
    arc_rec = []
    for k, (a, b) in enumerate(spec.arcs):
        lo, hi = (a, b) if heights[a] < heights[b] else (b, a)
        arc_rec.append({"lower": lo, "upper": hi, "birth": k, "death": k, "interior": ()})
    return reeb._build_graph(node_rec, arc_rec, [])


class SweepSphere:
    """subdivided_sphere(level) once; per op a seeded float field and the sweep."""

    name = "sweep-sphere"
    ops_in_list = 4096

    def __init__(self, seed, state, level=5):
        self.seed = seed
        self.level = level
        self.tag = f"L{level}"
        self.state = state
        self.mesh = None
        self.op_seeds = ()

    def setup(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        self.op_seeds = [rng.getrandbits(64) for _ in range(self.ops_in_list)]
        self.mesh = gallery.subdivided_sphere(self.level)

    def close(self):
        pass

    def run_op(self, i):
        c = self.mesh
        rng = random.Random(self.op_seeds[i % len(self.op_seeds)])
        f = fields.ScalarField([rng.random() for _ in range(c.vertex_count)])
        g = reeb.compute_reeb(c, f)
        if g.components != 1 or g.b1 != 0:
            return 0, f"sweep graph has components={g.components} b1={g.b1}"
        problem = _graph_problem(g, c.vertex_count)
        if problem:
            return 0, problem
        m = reeb.minimal_structure(g)
        if m.components != 1 or m.b1 != 0:
            return 0, f"minimal graph has components={m.components} b1={m.b1}"
        problem = self.state.digests.check(
            str(i % len(self.op_seeds)), export.graph_to_json_bytes(m)
        )
        return len(c.triangles), problem


class RealizeCertify:
    """Alternating realized specs and random closed surfaces, each certified."""

    name = "realize-certify"
    ops_in_list = 512

    def __init__(self, seed, state, max_nodes=12, surface_sizes=(40, 70, 100, 140)):
        self.seed = seed
        self.max_nodes = max_nodes
        self.surface_sizes = tuple(surface_sizes)
        self.tag = f"N{max_nodes}-V{max(self.surface_sizes)}"
        self.state = state
        self.ops = ()

    def setup(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        specs = []
        ops = []
        for i in range(self.ops_in_list):
            if i % 2 == 0:
                if not specs:
                    specs = _stratified_specs(rng, self.max_nodes)
                spec = specs.pop()
                ops.append(("spec", spec, spec_graph(spec)))
            else:
                size = self.surface_sizes[(i // 2) % len(self.surface_sizes)]
                tris, nv = _random_closed_surface(rng, size)
                ops.append(("surface", tris, nv, _distinct_floats(rng, nv)))
        self.ops = ops

    def close(self):
        pass

    def run_op(self, i):
        op = self.ops[i % len(self.ops)]
        if op[0] == "spec":
            _, spec, expected = op
            c, f = gallery.realize(spec)
        else:
            _, tris, nv, vals = op
            c = simplicial.build_complex(tris, vertex_count=nv)
            f = fields.ScalarField(vals)
        g = reeb.compute_reeb(c, f)
        cert = certify.certify_graph(g, c, f)
        if op[0] == "surface":
            expected = oracle.oracle_reeb(c, f)
        if not cert.ok:
            return 0, f"certificate failed: {cert.failures()[:1]!r}"
        if not reeb.graphs_isomorphic(g, expected):
            if op[0] == "surface":
                self.state.counts["oracle.mismatches"] += 1
            return 0, f"graph is not isomorphic to the expected {op[0]} graph"
        if sorted(g.node_heights()) != sorted(expected.node_heights()):
            return 0, "node heights differ from the expected graph"
        return len(c.triangles), None


class CliCrosscheck:
    """`reebforge run --oracle` on a pool of OFF and field files, in process."""

    name = "cli-crosscheck"

    def __init__(self, seed, state, pool=48, sizes=(100, 143, 186, 229, 271, 314, 357, 400)):
        self.seed = seed
        self.pool = pool
        self.sizes = tuple(sizes)
        self.tag = f"P{pool}-V{max(self.sizes)}"
        self.state = state
        self.workdir = None
        self.outdir = None
        self.inputs = ()

    def setup(self):
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=self.state.scratch)
        rng = random.Random(f"{self.name}:{self.seed}")
        inputs = []
        for k in range(self.pool):
            tris, nv = _random_closed_surface(rng, self.sizes[k % len(self.sizes)])
            c = simplicial.build_complex(tris, vertex_count=nv)
            mesh = os.path.join(self.workdir, f"{k}.off")
            field = os.path.join(self.workdir, f"{k}.txt")
            with open(mesh, "w", encoding="ascii") as fh:
                fh.write(simplicial.dumps_off(c))
            with open(field, "w", encoding="ascii") as fh:
                fh.writelines(f"{Fraction(rng.randrange(33), 32)}\n" for _ in range(nv))
            inputs.append((mesh, field, len(c.triangles)))
        self.inputs = inputs
        self.outdir = os.path.join(self.workdir, "out")

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir = None

    def run_op(self, i):
        k = i % len(self.inputs)
        mesh, field, triangles = self.inputs[k]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(
                ["run", mesh, field, "--oracle", "--format", "json,dot", "--out", self.outdir]
            )
        lines = out.getvalue().splitlines()
        if "oracle-mismatch" in lines:
            self.state.counts["oracle.mismatches"] += 1
        if rc != 0:
            return 0, f"exit code {rc}: {err.getvalue().strip() or lines}"
        if "oracle-match" not in lines:
            return 0, f"no oracle-match line in {lines}"
        json_path = os.path.join(self.outdir, "reeb.json")
        dot_path = os.path.join(self.outdir, "reeb.dot")
        with open(json_path, "rb") as fh:
            data = fh.read()
        has_dot = os.path.getsize(dot_path) > 0
        os.unlink(json_path)
        os.unlink(dot_path)
        if not has_dot:
            return 0, "reeb.dot is empty"
        problem = _json_problem(data, lines[0] if lines else "")
        if problem is None:
            problem = self.state.digests.check(str(k), data)
        return triangles, problem


def _json_problem(data, summary):
    """reeb.json must be a connected graph that agrees with the summary line."""
    m = _SUMMARY.match(summary)
    if m is None:
        return f"bad summary line {summary!r}"
    nodes, arcs, b1, _, components = map(int, m.groups())
    doc = json.loads(data)
    n = len(doc["nodes"])
    if (n, len(doc["arcs"]), doc["b1"], doc["components"]) != (nodes, arcs, b1, components):
        return "reeb.json disagrees with the summary line"
    if components != 1:
        return f"closed connected surface gave {components} components"
    degree = [0] * n
    for a in doc["arcs"]:
        if not (0 <= a["lower"] < n and 0 <= a["upper"] < n):
            return f"arc {a['id']} has an endpoint outside the node list"
        degree[a["lower"]] += 1
        degree[a["upper"]] += 1
    if degree != [node["degree"] for node in doc["nodes"]]:
        return "node degrees disagree with the arc list"
    if b1 != len(doc["arcs"]) - n + components:
        return "b1 disagrees with the node and arc counts"
    return None


_CLASSES = {w.name: w for w in (SweepSphere, RealizeCertify, CliCrosscheck)}


def make_workload(name, seed, state, **sizes):
    """Instantiate workload `name`; `sizes` override its input sizes (smoke tests)."""
    return _CLASSES[name](seed, state, **sizes)
