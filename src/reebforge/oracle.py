"""Reference Reeb graph construction by exhaustive level slicing.

The Reeb space is the set of connected components of every level set, and
this module builds it literally. The distinct vertex values give a finite
cut sequence: cut 2k is the level of the k-th value, cut 2k + 1 the gap
above it. Vertex v sits on cut[v], twice its value's rank, and edge e
crosses the cuts lo[e] < t < hi[e] strictly between its ends' cuts. After
these integers are computed no value is compared again: every comparison
the construction needs is between two vertices of different values, where
the tie-broken order is the order of their cuts.

Each cut is sliced with a fresh union-find over its items, vertex v as item
v and edge e as item nv + e. Items are bucketed by cut once, up front, and
two items are joined when a flat edge or a triangle contains both. A
triangle with corner cuts c0 <= c1 <= c2 holds exactly two items on every
cut strictly between c0 and c2, its edge from c0 to c2 and one of its edge
below c1, its corner at c1 or its edge above c1; on c0 and c2 its items are
corners that a flat edge joins already. Components of adjacent cuts are
glued through the items they share, and maximal chains of regular
components are contracted into arcs.

The cost is about the total size of all level sets: about V^2 on random
fields, where half of the edges cross a median level. A size guard keeps it
off large inputs; override with the REEBFORGE_ORACLE_MAX environment
variable.

The oracle is the reference the sweep in reeb.py is tested against, so
it shares no code with the sweep or with the level slicer in levels.py,
which it resembles: a bug they had in common would pass every
cross-check. It keeps its own union-find and its own link classification.
"""

from __future__ import annotations

import os
from bisect import bisect_right

from .errors import CountMismatch, InputError, InternalError
from .reeb import ReebGraph, _build_graph

__all__ = ["oracle_reeb", "oracle_size_limit"]


def oracle_size_limit():
    raw = os.environ.get("REEBFORGE_ORACLE_MAX", "2000")
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"REEBFORGE_ORACLE_MAX must be an integer, got {raw!r}")


def _side_components(members, pairs):
    """Components of the link vertices in members, joined by link pairs."""
    adj = {w: [] for w in members}
    for a, b in pairs:
        if a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
    count = 0
    seen = set()
    for w in adj:
        if w in seen:
            continue
        count += 1
        stack = [w]
        seen.add(w)
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return count


def _vertex_class(c, cut, v):
    """Independent per-vertex classification: kind tag used for node labels.

    Past the flat test no neighbour shares v's value, so comparing cuts
    gives the tie-broken order.
    """
    cv = cut[v]
    nbrs = c.neighbors(v)
    if any(cut[w] == cv for w in nbrs):
        return "flat"
    pairs = [tuple(p for p in c.triangles[ti] if p != v) for ti in c.vertex_triangles(v)]
    low = _side_components([w for w in nbrs if cut[w] < cv], pairs)
    upz = _side_components([w for w in nbrs if cut[w] > cv], pairs)
    if low == 0 or upz == 0:
        return "extremum"
    if low == 1 and upz == 1:
        return "regular"
    # distinguish boundary-interior criticality by link path ends
    deg = {}
    for a, b in pairs:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    ends = [w for w in nbrs if deg.get(w, 0) < 2]
    if len(ends) == 2 and (cut[ends[0]] < cv) == (cut[ends[1]] < cv):
        return "boundary"
    return "saddle"


def _fan_out(first, g, links, side):
    t = bisect_right(first, g) - 1
    return InternalError(
        f"internal: oracle component {g - first[t]} of cut {t} is regular "
        f"but meets {len(links)} components {side} it"
    )


def oracle_reeb(c, field, limit=None):
    """Build the Reeb graph by slicing every level; small inputs only."""
    if len(field) != c.vertex_count:
        raise CountMismatch(
            f"field has {len(field)} values for {c.vertex_count} vertices"
        )
    cap = oracle_size_limit() if limit is None else limit
    if c.vertex_count > cap:
        raise InputError(
            f"oracle limited to {cap} vertices, got {c.vertex_count}"
        )

    nv = c.vertex_count
    if nv == 0:
        return ReebGraph((), (), ())

    values = sorted(set(field.values))
    vidx = {x: k for k, x in enumerate(values)}
    ncuts = 2 * len(values) - 1
    cut = [2 * vidx[x] for x in field.values]
    edges = c.edges
    lo = []
    hi = []
    for a, b in edges:
        lo.append(min(cut[a], cut[b]))
        hi.append(max(cut[a], cut[b]))

    # per cut: its items in ascending order (vertices, then edges), the
    # flat edges on it and the item pairs its triangles join
    items_at = [[] for _ in range(ncuts)]
    for v in range(nv):
        items_at[cut[v]].append(v)
    flat_at = [[] for _ in range(ncuts)]
    for e, (a, b) in enumerate(edges):
        if lo[e] == hi[e]:
            flat_at[lo[e]].append((a, b))
        item = nv + e
        for t in range(lo[e] + 1, hi[e]):
            items_at[t].append(item)
    join_x = [[] for _ in range(ncuts)]
    join_y = [[] for _ in range(ncuts)]
    for (a, b, d), (ab, ad, bd) in zip(c.triangles, c.triangle_edges()):
        # corners by cut, each with the edge opposite it
        (c0, _, e12), (c1, p1, e02), (c2, _, e01) = sorted(
            ((cut[a], a, bd), (cut[b], b, ad), (cut[d], d, ab))
        )
        x, y01, y12 = nv + e02, nv + e01, nv + e12
        for t in range(c0 + 1, c2):
            join_x[t].append(x)
            join_y[t].append(y01 if t < c1 else y12 if t > c1 else p1)

    parent = list(range(nv + len(edges)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # slice every cut and glue it to the cut below: instance g is one
    # component of one cut, numbered cut by cut; comp_prev/comp_cur give
    # each item of cut t - 1 / t its instance
    vertex_edges = c.vertex_edges
    comp_prev = [0] * len(parent)
    comp_cur = [0] * len(parent)
    first = []  # first instance of each cut
    head = []  # smallest item of each instance
    verts = []  # its vertices, ascending
    down = []  # instances of the cut below that it meets
    is_node = []
    classes = {}
    node_rec = []
    node_id = {}
    vmap = [None] * nv
    for t in range(ncuts):
        items = items_at[t]
        for it in items:
            parent[it] = it
        for x, y in zip(join_x[t], join_y[t]):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[ry] = rx
        for a, b in flat_at[t]:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        first.append(len(head))
        roots = {}
        for it in items:
            r = find(it)
            g = roots.get(r)
            if g is None:
                g = roots[r] = len(head)
                head.append(it)
                verts.append([])
                down.append(set())
                is_node.append(False)
            comp_cur[it] = g
            links = down[g]
            if it < nv:
                verts[g].append(it)
                cls = classes[it] = _vertex_class(c, cut, it)
                if cls != "regular":
                    is_node[g] = True
                for e in vertex_edges(it):
                    if lo[e] < t - 1 < hi[e]:
                        links.add(comp_prev[nv + e])
            elif lo[it - nv] < t - 1:
                links.add(comp_prev[it])
            else:
                # the edge starts at its lower vertex, on the cut below
                a, b = edges[it - nv]
                links.add(comp_prev[a if cut[a] < cut[b] else b])
        comp_prev, comp_cur = comp_cur, comp_prev

        # mark node instances: classes of their member vertices
        for g in range(first[t], len(head)):
            if not is_node[g]:
                continue
            tags = {classes[u] for u in verts[g]}
            for kind_tag, kind in (
                ("flat", "flat-cluster"),
                ("saddle", "saddle-like"),
                ("extremum", "extremum"),
                ("boundary", "boundary"),
            ):
                if kind_tag in tags:
                    break
            node_id[g] = len(node_rec)
            node_rec.append(
                {
                    "height": values[t // 2],
                    "kind": kind,
                    "witness": verts[g][0],
                    "vertices": tuple(verts[g]),
                }
            )
            for u in verts[g]:
                vmap[u] = ("node", node_id[g])

    up = [[] for _ in head]
    for g, links in enumerate(down):
        for h in links:
            up[h].append(g)

    # contract maximal regular chains into arcs. Any regular instance below
    # g comes first in this scan and walks up through g, so an unvisited g
    # starts its chain, right above a node. Chains start and end on gap
    # cuts, whose instances hold edges only: their smallest item is their
    # smallest edge.
    arc_rec = []
    visited = bytearray(len(head))
    for g in range(len(head)):
        if is_node[g] or visited[g]:
            continue
        if len(down[g]) != 1:
            raise _fan_out(first, g, down[g], "below")
        chain = [g]
        while True:
            links = up[chain[-1]]
            if len(links) != 1:
                raise _fan_out(first, chain[-1], links, "above")
            nxt = links[0]
            if is_node[nxt]:
                break
            chain.append(nxt)
            visited[nxt] = 1
        interior = [u for x in chain for u in verts[x]]
        aid = len(arc_rec)
        arc_rec.append(
            {
                "lower": node_id[next(iter(down[g]))],
                "upper": node_id[nxt],
                "birth": head[g] - nv,
                "death": head[chain[-1]] - nv,
                "interior": interior,
            }
        )
        for u in interior:
            vmap[u] = ("arc", aid)

    return _build_graph(node_rec, arc_rec, vmap)
