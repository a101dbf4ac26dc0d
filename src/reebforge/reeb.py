"""Reeb graph extraction for vertex fields on simplicial complexes.

compute_reeb performs a single ascending sweep over the vertices in the
tie-broken total order. Level-set components (contours) are tracked as a
union-find structure over the edges currently crossing the sweep line;
where a contour may split, its pieces are walked in lockstep and each
piece that closes on itself moves to a fresh label, so a split costs
about twice the smaller piece. A contour becomes a graph node exactly
when it contains a vertex that is link-critical or has an equal-value
neighbour; every maximal family of regular contours in between becomes
an arc.

The companion operations answer queries about the quotient structure:
quotient_point maps a barycentric point of the domain to its image,
minimal_structure suppresses degree-2 nodes in one pass wherever that
creates no new self-loop (loops already present stay), and
graphs_isomorphic compares two results up to relabeling.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import CountMismatch, InputError, InternalError, InvalidBarycentric
from .fields import _link_class, _sweep_order
from .levels import AT, ContourRef, LevelSlicer
from .simplicial import _pair_components

__all__ = [
    "ReebNode",
    "ReebArc",
    "ReebGraph",
    "compute_reeb",
    "quotient_point",
    "minimal_structure",
    "graphs_isomorphic",
]

NODE_KINDS = ("extremum", "saddle-like", "boundary", "flat-cluster")


@dataclass(frozen=True)
class ReebNode:
    """A critical contour: one vertex of the quotient graph.

    vertices lists the mesh vertices lying on the contour (all at the node
    height); the full contour, including crossing edges, is recoverable via
    level_components at that height. witness_vertex is the smallest one.
    """

    id: int
    height: object
    degree: int
    kind: str
    witness_vertex: int
    vertices: tuple[int, ...]
    contour: ContourRef


@dataclass(frozen=True)
class ReebArc:
    """A maximal family of regular contours between two nodes.

    birth_edge and death_edge are mesh edges witnessing the first and last
    contour of the family. interior_vertices are the regular mesh vertices
    swept by the family, in ascending order. chain_heights is empty for
    computed graphs; after degree-2 suppression it records the heights of
    the absorbed nodes, ordered from the lower endpoint to the upper.
    """

    id: int
    lower: int
    upper: int
    birth_edge: int
    death_edge: int
    interior_vertices: tuple[int, ...] = ()
    chain_heights: tuple = ()


class ReebGraph:
    """Immutable multigraph of nodes and arcs plus the vertex quotient map.

    vertex_map[v] is ("node", id) or ("arc", id) for every mesh vertex.
    b1 is the first Betti number arcs - nodes + components.
    """

    __slots__ = (
        "nodes", "arcs", "vertex_map", "components", "b1", "_incident", "_canonical"
    )

    def __init__(self, nodes, arcs, vertex_map):
        self.nodes = tuple(nodes)
        self.arcs = tuple(arcs)
        self.vertex_map = tuple(vertex_map)
        self._incident = None
        # set by _freeze_graph: minimal_structure would rebuild the graph as is
        self._canonical = False
        n = len(self.nodes)
        ends = [(a.lower, a.upper) for a in self.arcs]
        for x, y in ends:
            if not (0 <= x < n and 0 <= y < n):
                raise InputError(f"arc ({x}, {y}) references a missing node")
        self.components = len(_pair_components(ends, range(n)))
        self.b1 = len(self.arcs) - n + self.components

    def node_arcs(self, node_id):
        """Arc ids incident to the node; loop arcs appear once."""
        if self._incident is None:
            incident = [[] for _ in self.nodes]
            for a in self.arcs:
                incident[a.lower].append(a.id)
                if a.upper != a.lower:
                    incident[a.upper].append(a.id)
            self._incident = tuple(tuple(x) for x in incident)
        return self._incident[node_id]

    def arc_interval(self, arc_id):
        a = self.arcs[arc_id]
        return (self.nodes[a.lower].height, self.nodes[a.upper].height)

    def loop_count(self):
        return sum(1 for a in self.arcs if a.lower == a.upper)

    def degree_histogram(self):
        hist = Counter(n.degree for n in self.nodes)
        return dict(sorted(hist.items()))

    def node_heights(self):
        return tuple(n.height for n in self.nodes)

    def stats(self):
        return {
            "nodes": len(self.nodes),
            "arcs": len(self.arcs),
            "b1": self.b1,
            "loops": self.loop_count(),
            "components": self.components,
        }

    def __repr__(self):
        return (
            f"ReebGraph(nodes={len(self.nodes)}, arcs={len(self.arcs)}, "
            f"b1={self.b1}, components={self.components})"
        )


def _build_graph(node_rec, arc_rec, vmap):
    """Adapt hand-built dict records to the columns _freeze_graph takes.

    node_rec entries carry height, kind, witness and vertices; arc_rec
    entries lower, upper, birth, death, interior and an optional chain;
    vmap entries are ("node" | "arc", provisional id). The library's own
    graphs (sweep, oracle, minimal_structure) hand columns to _freeze_graph
    directly.
    """
    nodes = (
        [r["height"] for r in node_rec],
        [r["kind"] for r in node_rec],
        [r["witness"] for r in node_rec],
        [r["vertices"] for r in node_rec],
    )
    arcs = (
        [r["lower"] for r in arc_rec],
        [r["upper"] for r in arc_rec],
        [r["birth"] for r in arc_rec],
        [r["death"] for r in arc_rec],
        [r["interior"] for r in arc_rec],
        [r.get("chain", ()) for r in arc_rec],
    )
    flat = [
        None if entry is None else (entry[1] if entry[0] == "node" else ~entry[1])
        for entry in vmap
    ]
    return _freeze_graph(
        nodes, arcs, len(flat), flat, where="in the records given to _build_graph"
    )


def _freeze_graph(nodes, arcs, vertex_count, vmap=None, *, where):
    """Renumber raw node and arc columns deterministically and freeze the graph.

    nodes holds parallel lists (heights, kinds, witnesses, vertex tuples);
    arcs holds (lowers, uppers, births, deaths, interiors, chains), where
    chains may be None when no arc has one. vmap gives each mesh vertex its
    provisional node id, or ~id for an arc; without it, each vertex is
    read off the node vertices and arc interiors. Nodes are ordered by
    (height, witness vertex), arcs by (lower, upper, birth edge). where
    says whose records these are, for the InternalError raised when they
    leave a vertex on no node or arc.
    """
    heights, kinds, witnesses, verts = nodes
    lowers, uppers, births, deaths, interiors, chains = arcs
    nn = len(heights)
    na = len(lowers)

    # stable sorts from the last key to the first: no key tuples
    n_order = sorted(range(nn), key=witnesses.__getitem__)
    n_order.sort(key=heights.__getitem__)
    nperm = [0] * nn
    for new, old in enumerate(n_order):
        nperm[old] = new

    lo = [nperm[x] for x in lowers]
    hi = [nperm[x] for x in uppers]
    a_order = sorted(range(na), key=births.__getitem__)
    a_order.sort(key=hi.__getitem__)
    a_order.sort(key=lo.__getitem__)
    aperm = [0] * na
    for new, old in enumerate(a_order):
        aperm[old] = new

    degree = [0] * nn
    for x in lowers:
        degree[x] += 1
    for x in uppers:
        degree[x] += 1

    node_objs = []
    for new, old in enumerate(n_order):
        h, wv, vs = heights[old], witnesses[old], tuple(verts[old])
        node_objs.append(
            ReebNode(
                new, h, degree[old], kinds[old], wv, vs,
                ContourRef(h, AT, wv, vs, ()),
            )
        )
    arc_objs = [
        ReebArc(
            new, lo[old], hi[old], births[old], deaths[old],
            tuple(interiors[old]), tuple(chains[old]) if chains else (),
        )
        for new, old in enumerate(a_order)
    ]

    final_map = [None] * vertex_count
    if vmap is None:
        for n in node_objs:
            tag = ("node", n.id)
            for u in n.vertices:
                final_map[u] = tag
        for a in arc_objs:
            if a.interior_vertices:
                tag = ("arc", a.id)
                for u in a.interior_vertices:
                    final_map[u] = tag
    else:
        node_tag = [("node", k) for k in range(nn)]
        arc_tag = [("arc", k) for k in range(na)]
        for u, x in enumerate(vmap):
            if x is not None:
                final_map[u] = node_tag[nperm[x]] if x >= 0 else arc_tag[aperm[~x]]
    if None in final_map:
        raise InternalError(
            f"internal: vertex {final_map.index(None)} is on no node or arc {where}"
        )
    g = ReebGraph(node_objs, arc_objs, final_map)
    # the vertex map is the one read off nodes and arcs, and each arc goes
    # up in node order, so it already reads from its lower end to its upper
    g._canonical = vmap is None and all(x <= y for x, y in zip(lo, hi))
    return g


def compute_reeb(c, field):
    """Sweep the field in ascending tie-broken order and build the graph.

    Works on any finite complex whose every edge lies in a triangle: closed
    or bounded surfaces and non-manifold joins of triangles, with or
    without isolated vertices. A complex with a bare edge raises
    InputError naming its first one; tetrahedra are read through their
    triangles. Certification (not extraction) is what demands a manifold.
    Output is deterministic for fixed input, and depends on the values
    only through their order and as node heights: ints, floats and
    Fractions that sort alike give one graph up to its node heights.
    """
    if len(field) != c.vertex_count:
        raise CountMismatch(
            f"field has {len(field)} values for {c.vertex_count} vertices"
        )
    bare = c.bare_edge_ids
    if bare:
        raise InputError(
            f"edge {c.edges[bare[0]]} lies in no triangle; "
            "compute_reeb needs every edge in a triangle"
        )
    if c.vertex_count == 0:
        return ReebGraph((), (), ())
    # the sweep's working state is freed before the graph is built
    nodes, arcs = _sweep(c, field)
    return _freeze_graph(nodes, arcs, c.vertex_count, where="after the sweep")


def _sweep(c, field):
    """Raw node and arc records of the sweep, in the form _freeze_graph takes.

    Values are compared only to sort the vertices once, to find the runs of
    equal values in that order, and to emit node heights. Every later test
    (below, at or above a level, flat edge, link sides) compares sweep
    positions.
    """
    nverts = c.vertex_count
    vals = field.values
    edges = c.edges
    tris = c.triangles
    ne = len(edges)
    surface = c.is_surface
    closed = surface and not c.boundary_edge_ids

    boundary_vertex = bytearray(nverts)
    for e in c.boundary_edge_ids:
        a, b = edges[e]
        boundary_vertex[a] = 1
        boundary_vertex[b] = 1

    order, pos = _sweep_order(field)

    # edge e spans the sweep positions elo[e] < ehi[e]; it crosses the cut
    # after position t when elo[e] <= t < ehi[e]
    first = [pos[a] for a, _ in edges]
    second = [pos[b] for _, b in edges]
    elo = list(map(min, first, second))
    ehi = list(map(max, first, second))
    del first, second

    vedges = c._vertex_edges
    vtris = c._vertex_triangles
    etris = c._edge_triangles
    tri_edges = c.triangle_edges()

    # mixed[u] counts the triangles with one corner below u and one above,
    # that is, those whose middle corner in the sweep order is u
    mixed = [0] * nverts
    if surface:
        for a, b, t in tris:
            pa, pb, pt = pos[a], pos[b], pos[t]
            if pa < pb:
                mid = b if pb < pt else (t if pa < pt else a)
            else:
                mid = a if pa < pt else (t if pb < pt else b)
            mixed[mid] += 1

    # contour tracking: union-find over crossing edge ids plus synthetic
    # labels minted when a walked-out piece must leave its old class;
    # ovr[e] is the label edge e answers to
    parent = list(range(ne))
    usize = [1] * ne
    ovr = list(range(ne))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx == ry:
            return rx
        if usize[rx] < usize[ry]:
            rx, ry = ry, rx
        parent[ry] = rx
        usize[rx] += usize[ry]
        return rx

    # sweep records as parallel lists
    n_height, n_kind, n_verts = [], [], []
    a_lower, a_upper, a_birth, a_death, a_interior = [], [], [], [], []
    arc_of = {}

    def open_arc(lower, birth):
        a_lower.append(lower)
        a_upper.append(None)
        a_birth.append(birth)
        a_death.append(None)
        a_interior.append(())  # a list from the first interior vertex on
        return len(a_lower) - 1

    def relink_regular(u, pu):
        # regular vertex with no neighbour at its value: the one contour
        # passing by absorbs u's upper spokes, which no earlier step has
        # touched
        ve = vedges[u]
        for e in ve:
            if ehi[e] == pu:
                break
        r = find(ovr[e])
        for e in ve:
            if elo[e] == pu:
                parent[e] = r
                usize[r] += 1
        aid = arc_of[r]
        if a_interior[aid]:
            a_interior[aid].append(u)
        else:
            a_interior[aid] = [u]

    def across(e, ti, cutpos):
        # the other edge of triangle ti that the cut crosses along with e:
        # a cut crosses no edge of a triangle or exactly two
        x, y, z = tri_edges[ti]
        if x == e:
            return y if elo[y] <= cutpos < ehi[y] else z
        if y == e:
            return x if elo[x] <= cutpos < ehi[x] else z
        return x if elo[x] <= cutpos < ehi[x] else y

    def split_off(nid, items, birth):
        # a walked-out contour leaves its class under a fresh synthetic label
        fresh = len(parent)
        parent.append(fresh)
        usize.append(1)
        for e in items:
            ovr[e] = fresh
        arc_of[fresh] = open_arc(nid, birth)

    def emit_node(w, verts, kind, deaths, strands, cutpos, ends=None):
        # deaths maps each incoming contour label to its death edge; strands
        # are the sorted item lists of the local upper pieces, by first item.
        # ends, given only on a closed surface, names for each of exactly
        # two strands (first flank, its triangle into the strand, last flank)
        nid = len(n_height)
        n_height.append(w)
        n_kind.append(kind)
        n_verts.append(verts)
        for r, d in deaths.items():
            aid = arc_of.pop(r)
            a_upper[aid] = nid
            a_death[aid] = d
        if not strands:
            return

        # one class for everything at the node; pieces that turn out to be
        # separate contours above are split off by the walk below. Items
        # are spokes no step has touched yet or edges already in a root
        # class, so spokes are hung straight under the root.
        rstar = None
        for r in deaths:
            rstar = r if rstar is None else union(rstar, r)
        for items in strands:
            for e in items:
                x = ovr[e]
                if rstar is None:
                    rstar = find(x)
                elif parent[x] == x and usize[x] == 1:
                    if x != rstar:
                        parent[x] = rstar
                        usize[rstar] += 1
                elif find(x) != rstar:
                    rstar = union(rstar, x)
        if len(strands) == 1:
            arc_of[find(rstar)] = open_arc(nid, strands[0][0])
            return

        if ends is not None:
            # every contour is a cycle of crossing edges and each strand a
            # run of it between two flank edges. Walk out of both strands
            # in lockstep, one edge a step, until a walk comes back to its
            # own last flank (its contour is its own) or meets the other
            # strand's flanks (one contour).
            (fa, ta, ga), (fb, tb, gb) = ends
            at, back = [fa, fb], [ta, tb]
            stop, meet = (ga, gb), ((fb, gb), (fa, ga))
            paths = ([], [])
            while True:
                for k in (0, 1):
                    t1, t2 = etris[at[k]]
                    t = t2 if t1 == back[k] else t1
                    e = across(at[k], t, cutpos)
                    if e == stop[k]:
                        split_off(nid, strands[k] + paths[k], strands[k][0])
                        arc_of[find(rstar)] = open_arc(nid, strands[1 - k][0])
                        return
                    if e in meet[k]:
                        arc_of[find(rstar)] = open_arc(nid, strands[0][0])
                        return
                    at[k] = e
                    back[k] = t
                    paths[k].append(e)

        # several local strands: discover which outgoing contours they join
        # by claiming crossing edges breadth-first, one edge per strand per
        # round, so a strand whose contour is its own walks out after the
        # fewest steps. queue[s] is both strand s's queue and its claims;
        # via[s] names the triangle each edge was claimed through, which
        # leads back into the strand and need not be looked at again.
        nf = len(strands)
        grp = list(range(nf))
        dead = [False] * nf
        queue = [list(items) for items in strands]
        via = [[-1] * len(items) for items in strands]
        head = [0] * nf
        seed = [items[0] for items in strands]
        claimed = {}
        for s, items in enumerate(strands):
            for e in items:
                claimed[e] = s
        live = nf
        while live > 1:
            for s in range(nf):
                if dead[s] or grp[s] != s:
                    continue
                q = queue[s]
                h = head[s]
                if h == len(q):
                    # walked out: this strand's contour is its own
                    claims = []
                    for t in range(nf):
                        x = t
                        while grp[x] != x:
                            x = grp[x]
                        if x == s:
                            claims += queue[t]
                    split_off(nid, claims, seed[s])
                    dead[s] = True
                    live -= 1
                    if live == 1:
                        break
                    continue
                head[s] = h + 1
                e = q[h]
                back = via[s][h]
                cur = s
                for ti in etris[e]:
                    if ti == back:
                        continue
                    e2 = across(e, ti, cutpos)
                    o = claimed.get(e2)
                    if o is None:
                        claimed[e2] = cur
                        queue[cur].append(e2)
                        via[cur].append(ti)
                        continue
                    while grp[o] != o:
                        o = grp[o]
                    if o == cur:
                        continue
                    keep, lose = (o, cur) if o < cur else (cur, o)
                    grp[lose] = keep
                    hl = head[lose]
                    for tails in (queue, via):
                        tails[keep].extend(tails[lose][hl:])
                        del tails[lose][hl:]
                    if seed[lose] < seed[keep]:
                        seed[keep] = seed[lose]
                    live -= 1
                    cur = keep
                    if live == 1:
                        break
                if live == 1:
                    break

        rest = next(s for s in range(nf) if not dead[s] and grp[s] == s)
        arc_of[find(rstar)] = open_arc(nid, seed[rest])

    def singleton_event(u, pu, w, m):
        # interior surface vertex alone at its level: its link is one cycle
        # of m mixed triangles, so m == 0 makes it an extremum and m >= 4 a
        # saddle with m / 2 lower and m / 2 upper wedges. The local item
        # bookkeeping mirrors process_event exactly.
        deaths = {}
        ups = []
        for e in vedges[u]:
            if elo[e] == pu:
                ups.append(e)
            else:
                r = find(ovr[e])
                d = deaths.get(r)
                if d is None or e < d:
                    deaths[r] = e

        if m == 0:
            emit_node(w, (u,), "extremum", deaths, [ups] if ups else [], pu)
            return

        # each mixed triangle has a flank edge crossing the level: it lies
        # on a lower contour and closes an upper wedge with its spoke
        flank_tri = {}
        pairs = []
        for ti in vtris[u]:
            a, b, t2 = tris[ti]
            e_ab, e_at, e_bt = tri_edges[ti]
            if u == a:
                o1, o2, s1, s2, flk = b, t2, e_ab, e_at, e_bt
            elif u == b:
                o1, o2, s1, s2, flk = a, t2, e_ab, e_bt, e_at
            else:
                o1, o2, s1, s2, flk = a, b, e_at, e_bt, e_ab
            if pos[o1] < pu:
                if pos[o2] > pu:
                    flank_tri[flk] = ti
                    pairs.append((s2, flk))
            elif pos[o2] < pu:
                flank_tri[flk] = ti
                pairs.append((s1, flk))
            else:
                pairs.append((s1, s2))
        for flk in flank_tri:
            r = find(ovr[flk])
            d = deaths.get(r)
            if d is None or flk < d:
                deaths[r] = flk

        if closed and len(deaths) == m // 2:
            # every lower wedge is a contour of its own. The critical
            # contour K through u is a graph with one vertex of degree m,
            # so chi(K) = 1 - m/2, and a thin neighbourhood N of K is a
            # connected surface with chi(N) = chi(K) whose boundary circles
            # are the r_below = m/2 contours just below and the r_above
            # contours just above (on a closed surface every contour is a
            # circle). Then r_below + r_above = 2 - 2h - chi(N) for genus h
            # (2 - q - chi(N) for q cross-caps) gives r_above = 1 - 2h
            # (1 - q), so r_above = 1: all upper wedges leave on one
            # contour and no walk is needed. This needs u interior on a
            # closed surface and alone at its value.
            items = ups + list(flank_tri)
            items.sort()
            emit_node(w, (u,), "saddle-like", deaths, [items], pu)
            return
        strands = _pair_components(pairs)
        ends = None
        if closed and len(strands) == 2:
            # each strand is one upper wedge, bounded by two flank edges
            ends = []
            for items in strands:
                f, g = [e for e in items if e in flank_tri]
                ends.append((f, flank_tri[f], g))
        emit_node(w, (u,), "saddle-like", deaths, strands, pu, ends)

    def process_event(i, j, w):
        # the batch order[i:j] holds the vertices at value w: x is at the
        # level when i <= pos[x] < j and below it when pos[x] < i. links
        # join batch vertices u and incoming contour roots r, as nverts + r,
        # into groups by at-level connectivity; each group gets one node or
        # one regular splice
        batch = order[i:j]
        cutpos = j - 1
        links = [(u, u) for u in batch]
        deaths = {}
        flat_here = {u: False for u in batch}
        for u in batch:
            pu = pos[u]
            for e in vedges[u]:
                if ehi[e] != pu or elo[e] >= i:
                    continue  # keep the edges up to u from lower values
                r = find(ovr[e])
                links.append((u, nverts + r))
                if r not in deaths or e < deaths[r]:
                    deaths[r] = e
            for x in c._neighbors[u]:
                if i <= pos[x] < j:
                    flat_here[u] = True
                    links.append((u, x))

        seen_t = set()
        batch_tris = []
        for u in batch:
            for ti in vtris[u]:
                if ti not in seen_t:
                    seen_t.add(ti)
                    batch_tris.append(ti)
        batch_tris.sort()

        # one triangle pass: flank edges glue groups to incoming contours
        # and the upper-link items are collected with local adjacency
        pairs = []
        owner = {}
        for ti in batch_tris:
            a, b, t2 = tris[ti]
            e_ab, e_at, e_bt = tri_edges[ti]
            # -1, 0 or 1: below, at or above the level
            sa = (pos[a] >= j) - (pos[a] < i)
            sb = (pos[b] >= j) - (pos[b] < i)
            st = (pos[t2] >= j) - (pos[t2] < i)
            zeros = (sa == 0) + (sb == 0) + (st == 0)
            if zeros == 3:
                continue
            if zeros == 2:
                if sa != 0:
                    o, s, sp1, sp2, u1, u2 = a, sa, e_ab, e_at, b, t2
                elif sb != 0:
                    o, s, sp1, sp2, u1, u2 = b, sb, e_ab, e_bt, a, t2
                else:
                    o, s, sp1, sp2, u1, u2 = t2, st, e_at, e_bt, a, b
                if s > 0:
                    owner.setdefault(sp1, u1)
                    owner.setdefault(sp2, u2)
                    pairs.append((sp1, sp2))
                continue
            if sa == 0:
                u, o1, o2, s1, s2, flk = a, b, t2, e_ab, e_at, e_bt
                so1, so2 = sb, st
            elif sb == 0:
                u, o1, o2, s1, s2, flk = b, a, t2, e_ab, e_bt, e_at
                so1, so2 = sa, st
            else:
                u, o1, o2, s1, s2, flk = t2, a, b, e_at, e_bt, e_ab
                so1, so2 = sa, sb
            if so1 < 0 and so2 < 0:
                continue
            if so1 > 0 and so2 > 0:
                owner.setdefault(s1, u)
                owner.setdefault(s2, u)
                pairs.append((s1, s2))
            else:
                # one below, one above: the opposite edge crosses the level
                spoke = s1 if so1 > 0 else s2
                r = find(ovr[flk])
                links.append((u, nverts + r))
                if r not in deaths or flk < deaths[r]:
                    deaths[r] = flk
                owner.setdefault(spoke, u)
                pairs.append((spoke, flk))

        # every group holds a vertex, so groups come in order of their
        # smallest vertex, and each lists its vertices before its roots
        groups = _pair_components(links)
        group_of = {}
        for k, items in enumerate(groups):
            for x in items:
                group_of[x] = k
        strands_of = [[] for _ in groups]
        for items in _pair_components(pairs):
            anchor = next(owner[e] for e in items if e in owner)
            strands_of[group_of[anchor]].append(items)

        for items, strands in zip(groups, strands_of):
            verts = [x for x in items if x < nverts]
            roots = [x - nverts for x in items if x >= nverts]
            classes = {
                _link_class(c, pos, u, boundary_vertex[u])[0]
                if not flat_here[u] else "flat"
                for u in verts
            }
            if classes == {"regular"}:
                if len(roots) != 1:
                    raise InternalError(
                        f"internal: regular vertices {verts} at value {w!r} "
                        f"meet {len(roots)} contours"
                    )
                for u in sorted(verts, key=pos.__getitem__):
                    relink_regular(u, pos[u])
                continue

            if "flat" in classes:
                kind = "flat-cluster"
            elif "saddle" in classes:
                kind = "saddle-like"
            elif "minimum" in classes or "maximum" in classes:
                kind = "extremum"
            else:
                kind = "boundary"
            emit_node(
                w, tuple(verts), kind, {r: deaths[r] for r in roots}, strands, cutpos
            )

    i = 0
    while i < nverts:
        u = order[i]
        w = vals[u]
        j = i + 1
        while j < nverts and vals[order[j]] == w:
            j += 1
        if j > i + 1 or not surface or boundary_vertex[u]:
            process_event(i, j, w)
        elif mixed[u] == 2:
            relink_regular(u, i)
        else:
            singleton_event(u, i, w, mixed[u])
        i = j

    if arc_of:
        aid = min(arc_of.values())
        raise InternalError(
            f"internal: the arc above vertex {n_verts[a_lower[aid]][0]} "
            f"is still open after the sweep"
        )
    return (
        (n_height, n_kind, [vs[0] for vs in n_verts], n_verts),
        (a_lower, a_upper, a_birth, a_death, a_interior, None),
    )


# -- quotient map ----------------------------------------------------------


def _validate_point(c, field, simplex, weights):
    simplex = tuple(simplex)
    weights = tuple(weights)
    if not 1 <= len(simplex) <= 3 or len(set(simplex)) != len(simplex):
        raise InvalidBarycentric("simplex must list 1-3 distinct vertices")
    if len(weights) != len(simplex):
        raise InvalidBarycentric("one weight per simplex vertex required")
    for v in simplex:
        if not 0 <= v < c.vertex_count:
            raise InvalidBarycentric(f"vertex {v} out of range")
    if len(simplex) == 2 and not c.has_edge(*simplex):
        raise InvalidBarycentric(f"no edge {simplex}")
    if len(simplex) == 3 and not c.has_triangle(*simplex):
        raise InvalidBarycentric(f"no triangle {simplex}")
    exact = all(not isinstance(t, float) for t in weights)
    total = sum(weights)
    if any(t < 0 for t in weights):
        raise InvalidBarycentric("weights must be non-negative")
    if exact:
        if total != 1:
            raise InvalidBarycentric("weights must sum to 1")
    elif abs(total - 1) > 1e-9:
        raise InvalidBarycentric("weights must sum to 1")
    support = [v for v, t in zip(simplex, weights) if t > 0]
    if not support:
        raise InvalidBarycentric("at least one positive weight required")
    value = sum(t * field.values[v] for v, t in zip(simplex, weights))
    return support, value


def quotient_point(g, c, field, simplex, weights):
    """Image of a barycentric point under the quotient map.

    Returns ("node", node_id) on critical contours and
    ("arc", arc_id, height) on regular ones.
    """
    support, value = _validate_point(c, field, simplex, weights)

    def vertex_image(u):
        kind, idx = g.vertex_map[u]
        return (kind, idx) if kind == "node" else ("arc", idx, field.values[u])

    if all(field.values[v] == field.values[support[0]] for v in support):
        return vertex_image(support[0])

    slicer = LevelSlicer(c, field)
    t = slicer.cut_of(value, AT)
    if len(support) == 2:
        seed = ("e", c.edge_id(*support))
    else:
        tri = tuple(sorted(support))
        ti = next(
            x for x in c.vertex_triangles(tri[0]) if c.triangles[x] == tri
        )
        # the point's value lies strictly inside the triangle's range, so
        # the edge from its lowest to its highest corner crosses the cut
        seed = ("e", min(e for e in slicer.tri_edges[ti] if slicer.edge_active(e, t)))
    comp = slicer.component(t, seed)
    cur_t = t
    while True:
        at_verts = sorted(v for k, v in comp if k == "v")
        if at_verts:
            kind, idx = g.vertex_map[at_verts[0]]
            if kind == "arc":
                return ("arc", idx, value)
            if cur_t == t:
                # the point's own contour is critical
                return ("node", idx)
            for a in g.arcs:
                if a.lower == idx and ("e", a.birth_edge) in prev:
                    return ("arc", a.id, value)
            raise InternalError(
                f"internal: no arc above node {idx} (vertex {at_verts[0]}) "
                f"holds the contour of the point at value {value!r}"
            )
        # every cut above the next change repeats comp
        prev = comp
        t_next = slicer.next_change((comp,), cur_t, -1)
        seeds = slicer.advance(comp, t_next + 1, -1)
        cur_t = t_next
        comp = slicer.component(cur_t, seeds[0])


# -- degree-2 suppression ---------------------------------------------------


def minimal_structure(g):
    """Suppress degree-2 nodes wherever that creates no new self-loop.

    A degree-2 node whose two arcs share their other endpoint is kept:
    removing it would need a self-loop. Loops already in the input stay.
    Nodes are suppressed greedily in (height, id) order, so on a cycle of
    degree-2 nodes the last two in (height, witness) order remain. Each
    merged arc records the absorbed heights from its lower end to its
    upper, so monotonicity of the merged height chain remains checkable.
    A computed graph with nothing to suppress is returned unchanged.
    """
    nodes, arcs = g.nodes, g.arcs
    # a canonical graph's degrees are exact: with no degree-2 node it is
    # minimal already
    if g._canonical and all(n.degree != 2 for n in nodes):
        return g
    # e0/e1: the ends of each arc record; first/last: its original arcs there
    e0 = [a.lower for a in arcs]
    e1 = [a.upper for a in arcs]
    first = list(range(len(arcs)))
    last = first[:]
    incident = [[] for _ in nodes]
    for k, (x, y) in enumerate(zip(e0, e1)):
        incident[x].append(k)
        incident[y].append(k)
    # sides[x]: the records on either side of a loopless degree-2 node x;
    # its merged record keeps the id of the first
    sides = [p[:] if len(p) == 2 and p[0] != p[1] else None for p in incident]
    gone = [False] * len(nodes)
    # suppression never makes another node suppressible, so one pass in
    # (height, id) order suppresses what a rescan after each one would
    order = [x for x, p in enumerate(sides) if p]
    for x in sorted(order, key=lambda x: nodes[x].height):
        ka, kb = sides[x]
        oa = e1[ka] if e0[ka] == x else e0[ka]
        ob = e1[kb] if e0[kb] == x else e0[kb]
        if oa == ob:
            continue
        gone[x] = True
        fa = first[ka] if e0[ka] == oa else last[ka]
        lb = last[kb] if e1[kb] == ob else first[kb]
        e0[ka], e1[ka], first[ka], last[ka] = oa, ob, fa, lb
        e0[kb] = None
        if sides[ob]:
            sides[ob][sides[ob][1] == kb] = ka
    if g._canonical and True not in gone:
        return g

    kept = [x for x, out in enumerate(gone) if not out]
    new_id = {x: k for k, x in enumerate(kept)}
    key = [(n.height, n.witness_vertex) for n in nodes]
    columns = ([], [], [], [], [], [])
    for k, node in enumerate(e0):
        if node is None:
            continue
        # read the record from its lower end, or from e0 on equal keys
        arc = first[k]
        if key[e1[k]] < key[node]:
            node, arc = e1[k], last[k]
        lower, a = node, arcs[arc]
        w0 = a.birth_edge if a.lower == node else a.death_edge
        chain, interior = [], []
        while True:
            a = arcs[arc]
            up = 1 if a.lower == node else -1
            node, w1 = (a.upper, a.death_edge) if up > 0 else (a.lower, a.birth_edge)
            chain += a.chain_heights[::up]
            interior += a.interior_vertices[::up]
            if not gone[node]:
                break
            # a node's vertices run forward from the side its record kept
            p, q = incident[node]
            chain.append(nodes[node].height)
            interior += nodes[node].vertices[:: 1 if arc == p else -1]
            arc = q if arc == p else p
        record = (new_id[lower], new_id[node], w0, w1, interior, chain)
        for col, v in zip(columns, record):
            col.append(v)

    # an abstract graph, with an empty vertex map, keeps an empty one
    vmap = [None] * len(g.vertex_map)
    if vmap:
        for k, x in enumerate(kept):
            for u in nodes[x].vertices:
                vmap[u] = k
        for k, interior in enumerate(columns[4]):
            for u in interior:
                vmap[u] = ~k
    kept = [nodes[x] for x in kept]
    node_columns = (
        [n.height for n in kept],
        [n.kind for n in kept],
        [n.witness_vertex for n in kept],
        [n.vertices for n in kept],
    )
    return _freeze_graph(
        node_columns, columns, len(vmap), vmap,
        where="in the graph given to minimal_structure",
    )


# -- isomorphism -------------------------------------------------------------


def graphs_isomorphic(g1, g2):
    """Height- and degree-preserving multigraph isomorphism test."""
    if len(g1.nodes) != len(g2.nodes) or len(g1.arcs) != len(g2.arcs):
        return False

    def sig(n):
        return (n.height, n.degree)

    if sorted(map(sig, g1.nodes)) != sorted(map(sig, g2.nodes)):
        return False

    buckets = {}
    for n in g2.nodes:
        buckets.setdefault(sig(n), []).append(n.id)
    cand = [buckets[sig(n)] for n in g1.nodes]

    adj1 = [Counter() for _ in g1.nodes]
    for a in g1.arcs:
        adj1[a.lower][a.upper] += 1
        adj1[a.upper][a.lower] += 1
    adj2 = [Counter() for _ in g2.nodes]
    for a in g2.arcs:
        adj2[a.lower][a.upper] += 1
        adj2[a.upper][a.lower] += 1

    n = len(g1.nodes)
    order = sorted(range(n), key=lambda i: (len(cand[i]), i))
    mapping = [-1] * n
    used = set()
    # backtracking with an explicit stack: tried[k] counts the candidates
    # already tried for node order[k]; depth k moves down on a fit and back
    # up, undoing its choice, when its candidates run out
    tried = [0] * n
    k = 0
    while 0 <= k < n:
        i = order[k]
        if mapping[i] >= 0:
            used.discard(mapping[i])
            mapping[i] = -1
        cands = cand[i]
        while tried[k] < len(cands):
            j = cands[tried[k]]
            tried[k] += 1
            if j in used:
                continue
            for h, mult in adj1[i].items():
                if mapping[h] >= 0 and adj2[j][mapping[h]] != mult:
                    break
            else:
                mapping[i] = j
                used.add(j)
                k += 1
                break
        else:
            tried[k] = 0
            k -= 1
    return k == n
