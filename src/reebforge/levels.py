"""Combinatorial level sets of a vertex field.

A cut is a level position (value, side). Component structure of level sets
only changes at vertex values, so the distinct values induce a finite cut
sequence: the "at" cut of each value interleaved with one "mid" cut per gap.
Items of a cut are vertices sitting exactly at the value (at cuts only) and
edges whose endpoint values strictly straddle it; two items are adjacent
when a triangle contains both, or when an edge joins two equal-value
vertices.

Items are integers: edge e is item e and vertex v is item E + v, for
E = len(c.edges). Every edge item is smaller than every vertex item, so
integer order is the order of the ("e", e) < ("v", v) pairs they stand for,
and the smallest item of a component is the same one either way. Only this
module computes vertex items. LevelSlicer.vertex_item and
LevelSlicer.vertices_of convert vertices in and out, and LevelSlicer.label
turns an item back into its ("e", id) or ("v", id) pair wherever items leave
the library: certificate representatives and ContourRef.

Walks that follow components from cut to cut may jump. While no component
they hold contains a vertex item, those components repeat exactly at every
cut up to the first at cut where one of their edges ends (next_change): a
vertex at a level in between that shares a triangle with one of their edges
would already be an item of the same component, through the triangle's edge
that ends at it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError

__all__ = ["ContourRef", "LevelSlicer", "level_components"]

BELOW, AT, ABOVE = "below", "at", "above"


@dataclass(frozen=True)
class ContourRef:
    """One connected component of a level set.

    value, side locate the cut. representative is the minimum vertex id on
    the contour, or None for contours that cross edges only. vertices and
    edges list the items (edges as sorted endpoint pairs).
    """

    value: object
    side: str
    representative: object
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def sort_key(self):
        vkey = self.vertices[0] if self.vertices else None
        return (0, vkey, ()) if self.vertices else (1, -1, self.edges[0])


class LevelSlicer:
    """Indexed cuts of (complex, field) with component and walking queries.

    Internally cut t is an integer: even t = 2k is the at cut of the k-th
    distinct value, odd t = 2k + 1 is the mid cut between values k and k+1.
    Items are integers (see the module docstring): edge ids stand for
    themselves, vertex_item(v) gives a vertex's item, and label(item) gives
    the ("e", id)/("v", id) pair that certificates and ContourRef report.
    """

    def __init__(self, c, field):
        self.c = c
        self.field = field
        distinct = sorted(set(field.values))
        self.values = distinct
        self.value_index = {x: k for k, x in enumerate(distinct)}
        # vertex_cut[v] is the at cut of v, twice its value's index
        index = self.value_index
        self.vertex_cut = vcut = [2 * index[x] for x in field.values]
        self.at_vertices = [[] for _ in distinct]
        for v, cv in enumerate(vcut):
            self.at_vertices[cv >> 1].append(v)
        self.tri_edges = c.triangle_edges()
        self.cut_count = max(0, 2 * len(distinct) - 1)

        # item x is an item of exactly the cuts item_lo[x] < t < item_hi[x]:
        # those strictly between its endpoints' at cuts for an edge, its own
        # at cut for a vertex
        self.edge_count = E = len(c.edges)
        self.item_lo = lo = []
        self.item_hi = hi = []
        for a, b in c.edges:
            ca, cb = vcut[a], vcut[b]
            lo.append(ca if ca <= cb else cb)
            hi.append(cb if ca <= cb else ca)
        lo.extend(cv - 1 for cv in vcut)
        hi.extend(cv + 1 for cv in vcut)
        # adj[x]: the only items that can be adjacent to x at a cut holding
        # x. An edge's endpoints are never at a cut where it is active, and
        # an edge through a vertex never is where the vertex is, so an edge
        # lists the opposite corner and the other two edges of its
        # triangles, and a vertex its neighbours and the opposite edges of
        # its triangles (its triangles' corners are neighbours too)
        vitem = list(range(E, E + c.vertex_count))  # one int object each
        adj = [[] for _ in range(E)]
        adj.extend([vitem[w] for w in c.neighbors(v)] for v in range(c.vertex_count))
        for (a, b, cc), (ab, ac, bc) in zip(c.triangles, self.tri_edges):
            adj[ab] += (vitem[cc], ac, bc)
            adj[ac] += (vitem[b], ab, bc)
            adj[bc] += (vitem[a], ab, ac)
            adj[E + a].append(bc)
            adj[E + b].append(ac)
            adj[E + cc].append(ab)
        for x, nbrs in enumerate(adj):
            adj[x] = tuple(nbrs)
        self.adj = adj

    # -- cut arithmetic --------------------------------------------------

    def cut_of(self, value, side=AT):
        """Map a (value, side) query to a cut index; None when empty.

        Values between vertex levels resolve to the gap's mid cut whatever
        the side; at a vertex value the side picks the at cut or the
        adjacent mid cut.
        """
        if side not in (BELOW, AT, ABOVE):
            raise InputError(f"unknown cut side {side!r}")
        m = len(self.values)
        if m == 0:
            return None
        k = self.value_index.get(value)
        if k is not None:
            t = 2 * k + {BELOW: -1, AT: 0, ABOVE: 1}[side]
            return t if 0 <= t < self.cut_count else None
        lo, hi = 0, m
        while lo < hi:
            mid = (lo + hi) // 2
            if self.values[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        # value sits in the gap below distinct[lo]
        t = 2 * lo - 1
        return t if 0 <= t < self.cut_count else None

    def cut_position(self, t):
        """(value, side) description of cut t; mid cuts report the gap midpoint."""
        k, odd = divmod(t, 2)
        if not odd:
            return (self.values[k], AT)
        return ((self.values[k] + self.values[k + 1]) / 2, "mid")

    def edge_active(self, e, t):
        return self.item_lo[e] < t < self.item_hi[e]

    # -- items ---------------------------------------------------------

    def vertex_item(self, v):
        return self.edge_count + v

    def vertices_of(self, items):
        """Ascending vertex ids of the vertex items among items."""
        E = self.edge_count
        return sorted(x - E for x in items if x >= E)

    def label(self, item):
        """The ("e", edge id) or ("v", vertex id) pair item stands for."""
        E = self.edge_count
        return ("e", item) if item < E else ("v", item - E)

    def items_at(self, t):
        E = self.edge_count
        lo, hi = self.item_lo, self.item_hi
        items = [E + u for u in self.at_vertices[t >> 1]] if t % 2 == 0 else []
        items.extend(e for e in range(E) if lo[e] < t < hi[e])
        return items

    # -- components and walks --------------------------------------------

    def component(self, t, seed):
        """Connected level-set component of the seed item at cut t.

        Every component search goes through here.
        """
        adj, lo, hi = self.adj, self.item_lo, self.item_hi
        seen = {seed}
        stack = [seed]
        while stack:
            for y in adj[stack.pop()]:
                if lo[y] < t < hi[y] and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return frozenset(seen)

    def components_from(self, t, seeds):
        """Deduplicated components of several seed items at one cut."""
        comps = []
        claimed = set()
        for s in seeds:
            if s in claimed:
                continue
            comp = self.component(t, s)
            claimed |= comp
            comps.append(comp)
        return comps

    def advance(self, items, t, direction):
        """Seed items at cut t + direction reached from items at cut t.

        An edge still active there is its own seed; otherwise it ends on a
        vertex at the next at cut. A vertex hands over to its edges active
        there.
        """
        t2 = t + direction
        if not 0 <= t2 < self.cut_count:
            return []
        E, lo, hi = self.edge_count, self.item_lo, self.item_hi
        edges, vcut, vertex_edges = self.c.edges, self.vertex_cut, self.c.vertex_edges
        seeds = {}
        for x in items:
            if lo[x] < t2 < hi[x]:
                seeds[x] = None
            elif x < E:
                for p in edges[x]:
                    if vcut[p] == t2:
                        seeds[E + p] = None
            else:
                for y in vertex_edges(x - E):
                    if lo[y] < t2 < hi[y]:
                        seeds[y] = None
        return list(seeds)

    def next_change(self, comps, t, direction):
        """First cut past t, in the walk's direction, where comps can change.

        comps are whole components at cut t. If one holds a vertex item, that
        is t + direction. Otherwise it is the first at cut where one of their
        edges ends, 2 * min(khi) going up and 2 * max(klo) going down for edge
        levels klo < khi; every cut before it repeats comps exactly (see the
        module docstring). Without any item nothing changes again, and the
        answer lies past the last cut: cut_count going up, -1 going down.
        """
        E = self.edge_count
        # vertex items are the largest, so a component holds one exactly
        # when its largest item is one
        if any(max(comp) >= E for comp in comps):
            return t + direction
        if direction > 0:
            hi = self.item_hi.__getitem__
            return min((min(map(hi, comp)) for comp in comps), default=self.cut_count)
        lo = self.item_lo.__getitem__
        return max((max(map(lo, comp)) for comp in comps), default=-1)


def level_components(c, field, value, side=AT):
    """All contours of the level set at (value, side), deterministically ordered.

    Returns a tuple of ContourRef. Below the global minimum or above the
    global maximum the tuple is empty.
    """
    if len(field) != c.vertex_count:
        raise InputError("field length does not match complex")
    slicer = LevelSlicer(c, field)
    if slicer.cut_count == 0:
        return ()
    t = slicer.cut_of(value, side)
    if t is None:
        return ()
    items = slicer.items_at(t)
    comps = slicer.components_from(t, items)
    refs = []
    E = slicer.edge_count
    for comp in comps:
        verts = tuple(slicer.vertices_of(comp))
        edges = tuple(sorted(c.edges[i] for i in comp if i < E))
        refs.append(
            ContourRef(
                value=value,
                side=side,
                representative=verts[0] if verts else None,
                vertices=verts,
                edges=edges,
            )
        )
    refs.sort(key=ContourRef.sort_key)
    return tuple(refs)
