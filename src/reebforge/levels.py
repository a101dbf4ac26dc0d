"""Combinatorial level sets of a vertex field.

A cut is a level position (value, side). Component structure of level sets
only changes at vertex values, so the distinct values induce a finite cut
sequence: the "at" cut of each value interleaved with one "mid" cut per gap.
Items of a cut are vertices sitting exactly at the value (at cuts only) and
edges whose endpoint values strictly straddle it; two items are adjacent
when a triangle contains both, or when an edge joins two equal-value
vertices.

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
    """

    def __init__(self, c, field):
        self.c = c
        self.field = field
        distinct = sorted(set(field.values))
        self.values = distinct
        self.value_index = {x: k for k, x in enumerate(distinct)}
        # vertex_cut[v] is the at cut of v, twice its value's index; edge e
        # is an item of exactly the cuts strictly between its endpoints' at
        # cuts, edge_lo[e] < t < edge_hi[e]
        index = self.value_index
        self.vertex_cut = vcut = [2 * index[x] for x in field.values]
        self.at_vertices = [[] for _ in distinct]
        for v, cv in enumerate(vcut):
            self.at_vertices[cv >> 1].append(v)
        self.edge_lo = []
        self.edge_hi = []
        for a, b in c.edges:
            ca, cb = vcut[a], vcut[b]
            self.edge_lo.append(ca if ca <= cb else cb)
            self.edge_hi.append(cb if ca <= cb else ca)
        self.tri_edges = c.triangle_edges()
        self.cut_count = max(0, 2 * len(distinct) - 1)

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
        return self.edge_lo[e] < t < self.edge_hi[e]

    # -- items and adjacency ----------------------------------------------

    def items_at(self, t):
        lo, hi = self.edge_lo, self.edge_hi
        items = [("v", u) for u in self.at_vertices[t >> 1]] if t % 2 == 0 else []
        items.extend(("e", e) for e in range(len(lo)) if lo[e] < t < hi[e])
        return items

    def neighbors(self, item, t):
        """Items adjacent to item at cut t, in a fixed order.

        This is the one adjacency routine; component searches through it.
        """
        c = self.c
        vcut, lo, hi = self.vertex_cut, self.edge_lo, self.edge_hi
        kind, i = item
        is_edge = kind == "e"
        out = []
        if is_edge:
            tris = c.edge_triangles(i)
        else:
            cu = vcut[i]
            edges = c.edges
            for ei in c.vertex_edges(i):
                a, b = edges[ei]
                w = b if a == i else a
                if vcut[w] == cu:
                    out.append(("v", w))
            tris = c.vertex_triangles(i)
        triangles, tri_edges = c.triangles, self.tri_edges
        for ti in tris:
            for p in triangles[ti]:
                if vcut[p] == t and (is_edge or p != i):
                    out.append(("v", p))
            for e in tri_edges[ti]:
                if lo[e] < t < hi[e] and (e != i or not is_edge):
                    out.append(("e", e))
        return out

    def component(self, t, seed):
        """Connected level-set component of the seed item at cut t."""
        seen = {seed}
        stack = [seed]
        neighbors = self.neighbors
        while stack:
            for nb in neighbors(stack.pop(), t):
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
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
        """Seed items at cut t + direction reached from items at cut t."""
        t2 = t + direction
        if not 0 <= t2 < self.cut_count:
            return []
        vcut, lo, hi = self.vertex_cut, self.edge_lo, self.edge_hi
        edges = self.c.edges
        vertex_edges = self.c.vertex_edges
        seeds = []
        seen = set()

        def put(it):
            if it not in seen:
                seen.add(it)
                seeds.append(it)

        for it in items:
            kind, i = it
            if kind == "e":
                if lo[i] < t2 < hi[i]:
                    put(it)
                else:
                    # the edge ends on the vertex sitting at the next at cut
                    for p in edges[i]:
                        if vcut[p] == t2:
                            put(("v", p))
            else:
                for ei in vertex_edges(i):
                    if lo[ei] < t2 < hi[ei]:
                        put(("e", ei))
        return seeds

    def next_change(self, comps, t, direction):
        """First cut past t, in the walk's direction, where comps can change.

        comps are whole components at cut t. If one holds a vertex item, that
        is t + direction. Otherwise it is the first at cut where one of their
        edges ends, 2 * min(khi) going up and 2 * max(klo) going down for edge
        levels klo < khi; every cut before it repeats comps exactly (see the
        module docstring). Without any item nothing changes again, and the
        answer lies past the last cut: cut_count going up, -1 going down.
        """
        ends = self.edge_hi if direction > 0 else self.edge_lo
        edge_ends = []
        for comp in comps:
            for kind, i in comp:
                if kind == "v":
                    return t + direction
                edge_ends.append(ends[i])
        if not edge_ends:
            return self.cut_count if direction > 0 else -1
        return min(edge_ends) if direction > 0 else max(edge_ends)


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
    for comp in comps:
        verts = tuple(sorted(i[1] for i in comp if i[0] == "v"))
        edges = tuple(sorted(c.edges[i[1]] for i in comp if i[0] == "e"))
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
