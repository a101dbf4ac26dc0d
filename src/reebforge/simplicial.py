"""Finite simplicial complexes with the adjacency and link queries the sweep needs.

A complex stores simplices up to dimension 3 (vertices, edges, triangles,
tetrahedra) closed under faces. Level-set connectivity of a piecewise-linear
function is decided entirely by the 2-skeleton, so anything above dimension 3
is rejected outright instead of being silently truncated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DegenerateSimplex, InputError

__all__ = [
    "LinkView",
    "SimplicialComplex",
    "build_complex",
    "vertex_link",
    "connected_components",
    "load_off",
    "loads_off",
    "write_off",
]


@dataclass(frozen=True)
class LinkView:
    """Link of a vertex: everything opposite it in simplices containing it.

    kind is "cycle" for interior surface vertices, "path" for boundary
    surface vertices, "isolated" for vertices without neighbors and
    "other" for anything non-manifold.
    """

    center: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    kind: str


def _check_vertex_ids(vertices, vertex_count):
    for v in vertices:
        if not isinstance(v, int) or isinstance(v, bool):
            raise InputError(f"vertex id {v!r} is not an integer")
        if v < 0:
            raise InputError(f"vertex id {v} is negative")
        if vertex_count is not None and v >= vertex_count:
            raise InputError(f"vertex id {v} out of range [0, {vertex_count})")


class SimplicialComplex:
    """Immutable simplicial complex of dimension at most 3.

    Attributes
    ----------
    vertex_count : int
        Vertices are the dense range [0, vertex_count).
    edges : tuple of (int, int)
        Sorted pairs, lexicographic order.
    triangles : tuple of (int, int, int)
        Sorted triples, lexicographic order.
    tetrahedra : tuple of (int, int, int, int)
        Sorted quadruples; present only if explicitly supplied.
    """

    __slots__ = (
        "vertex_count",
        "edges",
        "triangles",
        "tetrahedra",
        "coordinates",
        "_edge_index",
        "_edge_triangles",
        "_vertex_triangles",
        "_vertex_edges",
        "_neighbors",
        "_link_kinds",
        "_boundary_edge_ids",
        "_bare_edge_ids",
        "_tri_edge_ids",
        "_tri_index",
        "_is_surface",
    )

    def __init__(self, vertex_count, edges=(), triangles=(), tetrahedra=(), coordinates=None):
        if vertex_count < 0:
            raise InputError("vertex_count must be non-negative")
        self.vertex_count = vertex_count
        self.coordinates = tuple(coordinates) if coordinates is not None else None

        tri_set = set()
        for t in triangles:
            if len(set(t)) != 3:
                raise DegenerateSimplex(f"degenerate triangle {tuple(t)}")
            _check_vertex_ids(t, vertex_count)
            a, b, c = t
            if a > b:
                a, b = b, a
            if b > c:
                b, c = c, b
            if a > b:
                a, b = b, a
            tri_set.add((a, b, c))
        tet_set = set()
        for q in tetrahedra:
            if len(set(q)) != 4:
                raise DegenerateSimplex(f"degenerate tetrahedron {tuple(q)}")
            _check_vertex_ids(q, vertex_count)
            tet_set.add(tuple(sorted(q)))

        edge_set = set()
        for e in edges:
            if len(set(e)) != 2:
                raise DegenerateSimplex(f"degenerate edge {tuple(e)}")
            _check_vertex_ids(e, vertex_count)
            edge_set.add((min(e), max(e)))
        # close under faces
        for a, b, c in tri_set:
            edge_set.add((a, b))
            edge_set.add((a, c))
            edge_set.add((b, c))
        for a, b, c, d in tet_set:
            for t in ((a, b, c), (a, b, d), (a, c, d), (b, c, d)):
                if t not in tri_set:
                    tri_set.add(t)
                    edge_set.add((t[0], t[1]))
                    edge_set.add((t[0], t[2]))
                    edge_set.add((t[1], t[2]))

        self.edges = tuple(sorted(edge_set))
        self.triangles = tuple(sorted(tri_set))
        self.tetrahedra = tuple(sorted(tet_set))

        idx = self._edge_index = {e: i for i, e in enumerate(self.edges)}
        edge_tris = [[] for _ in self.edges]
        vert_tris = [[] for _ in range(vertex_count)]
        tri_edges = []
        for ti, (a, b, c) in enumerate(self.triangles):
            ab, ac, bc = idx[(a, b)], idx[(a, c)], idx[(b, c)]
            tri_edges.append((ab, ac, bc))
            edge_tris[ab].append(ti)
            edge_tris[ac].append(ti)
            edge_tris[bc].append(ti)
            vert_tris[a].append(ti)
            vert_tris[b].append(ti)
            vert_tris[c].append(ti)
        self._tri_edge_ids = tuple(tri_edges)
        self._edge_triangles = tuple(map(tuple, edge_tris))
        self._vertex_triangles = tuple(map(tuple, vert_tris))
        del edge_tris, vert_tris, tri_edges

        vert_edges = [[] for _ in range(vertex_count)]
        nbrs = [[] for _ in range(vertex_count)]
        for ei, (a, b) in enumerate(self.edges):
            vert_edges[a].append(ei)
            vert_edges[b].append(ei)
            nbrs[a].append(b)
            nbrs[b].append(a)
        self._vertex_edges = tuple(map(tuple, vert_edges))
        # lexicographic edge order lists each vertex's smaller neighbours,
        # then its larger ones, each ascending: already sorted
        self._neighbors = tuple(map(tuple, nbrs))

        self._boundary_edge_ids = frozenset(
            ei for ei, ts in enumerate(self._edge_triangles) if len(ts) == 1
        )
        self._bare_edge_ids = None
        self._link_kinds = None
        self._tri_index = None
        self._is_surface = None

    # -- basic queries -------------------------------------------------

    def edge_id(self, u, w):
        return self._edge_index[(u, w) if u < w else (w, u)]

    def has_edge(self, u, w):
        return ((u, w) if u < w else (w, u)) in self._edge_index

    def has_triangle(self, u, w, x):
        if self._tri_index is None:
            self._tri_index = frozenset(self.triangles)
        return tuple(sorted((u, w, x))) in self._tri_index

    def triangle_edges(self):
        """Edge ids per triangle, aligned with the sorted triple (ab, ac, bc)."""
        return self._tri_edge_ids

    def edge_triangles(self, edge_id):
        """Triangle ids containing the given edge id."""
        return self._edge_triangles[edge_id]

    def vertex_triangles(self, v):
        return self._vertex_triangles[v]

    def vertex_edges(self, v):
        return self._vertex_edges[v]

    def neighbors(self, v):
        return self._neighbors[v]

    @property
    def boundary_edge_ids(self):
        return self._boundary_edge_ids

    @property
    def bare_edge_ids(self):
        """Ids of the edges in no triangle, ascending; computed once."""
        if self._bare_edge_ids is None:
            self._bare_edge_ids = tuple(
                ei for ei, ts in enumerate(self._edge_triangles) if not ts
            )
        return self._bare_edge_ids

    def is_boundary_vertex(self, v):
        return self.link_kind(v) == "path"

    # -- link machinery ------------------------------------------------

    def _compute_link_kinds(self):
        self._link_kinds = tuple(map(self._classify_link, range(self.vertex_count)))

    def _classify_link(self, v):
        nbrs = self._neighbors[v]
        if not nbrs:
            return "isolated"
        # link edges are distinct (triangles are distinct sorted triples), so
        # the link is a path or a cycle exactly when every link vertex has
        # one or two link neighbours (first[p], second[p]), at most two have
        # one, and one walk from an end (or from anywhere, without ends)
        # reaches every link vertex
        first = {}
        second = {}
        tris = self.triangles
        for ti in self._vertex_triangles[v]:
            a, b, c = tris[ti]
            if a == v:
                w, x = b, c
            elif b == v:
                w, x = a, c
            else:
                w, x = a, b
            if w not in first:
                first[w] = x
            elif w in second:
                return "other"
            else:
                second[w] = x
            if x not in first:
                first[x] = w
            elif x in second:
                return "other"
            else:
                second[x] = w
        n = len(nbrs)
        if len(first) != n:
            return "other"  # a bare edge leaves an isolated link vertex
        ends = n - len(second)
        if ends == 0:
            start = nbrs[0]
        elif ends == 2:
            start = next(p for p in first if p not in second)
        else:
            return "other"
        prev, cur, seen = start, first[start], 2
        while cur != start:
            nxt = first[cur]
            if nxt == prev:
                nxt = second.get(cur)
                if nxt is None:
                    break  # the far end of the path
            prev, cur = cur, nxt
            seen += 1
        else:
            seen -= 1  # the walk came back round to start
        if seen != n:
            return "other"
        return "path" if ends else "cycle"

    def link_kind(self, v):
        if self._link_kinds is None:
            self._compute_link_kinds()
        return self._link_kinds[v]

    def boundary_link_ends(self, v):
        """The two link-path endpoints of a boundary vertex (its boundary neighbors)."""
        if self.link_kind(v) != "path":
            raise InputError(f"vertex {v} is not a boundary surface vertex")
        count = {}
        for ti in self._vertex_triangles[v]:
            for p in self.triangles[ti]:
                if p != v:
                    count[p] = count.get(p, 0) + 1
        ends = sorted(w for w, k in count.items() if k == 1)
        return ends[0], ends[1]

    # -- global shape --------------------------------------------------

    @property
    def dim(self):
        if self.tetrahedra:
            return 3
        if self.triangles:
            return 2
        if self.edges:
            return 1
        return 0 if self.vertex_count else -1

    @property
    def is_surface(self):
        """True when the complex is a closed or bounded 2-manifold."""
        if self._is_surface is None:
            self._is_surface = (
                not self.tetrahedra
                and self.vertex_count > 0
                and all(len(ts) in (1, 2) for ts in self._edge_triangles)
                and all(
                    self.link_kind(v) in ("cycle", "path")
                    for v in range(self.vertex_count)
                )
            )
        return self._is_surface

    @property
    def is_closed_surface(self):
        return self.is_surface and not self._boundary_edge_ids

    def euler_characteristic(self):
        return (
            self.vertex_count
            - len(self.edges)
            + len(self.triangles)
            - len(self.tetrahedra)
        )

    # -- components ----------------------------------------------------

    def component_of(self, v):
        """Set of vertices in the edge-connected component of v."""
        stack = [v]
        seen = {v}
        while stack:
            u = stack.pop()
            for w in self._neighbors[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    def component_count(self):
        return _component_count(self.vertex_count, self.edges)

    def __repr__(self):
        return (
            f"SimplicialComplex(V={self.vertex_count}, E={len(self.edges)}, "
            f"T={len(self.triangles)})"
        )


def build_complex(triangles, vertex_count=None, coordinates=None):
    """Build a complex from triangle triples, closing under faces.

    Vertices are inferred as [0, max id + 1) unless vertex_count is given
    (which allows trailing isolated vertices).
    """
    tris = [tuple(t) for t in triangles]
    if vertex_count is None:
        vertex_count = 1 + max((max(t) for t in tris if t), default=-1)
    return SimplicialComplex(vertex_count, triangles=tris, coordinates=coordinates)


def from_simplices(simplices, vertex_count=None):
    """Build a complex from mixed-dimension simplices (up to tetrahedra)."""
    verts, edges, tris, tets = [], [], [], []
    for s in simplices:
        s = tuple(s)
        if len(s) == 1:
            verts.append(s[0])
        elif len(s) == 2:
            edges.append(s)
        elif len(s) == 3:
            tris.append(s)
        elif len(s) == 4:
            tets.append(s)
        else:
            raise InputError(
                f"simplex {s} has dimension {len(s) - 1}; dimensions above 3 are not supported"
            )
    top = -1
    for group in (verts and [max(verts)], edges, tris, tets):
        for s in group or ():
            m = max(s) if isinstance(s, tuple) else s
            top = max(top, m)
    if vertex_count is None:
        vertex_count = top + 1
    return SimplicialComplex(vertex_count, edges=edges, triangles=tris, tetrahedra=tets)


def vertex_link(c, v):
    """LinkView of vertex v: link vertices, link edges, and link shape."""
    if not 0 <= v < c.vertex_count:
        raise InputError(f"vertex id {v} out of range")
    edges = []
    for ti in c.vertex_triangles(v):
        w, x = [p for p in c.triangles[ti] if p != v]
        edges.append((w, x) if w < x else (x, w))
    return LinkView(
        center=v,
        vertices=c.neighbors(v),
        edges=tuple(sorted(set(edges))),
        kind=c.link_kind(v),
    )


def _pair_components(pairs, items=()):
    """Components of the graph on items and on the items of (x, y) pairs.

    This is the one batch component routine. Items are hashable and
    mutually comparable; an item of items that is in no pair is a component
    of its own. Each component is a sorted list, and the components are
    ordered by their smallest item; callers rely on both orders.
    """
    parent = {x: x for x in items}
    for x, y in pairs:
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x != y:
            parent[y] = x
    comps = {}
    for x in parent:
        r = x
        while parent[r] != r:
            r = parent[r]
        comps.setdefault(r, []).append(x)
    return sorted(sorted(comp) for comp in comps.values())


def _component_count(n, pairs, error=InputError):
    """Number of components of the graph on 0 .. n - 1 with the (x, y) edges.

    One list-indexed union-find pass; _pair_components is the routine that
    returns the components themselves. A pair with an end outside the range
    raises error, saying the arc references a missing node.
    """
    parent = list(range(n))
    count = n
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise error(f"arc ({x}, {y}) references a missing node")
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        while parent[y] != y:
            parent[y] = parent[parent[y]]
            y = parent[y]
        if x != y:
            parent[y] = x
            count -= 1
    return count


def connected_components(c, vertices=None, edges=None):
    """Partition a vertex subset into edge-connected pieces.

    The edges are the complex's unless given; an edge counts only when
    both its ends are in the subset. Pieces are sorted lists; the list of
    pieces is ordered by minimum vertex id, so representatives are
    deterministic.
    """
    if vertices is None:
        vertices = range(c.vertex_count)
    vset = set(vertices)
    if edges is None:
        edges = c.edges
    return _pair_components([(u, w) for u, w in edges if u in vset and w in vset], vset)


# -- OFF input/output ----------------------------------------------------


def loads_off(text):
    """Parse ASCII OFF. Returns a complex with coordinates attached.

    Only triangular faces ("3 i j k") are accepted.
    """
    tokens = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            tokens.append((ln, line.split()))
    if not tokens:
        raise InputError("empty OFF file")
    ln, head = tokens[0]
    body = tokens[1:]
    if head == ["OFF"]:
        pass
    elif head[0] == "OFF":
        body = [(ln, head[1:])] + body  # counts on the header line
    else:
        raise InputError(f"line {ln}: expected OFF header, got {head[0]!r}")
    if not body:
        raise InputError("OFF file has no counts line")
    ln, counts = body[0]
    if len(counts) < 2:
        raise InputError(f"line {ln}: counts line needs vertex and face counts")
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except ValueError as exc:
        raise InputError(f"line {ln}: bad counts line") from exc
    rows = body[1:]
    if len(rows) < nv + nf:
        raise InputError(f"OFF file truncated: expected {nv} vertices and {nf} faces")
    coords = []
    for ln, row in rows[:nv]:
        if len(row) < 3:
            raise InputError(f"line {ln}: vertex line needs 3 coordinates")
        try:
            coords.append((float(row[0]), float(row[1]), float(row[2])))
        except ValueError as exc:
            raise InputError(f"line {ln}: bad vertex coordinate") from exc
    faces = []
    for ln, row in rows[nv : nv + nf]:
        if row[0] != "3":
            raise InputError(f"line {ln}: only triangular faces are supported")
        if len(row) < 4:
            raise InputError(f"line {ln}: face line truncated")
        try:
            tri = (int(row[1]), int(row[2]), int(row[3]))
        except ValueError as exc:
            raise InputError(f"line {ln}: bad face index") from exc
        for i in tri:
            if not 0 <= i < nv:
                raise InputError(f"line {ln}: face index {i} out of range")
        faces.append(tri)
    return build_complex(faces, vertex_count=nv, coordinates=coords)


def load_off(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads_off(fh.read())


def dumps_off(c, coordinates=None):
    coords = coordinates if coordinates is not None else c.coordinates
    if coords is None:
        coords = [(float(v), 0.0, 0.0) for v in range(c.vertex_count)]
    if len(coords) != c.vertex_count:
        raise InputError("coordinate count does not match vertex count")
    out = ["OFF", f"{c.vertex_count} {len(c.triangles)} {len(c.edges)}"]
    for x, y, z in coords:
        out.append(f"{x!r} {y!r} {z!r}")
    for a, b, t in c.triangles:
        out.append(f"3 {a} {b} {t}")
    return "\n".join(out) + "\n"


def write_off(path, c, coordinates=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_off(c, coordinates))
