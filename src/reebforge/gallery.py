"""Instance generators: abstract graph specs, surface realization, example families.

realize() turns an abstract multigraph with exact node heights into a closed
triangulated surface plus a vertex field whose computed Reeb graph reproduces
the spec. Nodes become small gadgets at their exact heights (theta-style hubs
for degree >= 2, cone apexes for degree 1, flat tetrahedra for isolated
nodes); each abstract arc becomes a tube threaded through one slightly tilted
vertex ring per height gap it spans, so every tube vertex stays regular.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, UnrealizableSpec
from .fields import ScalarField
from .simplicial import _component_count, build_complex

__all__ = [
    "RING_RESOLUTION",
    "AbstractReebSpec",
    "realize",
    "gen_example1",
    "gen_example2",
    "gen_example3",
    "gen_example4",
    "gen_surface_zoo",
    "grid_torus",
    "subdivided_sphere",
    "random_spec",
]

# Tube/collar ring size. 8 keeps every link short but unambiguous; generators
# accept nothing smaller than 4 because degenerate bands would double edges.
RING_RESOLUTION = 8


@dataclass(frozen=True)
class AbstractReebSpec:
    """Multigraph with one exact height per node, to be realized as a surface.

    heights holds Fractions (ints and floats are converted exactly); arcs are
    (i, j) node-index pairs. Self-loops are rejected: an arc must be height
    monotone, so its endpoints need distinct heights. genus, when given, must
    equal the graph's first Betti number.
    """

    heights: tuple
    arcs: tuple
    genus: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "heights", tuple(self.heights))
        object.__setattr__(
            self, "arcs", tuple((int(a), int(b)) for a, b in self.arcs)
        )

    @property
    def node_count(self):
        return len(self.heights)

    @property
    def arc_count(self):
        return len(self.arcs)

    def component_count(self):
        return _component_count(len(self.heights), self.arcs, UnrealizableSpec)

    def b1(self):
        return len(self.arcs) - len(self.heights) + self.component_count()

    def degrees(self):
        out = [0] * len(self.heights)
        for a, b in self.arcs:
            out[a] += 1
            out[b] += 1
        return out

    def validate(self):
        """Check realizability; returns the heights normalized to Fraction."""
        if not self.heights:
            raise UnrealizableSpec("spec needs at least one node")
        hs = []
        for h in self.heights:
            try:
                hs.append(h if isinstance(h, Fraction) else Fraction(h))
            except (TypeError, ValueError) as exc:
                raise UnrealizableSpec(f"height {h!r} is not exact") from exc
        if len(set(hs)) != len(hs):
            raise UnrealizableSpec("node heights must be pairwise distinct")
        n = len(hs)
        for a, b in self.arcs:
            if not (0 <= a < n and 0 <= b < n):
                raise UnrealizableSpec(f"arc ({a}, {b}) references a missing node")
            if a == b:
                raise UnrealizableSpec("self-loop arcs cannot be height monotone")
        if self.genus is not None and self.genus != self.b1():
            raise UnrealizableSpec(
                f"declared genus {self.genus} != first Betti number {self.b1()}"
            )
        return hs


def _zip_cycles(lower, upper):
    """Band triangles between two vertex cycles, proportional two-pointer.

    Every lower edge and every upper edge lands in exactly one triangle and
    every cross edge in exactly two, so stacking bands along a tube keeps the
    result a manifold. Triangle orientation follows lower-forward /
    upper-backward; callers pass cycles pre-reversed where needed to keep the
    global gluing orientable.
    """
    la, lb = len(lower), len(upper)
    i = j = 0
    out = []
    while i < la or j < lb:
        if j >= lb or (i < la and (i + 1) * lb <= (j + 1) * la):
            out.append((lower[i % la], lower[(i + 1) % la], upper[j % lb]))
            i += 1
        else:
            out.append((lower[i % la], upper[(j + 1) % lb], upper[j % lb]))
            j += 1
    return out


def realize(spec, ring=RING_RESOLUTION):
    """Build (complex, field) whose Reeb graph is isomorphic to the spec.

    Node gadgets sit entirely at their exact spec heights, so they surface as
    flat-cluster (or extremum, for degree 1) nodes; tube rings are tilted by
    tiny exact offsets strictly inside height gaps, so they stay regular.
    """
    if ring < 4:
        raise InputError("ring resolution must be at least 4")
    heights = spec.validate()
    n = len(heights)
    ends = [[] for _ in range(n)]
    spans = []
    for k, (a, b) in enumerate(spec.arcs):
        lo, hi = (a, b) if heights[a] < heights[b] else (b, a)
        spans.append((lo, hi))
        ends[lo].append((k, True))
        ends[hi].append((k, False))

    levels = sorted(heights)
    level_of = {h: i for i, h in enumerate(levels)}

    vals = []

    def vert(h):
        vals.append(h)
        return len(vals) - 1

    tris = []
    attach = {}
    for v in range(n):
        h = heights[v]
        deg = len(ends[v])
        if deg == 0:
            q = [vert(h) for _ in range(4)]
            tris += [
                (q[0], q[1], q[2]),
                (q[0], q[1], q[3]),
                (q[0], q[2], q[3]),
                (q[1], q[2], q[3]),
            ]
        elif deg == 1:
            attach[ends[v][0]] = ("apex", vert(h))
        else:
            hub_n = vert(h)
            hub_s = vert(h)
            mids = [vert(h) for _ in range(deg)]
            for i, end in enumerate(ends[v]):
                cyc = [hub_n, mids[i], hub_s, mids[(i + 1) % deg]]
                attach[end] = ("cycle", cyc)

    for k, (lo, hi) in enumerate(spans):
        bottom = attach[(k, True)]
        top = attach[(k, False)]
        rings = []
        for g in range(level_of[heights[lo]], level_of[heights[hi]]):
            base = (levels[g] + levels[g + 1]) / 2
            step = (levels[g + 1] - levels[g]) / (8 * ring)
            rings.append([vert(base + t * step) for t in range(ring)])
        # every arc spans at least one gap, so rings is never empty
        seq = []
        if bottom[0] == "cycle":
            seq.append(bottom[1])
        seq.extend(rings)
        if top[0] == "cycle":
            seq.append(list(reversed(top[1])))
        for lower, upper in zip(seq, seq[1:]):
            tris.extend(_zip_cycles(lower, upper))
        if bottom[0] == "apex":
            apex = bottom[1]
            rim = rings[0]
            for t in range(ring):
                tris.append((rim[t], rim[(t + 1) % ring], apex))
        if top[0] == "apex":
            apex = top[1]
            rim = rings[-1]
            for t in range(ring):
                tris.append((rim[t], rim[(t + 1) % ring], apex))

    return build_complex(tris, vertex_count=len(vals)), ScalarField(vals)


def _stack_sphere(ring_heights, apex_low, apex_high):
    """Sphere of revolution: apex, a stack of 8-vertex rings, apex.

    ring_heights is a list of per-ring height lists (one entry per ring
    vertex; a constant list makes the ring a flat cluster).
    """
    m = RING_RESOLUTION
    vals = []

    def vert(h):
        vals.append(h)
        return len(vals) - 1

    a0 = vert(apex_low)
    rings = [[vert(h) for h in hs] for hs in ring_heights]
    a1 = vert(apex_high)
    tris = []
    for t in range(m):
        tris.append((rings[0][t], rings[0][(t + 1) % m], a0))
    for lower, upper in zip(rings, rings[1:]):
        tris.extend(_zip_cycles(lower, upper))
    for t in range(m):
        tris.append((rings[-1][t], rings[-1][(t + 1) % m], a1))
    return build_complex(tris, vertex_count=len(vals)), ScalarField(vals)


def _tilted(base, span):
    """Ring heights base + t * span/64: distinct, strictly inside the gap."""
    m = RING_RESOLUTION
    return [base + span * Fraction(t, 8 * m) for t in range(m)]


def _flat(h):
    return [h] * RING_RESOLUTION


def gen_example1(n):
    """Sphere with n flat horizontal rings strung between two apexes.

    The graph is a path of n + 2 nodes: extremum, n flat clusters at heights
    k/(n+1), extremum.
    """
    if n < 0:
        raise InputError("n must be >= 0")
    if n == 0:
        rings = [_tilted(Fraction(1, 2), Fraction(1, 2))]
    else:
        rings = [_flat(Fraction(k, n + 1)) for k in range(1, n + 1)]
    return _stack_sphere(rings, Fraction(0), Fraction(1))


def gen_example2(k):
    """Sphere whose middle contour carries exactly k flat clusters at height 0.

    A double cone over one ring: runs of exact-zero vertices separated by k
    slightly raised gap vertices. The level set at 0 is still one contour
    (the gap vertices' crossing edges bridge the runs), so the graph is a
    3-node path with heights -1, 0, 1 for every k.
    """
    if k < 1:
        raise InputError("k must be >= 1")
    m = max(RING_RESOLUTION, 3 * k)
    stride = m // k
    gap_at = {i * stride: i for i in range(k)}
    vals = []

    def vert(h):
        vals.append(h)
        return len(vals) - 1

    lo = vert(Fraction(-1))
    ring = []
    for j in range(m):
        if j in gap_at:
            ring.append(vert(Fraction(1, 100) + Fraction(gap_at[j], 1000)))
        else:
            ring.append(vert(Fraction(0)))
    hi = vert(Fraction(1))
    tris = []
    for j in range(m):
        tris.append((ring[j], ring[(j + 1) % m], lo))
        tris.append((ring[j], ring[(j + 1) % m], hi))
    return build_complex(tris, vertex_count=len(vals)), ScalarField(vals)


def gen_example3(n):
    """Nested-circle sphere: a dendrite-shaped tree of 2n + 3 nodes.

    The center (height 0) carries four arcs: on each side a chain through
    heights of magnitude 2^-n, ..., 1/2 and one long arc straight to the
    extremum at magnitude 1. No level set has more than two components.
    """
    if n < 0:
        raise InputError("n must be >= 0")
    heights = [Fraction(0)]
    arcs = []
    for sign in (1, -1):
        prev = 0
        for k in range(n + 1, 1, -1):
            idx = len(heights)
            heights.append(Fraction(sign, 2 ** (k - 1)))
            arcs.append((prev, idx))
            prev = idx
        leaf = len(heights)
        heights.append(Fraction(sign))
        arcs.append((0, leaf))
    return realize(AbstractReebSpec(tuple(heights), tuple(arcs)))


def gen_example4(folds=1):
    """Snake sphere: the height profile climbs, then zigzags `folds` times.

    For folds >= 1 the canonical graph is a path whose interior nodes are
    fold rings; suppressing them (minimal_structure) leaves one arc whose
    height chain revisits values, so its injectivity certificate fails while
    every canonical arc is monotone.
    """
    if folds < 0:
        raise InputError("folds must be >= 0")
    if folds == 0:
        return _stack_sphere(
            [_tilted(Fraction(1, 2), Fraction(1, 2))], Fraction(0), Fraction(1)
        )
    rings = []
    for i in range(folds):
        rings.append(_flat(Fraction(1, 2)))
        if i < folds - 1:
            rings.append(_flat(Fraction(1, 4)))
    return _stack_sphere(rings, Fraction(0), Fraction(3, 8))


_OCTAHEDRON = (
    (0, 1, 2),
    (0, 2, 3),
    (0, 3, 4),
    (0, 4, 1),
    (5, 1, 2),
    (5, 2, 3),
    (5, 3, 4),
    (5, 4, 1),
)


def grid_torus(nx, ny):
    """Quad-split torus grid; vertex (i, j) has index i * ny + j."""
    if nx < 3 or ny < 3:
        raise InputError("torus grid needs nx, ny >= 3")
    tris = []
    for i in range(nx):
        for j in range(ny):
            a = i * ny + j
            b = ((i + 1) % nx) * ny + j
            c = i * ny + (j + 1) % ny
            d = ((i + 1) % nx) * ny + (j + 1) % ny
            tris.append((a, b, c))
            tris.append((b, d, c))
    return build_complex(tris, vertex_count=nx * ny)


def gen_surface_zoo():
    """Deterministic (name, complex, field) triples covering the odd corners:

    both orientations of triviality (tetra, octahedron), two torus fields
    (tent with saddles, per-column flat rings forming a pure cycle), a
    genus-2 realization and a two-node loop realization.
    """
    out = []
    out.append(
        (
            "tetra",
            build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]),
            ScalarField([Fraction(i) for i in range(4)]),
        )
    )
    out.append(
        (
            "octahedron",
            build_complex(list(_OCTAHEDRON)),
            ScalarField([-1.0, 0.1, 0.2, 0.3, 0.4, 1.0]),
        )
    )
    tent = [
        Fraction(3 * min(i, 8 - i) + min(j, 8 - j))
        for i in range(8)
        for j in range(8)
    ]
    out.append(("tent-torus", grid_torus(8, 8), ScalarField(tent)))
    cols = [Fraction(min(j, 8 - j)) for i in range(8) for j in range(8)]
    out.append(("column-torus", grid_torus(8, 8), ScalarField(cols)))
    genus2 = AbstractReebSpec(
        tuple(Fraction(i) for i in range(6)),
        ((0, 1), (1, 2), (1, 2), (2, 3), (3, 4), (3, 4), (4, 5)),
        genus=2,
    )
    out.append(("genus2", *realize(genus2)))
    loop = AbstractReebSpec((Fraction(0), Fraction(1)), ((0, 1), (0, 1)), genus=1)
    out.append(("cycle-spec", *realize(loop)))
    return out


def subdivided_sphere(level):
    """Octahedron refined by `level` rounds of 1-to-4 triangle splits."""
    if level < 0:
        raise InputError("level must be >= 0")
    tris = list(_OCTAHEDRON)
    nv = 6
    for _ in range(level):
        base = nv
        mids = {}
        nxt = []
        for a, b, c in tris:
            corners = []
            for u, w in ((a, b), (b, c), (a, c)):
                key = (u, w) if u < w else (w, u)
                if key not in mids:
                    mids[key] = base + len(mids)
                corners.append(mids[key])
            ab, bc, ac = corners
            nxt += [(a, ab, ac), (b, ab, bc), (c, ac, bc), (ab, bc, ac)]
        nv = base + len(mids)
        tris = nxt
    return build_complex(tris, vertex_count=nv)


def random_spec(rng, max_nodes=30):
    """Random connected multigraph spec with distinct integer heights."""
    n = rng.randrange(2, max_nodes + 1)
    heights = list(range(n))
    rng.shuffle(heights)
    arcs = [(i, rng.randrange(i)) for i in range(1, n)]
    for _ in range(rng.randrange(0, n // 2 + 1)):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a != b:
            arcs.append((a, b))
    return AbstractReebSpec(tuple(Fraction(h) for h in heights), tuple(arcs))
