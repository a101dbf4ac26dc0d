"""Sweep extraction: frozen small cases, quotient map, suppression, fuzzing."""

import dataclasses
import hashlib
import random
import time
from fractions import Fraction

import pytest

from helpers import (
    distinct_random_field,
    random_closed_surface,
    spec_to_graph,
    split_random_triangles,
    subdivide,
    with_swapped_endpoint,
    without_node,
)
from reebforge.errors import InputError, InternalError, InvalidBarycentric, ReebforgeError
from reebforge.fields import ScalarField
from reebforge.gallery import (
    AbstractReebSpec,
    gen_example1,
    gen_example2,
    gen_example3,
    gen_example4,
    gen_surface_zoo,
    grid_torus,
    random_spec,
    realize,
    subdivided_sphere,
)
from reebforge.levels import AT, ContourRef
from reebforge.oracle import oracle_reeb
from reebforge.reeb import (
    ReebArc,
    ReebGraph,
    ReebNode,
    _build_graph,
    _freeze_graph,
    compute_reeb,
    graphs_isomorphic,
    minimal_structure,
    quotient_point,
)
from reebforge.simplicial import build_complex

TETRA = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

# the 6-vertex projective plane
RP2 = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (1, 3, 4), (1, 3, 5), (2, 4, 5),
]


def tetra_graph():
    c = build_complex(TETRA)
    f = ScalarField([Fraction(i) for i in range(4)])
    return c, f, compute_reeb(c, f)


def test_tetra_frozen():
    c, f, g = tetra_graph()
    assert g.stats() == {"nodes": 2, "arcs": 1, "b1": 0, "loops": 0, "components": 1}
    assert [(n.height, n.kind, n.witness_vertex) for n in g.nodes] == [
        (0, "extremum", 0),
        (3, "extremum", 3),
    ]
    assert g.vertex_map == (("node", 0), ("arc", 0), ("arc", 0), ("node", 1))
    a = g.arcs[0]
    assert (a.lower, a.upper) == (0, 1)
    assert a.interior_vertices == (1, 2)
    assert c.edges[a.birth_edge] == (0, 1)
    assert c.edges[a.death_edge] == (0, 3)
    assert g.arc_interval(0) == (0, 3)


def test_tent_torus_frozen():
    # tent profile 3*min(i,8-i) + min(j,8-j): two saddles joined twice
    c = grid_torus(8, 8)
    f = ScalarField([Fraction(3 * min(i, 8 - i) + min(j, 8 - j)) for i in range(8) for j in range(8)])
    g = compute_reeb(c, f)
    assert g.stats() == {"nodes": 4, "arcs": 4, "b1": 1, "loops": 0, "components": 1}
    assert [(n.height, n.kind, n.witness_vertex) for n in g.nodes] == [
        (0, "extremum", 0),
        (4, "saddle-like", 4),
        (12, "saddle-like", 27),
        (16, "extremum", 36),
    ]
    assert sorted((a.lower, a.upper) for a in g.arcs) == [(0, 1), (1, 2), (1, 2), (2, 3)]
    assert g.degree_histogram() == {1: 2, 3: 2}


def test_column_torus_frozen():
    c = grid_torus(8, 8)
    f = ScalarField([Fraction(min(j, 8 - j)) for i in range(8) for j in range(8)])
    g = compute_reeb(c, f)
    assert g.stats() == {"nodes": 8, "arcs": 8, "b1": 1, "loops": 0, "components": 1}
    assert all(n.kind == "flat-cluster" for n in g.nodes)
    assert [n.height for n in g.nodes] == [0, 1, 1, 2, 2, 3, 3, 4]
    assert [n.witness_vertex for n in g.nodes] == [0, 1, 7, 2, 6, 3, 5, 4]
    assert sorted((a.lower, a.upper) for a in g.arcs) == [
        (0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 7),
    ]


def test_boundary_disk_frozen():
    disk = build_complex([(0, 1, 4), (1, 2, 4), (2, 3, 4)])
    f = ScalarField([0, 2, 1, 3, 4])
    g = compute_reeb(disk, f)
    assert [(n.height, n.kind, n.witness_vertex) for n in g.nodes] == [
        (0, "extremum", 0),
        (1, "extremum", 2),
        (2, "boundary", 1),
        (4, "extremum", 4),
    ]
    assert sorted((a.lower, a.upper) for a in g.arcs) == [(0, 2), (1, 2), (2, 3)]
    assert g.vertex_map[3] == ("arc", 2)


def test_two_components():
    c = build_complex(TETRA + [(t[0] + 4, t[1] + 4, t[2] + 4) for t in TETRA])
    f = ScalarField([Fraction(i) for i in range(4)] + [Fraction(i + 10) for i in range(4)])
    g = compute_reeb(c, f)
    assert g.stats() == {"nodes": 4, "arcs": 2, "b1": 0, "loops": 0, "components": 2}
    # an isolated node is a component of its own
    lone = ReebGraph(g.nodes, g.arcs[:1], g.vertex_map)
    assert (lone.components, lone.b1) == (3, 0)


def test_arc_to_a_missing_node_is_an_input_error():
    c, f, g = tetra_graph()
    for end in (len(g.nodes), -1):
        bad = dataclasses.replace(g.arcs[0], upper=end)
        with pytest.raises(InputError, match="references a missing node"):
            ReebGraph(g.nodes, (bad,), g.vertex_map)


def test_node_contour_is_derived_from_the_node():
    def check(g):
        for n in g.nodes:
            assert n.contour == ContourRef(n.height, AT, n.witness_vertex, n.vertices, ())
            moved = dataclasses.replace(n, id=n.id + 7)
            assert moved.contour == n.contour and moved != n

    for _, c, f in gen_surface_zoo():
        for g in (compute_reeb(c, f), oracle_reeb(c, f)):
            check(g)
            check(minimal_structure(g))
    check(minimal_structure(compute_reeb(*gen_example1(4))))
    spec = random_spec(random.Random(4), max_nodes=8)
    check(spec_to_graph(spec))
    node = {"height": Fraction(1, 2), "kind": "extremum", "witness": 1, "vertices": (1, 0)}
    check(_build_graph([node], [], [("node", 0), ("node", 0)]))


def test_arc_interiors_are_regular_and_inside():
    rng = random.Random(5)
    c = split_random_triangles(subdivided_sphere(1), rng, 40)
    f = ScalarField([rng.random() for _ in range(c.vertex_count)])
    g = compute_reeb(c, f)
    for a in g.arcs:
        lo = g.nodes[a.lower].height
        hi = g.nodes[a.upper].height
        assert lo < hi
        hs = [f.values[u] for u in a.interior_vertices]
        assert hs == sorted(hs)
        assert all(lo < h < hi for h in hs)
    # every mesh vertex is covered by the quotient map
    assert len(g.vertex_map) == c.vertex_count
    for kind, idx in g.vertex_map:
        assert kind in ("node", "arc")


def test_quotient_point_frozen():
    c, f, g = tetra_graph()
    assert quotient_point(g, c, f, (0,), (1,)) == ("node", 0)
    assert quotient_point(g, c, f, (1,), (1,)) == ("arc", 0, Fraction(1))
    half = (Fraction(1, 2), Fraction(1, 2))
    assert quotient_point(g, c, f, (0, 3), half) == ("arc", 0, Fraction(3, 2))
    third = (Fraction(1, 3),) * 3
    assert quotient_point(g, c, f, (1, 2, 3), third) == ("arc", 0, Fraction(2))
    # zero-weight support collapses to the vertex image
    assert quotient_point(g, c, f, (0, 3), (Fraction(1), Fraction(0))) == ("node", 0)


def test_quotient_point_validation():
    c, f, g = tetra_graph()
    with pytest.raises(InvalidBarycentric):
        quotient_point(g, c, f, (0, 0), (Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(InvalidBarycentric):
        quotient_point(g, c, f, (0,), (Fraction(1, 2),))
    with pytest.raises(InvalidBarycentric):
        quotient_point(g, c, f, (0, 1), (Fraction(2), Fraction(-1)))
    with pytest.raises(InvalidBarycentric):
        quotient_point(g, c, f, (9,), (1,))
    octa = build_complex(
        [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (5, 1, 2), (5, 2, 3), (5, 3, 4), (5, 4, 1)]
    )
    fo = ScalarField([0, 1, 2, 3, 4, 5])
    go = compute_reeb(octa, fo)
    with pytest.raises(InvalidBarycentric):  # poles are not adjacent
        quotient_point(go, octa, fo, (0, 5), (Fraction(1, 2), Fraction(1, 2)))


def test_quotient_point_lands_inside_arc_interval():
    c = grid_torus(8, 8)
    f = ScalarField([Fraction(min(j, 8 - j)) for i in range(8) for j in range(8)])
    g = compute_reeb(c, f)
    half = (Fraction(1, 2), Fraction(1, 2))
    for a, b in list(c.edges)[::7]:
        if f.values[a] == f.values[b]:
            continue
        image = quotient_point(g, c, f, (a, b), half)
        assert image[0] == "arc"
        lo, hi = g.arc_interval(image[1])
        assert lo <= image[2] <= hi


def test_minimal_structure_path_collapses():
    c, f = gen_example1(3)
    g = compute_reeb(c, f)
    assert g.stats()["nodes"] == 5
    m = minimal_structure(g)
    assert m.stats() == {"nodes": 2, "arcs": 1, "b1": 0, "loops": 0, "components": 1}
    assert m.arcs[0].chain_heights == (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    # suppression preserves the quotient map targets for absorbed vertices
    assert all(kind in ("node", "arc") for kind, _ in m.vertex_map)


def test_minimal_structure_keeps_loops_two_noded():
    c = grid_torus(8, 8)
    f = ScalarField([Fraction(min(j, 8 - j)) for i in range(8) for j in range(8)])
    m = minimal_structure(compute_reeb(c, f))
    assert m.stats() == {"nodes": 2, "arcs": 2, "b1": 1, "loops": 0, "components": 1}
    assert [n.height for n in m.nodes] == [3, 4]
    chains = sorted(a.chain_heights for a in m.arcs)
    assert chains == [(), (2, 1, 0, 1, 2, 3)]


def minimal_cases():
    """(name, graph) pairs for the frozen minimal_structure digests."""
    rng = random.Random(606)
    cases = [(f"example1-{n}", compute_reeb(*gen_example1(n))) for n in (3, 50)]
    cases.append(("example2", compute_reeb(*gen_example2(3))))
    cases.append(("example3", compute_reeb(*gen_example3(3))))
    cases.append(("example4", compute_reeb(*gen_example4(2))))
    # the zoo's column-torus is the 8x8 loop torus of the test above
    cases += [(name, compute_reeb(c, f)) for name, c, f in gen_surface_zoo()]
    for k in range(3):
        cases.append((f"spec-{k}", compute_reeb(*realize(random_spec(rng, max_nodes=10)))))
    c = subdivided_sphere(3)
    cases.append(("sphere", compute_reeb(c, ScalarField([rng.random() for _ in range(c.vertex_count)]))))
    c = grid_torus(6, 6)
    ties = [Fraction(rng.randrange(4), 3) for _ in range(c.vertex_count)]
    cases.append(("tie-torus", compute_reeb(c, ScalarField(ties))))
    graphs = dict(cases)
    # already minimal, with chain heights on its arcs
    cases.append(("example1-3-twice", minimal_structure(graphs["example1-3"])))
    cases.append(("column-torus-twice", minimal_structure(graphs["column-torus"])))
    # hand-built mutants, out of canonical order
    for name in ("example1-3", "example4", "tent-torus", "column-torus", "sphere"):
        cases.append((f"{name}-swapped", with_swapped_endpoint(graphs[name])))
        cases.append((f"{name}-dropped", without_node(graphs[name])))
    return cases


def minimal_outcome(g):
    try:
        m = minimal_structure(g)
    except ReebforgeError as exc:
        return f"{type(exc).__name__}: {exc}"
    return repr((m.nodes, m.arcs, m.vertex_map))


# sha256 of repr((nodes, arcs, vertex_map)) of minimal_structure, or of the
# error it raised, per case of minimal_cases()
FROZEN_MINIMAL_DIGESTS = {
    "example1-3": "251bf8cdf634c3030bae57c477bc0a2c2a0f908764c79d3194a897062c64de7a",
    "example1-50": "e6a869f4ea7661c6a4ad1f464b1fb31338a463bbde7544e4cbeb56b6003efff7",
    "example2": "60a18863c0c61635822cb986002157b0c19ad597a03e7d319b048db53e1a6c3e",
    "example3": "11b975c7ec852ceaab98983a78b275b2eb77b09379409b6ab7d42382bf956977",
    "example4": "21a85e9d32afc4895071f4cc423e682cae860ca29bca960957b6da8e2687208f",
    "tetra": "39da3ef872ab3ee89b51b019848fc5e315fb277c6262b36ceaf961f790cfd66e",
    "octahedron": "b641d34f224e3602689a52ada35cdcb5735fde247d5656b7b89e7269b21fd320",
    "tent-torus": "385547c44ff0e5d6e8b3466dfd45e4e3f7c97db00eaf2bb5a7a9c23b6fac05ad",
    "column-torus": "6f04c522411eb4c7cccb1200a65b9bdcc5d8dce045d82d808f67470047fc65c1",
    "genus2": "575133048a0f5729729b54b288513290ef1710f515b615d0e3bd781365079876",
    "cycle-spec": "6d0a71a4b1c5c284d6f04fe4b425644fe91852fa6b5e7aed9cae0b5a95437b7b",
    "spec-0": "6d0a71a4b1c5c284d6f04fe4b425644fe91852fa6b5e7aed9cae0b5a95437b7b",
    "spec-1": "7eefbeed88370764ddfcc1abe1ba1fa40e5b378572f0ee9c4fd464eaf050f7c8",
    "spec-2": "241798c0ae74f1b29d2a3bcfd83d5c0840b2150be03e870dac57fe7a2d998c86",
    "sphere": "de6d6463ce750263f5b6bd22986e618622b45f9d7d9d0c394cde492bfe559267",
    "tie-torus": "3a950ef39c2c653b9f31b39feee5056ad4288bfaa364af1582744eb56a76bf9b",
    "example1-3-twice": "251bf8cdf634c3030bae57c477bc0a2c2a0f908764c79d3194a897062c64de7a",
    "column-torus-twice": "6f04c522411eb4c7cccb1200a65b9bdcc5d8dce045d82d808f67470047fc65c1",
    "example1-3-swapped": "dece334461bd284467cee3e58672fec0ab310c68cbc0320f268dad5f343c05b3",
    "example1-3-dropped": "7d16914dbc4a2ed54961812acdec17756bc4079bfc50a2b95376f73274c78517",
    "example4-swapped": "4a425006190b166c1462b9e11cebf635acb3f238361f4227f9b569dbd1c3f02a",
    "example4-dropped": "7d16914dbc4a2ed54961812acdec17756bc4079bfc50a2b95376f73274c78517",
    "tent-torus-swapped": "82794e25850961a110606352eb3dd5a69f97128666d4876af908a7a619303f33",
    "tent-torus-dropped": "7d16914dbc4a2ed54961812acdec17756bc4079bfc50a2b95376f73274c78517",
    "column-torus-swapped": "a451a81bdd935f2350e029762b8446237433a9771576af6ad9002bc54446bed5",
    "column-torus-dropped": "7d16914dbc4a2ed54961812acdec17756bc4079bfc50a2b95376f73274c78517",
    "sphere-swapped": "6a50028f8cd7700b649e2dd375d2d5b13acb8b9fe0e8f655e0251350f8ff374a",
    "sphere-dropped": "4eecd239637b8c82970366b753f8a798cd1f6b2eb7801090196093a8597be216",
}


def test_minimal_structure_frozen():
    digests = {
        name: hashlib.sha256(minimal_outcome(g).encode()).hexdigest()
        for name, g in minimal_cases()
    }
    assert digests == FROZEN_MINIMAL_DIGESTS


def test_minimal_structure_returns_minimal_graphs_unchanged():
    c = subdivided_sphere(3)
    rng = random.Random(2)
    g = compute_reeb(c, ScalarField([rng.random() for _ in range(c.vertex_count)]))
    assert minimal_structure(g) is g
    # stale degrees: not what _freeze_graph would build, so it is rebuilt
    swapped = with_swapped_endpoint(g)
    assert minimal_structure(swapped) is not swapped
    # a flat ring at 0 and at 2 joined by two regular cylinders: both
    # nodes have degree 2, and suppressing either would need a self-loop
    c = grid_torus(6, 4)
    rows = (lambda i: 0, lambda i: Fraction(2 * i + 1, 16), lambda i: 2,
            lambda i: Fraction(2 * i + 17, 16))
    g = compute_reeb(c, ScalarField([rows[j](i) for i in range(6) for j in range(4)]))
    assert g._canonical and [n.degree for n in g.nodes] == [2, 2]
    assert minimal_structure(g) is g


def test_uncovered_vertex_error_names_its_records():
    c, f = gen_example1(3)
    with pytest.raises(
        InternalError,
        match="^internal: vertex 0 is on no node or arc in the graph given to minimal_structure$",
    ):
        minimal_structure(without_node(compute_reeb(c, f)))
    node = {"height": 0, "kind": "extremum", "witness": 0, "vertices": (0,)}
    with pytest.raises(
        InternalError,
        match="^internal: vertex 1 is on no node or arc in the records given to _build_graph$",
    ):
        _build_graph([node], [], [("node", 0), None])


def reference_minimal_structure(g):
    """The rescan-after-every-suppression algorithm minimal_structure replaced."""
    nodes = {n.id: n for n in g.nodes}
    recs = {}
    incident = {nid: [] for nid in nodes}
    for a in g.arcs:
        recs[a.id] = {
            "e0": a.lower,
            "e1": a.upper,
            "chain": list(a.chain_heights),
            "w0": a.birth_edge,
            "w1": a.death_edge,
            "interior": list(a.interior_vertices),
        }
        incident[a.lower].append(a.id)
        incident[a.upper].append(a.id)

    def oriented(rec, start):
        if rec["e0"] == start:
            return rec["chain"], rec["interior"], rec["w0"], rec["w1"]
        return rec["chain"][::-1], rec["interior"][::-1], rec["w1"], rec["w0"]

    changed = True
    while changed:
        changed = False
        for nid in sorted(incident, key=lambda i: (nodes[i].height, i)):
            inc = incident[nid]
            if len(inc) != 2 or inc[0] == inc[1]:
                continue
            ra, rb = recs[inc[0]], recs[inc[1]]
            oa = ra["e1"] if ra["e0"] == nid else ra["e0"]
            ob = rb["e1"] if rb["e0"] == nid else rb["e0"]
            if oa == ob:
                continue
            ca, ia, wa, _ = oriented(ra, oa)
            cb, ib, _, wb = oriented(rb, nid)
            keep, drop = inc[0], inc[1]
            recs[keep] = {
                "e0": oa,
                "e1": ob,
                "chain": ca + [nodes[nid].height] + cb,
                "w0": wa,
                "w1": wb,
                "interior": ia + list(nodes[nid].vertices) + ib,
            }
            del recs[drop], incident[nid], nodes[nid]
            incident[ob] = [keep if x == drop else x for x in incident[ob]]
            changed = True
            break

    kept = sorted(nodes)
    tmp_of = {nid: k for k, nid in enumerate(kept)}
    node_rec = [
        {
            "height": nodes[nid].height,
            "kind": nodes[nid].kind,
            "witness": nodes[nid].witness_vertex,
            "vertices": nodes[nid].vertices,
        }
        for nid in kept
    ]
    arc_rec = []
    for aid in sorted(recs):
        r = recs[aid]
        e0, e1, chain, interior, w0, w1 = (
            r["e0"], r["e1"], r["chain"], r["interior"], r["w0"], r["w1"]
        )
        if (nodes[e1].height, nodes[e1].witness_vertex) < (
            nodes[e0].height, nodes[e0].witness_vertex
        ):
            e0, e1, chain, interior, w0, w1 = e1, e0, chain[::-1], interior[::-1], w1, w0
        arc_rec.append(
            {"lower": tmp_of[e0], "upper": tmp_of[e1], "birth": w0, "death": w1,
             "interior": interior, "chain": chain}
        )
    vmap = [None] * len(g.vertex_map)
    for nid in kept:
        for u in nodes[nid].vertices:
            vmap[u] = ("node", tmp_of[nid])
    for k, r in enumerate(arc_rec):
        for u in r["interior"]:
            vmap[u] = ("arc", k)
    return _build_graph(node_rec, arc_rec, vmap)


def random_hand_built_graph(rng):
    """Chains, pure cycles, loops and parallel arcs, listed and oriented at
    random, with tied heights, witnesses and birth edges."""
    n = rng.randrange(1, 6)
    ends = []
    for _ in range(rng.randrange(8)):
        k = rng.choice((0, 1, 2, 4))
        path = [rng.randrange(n), *range(n, n + k), rng.randrange(n)]
        ends += zip(path, path[1:])
        n += k
    for _ in range(rng.randrange(3)):
        cycle = list(range(n, n + rng.randrange(1, 6)))
        ends += zip(cycle, cycle[1:] + cycle[:1])
        n += len(cycle)
    rng.shuffle(ends)
    heights = [Fraction(rng.randrange(6), rng.choice((1, 2))) for _ in range(n)]
    nodes, arcs, vmap, top = [], [], [], 0
    degree = [0] * n
    for x, y in ends:
        degree[x] += 1
        degree[y] += 1
    for i, h in enumerate(heights):
        vs = tuple(range(top, top + rng.randrange(1, 3)))[:: rng.choice((1, -1))]
        top += len(vs)
        nodes.append(ReebNode(i, h, degree[i], "flat-cluster", rng.randrange(3), vs))
        vmap += [("node", i)] * len(vs)
    for k, (x, y) in enumerate(ends):
        if rng.random() < 0.5:
            x, y = y, x
        inner = tuple(range(top, top + rng.randrange(3)))
        top += len(inner)
        chain = tuple(rng.randrange(5) for _ in range(rng.choice((0, 0, 2))))
        arcs.append(ReebArc(k, x, y, rng.randrange(3), rng.randrange(9), inner, chain))
        vmap += [("arc", k)] * len(inner)
    return ReebGraph(nodes, arcs, vmap)


def refrozen(g):
    """g's own records through _freeze_graph: canonical order, derived vertex map."""
    nodes = [
        [getattr(n, f) for n in g.nodes]
        for f in ("height", "kind", "witness_vertex", "vertices")
    ]
    arcs = [
        [getattr(a, f) for a in g.arcs]
        for f in ("lower", "upper", "birth_edge", "death_edge", "interior_vertices", "chain_heights")
    ]
    return _freeze_graph(nodes, arcs, len(g.vertex_map), where="in the refrozen graph")


def test_minimal_structure_matches_the_rescanning_reference():
    rng = random.Random(31)
    for trial in range(400):
        g = random_hand_built_graph(rng)
        # refrozen, it is returned as is when nothing is suppressed and every
        # arc goes up in node order
        for h in (g, refrozen(g)):
            got, want = minimal_structure(h), reference_minimal_structure(h)
            assert repr((got.nodes, got.arcs, got.vertex_map)) == repr(
                (want.nodes, want.arcs, want.vertex_map)
            ), trial


def path_arcs(n):
    return tuple((i, i + 1) for i in range(n - 1))


def test_minimal_structure_is_linear_on_long_chains():
    n = 10_000
    heights = tuple(Fraction(i) for i in range(n))
    path = spec_to_graph(AbstractReebSpec(heights, path_arcs(n)))
    cycle = spec_to_graph(AbstractReebSpec(heights, ((0, n - 1),) + path_arcs(n)))
    t0 = time.perf_counter()
    m = minimal_structure(path)
    t1 = time.perf_counter()
    assert [x.height for x in m.nodes] == [0, n - 1]
    assert [a.chain_heights for a in m.arcs] == [heights[1:-1]]
    assert m.vertex_map == ()
    # on a pure cycle the last two nodes in height order remain
    m = minimal_structure(cycle)
    t2 = time.perf_counter()
    assert [x.height for x in m.nodes] == [n - 2, n - 1]
    assert sorted(a.chain_heights for a in m.arcs) == [(), heights[n - 3::-1]]
    assert t1 - t0 < 2 and t2 - t1 < 2, (t1 - t0, t2 - t1)


def test_graphs_isomorphic_requires_matching_heights():
    c, f, g = tetra_graph()
    octa = build_complex(
        [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1), (5, 1, 2), (5, 2, 3), (5, 3, 4), (5, 4, 1)]
    )
    go = compute_reeb(octa, ScalarField([0, 1, 2, 3, 4, 5]))
    assert graphs_isomorphic(g, g)
    assert not graphs_isomorphic(g, go)  # same shape, different heights


def test_graphs_isomorphic_on_thousands_of_nodes():
    # one search depth per node: a recursive search overflowed the stack here
    c = subdivided_sphere(5)
    rng = random.Random(0)
    g = compute_reeb(c, ScalarField([rng.random() for _ in range(c.vertex_count)]))
    assert len(g.nodes) > 2000
    assert graphs_isomorphic(g, g)
    assert not graphs_isomorphic(g, with_swapped_endpoint(g))


def test_sweep_matches_oracle_with_ties():
    rng = random.Random(20240817)
    for trial in range(25):
        c = random_closed_surface(rng, max_vertices=120)
        n = c.vertex_count
        if trial % 2:
            vals = [Fraction(rng.randrange(0, 6), rng.choice([1, 2, 3])) for _ in range(n)]
        else:
            vals = [rng.random() for _ in range(n)]
        tb = list(range(n))
        rng.shuffle(tb)
        f = ScalarField(vals, tiebreak=tb)
        g = compute_reeb(c, f)
        o = oracle_reeb(c, f)
        assert graphs_isomorphic(g, o), f"trial {trial}"
        assert sorted(n_.height for n_ in g.nodes) == sorted(n_.height for n_ in o.nodes)


def shape(g):
    """Everything of a graph but its node heights."""
    nodes = [(n.id, n.degree, n.kind, n.witness_vertex, n.vertices) for n in g.nodes]
    return nodes, g.arcs, g.vertex_map


def test_only_the_order_of_values_matters():
    # k/32 as Fractions, as ints k and as floats (exact in binary) sort
    # alike, so they give one graph up to its heights
    rng = random.Random(41)
    for trial in range(20):
        c = random_closed_surface(rng, max_vertices=150)
        n = c.vertex_count
        ks = [rng.randrange(33) for _ in range(n)]
        tb = list(range(n))
        if trial % 2:
            rng.shuffle(tb)
        g = compute_reeb(c, ScalarField([Fraction(k, 32) for k in ks], tiebreak=tb))
        for vals in (ks, [k / 32 for k in ks]):
            assert shape(compute_reeb(c, ScalarField(vals, tiebreak=tb))) == shape(g), trial


def test_equal_values_of_mixed_types_form_one_level():
    # 0.5 == Fraction(1, 2) == 2/4: mixed types of one value are one level
    rng = random.Random(42)
    half = (0.5, Fraction(1, 2))
    for trial in range(20):
        c = random_closed_surface(rng, max_vertices=120)
        n = c.vertex_count
        ks = [rng.randrange(5) for _ in range(n)]
        tb = list(range(n))
        rng.shuffle(tb)
        mixed = ScalarField([rng.choice(half) if k == 2 else k / 4 for k in ks], tiebreak=tb)
        g = compute_reeb(c, mixed)
        o = oracle_reeb(c, mixed)
        assert graphs_isomorphic(g, o), trial
        assert [n_.vertices for n_ in g.nodes] == [n_.vertices for n_ in o.nodes], trial
        exact = ScalarField([Fraction(k, 4) for k in ks], tiebreak=tb)
        assert shape(g) == shape(compute_reeb(c, exact)), trial


def test_sweep_matches_oracle_on_boundary_meshes():
    rng = random.Random(77)
    base = [(i, i + 1, i + 7) for i in range(6)] + [(i + 1, i + 7, i + 8) for i in range(6)]
    strip = build_complex(base)
    for trial in range(10):
        c = split_random_triangles(strip, rng, rng.randrange(0, 25))
        vals = [Fraction(rng.randrange(0, 8)) for _ in range(c.vertex_count)]
        f = ScalarField(vals)
        g = compute_reeb(c, f)
        o = oracle_reeb(c, f)
        assert graphs_isomorphic(g, o), f"trial {trial}"


def test_sweep_matches_oracle_on_projective_planes():
    # closed and non-orientable: saddles where every lower wedge is its own
    # contour leave on one contour without a walk, as on closed orientable
    # surfaces
    rng = random.Random(6)
    c = build_complex(RP2)
    for _ in range(3):
        assert c.is_closed_surface and c.euler_characteristic() == 1
        for trial in range(60):
            f = ScalarField(distinct_random_field(rng, c.vertex_count))
            g = compute_reeb(c, f)
            assert graphs_isomorphic(g, oracle_reeb(c, f)), (c, trial)
        c = subdivide(c)


def test_sweep_matches_oracle_on_bounded_surfaces_with_distinct_values():
    # contours that reach the boundary are paths, not cycles: two lower
    # contours merging at an interior saddle may leave on two
    rng = random.Random(11)
    for n in (3, 5, 8):
        grid = []
        for i in range(n):
            for j in range(n):
                a = i * (n + 1) + j
                grid += [(a, a + 1, a + n + 1), (a + 1, a + n + 2, a + n + 1)]
        c = build_complex(grid)
        for trial in range(10):
            f = ScalarField(distinct_random_field(rng, c.vertex_count))
            g = compute_reeb(c, f)
            assert graphs_isomorphic(g, oracle_reeb(c, f)), (n, trial)
