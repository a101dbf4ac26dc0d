"""Sweep extraction: frozen small cases, quotient map, suppression, fuzzing."""

import random
from fractions import Fraction

import pytest

from helpers import (
    distinct_random_field,
    random_closed_surface,
    split_random_triangles,
    subdivide,
    with_swapped_endpoint,
)
from reebforge.errors import InvalidBarycentric
from reebforge.fields import ScalarField
from reebforge.gallery import gen_example1, grid_torus, subdivided_sphere
from reebforge.oracle import oracle_reeb
from reebforge.reeb import (
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
