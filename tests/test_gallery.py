"""Generators: abstract specs, surface realization, example families."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import graph_cut_counts, is_orientable, spec_to_graph
from reebforge.errors import InputError, UnrealizableSpec
from reebforge.gallery import (
    RING_RESOLUTION,
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
    _zip_cycles,
)
from reebforge.reeb import compute_reeb, graphs_isomorphic


def test_spec_validation():
    good = AbstractReebSpec((Fraction(0), Fraction(1)), ((0, 1),))
    assert good.validate() == [Fraction(0), Fraction(1)]
    assert good.b1() == 0 and good.component_count() == 1
    lonely = AbstractReebSpec((Fraction(0), Fraction(1), Fraction(5)), ((0, 1),))
    assert lonely.component_count() == 2 and lonely.b1() == 0
    assert spec_to_graph(lonely).components == 2
    for arcs in (((0, 3),), ((0, -1),)):
        spec = AbstractReebSpec((Fraction(0), Fraction(1), Fraction(2)), arcs)
        for query in (spec.component_count, spec.b1, spec.validate):
            with pytest.raises(UnrealizableSpec, match="references a missing node"):
                query()
    with pytest.raises(UnrealizableSpec):
        AbstractReebSpec((), ()).validate()
    with pytest.raises(UnrealizableSpec):
        AbstractReebSpec((Fraction(1), Fraction(1)), ()).validate()
    with pytest.raises(UnrealizableSpec):
        AbstractReebSpec((Fraction(0), Fraction(1)), ((0, 0),)).validate()
    with pytest.raises(UnrealizableSpec):
        AbstractReebSpec((Fraction(0), Fraction(1)), ((0, 2),)).validate()
    with pytest.raises(UnrealizableSpec):
        AbstractReebSpec((Fraction(0), Fraction(1)), ((0, 1), (0, 1)), genus=0).validate()


def test_zip_cycles_band_is_manifold():
    for la, lb in ((8, 8), (4, 8), (8, 5), (3, 11)):
        lower = list(range(la))
        upper = list(range(100, 100 + lb))
        tris = _zip_cycles(lower, upper)
        assert len(tris) == la + lb
        edge_use = Counter()
        for t in tris:
            a, b, d = t
            assert len({a, b, d}) == 3
            for u, w in ((a, b), (b, d), (a, d)):
                edge_use[(min(u, w), max(u, w))] += 1
        lower_edges = {(min(lower[i], lower[(i + 1) % la]), max(lower[i], lower[(i + 1) % la])) for i in range(la)}
        upper_edges = {(min(upper[j], upper[(j + 1) % lb]), max(upper[j], upper[(j + 1) % lb])) for j in range(lb)}
        for e, k in edge_use.items():
            if e in lower_edges or e in upper_edges:
                assert k == 1, e
            else:
                assert k == 2, e  # cross edges interior to the band


def test_realize_simple_path():
    spec = AbstractReebSpec(tuple(Fraction(i) for i in range(3)), ((0, 1), (1, 2)))
    c, f = realize(spec)
    assert c.is_closed_surface
    assert c.euler_characteristic() == 2
    assert is_orientable(c)
    g = compute_reeb(c, f)
    assert graphs_isomorphic(g, spec_to_graph(spec))


def test_realize_cycle_is_a_torus():
    spec = AbstractReebSpec((Fraction(0), Fraction(1)), ((0, 1), (0, 1)))
    c, f = realize(spec)
    assert c.is_closed_surface
    assert c.euler_characteristic() == 0
    assert is_orientable(c)
    g = compute_reeb(c, f)
    assert g.b1 == 1
    assert graphs_isomorphic(g, spec_to_graph(spec))


def test_realize_isolated_and_star_nodes():
    spec = AbstractReebSpec(
        (Fraction(0), Fraction(1), Fraction(2), Fraction(3)),
        ((0, 1), (1, 2), (1, 3)),
    )
    c, f = realize(spec)
    g = compute_reeb(c, f)
    assert graphs_isomorphic(g, spec_to_graph(spec))

    lonely = AbstractReebSpec((Fraction(0), Fraction(1), Fraction(5)), ((0, 1),))
    c2, f2 = realize(lonely)
    g2 = compute_reeb(c2, f2)
    assert g2.components == 2
    assert graphs_isomorphic(g2, spec_to_graph(lonely))


def test_realize_genus_matches_euler_characteristic():
    spec = AbstractReebSpec(
        tuple(Fraction(i) for i in range(6)),
        ((0, 1), (1, 2), (1, 2), (2, 3), (3, 4), (3, 4), (4, 5)),
        genus=2,
    )
    c, f = realize(spec)
    assert c.is_closed_surface
    assert is_orientable(c)
    assert c.euler_characteristic() == 2 - 2 * 2
    assert compute_reeb(c, f).b1 == 2


def test_realize_ring_floor():
    spec = AbstractReebSpec((Fraction(0), Fraction(1)), ((0, 1),))
    with pytest.raises(InputError):
        realize(spec, ring=3)
    c, f = realize(spec, ring=4)
    assert c.is_closed_surface
    assert graphs_isomorphic(compute_reeb(c, f), spec_to_graph(spec))


def test_random_specs_round_trip():
    rng = random.Random(99)
    for _ in range(25):
        spec = random_spec(rng, max_nodes=12)
        c, f = realize(spec)
        assert c.is_closed_surface
        assert is_orientable(c)
        g = compute_reeb(c, f)
        assert graphs_isomorphic(g, spec_to_graph(spec))


def test_example1_structure():
    c, f = gen_example1(4)
    assert c.is_closed_surface
    g = compute_reeb(c, f)
    assert g.stats()["nodes"] == 6
    heights = [n.height for n in g.nodes]
    assert heights == sorted(heights)
    assert heights[1:-1] == [Fraction(k, 5) for k in range(1, 5)]
    with pytest.raises(InputError):
        gen_example1(-1)


def test_example2_structure():
    c, f = gen_example2(4)
    assert c.is_closed_surface
    g = compute_reeb(c, f)
    assert [n.height for n in g.nodes] == [Fraction(-1), Fraction(0), Fraction(1)]
    assert g.nodes[1].kind == "flat-cluster"
    with pytest.raises(InputError):
        gen_example2(0)


def test_example3_structure():
    c, f = gen_example3(2)
    g = compute_reeb(c, f)
    assert g.stats() == {"nodes": 7, "arcs": 6, "b1": 0, "loops": 0, "components": 1}
    assert max(k for _, k in graph_cut_counts(g)) == 2
    with pytest.raises(InputError):
        gen_example3(-1)


def test_example4_structure():
    c, f = gen_example4()
    g = compute_reeb(c, f)
    assert [n.height for n in g.nodes] == [Fraction(0), Fraction(3, 8), Fraction(1, 2)]
    assert g.degree_histogram() == {1: 2, 2: 1}
    c0, f0 = gen_example4(0)
    assert compute_reeb(c0, f0).stats()["nodes"] == 2
    with pytest.raises(InputError):
        gen_example4(-1)


def test_zoo_names_and_shapes():
    zoo = dict((name, (c, f)) for name, c, f in gen_surface_zoo())
    assert set(zoo) == {
        "tetra", "octahedron", "tent-torus", "column-torus", "genus2", "cycle-spec",
    }
    for name, (c, f) in zoo.items():
        assert c.is_closed_surface, name
        assert len(f) == c.vertex_count, name


def test_subdivided_sphere_sizes():
    for level in range(4):
        c = subdivided_sphere(level)
        assert len(c.triangles) == 8 * 4**level
        assert c.euler_characteristic() == 2
        assert c.is_closed_surface
    with pytest.raises(InputError):
        subdivided_sphere(-1)


def test_grid_torus_guard():
    with pytest.raises(InputError):
        grid_torus(2, 5)
    assert grid_torus(3, 3).is_closed_surface


def test_ring_resolution_constant():
    assert RING_RESOLUTION >= 4
