"""Sweep against the slab oracle beyond closed surfaces, and bare-edge refusal.

Every family gets shuffled tiebreaks: the sweep resolves ties by them,
while the oracle never reads them, so both must still give one graph.
"""

import random
import re
from fractions import Fraction

import pytest

from helpers import split_random_triangles
from reebforge.errors import InputError
from reebforge.fields import ScalarField
from reebforge.gallery import grid_torus, subdivided_sphere
from reebforge.oracle import oracle_reeb
from reebforge.reeb import compute_reeb, graphs_isomorphic
from reebforge.simplicial import SimplicialComplex, build_complex, from_simplices


def triangle_soup(rng):
    """Random triangles on few vertices: non-manifold edges, shared corners, isolated vertices."""
    while True:
        n = rng.randrange(3, 10)
        tris = [tuple(rng.sample(range(n), 3)) for _ in range(rng.randrange(1, 2 * n))]
        c = build_complex(tris, vertex_count=n)
        if not c.is_surface:
            return c


def fan(apex, rim):
    """Triangles of the cone from apex over the closed cycle rim."""
    return [(apex, rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]


def pinched_cones(rng):
    """Two or three cones over cycles whose apexes are one vertex."""
    tris = []
    nv = 1
    for _ in range(rng.randrange(2, 4)):
        k = rng.randrange(3, 7)
        tris += fan(0, list(range(nv, nv + k)))
        nv += k
    return build_complex(tris)


def pinched_surface(rng):
    """A small closed surface with two far-apart vertices made one."""
    base = subdivided_sphere(1) if rng.random() < 0.5 else grid_torus(4, 5)
    c = split_random_triangles(base, rng, rng.randrange(8, 20))
    u = rng.randrange(c.vertex_count)
    near = {u, *c.neighbors(u)}
    for w in c.neighbors(u):
        near.update(c.neighbors(w))
    far = [w for w in range(c.vertex_count) if w not in near]
    w = rng.choice(far)
    relabel = {x: x - (x > w) for x in range(c.vertex_count)}
    relabel[w] = relabel[u]
    tris = [tuple(relabel[p] for p in t) for t in c.triangles]
    return build_complex(tris, vertex_count=c.vertex_count - 1)


def tie_field(rng, n):
    if rng.random() < 0.5:
        vals = [rng.randrange(3) for _ in range(n)]
    else:
        vals = [Fraction(rng.randrange(9), 4) for _ in range(n)]
    tb = list(range(n))
    rng.shuffle(tb)
    return ScalarField(vals, tiebreak=tb)


def float_field(rng, n):
    tb = list(range(n))
    rng.shuffle(tb)
    return ScalarField([rng.random() for _ in range(n)], tiebreak=tb)


def assert_sweep_matches_oracle(c, f, label):
    g = compute_reeb(c, f)
    o = oracle_reeb(c, f)
    assert graphs_isomorphic(g, o), label
    assert [n.vertices for n in g.nodes] == [n.vertices for n in o.nodes], label


def test_sweep_matches_oracle_on_nonmanifold_complexes():
    rng = random.Random(31)
    for trial in range(300):
        family = (triangle_soup, pinched_cones, pinched_surface)[trial % 3]
        c = family(rng)
        assert not c.is_surface and not c.bare_edge_ids, (family.__name__, trial)
        make = float_field if trial % 2 else tie_field
        assert_sweep_matches_oracle(c, make(rng, c.vertex_count), (family.__name__, trial))


def test_sweep_matches_oracle_on_tie_heavy_fields():
    # few distinct values: large flat clusters, flat triangles and saddles
    # on shared levels
    rng = random.Random(32)
    for trial in range(100):
        base = subdivided_sphere(1) if trial % 2 else grid_torus(3, 4)
        c = split_random_triangles(base, rng, rng.randrange(0, 60))
        assert_sweep_matches_oracle(c, tie_field(rng, c.vertex_count), trial)


def test_bare_edge_is_input_error():
    with pytest.raises(InputError, match=re.escape("edge (0, 1) lies in no triangle")):
        compute_reeb(from_simplices([(0, 1), (1, 2)]), ScalarField([0, 1, 2]))


def test_random_complexes_with_bare_edges_are_refused():
    rng = random.Random(33)
    refused = 0
    for trial in range(200):
        n = rng.randrange(2, 10)
        tris = [tuple(rng.sample(range(n), 3)) for _ in range(rng.randrange(0, n))] if n > 2 else []
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(1, 4))]
        c = SimplicialComplex(n, edges=edges, triangles=tris)
        f = tie_field(rng, n) if trial % 2 else float_field(rng, n)
        bare = [e for e in c.edges if not any(set(e) <= set(t) for t in c.triangles)]
        if bare:
            refused += 1
            with pytest.raises(InputError, match=re.escape(f"edge {bare[0]} lies in no triangle")):
                compute_reeb(c, f)
        else:
            assert_sweep_matches_oracle(c, f, trial)
    assert refused > 100
