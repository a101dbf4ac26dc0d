"""Complex construction, link classification, and OFF round-trips."""

import pytest

from reebforge.errors import DegenerateSimplex, InputError
from reebforge.gallery import grid_torus
from reebforge.simplicial import (
    build_complex,
    connected_components,
    dumps_off,
    from_simplices,
    loads_off,
    vertex_link,
)

TETRA = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_faces_closed_and_sorted():
    c = build_complex(TETRA)
    assert c.vertex_count == 4
    assert len(c.edges) == 6
    assert c.edges == tuple(sorted(c.edges))
    assert all(a < b for a, b in c.edges)
    assert c.triangles == tuple(sorted(tuple(sorted(t)) for t in TETRA))


def test_edge_ids_follow_lexicographic_order():
    c = build_complex(TETRA)
    assert c.edge_id(1, 0) == c.edge_id(0, 1) == 0
    for i, (a, b) in enumerate(c.edges):
        assert c.edge_id(a, b) == i
    assert c.has_edge(2, 3)
    assert c.has_triangle(3, 1, 2)


def test_triangle_edges_alignment():
    c = build_complex(TETRA)
    for ti, (a, b, d) in enumerate(c.triangles):
        ab, ad, bd = c.triangle_edges()[ti]
        assert c.edges[ab] == (a, b)
        assert c.edges[ad] == (a, d)
        assert c.edges[bd] == (b, d)
        for e in (ab, ad, bd):
            assert ti in c.edge_triangles(e)


def test_degenerate_simplices_rejected():
    with pytest.raises(DegenerateSimplex):
        build_complex([(0, 0, 1)])
    with pytest.raises(InputError):
        build_complex([(0, 1, -1)])
    with pytest.raises(InputError):
        build_complex([(0, 1, 5)], vertex_count=3)


def test_euler_characteristic():
    assert build_complex(TETRA).euler_characteristic() == 2
    assert grid_torus(5, 4).euler_characteristic() == 0


def test_link_kinds_sphere_and_disk():
    c = build_complex(TETRA)
    assert all(c.link_kind(v) == "cycle" for v in range(4))
    assert c.is_surface and c.is_closed_surface

    fan = build_complex([(0, 1, 2), (0, 2, 3), (0, 3, 4)])
    assert fan.link_kind(0) == "path"
    assert fan.is_surface and not fan.is_closed_surface
    assert fan.is_boundary_vertex(1)
    assert fan.boundary_link_ends(0) == (1, 4)


def test_nonmanifold_detected():
    # three pages on one spine: edge (0, 1) sits in three triangles
    book = build_complex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert not book.is_surface
    assert book.link_kind(0) == "other"
    with pytest.raises(InputError):
        book.boundary_link_ends(0)


def test_link_kinds_of_nonmanifold_vertices():
    # bowtie: two triangles sharing only vertex 0
    bowtie = build_complex([(0, 1, 2), (0, 3, 4)])
    assert bowtie.link_kind(0) == "other"
    assert bowtie.link_kind(1) == "path"
    assert not bowtie.is_surface

    # pinched double cone: two tetrahedron boundaries glued at vertex 0,
    # whose link is two disjoint cycles
    cones = build_complex(TETRA + [(0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)])
    assert cones.link_kind(0) == "other"
    assert cones.link_kind(1) == "cycle"
    assert cones.link_kind(4) == "cycle"
    assert not cones.is_surface

    # a bare edge hanging off a triangle's corner
    hanging = from_simplices([(0, 1, 2), (0, 3)])
    assert hanging.link_kind(0) == "other"
    assert hanging.link_kind(1) == "path"
    assert hanging.link_kind(3) == "other"
    assert not hanging.is_surface

    lonely = build_complex([(0, 1, 2)], vertex_count=4)
    assert lonely.link_kind(3) == "isolated"
    assert lonely.link_kind(0) == "path"
    assert not lonely.is_surface


def test_vertex_link_view():
    c = build_complex(TETRA)
    lk = vertex_link(c, 0)
    assert lk.kind == "cycle"
    assert lk.vertices == (1, 2, 3)
    assert lk.edges == ((1, 2), (1, 3), (2, 3))
    with pytest.raises(InputError):
        vertex_link(c, 9)


def test_connected_components_and_subsets():
    c = build_complex([(0, 1, 2), (3, 4, 5)])
    assert connected_components(c) == [[0, 1, 2], [3, 4, 5]]
    assert connected_components(c, vertices=[0, 1, 4]) == [[0, 1], [4]]
    # explicit edges replace the complex's; edges leaving the subset are dropped
    assert connected_components(c, edges=[(4, 1)]) == [[0], [1, 4], [2], [3], [5]]
    assert connected_components(c, vertices=[5, 2, 0, 4], edges=[(2, 0), (4, 5), (2, 3)]) == [
        [0, 2],
        [4, 5],
    ]
    assert c.component_count() == 2
    assert c.component_of(4) == {3, 4, 5}


def test_boundary_edges_of_strip():
    strip = build_complex([(0, 1, 2), (1, 2, 3)])
    inner = strip.edge_id(1, 2)
    assert inner not in strip.boundary_edge_ids
    assert len(strip.boundary_edge_ids) == 4


def test_from_simplices_mixed_dimensions():
    c = from_simplices([(0, 1, 2, 3)])
    assert len(c.triangles) == 4 and len(c.edges) == 6
    assert c.dim == 3
    assert not c.is_surface  # solid tetrahedra are not surfaces
    with pytest.raises(InputError):
        from_simplices([(0, 1, 2, 3, 4)])


def test_off_round_trip():
    coords = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]
    c = build_complex(TETRA, coordinates=coords)
    text = dumps_off(c)
    c2 = loads_off(text)
    assert c2.triangles == c.triangles
    assert c2.coordinates == c.coordinates
    assert dumps_off(c2) == text


def test_off_header_variants_and_errors():
    plain = "OFF\n3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
    assert loads_off(plain).triangles == ((0, 1, 2),)
    inline = "OFF 3 1 3\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n# trailing comment\n"
    assert loads_off(inline).vertex_count == 3
    with pytest.raises(InputError):
        loads_off("")
    with pytest.raises(InputError):  # quad face
        loads_off("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2 0\n")
    with pytest.raises(InputError):  # face index out of range
        loads_off("OFF\n2 1 0\n0 0 0\n1 0 0\n3 0 1 2\n")
    with pytest.raises(InputError):  # truncated body
        loads_off("OFF\n3 1 0\n0 0 0\n1 0 0\n")
