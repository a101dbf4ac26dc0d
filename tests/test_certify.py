"""Structure certificates: passing cases, constructed failures, mutations."""

import hashlib
import random
from fractions import Fraction

import pytest

from helpers import with_swapped_endpoint, without_node
from reebforge.certify import (
    certify_arc_cylindrical,
    certify_arc_embedding,
    certify_graph,
    certify_node_starlike,
)
from reebforge.errors import InputError, ManifoldRequired
from reebforge.fields import ScalarField
from reebforge.export import certificates_to_json_bytes
from reebforge.gallery import (
    AbstractReebSpec,
    gen_example1,
    gen_example4,
    gen_surface_zoo,
    grid_torus,
    realize,
    subdivided_sphere,
)
from reebforge.levels import LevelSlicer
from reebforge.reeb import compute_reeb, minimal_structure
from reebforge.simplicial import build_complex

TETRA = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def tetra_case():
    c = build_complex(TETRA)
    f = ScalarField([Fraction(i) for i in range(4)])
    return c, f, compute_reeb(c, f)


def test_tetra_all_certificates_pass():
    c, f, g = tetra_case()
    cert = certify_graph(g, c, f)
    assert cert.ok and cert.failures() == []
    emb = cert.embedding[0]
    assert emb.monotone and emb.injective and emb.witness is None
    cyl = cert.cylindrical[0]
    assert cyl.seed_active and cyl.lower_attached and cyl.upper_attached
    assert cyl.cuts_tested == 5  # cuts strictly between heights 0 and 3
    assert not cyl.failures
    for st in cert.starlike:
        assert st.piece_count == st.degree == 1
        assert all(stub.arc_id is not None for stub in st.stubs)


def test_zoo_certificates_pass():
    for name, c, f in gen_surface_zoo():
        cert = certify_graph(compute_reeb(c, f), c, f)
        assert cert.ok, f"{name}: {cert.failures()}"


def test_flat_ring_node_is_starlike():
    c, f = gen_example1(2)
    g = compute_reeb(c, f)
    mids = [n for n in g.nodes if n.kind == "flat-cluster"]
    assert len(mids) == 2
    for n in mids:
        st = certify_node_starlike(g, c, f, n.id)
        assert st.ok and st.degree == 2 and st.piece_count == 2


def test_nonmonotone_merged_arc_fails_embedding():
    c, f = gen_example4(1)
    g = compute_reeb(c, f)
    assert all(certify_arc_embedding(g, f, a.id).ok for a in g.arcs)
    m = minimal_structure(g)
    assert len(m.arcs) == 1
    emb = certify_arc_embedding(m, f, 0)
    assert not emb.ok and not emb.monotone
    # the fold revisits the band between 3/8 and 1/2
    assert emb.witness is not None
    assert Fraction(3, 8) < emb.witness[0] < Fraction(1, 2)


def test_duplicate_height_witness_on_deeper_fold():
    c, f = gen_example4(2)
    m = minimal_structure(compute_reeb(c, f))
    failing = [certify_arc_embedding(m, f, a.id) for a in m.arcs]
    failing = [e for e in failing if not e.ok]
    assert len(failing) == 1
    height, i, j = failing[0].witness
    assert height == Fraction(1, 2) and i < j


def test_cylindrical_rejects_merged_arcs():
    c, f = gen_example1(3)
    m = minimal_structure(compute_reeb(c, f))
    with pytest.raises(InputError):
        certify_arc_cylindrical(m, c, f, 0)


def test_stale_seed_edge_reported_with_witness():
    import dataclasses

    c, f, g = tetra_case()
    # point the arc's birth witness at an edge outside its slab
    bad = dataclasses.replace(g.arcs[0], birth_edge=c.edge_id(2, 3))
    broken = type(g)(g.nodes, (bad,), g.vertex_map)
    cyl = certify_arc_cylindrical(broken, c, f, 0)
    assert not cyl.ok and not cyl.seed_active
    assert cyl.failures[0].representatives == (("e", c.edge_id(2, 3)),)


def test_mutations_are_caught():
    cases = []
    c1 = grid_torus(8, 8)
    f1 = ScalarField(
        [Fraction(3 * min(i, 8 - i) + min(j, 8 - j)) for i in range(8) for j in range(8)]
    )
    cases.append((c1, f1))
    c2, f2 = gen_example1(3)
    cases.append((c2, f2))
    for c, f in cases:
        g = compute_reeb(c, f)
        swapped = with_swapped_endpoint(g)
        assert not certify_graph(swapped, c, f).ok
        dropped = without_node(g)
        assert not certify_graph(dropped, c, f).ok


def test_surface_required():
    book = build_complex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    f = ScalarField([0, 1, 2, 3, 4])
    g = compute_reeb(book, f)
    with pytest.raises(ManifoldRequired):
        certify_graph(g, book, f)


def test_boundary_surface_certifies():
    disk = build_complex([(0, 1, 4), (1, 2, 4), (2, 3, 4)])
    f = ScalarField([0, 2, 1, 3, 4])
    g = compute_reeb(disk, f)
    cert = certify_graph(g, disk, f)
    assert cert.ok, cert.failures()


def test_certify_component_walks_stay_linear(monkeypatch):
    # walks jump over cuts where their level set cannot change; walking every
    # cut took about 69 component searches per vertex here
    c = subdivided_sphere(3)
    rng = random.Random(0)
    f = ScalarField([rng.random() for _ in range(c.vertex_count)])
    g = compute_reeb(c, f)
    calls = []
    component = LevelSlicer.component

    def counted(self, t, seed):
        calls.append(t)
        return component(self, t, seed)

    monkeypatch.setattr(LevelSlicer, "component", counted)
    assert certify_graph(g, c, f).ok
    assert len(calls) <= 8 * c.vertex_count


# SHA-256 of certificates_to_json_bytes for (graph, with_swapped_endpoint,
# without_node) per case, written by walks that searched every cut, with
# star-like stubs in the order certify_node_starlike gives them
FROZEN_CERT_DIGESTS = {
    "sphere": (
        "067bd189523b29e4c3c8b04495966f80bab3df53c6cb2bed128b634c86073671",
        "7ed4c71dd9ae0c3e2083b30c30419b727f899634b3507880f11e236b343851de",
        "63bb25b325260d0b1b834a4de9c059e3ccd3ad5e340c274c641b505cb365147b",
    ),
    "torus": (
        "836dc88217f8c873a528cfd9475fee20e3585ace24c1ed9a08af7fd6deb5489b",
        "fd33dc0639646c6a154c1056cfd1ca0d084b1b10aa6eb63344861c05dadb7608",
        "e3318cce67ea696022ca443d496c2b1cfb525828f21d53f29a85aa754f90f10d",
    ),
    "realized": (
        "1d6e06513c8e4a276f22d8078806365e10ae86fe842f5a4e5b105fef958bd419",
        "a9ec6fc53456f065ef39c467eeb9ef3824d8f7ed61d3c887b8d1ca71462fcded",
        "ea1a9c09cc26a117798c9f4f4e8563bf3ef85fc755d6f314afef13a05b1cf12a",
    ),
}


def test_certificate_bytes_frozen():
    rng = random.Random(11)
    sphere = subdivided_sphere(2)
    torus = grid_torus(6, 5)
    cases = {
        "sphere": (sphere, ScalarField([rng.random() for _ in range(sphere.vertex_count)])),
        "torus": (torus, ScalarField([rng.random() for _ in range(torus.vertex_count)])),
        "realized": realize(
            AbstractReebSpec((Fraction(0), Fraction(1), Fraction(2)), ((0, 1), (0, 2)))
        ),
    }
    for name, (c, f) in cases.items():
        g = compute_reeb(c, f)
        certs = [certify_graph(h, c, f) for h in (g, with_swapped_endpoint(g), without_node(g))]
        digests = tuple(
            hashlib.sha256(certificates_to_json_bytes(cert)).hexdigest() for cert in certs
        )
        assert digests == FROZEN_CERT_DIGESTS[name], name
        assert [cert.ok for cert in certs] == [True, False, False], name
    # the swapped realized arc runs past its maximum: every cut above it
    # holds no component, one run of cuts that fails cut by cut
    cyl = certs[1].cylindrical[0]
    assert name == "realized"
    empty = [x for x in cyl.failures if x.representatives == ()]
    assert len(empty) > 1 and all(x.pieces == 1 for x in empty)
