"""Structure certificates: passing cases, constructed failures, mutations."""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from helpers import random_closed_surface, with_swapped_endpoint, without_node
from reebforge.certify import (
    CutFailure,
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
from reebforge.reeb import ReebGraph, compute_reeb, minimal_structure
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


def test_arc_from_the_top_value_fails_without_a_cut_above():
    c, f, g = tetra_case()
    # the reversed arc's lower end sits at height 3, the field's top value,
    # so no cut lies above it to hold the birth edge
    (arc,) = g.arcs
    reversed_arc = dataclasses.replace(arc, lower=arc.upper, upper=arc.lower)
    cert = certify_graph(type(g)(g.nodes, (reversed_arc,), g.vertex_map), c, f)
    cyl = cert.cylindrical[0]
    assert not cert.ok and not cyl.ok and not cyl.seed_active
    assert cyl.cuts_tested == 0
    assert cyl.failures == (
        CutFailure(
            value=Fraction(3),
            side="above",
            pieces=0,
            representatives=(("e", arc.birth_edge),),
        ),
    )


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


def test_stub_toward_a_node_at_its_own_height_walks_one_cut():
    # minimal_structure merges arcs into ones whose two ends can share a
    # height; such a stub's end cut lies behind its first cut
    level = []
    for seed in range(60):
        rng = random.Random(seed)
        c = random_closed_surface(rng, max_vertices=20)
        f = ScalarField([Fraction(rng.randrange(3)) for _ in range(c.vertex_count)])
        m = minimal_structure(compute_reeb(c, f))
        for node in m.nodes:
            for stub in certify_node_starlike(m, c, f, node.id).stubs:
                if stub.arc_id is None:
                    continue
                arc = m.arcs[stub.arc_id]
                other = arc.upper if stub.direction == "up" else arc.lower
                if m.nodes[other].height == node.height:
                    level.append(stub)
                else:
                    assert stub.cuts_walked >= 1
    assert len(level) == 5
    assert all(stub.cuts_walked == 1 and not stub.failures for stub in level)


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


def random_field_sphere():
    c = subdivided_sphere(3)
    rng = random.Random(0)
    f = ScalarField([rng.random() for _ in range(c.vertex_count)])
    return c, f, compute_reeb(c, f)


def test_certify_component_walks_stay_linear(monkeypatch):
    # walks jump over cuts where their level set cannot change, and up-stubs
    # read their strand's record: walking every cut took about 69 component
    # searches per vertex here, walking up-stubs again 5.12
    c, f, g = random_field_sphere()
    calls = []
    component = LevelSlicer.component

    def counted(self, t, seed):
        calls.append(t)
        return component(self, t, seed)

    monkeypatch.setattr(LevelSlicer, "component", counted)
    assert certify_graph(g, c, f).ok
    assert len(calls) <= 4.8 * c.vertex_count


def test_certify_memory_stays_small():
    # certify_graph keeps no component beyond the walk that found it, and
    # one strand record per arc: a memo of every (cut, item) search took
    # about 3.9 MB here
    c, f, g = random_field_sphere()
    tracemalloc.start()
    try:
        assert certify_graph(g, c, f).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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


# SHA-256 of certificates_to_json_bytes for two mutants of the zoo's
# tent-torus (heights 0, 4, 12, 16; arcs 0-1, 1-2 twice, 2-3) whose
# star-like stubs meet a change in their component count: "down" moves the
# lower end of the arc into the top node to the bottom node, "up" moves
# the upper end of the arc out of the bottom node to the top node
FROZEN_STUB_DIGESTS = {
    "down": "f65747680adc2c0107bc44302653601c5dfaa249cdf7f7e20814b8518f67f92a",
    "up": "c545a880a0172f5eb40cb765ed1417d78f7546659c41263c228d5f7e83dd551c",
}


def test_stub_walk_failures_frozen():
    import dataclasses

    (c, f), = [(c, f) for name, c, f in gen_surface_zoo() if name == "tent-torus"]
    g = compute_reeb(c, f)
    top = len(g.nodes) - 1

    def moved(pick, **ends):
        arcs = list(g.arcs)
        a = next(a for a in arcs if pick(a))
        arcs[a.id] = dataclasses.replace(a, **ends)
        return type(g)(g.nodes, arcs, g.vertex_map)

    mutants = {
        "down": moved(lambda a: a.upper == top, lower=0),
        "up": moved(lambda a: a.lower == 0, upper=top),
    }
    # the walked stub splits in two just past the saddle it crosses
    expected = {"down": (top, Fraction(23, 2)), "up": (0, Fraction(9, 2))}
    for direction, m in mutants.items():
        cert = certify_graph(m, c, f)
        digest = hashlib.sha256(certificates_to_json_bytes(cert)).hexdigest()
        assert digest == FROZEN_STUB_DIGESTS[direction], direction
        walked = [
            (st.node_id, stub)
            for st in cert.starlike
            for stub in st.stubs
            if stub.arc_id is not None and stub.failures
        ]
        assert len(walked) == 1, direction
        node_id, stub = walked[0]
        assert (node_id, stub.failures[0].value) == expected[direction]
        assert stub.direction == direction and stub.failures[0].pieces == 3
        assert stub.cuts_walked == 9


def moved_end(g, rng):
    """The graph with one random arc end moved to a random node."""
    arcs = list(g.arcs)
    a = rng.choice(arcs)
    end = rng.choice(("lower", "upper"))
    arcs[a.id] = dataclasses.replace(a, **{end: rng.randrange(len(g.nodes))})
    return ReebGraph(g.nodes, arcs, g.vertex_map)


def test_up_stubs_read_off_the_strand_match_walked_stubs():
    # certify_graph reads up-stubs off the strand walks of their arcs, and
    # certify_node_starlike walks every stub
    rng = random.Random(4)
    cases = []
    for c, f in [
        (subdivided_sphere(2), None),
        (grid_torus(6, 5), None),
        realize(AbstractReebSpec((Fraction(0), Fraction(1), Fraction(2)), ((0, 1), (0, 2)))),
        *((random_closed_surface(rng, max_vertices=60), None) for _ in range(6)),
    ]:
        f = f or ScalarField([rng.random() for _ in range(c.vertex_count)])
        g = compute_reeb(c, f)
        mutants = [g, with_swapped_endpoint(g), without_node(g)]
        mutants += [moved_end(g, rng) for _ in range(4)]
        cases += [(m, c, f) for m in mutants]
    (c, f), = [(c, f) for name, c, f in gen_surface_zoo() if name == "tent-torus"]
    g = compute_reeb(c, f)
    top = len(g.nodes) - 1
    for pick, ends in (
        (lambda a: a.upper == top, {"lower": 0}),
        (lambda a: a.lower == 0, {"upper": top}),
    ):
        arcs = list(g.arcs)
        a = next(a for a in arcs if pick(a))
        arcs[a.id] = dataclasses.replace(a, **ends)
        cases.append((ReebGraph(g.nodes, arcs, g.vertex_map), c, f))

    failed_up = 0
    for m, c, f in cases:
        starlike = certify_graph(m, c, f).starlike
        assert starlike == tuple(certify_node_starlike(m, c, f, n.id) for n in m.nodes)
        failed_up += sum(
            1
            for st in starlike
            for stub in st.stubs
            if stub.direction == "up" and stub.arc_id is not None and stub.failures
        )
    # the tent-torus mutant's up-stub that splits at 9/2, and others
    assert failed_up >= 2


# certificates of mutants of a computed graph whose arc's upper end moved to
# a node below its lower end; their attachment checks take a seed from items
# the strand's one cut hands to a cut below it, which lie in several
# components there
HASH_SEED_SCRIPT = """
import dataclasses, hashlib, random
from reebforge.certify import certify_graph
from reebforge.export import certificates_to_json_bytes
from reebforge.fields import ScalarField
from reebforge.gallery import subdivided_sphere
from reebforge.reeb import ReebGraph, compute_reeb

c = subdivided_sphere(2)
rng = random.Random(0)
f = ScalarField([rng.random() for _ in range(c.vertex_count)])
g = compute_reeb(c, f)
for arc_id, node_id in ((9, 3), (18, 4), (19, 9), (20, 13)):
    assert g.nodes[node_id].height < g.nodes[g.arcs[arc_id].lower].height
    arcs = list(g.arcs)
    arcs[arc_id] = dataclasses.replace(arcs[arc_id], upper=node_id)
    cert = certify_graph(ReebGraph(g.nodes, arcs, g.vertex_map), c, f)
    print(hashlib.sha256(certificates_to_json_bytes(cert)).hexdigest())
"""


def test_mutant_certificates_do_not_depend_on_hash_seed():
    outs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert len(outs[0].split()) == 4
    assert outs[0] == outs[1]
