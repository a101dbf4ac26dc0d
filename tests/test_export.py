"""JSON/DOT serialization and atomic file writes."""

import dataclasses
import json
import os
import random
from fractions import Fraction

import pytest

from reebforge.certify import (
    CutFailure,
    CylindricalCertificate,
    GraphCertificate,
    certify_arc_embedding,
)
from reebforge.export import (
    certificates_to_json_bytes,
    graph_to_dot,
    graph_to_json_bytes,
    graph_to_json_dict,
    write_dot,
    write_json,
    write_text_atomic,
)
from helpers import spec_to_graph
from reebforge.fields import ScalarField
from reebforge.gallery import gen_example4, random_spec, subdivided_sphere
from reebforge.reeb import ReebGraph, compute_reeb, minimal_structure
from reebforge.simplicial import build_complex


def tetra():
    c = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    return c, ScalarField([Fraction(i) for i in range(4)])


def test_json_dict_shape():
    c, f = tetra()
    g = compute_reeb(c, f)
    d = graph_to_json_dict(g)
    assert d == {
        "nodes": [
            {"id": 0, "height": "0", "degree": 1, "kind": "extremum", "witness_vertex": 0},
            {"id": 1, "height": "3", "degree": 1, "kind": "extremum", "witness_vertex": 3},
        ],
        "arcs": [{"id": 0, "lower": 0, "upper": 1}],
        "b1": 0,
        "components": 1,
    }


def test_json_bytes_stable():
    c, f = tetra()
    blob1 = graph_to_json_bytes(compute_reeb(c, f))
    blob2 = graph_to_json_bytes(compute_reeb(*tetra()))
    assert blob1 == blob2
    assert blob1.endswith(b"\n")
    text = blob1.decode("ascii")
    assert json.loads(text)["b1"] == 0
    # key order inside the bytes is sorted, not insertion order
    assert text.index('"arcs"') < text.index('"b1"') < text.index('"nodes"')


def test_json_bytes_match_indented_json_dumps():
    # three disjoint tetrahedra: a node at the lowest and highest value of each
    tetras = [
        (a + k, b + k, d + k)
        for k in (0, 4, 8)
        for a, b, d in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
    ]
    floats = [-2.5, -1.0, -0.5, -0.0, 1e-20, 0.01, 0.05, 0.1, 0.2, 1.5, 3.0, 1e300]
    ints = compute_reeb(build_complex(tetras[:4]), ScalarField([0, 1, 2, 3]))
    c = subdivided_sphere(3)
    rng = random.Random(8)
    sphere = compute_reeb(c, ScalarField([rng.random() for _ in range(c.vertex_count)]))
    odd = dataclasses.replace(ints.nodes[0], kind='qu"ote\\ \u00e9\n')
    graphs = [
        ReebGraph((), (), ()),
        compute_reeb(*tetra()),
        ints,
        compute_reeb(build_complex(tetras), ScalarField(floats)),
        spec_to_graph(random_spec(rng, max_nodes=12)),
        sphere,
        ReebGraph((odd,) + ints.nodes[1:], ints.arcs, ints.vertex_map),
    ]
    assert [n.height for n in graphs[3].nodes] == [-2.5, -0.0, 1e-20, 0.1, 0.2, 1e300]
    for g in graphs:
        text = json.dumps(graph_to_json_dict(g), indent=2, sort_keys=True) + "\n"
        assert graph_to_json_bytes(g) == text.encode("ascii")


def test_dot_rendering():
    c, f = tetra()
    dot = graph_to_dot(compute_reeb(c, f))
    assert dot.splitlines() == [
        "graph reeb {",
        '  n0 [label="0@0"];',
        '  n1 [label="1@3"];',
        "  n0 -- n1;",
        "}",
    ]
    assert dot.endswith("}\n")


def test_certificates_json_fractions_and_sets():
    c, f = gen_example4()
    g = minimal_structure(compute_reeb(c, f))
    emb = certify_arc_embedding(g, f, 0)
    cert = GraphCertificate(ok=False, embedding=(emb,), cylindrical=(), starlike=())
    payload = json.loads(certificates_to_json_bytes(cert).decode("ascii"))
    assert payload["ok"] is False
    wit = payload["embedding"][0]["witness"]
    assert wit[0] == "7/16" and wit[1] < wit[2]

    fake = GraphCertificate(
        ok=False,
        embedding=(),
        cylindrical=(
            CylindricalCertificate(
                arc_id=0,
                ok=False,
                seed_active=True,
                lower_attached=True,
                upper_attached=False,
                cuts_tested=3,
                failures=(
                    CutFailure(
                        value=Fraction(1, 2),
                        side="at",
                        pieces=3,
                        representatives=frozenset({("e", 3), ("e", 1)}),
                    ),
                ),
            ),
        ),
        starlike=(),
    )
    payload = json.loads(certificates_to_json_bytes(fake).decode("ascii"))
    failure = payload["cylindrical"][0]["failures"][0]
    assert failure["value"] == "1/2"
    assert failure["representatives"] == [["e", 1], ["e", 3]]

    unserializable = GraphCertificate(
        ok=True, embedding=(), cylindrical=(), starlike=((object(),),)
    )
    with pytest.raises(TypeError):
        certificates_to_json_bytes(unserializable)


def test_write_text_atomic(tmp_path):
    target = tmp_path / "out.txt"
    write_text_atomic(str(target), "hello\n")
    assert target.read_bytes() == b"hello\n"
    write_text_atomic(str(target), b"bytes win\n")
    assert target.read_bytes() == b"bytes win\n"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".reebforge-")]
    assert leftovers == []


def test_write_json_and_dot(tmp_path):
    c, f = tetra()
    g = compute_reeb(c, f)
    jpath, dpath = tmp_path / "g.json", tmp_path / "g.dot"
    write_json(str(jpath), g)
    write_dot(str(dpath), g)
    assert jpath.read_bytes() == graph_to_json_bytes(g)
    assert dpath.read_text() == graph_to_dot(g)
