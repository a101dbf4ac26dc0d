"""The slab-walking reference construction and its guard rails."""

import hashlib
import random
from fractions import Fraction

import pytest

from helpers import split_random_triangles
from reebforge.errors import InputError
from reebforge.export import graph_to_json_bytes
from reebforge.fields import ScalarField
from reebforge.gallery import grid_torus, subdivided_sphere
from reebforge.oracle import oracle_reeb, oracle_size_limit
from reebforge.simplicial import build_complex, from_simplices

TETRA = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]

DOUBLE_CONE = [
    (0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4), (0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 0, 5)
]

# sha256 of graph_to_json_bytes, then of repr((arcs, vertex_map)), which
# adds the birth/death edges and interiors the JSON leaves out
FROZEN_ORACLE_DIGESTS = {
    "sphere": (
        "691da22e94b6e78e991676d4a987f52c3b3c5bc646edac65c73221aa89bbcdd0",
        "90b5c3b9a2b0e04e2ff11f8ab22ac8037ce745230f8270a227aae7ce1a2e8dd7",
    ),
    "ties": (
        "4962a60cff65342eb2fcccf3bc9eaa8b56f13eae07ae3b9dc354318a53b521a9",
        "e0bb4ba98e4808a0ab226a031e62d7987970602a5a44f89ecf9d5cc745bfcfbf",
    ),
    "double-cone": (
        "0b4782cc419113a7b75e1295f1364cff899e088335548dba81a2d30db1043931",
        "73cc4d570b6a6cc4fd0b012963719212fc75bc56849f47017ab4b6ce73b5a0e1",
    ),
    "disk": (
        "5ec261cc2f0754901facbce84eb589224c3382d0188178bd4f7e94a86a2c6cdf",
        "e2dffa2412c220e225e79fd6b928b7bc28f51897023f847574c549cdc7301f70",
    ),
    "bowtie": (
        "db85ead4d295381bed277e5e8358e908a59ef50a6e1843bd1baad5df56e01a0a",
        "d6bb36a0f242bedf9bcf956195b5440189b6eaac3b78f8a032d09ff3759ccd68",
    ),
    "bare-edge": (
        "1732987c4f8ff5ac0d60f1f1fe1c1c3acebedad3aab5203ec8dfe71fa3f09bde",
        "69e6ec164538f4cd33438042c733befcbff4930af012fb606001b4f0e9954b3f",
    ),
}


def grid_disk(n):
    tris = []
    for i in range(n):
        for j in range(n):
            a = i * (n + 1) + j
            tris += [(a, a + 1, a + n + 1), (a + 1, a + n + 2, a + n + 1)]
    return build_complex(tris)


def test_tetra_frozen():
    g = oracle_reeb(build_complex(TETRA), ScalarField([Fraction(i) for i in range(4)]))
    assert g.stats() == {"nodes": 2, "arcs": 1, "b1": 0, "loops": 0, "components": 1}
    assert [(n.height, n.kind) for n in g.nodes] == [(0, "extremum"), (3, "extremum")]
    assert g.arcs[0].interior_vertices == (1, 2)
    assert g.vertex_map == (("node", 0), ("arc", 0), ("arc", 0), ("node", 1))


def test_flat_equator_single_node():
    # double cone over a square whose equator is one flat cluster
    c = build_complex(
        [(0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4), (0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 0, 5)]
    )
    f = ScalarField([0, 0, 0, 0, -1, 1])
    g = oracle_reeb(c, f)
    assert g.stats() == {"nodes": 3, "arcs": 2, "b1": 0, "loops": 0, "components": 1}
    mid = g.nodes[1]
    assert mid.kind == "flat-cluster"
    assert mid.vertices == (0, 1, 2, 3)


def oracle_digest_cases():
    rng = random.Random(5)
    sphere = subdivided_sphere(2)
    # a 150-vertex torus with k/32 values, as the CLI cross-check sees them
    ties = split_random_triangles(grid_torus(4, 5), rng, 130)
    disk = grid_disk(5)
    return {
        "sphere": (sphere, ScalarField([rng.random() for _ in range(sphere.vertex_count)])),
        "ties": (
            ties,
            ScalarField([Fraction(rng.randrange(33), 32) for _ in range(ties.vertex_count)]),
        ),
        "double-cone": (build_complex(DOUBLE_CONE), ScalarField([0, 0, 0, 0, -1, 1])),
        "disk": (disk, ScalarField([rng.randrange(5) for _ in range(disk.vertex_count)])),
        # two triangles sharing only vertex 2
        "bowtie": (build_complex([(0, 1, 2), (2, 3, 4)]), ScalarField([0, 2, 1, 0, 2])),
        # a bare edge hanging off a triangle, plus an isolated vertex
        "bare-edge": (
            from_simplices([(0, 1, 2), (2, 3), (4,)]),
            ScalarField([0, 2, 1, 3, 1]),
        ),
    }


def test_oracle_bytes_frozen():
    for name, (c, f) in oracle_digest_cases().items():
        g = oracle_reeb(c, f)
        digests = (
            hashlib.sha256(graph_to_json_bytes(g)).hexdigest(),
            hashlib.sha256(repr((g.arcs, g.vertex_map)).encode()).hexdigest(),
        )
        assert digests == FROZEN_ORACLE_DIGESTS[name], name


def test_size_limit_enforced(monkeypatch):
    c = subdivided_sphere(2)  # 66 vertices
    f = ScalarField([float(v) for v in range(c.vertex_count)])
    with pytest.raises(InputError):
        oracle_reeb(c, f, limit=10)
    monkeypatch.setenv("REEBFORGE_ORACLE_MAX", "10")
    assert oracle_size_limit() == 10
    with pytest.raises(InputError):
        oracle_reeb(c, f)
    monkeypatch.setenv("REEBFORGE_ORACLE_MAX", "banana")
    with pytest.raises(InputError):
        oracle_size_limit()


def test_empty_and_degenerate_fields():
    c = build_complex([], vertex_count=0)
    assert oracle_reeb(c, ScalarField([])).stats()["nodes"] == 0
    one = build_complex([], vertex_count=1)
    g = oracle_reeb(one, ScalarField([Fraction(5)]))
    assert g.stats() == {"nodes": 1, "arcs": 0, "b1": 0, "loops": 0, "components": 1}
    assert g.nodes[0].kind == "extremum"


def test_oracle_is_independent_of_the_sweep():
    # the reference path must not delegate to the implementation under test
    import inspect

    import reebforge.oracle as oracle_module

    src = inspect.getsource(oracle_module)
    assert "compute_reeb" not in src
    assert "LevelSlicer" not in src
    assert "from .levels" not in src and "reebforge.levels" not in src
