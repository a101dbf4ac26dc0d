"""Reeb graphs of piecewise-linear scalar fields on simplicial complexes.

Core pipeline: build a complex (simplicial), attach a vertex field (fields),
sweep it into a Reeb graph (reeb), then optionally certify the structural
guarantees (certify), cross-check against a brute-force oracle (oracle) and
serialize (export). gallery generates reference surfaces and realizes
abstract graph specs; cli wires everything into a command-line tool.
"""

from .certify import (
    CutFailure,
    CylindricalCertificate,
    EmbeddingCertificate,
    GraphCertificate,
    StarlikeCertificate,
    certify_arc_cylindrical,
    certify_arc_embedding,
    certify_graph,
    certify_node_starlike,
)
from .errors import (
    CountMismatch,
    DegenerateSimplex,
    InputError,
    InternalError,
    InvalidBarycentric,
    ManifoldRequired,
    NonFiniteValue,
    ReebforgeError,
    UnrealizableSpec,
)
from .export import (
    graph_to_dot,
    graph_to_json_bytes,
    graph_to_json_dict,
    write_dot,
    write_json,
)
from .fields import (
    CriticalityReport,
    ScalarField,
    classify_vertices,
    load_field,
    loads_field,
    total_order,
    write_field,
)
from .gallery import (
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
)
from .levels import ContourRef, LevelSlicer, level_components
from .oracle import oracle_reeb, oracle_size_limit
from .reeb import (
    ReebArc,
    ReebGraph,
    ReebNode,
    compute_reeb,
    graphs_isomorphic,
    minimal_structure,
    quotient_point,
)
from .simplicial import (
    SimplicialComplex,
    build_complex,
    connected_components,
    from_simplices,
    load_off,
    loads_off,
    vertex_link,
    write_off,
)

__version__ = "0.1.0"

__all__ = [
    "AbstractReebSpec",
    "ContourRef",
    "CountMismatch",
    "CriticalityReport",
    "CutFailure",
    "CylindricalCertificate",
    "DegenerateSimplex",
    "EmbeddingCertificate",
    "GraphCertificate",
    "InputError",
    "InternalError",
    "InvalidBarycentric",
    "LevelSlicer",
    "ManifoldRequired",
    "NonFiniteValue",
    "ReebArc",
    "ReebGraph",
    "ReebNode",
    "ReebforgeError",
    "RING_RESOLUTION",
    "ScalarField",
    "SimplicialComplex",
    "StarlikeCertificate",
    "UnrealizableSpec",
    "build_complex",
    "certify_arc_cylindrical",
    "certify_arc_embedding",
    "certify_graph",
    "certify_node_starlike",
    "classify_vertices",
    "compute_reeb",
    "connected_components",
    "from_simplices",
    "gen_example1",
    "gen_example2",
    "gen_example3",
    "gen_example4",
    "gen_surface_zoo",
    "graph_to_dot",
    "graph_to_json_bytes",
    "graph_to_json_dict",
    "graphs_isomorphic",
    "grid_torus",
    "level_components",
    "load_field",
    "load_off",
    "loads_field",
    "loads_off",
    "minimal_structure",
    "oracle_reeb",
    "oracle_size_limit",
    "quotient_point",
    "random_spec",
    "realize",
    "subdivided_sphere",
    "total_order",
    "vertex_link",
    "write_dot",
    "write_field",
    "write_json",
    "write_off",
]
