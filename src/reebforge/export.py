"""Serialization of Reeb graphs to JSON and DOT with stable output bytes.

Heights are written exactly: rationals as "p/q" (or a bare integer), floats
via repr so they round-trip. Output ordering follows the graph's canonical
node/arc order, so identical inputs always produce identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .fields import format_value

__all__ = [
    "graph_to_json_dict",
    "graph_to_json_bytes",
    "graph_to_dot",
    "certificates_to_json_bytes",
    "write_text_atomic",
    "write_json",
    "write_dot",
]


def graph_to_json_dict(g):
    nodes = [
        {
            "id": n.id,
            "height": format_value(n.height),
            "degree": n.degree,
            "kind": n.kind,
            "witness_vertex": n.witness_vertex,
        }
        for n in g.nodes
    ]
    arcs = [{"id": a.id, "lower": a.lower, "upper": a.upper} for a in g.arcs]
    return {
        "nodes": nodes,
        "arcs": arcs,
        "b1": g.b1,
        "components": g.components,
    }


_JSON_NODE = (
    '    {\n      "degree": %d,\n      "height": %s,\n      "id": %d,\n'
    '      "kind": %s,\n      "witness_vertex": %d\n    }'
)
_JSON_ARC = '    {\n      "id": %d,\n      "lower": %d,\n      "upper": %d\n    }'


def _json_list(items):
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def graph_to_json_bytes(g):
    """The bytes of json.dumps(graph_to_json_dict(g), indent=2, sort_keys=True)
    plus a newline.

    The fixed schema is written directly, because indented json.dumps runs
    the pure-Python encoder. Strings go through the json module's ASCII
    escaping; ids and counts are ints.
    """
    arcs = [_JSON_ARC % (a.id, a.lower, a.upper) for a in g.arcs]
    nodes = [
        _JSON_NODE
        % (
            n.degree,
            encode_basestring_ascii(format_value(n.height)),
            n.id,
            encode_basestring_ascii(n.kind),
            n.witness_vertex,
        )
        for n in g.nodes
    ]
    text = '{\n  "arcs": %s,\n  "b1": %d,\n  "components": %d,\n  "nodes": %s\n}\n' % (
        _json_list(arcs), g.b1, g.components, _json_list(nodes),
    )
    return text.encode("ascii")


def graph_to_dot(g):
    """Undirected DOT rendering; node labels are "id@height"."""
    lines = ["graph reeb {"]
    for n in g.nodes:
        lines.append('  n%d [label="%d@%s"];' % (n.id, n.id, format_value(n.height)))
    for a in g.arcs:
        lines.append("  n%d -- n%d;" % (a.lower, a.upper))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return format_value(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def certificates_to_json_bytes(cert):
    """Serialize a GraphCertificate (nested dataclasses) deterministically."""
    payload = dataclasses.asdict(cert)
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)
    return (text + "\n").encode("ascii")


def write_text_atomic(path, data):
    """Write via a sibling temp file plus rename so readers never see partial files."""
    if isinstance(data, str):
        data = data.encode("ascii")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".reebforge-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path, g):
    write_text_atomic(path, graph_to_json_bytes(g))


def write_dot(path, g):
    write_text_atomic(path, graph_to_dot(g))
