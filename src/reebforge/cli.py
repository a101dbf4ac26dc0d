"""Command-line front end: compute, certify, cross-check and export Reeb graphs.

Exit codes: 0 success, 1 input or usage error, 2 computed fine but a
certificate (or the oracle cross-check) failed. A failed internal
consistency check (InternalError) also exits 1, with one
"error: internal: ..." line on stderr and no traceback. The stdout summary
line is "nodes=<N> arcs=<A> b1=<b> loops=<L> components=<C>" per instance.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

from .certify import certify_graph
from .errors import ReebforgeError
from .export import (
    certificates_to_json_bytes,
    graph_to_dot,
    graph_to_json_bytes,
    write_text_atomic,
)
from .fields import ScalarField, format_value, load_field
from .gallery import (
    gen_example1,
    gen_example2,
    gen_example3,
    gen_example4,
    gen_surface_zoo,
    subdivided_sphere,
)
from .oracle import oracle_reeb, oracle_size_limit
from .reeb import compute_reeb, graphs_isomorphic
from .simplicial import dumps_off, load_off

GENERATORS = {
    "example1": (gen_example1, 3),
    "example2": (gen_example2, 4),
    "example3": (gen_example3, 4),
    "example4": (gen_example4, 1),
}


def _summary(g):
    s = g.stats()
    return "nodes=%(nodes)d arcs=%(arcs)d b1=%(b1)d loops=%(loops)d components=%(components)d" % s


def _export(outdir, g, c, field, cert, formats, with_instance):
    os.makedirs(outdir, exist_ok=True)
    if "json" in formats:
        write_text_atomic(os.path.join(outdir, "reeb.json"), graph_to_json_bytes(g))
    if "dot" in formats:
        write_text_atomic(os.path.join(outdir, "reeb.dot"), graph_to_dot(g))
    if cert is not None:
        write_text_atomic(
            os.path.join(outdir, "certs.json"), certificates_to_json_bytes(cert)
        )
    if with_instance or "off" in formats:
        write_text_atomic(os.path.join(outdir, "mesh.off"), dumps_off(c))
        body = "".join(format_value(x) + "\n" for x in field.values)
        write_text_atomic(os.path.join(outdir, "field.txt"), body)
    if with_instance:
        stats = json.dumps(g.stats(), indent=2, sort_keys=True) + "\n"
        write_text_atomic(os.path.join(outdir, "stats.json"), stats)


def _process(label, c, field, args, outdir, with_instance=False):
    """Compute, optionally certify/cross-check, print a summary, export."""
    g = compute_reeb(c, field)
    prefix = f"{label}: " if label else ""
    print(prefix + _summary(g))
    status = 0
    cert = None
    if args.certify:
        cert = certify_graph(g, c, field)
        if not cert.ok:
            status = 2
            for kind, ident, detail in cert.failures():
                print(f"{prefix}certificate-failure {kind} id={ident}: {detail}")
    if args.oracle:
        if c.vertex_count <= oracle_size_limit():
            ref = oracle_reeb(c, field)
            if graphs_isomorphic(g, ref):
                print(prefix + "oracle-match")
            else:
                status = 2
                print(prefix + "oracle-mismatch")
        else:
            print(
                f"{prefix}oracle-skipped: {c.vertex_count} vertices exceed "
                f"limit {oracle_size_limit()}"
            )
    if outdir is not None:
        _export(outdir, g, c, field, cert, args.formats, with_instance)
    return status


def _parse_formats(text):
    formats = [f.strip() for f in text.split(",") if f.strip()]
    bad = set(formats) - {"json", "dot", "off"}
    if bad:
        raise ReebforgeError(f"unknown export format(s): {', '.join(sorted(bad))}")
    return formats or ["json"]


def cmd_run(args):
    args.formats = _parse_formats(args.format)
    c = load_off(args.mesh)
    field = load_field(args.field, c)
    return _process(None, c, field, args, args.out)


def cmd_gen(args):
    args.formats = _parse_formats(args.format)
    if args.name == "zoo":
        status = 0
        for name, c, field in gen_surface_zoo():
            sub = os.path.join(args.out, name) if args.out else None
            status = max(status, _process(name, c, field, args, sub, True))
        return status
    if args.name not in GENERATORS:
        known = ", ".join(sorted(GENERATORS) + ["zoo"])
        raise ReebforgeError(f"unknown generator {args.name!r} (known: {known})")
    fn, default_n = GENERATORS[args.name]
    c, field = fn(args.n if args.n is not None else default_n)
    return _process(None, c, field, args, args.out, True)


def cmd_bench(args):
    if args.name == "sphere":
        level = args.n if args.n is not None else 7
        c = subdivided_sphere(level)
        rng = random.Random(args.seed)
        field = ScalarField([rng.random() for _ in range(c.vertex_count)])
    elif args.name in GENERATORS:
        fn, default_n = GENERATORS[args.name]
        c, field = fn(args.n if args.n is not None else default_n)
    else:
        known = ", ".join(sorted(GENERATORS) + ["sphere"])
        raise ReebforgeError(f"unknown bench input {args.name!r} (known: {known})")
    start = time.perf_counter()
    g = compute_reeb(c, field)
    elapsed = time.perf_counter() - start
    report = dict(g.stats())
    report.update(
        {
            "input": args.name,
            "vertices": c.vertex_count,
            "triangles": len(c.triangles),
            "seconds": round(elapsed, 6),
        }
    )
    print(json.dumps(report, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_text_atomic(os.path.join(args.out, "reeb.json"), graph_to_json_bytes(g))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse exits 2 on usage errors; 2 is kept for failed checks
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    p = _Parser(
        prog="reebforge",
        description="Reeb graphs of piecewise-linear fields on simplicial complexes",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--certify", action="store_true", help="run the certificate suite")
        sp.add_argument("--oracle", action="store_true", help="cross-check against the slab oracle")
        sp.add_argument("--out", metavar="DIR", default=None, help="write artifacts into DIR")
        sp.add_argument("--format", default="json", help="comma list from json,dot,off")

    runp = sub.add_parser("run", help="compute from an OFF mesh and a field file")
    runp.add_argument("mesh")
    runp.add_argument("field")
    common(runp)
    runp.set_defaults(func=cmd_run)

    genp = sub.add_parser("gen", help="generate a gallery instance and compute")
    genp.add_argument("name", help="example1|example2|example3|example4|zoo")
    genp.add_argument("--n", type=int, default=None, help="generator parameter")
    common(genp)
    genp.set_defaults(func=cmd_gen)

    benchp = sub.add_parser("bench", help="time compute_reeb on a generated instance")
    benchp.add_argument("name", help="example generators or 'sphere'")
    benchp.add_argument("--n", type=int, default=None, help="generator parameter / subdivision level")
    benchp.add_argument("--seed", type=int, default=0, help="seed of the random sphere field")
    benchp.add_argument("--out", metavar="DIR", default=None, help="write reeb.json into DIR")
    benchp.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReebforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
