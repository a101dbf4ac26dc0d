"""Machine-checkable certificates for Reeb graph structure.

Three checks, all constructive:

* certify_arc_embedding: the height sequence along an arc is strictly
  monotone, so the arc maps injectively into graph x height. Failures
  carry two equal-height path positions.
* certify_arc_cylindrical: the arc's open preimage is an honest cylinder;
  removing any single level contour leaves exactly two pieces. The walk
  also confirms the strand attaches to both claimed endpoint contours.
* certify_node_starlike: the punctured truncated preimage neighborhood of
  a node decomposes into exactly degree-many cylindrical stubs, one per
  incident arc end.

One cut walk, _runs, follows components from cut to cut, up or down, for
the arc's strand and for each star-like stub. It steps over runs of cuts
where LevelSlicer.next_change shows that their components cannot change,
and yields each run once. The cylindrical check reads every run, and a
failing run reports one CutFailure per cut; a stub stops at the first run
that is not one piece. cuts_tested and cuts_walked still count every cut a
walk spans, jumped or not.

Certification requires a surface complex; extraction does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, ManifoldRequired
from .levels import AT, LevelSlicer

__all__ = [
    "CutFailure",
    "EmbeddingCertificate",
    "CylindricalCertificate",
    "StubReport",
    "StarlikeCertificate",
    "GraphCertificate",
    "certify_arc_embedding",
    "certify_arc_cylindrical",
    "certify_node_starlike",
    "certify_graph",
]


def _require_surface(c):
    if not c.is_surface:
        raise ManifoldRequired("certification requires a surface complex")


@dataclass(frozen=True)
class CutFailure:
    """A cut where a piece-count check failed, with piece representatives."""

    value: object
    side: str
    pieces: int
    representatives: tuple


@dataclass(frozen=True)
class EmbeddingCertificate:
    arc_id: int
    monotone: bool
    injective: bool
    witness: object  # None, or (height, i, j): equal-height path positions

    @property
    def ok(self):
        return self.injective


@dataclass(frozen=True)
class CylindricalCertificate:
    arc_id: int
    ok: bool
    seed_active: bool
    lower_attached: bool
    upper_attached: bool
    cuts_tested: int
    failures: tuple


@dataclass(frozen=True)
class StubReport:
    direction: str  # "up" or "down"
    arc_id: object  # matched incident arc id, or None
    cuts_walked: int
    failures: tuple


@dataclass(frozen=True)
class StarlikeCertificate:
    node_id: int
    ok: bool
    degree: int
    piece_count: int
    stubs: tuple


@dataclass(frozen=True)
class GraphCertificate:
    ok: bool
    embedding: tuple
    cylindrical: tuple
    starlike: tuple

    def failures(self):
        out = []
        for cert in self.embedding:
            if not cert.ok:
                out.append(("embedding", cert.arc_id, cert.witness))
        for cert in self.cylindrical:
            if not cert.ok:
                out.append(("cylindrical", cert.arc_id, cert.failures))
        for cert in self.starlike:
            if not cert.ok:
                out.append(("starlike", cert.node_id, cert.stubs))
        return out


# -- embedding ---------------------------------------------------------------


def certify_arc_embedding(g, field, arc_id):
    """Strict monotonicity of the height sequence along one arc.

    The sequence is the lower node height, the heights of the stored
    interior vertices in path order (absorbed nodes of merged arcs appear
    here too), and the upper node height. Adjacent equal heights collapse:
    they describe one contour, not two path points.
    """
    arc = g.arcs[arc_id]
    seq = [g.nodes[arc.lower].height]
    for u in arc.interior_vertices:
        seq.append(field.values[u])
    seq.append(g.nodes[arc.upper].height)
    dedup = [seq[0]]
    for x in seq[1:]:
        if x != dedup[-1]:
            dedup.append(x)

    monotone = all(a < b for a, b in zip(dedup, dedup[1:]))
    witness = None
    if not monotone:
        first = {}
        for i, x in enumerate(dedup):
            if x in first:
                witness = (x, first[x], i)
                break
            first[x] = i
        if witness is None:
            for i in range(len(dedup) - 2):
                a, b, cc = dedup[i], dedup[i + 1], dedup[i + 2]
                if (a < b) != (b < cc):
                    lo = max(min(a, b), min(b, cc))
                    hi = min(max(a, b), max(b, cc))
                    witness = ((lo + hi) / 2, i, i + 1)
                    break
    return EmbeddingCertificate(
        arc_id=arc_id, monotone=monotone, injective=monotone, witness=witness
    )


# -- cut walk -----------------------------------------------------------------


def _runs(slicer, comps, t, t_end, step):
    """The one cut walk: runs of cuts from t toward t_end, following comps.

    comps are whole components at cut t, and step is +1 going up or -1
    going down. Yields (t, n, comps, links): the n cuts from t on, in the
    walk's direction, all hold the component list comps, because
    slicer.next_change saw no item change between them. links pairs
    indices of the previous run's comps with indices of comps; it is empty
    for the first run. Cut t is walked even when t_end lies behind it.
    """
    links = []
    while True:
        t_next = slicer.next_change(comps, t, step)
        if (t_next - t_end) * step > 0:
            yield t, max((t_end - t) * step, 0) + 1, comps, links
            return
        yield t, (t_next - t) * step, comps, links
        nxt = []
        links = []
        # each item of a component found so far, to the index of its component
        comp_of = {}
        for i, comp in enumerate(comps):
            for seed in slicer.advance(comp, t_next - step, step):
                j = comp_of.get(seed)
                if j is None:
                    j = len(nxt)
                    found = slicer.component(t_next, seed)
                    nxt.append(found)
                    comp_of.update(dict.fromkeys(found, j))
                if (i, j) not in links:
                    links.append((i, j))
        comps = nxt
        t = t_next


# -- cylindrical --------------------------------------------------------------


def certify_arc_cylindrical(g, c, field, arc_id, slicer=None):
    """Walk the arc's strand and test the two-piece property at every cut."""
    _require_surface(c)
    arc = g.arcs[arc_id]
    if arc.chain_heights:
        raise InputError(
            "cylindrical certification applies to height-monotone arcs only"
        )
    if slicer is None:
        slicer = LevelSlicer(c, field)
    t_lo = slicer.cut_of(g.nodes[arc.lower].height, AT)
    t_hi = slicer.cut_of(g.nodes[arc.upper].height, AT)
    t0 = t_lo + 1
    if not slicer.edge_active(arc.birth_edge, t0):
        value, side = slicer.cut_position(t0)
        return CylindricalCertificate(
            arc_id=arc_id,
            ok=False,
            seed_active=False,
            lower_attached=False,
            upper_attached=False,
            cuts_tested=0,
            failures=(
                CutFailure(
                    value=value,
                    side=side,
                    pieces=0,
                    representatives=(("e", arc.birth_edge),),
                ),
            ),
        )

    seed = [slicer.component(t0, ("e", arc.birth_edge))]
    runs = list(_runs(slicer, seed, t0, t_hi - 1, 1))
    r = len(runs)

    lower_vs = set(g.nodes[arc.lower].vertices)
    upper_vs = set(g.nodes[arc.upper].vertices)
    seeds_down = slicer.advance(runs[0][2][0], t0, -1)
    below = slicer.component(t_lo, seeds_down[0]) if seeds_down else frozenset()
    lower_attached = any(("v", u) in below for u in lower_vs)
    top = runs[-1][2]
    upper_attached = bool(top)
    for comp in top:
        seeds_up = slicer.advance(comp, t_hi - 1, +1)
        above = slicer.component(t_hi, seeds_up[0]) if seeds_up else frozenset()
        if not any(("v", u) in above for u in upper_vs):
            upper_attached = False

    # suffix component counts via reverse incremental union-find over
    # (run, index) instances; the piece below any cut is always connected
    failures = []
    suffix_count = [0] * r
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    count = 0
    for s in range(r - 1, -1, -1):
        for i in range(len(runs[s][2])):
            parent[(s, i)] = (s, i)
            count += 1
        if s < r - 1:
            for i, j in runs[s + 1][3]:
                ri, rj = find((s, i)), find((s + 1, j))
                if ri != rj:
                    parent[rj] = ri
                    count -= 1
        suffix_count[s] = count

    # pieces above a cut: the suffix from the next cut on. Within a run this
    # is the suffix after the run: a run of several cuts ends on a mid cut,
    # and from a mid cut to the next at cut components only merge, so the
    # run's instances add nothing to the count of the suffix above them
    for s, (t, n, comps, _) in enumerate(runs):
        pieces = 1 + (suffix_count[s + 1] if s + 1 < r else len(comps))
        if len(comps) == 1 and pieces == 2:
            continue
        reps = tuple(sorted(min(comp) for comp in comps))
        for p in range(n):
            value, side = slicer.cut_position(t + p)
            failures.append(
                CutFailure(value=value, side=side, pieces=pieces, representatives=reps)
            )

    ok = lower_attached and upper_attached and not failures
    return CylindricalCertificate(
        arc_id=arc_id,
        ok=ok,
        seed_active=True,
        lower_attached=lower_attached,
        upper_attached=upper_attached,
        cuts_tested=sum(run[1] for run in runs),
        failures=tuple(failures),
    )


# -- star-like ----------------------------------------------------------------


def _truncation_cut(slicer, h_node, h_other, upward):
    """Mid cut bounding the stub: the gap holding the half-way height.

    When the half-way height lands exactly on a vertex value the adjacent
    mid cut on the node side is used, so the cut never sits on a level of
    the mesh.
    """
    target = (h_node + h_other) / 2
    t = slicer.cut_of(target, AT)
    if t % 2 == 0:
        t = t - 1 if upward else t + 1
    return t


def certify_node_starlike(g, c, field, node_id, slicer=None):
    """Decompose the node's truncated punctured preimage into stubs."""
    _require_surface(c)
    node = g.nodes[node_id]
    if slicer is None:
        slicer = LevelSlicer(c, field)
    t_n = slicer.cut_of(node.height, AT)
    contour = slicer.component(t_n, ("v", node.witness_vertex))

    # up pieces before down pieces, each side ordered by its minimum item:
    # the order of the sets they are found from follows string hashing
    pieces = []
    for direction, step in (("up", 1), ("down", -1)):
        seeds = slicer.advance(contour, t_n, step)
        comps = slicer.components_from(t_n + step, seeds)
        pieces.extend((direction, step, comp) for comp in sorted(comps, key=min))

    if node.degree == 0:
        ok = not pieces and c.component_of(node.witness_vertex) == set(
            node.vertices
        )
        return StarlikeCertificate(
            node_id=node_id,
            ok=ok,
            degree=0,
            piece_count=len(pieces),
            stubs=(),
        )

    incident = [g.arcs[aid] for aid in g.node_arcs(node_id)]
    up_arcs = {a.id: a for a in incident if a.lower == node_id}
    down_arcs = {a.id: a for a in incident if a.upper == node_id}

    stubs = []
    ok = len(pieces) == node.degree
    used_arcs = set()
    for direction, step, comp in pieces:
        flist = []
        if direction == "up":
            cands = [
                aid for aid, a in up_arcs.items() if ("e", a.birth_edge) in comp
            ]
        else:
            cands = [
                aid for aid, a in down_arcs.items() if ("e", a.death_edge) in comp
            ]
        arc_id = cands[0] if len(cands) == 1 else None
        if arc_id is None:
            ok = False
            value, side = slicer.cut_position(t_n + step)
            flist.append(
                CutFailure(
                    value=value,
                    side=side,
                    pieces=len(cands),
                    representatives=(min(comp),),
                )
            )
            stubs.append(
                StubReport(
                    direction=direction,
                    arc_id=None,
                    cuts_walked=0,
                    failures=tuple(flist),
                )
            )
            continue
        used_arcs.add(arc_id)
        arc = g.arcs[arc_id]
        other = arc.upper if direction == "up" else arc.lower
        t_end = _truncation_cut(
            slicer, node.height, g.nodes[other].height, direction == "up"
        )
        walked = 0
        for t, n, comps, _ in _runs(slicer, [comp], t_n + step, t_end, step):
            if len(comps) == 1:
                walked += n
                continue
            # the stub ends on the first cut where it is not one piece
            walked += 1
            value, side = slicer.cut_position(t)
            flist.append(
                CutFailure(
                    value=value,
                    side=side,
                    pieces=1 + len(comps),
                    representatives=tuple(sorted(min(x) for x in comps)),
                )
            )
            ok = False
            break
        stubs.append(
            StubReport(
                direction=direction,
                arc_id=arc_id,
                cuts_walked=walked,
                failures=tuple(flist),
            )
        )
    unmatched = (set(up_arcs) | set(down_arcs)) - used_arcs
    if unmatched:
        ok = False
    return StarlikeCertificate(
        node_id=node_id,
        ok=ok,
        degree=node.degree,
        piece_count=len(pieces),
        stubs=tuple(stubs),
    )


def certify_graph(g, c, field):
    """Run every certificate; ok only when all individual checks pass."""
    _require_surface(c)
    slicer = LevelSlicer(c, field)
    embedding = tuple(
        certify_arc_embedding(g, field, a.id) for a in g.arcs
    )
    cylindrical = tuple(
        certify_arc_cylindrical(g, c, field, a.id, slicer=slicer) for a in g.arcs
    )
    starlike = tuple(
        certify_node_starlike(g, c, field, n.id, slicer=slicer) for n in g.nodes
    )
    ok = (
        all(x.ok for x in embedding)
        and all(x.ok for x in cylindrical)
        and all(x.ok for x in starlike)
    )
    return GraphCertificate(
        ok=ok, embedding=embedding, cylindrical=cylindrical, starlike=starlike
    )
