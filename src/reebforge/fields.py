"""Vertex scalar fields, symbolic tie-breaking, and PL criticality.

Values may repeat; a tiebreak permutation makes the induced vertex order
total, so every combinatorial question ("is this neighbor below?") has one
answer. Which level-set components exist depends only on that order: the
sweep and classify_vertices sort the vertices once, then compare positions
in the sorted order. Values are compared again only to find equal ones
(flat clusters, the sweep's runs of one value) and come back unchanged as
node heights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import CountMismatch, InputError, ManifoldRequired, NonFiniteValue
from .simplicial import _pair_components

__all__ = [
    "ScalarField",
    "total_order",
    "CriticalityReport",
    "classify_vertices",
    "load_field",
    "loads_field",
    "write_field",
]


def _check_value(x, where):
    if isinstance(x, float):
        if not math.isfinite(x):
            raise NonFiniteValue(f"{where}: non-finite value {x!r}")
    elif not isinstance(x, (int, Fraction)):
        raise InputError(f"{where}: unsupported value type {type(x).__name__}")


class ScalarField:
    """One value per vertex plus a tiebreak permutation.

    values: rationals (int / Fraction) or finite floats, mixed freely.
    tiebreak: bijection [0, V) -> [0, V); defaults to the identity, so
    ties resolve by vertex id.
    """

    __slots__ = ("values", "tiebreak")

    def __init__(self, values, tiebreak=None):
        vals = tuple(values)
        for i, x in enumerate(vals):
            _check_value(x, f"value {i}")
        if tiebreak is None:
            tb = tuple(range(len(vals)))
        else:
            tb = tuple(tiebreak)
            if len(tb) != len(vals) or sorted(tb) != list(range(len(vals))):
                raise InputError("tiebreak must be a permutation of vertex ids")
        self.values = vals
        self.tiebreak = tb

    def __len__(self):
        return len(self.values)

    def value(self, v):
        return self.values[v]

    def key(self, v):
        """Total-order sort key (value, tiebreak)."""
        return (self.values[v], self.tiebreak[v])

    def below(self, v, w):
        """True when v precedes w in the total order."""
        return self.key(v) < self.key(w)


def total_order(field, v, w):
    """Compare two vertices in the tie-broken order: -1, 0 (v == w) or +1."""
    if v == w:
        return 0
    return -1 if field.below(v, w) else 1


@dataclass(frozen=True)
class CriticalityReport:
    """Per-vertex PL classification of a field on a surface.

    classes[v] is one of "minimum", "maximum", "regular", "saddle",
    "boundary-critical". multiplicity[v] is max(L, U) - 1 for saddles and
    0 otherwise, where L and U count lower/upper link components in the
    tie-broken order. flat[v] marks vertices sharing their exact value
    with a neighbor; flatness is reported separately from the class.
    flat_clusters are the maximal equal-value edge-connected vertex sets.
    """

    classes: tuple[str, ...]
    multiplicity: tuple[int, ...]
    flat: tuple[bool, ...]
    flat_clusters: tuple[tuple[int, ...], ...]

    def count(self, cls):
        return sum(1 for c in self.classes if c == cls)

    @property
    def counts(self):
        out = {}
        for c in self.classes:
            out[c] = out.get(c, 0) + 1
        return out

    @property
    def flat_count(self):
        return sum(1 for f in self.flat if f)

    def critical_vertices(self):
        return tuple(
            v for v, c in enumerate(self.classes) if c != "regular" or self.flat[v]
        )

    def link_critical_values(self, field):
        """Distinct values at vertices whose link classification is critical."""
        vals = {field.values[v] for v, c in enumerate(self.classes) if c != "regular"}
        return tuple(sorted(vals))

    def flat_values(self, field):
        """Distinct values carried by flat clusters."""
        vals = {field.values[cl[0]] for cl in self.flat_clusters}
        return tuple(sorted(vals))

    def morse_sum(self):
        """Sum of (minima + maxima - saddle multiplicities)."""
        total = 0
        for c, m in zip(self.classes, self.multiplicity):
            if c in ("minimum", "maximum"):
                total += 1
            elif c == "saddle":
                total -= m
        return total


def _sweep_order(field):
    """Vertices sorted by field.key, and each vertex's position in that order.

    Two stable sorts, by tiebreak and then by value, build the order
    without key tuples.
    """
    order = sorted(range(len(field)), key=field.tiebreak.__getitem__)
    order.sort(key=field.values.__getitem__)
    pos = [0] * len(order)
    for i, v in enumerate(order):
        pos[v] = i
    return order, pos


def _link_class(c, pos, v, maybe_boundary):
    """(class, multiplicity) of v from its lower and upper link components
    in the order given by pos. The class is "minimum", "maximum",
    "regular", "saddle" or "boundary-critical"; the last needs a path link,
    looked up only when maybe_boundary is true.
    """
    pv = pos[v]
    nbrs = c._neighbors[v]
    lower = sum(1 for w in nbrs if pos[w] < pv)
    upper = len(nbrs) - lower
    # link edges joining two neighbours on one side merge their components
    parent = {}
    tris = c.triangles
    for ti in c._vertex_triangles[v]:
        a, b, t = tris[ti]
        w, x = (b, t) if a == v else ((a, t) if b == v else (a, b))
        below = pos[w] < pv
        if below != (pos[x] < pv):
            continue
        # path splitting: each step points the vertex at its grandparent
        while w in parent:
            up = parent[w]
            parent[w] = parent.get(up, up)
            w = up
        while x in parent:
            up = parent[x]
            parent[x] = parent.get(up, up)
            x = up
        if w != x:
            parent[w] = x
            if below:
                lower -= 1
            else:
                upper -= 1
    if lower == 0:
        return "minimum", 0
    if upper == 0:
        return "maximum", 0
    if lower == 1 and upper == 1:
        return "regular", 0
    if maybe_boundary and c.link_kind(v) == "path":
        b0, b1 = c.boundary_link_ends(v)
        if (pos[b0] < pv) == (pos[b1] < pv):
            return "boundary-critical", 0
    return "saddle", max(lower, upper) - 1


def classify_vertices(c, field):
    """Classify every vertex of a surface field by lower/upper link counts.

    Raises ManifoldRequired unless every vertex link is a cycle or a path.
    """
    if len(field) != c.vertex_count:
        raise CountMismatch(
            f"field has {len(field)} values for {c.vertex_count} vertices"
        )
    if not c.is_surface:
        raise ManifoldRequired("classification requires a surface complex")

    _, pos = _sweep_order(field)
    vals = field.values
    clusters = _pair_components([(a, b) for a, b in c.edges if vals[a] == vals[b]])
    flat = [False] * c.vertex_count
    for cluster in clusters:
        for v in cluster:
            flat[v] = True
    classes = []
    mult = []
    for v in range(c.vertex_count):
        cls, m = _link_class(c, pos, v, True)
        classes.append(cls)
        mult.append(m)
    return CriticalityReport(
        classes=tuple(classes),
        multiplicity=tuple(mult),
        flat=tuple(flat),
        flat_clusters=tuple(map(tuple, clusters)),
    )


# -- field files ----------------------------------------------------------


def parse_value(token):
    """Parse one field token: 'p/q' exact rational, integer, or decimal."""
    token = token.strip()
    if "/" in token:
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad rational value {token!r}") from exc
    try:
        return Fraction(int(token))
    except ValueError:
        pass
    try:
        x = float(token)
    except ValueError as exc:
        raise InputError(f"bad field value {token!r}") from exc
    if not math.isfinite(x):
        raise NonFiniteValue(f"non-finite field value {token!r}")
    return x


def loads_field(text, c=None):
    values = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        values.append(parse_value(line))
    if c is not None and len(values) != c.vertex_count:
        raise CountMismatch(
            f"field file has {len(values)} values, complex has {c.vertex_count} vertices"
        )
    return ScalarField(values)


def load_field(path, c=None):
    """Read a field file: one value per line, '#' comments allowed."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_field(fh.read(), c)


def format_value(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, int):
        return str(x)
    return repr(x)


def write_field(path, field):
    with open(path, "w", encoding="utf-8") as fh:
        for x in field.values:
            fh.write(format_value(x) + "\n")
