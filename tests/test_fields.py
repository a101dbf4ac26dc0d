"""Field values, tie order, criticality reports, and field files."""

import math
import random
from fractions import Fraction

import pytest

from helpers import random_closed_surface
from reebforge.errors import (
    CountMismatch,
    InputError,
    ManifoldRequired,
    NonFiniteValue,
)
from reebforge.fields import (
    ScalarField,
    classify_vertices,
    format_value,
    load_field,
    loads_field,
    parse_value,
    total_order,
    write_field,
)
from reebforge.gallery import gen_example2, grid_torus
from reebforge.simplicial import build_complex


def test_mixed_exact_and_float_values():
    f = ScalarField([Fraction(1, 2), 0, 0.25])
    assert f.value(0) == Fraction(1, 2)
    assert f.below(1, 2) and f.below(2, 0)
    assert len(f) == 3


def test_ties_resolve_by_id_then_by_permutation():
    f = ScalarField([1, 1, 0])
    assert f.below(0, 1)
    g = ScalarField([1, 1, 0], tiebreak=[1, 0, 2])
    assert g.below(1, 0)
    assert total_order(g, 0, 0) == 0
    assert total_order(g, 1, 0) == -1
    assert total_order(g, 0, 1) == 1


def test_bad_inputs_rejected():
    with pytest.raises(InputError):
        ScalarField([1, 2], tiebreak=[0, 0])
    with pytest.raises(NonFiniteValue):
        ScalarField([0.0, math.inf])
    with pytest.raises(NonFiniteValue):
        ScalarField([float("nan")])
    with pytest.raises(InputError):
        ScalarField(["0.5"])


def test_bad_value_message_names_the_first_bad_index():
    with pytest.raises(NonFiniteValue, match=r"^value 3: non-finite value -inf$"):
        ScalarField([0.5, 1, Fraction(1, 3), -math.inf, float("nan")])
    with pytest.raises(InputError, match=r"^value 2: unsupported value type str$"):
        ScalarField([True, 2.5, "0.5", None])
    # accepted: float subclasses, ints including bool, and Fractions
    class Height(float):
        pass

    assert ScalarField([Height(0.5), False, 3, Fraction(1, 2)]).values[1] is False


def test_column_torus_classification():
    # per-column profile min(j, 8-j): every vertex shares its value along
    # its column ring, one ring per j, critical rings at j = 0 and j = 4
    c = grid_torus(8, 8)
    f = ScalarField([Fraction(min(j, 8 - j)) for i in range(8) for j in range(8)])
    rep = classify_vertices(c, f)
    assert rep.counts == {"minimum": 1, "maximum": 1, "saddle": 2, "regular": 60}
    assert rep.flat_count == 64
    assert len(rep.flat_clusters) == 8
    assert all(len(cl) == 8 for cl in rep.flat_clusters)
    assert rep.flat_values(f) == (0, 1, 2, 3, 4)
    assert rep.morse_sum() == c.euler_characteristic() == 0


def test_flat_clusters_of_one_value_that_do_not_touch():
    c = grid_torus(8, 8)
    values = [Fraction(v + 1) for v in range(64)]
    for v in (0, 1, 34, 35):
        values[v] = Fraction(1, 2)
    rep = classify_vertices(c, ScalarField(values))
    assert rep.flat_clusters == ((0, 1), (34, 35))
    assert [v for v in range(64) if rep.flat[v]] == [0, 1, 34, 35]
    assert rep.flat_values(ScalarField(values)) == (Fraction(1, 2),)


def test_boundary_restricted_criticality():
    # fan disk: rim path 0-1-2-3, hub 4; both rim neighbors of vertex 1
    # sit below it, so it is critical only for the restricted field
    disk = build_complex([(0, 1, 4), (1, 2, 4), (2, 3, 4)])
    rep = classify_vertices(disk, ScalarField([0, 2, 1, 3, 4]))
    assert rep.classes == ("minimum", "boundary-critical", "minimum", "regular", "maximum")
    assert rep.flat_count == 0
    assert rep.critical_vertices() == (0, 1, 2, 4)
    assert rep.link_critical_values(ScalarField([0, 2, 1, 3, 4])) == (0, 1, 2, 4)


def test_flat_cluster_count_tracks_generator_parameter():
    for k in (1, 3, 5):
        c, f = gen_example2(k)
        assert len(classify_vertices(c, f).flat_clusters) == k


def reference_classes(c, field):
    """The field.key-compare link counts classify_vertices replaced:
    (classes, multiplicity)."""

    def side_components(v, below):
        kv = field.key(v)
        label = {w: w for w in c.neighbors(v) if (field.key(w) < kv) == below}
        for ti in c.vertex_triangles(v):
            w, x = [p for p in c.triangles[ti] if p != v]
            if w in label and x in label and label[w] != label[x]:
                old, new = label[w], label[x]
                label = {p: new if q == old else q for p, q in label.items()}
        return len(set(label.values()))

    classes, mult = [], []
    for v in range(c.vertex_count):
        lower, upper = side_components(v, True), side_components(v, False)
        cls, m = "saddle", max(lower, upper) - 1
        if lower == 0:
            cls, m = "minimum", 0
        elif upper == 0:
            cls, m = "maximum", 0
        elif lower == 1 and upper == 1:
            cls, m = "regular", 0
        elif c.link_kind(v) == "path":
            b0, b1 = c.boundary_link_ends(v)
            kv = field.key(v)
            if (field.key(b0) < kv) == (field.key(b1) < kv):
                cls, m = "boundary-critical", 0
        classes.append(cls)
        mult.append(m)
    return tuple(classes), tuple(mult)


def test_classify_vertices_matches_the_key_compare_reference():
    rng = random.Random(43)
    makers = (
        lambda: Fraction(rng.randrange(4), 3),
        lambda: Fraction(rng.randrange(9), 8),
        # one value in several types: 1/2 == 0.5, 1 == 1.0 == Fraction(1)
        lambda: rng.choice((0, 0.5, Fraction(1, 2), 1, 1.0, Fraction(1))),
    )
    for trial in range(60):
        c = random_closed_surface(rng, max_vertices=120)
        if trial % 2:
            # punch holes: the corners of removed triangles get path links
            tris = list(c.triangles)
            for _ in range(rng.randrange(1, 4)):
                tris.pop(rng.randrange(len(tris)))
            c = build_complex(tris, vertex_count=c.vertex_count)
            if not c.is_surface:
                continue
        tb = list(range(c.vertex_count))
        rng.shuffle(tb)
        make = makers[trial % 3]
        f = ScalarField([make() for _ in tb], tiebreak=tb)
        rep = classify_vertices(c, f)
        assert (rep.classes, rep.multiplicity) == reference_classes(c, f), trial


def test_classification_requires_surface_and_matching_length():
    book = build_complex([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    with pytest.raises(ManifoldRequired):
        classify_vertices(book, ScalarField([0, 1, 2, 3, 4]))
    tetra = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    with pytest.raises(CountMismatch):
        classify_vertices(tetra, ScalarField([0, 1, 2]))


def test_parse_value_forms():
    assert parse_value("3/4") == Fraction(3, 4)
    assert parse_value(" 7 ") == Fraction(7)
    assert isinstance(parse_value("0.5"), float)
    assert parse_value("-2.5e-1") == -0.25
    with pytest.raises(InputError):
        parse_value("1/0")
    with pytest.raises(InputError):
        parse_value("abc")
    with pytest.raises(NonFiniteValue):
        parse_value("inf")


def test_format_value_round_trips():
    for x in (Fraction(3, 4), Fraction(5), 7, 0.1, -2.5e-17):
        assert parse_value(format_value(x)) == x


def test_field_file_round_trip(tmp_path):
    path = tmp_path / "field.txt"
    f = ScalarField([Fraction(1, 3), 2, 0.125])
    write_field(path, f)
    g = load_field(path)
    assert g.values == f.values


def test_loads_field_comments_and_count_check():
    f = loads_field("# header\n1/2\n\n3  # tail comment\n")
    assert f.values == (Fraction(1, 2), Fraction(3))
    tetra = build_complex([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    with pytest.raises(CountMismatch):
        loads_field("1\n2\n3\n", tetra)
