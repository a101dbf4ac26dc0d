"""Cut indexing and level-set component queries."""

import random
from fractions import Fraction

import pytest

from reebforge.errors import InputError
from reebforge.fields import ScalarField
from reebforge.gallery import grid_torus, subdivided_sphere
from reebforge.levels import ABOVE, AT, BELOW, LevelSlicer, level_components
from reebforge.simplicial import build_complex

TETRA = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def tetra_slicer():
    c = build_complex(TETRA)
    return c, LevelSlicer(c, ScalarField([Fraction(i) for i in range(4)]))


def test_cut_indexing():
    c, s = tetra_slicer()
    assert s.cut_count == 7  # 4 values interleaved with 3 gaps
    assert s.cut_of(Fraction(0), AT) == 0
    assert s.cut_of(Fraction(2), AT) == 4
    assert s.cut_of(Fraction(2), BELOW) == 3
    assert s.cut_of(Fraction(2), ABOVE) == 5
    assert s.cut_of(Fraction(0), BELOW) is None
    assert s.cut_of(Fraction(3), ABOVE) is None
    # values between vertex levels land on the gap cut whatever the side
    assert s.cut_of(Fraction(3, 2), AT) == 3
    assert s.cut_of(Fraction(3, 2), BELOW) == 3
    with pytest.raises(InputError):
        s.cut_of(Fraction(1), "mid")


def test_cut_position_round_trip():
    _, s = tetra_slicer()
    assert s.cut_position(2) == (Fraction(1), AT)
    assert s.cut_position(3) == (Fraction(3, 2), "mid")


def test_edge_active_strictly_between_endpoints():
    c, s = tetra_slicer()
    e03 = c.edge_id(0, 3)
    # spans values 0..3, so it crosses every cut strictly between them
    assert [t for t in range(s.cut_count) if s.edge_active(e03, t)] == [1, 2, 3, 4, 5]
    e01 = c.edge_id(0, 1)
    assert [t for t in range(s.cut_count) if s.edge_active(e01, t)] == [1]


def test_level_components_tetra_mid_value():
    c = build_complex(TETRA)
    f = ScalarField([Fraction(i) for i in range(4)])
    refs = level_components(c, f, Fraction(1))
    assert len(refs) == 1
    assert refs[0].vertices == (1,)
    assert refs[0].edges == ((0, 2), (0, 3))
    assert refs[0].representative == 1

    gap = level_components(c, f, Fraction(3, 2))
    assert len(gap) == 1
    assert gap[0].vertices == ()
    assert gap[0].representative is None
    assert gap[0].edges == ((0, 2), (0, 3), (1, 2), (1, 3))

    assert level_components(c, f, Fraction(9)) == ()


def test_level_components_torus_two_contours():
    c = grid_torus(8, 8)
    f = ScalarField([Fraction(min(j, 8 - j)) for i in range(8) for j in range(8)])
    refs = level_components(c, f, Fraction(2))
    assert len(refs) == 2
    assert refs[0].representative == 2 and refs[1].representative == 6
    assert all(len(r.vertices) == 8 for r in refs)
    above = level_components(c, f, Fraction(2), ABOVE)
    assert len(above) == 2
    assert all(r.vertices == () for r in above)


def test_component_walking_preserves_contours():
    c, s = tetra_slicer()
    start = s.component(2, s.vertex_item(1))
    assert sorted(map(s.label, start)) == [
        ("e", c.edge_id(0, 2)), ("e", c.edge_id(0, 3)), ("v", 1)
    ]
    seeds = s.advance(start, 2, +1)
    up = s.component(3, seeds[0])
    expected = {
        ("e", c.edge_id(0, 2)),
        ("e", c.edge_id(0, 3)),
        ("e", c.edge_id(1, 2)),
        ("e", c.edge_id(1, 3)),
    }
    assert set(map(s.label, up)) == expected
    # walking back down recovers the original contour
    back = s.advance(up, 3, -1)
    assert s.component(2, back[0]) == start


def test_components_from_deduplicates():
    c, s = tetra_slicer()
    items = s.items_at(3)
    comps = s.components_from(3, items)
    assert len(comps) == 1


def test_field_length_checked():
    c = build_complex(TETRA)
    with pytest.raises(InputError):
        level_components(c, ScalarField([1, 2]), 1)


def test_next_change_skips_only_repeated_cuts():
    c = subdivided_sphere(2)
    rng = random.Random(5)
    f = ScalarField([Fraction(rng.randrange(40), 8) for _ in range(c.vertex_count)])
    s = LevelSlicer(c, f)
    jumps = 0
    for t in range(s.cut_count):
        comps = s.components_from(t, s.items_at(t))
        for direction in (1, -1):
            for group in ([comp] for comp in comps):
                nxt = s.next_change(group, t, direction)
                assert (nxt - t) * direction >= 1
                if any(s.label(it)[0] == "v" for it in group[0]):
                    assert nxt == t + direction
                for between in range(t + direction, nxt, direction):
                    jumps += 1
                    seed = min(group[0])
                    assert s.component(between, seed) == group[0]
                if 0 <= nxt < s.cut_count:
                    seeds = s.advance(group[0], nxt - direction, direction)
                    assert s.components_from(nxt, seeds) != group
    assert jumps > 0
