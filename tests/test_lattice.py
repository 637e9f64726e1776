import numpy as np
import pytest

from wolffpot import LatticeWindow, LevelRangeError, OutOfWindowError


@pytest.fixture
def unit_window():
    return LatticeWindow.from_box([(0.0, 1.0)], 0, 2)


def test_cube_at_basic(unit_window):
    q = unit_window.cube_at([0.3], 2)
    assert q.level == 2 and q.index == (1,)
    assert q.lower() == (0.25,) and q.upper() == (0.5,)


def test_cube_at_boundary_is_half_open(unit_window):
    # the left endpoint belongs to the cube, the right one does not
    assert unit_window.cube_at([0.25], 2).index == (1,)
    assert unit_window.cube_at([0.4999999], 2).index == (1,)
    assert unit_window.cube_at([0.5], 2).index == (2,)


def test_cube_at_shifted_lattice():
    w = LatticeWindow.from_box([(0.1, 1.1)], 0, 2, shift=[0.1])
    q = w.cube_at([0.3], 2)
    assert q.index == (0,)
    assert q.lower() == (0.1,)
    assert q.upper() == (0.35,)


def test_cube_at_errors(unit_window):
    with pytest.raises(OutOfWindowError):
        unit_window.cube_at([1.5], 1)
    with pytest.raises(LevelRangeError):
        unit_window.cube_at([0.3], 3)
    with pytest.raises(LevelRangeError):
        unit_window.cube_at([0.3], -1)


def test_ancestor_pow2(unit_window):
    q = unit_window.cube_at([0.3], 2)
    up = unit_window.ancestor(q, 2)
    assert up.level == 0 and up.lower() == (0.0,) and up.upper() == (1.0,)
    assert unit_window.ancestor(q, 0) == q
    q2 = unit_window.cube_at([0.6], 2)  # [0.5, 0.75)
    up2 = unit_window.ancestor(q2, 1)
    assert up2.lower() == (0.5,) and up2.upper() == (1.0,)
    with pytest.raises(LevelRangeError):
        unit_window.ancestor(q, 3)


def test_ancestor_composition(unit_window):
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 6)
    q = w.cube_at([0.731], 6)
    for a in range(4):
        for b in range(3):
            lhs = w.ancestor(w.ancestor(q, a), b)
            assert lhs == w.ancestor(q, a + b)


def test_enumeration_counts():
    assert len(list(LatticeWindow.from_box([(0.0, 1.0)], 0, 1).cubes())) == 3
    assert len(list(LatticeWindow.from_box([(0.0, 1.0)], 0, 2).cubes())) == 7
    sq = LatticeWindow.from_box([(0.0, 1.0), (0.0, 1.0)], 0, 1)
    assert len(list(sq.cubes())) == 5
    assert sq.n_cubes == 5


def test_enumeration_order():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 1)
    got = [(c.lower()[0], c.upper()[0]) for c in w.cubes()]
    assert got == [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0)]


def test_partition_property():
    # every sampled point lies in exactly one cube per level
    w = LatticeWindow.from_box([(-1.0, 1.0), (0.0, 1.0)], 0, 3)
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(-1, 1, 64), rng.uniform(0, 1, 64)])
    for level in range(0, 4):
        keys = set(w.level_keys(level))
        for x in pts:
            hits = [k for k in keys if w.cube(*k).contains(x)]
            assert len(hits) == 1
            assert hits[0] == w.cube_at(x, level).key


def test_contains_iff_cube_at(unit_window):
    rng = np.random.default_rng(1)
    for x in rng.uniform(0, 1, 32):
        for level in range(3):
            q = unit_window.cube_at([x], level)
            assert q.contains([x])
            for other in unit_window.level_keys(level):
                if other != q.key:
                    assert not unit_window.cube(*other).contains([x])


def test_negative_levels_give_big_cubes():
    w = LatticeWindow.from_box([(0.0, 4.0)], -2, 0)
    root = w.cube_at([3.7], -2)
    assert root.side == 4.0
    assert root.lower() == (0.0,) and root.upper() == (4.0,)


def test_chain_is_nested(unit_window):
    chain = unit_window.chain([0.3])
    assert [c.level for c in chain] == [0, 1, 2]
    for parent, child in zip(chain, chain[1:]):
        assert parent.contains([0.3]) and child.contains([0.3])
        assert child.parent() == parent


def test_window_shift_roundtrip():
    shift = (0.137,)
    w = LatticeWindow.from_box([(0.137, 1.137)], 0, 3, shift=shift)
    x = [0.7]
    q = w.leaf_at(x)
    assert q.contains(x)
    assert q.shift == shift
