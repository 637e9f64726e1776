from dataclasses import replace

import numpy as np
import pytest

import wolffpot
from wolffpot import (
    AtomicMeasure,
    DimensionMismatchError,
    Exponents,
    GridAlignmentError,
    LatticeWindow,
    LevelIndex,
    LevelRangeError,
    OutOfWindowError,
)
from wolffpot import kernels, potentials, verify

from oracles import cube_at, index_keys, level_keys, window_cube, window_cubes, window_keys


@pytest.fixture
def unit_window():
    return LatticeWindow.from_box([(0.0, 1.0)], 0, 2)


def test_cube_at_basic(unit_window):
    q = cube_at(unit_window, [0.3], 2)
    assert q.level == 2 and q.index == (1,)
    assert q.lower() == (0.25,) and q.upper() == (0.5,)


def test_cube_at_boundary_is_half_open(unit_window):
    # the left endpoint belongs to the cube, the right one does not
    assert cube_at(unit_window, [0.25], 2).index == (1,)
    assert cube_at(unit_window, [0.4999999], 2).index == (1,)
    assert cube_at(unit_window, [0.5], 2).index == (2,)


def test_cube_at_shifted_lattice():
    w = LatticeWindow.from_box([(0.1, 1.1)], 0, 2, shift=[0.1])
    q = cube_at(w, [0.3], 2)
    assert q.index == (0,)
    assert q.lower() == (0.1,)
    assert q.upper() == (0.35,)


def test_cube_at_errors(unit_window):
    with pytest.raises(OutOfWindowError):
        cube_at(unit_window, [1.5], 1)
    with pytest.raises(LevelRangeError):
        cube_at(unit_window, [0.3], 3)
    with pytest.raises(LevelRangeError):
        cube_at(unit_window, [0.3], -1)


def test_enumeration_counts():
    assert len(list(window_cubes(LatticeWindow.from_box([(0.0, 1.0)], 0, 1)))) == 3
    assert len(list(window_cubes(LatticeWindow.from_box([(0.0, 1.0)], 0, 2)))) == 7
    sq = LatticeWindow.from_box([(0.0, 1.0), (0.0, 1.0)], 0, 1)
    assert len(list(window_cubes(sq))) == 5
    assert sq.n_cubes == 5


def test_enumeration_order():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 1)
    got = [(c.lower()[0], c.upper()[0]) for c in window_cubes(w)]
    assert got == [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0)]


def test_partition_property():
    # every sampled point lies in exactly one cube per level
    w = LatticeWindow.from_box([(-1.0, 1.0), (0.0, 1.0)], 0, 3)
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(-1, 1, 64), rng.uniform(0, 1, 64)])
    for level in range(0, 4):
        keys = set(level_keys(w, level))
        for x in pts:
            hits = [k for k in keys if window_cube(w, *k).contains(x)]
            assert len(hits) == 1
            assert hits[0] == cube_at(w, x, level).key


def test_contains_iff_cube_at(unit_window):
    rng = np.random.default_rng(1)
    for x in rng.uniform(0, 1, 32):
        for level in range(3):
            q = cube_at(unit_window, [x], level)
            assert q.contains([x])
            for other in level_keys(unit_window, level):
                if other != q.key:
                    assert not window_cube(unit_window, *other).contains([x])


def test_negative_levels_give_big_cubes():
    w = LatticeWindow.from_box([(0.0, 4.0)], -2, 0)
    root = cube_at(w, [3.7], -2)
    assert root.side == 4.0
    assert root.lower() == (0.0,) and root.upper() == (4.0,)


def test_chain_is_nested(unit_window):
    w = unit_window
    chain = [cube_at(w, [0.3], lvl) for lvl in range(w.coarse_level, w.fine_level + 1)]
    assert [c.level for c in chain] == [0, 1, 2]
    for parent, child in zip(chain, chain[1:]):
        assert parent.contains([0.3]) and child.contains([0.3])
        assert child.parent() == parent


def test_window_shift_roundtrip():
    shift = (0.137,)
    w = LatticeWindow.from_box([(0.137, 1.137)], 0, 3, shift=shift)
    x = [0.7]
    q = cube_at(w, x, w.fine_level)
    assert q.contains(x)
    assert q.shift == shift


def test_direct_window_rejects_mismatched_sides_and_an_empty_box():
    with pytest.raises(DimensionMismatchError):
        LatticeWindow(0, 2, (0,), (1, 1), (0.0,))
    with pytest.raises(DimensionMismatchError):
        LatticeWindow(0, 2, (0, 0), (1, 1), (0.0,))
    for ext in ((0,), (-1,), (2, 0)):
        with pytest.raises(GridAlignmentError):
            LatticeWindow(0, 2, (0,) * len(ext), ext, (0.0,) * len(ext))
    for one in (1, np.int64(1)):  # a numpy bound must not wrap around in the depth check
        with pytest.raises(LevelRangeError):
            LatticeWindow(0, 70, (one,), (one,), (0.0,))


@pytest.mark.parametrize("box, coarse, fine, shift", [
    ([(0.0, 1.0)], 0, 3, None),
    ([(0.137, 1.137)], 0, 3, (0.137,)),
    ([(-8.0, 4.0)], -2, 1, None),
    ([(-1.6875, 2.3125), (-2.137, -0.137)], -1, 2, (0.3125, -0.137)),
    ([(0.25, 0.75), (-0.5, 0.0)], 2, 4, (0.0, 0.0)),
])
def test_window_box_roundtrip(box, coarse, fine, shift):
    w = LatticeWindow.from_box(box, coarse, fine, shift=shift)
    assert LatticeWindow.from_box(w.box, coarse, fine, shift=w.shift) == w
    assert np.allclose(w.box, box, rtol=0.0, atol=1e-12)
    for f in range(coarse, fine + 3):
        assert replace(w, fine_level=f) == LatticeWindow.from_box(w.box, coarse, f, shift=w.shift)


def test_table_values_match_per_key_lookup():
    w = LatticeWindow.from_box([(-2.137, 1.863), (0.0, 4.0)], -1, 1, shift=(-0.137, 0.0))
    index = LevelIndex(w, np.array([[-0.5, 0.3], [0.2, 3.9], [0.7, 1.1]]))
    table = {key: 1.0 + i for i, key in enumerate(window_keys(w))}  # held and not held
    table[index_keys(index, [0])[0]] = np.inf
    table[(1, (-1, 7))] = np.inf
    # (0, (-2, 4)) has the row-major key of the held (0, (-1, 0)); the bounds check tells them apart
    outside = [(-2, (0, 0)), (2, (0, 0)), (0, (2, 0)), (1, (-5, 0)), (1, (0, 8)), (0, (-2, 4))]
    assert index.lookup(outside).tolist() == [-1] * len(outside)
    table.update({key: 5.0 + i for i, key in enumerate(outside)})
    want = np.zeros(index.n)
    for key, value in table.items():
        i = index.lookup([key])[0]
        if i >= 0:
            want[i] = value
    assert np.array_equal(index.table_values(table), want)
    assert np.array_equal(index.table_values({}), np.zeros(index.n))


def test_the_single_cube_surface_lives_in_the_tests_only():
    # one representation of the dyadic tree in the package: LevelIndex ids;
    # and the names no command, demo or check reaches live in tests/oracles.py
    moved = {
        wolffpot: ["DyadicCube", "lbo_constant", "hl_maximal_dyadic"],
        wolffpot.lattice: ["DyadicCube"],
        kernels: ["lbo_constant"],
        potentials: ["hl_maximal_dyadic"],
        verify: ["summation_by_parts_min_slack"],
        LatticeWindow: ["cube", "cube_at", "level_keys", "keys", "cubes", "descendant_keys"],
        LevelIndex: ["keys"],
        AtomicMeasure: ["translated", "cube_mass", "total_mass"],
        Exponents: ["from_p_prime"],
    }
    assert [name for name in wolffpot.__all__
            if any(name in names for names in moved.values())] == []
    assert [(owner.__name__, name) for owner, names in moved.items()
            for name in names if hasattr(owner, name)] == []
