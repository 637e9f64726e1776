import numpy as np
import pytest

from wolffpot import (
    AtomicMeasure,
    DegenerateInputError,
    GridAlignmentError,
    LatticeWindow,
    LevelIndex,
    bernoulli_cascade,
    cube_mass_table,
    doubling_constant,
    lebesgue_grid,
    reverse_doubling_check,
)
from wolffpot import measures
from wolffpot.errors import WolffpotError

from oracles import cube_mass, level_keys, window_cube, window_keys


def reverse_doubling(measure, window, gamma):
    """``reverse_doubling_check`` on an index holding the measure's atoms."""
    index = LevelIndex(window, measure.positions)
    return reverse_doubling_check(index, cube_mass_table(measure, index), gamma)


@pytest.fixture
def w2():
    return LatticeWindow.from_box([(0.0, 1.0)], 0, 2)


def test_cube_mass(w2):
    mu = AtomicMeasure([0.1, 0.3], [1.0, 2.0])
    assert cube_mass(mu, window_cube(w2, 2, (1,))) == 2.0      # [0.25, 0.5)
    assert cube_mass(mu, window_cube(w2, 1, (0,))) == 3.0      # [0, 0.5)
    assert cube_mass(AtomicMeasure.empty(1), window_cube(w2, 0, (0,))) == 0.0


def test_ball_mass_closed():
    assert AtomicMeasure([[0.0]], [2.0]).ball_mass([0.0], 1.0) == 2.0
    assert AtomicMeasure([[0.0]], [2.0]).ball_mass([3.0], 1.0) == 0.0
    # an atom exactly on the sphere is included
    assert AtomicMeasure([0.0, 1.0], [1.0, 1.0]).ball_mass([0.0], 1.0) == 2.0


def test_ball_mass_monotone_right_continuous():
    rng = np.random.default_rng(3)
    mu = AtomicMeasure(rng.uniform(0, 1, (40, 1)), rng.uniform(0, 2, 40))
    rs = np.sort(rng.uniform(0.01, 1.5, 30))
    vals = [mu.ball_mass([0.4], r) for r in rs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    d = float(np.linalg.norm(mu.positions[7] - 0.4))
    assert mu.ball_mass([0.4], d) == mu.ball_mass([0.4], d + 1e-12)


def test_lebesgue_grid_exact(w2):
    g = lebesgue_grid([(0.0, 1.0)], 8)
    assert g.n_atoms == 256
    assert np.sum(g.weights) == 1.0
    assert cube_mass(g, window_cube(w2, 1, (0,))) == 0.5
    assert cube_mass(g, window_cube(w2, 2, (1,))) == 0.25


def test_lebesgue_grid_alignment_error():
    with pytest.raises(GridAlignmentError):
        lebesgue_grid([(0.0, 0.3)], 2)


def test_lebesgue_grid_refuses_more_cells_than_the_budget(monkeypatch):
    monkeypatch.setattr(measures, "GRID_CELLS", 16)
    assert lebesgue_grid([(0.0, 1.0)], 4).n_atoms == 16
    assert lebesgue_grid([(0.0, 1.0)] * 2, 2).n_atoms == 16
    for box, level, cells in (([(0.0, 1.0)], 5, 32), ([(0.0, 1.0)] * 2, 3, 64),
                              ([(-1.0, 2.0)], 40, 3 << 40)):
        with pytest.raises(WolffpotError) as err:
            lebesgue_grid(box, level)
        assert str(err.value) == (f"lebesgue_grid on box {[list(side) for side in box]} at level "
                                  f"{level} has {cells} cells, over the budget of 16")


def test_cube_mass_additive_over_children():
    rng = np.random.default_rng(5)
    w = LatticeWindow.from_box([(0.0, 1.0), (0.0, 1.0)], 0, 3)
    mu = AtomicMeasure(rng.uniform(0, 1, (80, 2)), rng.uniform(0, 3, 80))
    for key in level_keys(w, 1):
        cube = window_cube(w, *key)
        kids = sum(cube_mass(mu, c) for c in cube.children())
        assert kids == pytest.approx(cube_mass(mu, cube), abs=0, rel=1e-15)


def test_mass_table_matches_direct():
    rng = np.random.default_rng(6)
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 4)
    mu = AtomicMeasure(rng.uniform(0, 1, (30, 1)), rng.uniform(0, 2, 30))
    index = LevelIndex(w, mu.positions)
    keys = list(window_keys(w))
    table = index.gather(cube_mass_table(mu, index), index.lookup(keys))
    for key, mass in zip(keys, table):
        assert mass == pytest.approx(cube_mass(mu, window_cube(w, *key)), rel=1e-14)


def test_reverse_doubling_lebesgue():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 8)
    holds, best = reverse_doubling(lebesgue_grid([(0.0, 1.0)], 8), w, 1.0)
    assert holds and best == pytest.approx(1.0, abs=1e-12)


def test_reverse_doubling_point_mass_fails():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 8)
    holds, best = reverse_doubling(AtomicMeasure([[0.3]], [1.0]), w, 0.7)
    assert not holds
    assert best == pytest.approx(2.0 ** (-8 * 0.7), rel=1e-12)


def test_reverse_doubling_cascade():
    gamma = 0.415
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 8)
    holds, best = reverse_doubling(bernoulli_cascade(gamma, 8), w, gamma)
    assert holds and best == pytest.approx(1.0, rel=1e-9)


def test_reverse_doubling_degenerate():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 2)
    with pytest.raises(DegenerateInputError):
        reverse_doubling(AtomicMeasure.empty(1), w, 1.0)


def test_cascade_child_masses():
    gamma = 0.5
    theta = 2.0 ** -gamma
    depth = 6
    m = bernoulli_cascade(gamma, depth)
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, depth)
    assert np.sum(m.weights) == pytest.approx(1.0, rel=1e-12)
    # heavy (left) child carries exactly theta of its parent
    key = (0, (0,))
    for _ in range(depth):
        child = (key[0] + 1, tuple(2 * k for k in key[1]))
        assert cube_mass(m, window_cube(w, *child)) == pytest.approx(
            theta * cube_mass(m, window_cube(w, *key)), rel=1e-12
        )
        key = child


def test_doubling_constant():
    g = lebesgue_grid([(0.0, 1.0)], 8)
    ratio = doubling_constant(g, [[0.5]], [0.05])
    assert ratio == pytest.approx(2.0, rel=0.05)
    assert doubling_constant(AtomicMeasure([[0.0]], [1.0]), [[0.0]], [0.5, 1.0]) == 1.0
    two = AtomicMeasure([0.0, 1.0], [1.0, 1.0])
    assert doubling_constant(two, [[0.0]], [0.6]) == 2.0
    with pytest.raises(DegenerateInputError):
        doubling_constant(AtomicMeasure([[5.0]], [1.0]), [[0.0]], [0.5])
