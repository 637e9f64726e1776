"""Property tests: the level-array core against brute-force sums over window cubes.

Every oracle here enumerates the window with ``window_keys`` and measures
cubes with ``cube_mass`` and ``DyadicCube.contains``, all from
``tests/oracles.py`` (the package itself holds no cube objects); bar-kernels
come from :class:`BarFieldNaive`.  Instances are small random windows (1-D
and 2-D, shifted, negative coarse levels, root regions that are no box) with
atoms on dyadic edges, zero weights and atoms outside the window, under
radial and table kernels.  Examples are
derandomized, so the suite is deterministic.  The level index itself is
checked against its construction by one ``np.unique`` per level, on seeded
windows of 1 to 3 dimensions, and the cube-mass tables and ``Wbar`` on the
same windows against the all-levels mass table and the gathered-chain
``Wbar`` they replace.
"""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wolffpot import (
    AtomicMeasure,
    BarField,
    DegenerateInputError,
    DyadicKernelMap,
    DyadicScene,
    Exponents,
    LatticeWindow,
    LevelIndex,
    a_functionals,
    dlbo_constant,
    energy_dyadic,
    lambda_substitution,
    LevelRangeError,
    riesz_kernel,
)
from wolffpot.cli import main as cli_main
from wolffpot.kernels import log_kernel, per_mass
from wolffpot.measures import bernoulli_cascade, cube_mass_table, lebesgue_grid

from oracles import (
    BarFieldNaive,
    cube_at,
    cube_mass,
    cube_mass_table_all_levels,
    descendant_keys,
    exponents_from_p_prime,
    hl_maximal_dyadic,
    index_keys,
    subtree_loop,
    summation_by_parts_min_slack,
    window_cube,
    window_cubes,
    window_keys,
    wolff_bar_gathered,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)
REL = 1e-12


@st.composite
def instances(draw, table: bool):
    """A window, sigma, mu, kernel and query points exercising the edge cases."""
    n = draw(st.sampled_from([1, 2]))
    coarse = draw(st.sampled_from([-1, 0, 1]))
    depth = draw(st.integers(0, 3 if n == 1 else 2))
    shift = [draw(st.sampled_from([0.0, 0.3125, -0.137])) for _ in range(n)]
    side = 2.0 ** -coarse
    lo = [draw(st.sampled_from([-1, 0])) for _ in range(n)]
    ext = [draw(st.sampled_from([1, 2])) for _ in range(n)]
    box = [(z + a * side, z + (a + e) * side) for z, a, e in zip(shift, lo, ext)]
    window = LatticeWindow.from_box(box, coarse, coarse + depth, shift=shift)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    cell = 2.0 ** -(coarse + depth)

    def points(k):
        # a third on fine-level cube edges, the rest anywhere in a box one
        # cell wider than the window on every side
        pts = np.empty((k, n))
        for d in range(n):
            a, b = box[d]
            edges = shift[d] + cell * rng.integers(round((a - shift[d]) / cell) - 1,
                                                   round((b - shift[d]) / cell) + 2, k)
            pts[:, d] = np.where(rng.uniform(size=k) < 1 / 3, edges,
                                 rng.uniform(a - cell, b + cell, k))
        return pts

    def measure(k):
        w = 2.0 ** rng.uniform(-3, 3, k)
        w[rng.uniform(size=k) < 0.2] = 0.0
        return AtomicMeasure(points(k), w)

    sigma = measure(draw(st.integers(1, 8)))
    mu = measure(draw(st.integers(1, 8)))
    if table:
        values = {key: float(2.0 ** rng.uniform(-2, 2)) for key in window_keys(window)}
        empty = [key for key in values
                 if cube_mass(sigma, window_cube(window, *key)) == 0.0
                 and cube_mass(mu, window_cube(window, *key)) == 0.0]
        if empty:  # the 0 * inf = 0 convention: no massless cube may spoil a sum
            values[empty[0]] = math.inf
        K = DyadicKernelMap.from_table(values)
    else:
        K = DyadicKernelMap.from_radial(riesz_kernel(float(rng.uniform(0.2, 0.8)) * n, n))
    return window, sigma, mu, K, np.vstack([points(4), sigma.positions[:2]])


def chain(window, x):
    return [cube for cube in window_cubes(window) if cube.contains(x)]


def close(got, want):
    if math.isinf(want) or math.isinf(got):
        return got == want
    return abs(got - want) <= REL * max(abs(want), 1e-300)


def inner_oracle(K, sigma, mu, window):
    naive = BarFieldNaive(K, sigma, window)
    out = {}
    for cube in window_cubes(window):
        out[cube.key] = sum(w * naive.bar(cube, b)
                            for b, w in zip(mu.positions, mu.weights) if w > 0)
    return naive, out


@pytest.mark.parametrize("table", [False, True])
@PROPERTY
@given(data=st.data())
def test_fields_match_brute_force(table, data):
    window, sigma, mu, K, xs = data.draw(instances(table))
    pp = 2.0 if table else 1.5
    scene = DyadicScene(K, sigma, mu, window)
    naive, inner = inner_oracle(K, sigma, mu, window)
    got = {
        "t": scene.t_mu(xs),
        "wolff": scene.wolff(xs, pp),
        "wolff_bar": scene.wolff_bar(xs, pp),
        "maximal": scene.maximal(xs),
    }
    for i, x in enumerate(xs):
        t = w = wbar = m = 0.0
        for cube in chain(window, x):
            s, mm = cube_mass(sigma, cube), cube_mass(mu, cube)
            if mm > 0:
                t += K(cube.key) * mm
            if s <= 0:
                continue
            if inner[cube.key] > 0:
                w += K(cube.key) * s * inner[cube.key] ** (pp - 1)
                wbar += s * naive.bar(cube, x) * inner[cube.key] ** (pp - 1)
            below = sum(K(key) * cube_mass(sigma, sub) * cube_mass(mu, sub)
                        for key in descendant_keys(window, cube.key)
                        for sub in [window_cube(window, *key)]
                        if cube_mass(sigma, sub) > 0 and cube_mass(mu, sub) > 0)
            m = max(m, below / s)
        for name, want in (("t", t), ("wolff", w), ("wolff_bar", wbar), ("maximal", m)):
            assert close(got[name][i], want), (name, x, got[name][i], want)
    # a single point gives the same value as a float
    assert scene.wolff(xs[0], pp) == got["wolff"][0]


@PROPERTY
@given(data=st.data())
def test_hl_maximal_matches_brute_force(data):
    window, sigma, mu, K, xs = data.draw(instances(False))
    scene = DyadicScene(K, sigma, mu, window)
    for x in xs[window.contains(xs)]:
        ratios = [cube_mass(mu, c) / cube_mass(sigma, c)
                  for c in chain(window, x) if cube_mass(sigma, c) > 0]
        if not ratios:
            with pytest.raises(DegenerateInputError):
                hl_maximal_dyadic(scene, x)
        else:
            assert close(hl_maximal_dyadic(scene, x), max(ratios))


@PROPERTY
@given(data=st.data(), table=st.booleans(),
       case=st.sampled_from(["drawn", "repeated atoms", "sigma is mu", "empty mu"]))
def test_own_atoms_read_from_leaf_ids_match_located_points(data, table, case):
    """A query at the scene's own sigma or mu equals, bit for bit, the query at its positions."""
    window, sigma, mu, K, _ = data.draw(instances(table))
    if case == "repeated atoms":
        sigma = AtomicMeasure(np.vstack([sigma.positions] * 2), np.tile(sigma.weights, 2))
        mu = AtomicMeasure(np.vstack([mu.positions, sigma.positions[:1]]),
                           np.append(mu.weights, 1.0))
    elif case == "sigma is mu":
        mu = sigma
    elif case == "empty mu":
        mu = AtomicMeasure.empty(window.dimension)
    scene = DyadicScene(K, sigma, mu, window)
    pp = 2.0 if table else 1.5
    ratio = per_mass(scene.mu_mass, scene.sigma_mass)
    queries = {
        "t": lambda x: scene.t(scene.sigma_mass, x),
        "t_mu": scene.t_mu,
        "wolff": lambda x: scene.wolff(x, pp),
        "wolff_bar": lambda x: scene.wolff_bar(x, pp),
        "maximal": scene.maximal,
        "chain_values add": lambda x: scene.chain_values(scene.bar.weight, x),
        "chain_values max": lambda x: scene.chain_values(ratio, x, np.maximum),
    }
    for measure in (scene.sigma, scene.mu):
        for name, query in queries.items():
            got, want = query(measure), query(measure.positions)
            assert got.shape == want.shape == (measure.n_atoms,), name
            assert got.tobytes() == want.tobytes(), (name, got, want)
        lam = lambda_substitution(scene)
        assert (summation_by_parts_min_slack(scene, lam, measure, pp)
                == summation_by_parts_min_slack(scene, lam, measure.positions, pp))


@PROPERTY
@given(data=st.data(), s=st.sampled_from([1.5, 2.0, 3.0]))
def test_a_functionals_match_brute_force(data, s):
    window, sigma, mu, K, _ = data.draw(instances(False))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    lam = {key: float(2.0 ** rng.uniform(-3, 3)) for key in window_keys(window)
           if rng.uniform() < 0.6}
    mass = {key: cube_mass(sigma, window_cube(window, *key)) for key in window_keys(window)}
    weight = {key: lam.get(key, 0.0) if mass[key] > 0 else 0.0 for key in mass}
    subtree = {key: sum(weight[k] for k in descendant_keys(window, key)) for key in mass}
    a2 = sum(weight[k] * (subtree[k] / mass[k]) ** (s - 1) for k in mass if weight[k] > 0)
    a1 = a3 = 0.0
    for x, w in zip(sigma.positions, sigma.weights):
        keys = [c.key for c in chain(window, x) if mass[c.key] > 0]
        if w > 0:
            a1 += w * sum(weight[k] / mass[k] for k in keys) ** s
            a3 += w * max([subtree[k] / mass[k] for k in keys], default=0.0) ** s
    # on the scene's shared sigma + mu index; its other cubes carry no sigma mass
    scene = DyadicScene(K, sigma, mu, window)
    ids = scene.index.lookup(list(lam))
    weights = np.zeros(scene.index.n)
    weights[ids[ids >= 0]] = np.array(list(lam.values()))[ids >= 0]
    got = a_functionals(scene, weights, s)
    assert all(close(g, e) for g, e in zip(got, (a1, a2, a3))), (got, (a1, a2, a3))


@PROPERTY
@given(data=st.data(), c=st.floats(0.1, 10.0), pp=st.sampled_from([1.5, 2.0, 3.0]))
def test_energy_homogeneity(data, c, pp):
    window, sigma, mu, K, _ = data.draw(instances(data.draw(st.booleans())))
    exps = exponents_from_p_prime(pp)
    e = c ** pp * energy_dyadic(DyadicScene(K, sigma, mu, window), exps)
    assert abs(energy_dyadic(DyadicScene(K, sigma, mu.scaled(c), window), exps) - e) <= REL * e


@pytest.mark.parametrize("inf_key, want", [
    ((0, (1,)), 3.085714285714286),  # a charged root: its ratio is undefined and skipped
    ((0, (0,)), 3.392857142857143),
    ((1, (3,)), math.inf),  # sup over its root is infinite, inf is not
])
def test_dlbo_constant_with_infinite_k_on_a_charged_cube(inf_key, want):
    window = LatticeWindow.from_box([(0.0, 2.0)], 0, 2)
    pts = np.array([[0.1], [0.3], [0.6], [1.2], [1.7]])
    wts = np.array([1.0, 2.0, 0.5, 1.0, 3.0])
    table = {key: 1.0 + 0.25 * i for i, key in enumerate(window_keys(window))}
    table[inf_key] = math.inf
    K = DyadicKernelMap.from_table(table)
    assert dlbo_constant(BarField(K, AtomicMeasure(pts, wts), window)) == want
    if inf_key == (0, (1,)):  # root [1, 2) adds nothing: same as without its atoms
        assert dlbo_constant(BarField(K, AtomicMeasure(pts[:3], wts[:3]), window)) == want


def index_oracle(window, positions):
    """The level index from one ``np.unique`` of the points' keys per level."""
    chains = window.chain_keys(positions)
    inside = chains[0] >= 0
    held = chains[:, inside]
    keys, start = [], [0]
    for j, level_keys in enumerate(held):
        cubes, inv = np.unique(level_keys, return_inverse=True)
        held[j] = start[-1] + inv
        keys.append(cubes)
        start.append(start[-1] + len(cubes))
    rows = np.full(chains.shape, -1, dtype=np.int64)
    rows[:, inside] = held
    parent = np.full(start[-1], -1, dtype=np.int64)
    parent[held[1:]] = held[:-1]
    return rows, np.array(start), parent, np.concatenate(keys)


def index_cases(n, depth):
    """Windows of dimension ``n`` and this depth at coarse levels 0 to 2, each
    with no points, only outside points, points in and out with repeats, and
    many points per fine cube."""
    rng = np.random.default_rng(100 * n + depth)
    for coarse in range(3):
        lo = rng.integers(-2, 2, n)
        ext = rng.integers(1, 4, n)
        shift = rng.choice([0.0, 0.3125, -0.137], n)
        window = LatticeWindow(coarse, coarse + depth, tuple(int(v) for v in lo),
                               tuple(int(v) for v in ext), tuple(float(v) for v in shift))
        side = 2.0 ** -coarse
        a = shift + lo * side
        b = a + ext * side
        mixed = rng.uniform(a - side, b + side, (30, n))
        cell = 2.0 ** -(coarse + depth)
        dense = a + cell * (rng.integers(0, 2, (60, n)) + rng.uniform(0.0, 1.0, (60, n)))
        yield window, np.empty((0, n))
        yield window, b + rng.uniform(0.0, 1.0, (5, n))
        yield window, np.vstack([mixed, mixed[rng.integers(0, 30, 30)]])
        yield window, dense


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 3, 6])
def test_subtree_matches_the_per_cube_oracle(n, depth):
    rng = np.random.default_rng(2000 + 10 * n + depth)
    interleaved = False
    for window, pts in index_cases(n, depth):
        index = LevelIndex(window, pts)
        # in 2-D and up, a level's children are not grouped by parent in id order
        interleaved |= any(np.any(np.diff(index.parent[a:b]) < 0)
                           for a, b in zip(index.start[1:], index.start[2:]))
        w = 2.0 ** rng.uniform(-3, 3, len(pts))
        w[rng.uniform(size=len(pts)) < 0.2] = 0.0
        leaf = index.leaf
        leaves = np.bincount(leaf[leaf >= 0], w[leaf >= 0], minlength=index.n)
        mass = cube_mass_table(AtomicMeasure(pts, w), index)
        assert np.array_equal(mass, subtree_loop(index, leaves))
        own = 2.0 ** rng.uniform(-3, 3, index.n)
        own[rng.uniform(size=index.n) < 0.3] = np.inf
        for ufunc in (np.add, np.minimum, np.maximum):
            assert np.array_equal(index.subtree(own, ufunc), subtree_loop(index, own, ufunc))
            assert np.array_equal(index.subtree(-own, ufunc), subtree_loop(index, -own, ufunc))
        finite = 2.0 ** rng.uniform(-3, 3, index.n)
        assert np.array_equal(index.subtree(finite), subtree_loop(index, finite))
    assert interleaved == (n > 1 and depth > 0)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 3, 6])
def test_level_arrays_with_a_probe_axis_equal_their_columns_bit_for_bit(n, depth):
    rng = np.random.default_rng(3000 + 10 * n + depth)
    for window, pts in index_cases(n, depth):
        index = LevelIndex(window, pts)
        own = 2.0 ** rng.uniform(-3, 3, (index.n, 5))
        own[rng.uniform(size=own.shape) < 0.2] = np.inf
        own[rng.uniform(size=own.shape) < 0.2] = 0.0
        ids = [index.leaf, index.locate(pts), index.deepest(pts[: len(pts) // 2])]
        for values in (own, -own):
            for ufunc in (np.add, np.minimum, np.maximum):
                for reduce in (index.subtree, index.chain):
                    got = reduce(values, ufunc)
                    want = np.column_stack([reduce(v, ufunc) for v in values.T])
                    assert got.shape == values.shape and got.tobytes() == want.tobytes()
            for i in ids:
                got = index.gather(values, i)
                assert got.shape == i.shape + (5,)
                for c in range(5):
                    assert got[..., c].tobytes() == index.gather(values[:, c], i).tobytes()
        w = 2.0 ** rng.uniform(-3, 3, (len(pts), 4))
        w[rng.uniform(size=w.shape) < 0.2] = 0.0
        measure = AtomicMeasure(pts, w[:, 0])
        for first in (0, len(pts) // 3):
            part = AtomicMeasure(pts[first:], w[first:, 0])
            got = cube_mass_table(part, index, first, w[first:])
            assert got.shape == (index.n, 4)
            for c in range(4):
                want = cube_mass_table(part, index, first, w[first:, c])
                assert got[:, c].tobytes() == want.tobytes()
        assert cube_mass_table(measure, index).tobytes() == cube_mass_table(
            measure, index, 0, w[:, :1])[:, 0].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 3, 6])
def test_deepest_is_the_last_held_cube_of_each_located_chain(n, depth):
    rng = np.random.default_rng(4000 + 10 * n + depth)
    for window, pts in index_cases(n, depth):
        # held for half the points only, so other points stop above the fine level
        index = LevelIndex(window, pts[: len(pts) // 2])
        queries = np.vstack([pts, pts + rng.uniform(-0.5, 0.5, pts.shape)])
        got = index.deepest(queries)
        assert got.dtype == np.int64 and got.shape == (len(queries),)
        assert np.array_equal(got, index.locate(queries).max(axis=0, initial=-1))


def key_of(window, key):
    """Row-major position of a ``(level, index)`` cube inside the box at its level."""
    level, idx = key
    d = level - window.coarse_level
    rel = [k - (l << d) for k, l in zip(idx, window.lo)]
    return int(np.ravel_multi_index(rel, [e << d for e in window.ext]))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("depth", range(8))
def test_level_index_matches_per_level_sort_oracle(n, depth):
    for window, pts in index_cases(n, depth):
        index = LevelIndex(window, pts)
        rows, start, parent, flat = index_oracle(window, pts)
        assert not hasattr(index, "rows")
        assert np.array_equal(index.leaf, rows[-1]) and index.leaf.dtype == np.int64
        assert np.array_equal(index.locate(pts), rows)
        assert np.array_equal(index.start, start)
        assert np.array_equal(index.parent, parent) and index.parent.dtype == np.int64
        assert index.n == start[-1] == len(flat)
        assert np.array_equal(index._flat, flat)
        inside = pts[window.contains(pts)]
        keys = []
        for level in range(window.coarse_level, window.fine_level + 1):
            held = {cube_at(window, x, level).key for x in inside}
            keys += sorted(held, key=lambda key: key_of(window, key))
        assert index_keys(index) == keys
        assert [key_of(window, key) for key in keys] == flat.tolist()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("depth", range(8))
def test_chain_keys_are_shifted_fine_keys_with_minus_one_outside(n, depth):
    for window, pts in index_cases(n, depth):
        chains = window.chain_keys(pts)
        assert chains.shape == (depth + 1, len(pts)) and chains.dtype == np.int64
        for i, x in enumerate(pts):
            if not window.contains(x)[0]:
                assert np.all(chains[:, i] == -1)
                continue
            fine = cube_at(window, x, window.fine_level).index
            for j, level in enumerate(range(window.coarse_level, window.fine_level + 1)):
                idx = tuple(k >> (depth - j) for k in fine)
                assert cube_at(window, x, level).index == idx
                assert chains[j, i] == key_of(window, (level, idx))


def index_build_peak(depth):
    """The index of the depth-``depth`` borderline instance (sigma on [-1, 2), then mu on
    [0, 1)) and the peak of its build, in bytes."""
    window = LatticeWindow.from_box([(-1.0, 2.0)], 0, depth)
    pts = np.vstack([lebesgue_grid([(-1.0, 2.0)], depth).positions,
                     lebesgue_grid([(0.0, 1.0)], depth).positions])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        index = LevelIndex(window, pts)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return index, peak


def test_level_index_build_peaks_below_six_times_points_and_cubes():
    index, peak = index_build_peak(12)
    assert (len(index.leaf), index.n) == (4 * 2 ** 12, 3 * (2 ** 13 - 1))
    assert peak <= 6 * 8 * (len(index.leaf) + index.n)


def test_depth_14_index_build_peaks_below_the_old_chain_matrix():
    # the (levels, points) int64 matrix of every point's ancestor ids the index once kept
    index, peak = index_build_peak(14)
    assert peak < 8 * 15 * len(index.leaf)


def mass_scenes(n, depth):
    """Scenes on the windows of :func:`index_cases`, half the points each to
    sigma and mu, under random or cascade weights with a fifth of them zero,
    and query points in and around the window."""
    rng = np.random.default_rng(1000 + 10 * n + depth)
    for window, pts in index_cases(n, depth):
        for kind in ("random", "cascade"):
            if kind == "random":
                w = 2.0 ** rng.uniform(-3, 3, len(pts))
            else:
                w = np.resize(bernoulli_cascade(0.6, 5).weights, len(pts))
            w[rng.uniform(size=len(pts)) < 0.2] = 0.0
            half = len(pts) // 2
            sigma = AtomicMeasure(pts[:half], w[:half])
            mu = AtomicMeasure(pts[half:], w[half:])
            cell = 2.0 ** -window.fine_level
            lo, hi = np.array(window.box).T
            xs = np.vstack([rng.uniform(lo - cell, hi + cell, (10, n)), pts[:3]])
            K = DyadicKernelMap.from_radial(riesz_kernel(0.5 * n, n))
            yield DyadicScene(K, sigma, mu, window), xs, rng


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 3, 6])
def test_leaf_masses_and_chain_wbar_match_all_level_oracles(n, depth):
    for scene, xs, rng in mass_scenes(n, depth):
        sigma, mu, index = scene.sigma, scene.mu, scene.index
        np.testing.assert_allclose(scene.sigma_mass, cube_mass_table_all_levels(sigma, index),
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(scene.mu_mass, cube_mass_table_all_levels(mu, index),
                                   rtol=1e-13, atol=0)
        w = rng.uniform(0.0, 2.0, mu.n_atoms)
        np.testing.assert_allclose(scene.reweighted(mu, w),
                                   cube_mass_table_all_levels(mu, index, w), rtol=1e-13, atol=0)
        for pp in (1.5, 2.0, 3.0):
            for x in (sigma, mu, xs):
                np.testing.assert_allclose(scene.wolff_bar(x, pp), wolff_bar_gathered(scene, x, pp),
                                           rtol=1e-13, atol=0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lebesgue_grid_masses_equal_the_all_level_oracle(n):
    box = [(-1.0, 1.0)] + [(0.0, 0.5)] * (n - 1)
    grid = lebesgue_grid(box, 4 if n < 3 else 3)
    index = LevelIndex(LatticeWindow.from_box(box, 1, 6), grid.positions)
    assert np.array_equal(cube_mass_table(grid, index), cube_mass_table_all_levels(grid, index))


def test_wolff_bar_with_infinite_k_above_a_sigma_free_cube():
    # K = inf on the charged [0, 1), whose child [0.5, 1) holds mu atoms but no sigma
    window = LatticeWindow.from_box([(0.0, 2.0)], 0, 2)
    sigma = AtomicMeasure([[0.1], [0.3], [1.2], [1.7]], [1.0, 2.0, 1.0, 3.0])
    mu = AtomicMeasure([[0.2], [0.6], [0.9], [1.3]], [1.0, 0.5, 2.0, 1.0])
    table = {key: 1.0 + 0.25 * i for i, key in enumerate(window_keys(window))}
    table[(0, (0,))] = math.inf
    scene = DyadicScene(DyadicKernelMap.from_table(table), sigma, mu, window)
    xs = np.array([[0.05], [0.2], [0.6], [0.8], [1.1], [1.3], [1.9]])
    for x in (sigma, mu, xs):
        got = scene.wolff_bar(x, 2.0)
        with np.errstate(invalid="ignore"):  # the oracle's inf - inf
            want = wolff_bar_gathered(scene, x, 2.0)
        assert not np.isnan(got).any()
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], np.full((~finite).sum(), math.inf))
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-13, atol=0)
        assert finite.any() and not finite.all()


def test_infinite_table_k_fields_raise_no_warning():
    # K = inf on the charged [0, 1), on its sigma-free child [0.5, 1) and on
    # the mu-free [1.5, 1.75): I(Q) is a subtree sum over sigma(Q), no prefix difference
    window = LatticeWindow.from_box([(0.0, 2.0)], 0, 2)
    sigma = AtomicMeasure([[0.1], [0.3], [1.2], [1.7]], [1.0, 2.0, 1.0, 3.0])
    mu = AtomicMeasure([[0.2], [0.6], [0.9], [1.3], [1.8]], [1.0, 0.5, 2.0, 1.0, 0.3])
    table = {key: 1.0 + 0.25 * i for i, key in enumerate(window_keys(window))}
    table[(0, (0,))] = table[(1, (1,))] = table[(2, (6,))] = math.inf
    xs = np.array([[0.05], [0.2], [0.6], [0.8], [1.1], [1.3], [1.6], [1.9]])
    values = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scene = DyadicScene(DyadicKernelMap.from_table(table), sigma, mu, window)
        for x in (sigma, mu, xs):
            values += [scene.wolff(x, 2.0), scene.wolff_bar(x, 2.0), scene.maximal(x)]
    values = np.concatenate(values)
    assert not np.isnan(values).any()
    assert np.isinf(values).any() and np.isfinite(values).any()


def test_wolff_with_zero_k_above_an_infinite_k():
    # K = 0 on the charged [0, 1), and K = inf on its subcube [0, 0.25), so I([0, 1)) = inf
    window = LatticeWindow.from_box([(0.0, 2.0)], 0, 2)
    sigma = AtomicMeasure([[0.1], [0.3], [1.2], [1.7]], np.ones(4))
    mu = AtomicMeasure([[0.2], [0.6], [0.9], [1.3]], np.ones(4))
    table = {key: 1.0 for key in window_keys(window)}
    table[(0, (0,))] = 0.0
    table[(2, (0,))] = math.inf
    K = DyadicKernelMap.from_table(table)
    scene = DyadicScene(K, sigma, mu, window)
    _, inner = inner_oracle(K, sigma, mu, window)
    xs = np.array([[0.05], [0.2], [0.6], [0.8], [1.1], [1.3], [1.9]])
    for x in (sigma, mu, xs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = scene.wolff(x, 2.0)
        points = x.positions if isinstance(x, AtomicMeasure) else x
        # the chain sum with plain products, where 0 * inf = nan
        with np.errstate(invalid="ignore"):
            want = np.array([sum(K(c.key) * cube_mass(sigma, c) * inner[c.key] for c in chain(window, p))
                             for p in points])
        assert not np.isnan(got).any()
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-13, atol=0)
        assert finite.any() and not finite.all()


def test_scene_build_and_wbar_energy_queries_peak_below_multiples_of_points_and_cubes():
    # the depth-12 borderline instance of the index build test above
    window = LatticeWindow.from_box([(-1.0, 2.0)], 0, 12)
    sigma = lebesgue_grid([(-1.0, 2.0)], 12)
    mu = lebesgue_grid([(0.0, 1.0)], 12)
    K = DyadicKernelMap.from_radial(log_kernel(1.5, 4.4816890703380645, 1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        scene = DyadicScene(K, sigma, mu, window)
        build = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        scene.wolff_bar(mu, 2.0)
        energy_dyadic(scene, Exponents(p=2.0))
        query = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    size = 8 * (len(scene.index.leaf) + scene.index.n)
    assert build <= 8 * size
    assert query <= 3.75 * size


def test_window_too_deep_for_int64_keys():
    LatticeWindow.from_box([(0.0, 1.0)] * 2, 0, 31)
    with pytest.raises(LevelRangeError, match="int64"):
        LatticeWindow.from_box([(0.0, 1.0)] * 2, 0, 32)


def test_report_counts_atoms_outside_the_window(tmp_path):
    cfg = tmp_path / "scn.json"
    cfg.write_text(json.dumps({
        "dimension": 1,
        "window": {"coarse_level": 0, "fine_level": 2, "box": [[0, 1]]},
        "sigma": {"type": "lebesgue_grid", "box": [[0, 1]], "level": 2},
        "mu": {"type": "atoms", "positions": [[0.5], [1.5], [-0.25]], "weights": [0.7, 2.0, 0.5]},
        "kernel": {"type": "riesz", "alpha": 0.5},
        "exponents": {"p": 2.0},
        "checks": [{"name": "fubini"}],
    }))
    assert cli_main(["verify", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
    instance = json.loads((tmp_path / "o" / "report.json").read_text())["checks"][0]["instance"]
    assert instance["sigma_dropped"] == {"atoms": 0, "mass": 0.0}
    assert instance["mu_dropped"] == {"atoms": 2, "mass": 2.5}
