import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wolffpot import (
    AtomicMeasure,
    BarField,
    DyadicKernelMap,
    InvalidKernelError,
    LatticeWindow,
    LevelIndex,
    LevelRangeError,
    bar_k,
    bernoulli_cascade,
    constant_kernel,
    dlbo_constant,
    lebesgue_grid,
    log_kernel,
    riesz_kernel,
)

from wolffpot import kernels
from wolffpot.errors import WolffpotError
from wolffpot.measures import profile_mass

from oracles import (
    BarFieldNaive,
    bar_k_per_ball,
    bar_per_cube,
    cube_at,
    cube_mass,
    empty_measure,
    index_keys,
    lbo_constant,
    log_primitive_by_pieces,
    radial_profile_of_one,
    window_cube,
    window_keys,
)


def test_riesz_values():
    k = riesz_kernel(0.5, 1)
    assert k(1.0) == 1.0
    assert k(0.25) == 2.0
    assert riesz_kernel(0.5, 1, cutoff=1.0)(2.0) == 0.0
    with pytest.raises(InvalidKernelError):
        riesz_kernel(1.5, 1)
    with pytest.raises(InvalidKernelError):
        riesz_kernel(0.0, 2)


@pytest.mark.parametrize("cutoff", [-1.0, 0.0, math.nan])
def test_non_positive_cutoff_rejected(cutoff):
    # a cutoff of -1 would make every K(Q) vanish and fubini pass with zero error
    with pytest.raises(InvalidKernelError, match="cutoff"):
        riesz_kernel(0.5, 1, cutoff=cutoff)
    with pytest.raises(InvalidKernelError, match="cutoff"):
        constant_kernel(1.0, cutoff=cutoff)


def test_riesz_log_primitive():
    k = riesz_kernel(0.5, 1)
    # int_a^b s^(-3/2) ds = 2 (a^-1/2 - b^-1/2)
    assert k.log_primitive(0.25, 1.0) == pytest.approx(2.0, rel=1e-14)
    assert k.log_primitive(0.25, math.inf) == pytest.approx(4.0, rel=1e-14)
    assert k.log_primitive(0.0, 1.0) == math.inf
    a, b, c = 0.1, 0.4, 2.3
    assert k.log_primitive(a, b) + k.log_primitive(b, c) == pytest.approx(
        k.log_primitive(a, c), rel=1e-13
    )


def test_log_kernel_values():
    C = math.e ** 1.5
    k = log_kernel(1.5, C, 1)
    assert k(1.0) == pytest.approx(1.5 ** -1.5, rel=1e-14)
    assert k(2.0) == 0.0
    with pytest.raises(InvalidKernelError):
        log_kernel(1.5, 0.9 * math.exp(1.5), 1)


def test_log_kernel_primitive_additive():
    k = log_kernel(1.5, math.e ** 1.5, 1)
    a, b, c = 0.01, 0.2, 0.9
    assert k.log_primitive(a, b) + k.log_primitive(b, c) == pytest.approx(
        k.log_primitive(a, c), rel=1e-9
    )
    assert k.log_primitive(0.5, 10.0) == k.log_primitive(0.5, 1.0)  # cutoff clamp


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("beta", [1.0 + 1e-9, 1.5, 4.0])
def test_log_kernel_is_nonincreasing_from_its_parameters_alone(n, beta):
    # log_kernel tests only C >= e^(beta/n); its docstring proves that enough on (0, 1]
    rs = np.logspace(-30 * math.log10(2.0), 0.0, 4625)  # 512 points a decade on [2^-30, 1]
    for C in (math.exp(beta / n), 1.01 * math.exp(beta / n), 10.0 * math.exp(beta / n)):
        vals = log_kernel(beta, C, n).profile(rs)
        assert np.all(np.diff(vals) <= 1e-12 * vals[:-1]), (beta, C, n)


@pytest.mark.parametrize("beta, C", [(math.nan, 10.0), (math.inf, 10.0), (1.0, 10.0), (1.5, math.nan),
                                     (1.5, math.inf), (1.5, 0.0), (1.5, -1.0), (1000.0, 1e300)])
def test_log_kernel_refuses_parameters_outside_its_range(beta, C):
    with pytest.raises(InvalidKernelError):
        log_kernel(beta, C, 1)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_constant_kernel_refuses_a_value_outside_its_range(value):
    with pytest.raises(InvalidKernelError):
        constant_kernel(value)


def test_bar_root_matches_geometric_series():
    D = 6
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, D)
    grid = lebesgue_grid([(0.0, 1.0)], D)
    bf = BarField(DyadicKernelMap.from_radial(riesz_kernel(0.5, 1)), grid, w)
    expect = (1 - 2.0 ** (-(D + 1) / 2)) / (1 - 2.0 ** -0.5)
    for x in (0.01, 0.37, 0.99):
        assert bf.bar([[x]], [0])[0] == pytest.approx(expect, rel=1e-13)


def test_bar_chain_example():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 2)
    sigma = AtomicMeasure([[0.1]], [1.0])
    K = DyadicKernelMap.from_radial(constant_kernel(1.0))
    bf = BarField(K, sigma, w)
    # chain through x=0.3 meets mass only in [0,1) and [0,0.5)
    assert bf.bar([[0.3]], [0])[0] == 2.0
    # zero-mass cube gives zero by convention
    assert bf.bar([[0.7]], [1])[0] == 0.0
    # x outside Q gives zero (the array query only asks for cubes that hold x)
    assert BarFieldNaive(K, sigma, w).bar(window_cube(w, 1, (0,)), [0.7]) == 0.0
    # a point outside the window gives zero
    assert bf.bar([[1.3], [-0.2]], [0, 2]).tolist() == [0.0, 0.0]


def test_bar_field_matches_naive_exactly():
    rng = np.random.default_rng(17)
    for trial in range(10):
        n = 1 if trial % 2 == 0 else 2
        depth = 4
        w = LatticeWindow.from_box([(0.0, 1.0)] * n, 0, depth)
        sigma = AtomicMeasure(rng.uniform(0, 1, (25, n)), 2.0 ** rng.uniform(-4, 4, 25))
        table = {key: float(2.0 ** rng.uniform(-4, 4)) for key in window_keys(w)}
        K = DyadicKernelMap.from_table(table)
        fast = BarField(K, sigma, w)
        naive = BarFieldNaive(K, sigma, w)
        pts = rng.uniform(0, 1, (5, n))
        # every sample point at every window level, in one call
        levels = range(w.coarse_level, w.fine_level + 1)
        got = fast.bar(np.repeat(pts, len(levels), axis=0), np.tile(levels, len(pts)))
        for a, (x, level) in zip(got, ((x, level) for x in pts for level in levels)):
            b = naive.bar(cube_at(w, x, level), x)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-300)


def test_bar_prefix_chain_identity():
    rng = np.random.default_rng(23)
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 5)
    sigma = AtomicMeasure(rng.uniform(0, 1, (20, 1)), rng.uniform(0.1, 2, 20))
    bf = BarField(DyadicKernelMap.from_radial(riesz_kernel(0.4, 1)), sigma, w)
    x = [0.613]
    held = bf.index.locate(x)
    p_leaf = bf.prefix(held[held >= 0][-1:])[0]  # P at the deepest held cube of x's chain
    for cube in (cube_at(w, x, lvl) for lvl in range(w.coarse_level, w.fine_level + 1)):
        m = cube_mass(sigma, cube)
        if m <= 0:
            continue
        parent = [cube.parent().key] if cube.level > w.coarse_level else []
        above = bf.prefix(bf.index.lookup(parent)).sum()
        assert bf.bar([x], [cube.level])[0] * m == pytest.approx(p_leaf - above, rel=1e-12)


def _bar_cases():
    """Bar fields and query points: 1-D and 2-D windows, coarse levels below 0,
    radial and table kernels (some ``K = inf``), zero weights, indexes that
    hold sigma alone or sigma and other points (as a scene's index does), and
    query points inside, outside and on the cube edges of the window, then the
    atoms themselves."""
    rng = np.random.default_rng(29)
    for n, coarse, depth, shift in ((1, 0, 6, 0.0), (1, -2, 5, 0.3125),
                                    (2, 0, 4, 0.0), (2, -1, 3, -0.137)):
        side, cell = 2.0 ** -coarse, 2.0 ** -(coarse + depth)
        window = LatticeWindow.from_box([(shift, shift + side)] * n, coarse, coarse + depth,
                                        shift=[shift] * n)
        weights = 2.0 ** rng.uniform(-4, 4, 30)
        weights[rng.uniform(size=30) < 0.2] = 0.0
        sigma = AtomicMeasure(shift + side * rng.uniform(0, 1, (30, n)), weights)
        edges = shift + cell * rng.integers(-2, round(side / cell) + 3, (10, n))
        others = np.vstack([shift + side * rng.uniform(-0.25, 1.25, (20, n)), edges])
        table = {key: float(2.0 ** rng.uniform(-4, 4)) for key in window_keys(window)}
        for key in list(table)[3::7]:
            table[key] = math.inf
        for K in (DyadicKernelMap.from_radial(riesz_kernel(0.5 * n, n)),
                  DyadicKernelMap.from_table(table)):
            for index in (None, LevelIndex(window, np.vstack([sigma.positions, others]))):
                yield BarField(K, sigma, window, index), np.vstack([others, sigma.positions])


def test_bar_query_equals_the_per_cube_oracle_exactly():
    rng = np.random.default_rng(30)
    n_inf = n_outside = n_positive = 0
    for bf, pts in _bar_cases():
        w = bf.window
        levels = np.arange(w.coarse_level, w.fine_level + 1)
        # every point at every level, in a random order: mixed levels in one call
        order = rng.permutation(len(pts) * len(levels))
        xs = np.repeat(pts, len(levels), axis=0)[order]
        lv = np.tile(levels, len(pts))[order]
        got = bf.bar(xs, lv)
        want = np.array([bar_per_cube(bf, cube_at(w, x, level), x) if w.contains(x)[0] else 0.0
                         for x, level in zip(xs, lv)])
        assert np.array_equal(got, want, equal_nan=True)
        n_inf += np.isinf(want).sum()
        n_outside += (~w.contains(xs)).sum()
        n_positive += (np.isfinite(want) & (want > 0.0)).sum()
        # an empty batch, and a level the window does not have
        assert bf.bar(np.empty((0, w.dimension)), []).shape == (0,)
        with pytest.raises(LevelRangeError):
            bf.bar(pts[:1], [w.fine_level + 1])
    assert min(n_inf, n_outside, n_positive) > 0


def test_bar_k_closed_form_refinement():
    # Lebesgue + Riesz alpha=1/2: bar_k(r) -> 2 r^(-1/2) as the grid refines
    k = riesz_kernel(0.5, 1)
    r = 0.25
    errs = []
    for level in (8, 10, 12):
        g = lebesgue_grid([(-1.0, 1.0)], level)
        errs.append(abs(bar_k(k, g, [0.0], r) / (2 * r ** -0.5) - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.02


def test_bar_k_divergence_and_empty():
    k = riesz_kernel(0.5, 1)
    assert bar_k(k, AtomicMeasure([[0.2]], [1.0]), [0.2], 0.5) == math.inf
    assert bar_k(k, AtomicMeasure([[5.0]], [1.0]), [0.0], 0.5) == 0.0
    # bounded kernel with no mass at the center stays finite
    assert math.isfinite(bar_k(constant_kernel(1.0), AtomicMeasure([[0.3]], [1.0]), [0.0], 1.0))
    # but an atom at the center diverges for any nonzero kernel
    assert bar_k(constant_kernel(1.0), AtomicMeasure([[0.0]], [1.0]), [0.0], 1.0) == math.inf


def bar_k_sweep(n, seed):
    """Seeded balls over atoms on a coarse lattice, built to reach every edge of the per-ball sum.

    Lattice atoms and centres give tied distances; centres include atoms of
    positive and of zero weight, and one point 1e-6 from an atom; radii
    include exact atom distances, radii past the cutoff and radii too small
    to hold an atom.
    """
    rng = np.random.default_rng([seed, n])
    for trial in range(6):
        m = int(rng.integers(1, 48))
        pos = rng.integers(-8, 9, (m, n)) / 8.0
        # inexact weights, so a change in the order of a sum shows in its value
        w = np.where(rng.uniform(size=m) < 0.2, 0.0, rng.uniform(0.05, 2.0, m))
        w[0] = 0.0  # a zero-weight atom, a centre below
        sigma = AtomicMeasure(pos, w)
        b = 300 if trial == 0 else 40
        xs = np.concatenate([
            pos[rng.integers(0, m, b // 4)],
            rng.integers(-8, 9, (b // 4, n)) / 8.0,
            rng.uniform(-1.2, 1.2, (b - 2 * (b // 4) - 2, n)),
            pos[:1],
            pos[1:2] + 1e-6 if m > 1 else pos[:1],
        ])
        rs = np.where(rng.uniform(size=b) < 0.5, rng.uniform(0.01, 2.5, b),
                      rng.choice([1e-3, 0.75, 0.9, 3.0], b))
        # exact atom distances: the same norm bar_k takes of positions - x
        hit = rng.uniform(size=b) < 0.4
        atom_d = np.linalg.norm(pos[rng.integers(0, m, b)] - xs, axis=1)
        rs = np.where(hit & (atom_d > 0.0), atom_d, rs)
        yield sigma, xs, rs
    yield empty_measure(n), rng.uniform(-1.0, 1.0, (5, n)), np.full(5, 0.5)


@pytest.mark.filterwarnings("ignore:The algorithm does not converge")
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", ["riesz_cutoff", "constant", "log"])
def test_batched_bar_k_equals_the_per_ball_sum_exactly(name, n, monkeypatch):
    kernel = {
        "riesz_cutoff": riesz_kernel(0.5, n, cutoff=0.75),
        "constant": constant_kernel(1.0),
        "log": log_kernel(1.5, math.e ** 1.5, n),
    }[name]
    quad_calls = []
    quad = kernels.quad
    monkeypatch.setattr(kernels, "quad", lambda *a, **k: quad_calls.append(a) or quad(*a, **k))
    monkeypatch.setattr(kernels, "BLOCK", 256)  # every batch of balls spans several blocks
    n_inf = n_zero = 0
    for sigma, xs, rs in bar_k_sweep(n, seed=20261018):
        got = bar_k(kernel, sigma, xs, rs)
        want = [bar_k_per_ball(kernel, sigma, x, r) for x, r in zip(xs, rs)]
        assert np.array_equal(got, want)
        n_inf += int(np.count_nonzero(np.isinf(got)))
        n_zero += int(np.count_nonzero(got == 0.0))
        # the single-centre profile, read as m_k_maximal and wolff_continuous read it
        for x in xs[:8]:
            old = radial_profile_of_one(sigma, x)
            new = sigma.radial_profile(x)
            radii = np.concatenate([old[0], rs])
            assert np.array_equal(np.unique(new[0]), old[0])
            assert np.array_equal(profile_mass(new, radii), profile_mass(old, radii))
    assert n_inf > 0 and n_zero > 0  # atoms at centres and massless balls were reached
    if name == "log":
        assert quad_calls  # the log kernel's segments reached its quadrature rule


def test_bar_k_rejects_a_nonpositive_radius_anywhere_in_the_batch():
    k = riesz_kernel(0.5, 1)
    sigma = AtomicMeasure([[0.0], [0.5]], [1.0, 1.0])
    for bad in (0.0, -0.25):
        with pytest.raises(WolffpotError) as per_ball:
            bar_k_per_ball(k, sigma, [0.1], bad)
        with pytest.raises(WolffpotError) as batched:
            bar_k(k, sigma, [[0.1], [0.2], [0.3]], [0.5, bad, 0.25])
        assert str(batched.value) == str(per_ball.value)
        with pytest.raises(WolffpotError, match=str(per_ball.value)):
            bar_k(k, sigma, [0.1], bad)


def test_dlbo_riesz_lebesgue_is_one():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 8)
    A = dlbo_constant(BarField(
        DyadicKernelMap.from_radial(riesz_kernel(0.5, 1)), lebesgue_grid([(0.0, 1.0)], 8), w
    ))
    assert A == pytest.approx(1.0, abs=1e-12)


def test_dlbo_cascade_geometric_bound():
    n, alpha, gamma = 1, 0.75, 0.415
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 10)
    A = dlbo_constant(BarField(
        DyadicKernelMap.from_radial(riesz_kernel(alpha, n)), bernoulli_cascade(gamma, 10), w
    ))
    assert 1.0 <= A <= 1.0 / (1.0 - 2.0 ** (n - alpha - gamma)) + 1e-9


def test_dlbo_point_mass_diagnostic():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 8)
    A = dlbo_constant(BarField(
        DyadicKernelMap.from_radial(riesz_kernel(0.5, 1)), AtomicMeasure([[0.3]], [1.0]), w
    ))
    assert A > 1.0


def test_lbo_lebesgue_refines_to_one():
    k = riesz_kernel(0.5, 1)
    r = 0.25
    # generic offsets: bar_k is essentially position-free already
    flat = []
    # a point a quarter-cell from an atom perturbs bar_k by O(sqrt(cell))
    near_atom = []
    for level in (6, 8, 10):
        g = lebesgue_grid([(-1.0, 1.0)], level)
        ys = [[f * r] for f in (-2 / 3, -1 / 3, 1 / 3, 2 / 3)]
        flat.append(lbo_constant(k, g, [([0.0], r, ys)]))
        cell = 2.0 ** -level
        ys2 = ys + [[0.5 * cell + 0.25 * cell]]
        near_atom.append(lbo_constant(k, g, [([0.0], r, ys2)]))
    assert all(v == pytest.approx(1.0, abs=1e-9) for v in flat)
    assert near_atom[0] > near_atom[1] > near_atom[2]
    assert near_atom[-1] < 1.2


def test_lbo_skips_degenerate():
    k = riesz_kernel(0.5, 1)
    sigma = AtomicMeasure([[0.0]], [1.0])
    # one degenerate ball (no mass), one fine
    val = lbo_constant(k, sigma, [(([5.0]), 0.1, [[5.0]]), (([0.5]), 1.0, [[0.4], [0.6]])])
    assert math.isfinite(val)


def test_map_with_radial_attribute_but_own_fn_is_evaluated_per_cube():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 2)
    index = LevelIndex(w, np.array([[0.1], [0.6], [0.9]]))
    K = DyadicKernelMap.from_table({key: float(key[1][0]) for key in window_keys(w)})
    assert K.on_cubes(index).tolist() == [float(key[1][0]) for key in index_keys(index)]
    radial = DyadicKernelMap.from_radial(riesz_kernel(0.5, 1))
    assert radial.on_cubes(index).tolist() == [radial(key) for key in index_keys(index)]


# -- array log-primitives -----------------------------------------------------------


def _log_segments(seed, size=400):
    rng = np.random.default_rng(seed)
    a = 2.0 ** rng.uniform(-30.0, 0.0, size)
    b = np.minimum(a * np.exp(rng.uniform(0.0, 7.0, size) * rng.uniform(0.0, 1.0, size) ** 3), 1.0)
    keep = a < b
    return a[keep], b[keep]


@pytest.mark.parametrize("n, C", [(1, math.e ** 1.5), (2, math.e ** 0.75)])
def test_log_primitive_array_matches_scalar_quad(n, C):
    from scipy.integrate import quad

    k = log_kernel(1.5, C, n)
    a, b = _log_segments(n)
    got = k.log_primitive(a, b)
    want = np.array([
        quad(lambda s: k(s) / s, lo, hi, epsabs=0.0, epsrel=1e-10, limit=200)[0]
        for lo, hi in zip(a.tolist(), b.tolist())
    ])
    assert got.shape == a.shape
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_gauss_legendre_tables_are_the_8_point_rule():
    x, w = np.polynomial.legendre.leggauss(8)
    np.testing.assert_allclose(kernels._GL_X, x, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(kernels._GL_W, w, rtol=0.0, atol=1e-15)


def test_log_primitive_sends_all_segments_to_one_quad_call(monkeypatch):
    from scipy.integrate import quad

    calls = []
    rule = kernels.quad

    def counted(f, a, b, n):
        calls.append((a.tolist(), b.tolist(), n))
        return rule(f, a, b, n)

    monkeypatch.setattr(kernels, "quad", counted)
    k = log_kernel(1.5, math.e ** 1.5, 1)
    # narrow and wide segments alike (b/a = 800 as at benchmark seed 0)
    a = np.array([0.01, 0.00125, 0.01, 0.2])
    b = np.array([0.03, 1.0, 0.035, 0.21])
    got = k.log_primitive(a, b)
    assert calls == [(a.tolist(), b.tolist(), 1)]
    for i in range(a.size):
        want = quad(lambda s: k(s) / s, a[i], b[i], epsabs=0.0, epsrel=1e-10, limit=200)[0]
        assert got[i] == pytest.approx(want, rel=1e-14)


def test_quad_value_depends_only_on_its_own_segment(monkeypatch):
    k = log_kernel(1.5, math.e ** 1.5, 1)
    a, b = _log_segments(3)
    together, _ = kernels.quad(k.profile, a, b, 1)
    monkeypatch.setattr(kernels, "BLOCK", 7 * 8)  # blocks of 7 pieces: boundaries inside segments
    alone = [kernels.quad(k.profile, a[i:i + 1], b[i:i + 1], 1)[0][0] for i in range(a.size)]
    assert np.array_equal(together, alone)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("beta", [1.01, 1.1, 1.5, 2.0, 10.0])
def test_log_primitive_matches_the_geometric_pieces_oracle(n, beta):
    k = log_kernel(beta, math.exp(beta / n), n)
    # wide segments, a 2-D segment beside an atom on which QAGS warned, the
    # whole support below the cutoff, a narrow segment, and segments ending at
    # 1 whose log-width is just below, at and just above one piece's
    h = kernels.PIECE_WIDTH / n
    a = np.array([1e-9, 1e-30, 1.414e-6, 1e-60, 0.5, math.exp(-0.999 * h), math.exp(-h),
                  math.exp(-1.001 * h)])
    b = np.array([1e-3, 1e-2, 0.3536, 1.0, 1.0, 1.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = k.log_primitive(a, b)
        want = [log_primitive_by_pieces(k, lo, hi) for lo, hi in zip(a.tolist(), b.tolist())]
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_log_primitive_out_of_floating_point_range_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = log_kernel(1.5, math.e ** 1.5, 1)
        got = k.log_primitive(1e-100, 1e-3)
        assert got == pytest.approx(2.85285e96, rel=1e-5)
        assert got == pytest.approx(log_primitive_by_pieces(k, 1e-100, 1e-3), rel=1e-13, abs=0.0)
        # k(s)/s overflows near a, or s^n is subnormal there: the segment is named
        for n, a in [(1, 1e-160), (3, 1e-100), *[(n, a) for n in (1, 2, 3) for a in (1e-200, 5e-324)]]:
            k = log_kernel(1.5, math.exp(1.5 / n), n)
            with pytest.raises(WolffpotError, match=rf"\[{a}, 0.001\]"):
                k.log_primitive(np.array([0.1, a]), np.array([0.2, 1e-3]))
        # b / a overflows here, so the piece count comes from log(b) - log(a)
        got, _ = kernels.quad(lambda s: s * s, np.array([5e-324]), np.array([1e-3]), 2)
        assert got[0] == pytest.approx(5e-7, rel=1e-14)


# 20,000 balls of radius 0.9 whose centres lie 1e-12 to 1e-2 from one atom:
# one segment of up to 79 quadrature pieces per ball
WIDE_BALLS = """
import resource
import numpy as np
from wolffpot.kernels import bar_k, log_kernel
from wolffpot.measures import AtomicMeasure
k = log_kernel(1.5, np.e ** 1.5, 1)
sigma = AtomicMeasure([[0.0]], [1.0])
xs = 10.0 ** np.linspace(-12.0, -2.0, 20_000)[:, None]
bar_k(k, sigma, xs[:10], np.full(10, 0.9))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert np.all(bar_k(k, sigma, xs, np.full(len(xs), 0.9)) > 0.0)
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


def test_quad_on_many_wide_segments_keeps_its_peak_memory_bounded():
    env = {**os.environ, "PYTHONPATH": str(Path(kernels.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-W", "error", "-c", WIDE_BALLS], env=env,
                         capture_output=True, text=True, check=True)
    # ru_maxrss is in KiB on Linux; the pieces in one block take about 5 MiB,
    # all pieces at once about 140 MiB
    assert float(out.stdout) < 24.0


@settings(derandomize=True, max_examples=100, deadline=None)
@given(n=st.integers(1, 3), beta=st.floats(1.05, 3.0),
       ends=st.lists(st.floats(-60.0, 0.0), min_size=3, max_size=3))
def test_log_primitive_is_nonnegative_and_additive(n, beta, ends):
    k = log_kernel(beta, math.exp(beta / n), n)
    a, m, b = sorted(10.0 ** e for e in ends)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        whole, left, right = k.log_primitive(np.array([a, a, m]), np.array([b, m, b]))
    assert min(whole, left, right) >= 0.0
    assert left + right == pytest.approx(whole, rel=1e-13, abs=0.0)


def test_log_primitive_array_edge_cases():
    from wolffpot import WolffpotError

    riesz = riesz_kernel(0.5, 1)
    log = log_kernel(1.5, math.e ** 1.5, 1)
    zero = constant_kernel(0.0)
    a = np.array([0.0, 0.25, 0.25, 1.5, 0.5])
    b = np.array([0.5, math.inf, 0.25, 3.0, 0.75])
    np.testing.assert_array_equal(
        riesz.log_primitive(a, b), [math.inf, 4.0, 0.0, riesz.log_primitive(1.5, 3.0), riesz.log_primitive(0.5, 0.75)])
    # the log kernel vanishes beyond r = 1: b = inf clamps to 1, [1.5, 3] is empty
    got = log.log_primitive(a, b)
    assert got[0] == math.inf and got[2] == 0.0 and got[3] == 0.0
    assert got[1] == log.log_primitive(0.25, 1.0)
    np.testing.assert_array_equal(zero.log_primitive(a, b), np.zeros(5))
    for k in (riesz, log, zero):
        empty = k.log_primitive(np.array([]), np.array([]))
        assert isinstance(empty, np.ndarray) and empty.shape == (0,)
        assert type(k.log_primitive(0.25, 0.5)) is float
        assert type(k.log_primitive(0.0, 0.5)) is float
        with pytest.raises(WolffpotError):
            k.log_primitive(np.array([0.1, -0.1]), np.array([0.2, 0.2]))
        with pytest.raises(WolffpotError):
            k.log_primitive(np.array([0.1, 0.3]), np.array([0.2, 0.2]))


@pytest.mark.parametrize("kernel, formula", [
    (riesz_kernel(0.5, 1), lambda a, b: (a ** -0.5 - b ** -0.5) / 0.5),
    (riesz_kernel(1.5, 2, cutoff=1.0), lambda a, b: (a ** -0.5 - min(b, 1.0) ** -0.5) / 0.5),
    (constant_kernel(2.0), lambda a, b: 2.0 * math.log(b / a)),
    (constant_kernel(0.5, cutoff=0.7), lambda a, b: 0.5 * math.log(min(b, 0.7) / a)),
])
def test_closed_form_array_primitives_match_scalar_formulas(kernel, formula):
    rng = np.random.default_rng(4)
    a = rng.uniform(0.01, 0.6, 200)
    b = a * rng.uniform(1.5, 3.0, 200)
    got = kernel.log_primitive(a, b)
    for i in range(a.size):
        # elementwise, the array form is the float form
        assert got[i] == kernel.log_primitive(float(a[i]), float(b[i]))
        want = formula(float(a[i]), float(b[i])) if a[i] < (kernel.cutoff or math.inf) else 0.0
        assert got[i] == pytest.approx(want, rel=1e-14, abs=0.0)


def test_profiles_take_arrays():
    rs = np.logspace(-6, 0, 500)
    for k in (riesz_kernel(0.5, 1), log_kernel(1.5, math.e ** 1.5, 1), constant_kernel(3.0)):
        vals = k.profile(rs)
        assert vals.shape == rs.shape
        np.testing.assert_allclose(vals, [k(float(r)) for r in rs], rtol=5e-16, atol=0.0)
    # the log profile evaluates a float exactly as an array element, so an
    # array quadrature and a scalar one see the same integrand
    k = log_kernel(1.5, math.e ** 1.5, 1)
    assert k.profile(rs).tolist() == [k(float(r)) for r in rs]


def test_weigh_and_per_mass_equal_their_masked_forms_bit_for_bit():
    def masked(op, v, m):
        out = np.zeros(np.shape(m))
        pos = m > 0.0
        out[pos] = op(v[pos], m[pos])
        return out

    ops = ((kernels.weigh, np.multiply), (kernels.per_mass, np.divide))
    special = [0.0, -0.0, -1.5, 2.0, 1e-300, np.inf, -np.inf, np.nan]
    v, m = np.meshgrid(special, special[:6] + [np.nan], indexing="ij")  # masses are not -inf
    for values, masses in ((v, m), (v.ravel(), m.ravel())):
        for fn, op in ops:
            with np.errstate(all="ignore"):  # 0 * inf, inf / inf: in both forms where m > 0
                got, want = fn(values, masses), masked(op, values, masses)
            assert got.shape == want.shape == masses.shape
            assert got.tobytes() == want.tobytes(), (fn.__name__, got, want)
    # where m > 0 no entry warns; an entry computed elsewhere would (0 * inf, x / 0, 0 / 0)
    values = np.array([np.inf, 1.0, 0.0, -np.inf, np.nan, 3.0, -2.0, 3.0])
    masses = np.array([0.0, 0.0, -0.0, -1.5, np.nan, np.inf, 4.0, 1e-300])
    for shape in ((8,), (2, 4)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn, op in ops:
                got = fn(values.reshape(shape), masses.reshape(shape))
                want = masked(op, values.reshape(shape), masses.reshape(shape))
                assert got.shape == want.shape == shape
                assert got.tobytes() == want.tobytes(), (fn.__name__, got, want)


def test_a_per_cube_array_meets_a_probe_axis_row_by_row():
    special = np.array([0.0, -0.0, -1.5, 2.0, 1e-300, np.inf, 3.0])
    block = np.stack([np.roll(special, c) for c in range(4)], axis=1)  # (cubes, probes)
    with np.errstate(all="ignore"):  # inf * 0 and 0 / 0 where m > 0 fails, as in 1-D
        weighed, ratio = kernels.weigh(special, block), kernels.per_mass(block, special)
        sums = kernels.weighted_sum(np.abs(special), block)
        assert weighed.shape == ratio.shape == block.shape and sums.shape == (4,)
        for c in range(4):
            assert weighed[:, c].tobytes() == kernels.weigh(special, block[:, c]).tobytes()
            assert ratio[:, c].tobytes() == kernels.per_mass(block[:, c], special).tobytes()
            want = kernels.weighted_sum(np.abs(special), block[:, c])
            assert sums[c].tobytes() == np.float64(want).tobytes()
    assert kernels.weighted_sum(np.zeros(7), block).tolist() == [0.0] * 4
    assert kernels.weighted_sum(np.zeros(0), np.zeros((0, 3))).tolist() == [0.0] * 3
