import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from wolffpot import (
    AtomicMeasure,
    DegenerateInputError,
    DyadicKernelMap,
    DyadicScene,
    Exponents,
    LatticeWindow,
    OutOfWindowError,
    RadialKernel,
    WolffpotError,
    a_functionals,
    bar_k,
    constant_kernel,
    energy_continuous,
    energy_dyadic,
    lambda_substitution,
    lebesgue_grid,
    log_kernel,
    m_k_maximal,
    riesz_kernel,
    t_continuous_trunc,
    wolff_continuous,
)
from wolffpot import potentials
from wolffpot.cli import _field_values
from wolffpot.kernels import BLOCK
from wolffpot.scenario import build_scenario
from wolffpot.verify import wolff_integral

from oracles import (
    exponents_from_p_prime,
    hl_maximal_dyadic,
    m_k_maximal_per_point,
    translated,
    wolff_continuous_per_point,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


K1 = DyadicKernelMap.from_radial(constant_kernel(1.0))


def t_of(K, nu, w, x):
    """``T[nu](x)`` from a scene whose sigma is empty."""
    return DyadicScene(K, AtomicMeasure.empty(w.dimension), nu, w).t_mu(x)


def single_cube_instance(m=0.7):
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 0)
    sigma = lebesgue_grid([(0.0, 1.0)], 0)
    mu = AtomicMeasure([[0.5]], [m])
    return w, sigma, mu


def random_pair(seed, n=1, depth=6, m_sigma=40, m_mu=30):
    rng = np.random.default_rng(seed)
    w = LatticeWindow.from_box([(0.0, 1.0)] * n, 0, depth)
    sigma = AtomicMeasure(rng.uniform(0, 1, (m_sigma, n)), 2.0 ** rng.uniform(-8, 8, m_sigma))
    mu = AtomicMeasure(rng.uniform(0, 1, (m_mu, n)), 2.0 ** rng.uniform(-8, 8, m_mu))
    return w, sigma, mu


def test_exponents():
    ex = Exponents(p=2.0, q=1.5)
    assert ex.p_prime == 2.0
    assert abs(ex.p_prime * (ex.p - 1.0) - ex.p) <= 1e-14
    assert ex.trace_exponent == pytest.approx(1.5 * 1.0 / 0.5)
    assert exponents_from_p_prime(3.0).p == pytest.approx(1.5)
    with pytest.raises(WolffpotError):
        Exponents(p=1.0)
    with pytest.raises(WolffpotError):
        Exponents(p=2.0, q=2.0)
    with pytest.raises(WolffpotError):
        Exponents(p=2.0, q=0.5)


def test_t_dyadic_chain_example():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 2)
    mu = AtomicMeasure([[0.1]], [1.0])
    # cubes [0,1) and [0,0.5) contain both 0.1 and 0.3; [0.25,0.5) does not hold 0.1
    assert t_of(K1, mu, w, [0.3]) == 2.0
    # the field commands reject a point outside the window
    scn = build_scenario({
        "dimension": 1,
        "window": {"coarse_level": 0, "fine_level": 2, "box": [[0, 1]]},
        "sigma": {"type": "atoms", "positions": [], "weights": []},
        "mu": {"type": "atoms", "positions": [[0.1]], "weights": [1.0]},
        "kernel": {"type": "constant", "value": 1.0},
        "exponents": {"p": 2.0},
    })
    with pytest.raises(OutOfWindowError):
        _field_values(scn, [[1.5]], "t")


def test_t_dyadic_linearity():
    w, sigma, mu = random_pair(2)
    nu2 = AtomicMeasure(
        np.vstack([mu.positions, sigma.positions]),
        np.concatenate([mu.weights, sigma.weights]),
    )
    K = DyadicKernelMap.from_radial(riesz_kernel(0.5, 1))
    for x in ([0.2], [0.77]):
        assert t_of(K, nu2, w, x) == pytest.approx(
            t_of(K, mu, w, x) + t_of(K, sigma, w, x), rel=1e-12
        )
    assert t_of(K, AtomicMeasure.empty(1), w, [0.3]) == 0.0


def test_single_cube_closed_forms():
    m = 0.7
    w, sigma, mu = single_cube_instance(m)
    ex = Exponents(p=2.0)
    scene = DyadicScene(K1, sigma, mu, w)
    assert energy_dyadic(scene, ex) == pytest.approx(m * m, rel=1e-12)
    assert scene.wolff([0.5], ex.p_prime) == pytest.approx(m, rel=1e-12)
    assert scene.wolff_bar([0.5], ex.p_prime) == pytest.approx(m, rel=1e-12)
    assert scene.maximal([0.5]) == pytest.approx(m, rel=1e-12)
    assert wolff_integral(scene, ex) == pytest.approx(m * m, rel=1e-12)


def test_homogeneity_degrees():
    w, sigma, mu = random_pair(7)
    K = DyadicKernelMap.from_radial(riesz_kernel(0.6, 1))
    c = 3.7
    mu_c = mu.scaled(c)
    scene, scene_c = DyadicScene(K, sigma, mu, w), DyadicScene(K, sigma, mu_c, w)
    for pp in (1.5, 2.0, 3.0):
        ex = exponents_from_p_prime(pp)
        assert energy_dyadic(scene_c, ex) == pytest.approx(
            c ** pp * energy_dyadic(scene, ex), rel=1e-11
        )
        assert scene_c.wolff([0.4], pp) == pytest.approx(
            c ** (pp - 1.0) * scene.wolff([0.4], pp), rel=1e-11
        )
    assert scene_c.maximal([0.4]) == pytest.approx(
        c * scene.maximal([0.4]), rel=1e-11
    )
    assert t_of(K, mu_c, w, [0.4]) == pytest.approx(
        c * t_of(K, mu, w, [0.4]), rel=1e-11
    )


def test_wolff_zero_without_mu_mass():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 3)
    sigma = lebesgue_grid([(0.0, 1.0)], 3)
    mu = AtomicMeasure([[0.9]], [1.0])
    # at x=0.1 only the root cube carries mu mass; empty mu gives 0
    assert DyadicScene(K1, sigma, AtomicMeasure.empty(1), w).wolff([0.1], 2.0) == 0.0


def test_wolff_bar_dominates_wolff():
    w, sigma, mu = random_pair(11, n=2, depth=4)
    K = DyadicKernelMap.from_radial(riesz_kernel(1.0, 2))
    scene = DyadicScene(K, sigma, mu, w)
    rng = np.random.default_rng(5)
    for x in rng.uniform(0, 1, (12, 2)):
        assert scene.wolff(x, 2.0) <= scene.wolff_bar(x, 2.0) * (1 + 1e-12)


def test_hl_maximal():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 2)
    sigma = lebesgue_grid([(0.0, 1.0)], 2)
    assert hl_maximal_dyadic(DyadicScene(K1, sigma, sigma, w), [0.3]) == 1.0
    double = AtomicMeasure(sigma.positions, 2 * sigma.weights)
    assert hl_maximal_dyadic(DyadicScene(K1, sigma, double, w), [0.3]) == 2.0
    # nu concentrated in one leaf maximizes the ratio there
    nu = AtomicMeasure([[0.3]], [1.0])
    scene = DyadicScene(K1, sigma, nu, w)
    assert hl_maximal_dyadic(scene, [0.3]) == pytest.approx(4.0)
    with pytest.raises(OutOfWindowError):
        hl_maximal_dyadic(scene, [1.5])
    # a chain that never meets sigma mass is degenerate
    w2roots = LatticeWindow.from_box([(0.0, 2.0)], 0, 2)
    with pytest.raises(DegenerateInputError):
        hl_maximal_dyadic(DyadicScene(K1, AtomicMeasure([[1.5]], [1.0]), nu, w2roots), [0.1])


def test_scene_rejects_a_measure_that_is_not_its_own():
    w, sigma, mu = single_cube_instance()
    scene = DyadicScene(K1, sigma, mu, w)
    twin = AtomicMeasure(mu.positions, mu.weights)  # equal to mu, but not the scene's
    with pytest.raises(WolffpotError, match="neither"):
        scene.reweighted(twin, twin.weights)
    with pytest.raises(WolffpotError, match="neither"):
        scene.t_mu(twin)


def test_a_functionals_single_cube():
    w, sigma, mu = single_cube_instance()
    scene = DyadicScene(K1, sigma, mu, w)
    a1, a2, a3 = a_functionals(scene, scene.index.table_values({(0, (0,)): 1.0}), 2.0)
    assert (a1, a2, a3) == (1.0, 1.0, 1.0)
    assert a_functionals(scene, scene.index.table_values({(0, (0,)): 0.0}), 2.0) == (0.0, 0.0, 0.0)


def test_a_functionals_zero_on_massless_cubes():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 1)
    sigma = AtomicMeasure([[0.1]], [1.0])  # no mass in [0.5, 1)
    # mu holds the cube [0.5, 1), so the scene does too
    scene = DyadicScene(K1, sigma, AtomicMeasure([[0.7]], [1.0]), w)
    lam = {(0, (0,)): 1.0, (1, (1,)): 5.0}
    a1, a2, a3 = a_functionals(scene, scene.index.table_values(lam), 2.0)
    assert (a1, a2, a3) == (1.0, 1.0, 1.0)


def test_a_functionals_match_dedicated_operations():
    for seed, pp in ((3, 1.5), (4, 2.0), (5, 3.0)):
        w, sigma, mu = random_pair(seed)
        K = DyadicKernelMap.from_radial(riesz_kernel(0.55, 1))
        ex = exponents_from_p_prime(pp)
        scene = DyadicScene(K, sigma, mu, w)
        a1, a2, a3 = a_functionals(scene, lambda_substitution(scene), pp)
        e = energy_dyadic(scene, ex)
        wm = wolff_integral(scene, ex)
        mm = sum(
            wt * scene.maximal(p) ** pp for p, wt in zip(sigma.positions, sigma.weights)
        )
        assert a1 == pytest.approx(e, rel=1e-12)
        assert a2 == pytest.approx(wm, rel=1e-12)
        assert a3 == pytest.approx(mm, rel=1e-12)


def test_translation_covariance():
    w, sigma, mu = random_pair(9)
    K = DyadicKernelMap.from_radial(riesz_kernel(0.5, 1))
    ex = Exponents(p=2.0)
    t = 0.3125
    wt = LatticeWindow.from_box([(t, 1.0 + t)], 0, w.fine_level, shift=[t])
    scene = DyadicScene(K, sigma, mu, w)
    scene_t = DyadicScene(K, translated(sigma, [t]), translated(mu, [t]), wt)
    for x in ([0.21], [0.86]):
        a = scene.wolff(x, ex.p_prime)
        b = scene_t.wolff([x[0] + t], ex.p_prime)
        assert a == pytest.approx(b, rel=1e-12)
    assert energy_dyadic(scene, ex) == pytest.approx(energy_dyadic(scene_t, ex), rel=1e-12)


# -- continuous operations -------------------------------------------------------


def test_t_continuous_examples():
    k = riesz_kernel(0.5, 1)
    nu = AtomicMeasure([[0.0]], [1.0])
    assert t_continuous_trunc(k, nu, 1.0, [0.25]) == 2.0
    assert t_continuous_trunc(k, nu, math.inf, [0.0]) == math.inf
    assert t_continuous_trunc(k, nu, 0.1, [0.25]) == 0.0
    assert t_continuous_trunc(k, AtomicMeasure.empty(1), 1.0, [0.0]) == 0.0


def test_wolff_continuous_log_closed_form():
    # cutoff Riesz alpha=1/2, sigma = Lebesgue, mu = delta_0, p'=2:
    # W(x) = 4 ln(1/|x|) up to grid error
    k = riesz_kernel(0.5, 1, cutoff=1.0)
    g = lebesgue_grid([(-2.0, 2.0)], 12)
    mu = AtomicMeasure([[0.0]], [1.0])
    ex = Exponents(p=2.0)
    for e in (4, 3, 2):
        x = 2.0 ** -e
        got = wolff_continuous(k, g, mu, ex, [x])
        assert got == pytest.approx(4 * math.log(1 / x), rel=0.05)


def test_wolff_continuous_zero_and_homogeneity():
    k = riesz_kernel(0.5, 1, cutoff=0.25)
    g = lebesgue_grid([(-1.0, 1.0)], 8)
    mu = AtomicMeasure([[0.9]], [1.0])
    ex = Exponents(p=2.0)
    # atom farther than the cutoff: nothing reaches x
    assert wolff_continuous(k, g, mu, ex, [0.0]) == 0.0
    mu2 = AtomicMeasure([[0.1]], [1.0])
    a = wolff_continuous(k, g, mu2, ex, [0.0])
    b = wolff_continuous(k, g, mu2.scaled(5.0), ex, [0.0])
    assert b == pytest.approx(5.0 ** (ex.p_prime - 1.0) * a, rel=1e-10)


def test_wolff_continuous_out_of_reach_mu_makes_no_primitive_call(monkeypatch):
    # log-kernel primitives are quadratures; with no mu-mass within reach of x
    # (beyond the cutoff, beyond R, or massless) none is needed
    k = log_kernel(1.5, 4.4816890703380645, 1)
    g = lebesgue_grid([(-1.0, 1.0)], 6)
    ex = Exponents(p=2.0)
    calls = []
    original = RadialKernel.log_primitive

    def counted(self, a, b):
        calls.append((a, b))
        return original(self, a, b)

    monkeypatch.setattr(RadialKernel, "log_primitive", counted)
    far = AtomicMeasure([[1.5], [-1.25]], [1.0, 2.0])
    assert wolff_continuous(k, g, far, ex, [0.0]) == 0.0
    near = AtomicMeasure([[0.3]], [1.0])
    assert wolff_continuous(k, g, near, ex, [0.0], R=0.25) == 0.0
    assert wolff_continuous(k, g, near.scaled(0.0), ex, [0.0]) == 0.0
    assert calls == []
    assert wolff_continuous(k, g, near, ex, [0.0]) > 0.0
    assert calls


def test_wolff_continuous_truncation_monotone():
    k = riesz_kernel(0.5, 1)
    g = lebesgue_grid([(-1.0, 1.0)], 8)
    mu = AtomicMeasure([[0.1]], [1.0])
    ex = Exponents(p=2.0)
    vals = [wolff_continuous(k, g, mu, ex, [0.0], R=r) for r in (0.2, 0.5, 1.0)]
    assert vals[0] < vals[1] < vals[2]


def test_wolff_continuous_inner_matches_bar_k():
    # the inner integrand of W at fixed r is sum_b w_b bar_k(r)(b)
    k = riesz_kernel(0.5, 1, cutoff=1.0)
    g = lebesgue_grid([(-1.0, 1.0)], 6)
    rng = np.random.default_rng(2)
    mu = AtomicMeasure(rng.uniform(-0.5, 0.5, (5, 1)), rng.uniform(0.5, 2, 5))
    x = [0.0]
    r = 0.375
    inner = sum(
        wt * bar_k(k, g, pos, r)
        for pos, wt in zip(mu.positions, mu.weights)
        if np.linalg.norm(pos - np.asarray(x)) <= r
    )
    # recover it from the potential's increment over a thin radial shell:
    # dW = sigma(B(x,r)) * inner(r) * k(r) dr/r for p' = 2
    lo = wolff_continuous(k, g, mu, Exponents(p=2.0), x, R=r)
    hi = wolff_continuous(k, g, mu, Exponents(p=2.0), x, R=r * (1 + 1e-9))
    sB = g.ball_mass(x, r)
    approx_inner = (hi - lo) / (sB * k.log_primitive(r, r * (1 + 1e-9)))
    assert approx_inner == pytest.approx(inner, rel=1e-3)


def test_wolff_continuous_divergence_with_colocated_atoms():
    k = riesz_kernel(0.5, 1, cutoff=1.0)
    sigma = AtomicMeasure([0.0, 0.3], [1.0, 1.0])
    mu = AtomicMeasure([[0.0]], [1.0])  # sits on a sigma atom
    assert wolff_continuous(k, sigma, mu, Exponents(p=2.0), [0.1]) == math.inf


def test_m_k_closed_form():
    k = riesz_kernel(0.5, 1, cutoff=1.0)
    g = lebesgue_grid([(-2.0, 2.0)], 12)
    mu = AtomicMeasure([[0.0]], [1.0])
    for e in (3, 2, 1):
        x = 2.0 ** -e
        assert m_k_maximal(k, g, mu, [x]) == pytest.approx(2 * x ** -0.5, rel=0.04)
    assert m_k_maximal(k, g, AtomicMeasure.empty(1), [0.3]) == 0.0
    assert m_k_maximal(k, AtomicMeasure([[0.0]], [1.0]), mu, [0.0]) == math.inf


def test_m_k_refinement_trend():
    # the sqrt(cell/r) grid deficit shrinks as the grid refines
    k = riesz_kernel(0.5, 1, cutoff=1.0)
    mu = AtomicMeasure([[0.0]], [1.0])
    x = [2.0 ** -4]
    errs = []
    for level in (10, 12, 14):
        g = lebesgue_grid([(-2.0, 2.0)], level)
        errs.append(abs(m_k_maximal(k, g, mu, x) / (2 * 2.0 ** 2) - 1.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] == pytest.approx(2.0 * errs[2], rel=0.2)


# -- continuous operations against their definitions -----------------------------------


def riesz_instance(seed, n):
    """Small seeded instance with repeated sigma- and mu-atoms and a query point."""
    rng = np.random.default_rng([seed, n, 41])
    sp = rng.uniform(-0.8, 0.8, (9, n))
    sp = np.vstack([sp, sp[:2]])  # two sigma-atoms doubled in place
    sigma = AtomicMeasure(sp, rng.uniform(0.2, 2.0, len(sp)))
    mp = rng.uniform(-0.3, 0.3, (3, n))
    mu = AtomicMeasure(np.vstack([mp, mp[:1]]), rng.uniform(0.5, 2.0, 4))
    return sigma, mu, rng.uniform(-0.1, 0.1, n)


def wolff_by_quad(kernel, sigma, mu, pp, x, upper):
    """``W_k`` of its definition, integrated by quad between the jump radii."""
    x = np.asarray(x, dtype=float)
    dist = lambda pos, c: np.linalg.norm(pos - c, axis=1)  # noqa: E731
    jumps = [dist(sigma.positions, x), dist(mu.positions, x)]
    jumps += [dist(sigma.positions, b) for b in mu.positions]
    edges = np.unique(np.concatenate(jumps + [[0.0, upper]]))
    edges = edges[edges <= upper]

    def integrand(r):
        inner = sum(w * bar_k(kernel, sigma, b, r)
                    for b, w in zip(mu.positions, mu.weights) if np.linalg.norm(b - x) <= r)
        return kernel(r) * sigma.ball_mass(x, r) * inner ** (pp - 1.0) / r

    return sum(quad(integrand, a, b, epsabs=0.0, epsrel=1e-11, limit=200)[0]
               for a, b in zip(edges[:-1], edges[1:]))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_wolff_continuous_matches_quadrature_of_definition(seed, n):
    sigma, mu, x = riesz_instance(seed, n)
    alpha = 0.5 if n == 1 else 1.25
    cases = [
        (riesz_kernel(alpha, n), 0.9, 1.5),  # finite R
        (riesz_kernel(alpha, n, cutoff=0.7), math.inf, 2.0),  # cutoff
        (riesz_kernel(alpha, n, cutoff=0.7), 0.5, 3.0),  # R below the cutoff
    ]
    for kernel, R, pp in cases:
        got = wolff_continuous(kernel, sigma, mu, exponents_from_p_prime(pp), x, R=R)
        want = wolff_by_quad(kernel, sigma, mu, pp, x, min(R, kernel.cutoff or math.inf))
        assert want > 0.0
        assert got == pytest.approx(want, rel=1e-8)


def test_wolff_continuous_coincident_mu_and_sigma_atoms_diverge():
    # a mu-atom on a sigma-atom has bar_k(r) = inf at every r, so W = inf
    sigma, mu, x = riesz_instance(0, 2)
    mu = AtomicMeasure(np.vstack([mu.positions, sigma.positions[:1]]), np.append(mu.weights, 1.0))
    kernel = riesz_kernel(1.25, 2, cutoff=3.0)
    assert bar_k(kernel, sigma, sigma.positions[0], 0.1) == math.inf
    assert wolff_continuous(kernel, sigma, mu, Exponents(p=2.0), x) == math.inf
    # out of reach (beyond R from x), the same atom adds nothing
    far = np.linalg.norm(sigma.positions[0] - x)
    assert math.isfinite(wolff_continuous(kernel, sigma, mu, Exponents(p=2.0), x, R=far * 0.99))


# -- wolff_continuous at many points against the per-point sweep ----------------------


LOG_C = 4.4816890703380645
ROW_KERNELS = {
    "riesz_cutoff": lambda n: riesz_kernel(0.5 if n == 1 else 1.25, n, cutoff=0.9),
    "log": lambda n: log_kernel(1.5, LOG_C, n),
    "constant": lambda n: constant_kernel(1.0, cutoff=0.8),
}


def rows_instance(n):
    """Sigma with massless atoms, a mu-atom of zero weight, and 10 query points.

    The points are random ones, one on a mu-atom, one next to the heavy
    sigma-atom at ``0.1`` and one out of every kernel's reach.
    """
    rng = np.random.default_rng([n, 43])
    sp = rng.uniform(-1.0, 1.0, (30, n))
    sp[:2] = [[-0.1] * n, [0.1] * n]
    sw = rng.uniform(0.2, 2.0, 30)
    sw[::6] = 0.0  # among them the atom at -0.1
    mp = rng.uniform(-0.6, 0.6, (5, n))
    mw = rng.uniform(0.5, 2.0, 5)
    mw[2] = 0.0
    pts = np.vstack([rng.uniform(-0.5, 0.5, (7, n)), mp[:1], np.full((1, n), 0.15),
                     np.full((1, n), 5.0)])
    return AtomicMeasure(sp, sw), AtomicMeasure(mp, mw), pts


def assert_rows_match(got, want):
    """Equal infinities, and finite values within 1e-13 relative."""
    want = np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("block", [1024, 7])  # segments a block for a point alone
@pytest.mark.parametrize("R", [math.inf, 0.6])
@pytest.mark.parametrize("name", list(ROW_KERNELS))
@pytest.mark.parametrize("n", [1, 2])
def test_wolff_continuous_rows_match_the_per_point_sweep(n, name, R, block, monkeypatch):
    monkeypatch.setattr("wolffpot.kernels.BLOCK", 4 * block)
    kernel = ROW_KERNELS[name](n)
    sigma, mu, pts = rows_instance(n)
    ex = exponents_from_p_prime(1.7)
    # mu-atoms on the heavy sigma-atom at 0.1 and on the massless one at -0.1
    on = AtomicMeasure(np.vstack([mu.positions, sigma.positions[[1, 0]]]),
                       np.append(mu.weights, [1.0, 1.0]))
    for m in (mu, on, AtomicMeasure.empty(n)):
        want = [wolff_continuous_per_point(kernel, sigma, m, ex, p, R=R) for p in pts]
        for p, value in zip(pts, want):
            got = wolff_continuous(kernel, sigma, m, ex, p, R=R)
            assert type(got) is float and got == value  # bit for bit
        assert_rows_match(wolff_continuous(kernel, sigma, m, ex, pts, R=R), want)
        assert want[-1] == 0.0  # out of reach
        if m is mu:
            assert all(0.0 <= v < math.inf for v in want) and max(want) > 0.0
        elif m is on:
            assert want[-2] == math.inf
        else:
            assert want == [0.0] * len(pts)


def _step_kernel(radius: float) -> RadialKernel:
    """``k = 1`` on ``(0, radius]`` and 0 beyond, with no declared cutoff."""
    def prim(a, b):
        return np.where(a < radius, np.log(np.minimum(b, radius) / np.minimum(a, radius)), 0.0)

    return RadialKernel(lambda r: np.where(np.asarray(r) <= radius, 1.0, 0.0), prim,
                        limit_at_zero=1.0, name="step")


def test_wolff_continuous_coincident_atoms_end_before_any_sort(monkeypatch):
    # sigma: heavy atoms at 0 and 0.8, a massless one at 0.5; mu: atoms on the
    # sigma-atoms at 0, 0.5 and 0.8, and one at 0.2 on none
    sigma = AtomicMeasure([0.0, 0.5, 0.8, -0.35], [1.0, 0.0, 2.0, 0.5])
    mu = AtomicMeasure([0.0, 0.5, 0.2, 0.8], [1.0, 3.0, 0.5, 1.0])
    riesz, ex = riesz_kernel(0.5, 1), Exponents(p=2.0)
    cases = [
        (riesz, 0.1, math.inf, True),        # d(x, 0) = 0.1 < R
        (riesz, 0.0, math.inf, True),        # x on the coincident atoms: d = 0
        (riesz, 0.25, 0.25, False),          # d(x, 0) == R: no segment starts there
        (riesz, 0.45, 0.3, False),           # on the massless sigma-atom only; 0 is beyond R
        (riesz, 0.15, 0.1, False),           # R cuts the coincident atom off
        (_step_kernel(0.2), 0.1, math.inf, True),
        (_step_kernel(0.2), 0.3, math.inf, False),  # k = 0 just above d(x, 0) = 0.3
        (_step_kernel(0.2), 0.65, math.inf, True),  # k > 0 just above d(x, 0.8) only
        (constant_kernel(0.0), 0.1, math.inf, False),  # limit_at_zero = 0
    ]
    sorts = []
    original = AtomicMeasure.radial_profile

    def counted(self, *args, **kwargs):
        sorts.append(1)
        return original(self, *args, **kwargs)

    for kernel, x, R, diverges in cases:
        want = wolff_continuous_per_point(kernel, sigma, mu, ex, [x], R=R)
        monkeypatch.setattr(AtomicMeasure, "radial_profile", counted)
        sorts.clear()
        got = wolff_continuous(kernel, sigma, mu, ex, [x], R=R)
        monkeypatch.setattr(AtomicMeasure, "radial_profile", original)
        assert got == want, (kernel.name, x, R)
        assert (want == math.inf) is diverges
        assert (not sorts) is diverges, (kernel.name, x, R)
    # in one call the diverging points take no part in the grid
    xs = np.array([[0.1], [0.0], [0.35], [0.45]])
    monkeypatch.setattr(AtomicMeasure, "radial_profile", counted)
    sorts.clear()
    got = wolff_continuous(riesz, sigma, mu, ex, xs, R=0.3)
    monkeypatch.setattr(AtomicMeasure, "radial_profile", original)
    assert_rows_match(got, [wolff_continuous_per_point(riesz, sigma, mu, ex, x, R=0.3) for x in xs])
    assert list(np.isinf(got)) == [True, True, False, False]
    assert len(sorts) == 2 + 2  # the two finite points and the mu-atoms at 0.5 and 0.2


def continuous_field_instance(seed: int = 11):
    """The kernel, measures and query points of the ``continuous_field`` benchmark workload."""
    rng = np.random.default_rng([seed, 20030917])
    mu = AtomicMeasure(rng.uniform(0.0, 1.0, (4, 1)), 2.0 ** rng.uniform(-1.0, 1.0, 4))
    points = rng.uniform(0.0, 1.0, (4, 1))
    return log_kernel(1.5, LOG_C, 1), lebesgue_grid([(-1.0, 2.0)], 10), mu, points


def test_wolff_continuous_rows_sweep_one_grid_within_the_loops_memory(monkeypatch):
    kernel, sigma, mu, pts = continuous_field_instance()
    ex = Exponents(p=2.0)

    def loop():
        return [wolff_continuous_per_point(kernel, sigma, mu, ex, p) for p in pts]

    def rows():
        return wolff_continuous(kernel, sigma, mu, ex, pts)

    segments = []
    original = RadialKernel.log_primitive

    def counted(self, a, b):
        segments.append(np.size(a))
        return original(self, a, b)

    monkeypatch.setattr(RadialKernel, "log_primitive", counted)
    want = loop()
    per_point = sum(segments)
    segments.clear()
    assert_rows_match(rows(), want)
    # the union of the four grids, swept in blocks of four columns per point
    step = BLOCK // (4 * len(pts))
    assert step < sum(segments) < per_point
    assert len(segments) == -(-sum(segments) // step)
    monkeypatch.setattr(RadialKernel, "log_primitive", original)
    peaks = []
    for f in (rows, loop):
        tracemalloc.start()
        try:
            f()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1], peaks


def sweep_groups(monkeypatch):
    """Record the points and ``log_primitive`` segments of each group ``wolff_continuous`` sweeps."""
    groups = []
    sweep, primitive = potentials._wolff_sweep, RadialKernel.log_primitive

    def counted_sweep(kernel, pp, around_x, *args):
        groups.append([len(around_x), 0])
        return sweep(kernel, pp, around_x, *args)

    def counted_primitive(self, a, b):
        if groups:
            groups[-1][1] += np.size(a)
        return primitive(self, a, b)

    monkeypatch.setattr(potentials, "_wolff_sweep", counted_sweep)
    monkeypatch.setattr(RadialKernel, "log_primitive", counted_primitive)
    return groups


def test_wolff_continuous_groups_points_in_row_order(monkeypatch):
    # 300 sigma-atoms and 12 mu-atoms in [0, 1), a cutoff of 0.15: each point
    # tracks its own few mu-atoms, and two points track none
    rng = np.random.default_rng(20)
    sigma = AtomicMeasure(rng.uniform(0.0, 1.0, (300, 1)), rng.uniform(0.5, 2.0, 300))
    mu = AtomicMeasure(rng.uniform(0.0, 1.0, (12, 1)), rng.uniform(0.5, 2.0, 12))
    pts = np.vstack([rng.uniform(0.0, 1.0, (40, 1)), [[3.0], [-2.0]]])
    kernel, ex = riesz_kernel(0.5, 1, cutoff=0.15), exponents_from_p_prime(1.7)
    tracks = np.sum(np.abs(mu.positions[:, 0] - pts) <= 0.15, axis=1)
    tracks = tracks[tracks > 0]  # the points that are swept, in order
    want = [wolff_continuous_per_point(kernel, sigma, mu, ex, p) for p in pts]
    groups = sweep_groups(monkeypatch)
    for p in pts:
        wolff_continuous(kernel, sigma, mu, ex, p)
    own = [segments for _, segments in groups]  # the grid of each point alone
    assert len(own) == tracks.size >= 38
    groups.clear()
    got = wolff_continuous(kernel, sigma, mu, ex, pts)
    assert_rows_match(got, want)
    assert got[-2:].tolist() == [0.0, 0.0]
    # consecutive rows, at most one point more than the fewest mu-atoms any of
    # them tracks, and a grid at most twice that of each of its points alone
    sizes = [points for points, _ in groups]
    assert sum(sizes) == tracks.size and 1 < len(sizes) < tracks.size and max(sizes) > 1
    first = np.cumsum([0, *sizes])
    for (points, segments), lo in zip(groups, first):
        assert points <= 1 + min(tracks[lo:lo + points])
        assert segments <= 2 * min(own[lo:lo + points])


def test_wolff_continuous_group_size_is_capped_by_the_tracked_mu_atoms(monkeypatch):
    # sigma on [0, 0.05], one mu-atom at 0.06, a cutoff of 0.3 and 30 points on
    # [0.33, 0.36]: each point tracks the mu-atom but holds few sigma-atoms in
    # reach, so its own grid is about the mu-atom's; the groups stay at 2 points
    sigma = AtomicMeasure(np.linspace(0.0, 0.05, 50)[:, None], np.ones(50))
    mu = AtomicMeasure([[0.06]], [1.0])
    pts = np.linspace(0.33, 0.36, 30)[:, None]
    kernel, ex = riesz_kernel(0.5, 1, cutoff=0.3), Exponents(p=2.0)
    want = [wolff_continuous_per_point(kernel, sigma, mu, ex, p) for p in pts]
    groups = sweep_groups(monkeypatch)
    # the small values sum differences of large powers, so rounding shows at 1e-13
    np.testing.assert_allclose(wolff_continuous(kernel, sigma, mu, ex, pts), want, rtol=1e-12)
    assert [points for points, _ in groups] == [2] * 15


def test_wolff_continuous_many_points_within_the_loops_memory(monkeypatch):
    # cascade_dlbo: a Riesz kernel, 1,024 sigma-atoms and 3 mu-atoms, at 1,000
    # points: they go in groups of at most 4, so the peak is that of one group
    # however many points the call has
    scn = build_scenario(json.loads((SCENARIOS / "cascade_dlbo.json").read_text()))
    kernel, sigma, mu, ex = scn.kernel.radial, scn.sigma, scn.mu, scn.exponents
    pts = np.random.default_rng(7).uniform(0.0, 1.0, (1000, 1))

    def peak(f):
        tracemalloc.start()
        try:
            return f(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    got, rows_peak = peak(lambda: wolff_continuous(kernel, sigma, mu, ex, pts))
    want, loop_peak = peak(lambda: [wolff_continuous_per_point(kernel, sigma, mu, ex, p) for p in pts])
    assert_rows_match(got, want)
    assert rows_peak <= loop_peak, (rows_peak, loop_peak)
    groups = sweep_groups(monkeypatch)
    wolff_continuous(kernel, sigma, mu, ex, pts[:100])
    assert [points for points, _ in groups] == [4] * 25


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_m_k_maximal_matches_scan_of_bar_k(seed, n):
    sigma, mu, x = riesz_instance(seed, n)
    # the cutoff lies beyond every atom, so the unbounded last segment counts
    kernel = riesz_kernel(0.5 if n == 1 else 1.25, n, cutoff=3.0)
    radii = np.unique(np.concatenate([
        np.linalg.norm(sigma.positions - x, axis=1), np.linalg.norm(mu.positions - x, axis=1)]))
    # each atom distance, just below it, and beyond every atom and the cutoff
    scan = np.concatenate([radii, radii * (1.0 - 1e-10), [10.0]])
    vals = [bar_k(kernel, sigma, x, r) * mu.ball_mass(x, r) for r in scan[scan > 0.0]]
    got = m_k_maximal(kernel, sigma, mu, x)
    assert max(vals) > 0.0
    assert got == pytest.approx(max(vals), rel=1e-8)
    assert max(vals) <= got * (1.0 + 1e-12)


def m_k_row_cases(n):
    """Kernels, measures and points at which the row ``M_k`` meets its one-point oracle.

    Coordinates are rounded to 0.1, so sigma and mu distances tie; the points
    include every sigma-atom (some of zero weight) and every mu-atom (some of
    zero weight), and random points between them.
    """
    rng = np.random.default_rng([n, 20261019])
    sp = np.round(rng.uniform(-1.0, 1.0, (24, n)), 1)
    sw = rng.uniform(0.5, 2.0, 24)
    sw[::5] = 0.0
    mp = np.round(rng.uniform(-1.0, 1.0, (10, n)), 1)
    mw = rng.uniform(0.5, 2.0, 10)
    mw[::4] = 0.0
    pts = np.vstack([sp, mp, np.round(rng.uniform(-1.2, 1.2, (12, n)), 1),
                     rng.uniform(-1.2, 1.2, (6, n))])
    sigma, mu = AtomicMeasure(sp, sw), AtomicMeasure(mp, mw)
    kernels = [riesz_kernel(0.5 * n, n), riesz_kernel(0.5 * n, n, cutoff=0.35),
               constant_kernel(1.0), constant_kernel(1.0, cutoff=0.35),
               constant_kernel(0.0), log_kernel(1.5, LOG_C, n)]
    for kernel in kernels:
        yield kernel, sigma, mu, pts


@pytest.mark.filterwarnings("ignore:The algorithm does not converge")
@pytest.mark.parametrize("block", [None, 100])
def test_m_k_rows_equal_the_per_point_oracle_exactly(block, monkeypatch):
    cases = [case for n in (1, 2) for case in m_k_row_cases(n)]
    if block is None:
        # 3,076 atoms stacked: blocks of 5 points, so all 4 at once
        cases += map(continuous_field_instance, range(64))
    else:
        # 34 atoms stacked: blocks of 2 of the 52 points in 1-D, of 1 in 2-D
        monkeypatch.setattr("wolffpot.kernels.BLOCK", block)
    n_inf = n_finite = 0
    for kernel, sigma, mu, pts in cases:
        got = m_k_maximal(kernel, sigma, mu, pts)
        want = [m_k_maximal_per_point(kernel, sigma, mu, p) for p in pts]
        assert np.array_equal(got, want), kernel.name
        n_inf += int(np.count_nonzero(np.isinf(got)))
        n_finite += int(np.count_nonzero(np.isfinite(got) & (got > 0.0)))
    assert n_inf > 0 and n_finite > 0
    kernel, sigma, mu, pts = cases[0]
    assert isinstance(m_k_maximal(kernel, sigma, mu, pts[-1]), float)


def test_m_k_is_inf_before_any_sort_on_a_heavy_sigma_atom(monkeypatch):
    sigma = AtomicMeasure([0.0, 0.5, 1.0], [1.0, 0.0, 2.0])
    mu = AtomicMeasure([0.2], [1.0])
    sorts = []
    original = AtomicMeasure.radial_profile

    def counted(self, *args, **kwargs):
        sorts.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(AtomicMeasure, "radial_profile", counted)
    got = m_k_maximal(riesz_kernel(0.5, 1), sigma, mu, [[0.0], [1.0]])
    assert list(got) == [math.inf, math.inf] and not sorts
    # a massless sigma-atom is no atom at all
    assert math.isfinite(m_k_maximal(riesz_kernel(0.5, 1), sigma, mu, [0.5])) and sorts


def test_m_k_is_zero_where_mu_has_no_mass():
    sigma = AtomicMeasure([0.0, 1.0], [1.0, 1.0])
    massless = AtomicMeasure([0.5], [0.0])
    # on a heavy sigma-atom bar_k is inf at every radius, but mu(B(x,r)) = 0
    # at each, and 0 * inf = 0
    assert m_k_maximal(riesz_kernel(0.5, 1), sigma, massless, [0.0]) == 0.0
    assert m_k_maximal(riesz_kernel(0.5, 1), sigma, massless, [0.3]) == 0.0
    # with no cutoff int^inf k ds/s diverges, so bar_k is inf on the last segment
    assert m_k_maximal(constant_kernel(1.0), sigma, massless, [0.3]) == 0.0
    assert m_k_maximal(constant_kernel(1.0), sigma, AtomicMeasure([0.5], [1.0]), [0.3]) == math.inf


def test_bar_k_edge_cases():
    k = riesz_kernel(0.5, 1)
    # the only atom at distance exactly r: the closed ball holds it, but no
    # segment lies below r, so the integral and bar_k vanish
    assert bar_k(k, AtomicMeasure([[0.75]], [2.0]), [0.25], 0.5) == 0.0
    # an atom at x diverges, even next to atoms farther out
    assert bar_k(k, AtomicMeasure([[0.25], [0.5]], [1.0, 1.0]), [0.25], 0.5) == math.inf
    # a massless atom at x is no atom at all
    two = AtomicMeasure([[0.25], [0.5]], [0.0, 1.0])
    assert bar_k(k, two, [0.25], 0.5) == pytest.approx(k.log_primitive(0.25, 0.5))
    assert bar_k(k, AtomicMeasure.empty(1), [0.25], 0.5) == 0.0
    assert bar_k(k, AtomicMeasure.empty(2), [0.0, 0.0], 1.0) == 0.0


def test_truncated_sums_add_atoms_in_order(monkeypatch):
    from wolffpot import potentials

    # zero weights, an atom at x, atoms beyond R and beyond the cutoff
    k = riesz_kernel(0.5, 1, cutoff=0.75)
    rng = np.random.default_rng(8)
    pos = rng.uniform(-1.5, 1.5, (40, 1))
    w = rng.uniform(0.5, 2.0, 40)
    w[::7] = 0.0
    nu = AtomicMeasure(pos, w)
    g = lebesgue_grid([(-1.0, 1.0)], 5)
    ex = Exponents(p=1.6)

    def by_atom(x, R):
        total = 0.0
        for (y,), wt in zip(pos, w):
            d = abs(y - x)
            if d <= R and wt > 0.0:
                # the profile as the array evaluation computes it, inside the cutoff
                kd = math.inf if d == 0.0 else k.profile(np.array([d]))[0] if d <= 0.75 else 0.0
                total += wt * kd
        return total

    xs = [0.1, 0.37, float(pos[3, 0]), float(pos[7, 0])]
    for x in xs:
        for R in (0.2, 1.0, math.inf):
            assert t_continuous_trunc(k, nu, R, [x]) == by_atom(x, R)
    assert t_continuous_trunc(k, nu, 1.0, [float(pos[3, 0])]) == math.inf
    energy = energy_continuous(k, nu, g, ex)
    total = 0.0
    for (x,), wt in zip(g.positions, g.weights):
        total += wt * by_atom(x, math.inf) ** ex.p_prime
    assert energy == pytest.approx(total, rel=1e-15)
    # row blocks of the point-atom matrix do not change the sums
    monkeypatch.setattr("wolffpot.kernels.BLOCK", 50)
    assert energy_continuous(k, nu, g, ex) == energy


def test_energy_continuous_closed_form():
    k = riesz_kernel(0.75, 1, cutoff=1.0)
    g = lebesgue_grid([(-1.0, 1.0)], 12)
    mu = AtomicMeasure([[0.0]], [1.0])
    ex = Exponents(p=2.0)
    assert energy_continuous(k, mu, g, ex) == pytest.approx(4.0, rel=0.02)
    assert energy_continuous(k, AtomicMeasure.empty(1), g, ex) == 0.0
    assert energy_continuous(k, mu.scaled(2.0), g, ex) == pytest.approx(
        2.0 ** ex.p_prime * energy_continuous(k, mu, g, ex), rel=1e-12
    )
