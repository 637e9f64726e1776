import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wolffpot import (
    AtomicMeasure,
    DegenerateInputError,
    DyadicKernelMap,
    DyadicScene,
    Exponents,
    LatticeWindow,
    RadialKernel,
    bar_k,
    constant_kernel,
    lebesgue_grid,
    riesz_kernel,
)
from wolffpot import verify
from wolffpot.potentials import lambda_substitution
from wolffpot.scenario import load_scenario
from wolffpot.verify import (
    _shifted_dyadic_potential,
    check_a_chain,
    check_bar_lemmas,
    check_counterexample_fields,
    check_fubini,
    check_kernel_dilation,
    check_energy_wolff_ratio,
    counterexample_series,
    shifted_average_check,
    trace_constant_q1,
    trace_test_upper_triangle,
    truncation_sweep,
)

from oracles import (
    counterexample_series_summed,
    exponents_from_p_prime,
    first_at_least,
    log_power_terms,
    random_instance,
    ranges_1d,
    summation_by_parts_min_slack,
    trace_constant_q1_per_probe,
    trace_upper_sup_per_probe,
    window_keys,
)

BETA, CEX = 1.5, math.e ** 1.5
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
K1 = DyadicKernelMap.from_radial(constant_kernel(1.0))


def scene_of(inst):
    return DyadicScene(inst.K, inst.sigma, inst.mu, inst.window)


def radial_scene(kernel, sigma, mu, window):
    return DyadicScene(DyadicKernelMap.from_radial(kernel), sigma, mu, window)


def test_fubini_single_cube():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 0)
    sigma = lebesgue_grid([(0.0, 1.0)], 0)
    mu = AtomicMeasure([[0.5]], [0.7])
    err, _ = check_fubini(DyadicScene(K1, sigma, mu, w), Exponents(p=2.0))
    assert err <= 1e-12
    assert check_fubini(DyadicScene(K1, sigma, AtomicMeasure.empty(1), w),
                        Exponents(p=2.0))[0] == 0.0


def test_fubini_random_instances():
    worst = 0.0
    for i in range(20):
        inst = random_instance([101, i], n=1 + i % 2, depth=4 + i % 4,
                               n_sigma=40, n_mu=40)
        ex = exponents_from_p_prime((1.5, 2.0, 3.0)[i % 3])
        worst = max(worst, check_fubini(scene_of(inst), ex)[0])
    assert worst <= 1e-9


def test_a_chain_single_cube():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 0)
    sigma = lebesgue_grid([(0.0, 1.0)], 0)
    scene = DyadicScene(K1, sigma, AtomicMeasure.empty(1), w)
    ratios = check_a_chain(scene, scene.index.table_values({(0, (0,)): 1.0}), 2.0)
    assert ratios == (1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DegenerateInputError):
        check_a_chain(scene, scene.index.table_values({(0, (0,)): 0.0}), 2.0)


def test_a_chain_proof_constants():
    for i in range(15):
        inst = random_instance([102, i], depth=5, n_sigma=40, n_mu=40)
        scene = scene_of(inst)
        lam = lambda_substitution(scene)
        for s in (1.5, 2.0):
            r = check_a_chain(scene, lam, s)
            assert r[0] <= s
            assert r[1] <= 1.0 + 1e-12
        r = check_a_chain(scene, lam, 3.0)
        assert r[1] <= 1.0 + 1e-12


def test_summation_by_parts_random_weights():
    rng = np.random.default_rng(12)
    inst = random_instance([103, 0], depth=6)
    lam = {key: float(2.0 ** rng.uniform(-6, 6)) for key in window_keys(inst.window)}
    pts = list(inst.sigma.positions) + list(inst.mu.positions)
    scene = scene_of(inst)  # holds every cube on the chains of pts
    for s in (1.0, 1.5, 2.0, 3.0):
        assert summation_by_parts_min_slack(scene, scene.index.table_values(lam), pts, s) >= -1e-12


def test_energy_wolff_ratio_single_cube_and_consistency():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 0)
    sigma = lebesgue_grid([(0.0, 1.0)], 0)
    mu = AtomicMeasure([[0.5]], [0.7])
    scene = DyadicScene(K1, sigma, mu, w)
    assert check_energy_wolff_ratio(scene, Exponents(p=2.0))[2] == pytest.approx(1.0, abs=1e-12)
    # the ratio equals A1/A2 under the weight substitution
    inst = random_instance([104, 1], depth=5)
    ex = Exponents(p=2.0)
    scene = scene_of(inst)
    _, _, ratio, _ = check_energy_wolff_ratio(scene, ex)
    a_ratio = check_a_chain(scene, lambda_substitution(scene), ex.p_prime)[0]
    assert ratio == pytest.approx(a_ratio, rel=1e-12)


def test_trace_q1_duality():
    for i in range(6):
        inst = random_instance([105, i], depth=5)
        res = trace_constant_q1(scene_of(inst), Exponents(p=2.0), probes=60, seed=i)
        assert res.achieved_ratio == pytest.approx(res.dual_constant, rel=1e-8)
        assert res.probe_max <= res.dual_constant * (1 + 1e-10)
        assert res.pairing_gap <= 1e-10


def test_trace_upper_triangle_depth_behaviour():
    # colocated point masses give a divergent Wolff norm and a probe ratio
    # growing with depth; Lebesgue data stay stable
    ex = Exponents(p=2.0, q=1.5)
    K = DyadicKernelMap.from_radial(riesz_kernel(0.5, 1))
    atom = AtomicMeasure([[0.3]], [1.0])
    sups, norms = [], []
    for depth in (4, 6, 8):
        w = LatticeWindow.from_box([(0.0, 1.0)], 0, depth)
        res = trace_test_upper_triangle(DyadicScene(K, atom, atom, w), ex, trials=20, seed=1)
        sups.append(res.empirical_sup)
        norms.append(res.wolff_norm)
    assert norms[0] < norms[1] < norms[2]
    assert sups[0] < sups[1] < sups[2]

    stable = []
    for depth in (4, 6, 8):
        w = LatticeWindow.from_box([(0.0, 1.0)], 0, depth)
        g = lebesgue_grid([(0.0, 1.0)], depth)
        res = trace_test_upper_triangle(DyadicScene(K, g, g, w), ex, trials=20, seed=1)
        assert res.dlbo == pytest.approx(1.0, abs=1e-12)
        stable.append(res.empirical_sup)
    assert stable[2] <= stable[0] * 2.0


def test_trace_upper_empty_mu():
    ex = Exponents(p=2.0, q=1.5)
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 4)
    g = lebesgue_grid([(0.0, 1.0)], 4)
    res = trace_test_upper_triangle(DyadicScene(K1, g, AtomicMeasure.empty(1), w),
                                    ex, trials=5, seed=0)
    assert res.wolff_norm == 0.0 and res.empirical_sup == 0.0


def trace_cases():
    """``(label, scene, exps)`` on which the blocked trace probes must equal the
    per-probe oracles bit for bit."""
    ex = Exponents(p=2.0, q=1.5)
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 4)
    grid, half = lebesgue_grid([(0.0, 1.0)], 4), lebesgue_grid([(0.0, 0.5)], 5)
    K = DyadicKernelMap.from_radial(riesz_kernel(0.5, 1))
    yield "empty mu", DyadicScene(K, grid, AtomicMeasure.empty(1), w), ex
    # a probe that zeroes the one atom has den = 0 and is skipped
    yield "one-atom sigma", DyadicScene(K, AtomicMeasure([[0.3]], [1.0]), grid, w), ex
    table = {key: 2.0 ** (key[0] % 3 - 1) for key in window_keys(w)}
    yield "inf in K off mu", DyadicScene(DyadicKernelMap.from_table(
        {**table, (2, (3,)): math.inf}), grid, half, w), ex
    yield "inf in K on mu", DyadicScene(DyadicKernelMap.from_table(
        {**table, (3, (1,)): math.inf}), grid, half, w), ex
    outside = AtomicMeasure([[-0.5], [0.2], [1.5], [0.7], [0.71]], [1.0, 2.0, 3.0, 0.5, 0.0])
    yield "atoms outside", DyadicScene(K, outside, AtomicMeasure([[0.25], [2.0]], [1.0, 1.0]), w), ex
    inst = random_instance(7, n=2, depth=3, n_sigma=40, n_mu=30)
    yield "2-D window", scene_of(inst), ex
    inst = random_instance(8, n=2, depth=2, n_sigma=20, n_mu=20, kernel="table")
    yield "2-D table", scene_of(inst), ex


def assert_trace_probes_match_oracles(scene, exps, seed, probes=200, trials=30):
    def same(a, b):
        return a == b or (math.isnan(a) and math.isnan(b))

    try:
        want = trace_constant_q1_per_probe(scene, exps, probes, seed)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            trace_constant_q1(scene, exps, probes=probes, seed=seed)
    else:
        res = trace_constant_q1(scene, exps, probes=probes, seed=seed)
        got = (res.dual_constant, res.achieved_ratio, res.probe_max, res.pairing_gap)
        assert all(map(same, got, want)), (seed, got, want)
    ex = exps if exps.q is not None else Exponents(exps.p, 1.5)
    got = trace_test_upper_triangle(scene, ex, trials=trials, seed=seed).empirical_sup
    want = trace_upper_sup_per_probe(scene, ex, trials, seed)
    assert same(got, want), (seed, got, want)


@pytest.mark.parametrize("name", ["cascade_dlbo", "riesz_lebesgue", "single_cube"])
def test_blocked_trace_probes_equal_the_per_probe_oracles_bit_for_bit(name):
    # same draws, same sums in the same order: every value, at every seed
    scn = load_scenario(SCENARIOS / f"{name}.json")
    for seed in range(64):
        assert_trace_probes_match_oracles(scn.scene, scn.exponents, seed)


def test_blocked_trace_probes_equal_the_oracles_on_edge_cases():
    with np.errstate(invalid="ignore"):  # the Wolff norm of an inf K, not compared here
        for label, scene, exps in trace_cases():
            for seed in range(8):
                assert_trace_probes_match_oracles(scene, exps, seed), label


def count_probe_blocks(monkeypatch):
    """The probes of each ``_draw`` call and the rows of each ``_probe_ratios`` call, as made."""
    blocks, rows = [], []
    draw, probe_ratios = verify._draw, verify._probe_ratios
    monkeypatch.setattr(verify, "_draw", lambda rng, m, n: blocks.append(m) or draw(rng, m, n))
    monkeypatch.setattr(verify, "_probe_ratios",
                        lambda *args: rows.append(len(args[3])) or probe_ratios(*args))
    return blocks, rows


def test_trace_probes_spanning_several_blocks_equal_the_oracles(monkeypatch):
    scn = load_scenario(SCENARIOS / "riesz_lebesgue.json")
    blocks, rows = count_probe_blocks(monkeypatch)
    for seed in (0, 11):
        assert_trace_probes_match_oracles(scn.scene, scn.exponents, seed, probes=1000, trials=200)
    # 256 sigma atoms: trace_q1 pairs in blocks of 64 probes; 511 cubes: trace_upper
    # blocks of 32 probes, the last one short
    assert blocks[:16] == [64] * 15 + [40] and blocks[16:23] == [32] * 6 + [8]
    # tables of 3 probes, so the 8 operator-path probes of trace_q1 span three of them
    monkeypatch.setattr(verify, "PROBE_BLOCK", 3 * scn.scene.index.n + 2)
    blocks.clear()
    rows.clear()
    for seed in range(4):
        assert_trace_probes_match_oracles(scn.scene, scn.exponents, seed, probes=50, trials=10)
    assert blocks[:10] == [5] * 10 and blocks[10:14] == [3, 3, 3, 1]
    assert rows[:4] == [1, 3, 2, 3]  # f*, then the 8 operator-path probes


def test_trace_q1_pairing_blocks_are_sized_by_sigma_atoms(monkeypatch):
    blocks, rows = count_probe_blocks(monkeypatch)
    # a pairing probe builds no table: 256 sigma atoms give blocks of 64, not
    # the 32 of the 511-cube table budget
    scn = load_scenario(SCENARIOS / "riesz_lebesgue.json")
    trace_constant_q1(scn.scene, scn.exponents, probes=200, seed=11)
    assert blocks == [64, 64, 64, 8] and rows == [1, 8]
    # 4,095 cubes: the 8 operator-path probes still keep within the table budget
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 11)
    g = lebesgue_grid([(0.0, 1.0)], 11)
    scene = radial_scene(riesz_kernel(0.5, 1, cutoff=1.0), g, g, w)
    assert scene.index.n == 4095
    blocks.clear()
    rows.clear()
    assert_trace_probes_match_oracles(scene, Exponents(2.0, 1.5), 3, probes=20, trials=0)
    assert blocks == [8, 8, 4] and rows == [1, 4, 4]


def test_counterexample_series_bounds():
    se1, sw1 = counterexample_series(BETA, CEX, 1, 10 ** 3)
    se2, sw2 = counterexample_series(BETA, CEX, 1, 10 ** 6)
    assert sw2 - sw1 >= 9.0
    assert se2 - se1 <= 0.2
    # direct-summation oracle, independent loop
    direct = sum(1.0 / (1.5 + l * math.log(2.0)) ** BETA for l in range(1001))
    assert counterexample_series(BETA, CEX, 1, 1000)[0] == pytest.approx(direct, rel=1e-12)


def test_counterexample_series_growth_exponent():
    # at beta = 1.25 the divergent series grows like sqrt(L)
    _, s1 = counterexample_series(1.25, math.e ** 1.25, 1, 10 ** 4)
    _, s4 = counterexample_series(1.25, math.e ** 1.25, 1, 4 * 10 ** 4)
    assert s4 / s1 == pytest.approx(2.0, rel=0.05)


@pytest.mark.parametrize("beta", [1.1, 1.25, 1.5])
def test_counterexample_series_matches_fsum_of_the_terms(beta):
    # beta = 1.5 puts the divergent series on its e = 1 branch, the others on e != 1
    C, m = math.e ** beta, verify._SERIES_DIRECT
    terms = log_power_terms(beta, C, 10 ** 6)

    def close(got, lo, hi):
        for value, t in zip(got, terms):
            want = math.fsum(t[lo:hi + 1])
            assert abs(value - want) <= 1e-14 * want, (lo, hi, value, want)

    for L in (0, m - 1, m, m + 1, 1000, 10 ** 6):
        close(counterexample_series(beta, C, 1, L), 0, L)
        np.testing.assert_allclose(counterexample_series(beta, C, 1, L),
                                   counterexample_series_summed(beta, C, 1, L), rtol=1e-14)
    for L1, L2 in ((0, 1), (m - 2, m), (m - 1, m + 1), (10, 10 + 2 * m), (999, 1000),
                   (1000, 10 ** 6), (123456, 654321), (10 ** 6 - 1, 10 ** 6)):
        close(counterexample_series(beta, C, 1, L2, first=L1 + 1), L1 + 1, L2)


def test_counterexample_fields_small_depths():
    e6, wbar6, iw6 = check_counterexample_fields(BETA, CEX, 6)
    e8, wbar8, iw8 = check_counterexample_fields(BETA, CEX, 8)
    se6, _ = counterexample_series(BETA, CEX, 1, 6)
    # the dyadic field energy collapses to the scalar series squared
    assert e6 == pytest.approx(se6 ** 2, rel=1e-12)
    assert wbar8 > wbar6
    assert math.isfinite(e8) and iw8 > 0


def test_shifted_average_stability():
    k = riesz_kernel(0.5, 1, cutoff=1.0)
    mu = AtomicMeasure([[0.4]], [1.3])
    xs = [[-0.3], [0.1], [0.7], [1.2]]
    ratios = [
        shifted_average_check(k, mu, 0, 4000, xs, seed)["max_ratio"]
        for seed in (1, 2, 3)
    ]
    assert all(math.isfinite(r) and r > 0 for r in ratios)
    spread = (max(ratios) - min(ratios)) / (sum(ratios) / 3)
    assert spread < 0.2
    # both sides are linear in mu, so the ratio is scale-free
    r1 = shifted_average_check(k, mu, 0, 2000, xs, 9)["max_ratio"]
    r2 = shifted_average_check(k, mu.scaled(7.0), 0, 2000, xs, 9)["max_ratio"]
    assert r1 == pytest.approx(r2, rel=1e-12)
    # empty mu is a vacuous pass
    assert shifted_average_check(k, AtomicMeasure.empty(1), 0, 100, xs, 1)["max_ratio"] == 0.0


def test_shifted_average_skips_vacuous_points_and_reports_its_sweep(monkeypatch):
    k = riesz_kernel(0.5, 1, cutoff=1.0)
    mu = AtomicMeasure([[0.4], [0.45]], [1.3, 0.2])
    xs = [[0.1], [5.0], [0.7]]  # 5.0 lies beyond the cutoff: T^1[mu] = 0 there
    swept = []

    def counted(kernel, mu, x, zs, j, j0, by_z):
        swept.append(np.asarray(x).tolist())
        return _shifted_dyadic_potential(kernel, mu, x, zs, j, j0, by_z)

    monkeypatch.setattr(verify, "_shifted_dyadic_potential", counted)
    out = shifted_average_check(k, mu, 0, 1000, xs, 4)
    assert swept == [[0.1], [0.7]]
    assert out["n_points"] == 2 and out["j0"] == 2
    # levels -2 (cutoff 1 = 2^2 / 4) to 3 (x = 0.7 is 0.25 from the nearest atom)
    assert out["levels"] == 6
    rel = [d["stderr"] / d["estimate"] for d in out["details"]]
    assert out["max_rel_stderr"] == max(rel) and 0.0 < max(rel) < 1.0
    empty = shifted_average_check(k, AtomicMeasure.empty(1), 0, 100, xs, 1)
    assert empty["levels"] == 0 and empty["max_rel_stderr"] == 0.0


def broadcast_shifted_potential(kernel, mu, xs, zs, j, j0):
    """Oracle: per-level ``np.floor`` membership over a levels axis."""
    pos, w = mu.positions, mu.weights
    x = np.asarray(xs, dtype=float)
    if kernel.cutoff is not None:
        l_min = -int(math.floor(math.log2(4.0 * kernel.cutoff)))
    else:
        l_min = -(j + j0 + 4)
    d_inf = np.max(np.abs(pos - x), axis=1)
    d_pos = d_inf[d_inf > 0]
    if d_pos.size:
        l_max = int(math.floor(-math.log2(float(np.min(d_pos))))) + 1
    else:
        l_max = l_min + 50
    l_max = min(max(l_max, l_min + 1), l_min + 52)
    levels = np.arange(l_min, l_max + 1)
    kvals = np.array([kernel(2.0 ** (-float(l)) / 4.0) for l in levels])
    live = kvals > 0.0
    levels, kvals = levels[live], kvals[live]
    lev_scale = 2.0 ** levels.astype(float)
    ix = np.floor((x[None, None, :] - zs[:, None, :]) * lev_scale[None, :, None])
    ip = np.floor(
        (pos[None, None, :, :] - zs[:, None, None, :]) * lev_scale[None, :, None, None]
    )  # (shifts, levels, atoms, dim)
    same = np.all(ip == ix[:, :, None, :], axis=3)
    return (same @ w) @ kvals, levels.size


def _sampler_cases():
    rng = np.random.default_rng(20030917)
    # 1-D: atoms on multiples of 2^-3, dyadic shifts on multiples of 2^-5, so
    # p - z = k 2^-5 sits on cube edges; shifts right of the atoms give
    # negative keys
    k1 = riesz_kernel(0.5, 1, cutoff=1.0)
    grid1 = AtomicMeasure(np.arange(8)[:, None] / 8.0, 2.0 ** rng.uniform(-2, 2, 8))
    z_dyadic = rng.integers(-160, 160, (1500, 1)) / 32.0
    yield "1d edges", k1, grid1, [0.3], z_dyadic, 0, 2
    yield "1d x on atom", k1, grid1, [0.375], z_dyadic, 0, 2
    yield "1d uniform shifts", k1, grid1, [0.61], rng.uniform(-4, 4, (1500, 1)), 0, 2
    # x just right of z, an atom just left of it: keys of opposite sign
    straddle = AtomicMeasure([[0.5 - 2.0 ** -30], [0.5 + 2.0 ** -29]], [1.0, 3.0])
    z_straddle = np.concatenate([0.5 - 2.0 ** -np.arange(29, 40)[:, None], z_dyadic[:200]])
    yield "1d opposite signs", k1, straddle, [0.5], z_straddle, 0, 2
    # 2-D: a level-3 grid, dyadic shifts on multiples of 2^-4 and uniform ones
    k2 = riesz_kernel(1.0, 2, cutoff=1.0)
    cells = (np.stack(np.meshgrid(np.arange(8), np.arange(8)), -1).reshape(-1, 2) + 0.5) / 8
    grid2 = AtomicMeasure(cells, 2.0 ** rng.uniform(-2, 2, 64))
    z2 = rng.integers(-64, 64, (800, 2)) / 16.0
    yield "2d edges", k2, grid2, [0.3, 0.8], z2, 0, 3
    yield "2d x on atom", k2, grid2, [0.3125, 0.5625], z2, 0, 3
    yield "2d uniform shifts", k2, grid2, [0.7, 0.2], rng.uniform(-8, 8, (800, 2)), 0, 3
    # cutoff 2^-10 with j = 12: levels 8 to 60, and |p - z| 2^60 passes 2^63
    kc = riesz_kernel(0.5, 1, cutoff=2.0 ** -10)
    near = AtomicMeasure([[2.0 ** -e] for e in (9, 20, 33, 45, 59)] + [[-(2.0 ** -40)]],
                         [1.0, 0.5, 2.0, 0.25, 4.0, 1.5])
    zc = np.concatenate([rng.uniform(-2.0 ** 14, 2.0 ** 14, (400, 1)),
                         rng.uniform(-20, 20, (400, 1)), -(2.0 ** -np.arange(8, 61, 3)[:, None])])
    yield "large keys", kc, near, [0.0], zc, 12, 2
    # 1-D runs of sorted atoms: many atoms share one p, or one fl(p - z)
    rng = np.random.default_rng(20200301)
    z1 = np.concatenate([rng.uniform(-4, 4, (500, 1)), rng.integers(-128, 128, (100, 1)) / 32.0])
    stacks = np.repeat([0.25, 0.5 - 2.0 ** -20, 0.5, 0.875], [40, 25, 1, 30])[:, None]
    yield ("1d repeated atoms", k1, AtomicMeasure(stacks, 2.0 ** rng.uniform(-2, 2, 96)),
           [0.5 - 2.0 ** -22], z1, 0, 2)
    # |z| ~ 2^14 rounds p - z to a multiple of 2^-39 or 2^-38, so a cluster
    # 2^-43 apart collapses; with z near b - 2^14 or b + 2^14 an edge of x's
    # cubes falls inside the cluster, and p - z of atoms below it rounds onto it
    b = round(0.3 * 2.0 ** 38) * 2.0 ** -38
    cluster = b + np.arange(-48, 48) * 2.0 ** -43
    absorbed = np.concatenate([cluster, cluster[::3], [0.05, 0.71]])[:, None]
    edges = np.arange(-40, 41)[:, None] * 2.0 ** -39
    z_far = np.concatenate([rng.uniform(-2.0 ** 14, 2.0 ** 14, (300, 1)),
                            rng.uniform(-4, 4, (100, 1)), b - 2.0 ** 14 + edges,
                            b + 2.0 ** 14 + 2.0 * edges])
    yield ("1d absorbed atoms", k1, AtomicMeasure(absorbed, 2.0 ** rng.uniform(-2, 2, 130)),
           [b + 2.0 ** -31], z_far, 0, 2)
    # atoms one float apart near 2^14: thr + z rounds, down as often as up
    c = round((2.0 ** 14 + 0.3) * 2.0 ** 38) * 2.0 ** -38
    far = AtomicMeasure((c + np.arange(-32, 32) * 2.0 ** -38)[:, None], 2.0 ** rng.uniform(-2, 2, 64))
    yield "1d far atoms", k1, far, [c + 2.0 ** -31], z1, 0, 2
    half_empty = AtomicMeasure(np.arange(16)[:, None] / 16.0,
                               np.where(np.arange(16) % 2, 0.0, 2.0 ** rng.uniform(-2, 2, 16)))
    yield "1d zero weights", k1, half_empty, [0.5625], z1, 0, 2
    yield "1d x right of the hull", k1, grid1, [1.7], z1, 0, 2
    yield "1d x left of the hull", k1, grid1, [-0.4], z1, 0, 2
    # no cutoff; heavy atoms around light ones next to x, so a cube mass read
    # as a difference of prefix sums over all atoms would cancel
    kw = riesz_kernel(0.3, 1)
    light = 0.6 + np.arange(-4, 5) * 2.0 ** -26
    heavy = rng.uniform(0.0, 1.0, 48)
    wide = AtomicMeasure(np.concatenate([heavy, light])[:, None],
                         np.concatenate([2.0 ** rng.uniform(4, 8, 48), 2.0 ** rng.uniform(-8, -6, 9)]))
    yield "1d wide weights", kw, wide, [0.6 + 2.0 ** -28], z1, 0, 2


@pytest.mark.parametrize("label,kernel,mu,x,zs,j,j0",
                         [pytest.param(*case, id=case[0]) for case in _sampler_cases()])
def test_shifted_sampler_matches_broadcast_oracle(label, kernel, mu, x, zs, j, j0):
    want, want_levels = broadcast_shifted_potential(kernel, mu, x, zs, j, j0)
    got, levels = _shifted_dyadic_potential(kernel, mu, x, zs, j, j0)
    assert levels == want_levels
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
    assert np.count_nonzero(want) > 0
    if label == "large keys":
        assert levels == 53  # l_max = 60
        assert np.max(np.abs(mu.positions[:, 0][None, :] - zs)) * 2.0 ** 60 > 2.0 ** 63


@pytest.mark.parametrize("label,kernel,mu,x,zs,j,j0",
                         [pytest.param(*case, id=case[0]) for case in _sampler_cases()
                          if len(case[3]) == 1])
def test_1d_ranges_match_common_depth(label, kernel, mu, x, zs, j, j0):
    # a zero second coordinate everywhere sends the same 1-D case through the
    # common-depth path, with the same levels and the same cubes
    def lift(a):
        a = np.asarray(a, dtype=float).reshape(-1, 1)
        return np.hstack([a, np.zeros_like(a)])

    got, levels = _shifted_dyadic_potential(kernel, mu, x, zs, j, j0)
    lifted = AtomicMeasure(lift(mu.positions[:, 0]), mu.weights)
    want, want_levels = _shifted_dyadic_potential(kernel, lifted, lift(x)[0], lift(zs[:, 0]), j, j0)
    assert levels == want_levels
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def _1d_sweep_cases():
    for label, kernel, mu, x, zs, j, j0 in _sampler_cases():
        if len(x) == 1:
            yield label, kernel, mu, x, zs, j, j0
    # the shifted_average draws of riesz_lebesgue (j = 0, j0 = 2, R = 4) at seeds 0 to 9
    scn = load_scenario(SCENARIOS / "riesz_lebesgue.json")
    for seed in range(10):
        xs = np.random.default_rng([seed, 1]).uniform(0.0, 1.0, (5, 1))
        zs = np.random.default_rng(seed).uniform(-4.0, 4.0, (10000, 1))
        for x in xs:
            yield f"riesz_lebesgue seed {seed}", scn.kernel.radial, scn.mu, x, zs, 0, 2
            yield f"riesz_lebesgue seed {seed} reversed", scn.kernel.radial, scn.mu, x, zs[::-1], 0, 2
    zs = np.random.default_rng(10).uniform(-4.0, 4.0, (300, 1))
    yield "one shift", scn.kernel.radial, scn.mu, [0.3], zs[:1], 0, 2
    yield "equal shifts", scn.kernel.radial, scn.mu, [0.3], np.full((300, 1), 0.71), 0, 2
    yield "x beyond the hull", scn.kernel.radial, scn.mu, [100.0], zs, 0, 2
    # infinite on level 10 alone (radius 2^-12); x = 0.2995 is 6.7e-4 from an
    # atom, so x's level-9 cube is empty for some shifts: their level-10 term
    # is inf * 0 = nan, so no shift may leave the sweep early
    spike = RadialKernel(lambda r: np.where(r == 2.0 ** -12, np.inf, 1.0 / np.sqrt(r)), None, cutoff=1.0)
    zs = np.random.default_rng(11).uniform(-4.0, 4.0, (2000, 1))
    yield "infinite kernel values", spike, scn.mu, [0.2995], zs, 0, 2


def test_1d_sweep_equals_the_draw_order_oracle(monkeypatch):
    # sorted shifts, bracketed searches and dropped empty shifts change no bit
    for label, kernel, mu, x, zs, j, j0 in _1d_sweep_cases():
        with np.errstate(invalid="ignore"):  # inf * 0 under the infinite kernel
            got, levels = _shifted_dyadic_potential(kernel, mu, x, zs, j, j0)
            with monkeypatch.context() as m:
                m.setattr(verify, "_ranges_1d", ranges_1d)
                want, want_levels = _shifted_dyadic_potential(kernel, mu, x, zs, j, j0)
        assert levels == want_levels, label
        assert np.array_equal(got, want, equal_nan=True), label
        if label == "infinite kernel values":
            assert np.isnan(got).any() and np.isinf(got).any()


def test_1d_sweep_stops_once_every_cube_is_empty(monkeypatch):
    # x = 100 is 99 from the grid on [0, 1), so for every shift x's cube at the
    # first level (-2, side 4) is empty
    scn = load_scenario(SCENARIOS / "riesz_lebesgue.json")
    zs = np.random.default_rng(3).uniform(-4.0, 4.0, (500, 1))
    needles, search = [], verify._first_at_least

    def counted(padded, z, thr, table):
        needles.append(z.size)
        return search(padded, z, thr, table)

    monkeypatch.setattr(verify, "_first_at_least", counted)
    vals, levels = _shifted_dyadic_potential(scn.kernel.radial, scn.mu, [100.0], zs, 0, 2)
    assert levels == 2 and not vals.any()
    assert needles == [500, 500]  # both edges of the first level, then no search


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       atoms=st.sampled_from(["spread", "repeated", "clustered", "single", "equal", "subnormal"]),
       z_scale=st.sampled_from([1.0, 2.0 ** 14, 2.0 ** 45]), level=st.integers(-6, 70))
def test_bin_table_search_equals_the_bisection_oracle(seed, atoms, z_scale, level):
    # the bin guess sets only the speed: every index is the oracle's, for atoms
    # that repeat, cluster 2^-43 apart (absorbed by |z| >= 2^14) or span a hull
    # of width 0 or of a few subnormals, for needles far outside the hull, and
    # for levels where |k| >= 2^52; a bin from an inf or a nan raises here
    rng = np.random.default_rng(seed)
    n = 1 if atoms == "single" else int(rng.integers(2, 64))
    base = rng.uniform(-2.0, 2.0)
    p = np.sort({
        "spread": base + rng.uniform(0.0, 1.0, n),
        "repeated": base + rng.integers(0, 4, n) / 8.0,
        "clustered": base + rng.integers(-16, 16, n) * 2.0 ** -43,
        "single": np.full(n, base),
        "equal": np.full(n, base),
        "subnormal": rng.integers(0, 8, n) * 5e-324,
    }[atoms])
    padded = np.concatenate(([-np.inf], p, [np.inf]))
    z = rng.uniform(-1.0, 1.0, 200) * z_scale
    # x on an atom, next to one, or far from all of them
    x = rng.choice(p) + rng.choice([0.0, 1.0, -1.0]) * 2.0 ** rng.uniform(-50.0, 60.0)
    k = np.floor((x - z) * 2.0 ** level)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = verify._bin_table(p)
        for edge in (k, np.maximum(k + 1.0, np.nextafter(k, np.inf))):
            thr = edge * 2.0 ** -level
            assert np.array_equal(verify._first_at_least(padded, z, thr, table),
                                  first_at_least(padded, z, thr))


def test_shifted_average_check_peaks_at_most_1377_kib():
    # riesz_lebesgue's shifted_average at seed 11: 5 points, 10,000 shifts; the
    # sampler's arrays are updated in place, not allocated afresh per level
    scn = load_scenario(SCENARIOS / "riesz_lebesgue.json")
    xs = np.random.default_rng([11, 1]).uniform(0.0, 1.0, (5, 1))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        shifted_average_check(scn.kernel.radial, scn.mu, 0, 10000, xs, 11)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1377 * 1024


def test_kernel_dilation_ratios():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 8)
    g = lebesgue_grid([(0.0, 1.0)], 8)
    ex = Exponents(p=2.0, q=1.5)
    scene = radial_scene(riesz_kernel(0.5, 1), g, g, w)
    assert check_kernel_dilation(scene, ex, 1.0) == (1.0, 1.0)
    sr, nr = check_kernel_dilation(scene, ex, 0.25)
    assert sr == pytest.approx(4.0 ** (1 - 0.5), rel=1e-12)
    assert nr == pytest.approx(4.0 ** (1 - 0.5), rel=1e-12)
    from wolffpot import log_kernel

    sr, nr = check_kernel_dilation(radial_scene(log_kernel(BETA, CEX, 1), g, g, w), ex, 0.25)
    assert math.isfinite(sr) and math.isfinite(nr) and sr > 0 and nr > 0


def test_bar_lemmas_ratios():
    w = LatticeWindow.from_box([(-2.0, 2.0)], 0, 12)
    g = lebesgue_grid([(-2.0, 2.0)], 12)
    samples = [([x], r) for x in (0.013, 0.41, -0.27) for r in (0.25, 0.125)]
    empty = AtomicMeasure.empty(1)
    reform, relation, doubling = check_bar_lemmas(
        radial_scene(riesz_kernel(0.5, 1), g, empty, w), samples)
    assert reform == pytest.approx(1.0, abs=0.05)
    # dyadic-to-continuous comparison approaches alpha / (1 - 2^-alpha)
    assert relation == pytest.approx(0.5 / (1 - 2 ** -0.5), rel=0.02)
    assert doubling <= 2.0 * 1.05
    with pytest.raises(DegenerateInputError):
        check_bar_lemmas(radial_scene(riesz_kernel(0.5, 1), AtomicMeasure([[50.0]], [1.0]),
                                      empty, w), [([0.0], 0.25)])


def test_bar_lemmas_with_every_sample_massless_is_degenerate():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 6)
    scene = radial_scene(riesz_kernel(0.5, 1), lebesgue_grid([(0.0, 1.0)], 6),
                         AtomicMeasure.empty(1), w)
    # inside the window, outside it, and at scales above and below its levels
    massless = [([3.0], 0.5), ([-2.0], 0.25), ([5.0], 4.0), ([0.3], 2.0 ** -10)]
    for samples in (massless, []):
        with pytest.raises(DegenerateInputError):
            check_bar_lemmas(scene, samples)


def test_bar_lemmas_samples_without_a_window_cube_leave_the_relation_nan():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 6)
    scene = radial_scene(riesz_kernel(0.5, 1), lebesgue_grid([(0.0, 1.0)], 6),
                         AtomicMeasure.empty(1), w)
    atom = 19.5 / 64  # a grid atom; the sample centre sits 1e-3 from it
    no_cube = [
        ([0.3], 4.0),               # round(-log2 r) = -2, above the coarse level 0
        ([atom + 1e-3], 2.0 ** -9),  # level 9, below the fine level 6
        ([1.2], 0.5),               # level 1, centre outside the window
        ([-0.1], 0.25),             # level 2, centre outside the window
    ]
    for samples in (no_cube, no_cube[:1], no_cube[1:2], no_cube[2:]):
        reform, relation, doubling = check_bar_lemmas(scene, samples)
        assert math.isnan(relation)
        assert math.isfinite(reform) and math.isfinite(doubling)
    # one sample with a cube gives the relation a value
    reform, relation, doubling = check_bar_lemmas(scene, no_cube + [([0.3], 0.25)])
    assert math.isfinite(relation) and relation >= 1.0


def test_batched_bar_k_over_the_dilation_cubes_peaks_below_1_5_mib():
    # the 511 support cubes check_kernel_dilation hands to one bar_k call on
    # riesz_lebesgue; a larger chunk than BALL_BLOCK would raise the peak
    scene = load_scenario(SCENARIOS / "riesz_lebesgue.json").scene
    index = scene.index
    support = np.flatnonzero((scene.mu_mass > 0.0) & (scene.sigma_mass > 0.0))
    sides = np.ldexp(1.0, -index.level[support])
    centers = np.asarray(index.window.shift) + (index.indices(support) + 0.5) * sides[:, None]
    assert support.size == 511
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        vals = bar_k(scene.kernel.radial, scene.sigma, centers, sides)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.count_nonzero(np.isinf(vals)) == 256  # a grid atom at every fine-cube centre
    assert peak < 1.5 * 2 ** 20


def _riesz_lebesgue():
    scn = load_scenario(SCENARIOS / "riesz_lebesgue.json")
    rng = np.random.default_rng(11)
    samples = [(rng.uniform(0.25, 0.75, 1), float(2.0 ** rng.uniform(-5, -2))) for _ in range(8)]
    return scn.scene, scn.exponents, samples + [([0.5 + 0.5 / 256], 0.125)]


def _two_d_with_atoms_at_cube_centres():
    # grid atoms sit at the centre of every fine cube; one more atom at the
    # centre of the root cube and a zero-weight one at a level-1 centre
    w = LatticeWindow.from_box([(0.0, 1.0)] * 2, 0, 4)
    g = lebesgue_grid([(0.0, 1.0)] * 2, 4)
    sigma = AtomicMeasure(np.vstack([g.positions, [[0.5, 0.5], [0.25, 0.75]]]),
                          np.append(g.weights, [0.01, 0.0]))
    mu = AtomicMeasure([[0.3, 0.6], [0.5, 0.5], [0.8, 0.1], [0.25, 0.75]], [1.0, 0.5, 2.0, 0.7])
    samples = [([0.5, 0.5], 0.25), ([0.25, 0.75], 0.5), ([0.03125, 0.03125], 0.125),
               ([0.3, 0.6], 0.2), ([0.71, 0.42], 0.0625)]
    return radial_scene(riesz_kernel(0.5, 2, cutoff=1.0), sigma, mu, w), Exponents(p=2.0, q=1.5), samples


@pytest.mark.parametrize("instance", [_riesz_lebesgue, _two_d_with_atoms_at_cube_centres])
def test_dilation_and_bar_lemmas_raise_no_numpy_warning(instance):
    scene, ex, samples = instance()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratios = check_kernel_dilation(scene, ex, 0.25) + check_bar_lemmas(scene, samples)
    assert all(math.isfinite(v) and v > 0.0 for v in ratios)


def test_truncation_sweep_flags():
    # identity error stays flat
    flat = truncation_sweep(lambda d: 1e-12, [2, 4, 6])
    assert flat.converged
    # the truncated geometric bar value converges at rate 2^(-alpha) per level
    geo = truncation_sweep(
        lambda d: (1 - 2.0 ** (-(d + 1) / 2)) / (1 - 2.0 ** -0.5), [8, 16, 24], rtol=0.01
    )
    assert geo.converged
    changes = geo.rel_changes
    assert changes[1] < changes[0]
    # the divergent series is flagged
    div = truncation_sweep(
        lambda d: counterexample_series(BETA, CEX, 1, 2 ** d)[1], [4, 8, 12], rtol=0.05
    )
    assert not div.converged
    with pytest.raises(Exception):
        truncation_sweep(lambda d: 1.0, [4, 4])
