"""Acceptance suite: one test (or sub-test) per criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -rA`` (add
``-s`` to stream the lines).

Two sub-criteria assert tolerances that the midpoint-grid surrogate of
Lebesgue measure cannot meet at the configured resolution: the small-radius
bands of the cumulative kernel (9a) and of its maximal function (9c), whose
grid error scales like sqrt(cell/r).  They are kept at their stated
tolerances and fail honestly; the printed detail carries the measured values.

The borderline field energy (8b) is not grid-limited: with Lebesgue grids for
sigma and mu it equals the scalar energy series squared at every depth, so its
change over a sweep step is exact series arithmetic (about 15% from depth 10
to 14, from a tail of order 1/sqrt(L)), and 8b asserts that identity.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from wolffpot import (
    AtomicMeasure,
    BarField,
    DyadicKernelMap,
    DyadicScene,
    Exponents,
    LatticeWindow,
    LevelIndex,
    bar_k,
    bernoulli_cascade,
    constant_kernel,
    cube_mass_table,
    dlbo_constant,
    energy_continuous,
    lebesgue_grid,
    m_k_maximal,
    reverse_doubling_check,
    riesz_kernel,
    wolff_continuous,
)
from wolffpot.cli import main as cli_main
from wolffpot.potentials import lambda_substitution
from wolffpot.verify import (
    check_a_chain,
    check_counterexample_fields,
    check_fubini,
    check_energy_wolff_ratio,
    counterexample_series,
    shifted_average_check,
    trace_constant_q1,
)

from oracles import (
    BarFieldNaive,
    cube_at,
    exponents_from_p_prime,
    random_instance,
    summation_by_parts_min_slack,
)

BASE_SEED = 20260810
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
P_PRIMES = (1.5, 2.0, 3.0)


def scene_of(inst):
    return DyadicScene(inst.K, inst.sigma, inst.mu, inst.window)


def criterion(num: str, label: str, ok: bool, detail: str = "") -> None:
    print(f"[criterion {num:>3}] {'PASS' if ok else 'FAIL'} {label}  {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def suite():
    """The shared family of 100 seeded random instances."""
    out = []
    for i in range(100):
        rng = np.random.default_rng([BASE_SEED, i])
        n = 1 + i % 2
        depth = 3 + (7 * i) % 6  # 3..8
        n_sigma = int(rng.integers(10, 201))
        n_mu = int(rng.integers(10, 201))
        inst = random_instance([BASE_SEED, i], n=n, depth=depth,
                               n_sigma=n_sigma, n_mu=n_mu)
        out.append((inst, exponents_from_p_prime(P_PRIMES[i % 3])))
    return out


def test_criterion_01_fubini_identity(suite):
    worst = 0.0
    for inst, exps in suite:
        err, _ = check_fubini(scene_of(inst), exps)
        worst = max(worst, err)
    criterion("1", "energy identity over 100 instances", worst <= 1e-9,
              f"max relative error {worst:.3e} (tolerance 1e-9)")


def test_criterion_02_summation_by_parts(suite):
    worst = math.inf
    for inst, _ in suite:
        scene = scene_of(inst)
        lam = lambda_substitution(scene)
        for s in (1.5, 2.0, 3.0):
            for atoms in (scene.sigma, scene.mu):
                worst = min(worst, summation_by_parts_min_slack(scene, lam, atoms, s))
    criterion("2", "chain power inequality at every atom", worst >= 0.0,
              f"min slack {worst:.3e} (needs >= 0)")


def test_criterion_03_explicit_proof_constants(suite):
    violations = 0
    worst_c1 = 0.0
    worst_holder = 0.0
    for inst, _ in suite:
        scene = scene_of(inst)
        lam = lambda_substitution(scene)
        for s in (1.5, 2.0, 3.0):
            r = check_a_chain(scene, lam, s)
            worst_holder = max(worst_holder, r[1])
            if r[1] > 1.0 + 1e-12:
                violations += 1
            if s <= 2.0:
                worst_c1 = max(worst_c1, r[0] / s)
                if r[0] > s:
                    violations += 1
    criterion("3", "A1 <= s A2 (s <= 2) and the interpolation bound",
              violations == 0,
              f"violations {violations}, max A1/(s A2) {worst_c1:.6f}, "
              f"max A2/(A1^(1/s) A3^(1/s')) {worst_holder:.12f}")


def test_criterion_04_energy_wolff_band(suite):
    per_pp: dict = {pp: [] for pp in P_PRIMES}
    for inst, exps in suite:
        _, _, ratio, _ = check_energy_wolff_ratio(scene_of(inst), exps)
        if not math.isnan(ratio):
            per_pp[exps.p_prime].append(ratio)
    lo = min(min(v) for v in per_pp.values())
    hi = max(max(v) for v in per_pp.values())
    ok_band = 1e-3 <= lo and hi <= 1e3

    w0 = LatticeWindow.from_box([(0.0, 1.0)], 0, 0)
    _, _, single, _ = check_energy_wolff_ratio(
        DyadicScene(DyadicKernelMap.from_radial(constant_kernel(1.0)),
                    lebesgue_grid([(0.0, 1.0)], 0),
                    AtomicMeasure([[0.5]], [0.7]), w0),
        Exponents(p=2.0),
    )
    ok_single = abs(single - 1.0) <= 1e-12
    criterion("4", "energy / Wolff-mass ratios in band", ok_band and ok_single,
              f"ratios in [{lo:.3g}, {hi:.3g}] (band [1e-3, 1e3]); "
              f"single cube {single:.15f}")


def test_criterion_05_bar_oracle_equivalence():
    worst = 0.0
    for i in range(50):
        rng = np.random.default_rng([BASE_SEED, 500 + i])
        n = 1 + i % 2
        depth = 6 if n == 1 else 4
        inst = random_instance([BASE_SEED, 500 + i], n=n, depth=depth,
                               n_sigma=int(rng.integers(5, 40)), n_mu=5,
                               kernel="table")
        fast = BarField(inst.K, inst.sigma, inst.window)
        naive = BarFieldNaive(inst.K, inst.sigma, inst.window)
        levels = range(inst.window.coarse_level, inst.window.fine_level + 1)
        pts = rng.uniform(0, 1, (4, n))
        # every sample point at every window level, in one call
        got = fast.bar(np.repeat(pts, len(levels), axis=0), np.tile(levels, len(pts)))
        for a, (x, level) in zip(got, ((x, level) for x in pts for level in levels)):
            b = naive.bar(cube_at(inst.window, x, level), x)
            ref = max(abs(a), abs(b), 1e-300)
            worst = max(worst, abs(a - b) / ref if ref > 0 else 0.0)
    D = 8
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, D)
    bf = BarField(DyadicKernelMap.from_radial(riesz_kernel(0.5, 1)),
                  lebesgue_grid([(0.0, 1.0)], D), w)
    got = bf.bar([[0.37]], [0])[0]
    series = (1 - 2.0 ** (-(D + 1) / 2)) / (1 - 2.0 ** -0.5)
    root_err = abs(got - series) / series
    criterion("5", "prefix aggregation vs direct double sum",
              worst <= 1e-12 and root_err <= 1e-12,
              f"max oracle gap {worst:.3e}; root vs geometric series {root_err:.3e}")


def test_criterion_06_q1_duality():
    worst_gap = 0.0
    worst_probe = 0.0
    for i in range(50):
        inst = random_instance([BASE_SEED, 600 + i], n=1 + i % 2, depth=4 + i % 4,
                               n_sigma=60, n_mu=60)
        exps = exponents_from_p_prime(P_PRIMES[i % 3])
        res = trace_constant_q1(scene_of(inst), exps,
                                probes=200, seed=[BASE_SEED, 600 + i, 1])
        worst_gap = max(worst_gap,
                        abs(res.achieved_ratio - res.dual_constant) / res.dual_constant)
        worst_probe = max(worst_probe, res.probe_max / res.dual_constant)
    ok = worst_gap <= 1e-8 and worst_probe <= 1.0 + 1e-10
    criterion("6", "duality achieved at the extremal function", ok,
              f"max extremal gap {worst_gap:.3e}; max probe/dual {worst_probe:.12f}")


def test_criterion_07_dlbo_constants():
    w = LatticeWindow.from_box([(0.0, 1.0)], 0, 8)
    a_leb = dlbo_constant(BarField(DyadicKernelMap.from_radial(riesz_kernel(0.5, 1)),
                                   lebesgue_grid([(0.0, 1.0)], 8), w))
    ok_leb = abs(a_leb - 1.0) <= 1e-12

    n, alpha, gamma = 1, 0.75, 0.415
    w10 = LatticeWindow.from_box([(0.0, 1.0)], 0, 10)
    casc = bernoulli_cascade(gamma, 10)
    a_casc = dlbo_constant(BarField(DyadicKernelMap.from_radial(riesz_kernel(alpha, n)), casc, w10))
    bound = 1.0 / (1.0 - 2.0 ** (n - alpha - gamma))
    ok_casc = a_casc <= bound + 1e-9

    point = AtomicMeasure([[0.3]], [1.0])
    index = LevelIndex(w, point.positions)
    holds, _ = reverse_doubling_check(index, cube_mass_table(point, index), 0.5)
    ok_point = not holds
    criterion("7", "oscillation constants", ok_leb and ok_casc and ok_point,
              f"Lebesgue A={a_leb:.15f}; cascade A={a_casc:.6f} <= {bound:.6f}; "
              f"point mass reverse-doubling holds={holds}")


BETA, CEX = 1.5, math.e ** 1.5


def test_criterion_08a_scalar_series():
    se1, sw1 = counterexample_series(BETA, CEX, 1, 10 ** 3)
    se2, sw2 = counterexample_series(BETA, CEX, 1, 10 ** 6)
    growth, tail = sw2 - sw1, se2 - se1
    criterion("8a", "borderline scalar series", growth >= 9.0 and tail <= 0.2,
              f"divergent-series growth {growth:.4f} (>= 9); "
              f"energy-series tail {tail:.4f} (<= 0.2)")


@pytest.fixture(scope="module")
def counterexample_sweep():
    return {d: check_counterexample_fields(BETA, CEX, d) for d in (6, 10, 14)}


def test_criterion_08b_field_energy_stabilization(counterexample_sweep):
    # with Lebesgue grids for sigma and mu, T_mu is the constant
    # S_E(L) = sum_{l<=L} ln(C 2^l)^(-beta) on [0, 1) and 0 elsewhere, so the
    # field energy is exactly S_E(L)^(p'); E(14)/E(10) - 1 is then ~0.154 by
    # series arithmetic, so stabilization shows as shrinking increments
    pp = Exponents(p=2.0).p_prime
    depths = (6, 10, 14)
    energies = [counterexample_sweep[d][0] for d in depths]
    series = [counterexample_series(BETA, CEX, 1, d)[0] ** pp for d in depths]
    gaps = [abs(e - s) / s for e, s in zip(energies, series)]
    increments = [b - a for a, b in zip(energies, energies[1:])]
    exact = all(g <= 1e-12 for g in gaps)
    finite = all(math.isfinite(e) for e in energies)
    shrinking = 0.0 < increments[1] < increments[0]
    criterion("8b", "field energy equals the squared energy series; increments shrink",
              exact and finite and shrinking,
              ", ".join(f"E({d}) = {e:.12f} vs S_E({d})^2 = {s:.12f} (gap {g:.1e})"
                        for d, e, s, g in zip(depths, energies, series, gaps))
              + f"; increments {increments[0]:.4f} > {increments[1]:.4f} > 0"
              " (gap tolerance 1e-12)")


def test_criterion_08c_bar_potential_divergence(counterexample_sweep):
    wbars = [counterexample_sweep[d][1] for d in (6, 10, 14)]
    increments = [b - a for a, b in zip(wbars, wbars[1:])]
    series = [counterexample_series(BETA, CEX, 1, d)[1] for d in (6, 10, 14)]
    series_inc = [b - a for a, b in zip(series, series[1:])]
    growing = all(i > 0 for i in increments)
    dominated = all(w >= s for w, s in zip(increments, series_inc))
    criterion("8c", "bar-kernel potential grows without bound",
              growing and dominated,
              f"min-interior values {[f'{v:.3f}' for v in wbars]}, "
              f"increments {[f'{v:.3f}' for v in increments]} "
              f">= series increments {[f'{v:.3f}' for v in series_inc]}")


@pytest.fixture(scope="module")
def continuous_setup():
    kern = riesz_kernel(0.5, 1, cutoff=1.0)
    grid = lebesgue_grid([(-2.0, 2.0)], 12)
    delta0 = AtomicMeasure([[0.0]], [1.0])
    return kern, grid, delta0


def test_criterion_09a_bar_kernel_band(continuous_setup):
    kern, grid, _ = continuous_setup
    errs = {}
    for e in range(0, 7):
        r = 2.0 ** -e
        errs[f"2^-{e}"] = bar_k(kern, grid, [0.0], r) / (2.0 * r ** -0.5) - 1.0
    worst = max(abs(v) for v in errs.values())
    # the midpoint grid misses the sub-cell mass near the origin, a deficit of
    # about 0.6 sqrt(cell/r); at level 12 that passes 2% only for r >~ 2^-2
    criterion("9a", "cumulative kernel within 2% of 2 r^(-1/2) on [2^-6, 1]",
              worst <= 0.02,
              "errors " + ", ".join(f"{k}:{v:+.4f}" for k, v in errs.items()))


def test_criterion_09b_wolff_log_band(continuous_setup):
    kern, grid, delta0 = continuous_setup
    exps = Exponents(p=2.0)
    errs = {}
    for e in range(1, 6):
        x = 2.0 ** -e
        got = wolff_continuous(kern, grid, delta0, exps, [x])
        errs[f"2^-{e}"] = got / (4.0 * math.log(1.0 / x)) - 1.0
    worst = max(abs(v) for v in errs.values())
    criterion("9b", "Wolff potential within 5% of 4 ln(1/|x|) on [2^-5, 2^-1]",
              worst <= 0.05,
              "errors " + ", ".join(f"{k}:{v:+.4f}" for k, v in errs.items()))


def test_criterion_09c_maximal_band(continuous_setup):
    kern, grid, delta0 = continuous_setup
    errs = {}
    for e in range(1, 6):
        x = 2.0 ** -e
        errs[f"2^-{e}"] = m_k_maximal(kern, grid, delta0, [x]) / (2.0 * x ** -0.5) - 1.0
    worst = max(abs(v) for v in errs.values())
    # inherits the sqrt(cell/r) deficit of the cumulative kernel near r = |x|
    criterion("9c", "kernel maximal function within 2% of 2 |x|^(-1/2)",
              worst <= 0.02,
              "errors " + ", ".join(f"{k}:{v:+.4f}" for k, v in errs.items()))


def test_criterion_09d_energy_closed_form(continuous_setup):
    _, grid, delta0 = continuous_setup
    kern34 = riesz_kernel(0.75, 1, cutoff=1.0)
    e = energy_continuous(kern34, delta0, grid, Exponents(p=2.0))
    err = abs(e / 4.0 - 1.0)
    criterion("9d", "continuous energy within 2% of 4", err <= 0.02,
              f"E = {e:.6f}, relative error {err:.4f}")


def test_criterion_10_shifted_average():
    kern = riesz_kernel(0.5, 1, cutoff=1.0)
    rng = np.random.default_rng([BASE_SEED, 1000])
    xs = rng.uniform(-0.5, 1.5, (5, 1))
    cases = {
        "single_atom": AtomicMeasure([[0.4]], [1.3]),
        "ten_atoms": AtomicMeasure(rng.uniform(0, 1, (10, 1)),
                                   2.0 ** rng.uniform(-2, 2, 10)),
    }
    ok = True
    details = []
    for label, mu in cases.items():
        ratios = [
            shifted_average_check(kern, mu, 0, 10000, xs, [BASE_SEED, 1000, s])["max_ratio"]
            for s in (1, 2, 3)
        ]
        finite = all(math.isfinite(r) and r > 0 for r in ratios)
        spread = (max(ratios) - min(ratios)) / (sum(ratios) / 3.0)
        bounded = max(ratios) <= 1e3
        ok = ok and finite and spread < 0.2 and bounded
        details.append(f"{label}: max {max(ratios):.4f}, seed spread {spread:.3f}")
    criterion("10", "shifted-lattice averaging bound", ok, "; ".join(details))


def test_criterion_11_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli_main(["verify", "--config", str(SCENARIOS / "single_cube.json"),
                         "--out-dir", str(out), "--threads", "1"])
        assert code == 0
        outs.append((out / "report.json").read_bytes())
    identical = outs[0] == outs[1]
    criterion("11", "same seed gives byte-identical reports", identical,
              f"{len(outs[0])} bytes compared across two runs")
