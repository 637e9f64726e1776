"""Scenario-driven command line front end.

Subcommands ``potential``, ``energy``, ``maximal`` evaluate fields at query
points; ``verify`` runs a scenario's check list; ``counterexample`` and
``trace`` are focused wrappers around the corresponding checks.  Reports are
deterministic: identical (config, seed) pairs produce byte-identical JSON,
with wall-clock timings written to a separate file.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import verify as V
from .errors import OutOfWindowError, ScenarioError, WolffpotError
from .measures import doubling_constant, reverse_doubling_check
from .kernels import dlbo_constant
from .potentials import (
    DyadicScene,
    energy_dyadic,
    lambda_substitution,
    m_k_maximal,
    wolff_continuous,
)
from .lattice import LatticeWindow
from .scenario import Scenario, band_pair, config_value, load_scenario, read_points_csv
from .verify import CheckReport

# -- deterministic serialization -----------------------------------------------


def format_float(x: float) -> str:
    """17-significant-digit decimal form; infinities become the string inf."""
    if isinstance(x, (bool,)):
        return "true" if x else "false"
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.17g}"


def dumps_canonical(obj, indent: int = 0) -> str:
    """Stable JSON text: insertion-ordered fields, fixed float formatting."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return f'"{format_float(x)}"'
        return format_float(x)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad_in}"{k}": {dumps_canonical(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        rows = [f"{pad_in}{dumps_canonical(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    raise WolffpotError(f"cannot serialize {type(obj).__name__}")


def write_report(path: Path, obj) -> None:
    path.write_text(dumps_canonical(obj) + "\n")


def write_ratio_csv(path: Path, reports: list[CheckReport]) -> None:
    lines = ["check,seed,value,lower_band,upper_band,pass"]
    for rep in reports:
        seed = "" if rep.seed is None else str(rep.seed)
        for key, val in rep.values.items():
            lo, hi = rep.bounds.get(key, (None, None))
            lines.append(
                f"{rep.name}:{key},{seed},{format_float(float(val))},"
                f"{'' if lo is None else format_float(lo)},"
                f"{'' if hi is None else format_float(hi)},"
                f"{'pass' if rep.passed else 'fail'}"
            )
    path.write_text("\n".join(lines) + "\n")


# -- check registry ---------------------------------------------------------------


def _param(cfg: dict, key: str, default, kind=float):
    """A check's field ``key`` converted by ``kind``; a malformed value is a ScenarioError."""
    return config_value(cfg, key, cfg["name"], kind, default)


def _seed_of(scn: Scenario, cfg: dict, index: int) -> int:
    return _param(cfg, "seed", scn.seed if scn.seed is not None else 0, int) + index


def _band(scn: Scenario, cfg: dict) -> tuple[float, float]:
    return _param(cfg, "band", scn.band, band_pair)


def _radial(scn: Scenario, what: str):
    if scn.kernel.radial is None:
        raise ScenarioError(f"{what} needs a radial kernel")
    return scn.kernel.radial


def _dropped(measure, window) -> dict:
    """Atoms outside the window's root region, which no window cube holds."""
    out = ~window.contains(measure.positions)
    return {"atoms": int(np.count_nonzero(out)), "mass": float(np.sum(measure.weights[out]))}


def _instance_descriptor(scn: Scenario) -> dict:
    return {
        "dimension": scn.dimension,
        "window": {
            "coarse_level": scn.window.coarse_level,
            "fine_level": scn.window.fine_level,
            "roots": len(scn.window.root_indices),
            "shift": list(scn.window.shift),
        },
        "sigma_atoms": scn.sigma.n_atoms,
        "mu_atoms": scn.mu.n_atoms,
        "sigma_dropped": _dropped(scn.sigma, scn.window),
        "mu_dropped": _dropped(scn.mu, scn.window),
        "kernel": scn.kernel.name,
        "p": scn.exponents.p,
        "q": scn.exponents.q,
    }


def run_fubini(scn: Scenario, cfg: dict, index: int) -> CheckReport:
    tol = _param(cfg, "tol", 1e-9)
    err = V.check_fubini(scn.scene, scn.exponents)
    rep = CheckReport("fubini", _instance_descriptor(scn), seed=_seed_of(scn, cfg, index))
    rep.values = {"relative_error": err}
    rep.bounds = {"relative_error": (0.0, tol)}
    rep.status = "not-applicable" if math.isnan(err) else ("pass" if err <= tol else "fail")
    return rep


def _lambda_weights(scn: Scenario, cfg: dict) -> np.ndarray:
    """A check's ``lambda`` list of ``[level, [i_1, ..., i_n], weight]``, per scene cube.

    A cube the scene does not hold carries no sigma mass, so its weight drops out.
    """
    lam = {}
    for entry in cfg["lambda"]:
        try:
            level, idx, weight = entry
            key, weight = (int(level), tuple(int(i) for i in idx)), float(weight)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"a_chain: field 'lambda' has the invalid entry {entry!r}") from exc
        if len(key[1]) != scn.dimension:
            raise ScenarioError(f"a_chain: field 'lambda' entry {entry!r} has an index of "
                                f"dimension {len(key[1])}, not {scn.dimension}")
        if key in lam:
            raise ScenarioError(f"a_chain: field 'lambda' repeats the cube {key}")
        if not weight >= 0.0:
            raise ScenarioError(f"a_chain: field 'lambda' entry {entry!r} has a negative weight")
        lam[key] = weight
    index = scn.scene.index
    ids = index.lookup(list(lam))
    out = np.zeros(index.n)
    out[ids[ids >= 0]] = np.array(list(lam.values()))[ids >= 0]
    return out


def run_a_chain(scn: Scenario, cfg: dict, index: int) -> CheckReport:
    s = _param(cfg, "s", scn.exponents.p_prime)
    lam = _lambda_weights(scn, cfg) if "lambda" in cfg else lambda_substitution(scn.scene)
    r1, r2, r3, r4 = V.check_a_chain(scn.scene, lam, s)
    rep = CheckReport("a_chain", _instance_descriptor(scn), seed=_seed_of(scn, cfg, index))
    rep.values = {"a1_over_a2": r1, "a2_over_holder": r2, "a3_over_a1": r3, "a1_over_a3": r4}
    rep.bounds = {"a2_over_holder": (0.0, 1.0 + 1e-12)}
    ok = r2 <= 1.0 + 1e-12 and all(map(math.isfinite, (r1, r2, r3, r4)))
    if s <= 2.0:
        rep.bounds["a1_over_a2"] = (0.0, s)
        ok = ok and r1 <= s
    rep.status = "pass" if ok else "fail"
    return rep


def run_energy_wolff_ratio(scn: Scenario, cfg: dict, index: int) -> CheckReport:
    lo, hi = _band(scn, cfg)
    ratio = V.check_energy_wolff_ratio(scn.scene, scn.exponents)
    rep = CheckReport("energy_wolff_ratio", _instance_descriptor(scn), seed=_seed_of(scn, cfg, index))
    rep.values = {"energy_over_wolff_mass": ratio}
    rep.bounds = {"energy_over_wolff_mass": (lo, hi)}
    if math.isnan(ratio):
        rep.status = "not-applicable"
    else:
        rep.status = "pass" if lo <= ratio <= hi else "fail"
    return rep


def run_trace_q1(scn: Scenario, cfg: dict, index: int) -> CheckReport:
    probes = _param(cfg, "probes", 200, int)
    res = V.trace_constant_q1(
        scn.scene, scn.exponents, probes=probes, seed=_seed_of(scn, cfg, index)
    )
    gap = abs(res.achieved_ratio - res.dual_constant) / max(res.dual_constant, 1e-300)
    rep = CheckReport("trace_q1", _instance_descriptor(scn), seed=_seed_of(scn, cfg, index))
    rep.values = {
        "dual_constant": res.dual_constant,
        "achieved_ratio": res.achieved_ratio,
        "probe_max": res.probe_max,
        "extremal_gap": gap,
        "pairing_gap": res.pairing_gap,
    }
    rep.bounds = {"extremal_gap": (0.0, 1e-8)}
    ok = gap <= 1e-8 and res.probe_max <= res.dual_constant * (1.0 + 1e-10)
    rep.status = "pass" if ok else "fail"
    return rep


def run_trace_upper(scn: Scenario, cfg: dict, index: int) -> CheckReport:
    trials = _param(cfg, "trials", 50, int)
    res = V.trace_test_upper_triangle(
        scn.scene, scn.exponents, trials=trials, seed=_seed_of(scn, cfg, index)
    )
    lo, hi = _band(scn, cfg)
    rep = CheckReport("trace_upper", _instance_descriptor(scn), seed=_seed_of(scn, cfg, index))
    rep.values = {
        "wolff_norm": res.wolff_norm,
        "empirical_sup": res.empirical_sup,
        "dlbo": res.dlbo,
        "equivalence_claimed": 1.0 if math.isfinite(res.dlbo) else 0.0,
    }
    ratio = res.empirical_sup / res.wolff_norm if res.wolff_norm > 0 else math.inf
    rep.values["sup_over_wolff_norm"] = ratio
    rep.bounds = {"sup_over_wolff_norm": (lo, hi)}
    rep.status = "pass" if (math.isfinite(ratio) and lo <= ratio <= hi) else "fail"
    return rep


def run_dlbo(scn: Scenario, cfg: dict, index: int) -> CheckReport:
    bound = _param(cfg, "bound", scn.band[1])
    a = dlbo_constant(scn.scene.bar)
    rep = CheckReport("dlbo", _instance_descriptor(scn), seed=_seed_of(scn, cfg, index))
    rep.values = {"oscillation_constant": a}
    rep.bounds = {"oscillation_constant": (1.0, bound)}
    rep.status = "pass" if a <= bound else "fail"
    return rep


def run_reverse_doubling(scn: Scenario, cfg: dict, index: int) -> CheckReport:
    gamma = _param(cfg, "gamma", 1.0)
    expect = bool(cfg.get("expect_holds", True))
    holds, best = reverse_doubling_check(scn.scene.index, scn.scene.sigma_mass, gamma)
    rep = CheckReport("reverse_doubling", _instance_descriptor(scn), seed=_seed_of(scn, cfg, index))
    rep.values = {"best_constant": best, "holds": 1.0 if holds else 0.0}
    rep.status = "pass" if holds == expect else "fail"
    return rep


def run_dilation(scn: Scenario, cfg: dict, index: int) -> CheckReport:
    _radial(scn, "dilation check")  # the check reads the scene's radial kernel
    c = _param(cfg, "c", 0.25)
    lo, hi = _band(scn, cfg)
    sum_ratio, norm_ratio = V.check_kernel_dilation(scn.scene, scn.exponents, c)
    rep = CheckReport("dilation", _instance_descriptor(scn), seed=_seed_of(scn, cfg, index))
    rep.values = {"sum_ratio": sum_ratio, "norm_ratio": norm_ratio, "c": c}
    rep.bounds = {"sum_ratio": (lo, hi), "norm_ratio": (lo, hi)}
    ok = lo <= sum_ratio <= hi and lo <= norm_ratio <= hi
    rep.status = "pass" if ok else "fail"
    return rep


def run_bar_lemmas(scn: Scenario, cfg: dict, index: int) -> CheckReport:
    _radial(scn, "bar_lemmas check")  # the check reads the scene's radial kernel
    n_samples = _param(cfg, "samples", 20, int)
    seed = _seed_of(scn, cfg, index)
    rng = np.random.default_rng(seed)
    lows = np.array([lo for lo, _ in _window_box(scn)])
    highs = np.array([hi for _, hi in _window_box(scn)])
    span = float(np.min(highs - lows))
    samples = []
    for _ in range(n_samples):
        x = lows + (highs - lows) * rng.uniform(0.25, 0.75, scn.dimension)
        r = span * 2.0 ** rng.uniform(-5, -2)
        samples.append((x, float(r)))
    ref, rel, dbl = V.check_bar_lemmas(scn.scene, samples)
    lo, hi = _band(scn, cfg)
    rep = CheckReport("bar_lemmas", _instance_descriptor(scn), seed=seed)
    rep.values = {"reformulation": ref, "relationship": rel, "bar_doubling": dbl}
    rep.bounds = {k: (1.0, hi) for k in rep.values}
    ok = all(math.isfinite(v) and v <= hi for v in rep.values.values())
    # doubling diagnostic recorded alongside
    rep.values["sigma_doubling"] = doubling_constant(
        scn.sigma, [x for x, _ in samples[: max(4, n_samples // 4)]],
        [r for _, r in samples[: max(4, n_samples // 4)]],
    )
    rep.status = "pass" if ok else "fail"
    return rep


def run_shifted_average(scn: Scenario, cfg: dict, index: int) -> CheckReport:
    kernel = _radial(scn, "shifted_average check")
    j = _param(cfg, "j", 0, int)
    draws = _param(cfg, "draws", 10000, int)
    if draws < 2:
        raise ScenarioError(f"shifted_average: field 'draws' must be at least 2, got {draws}")
    n_x = _param(cfg, "x_samples", 5, int)
    seed = _seed_of(scn, cfg, index)
    rng = np.random.default_rng([seed, 1])
    lows = np.array([lo for lo, _ in _window_box(scn)])
    highs = np.array([hi for _, hi in _window_box(scn)])
    xs = lows + (highs - lows) * rng.uniform(0.0, 1.0, (n_x, scn.dimension))
    out = V.shifted_average_check(kernel, scn.mu, j, draws, xs, seed)
    lo, hi = _band(scn, cfg)
    rep = CheckReport("shifted_average", _instance_descriptor(scn), seed=seed)
    rep.values = {
        "max_ratio": out["max_ratio"],
        "points": float(out["n_points"]),
        "j0": float(out["j0"]),
        "levels": float(out["levels"]),
        "max_rel_stderr": out["max_rel_stderr"],
    }
    rep.bounds = {"max_ratio": (0.0, hi)}
    rep.status = "pass" if out["max_ratio"] <= hi else "fail"
    return rep


def _ints(values) -> list[int]:
    return [int(v) for v in values]


def _int_pair(values) -> tuple[int, int]:
    a, b = values
    return int(a), int(b)


def run_counterexample_series(scn: Scenario, cfg: dict, index: int) -> CheckReport:
    beta = _param(cfg, "beta", 1.5)
    C = _param(cfg, "C", math.exp(beta / scn.dimension))
    terms = _param(cfg, "terms", (1000, 1000000), _int_pair)
    growth_min = _param(cfg, "w_growth_min", 9.0)
    tail_max = _param(cfg, "e_tail_max", 0.2)
    se1, sw1 = V.counterexample_series(beta, C, scn.dimension, terms[0])
    se2, sw2 = V.counterexample_series(beta, C, scn.dimension, terms[1])
    rep = CheckReport("counterexample_series", {"beta": beta, "C": C}, seed=_seed_of(scn, cfg, index))
    rep.values = {
        "energy_series_tail": se2 - se1,
        "wbar_series_growth": sw2 - sw1,
    }
    rep.bounds = {
        "energy_series_tail": (0.0, tail_max),
        "wbar_series_growth": (growth_min, math.inf),
    }
    ok = (se2 - se1) <= tail_max and (sw2 - sw1) >= growth_min
    rep.status = "pass" if ok else "fail"
    return rep


def run_counterexample_fields(scn: Scenario, cfg: dict, index: int) -> CheckReport:
    beta = _param(cfg, "beta", 1.5)
    C = _param(cfg, "C", math.exp(beta / scn.dimension))
    depths = _param(cfg, "depths", [6, 10, 14], _ints)
    rows = [V.check_counterexample_fields(beta, C, d) for d in depths]
    rep = CheckReport("counterexample_fields", {"beta": beta, "C": C, "depths": depths},
                      seed=_seed_of(scn, cfg, index))
    for d, (e, wbar, iw) in zip(depths, rows):
        rep.values[f"energy_d{d}"] = e
        rep.values[f"min_wbar_d{d}"] = wbar
        rep.values[f"wolff_mass_d{d}"] = iw
    wbars = [r[1] for r in rows]
    # pass means the divergence is reproduced: the bar-potential keeps growing
    # while the energy stays finite
    growing = all(b > a for a, b in zip(wbars, wbars[1:]))
    finite_e = all(math.isfinite(r[0]) for r in rows)
    rep.values["wbar_strictly_increasing"] = 1.0 if growing else 0.0
    rep.status = "pass" if (growing and finite_e) else "fail"
    return rep


def run_truncation(scn: Scenario, cfg: dict, index: int) -> CheckReport:
    target = cfg.get("target", "fubini")
    if target not in ("fubini", "energy", "wolff_mass"):
        raise ScenarioError(f"truncation: unknown target {target!r}")
    depths = _param(cfg, "depths", [4, 6, 8], _ints)
    expect_converged = bool(cfg.get("expect_converged", True))
    rtol = _param(cfg, "rtol", 0.05)
    atol = _param(cfg, "atol", 1e-9)

    def at_depth(depth: int) -> float:
        coarse = scn.window.coarse_level
        window = LatticeWindow.from_box(
            _window_box(scn), coarse, coarse + depth, shift=scn.window.shift
        )
        scene = DyadicScene(scn.kernel, scn.sigma, scn.mu, window)
        if target == "energy":
            return energy_dyadic(scene, scn.exponents)
        if target == "wolff_mass":
            return V.wolff_integral(scene, scn.exponents)
        return V.check_fubini(scene, scn.exponents)

    sweep = V.truncation_sweep(at_depth, depths, rtol=rtol, atol=atol)
    rep = CheckReport("truncation", {"target": target, "depths": depths},
                      seed=_seed_of(scn, cfg, index))
    for d, v in zip(sweep.depths, sweep.values):
        rep.values[f"value_d{d}"] = v
    rep.values["converged"] = 1.0 if sweep.converged else 0.0
    rep.status = "pass" if sweep.converged == expect_converged else "fail"
    return rep


CHECK_RUNNERS = {
    "fubini": run_fubini,
    "a_chain": run_a_chain,
    "energy_wolff_ratio": run_energy_wolff_ratio,
    "trace_q1": run_trace_q1,
    "trace_upper": run_trace_upper,
    "dlbo": run_dlbo,
    "reverse_doubling": run_reverse_doubling,
    "dilation": run_dilation,
    "bar_lemmas": run_bar_lemmas,
    "shifted_average": run_shifted_average,
    "counterexample_series": run_counterexample_series,
    "counterexample_fields": run_counterexample_fields,
    "truncation": run_truncation,
}


def _window_box(scn: Scenario):
    side = 2.0 ** (-scn.window.coarse_level)
    lows = [min(r[d] for r in scn.window.root_indices) for d in range(scn.dimension)]
    highs = [max(r[d] for r in scn.window.root_indices) + 1 for d in range(scn.dimension)]
    return [
        (scn.window.shift[d] + lows[d] * side, scn.window.shift[d] + highs[d] * side)
        for d in range(scn.dimension)
    ]


def run_checks(scn: Scenario, threads: int = 1) -> tuple[list[CheckReport], dict]:
    if not scn.checks:
        raise ScenarioError("scenario lists no checks")
    jobs = []
    for index, cfg in enumerate(scn.checks):
        name = cfg["name"]
        runner = CHECK_RUNNERS.get(name)
        if runner is None:
            raise ScenarioError(f"unknown check {name!r}")
        jobs.append((runner, cfg, index))

    timings: dict[str, float] = {}

    def execute(job):
        runner, cfg, index = job
        t0 = time.perf_counter()
        rep = runner(scn, cfg, index)
        rep.wall_time = time.perf_counter() - t0
        return rep

    if threads > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(execute, jobs))
    else:
        reports = [execute(job) for job in jobs]
    for rep, (_, cfg, index) in zip(reports, jobs):
        timings[f"{index}:{rep.name}"] = rep.wall_time
    return reports, timings


# -- subcommands --------------------------------------------------------------------


def _field_values(scn: Scenario, points, kind: str):
    if kind == "wolff_continuous":
        kernel = _radial(scn, "continuous potential")
        return [wolff_continuous(kernel, scn.sigma, scn.mu, scn.exponents, x) for x in points]
    if kind == "maximal_continuous":
        kernel = _radial(scn, "continuous maximal")
        return [m_k_maximal(kernel, scn.sigma, scn.mu, x) for x in points]
    if kind not in ("t", "wolff", "wolff_bar", "maximal"):
        raise ScenarioError(f"unknown field kind {kind!r}")
    points = np.asarray(points, dtype=float)
    outside = ~scn.window.contains(points)
    if np.any(outside):
        raise OutOfWindowError(f"point {tuple(points[outside][0].tolist())} outside root region")
    scene = scn.scene
    pp = scn.exponents.p_prime
    if kind == "t":
        return scene.t_mu(points)
    if kind == "maximal":
        return scene.maximal(points)
    return (scene.wolff if kind == "wolff" else scene.wolff_bar)(points, pp)


def write_values_csv(path: Path, points, values) -> None:
    n = len(points[0])
    lines = [",".join([f"x{d}" for d in range(n)] + ["value"])]
    for x, v in zip(points, values):
        coords = ",".join(format_float(float(c)) for c in x)
        lines.append(f"{coords},{format_float(float(v))}")
    path.write_text("\n".join(lines) + "\n")


def _summary(scn: Scenario, command: str, extra: dict) -> dict:
    return {
        "command": command,
        "seed": scn.seed,
        "instance": _instance_descriptor(scn),
        **extra,
    }


def _load(args) -> Scenario:
    scn = load_scenario(args.config)
    if args.seed is not None:
        scn.seed = args.seed
    return scn


def _field_command(args, kind_default: str, command: str) -> int:
    scn = _load(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    if args.points:
        points = read_points_csv(args.points, scn.dimension)
    else:
        points = scn.mu.positions
        if points.shape[0] == 0:
            raise ScenarioError("no query points: pass --points or a nonempty mu")
    kind = getattr(args, "kind", kind_default) or kind_default
    values = _field_values(scn, points, kind)
    write_values_csv(out_dir / "values.csv", points, values)
    summary = _summary(scn, command, {"kind": kind, "n_points": len(values)})
    write_report(out_dir / "report.json", summary)
    write_report(out_dir / "timings.json", {"total_seconds": time.perf_counter() - t0})
    print(f"{command}: wrote {len(values)} values to {out_dir/'values.csv'}")
    return 0


def cmd_potential(args) -> int:
    return _field_command(args, "wolff", "potential")


def cmd_maximal(args) -> int:
    return _field_command(args, "maximal", "maximal")


def cmd_energy(args) -> int:
    scn = _load(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    e = energy_dyadic(scn.scene, scn.exponents)
    wm = V.wolff_integral(scn.scene, scn.exponents)
    fub = V.check_fubini(scn.scene, scn.exponents)
    summary = _summary(
        scn,
        "energy",
        {
            "energy": e,
            "wolff_mass": wm,
            "fubini_relative_error": fub,
            "p_prime": scn.exponents.p_prime,
        },
    )
    write_report(out_dir / "report.json", summary)
    write_report(out_dir / "timings.json", {"total_seconds": time.perf_counter() - t0})
    print(f"energy: E={format_float(e)} wolff_mass={format_float(wm)}")
    return 0


def cmd_verify(args) -> int:
    return cmd_verify_with(_load(args), args)


def cmd_counterexample(args) -> int:
    scn = _load(args)
    checks = [c for c in scn.checks if c["name"].startswith("counterexample")]
    if not checks:
        checks = [{"name": "counterexample_series"}, {"name": "counterexample_fields"}]
    scn.checks = checks
    return cmd_verify_with(scn, args)


def cmd_trace(args) -> int:
    scn = _load(args)
    name = "trace_q1" if scn.exponents.q in (None, 1.0) else "trace_upper"
    configured = [c for c in scn.checks if c["name"] == name]
    scn.checks = configured or [{"name": name}]
    return cmd_verify_with(scn, args)


def cmd_verify_with(scn: Scenario, args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    reports, timings = run_checks(scn, threads=args.threads)
    payload = _summary(scn, "verify", {"checks": [rep.to_jsonable() for rep in reports]})
    write_report(out_dir / "report.json", payload)
    write_ratio_csv(out_dir / "ratios.csv", reports)
    write_report(
        out_dir / "timings.json",
        {"total_seconds": time.perf_counter() - t0, "per_check": timings},
    )
    failed = 0
    for rep in reports:
        print(f"[{rep.status.upper():>14}] {rep.name}  " +
              " ".join(f"{k}={format_float(float(v))}" for k, v in list(rep.values.items())[:3]))
        failed += 0 if rep.passed else 1
    print(f"verify: {len(reports) - failed}/{len(reports)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wolffpot",
        description="Dyadic and continuous Wolff-type potentials and inequality checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads for independent checks (default 1)")

    p = sub.add_parser("potential", help="Wolff potentials at query points")
    common(p)
    p.add_argument("--points", help="CSV of query points (one per row)")
    p.add_argument("--kind", choices=["wolff", "wolff_bar", "wolff_continuous", "t"],
                   default="wolff")
    p.set_defaults(fn=cmd_potential)

    p = sub.add_parser("energy", help="dyadic energy and Wolff mass")
    common(p)
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("maximal", help="maximal functions at query points")
    common(p)
    p.add_argument("--points", help="CSV of query points (one per row)")
    p.add_argument("--kind", choices=["maximal", "maximal_continuous"], default="maximal")
    p.set_defaults(fn=cmd_maximal)

    p = sub.add_parser("verify", help="run the scenario's check list")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("counterexample", help="borderline log-kernel instance")
    common(p)
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("trace", help="trace-inequality test for the scenario exponents")
    common(p)
    p.set_defaults(fn=cmd_trace)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, WolffpotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
