"""Scenario-driven command line front end.

Subcommands ``potential`` and ``maximal`` evaluate a field at query points,
and ``verify`` runs a scenario's check list.  Every check declares its fields
once, in ``CHECK_FIELDS``; ``run_checks`` reads them, rejects any it does not
know, records them in the report with their defaults resolved, and sets each
verdict from the bounds the report publishes.  Reports are deterministic:
identical (config, seed) pairs produce byte-identical JSON, with wall-clock
timings written to a separate file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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
from .scenario import (Scenario, at_least, band_pair, config_value, integer, json_bool, load_scenario,
                       read_points_csv, real, reject_unknown)
from .verify import CheckReport

# -- deterministic serialization -----------------------------------------------


def format_float(x: float) -> str:
    """17-significant-digit decimal form; infinities become the string inf."""
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
    lines = ["check,seed,value,lower_band,upper_band,status"]
    for rep in reports:
        for key, val in rep.values.items():
            lo, hi = rep.bounds.get(key, (None, None))
            lines.append(
                f"{rep.name}:{key},{rep.seed},{format_float(float(val))},"
                f"{'' if lo is None else format_float(lo)},"
                f"{'' if hi is None else format_float(hi)},{rep.status}"
            )
    path.write_text("\n".join(lines) + "\n")


# -- check registry ---------------------------------------------------------------
#
# A runner ``(scn, f, rep) -> bool`` gets the check's fields ``f``, fills
# ``rep.values`` and ``rep.bounds`` (and ``rep.reason`` when the check does not
# apply) and returns its extra pass condition; :func:`run_checks` reads the
# fields, builds the report and sets the status.


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
            "roots": math.prod(scn.window.ext),
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


def run_fubini(scn: Scenario, f: dict, rep: CheckReport) -> bool:
    err, rep.reason = V.check_fubini(scn.scene, scn.exponents)
    rep.values = {"relative_error": err}
    rep.bounds = {"relative_error": (0.0, f["tol"])}
    return True


def _lambda_weights(scn: Scenario, entries: list) -> np.ndarray:
    """A check's ``lambda`` list of ``[level, [i_1, ..., i_n], weight]``, per scene cube.

    A cube the scene does not hold carries no sigma mass, so its weight drops out.
    """
    lam = {}
    for entry in entries:
        try:
            level, idx, weight = entry
            key, weight = (integer(level), tuple(integer(i) for i in idx)), real(weight)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(f"field 'lambda' has the invalid entry {entry!r}") from exc
        if len(key[1]) != scn.dimension:
            raise ScenarioError(f"field 'lambda' entry {entry!r} has an index of "
                                f"dimension {len(key[1])}, not {scn.dimension}")
        if key in lam:
            raise ScenarioError(f"field 'lambda' repeats the cube {key}")
        if not weight >= 0.0:
            raise ScenarioError(f"field 'lambda' entry {entry!r} has a negative weight")
        lam[key] = weight
    return scn.scene.index.table_values(lam)


def run_a_chain(scn: Scenario, f: dict, rep: CheckReport) -> bool:
    s = f["s"]
    lam = lambda_substitution(scn.scene) if f["lambda"] is None else _lambda_weights(scn, f["lambda"])
    r1, r2, r3, r4 = V.check_a_chain(scn.scene, lam, s)
    rep.values = {"a1_over_a2": r1, "a2_over_holder": r2, "a3_over_a1": r3, "a1_over_a3": r4}
    rep.bounds = {"a2_over_holder": (0.0, 1.0 + 1e-12)}
    if s <= 2.0:
        rep.bounds["a1_over_a2"] = (0.0, s)
    return all(map(math.isfinite, (r1, r2, r3, r4)))


def run_energy_wolff_ratio(scn: Scenario, f: dict, rep: CheckReport) -> bool:
    energy, wolff_mass, ratio, rep.reason = V.check_energy_wolff_ratio(scn.scene, scn.exponents)
    rep.values = {"energy_over_wolff_mass": ratio, "energy": energy, "wolff_mass": wolff_mass}
    rep.bounds = {"energy_over_wolff_mass": f["band"]}
    return True


def run_trace_q1(scn: Scenario, f: dict, rep: CheckReport) -> bool:
    res = V.trace_constant_q1(scn.scene, scn.exponents, probes=f["probes"], seed=rep.seed)
    rep.values = {
        "dual_constant": res.dual_constant,
        "achieved_ratio": res.achieved_ratio,
        "probe_max": res.probe_max,
        "extremal_gap": abs(res.achieved_ratio - res.dual_constant) / max(res.dual_constant, 1e-300),
        "pairing_gap": res.pairing_gap,
    }
    rep.bounds = {"extremal_gap": (0.0, 1e-8)}
    return res.probe_max <= res.dual_constant * (1.0 + 1e-10)


def run_trace_upper(scn: Scenario, f: dict, rep: CheckReport) -> bool:
    res = V.trace_test_upper_triangle(scn.scene, scn.exponents, trials=f["trials"], seed=rep.seed)
    ratio = res.empirical_sup / res.wolff_norm if res.wolff_norm > 0 else math.inf
    rep.values = {
        "wolff_norm": res.wolff_norm,
        "empirical_sup": res.empirical_sup,
        "dlbo": res.dlbo,
        "equivalence_claimed": 1.0 if math.isfinite(res.dlbo) else 0.0,
        "sup_over_wolff_norm": ratio,
    }
    rep.bounds = {"sup_over_wolff_norm": f["band"]}
    return math.isfinite(ratio)


def run_dlbo(scn: Scenario, f: dict, rep: CheckReport) -> bool:
    rep.values = {"oscillation_constant": dlbo_constant(scn.scene.bar)}
    rep.bounds = {"oscillation_constant": (1.0, f["bound"])}
    return True


def run_reverse_doubling(scn: Scenario, f: dict, rep: CheckReport) -> bool:
    holds, best = reverse_doubling_check(scn.scene.index, scn.scene.sigma_mass, f["gamma"])
    rep.values = {"best_constant": best, "holds": 1.0 if holds else 0.0}
    return holds == f["expect_holds"]


def run_dilation(scn: Scenario, f: dict, rep: CheckReport) -> bool:
    _radial(scn, "the check")  # the check reads the scene's radial kernel
    sum_ratio, norm_ratio = V.check_kernel_dilation(scn.scene, scn.exponents, f["c"])
    rep.values = {"sum_ratio": sum_ratio, "norm_ratio": norm_ratio, "c": f["c"]}
    rep.bounds = {"sum_ratio": f["band"], "norm_ratio": f["band"]}
    return True


def run_bar_lemmas(scn: Scenario, f: dict, rep: CheckReport) -> bool:
    _radial(scn, "the check")  # the check reads the scene's radial kernel
    rng = np.random.default_rng(rep.seed)
    lows, highs = np.array(scn.window.box).T
    span = float(np.min(highs - lows))
    samples = []
    for _ in range(f["samples"]):
        x = lows + (highs - lows) * rng.uniform(0.25, 0.75, scn.dimension)
        r = span * 2.0 ** rng.uniform(-5, -2)
        samples.append((x, float(r)))
    ratios = V.check_bar_lemmas(scn.scene, samples)
    rep.values = dict(zip(("reformulation", "relationship", "bar_doubling"), ratios))
    rep.bounds = {k: (1.0, f["band"][1]) for k in rep.values}
    # doubling diagnostic recorded alongside
    head = samples[: max(4, f["samples"] // 4)]
    rep.values["sigma_doubling"] = doubling_constant(scn.sigma, [x for x, _ in head],
                                                     [r for _, r in head])
    return all(map(math.isfinite, ratios))


def run_shifted_average(scn: Scenario, f: dict, rep: CheckReport) -> bool:
    kernel = _radial(scn, "the check")
    rng = np.random.default_rng([rep.seed, 1])
    lows, highs = np.array(scn.window.box).T
    xs = lows + (highs - lows) * rng.uniform(0.0, 1.0, (f["x_samples"], scn.dimension))
    out = V.shifted_average_check(kernel, scn.mu, f["j"], f["draws"], xs, rep.seed)
    rep.values = {
        "max_ratio": out["max_ratio"],
        "points": float(out["n_points"]),
        "j0": float(out["j0"]),
        "levels": float(out["levels"]),
        "max_rel_stderr": out["max_rel_stderr"],
    }
    rep.bounds = {"max_ratio": (0.0, f["band"][1])}
    return True


def run_counterexample_series(scn: Scenario, f: dict, rep: CheckReport) -> bool:
    beta, C, (short, long) = f["beta"], f["C"], f["terms"]
    e_tail, w_growth = V.counterexample_series(beta, C, scn.dimension, long, first=short + 1)
    rep.values = {"energy_series_tail": e_tail, "wbar_series_growth": w_growth}
    rep.bounds = {
        "energy_series_tail": (0.0, f["e_tail_max"]),
        "wbar_series_growth": (f["w_growth_min"], math.inf),
    }
    return True


def run_counterexample_fields(scn: Scenario, f: dict, rep: CheckReport) -> bool:
    beta, C, depths = f["beta"], f["C"], f["depths"]
    rows = [V.check_counterexample_fields(beta, C, d) for d in depths]
    for d, (e, wbar, iw) in zip(depths, rows):
        rep.values[f"energy_d{d}"] = e
        rep.values[f"min_wbar_d{d}"] = wbar
        rep.values[f"wolff_mass_d{d}"] = iw
    wbars = [r[1] for r in rows]
    # pass means the divergence is reproduced: the bar-potential keeps growing
    # while the energy stays finite
    growing = all(b > a for a, b in zip(wbars, wbars[1:]))
    rep.values["wbar_strictly_increasing"] = 1.0 if growing else 0.0
    return growing and all(math.isfinite(r[0]) for r in rows)


def run_truncation(scn: Scenario, f: dict, rep: CheckReport) -> bool:
    target = f["target"]

    def at_depth(depth: int) -> float:
        window = dataclasses.replace(scn.window, fine_level=scn.window.coarse_level + depth)
        scene = DyadicScene(scn.kernel, scn.sigma, scn.mu, window)
        if target == "energy":
            return energy_dyadic(scene, scn.exponents)
        if target == "wolff_mass":
            return V.wolff_integral(scene, scn.exponents)
        return V.check_fubini(scene, scn.exponents)[0]

    sweep = V.truncation_sweep(at_depth, f["depths"], rtol=f["rtol"], atol=f["atol"])
    for d, v in zip(sweep.depths, sweep.values):
        rep.values[f"value_d{d}"] = v
    rep.values["converged"] = 1.0 if sweep.converged else 0.0
    return sweep.converged == f["expect_converged"]


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


def _depths(value) -> list[int]:
    if not isinstance(value, list):  # a string would iterate over its digits
        raise ValueError(f"{value!r} is not a list")
    depths = [integer(v) for v in value]
    if not depths:
        raise ValueError("no depths")
    return depths


def _terms(value) -> tuple[int, int]:
    if not isinstance(value, list):  # a string would unpack into its digits
        raise ValueError(f"{value!r} is not a list")
    short, long = (integer(v) for v in value)
    if not 0 <= short < long <= 2 ** 53:  # beyond 2^53, l is no exact float64
        raise ValueError(f"{value!r} is not 0 <= short < long <= 2^53")
    return short, long


def _target(value) -> str:
    if value not in ("fubini", "energy", "wolff_mass"):
        raise ValueError(f"{value!r} is no target")
    return value


# A callable default is read from the scenario and the fields declared before it.
_BAND = (band_pair, lambda scn, f: scn.band)
_LOG_C = (real, lambda scn, f: math.exp(f["beta"] / scn.dimension))

# name -> (needs a seed, {field: (kind, default)}); every check also takes
# "seed", which defaults to the scenario's
CHECK_FIELDS = {
    "fubini": (False, {"tol": (real, 1e-9)}),
    "a_chain": (False, {"s": (real, lambda scn, f: scn.exponents.p_prime), "lambda": (list, None)}),
    "energy_wolff_ratio": (False, {"band": _BAND}),
    "trace_q1": (True, {"probes": (at_least(1), 200)}),
    "trace_upper": (True, {"trials": (at_least(1), 50), "band": _BAND}),
    "dlbo": (False, {"bound": (real, lambda scn, f: scn.band[1])}),
    "reverse_doubling": (False, {"gamma": (real, 1.0), "expect_holds": (json_bool, True)}),
    "dilation": (False, {"c": (real, 0.25), "band": _BAND}),
    "bar_lemmas": (True, {"samples": (at_least(1), 20), "band": _BAND}),
    "shifted_average": (True, {"j": (integer, 0), "draws": (at_least(2), 10000),
                               "x_samples": (at_least(1), 5), "band": _BAND}),
    "counterexample_series": (False, {"beta": (real, 1.5), "C": _LOG_C,
                                      "terms": (_terms, (1000, 1000000)),
                                      "w_growth_min": (real, 9.0), "e_tail_max": (real, 0.2)}),
    "counterexample_fields": (False, {"beta": (real, 1.5), "C": _LOG_C,
                                      "depths": (_depths, [6, 10, 14])}),
    "truncation": (False, {"target": (_target, "fubini"), "depths": (_depths, [4, 6, 8]),
                           "expect_converged": (json_bool, True),
                           "rtol": (real, 0.05), "atol": (real, 1e-9)}),
}


def _check_report(scn: Scenario, cfg: dict, index: int, instance: dict) -> CheckReport:
    """A check's report shell with its fields; a malformed or unknown field is a ScenarioError."""
    name = cfg["name"]
    if name not in CHECK_FIELDS:
        raise ScenarioError(f"unknown check {name!r}")
    seeded, fields = CHECK_FIELDS[name]
    reject_unknown(cfg, name, ("name", "seed", *fields))
    seed = config_value(cfg, "seed", name, at_least(0), scn.seed)
    if seed is None and seeded:
        raise ScenarioError(f"checks: {name} is randomized and needs a seed "
                            "(scenario-level or per-check)")
    params = {}
    for key, (kind, default) in fields.items():
        value = config_value(cfg, key, name, kind, default)
        params[key] = value(scn, params) if callable(value) else value
    return CheckReport(name, instance, params, seed=(seed or 0) + index)


def run_checks(scn: Scenario) -> tuple[list[CheckReport], dict]:
    """Every check's report and wall time; the checks run in order, after all fields are read."""
    if not scn.checks:
        raise ScenarioError("scenario lists no checks")
    instance = _instance_descriptor(scn)
    reports = [_check_report(scn, cfg, index, instance) for index, cfg in enumerate(scn.checks)]
    for rep in reports:
        t0 = time.perf_counter()
        try:
            ok = CHECK_RUNNERS[rep.name](scn, rep.params, rep)
        except WolffpotError as exc:
            raise type(exc)(f"{rep.name}: {exc}") from exc
        rep.wall_time = time.perf_counter() - t0
        inside = all(lo <= rep.values[key] <= hi for key, (lo, hi) in rep.bounds.items())
        rep.status = "not-applicable" if rep.reason else ("pass" if ok and inside else "fail")
    timings = {f"{index}:{rep.name}": rep.wall_time for index, rep in enumerate(reports)}
    return reports, timings


# -- subcommands --------------------------------------------------------------------


def _field_values(scn: Scenario, points, kind: str):
    if kind == "wolff_continuous":
        kernel = _radial(scn, "continuous potential")
        return wolff_continuous(kernel, scn.sigma, scn.mu, scn.exponents, points)
    if kind == "maximal_continuous":
        kernel = _radial(scn, "continuous maximal")
        return m_k_maximal(kernel, scn.sigma, scn.mu, points)
    if kind not in ("t", "wolff", "wolff_bar", "maximal"):
        raise ScenarioError(f"unknown field kind {kind!r}")
    # the default query points are mu's atoms, whose chains the scene's index holds
    x = scn.mu if points is scn.mu.positions else points
    points = np.asarray(points, dtype=float)
    outside = ~scn.window.contains(points)
    if np.any(outside):
        raise OutOfWindowError(f"point {tuple(points[outside][0].tolist())} outside root region")
    scene = scn.scene
    if kind == "t":
        return scene.t_mu(x)
    if kind == "maximal":
        return scene.maximal(x)
    return (scene.wolff if kind == "wolff" else scene.wolff_bar)(x, scn.exponents.p_prime)


def write_values_csv(path: Path, points, values) -> None:
    n = len(points[0])
    # "{:.17g}" writes inf, -inf and nan as format_float does
    row = ",".join(["{:.17g}"] * (n + 1))
    lines = [",".join([f"x{d}" for d in range(n)] + ["value"])]
    lines += [row.format(*r) for r in np.column_stack((points, values)).tolist()]
    path.write_text("\n".join(lines) + "\n")


def _summary(scn: Scenario, command: str, extra: dict) -> dict:
    return {"command": command, "seed": scn.seed, "instance": _instance_descriptor(scn), **extra}


def _load(args) -> tuple[Scenario, Path]:
    """The scenario with ``--seed`` applied, and the output directory, created."""
    if args.threads != 1:
        raise ScenarioError(f"--threads must be 1, got {args.threads}: checks run in order on one thread")
    scn = load_scenario(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ScenarioError(f"--seed must be a nonnegative integer, got {args.seed}")
        scn.seed = args.seed
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return scn, out_dir


def cmd_field(args) -> int:
    """``potential`` and ``maximal``: the field ``args.kind`` at the query points."""
    scn, out_dir = _load(args)
    t0 = time.perf_counter()
    if args.points:
        points = read_points_csv(args.points, scn.dimension)
    else:
        points = scn.mu.positions
        if points.shape[0] == 0:
            raise ScenarioError("no query points: pass --points or a nonempty mu")
    values = _field_values(scn, points, args.kind)
    write_values_csv(out_dir / "values.csv", points, values)
    summary = _summary(scn, args.command, {"kind": args.kind, "n_points": len(values)})
    write_report(out_dir / "report.json", summary)
    write_report(out_dir / "timings.json", {"total_seconds": time.perf_counter() - t0})
    print(f"{args.command}: wrote {len(values)} values to {out_dir/'values.csv'}")
    return 0


def cmd_verify(args) -> int:
    scn, out_dir = _load(args)
    t0 = time.perf_counter()
    reports, timings = run_checks(scn)
    payload = _summary(scn, "verify", {"checks": [rep.to_jsonable() for rep in reports]})
    write_report(out_dir / "report.json", payload)
    write_ratio_csv(out_dir / "ratios.csv", reports)
    write_report(out_dir / "timings.json",
                 {"total_seconds": time.perf_counter() - t0, "per_check": timings})
    for rep in reports:
        print(f"[{rep.status.upper():>14}] {rep.name}  " +
              " ".join(f"{k}={format_float(float(v))}" for k, v in list(rep.values.items())[:3]))
    failed = sum(rep.status == "fail" for rep in reports)
    print(f"verify: {len(reports) - failed}/{len(reports)} checks passed")
    return 0 if failed == 0 else 1


@functools.cache  # one per process: a build costs about as much as a small command
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
        # accepted for command lines that still pass it; only 1 is valid
        p.add_argument("--threads", type=int, default=1, help="must be 1: checks run in order")

    p = sub.add_parser("potential", help="Wolff potentials at query points")
    common(p)
    p.add_argument("--points", help="CSV of query points (one per row)")
    p.add_argument("--kind", choices=["wolff", "wolff_bar", "wolff_continuous", "t"],
                   default="wolff")
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("maximal", help="maximal functions at query points")
    common(p)
    p.add_argument("--points", help="CSV of query points (one per row)")
    p.add_argument("--kind", choices=["maximal", "maximal_continuous"], default="maximal")
    p.set_defaults(fn=cmd_field)

    p = sub.add_parser("verify", help="run the scenario's check list")
    common(p)
    p.set_defaults(fn=cmd_verify)
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
