"""The four benchmark workloads and the correctness gate on their outputs.

Every workload is a list of ``wolffpot`` command lines run in-process through
``wolffpot.cli.main`` with ``--threads 1``.  One *pass* runs them all once.
An *operation* is one check of a ``verify`` report or one field value of a
``potential``/``maximal`` command.  Why each workload exists is written down
in ``bench/NOTES.md``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-12
# Identity residuals are rounding noise, so they are held to the paper's
# bounds at every seed instead of being compared with the reference.
RESIDUAL_BOUNDS = {("fubini", "relative_error"): 1e-9, ("trace_q1", "extremal_gap"): 1e-8}

LOG_KERNEL = {"type": "log", "beta": 1.5, "C": 4.4816890703380645}


@dataclass
class Command:
    label: str        # output sub-directory and operation-name prefix
    kind: str         # "verify" or "field"
    argv: list        # arguments after ``wolffpot``; --out-dir is appended


@dataclass
class Workload:
    name: str
    commands: list


def _verify(config: str, seed: int) -> Command:
    return Command("verify", "verify",
                   ["verify", "--config", config, "--seed", str(seed), "--threads", "1"])


def _field(command: str, kind: str, config: str, seed: int, points: str | None = None) -> Command:
    argv = [command, "--config", config, "--seed", str(seed), "--threads", "1", "--kind", kind]
    if points is not None:
        argv += ["--points", points]
    return Command(f"{command}.{kind}", "field", argv)


def continuous_inputs(out: Path, seed: int) -> tuple[str, str]:
    """Seeded scenario and query points of ``continuous_field``."""
    rng = np.random.default_rng([seed, 20030917])
    mu_pos = rng.uniform(0.0, 1.0, 4)
    mu_w = 2.0 ** rng.uniform(-1.0, 1.0, 4)
    points = rng.uniform(0.0, 1.0, 4)
    scenario = {
        "dimension": 1,
        "seed": seed,
        "window": {"coarse_level": 0, "fine_level": 10, "box": [[-1.0, 2.0]]},
        "sigma": {"type": "lebesgue_grid", "box": [[-1.0, 2.0]], "level": 10},
        "mu": {"type": "atoms", "positions": [[float(p)] for p in mu_pos],
               "weights": [float(w) for w in mu_w]},
        "kernel": LOG_KERNEL,
        "exponents": {"p": 2.0},
        "checks": [],
    }
    config, pts = out / "continuous_field.json", out / "continuous_points.csv"
    config.write_text(json.dumps(scenario, indent=1) + "\n")
    pts.write_text("x0\n" + "".join(f"{float(p)!r}\n" for p in points))
    return str(config), str(pts)


def make(name: str, root: Path, out: Path, seed: int) -> Workload:
    """Build workload ``name``; generated inputs are written under ``out``."""
    scen = lambda s: str(root / "scenarios" / f"{s}.json")  # noqa: E731
    if name == "dyadic_field":
        cfg = scen("counterexample")
        cmds = [_verify(cfg, seed)] + [_field("potential", k, cfg, seed) for k in ("t", "wolff", "wolff_bar")]
        return Workload(name, cmds + [_field("maximal", "maximal", cfg, seed)])
    if name == "probe_rebuild":
        cfg = scen("cascade_dlbo")
        return Workload(name, [_verify(cfg, seed)])
    if name == "verify_mix":
        cfg = scen("riesz_lebesgue")
        return Workload(name, [_verify(cfg, seed)])
    if name == "continuous_field":
        out.mkdir(parents=True, exist_ok=True)
        cfg, pts = continuous_inputs(out, seed)
        return Workload(name, [
            _field("potential", "wolff_continuous", cfg, seed, pts),
            _field("maximal", "maximal_continuous", cfg, seed, pts),
        ])
    raise KeyError(name)


NAMES = ["dyadic_field", "probe_rebuild", "verify_mix", "continuous_field"]


# -- running a pass -----------------------------------------------------------------


def prepare(workload: Workload, out: Path) -> None:
    """Empty every command's output directory so no stale file is read back."""
    for cmd in workload.commands:
        d = out / cmd.label
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)


def run_pass(cli_main, workload: Workload, out: Path) -> dict:
    """Run every command once; returns ``label -> exit code or exception``.

    The program's own console output is captured and dropped, so the
    benchmark's last stdout line stays its result.
    """
    outcome = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for cmd in workload.commands:
            try:
                outcome[cmd.label] = cli_main(cmd.argv + ["--out-dir", str(out / cmd.label)])
            except (Exception, SystemExit) as exc:  # fails the command's operations
                traceback.print_exc()
                outcome[cmd.label] = exc
    return outcome


def read_ops(workload: Workload, out: Path, outcome: dict) -> tuple[dict, dict]:
    """Operations a pass produced: ``op -> {"status", "values"}``; errors by label."""
    ops, errors = {}, {}
    for cmd in workload.commands:
        rc = outcome.get(cmd.label)
        if isinstance(rc, BaseException) or rc not in (0, 1):
            errors[cmd.label] = repr(rc)
            continue
        d = out / cmd.label
        try:
            if cmd.kind == "verify":
                report = json.loads((d / "report.json").read_text())
                for i, chk in enumerate(report["checks"]):
                    ops[f"verify.{i}:{chk['name']}"] = {
                        "status": chk["status"],
                        # canonical reports write inf and nan as strings
                        "values": {k: float(v) for k, v in chk["values"].items()},
                    }
            else:
                with open(d / "values.csv", newline="") as fh:
                    rows = list(csv.reader(fh))[1:]
                for i, row in enumerate(rows):
                    ops[f"{cmd.label}[{i}]"] = {"status": None, "values": {"value": float(row[-1])}}
        except (OSError, ValueError, KeyError, IndexError) as exc:
            errors[cmd.label] = f"unreadable output: {exc!r}"
    return ops, errors


# -- the correctness gate -------------------------------------------------------------


def _same(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def judge(name: str, seed: int, ops: dict, errors: dict, reference: dict,
          first_pass: dict | None) -> tuple[int, list[str]]:
    """Count attempted operations and list every failure with its reason.

    The expected operation list and statuses come from the reference.  Values
    are compared at ``REL_TOL`` against the values that were identical at every
    recorded seed and, when this seed was recorded, against its own values.  Each pass must also reproduce the run's first
    pass, and field values must be finite and nonnegative.
    """
    ref = reference["workloads"][name]
    expected = ref["ops"]
    by_seed = ref["by_seed"].get(str(seed), {})
    failures = []
    for op, exp in expected.items():
        label = "verify" if op.startswith("verify.") else op.split("[", 1)[0]
        if label in errors:
            failures.append(f"{op}: command failed: {errors[label]}")
            continue
        got = ops.get(op)
        if got is None:
            failures.append(f"{op}: missing from output")
            continue
        why = []
        if got["status"] != exp["status"]:
            why.append(f"status {got['status']} != expected {exp['status']}")
        want = {**exp["values"], **by_seed.get(op, {})}
        check = op.partition(":")[2]
        for key, val in got["values"].items():
            bound = RESIDUAL_BOUNDS.get((check, key))
            if bound is not None:
                if not val <= bound:
                    why.append(f"{key}={val!r} above identity bound {bound}")
                continue
            if key in want and not _same(val, float(want[key])):
                why.append(f"{key}={val!r} != reference {want[key]!r}")
            if first_pass is not None:
                prev = first_pass.get(op, {}).get("values", {}).get(key)
                if prev is not None and not _same(val, prev):
                    why.append(f"{key}={val!r} differs from this run's first pass {prev!r}")
            if exp["status"] is None and not (math.isfinite(val) and val >= 0.0):
                why.append(f"field value {val!r} is not finite and nonnegative")
        missing = [k for k in want if k not in got["values"]]
        if missing:
            why.append(f"values missing: {missing}")
        if why:
            failures.append(f"{op}: " + "; ".join(why))
    extra = [op for op in ops if op not in expected]
    failures += [f"{op}: not in the reference" for op in extra]
    return len(expected) + len(extra), failures


def _encode(v: float):
    return v if math.isfinite(v) else str(v)


def build_reference(per_seed: dict) -> dict:
    """Fold ``seed -> ops`` into one workload entry of the reference file.

    Statuses must agree across seeds.  Values identical at every seed are
    stored with the operation's status (they are checked at any seed); the
    rest go to ``by_seed``.
    """
    seeds = sorted(per_seed)
    first = per_seed[seeds[0]]
    entry = {"seeds": seeds, "ops": {}, "by_seed": {str(s): {} for s in seeds}}
    for op, got in first.items():
        statuses = {per_seed[s][op]["status"] for s in seeds}
        if len(statuses) != 1:
            raise ValueError(f"{op}: status depends on the seed: {statuses}")
        entry["ops"][op] = {"status": got["status"], "values": {}}
        for key in got["values"]:
            vals = [per_seed[s][op]["values"][key] for s in seeds]
            if all(_same(v, vals[0]) for v in vals):
                entry["ops"][op]["values"][key] = _encode(vals[0])
            else:
                for s, v in zip(seeds, vals):
                    entry["by_seed"][str(s)].setdefault(op, {})[key] = _encode(v)
    return entry
