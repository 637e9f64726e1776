"""wolffpot benchmark: one workload per process, end-to-end or traced.

    python3 bench/run.py --workload dyadic_field --seed 0 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
checkout this file sits in.  ``--trace 0`` measures the end-to-end metrics with
no wrapper installed but the constructor clock; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  Metric names
and units are read from ``BENCHMARK.json``.  The last stdout line is the JSON result; the lines before
it restate every metric with its unit, the provenance, and in a traced run
the bypass report.  A detailed JSON copy goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# Single-threaded: pin the BLAS pools before numpy is imported.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Spans predicted to stay at zero calls per workload (bench/NOTES.md, "Bypass
# report").  Violations are reported, never filtered out.
PREDICTED_ZERO = {
    "dyadic_field": [
        "measures.radial_profile", "measures.ball_mass", "kernels.log_primitive", "kernels.quad",
        "kernels.bar_k", "kernels.log_kernel", "potentials.wolff_continuous",
        "potentials.m_k_maximal", "potentials.t_continuous_trunc",
    ],
    "probe_rebuild": [
        "kernels.log_primitive", "kernels.quad", "kernels.bar_k", "kernels.log_kernel",
        "potentials.wolff_continuous", "potentials.m_k_maximal", "potentials.t_continuous_trunc",
    ],
    "verify_mix": [],
    "continuous_field": [
        "lattice.chain_keys", "measures.cube_mass_table", "kernels.K", "kernels.BarField.prefix",
        "kernels.dlbo_constant", "potentials.DyadicScene.init", "potentials.DyadicScene.inner",
        "potentials.DyadicScene.t", "potentials.DyadicScene.wolff",
        "potentials.DyadicScene.wolff_bar", "potentials.DyadicScene.maximal",
        "potentials.energy_dyadic",
    ],
}
# Violations understood at the commit that defined the benchmark (bench/NOTES.md).
KNOWN_VIOLATIONS = {
    ("continuous_field", "measures.cube_mass_table"):
        "cli._field_values builds a DyadicScene (two cube-mass tables) for continuous kinds too",
    ("continuous_field", "potentials.DyadicScene.init"):
        "cli._field_values builds a DyadicScene for continuous kinds too",
    ("dyadic_field", "kernels.log_kernel"):
        "the log kernel's constructor runs in load_scenario and once per depth in "
        "check_counterexample_fields; it is set-up work, not quadrature",
}


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """``wolffpot.cli.main`` from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "wolffpot" / "__init__.py").is_file():
        fail(f"no wolffpot sources under {src}")
    sys.path.insert(0, str(src))
    try:
        import wolffpot.cli as cli
    except ImportError as exc:
        fail(f"cannot import wolffpot: {exc}")
    if Path(cli.__file__).resolve().parent != (src / "wolffpot").resolve():
        fail(f"imported wolffpot from {cli.__file__}, not from {src}")
    return cli.main


def provenance() -> dict:
    """Ungated metadata: machine, libraries, and the program's identity and size."""
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def layer_metrics(names, summary, wall, cpu, overhead, violations) -> dict:
    """One traced pass's per-layer metrics; ``overhead`` is the run's, not the pass's."""
    spans, counts, maxima = summary["spans"], summary["counts"], summary["maxima"]
    fixed = {"process.cpu_s": cpu, "process.wait_s": wall - cpu,
             "trace.overhead_s": overhead, "bypass.violations": violations}
    out = {}
    for name in names:
        if name in fixed:
            out[name] = fixed[name]
        elif name in counts:
            out[name] = counts[name]
        elif name in maxima:
            out[name] = maxima[name]
        else:
            span, _, field = name.rpartition(".")
            got = spans.get(span, {})
            if field == "calls":
                out[name] = got.get("calls", counts.get(span, 0))
            elif field == "self_s":
                out[name] = got.get("self_s", 0.0)
            elif field == "wall_s":
                out[name] = got.get("incl_s", 0.0)
            else:
                out[name] = 0  # a counter that never fired on this workload
    return out


def bypass_report(workload: str, summary: dict) -> list[dict]:
    rows = []
    for span in PREDICTED_ZERO[workload]:
        got = summary["spans"].get(span)
        calls = got["calls"] if got else summary["counts"].get(span, 0)
        if calls:
            rows.append({
                "span": span, "calls": calls,
                "self_s": got["self_s"] if got else None,
                "known": KNOWN_VIOLATIONS.get((workload, span), "UNEXPECTED"),
            })
    return rows


def run_passes(args, wl, out, reference, cli_main, tracer) -> dict:
    """Repeat passes until the next one (pair, when tracing) would overrun ``--seconds``.

    Every pass is judged.  A :class:`tracer.SetupClock` splits each pass into
    the time spent in the program's constructors (``setup``) and the rest
    (``walls``).  With a tracer, passes alternate untraced and traced, starting
    untraced and ending traced, and ``overheads`` holds the traced-minus-untraced
    difference of each pair, so a drift of machine speed across the run does
    not land in one baseline.
    """
    clock = tracing.SetupClock()
    plain, traced_passes = [], []  # (pass seconds, set-up seconds, cpu seconds, summary)
    attempted, failures, first_ops = 0, [], None
    start = time.perf_counter()
    clock.install()
    try:
        while True:
            traced = tracer is not None and len(plain) > len(traced_passes)
            W.prepare(wl, out)
            clock.reset()
            if traced:
                tracer.reset()
                tracer.install()
            try:
                c0, t0 = time.process_time(), time.perf_counter()
                outcome = W.run_pass(cli_main, wl, out)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            finally:
                if traced:
                    tracer.uninstall()
            ops, errors = W.read_ops(wl, out, outcome)
            n, fails = W.judge(args.workload, args.seed, ops, errors, reference, first_ops)
            attempted += n
            failures += fails
            if first_ops is None:
                first_ops = ops
            if traced:
                traced_passes.append((wall, clock.total, cpu, tracer.summary()))
            else:
                plain.append((wall, clock.total, cpu, None))
            if tracer is None:
                step = statistics.median(p[0] for p in plain)
            elif traced:
                step = sum(statistics.median(p[0] for p in ps) for ps in (plain, traced_passes))
            else:
                continue  # a traced pass completes the pair
            if time.perf_counter() - start + step > args.seconds:
                break
    finally:
        clock.uninstall()
    if tracer is None:
        return {"walls": [w - s for w, s, _, _ in plain], "setup": [s for _, s, _, _ in plain],
                "attempted": attempted, "failures": failures}
    return {"walls": [w for w, _, _, _ in traced_passes],
            "cpus": [c for _, _, c, _ in traced_passes],
            "summaries": [t for _, _, _, t in traced_passes],
            "untraced_walls": [w for w, _, _, _ in plain],
            "overheads": [t[0] - u[0] for u, t in zip(plain, traced_passes)],
            "attempted": attempted, "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.is_file():
        fail(f"missing {spec_file}")
    spec = json.loads(spec_file.read_text())
    cli_main = import_program()
    if args.workload not in W.NAMES:
        fail(f"unknown workload {args.workload!r}; choose from {W.NAMES}")
    if not W.REFERENCE_FILE.is_file():
        fail(f"missing {W.REFERENCE_FILE}")
    reference = json.loads(W.REFERENCE_FILE.read_text())
    out = OUT / f"{args.workload}-{os.getpid()}"
    wl = W.make(args.workload, ROOT, out, args.seed)

    tracer = tracing.Tracer() if args.trace else None
    runs = run_passes(args, wl, out, reference, cli_main, tracer)
    walls, failures, attempted = runs["walls"], runs["failures"], runs["attempted"]

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": len(walls), "pass_wall_s": walls, "failures": failures,
              "provenance": provenance()}
    if tracer is None:
        result["pass_setup_s"] = runs["setup"]
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(runs["setup"]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
    else:
        names = [m["name"] for m in spec["per_layer"]]
        summaries, overhead = runs["summaries"], statistics.median(runs["overheads"])
        bypass = bypass_report(args.workload, summaries[-1])
        per_pass = [
            layer_metrics(names, s, w, c, overhead, len(bypass))
            for s, w, c in zip(summaries, walls, runs["cpus"])
        ]
        # median_low keeps counts whole: it picks one pass's value
        values = {k: statistics.median_low([p[k] for p in per_pass]) for k in names}
        result.update(untraced_wall_s=runs["untraced_walls"], overhead_pairs_s=runs["overheads"],
                      bypass=bypass, spans=summaries[-1])
        declared = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    report = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(result, indent=1) + "\n")

    failed = len(failures)
    for name, m in metrics.items():
        note = " (computed, not measured)" if name in tracing.COMPUTED else ""
        print(f"{args.workload} {name} = {m['value']!r} {m['unit']}{note}")
    print(f"{args.workload} ops_failed_ratio = {failed / attempted!r} ratio "
          f"({failed} failed of {attempted} attempted, {len(walls)} passes)")
    for line in failures[:20]:
        print(f"FAILED {line}")
    if args.trace:
        print(f"{args.workload} untraced passes {result['untraced_wall_s']!r} s, "
              f"traced passes {walls!r} s")
        for row in result["bypass"]:
            print(f"BYPASS VIOLATION {args.workload} {row['span']}: {row['calls']} calls, "
                  f"self {row['self_s']} s ({row['known']})")
        if not result["bypass"]:
            print(f"{args.workload}: every bypass prediction held")
    print("provenance " + json.dumps(result["provenance"]))
    print(f"details in {report.relative_to(ROOT)}")
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
