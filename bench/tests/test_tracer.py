"""Tests of the benchmark's outside-in tracer and of its workloads.

    python3 -m pytest -q bench/tests

The workload tests share one traced pass of each workload, about 20 s in all
on a 2-core machine.
"""

import json
import sys

import pytest

import run
import tracer as tracing
import workloads as W

cli_main = run.import_program()

# Spans each workload must fire, from the layer table's "most work in" column
# as the code actually routes it (see bench/NOTES.md for where it differs).
EXPECTED_FIRE = {
    "dyadic_field": [
        "lattice.chain_keys", "measures.cube_mass_table", "measures.lebesgue_grid", "kernels.K",
        "kernels.BarField.prefix", "potentials.DyadicScene.init", "potentials.DyadicScene.inner",
        "potentials.DyadicScene.t", "potentials.DyadicScene.wolff",
        "potentials.DyadicScene.wolff_bar", "potentials.DyadicScene.maximal",
        "verify.check_counterexample_fields", "scenario.load_scenario",
        "cli.check.counterexample_series", "cli.check.counterexample_fields",
        "cli.field.t", "cli.field.wolff", "cli.field.wolff_bar", "cli.field.maximal", "cli.write",
    ],
    "probe_rebuild": [
        "measures.cube_mass_table", "measures.bernoulli_cascade", "kernels.K",
        "kernels.BarField.prefix", "kernels.dlbo_constant", "potentials.DyadicScene.t",
        "potentials.energy_dyadic", "verify.trace_test_upper_triangle", "verify.fubini_pair",
        "cli.check.reverse_doubling", "cli.check.dlbo", "cli.check.fubini",
        "cli.check.energy_wolff_ratio", "cli.check.trace_upper",
    ],
    "verify_mix": [
        "measures.lebesgue_grid", "measures.radial_profile", "measures.ball_mass", "kernels.bar_k",
        "potentials.t_continuous_trunc", "potentials.energy_dyadic",
        "verify.shifted_average_check", "verify.trace_test_upper_triangle",
        "verify.trace_constant_q1", "verify.fubini_pair", "verify.check_kernel_dilation",
        "verify.check_bar_lemmas",
    ] + [f"cli.check.{c}" for c in (
        "fubini", "energy_wolff_ratio", "dlbo", "reverse_doubling", "dilation", "bar_lemmas",
        "shifted_average", "trace_q1", "trace_upper", "truncation")],
    "continuous_field": [
        "measures.lebesgue_grid", "measures.radial_profile", "kernels.log_primitive",
        "kernels.quad", "kernels.log_kernel", "potentials.wolff_continuous",
        "potentials.m_k_maximal", "cli.field.wolff_continuous", "cli.field.maximal_continuous",
    ],
}


def calls(summary, name):
    got = summary["spans"].get(name)
    return got["calls"] if got else summary["counts"].get(name, 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced pass per workload at seed 0: ``name -> (summary, failures)``."""
    reference = json.loads(W.REFERENCE_FILE.read_text())
    out = {}
    for name in W.NAMES:
        d = tmp_path_factory.mktemp(name)
        wl = W.make(name, run.ROOT, d, 0)
        W.prepare(wl, d)
        t = tracing.Tracer()
        t.install()
        try:
            outcome = W.run_pass(cli_main, wl, d)
        finally:
            t.uninstall()
        ops, errors = W.read_ops(wl, d, outcome)
        _, failures = W.judge(name, 0, ops, errors, reference, None)
        out[name] = (t.summary(), failures)
    return out


@pytest.mark.parametrize("name", W.NAMES)
def test_spans_fire_on_their_workload(traced, name):
    summary, failures = traced[name]
    assert failures == []
    silent = [s for s in EXPECTED_FIRE[name] if calls(summary, s) == 0]
    assert silent == []


def test_bypass_report_names_the_known_violations(traced):
    found = {(name, row["span"]) for name in W.NAMES
             for row in run.bypass_report(name, traced[name][0])}
    assert found == set(run.KNOWN_VIOLATIONS)


def test_every_per_layer_metric_has_a_source(traced):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    fixed = {"process.cpu_s", "process.wait_s", "trace.overhead_s", "bypass.violations"}
    sources = set(fixed)
    for summary, _ in traced.values():
        sources |= set(summary["counts"]) | set(summary["maxima"])
        sources |= {s for s, v in summary["spans"].items() if v["calls"]}
    orphans = [m["name"] for m in spec["per_layer"]
               if m["name"] not in sources and m["name"].rpartition(".")[0] not in sources]
    assert orphans == []


def test_computed_counters(traced):
    summary, _ = traced["continuous_field"]
    # 4 query points, each sweeping 4 mu atoms against the 3,072-atom grid
    assert summary["maxima"]["potentials.wolff_continuous.cross_bytes"] == 4 * 3072 * 8
    under = summary["counts"]["potentials.wolff_continuous.breakpoints"]
    assert 0 < under <= summary["spans"]["kernels.log_primitive"]["calls"]
    assert summary["maxima"]["kernels.quad.max_abserr"] > 0.0


def test_self_time_is_duration_minus_children():
    t = tracing.Tracer()
    # parent [0, 10] > child [2, 5] > grandchild [3, 4]; parent > child [6, 7]
    for name, parent, start, end in [("a", -1, 0, 10), ("b", 0, 2, 5), ("c", 1, 3, 4), ("b", 0, 6, 7)]:
        t.span_name.append(t._name_id(name))
        t.span_parent.append(parent)
        t.span_start.append(start)
        t.span_end.append(end)
    spans = t.summary()["spans"]
    assert spans["a"] == {"calls": 1, "incl_s": 10.0, "self_s": 6.0}
    assert spans["b"] == {"calls": 2, "incl_s": 4.0, "self_s": 3.0}
    assert spans["c"] == {"calls": 1, "incl_s": 1.0, "self_s": 1.0}


def test_install_wraps_every_binding_and_uninstall_restores():
    mods = {m: sys.modules[f"wolffpot.{m}"] for m in ("measures", "kernels", "potentials", "verify")}
    before = {m: mod.cube_mass_table for m, mod in mods.items()}
    call_before = mods["kernels"].DyadicKernelMap.__call__
    t = tracing.Tracer()
    t.install()
    try:
        wrapped = {m: mod.cube_mass_table for m, mod in mods.items()}
        assert len({id(f) for f in wrapped.values()}) == 1
        assert wrapped["verify"] is not before["verify"]
        assert mods["kernels"].DyadicKernelMap.__call__ is not call_before
    finally:
        t.uninstall()
    assert {m: mod.cube_mass_table for m, mod in mods.items()} == before
    assert mods["kernels"].DyadicKernelMap.__call__ is call_before


def test_setup_clock_times_outermost_constructor_calls_only(monkeypatch):
    scenario = sys.modules["wolffpot.scenario"]
    measures = sys.modules["wolffpot.measures"]
    before = (scenario.lebesgue_grid, measures.lebesgue_grid, scenario.load_scenario)
    clock = tracing.SetupClock()
    clock.install()
    try:
        assert scenario.lebesgue_grid is measures.lebesgue_grid is not before[0]
        scenario.load_scenario(str(run.ROOT / "scenarios" / "riesz_lebesgue.json"))
        assert clock.total > 0.0
        # a clock that ticks once per reading: an outer call around an inner
        # one reads it twice if only the outer is timed
        ticks = iter(range(100))
        monkeypatch.setattr(tracing.time, "perf_counter", lambda: float(next(ticks)))
        clock.reset()
        inner = clock._wrap(lambda: None)
        clock._wrap(inner)()
        assert clock.total == 1.0
    finally:
        clock.uninstall()
    assert (scenario.lebesgue_grid, measures.lebesgue_grid, scenario.load_scenario) == before
