import concurrent.futures
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import wolffpot
from wolffpot import LatticeWindow, LevelIndex
from wolffpot import cli
from wolffpot.cli import build_parser, dumps_canonical, format_float, main, write_values_csv
from wolffpot.scenario import ScenarioError, load_scenario, read_kernel_table

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def run(args):
    return main([str(a) for a in args])


def test_single_cube_scenario(tmp_path):
    out = tmp_path / "out"
    code = run(["verify", "--config", SCENARIOS / "single_cube.json", "--out-dir", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["fubini"]["values"]["relative_error"] <= 1e-12
    # E = int W dmu = m^2 exactly on one cube
    assert checks["energy_wolff_ratio"]["values"]["energy_over_wolff_mass"] == pytest.approx(1.0)
    assert checks["trace_q1"]["values"]["dual_constant"] == pytest.approx(0.7)
    assert (out / "ratios.csv").read_text().splitlines()[0] == \
        "check,seed,value,lower_band,upper_band,pass"


def test_validation_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "dimension": 1,
        "window": {"coarse_level": 0, "fine_level": 2, "box": [[0, 1]]},
        "sigma": {"type": "lebesgue_grid", "box": [[0, 1]], "level": 2},
        "mu": {"type": "atoms", "positions": [[0.5]], "weights": [1.0]},
        "kernel": {"type": "riesz", "alpha": 0.5},
        "exponents": {"p": 2.0, "q": 2.0},
        "checks": [{"name": "fubini"}],
    }))
    assert run(["verify", "--config", cfg, "--out-dir", tmp_path / "o"]) == 2


def test_parse_error_has_location(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"dimension": 1,,}')
    with pytest.raises(ScenarioError, match="line 1"):
        load_scenario(cfg)


def test_missing_seed_for_randomized_check(tmp_path, capsys):
    cfg = tmp_path / "noseed.json"
    for check in ("trace_q1", "trace_upper", "shifted_average", "bar_lemmas"):
        cfg.write_text(json.dumps({
            "dimension": 1,
            "window": {"coarse_level": 0, "fine_level": 2, "box": [[0, 1]]},
            "sigma": {"type": "lebesgue_grid", "box": [[0, 1]], "level": 2},
            "mu": {"type": "atoms", "positions": [[0.5]], "weights": [1.0]},
            "kernel": {"type": "riesz", "alpha": 0.5},
            "exponents": {"p": 2.0, "q": 1.5},
            "checks": [{"name": check}],
        }))
        assert run(["verify", "--config", cfg, "--out-dir", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (f"error: checks: {check} is randomized and needs "
                                           "a seed (scenario-level or per-check)\n")


def test_counterexample_scenario_flags_divergence(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cex.json"
    base = json.loads((SCENARIOS / "counterexample.json").read_text())
    # shallow depths keep the test fast; divergence already shows
    base["checks"][1]["depths"] = [4, 6, 8]
    cfg.write_text(json.dumps(base))
    code = run(["verify", "--config", cfg, "--out-dir", out])
    assert code == 0  # expected-divergence checks pass
    report = json.loads((out / "report.json").read_text())
    fields = next(c for c in report["checks"] if c["name"] == "counterexample_fields")
    assert fields["values"]["wbar_strictly_increasing"] == 1.0
    assert fields["values"]["min_wbar_d8"] > fields["values"]["min_wbar_d4"]


def test_series_check_cost_does_not_depend_on_the_terms(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cex.json"
    base = json.loads((SCENARIOS / "counterexample.json").read_text())
    base["checks"] = [dict(base["checks"][0], terms=[1000, 10 ** 15])]
    cfg.write_text(json.dumps(base))
    t0 = time.perf_counter()
    assert run(["verify", "--config", cfg, "--out-dir", out]) == 0
    assert time.perf_counter() - t0 < 1.0  # the series cost does not depend on the terms
    values = json.loads((out / "report.json").read_text())["checks"][0]["values"]
    assert values["wbar_series_growth"] == pytest.approx(39.8593, abs=1e-4)
    assert values["energy_series_tail"] == pytest.approx(0.10945, abs=1e-5)


@pytest.mark.parametrize("threads", [1, 2])
def test_numeric_error_names_its_check(tmp_path, capsys, threads):
    cfg = json.loads((SCENARIOS / "cascade_dlbo.json").read_text())
    cfg["sigma"] = {"type": "atoms", "positions": [[1.5]], "weights": [1.0]}  # outside the window
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", path, "--threads", threads, "--out-dir", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == "error: reverse_doubling: no window cube has positive mass\n"


def test_shifted_average_reports_its_sweep(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "shifted.json"
    base = json.loads((SCENARIOS / "riesz_lebesgue.json").read_text())
    base["checks"] = [{"name": "shifted_average", "j": 0, "draws": 500, "x_samples": 3}]
    cfg.write_text(json.dumps(base))
    assert run(["verify", "--config", cfg, "--out-dir", out]) == 0
    report = json.loads((out / "report.json").read_text())
    values = report["checks"][0]["values"]
    assert set(values) == {"max_ratio", "points", "j0", "levels", "max_rel_stderr"}
    assert values["points"] == 3.0 and values["j0"] == 2.0
    assert 1.0 <= values["levels"] <= 52.0
    assert 0.0 < values["max_rel_stderr"] < 1.0


def test_determinism_byte_identical(tmp_path):
    for scenario in ("single_cube", "cascade_dlbo", "riesz_lebesgue", "counterexample"):
        a, b = tmp_path / scenario / "a", tmp_path / scenario / "b"
        for out, threads in ((a, 1), (b, 2)):
            assert run(["verify", "--config", SCENARIOS / f"{scenario}.json",
                        "--out-dir", out, "--threads", threads]) == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
        assert (a / "ratios.csv").read_bytes() == (b / "ratios.csv").read_bytes()
        # every check passes, and a pass has each bounded value inside its bounds
        for check in json.loads((a / "report.json").read_text())["checks"]:
            assert check["status"] == "pass"
            for key, (lo, hi) in check["bounds"].items():
                assert float(lo) <= float(check["values"][key]) <= float(hi), (check["name"], key)


def test_fields_are_read_before_the_first_check_runs(monkeypatch, tmp_path, capsys):
    first, runner = next(iter(cli.CHECK_RUNNERS.items()))
    calls = []

    def counted(*args):
        calls.append(1)
        return runner(*args)

    monkeypatch.setitem(cli.CHECK_RUNNERS, first, counted)
    cfg = json.loads((SCENARIOS / "single_cube.json").read_text())
    assert cfg["checks"][0]["name"] == first
    cfg["checks"][-1]["probes"] = "x"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", path, "--out-dir", tmp_path / "o"]) == 2
    assert capsys.readouterr().err.startswith("error: trace_q1: field 'probes'")
    assert calls == []


def test_readme_table_lists_every_check_field():
    readme = (SCENARIOS.parent / "README.md").read_text()
    table = readme.split("| check | fields (default) | needs a seed |\n|---|---|---|\n")[1]
    rows = {}
    for line in table.split("\n\n")[0].splitlines():
        name, fields, seeded = (cell.strip() for cell in line.strip("|").split("|"))
        rows[name.strip("`")] = (seeded == "yes", fields)
    assert rows.keys() == cli.CHECK_FIELDS.keys() == cli.CHECK_RUNNERS.keys()
    for name, (seeded, fields) in cli.CHECK_FIELDS.items():
        assert rows[name][0] == seeded, name
        assert all(f"`{key}` (" in rows[name][1] or rows[name][1].endswith(f"`{key}`")
                   for key in fields), name


def test_null_lambda_is_absent(tmp_path):
    cfg = json.loads((SCENARIOS / "single_cube.json").read_text())
    reports = []
    for name, lam in (("absent", {}), ("null", {"lambda": None})):
        cfg["checks"] = [{"name": "a_chain", **lam}]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert run(["verify", "--config", path, "--out-dir", tmp_path / name]) == 0
        reports.append((tmp_path / name / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_report_roundtrip_byte_identical(tmp_path):
    out = tmp_path / "out"
    run(["verify", "--config", SCENARIOS / "single_cube.json", "--out-dir", out])
    text = (out / "report.json").read_text()
    reloaded = json.loads(text)
    assert dumps_canonical(reloaded) + "\n" == text


def test_float_formatting():
    assert format_float(math.inf) == "inf"
    assert format_float(-math.inf) == "-inf"
    assert format_float(1.0 / 3.0) == f"{1.0/3.0:.17g}"
    assert dumps_canonical(math.inf) == '"inf"'
    assert dumps_canonical({"x": 0.5}) == '{\n  "x": 0.5\n}'


def test_values_csv_matches_per_value_format_float(tmp_path):
    specials = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.0 / 3.0, 2.0 ** 60, -1e-300]
    points = np.array([[specials[i], specials[-1 - i]] for i in range(len(specials))])
    values = np.array(specials[::-1])
    write_values_csv(tmp_path / "values.csv", points, values)
    want = ["x0,x1,value"] + [",".join(format_float(float(v)) for v in (*x, y))
                              for x, y in zip(points, values)]
    assert (tmp_path / "values.csv").read_bytes() == ("\n".join(want) + "\n").encode()


def test_potential_and_maximal_commands(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("x0\n0.25\n0.5\n0.75\n")
    out = tmp_path / "out"
    code = run(["potential", "--config", SCENARIOS / "single_cube.json",
                "--points", pts, "--out-dir", out])
    assert code == 0
    rows = (out / "values.csv").read_text().splitlines()
    assert rows[0] == "x0,value"
    # W == m == 0.7 on the single cube
    assert all(r.endswith("0.69999999999999996") for r in rows[1:])
    code = run(["maximal", "--config", SCENARIOS / "single_cube.json",
                "--points", pts, "--out-dir", tmp_path / "out2"])
    assert code == 0


def test_energy_command(tmp_path):
    out = tmp_path / "out"
    code = run(["energy", "--config", SCENARIOS / "single_cube.json", "--out-dir", out])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["energy"] == pytest.approx(0.49)
    assert report["wolff_mass"] == pytest.approx(0.49)
    assert (out / "timings.json").exists()


def test_kernel_table_csv(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("level,i0,value\n0,0,1.0\n1,0,2.0\n1,1,0.5\n")
    table = read_kernel_table(path)
    assert table[(0, (0,))] == 1.0
    assert table[(1, (1,))] == 0.5
    cfg = tmp_path / "scn.json"
    cfg.write_text(json.dumps({
        "dimension": 1,
        "window": {"coarse_level": 0, "fine_level": 1, "box": [[0, 1]]},
        "sigma": {"type": "lebesgue_grid", "box": [[0, 1]], "level": 1},
        "mu": {"type": "atoms", "positions": [[0.25]], "weights": [1.0]},
        "kernel": {"type": "table", "path": str(path)},
        "exponents": {"p": 2.0},
        "checks": [{"name": "fubini"}],
    }))
    assert run(["verify", "--config", cfg, "--out-dir", tmp_path / "o"]) == 0


def test_empty_check_list_rejected(tmp_path):
    cfg = tmp_path / "empty.json"
    base = json.loads((SCENARIOS / "single_cube.json").read_text())
    base["checks"] = []
    cfg.write_text(json.dumps(base))
    assert run(["verify", "--config", cfg, "--out-dir", tmp_path / "o"]) == 2


@pytest.mark.parametrize("command, scenario, built", [
    ("verify", "riesz_lebesgue", 4),  # the scene plus one per truncation depth
    ("verify", "cascade_dlbo", 1),
    ("verify", "single_cube", 1),
    ("energy", "cascade_dlbo", 1),
])
def test_one_level_index_per_instance(monkeypatch, tmp_path, command, scenario, built):
    init = LevelIndex.__init__
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(LevelIndex, "__init__", counted)
    assert run([command, "--config", SCENARIOS / f"{scenario}.json", "--out-dir", tmp_path]) == 0
    assert len(calls) == built


@pytest.mark.parametrize("scenario", ["cascade_dlbo", "single_cube"])
def test_own_atoms_are_never_located_again(monkeypatch, tmp_path, scenario):
    chain_keys = LatticeWindow.chain_keys
    calls = []

    def counted(self, points):
        calls.append(1)
        return chain_keys(self, points)

    monkeypatch.setattr(LatticeWindow, "chain_keys", counted)
    assert run(["verify", "--config", SCENARIOS / f"{scenario}.json", "--out-dir", tmp_path]) == 0
    assert len(calls) == 1  # the scene's index build; every check reads its rows


@pytest.mark.parametrize("command, kind", [
    ("potential", "t"), ("potential", "wolff"), ("potential", "wolff_bar"), ("maximal", "maximal"),
])
def test_default_field_points_are_read_from_the_index(monkeypatch, tmp_path, command, kind):
    chain_keys = LatticeWindow.chain_keys
    calls = []

    def counted(self, points):
        calls.append(1)
        return chain_keys(self, points)

    monkeypatch.setattr(LatticeWindow, "chain_keys", counted)
    assert run([command, "--kind", kind, "--config", SCENARIOS / "cascade_dlbo.json",
                "--out-dir", tmp_path]) == 0
    assert len(calls) == 1  # the scene's index build; mu's chains are read from its rows


@pytest.mark.parametrize("command", ["potential", "maximal"])
def test_default_field_points_outside_the_window_exit_2(tmp_path, capsys, command):
    cfg = json.loads((SCENARIOS / "cascade_dlbo.json").read_text())
    cfg["mu"]["positions"][1] = [1.5]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", path, "--out-dir", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err == "error: point (1.5,) outside root region\n"


def _table_scenario(tmp_path, value) -> Path:
    """One cube of Lebesgue sigma, one mu atom, and a one-entry table kernel ``K = value``."""
    table = tmp_path / "kernel.csv"
    table.write_text(f"level,i0,value\n0,0,{value}\n")
    cfg = tmp_path / "scn.json"
    cfg.write_text(json.dumps({
        "dimension": 1,
        "window": {"coarse_level": 0, "fine_level": 0, "box": [[0, 1]]},
        "sigma": {"type": "lebesgue_grid", "box": [[0, 1]], "level": 0},
        "mu": {"type": "atoms", "positions": [[0.5]], "weights": [0.7]},
        "kernel": {"type": "table", "path": str(table)},
        "exponents": {"p": 2.0},
        "checks": [{"name": "fubini"}, {"name": "energy_wolff_ratio"}],
    }))
    return cfg


@pytest.mark.parametrize("value, reasons", [
    ("inf", {"fubini": "the energy identity has an infinite left and an infinite right side",
             "energy_wolff_ratio": "the energy is infinite and the Wolff mass is infinite"}),
    ("0.0", {"fubini": None,
             "energy_wolff_ratio": "the energy is zero and the Wolff mass is zero"}),
])
def test_not_applicable_checks_say_why(tmp_path, value, reasons):
    cfg = _table_scenario(tmp_path, value)
    assert run(["verify", "--config", cfg, "--out-dir", tmp_path / "o"]) == 0
    checks = json.loads((tmp_path / "o" / "report.json").read_text())["checks"]
    assert {c["name"]: c.get("reason") for c in checks} == reasons
    values = {"fubini": ["relative_error"], "energy_wolff_ratio": ["energy_over_wolff_mass"]}
    for c in checks:
        assert (c["status"] == "not-applicable") == (reasons[c["name"]] is not None)
        assert list(c["values"]) == values[c["name"]]
    assert "reason" not in (tmp_path / "o" / "ratios.csv").read_text()


@pytest.mark.parametrize("value, reason", [
    ("inf", "the energy identity has an infinite left and an infinite right side"),
    ("0.0", None),
])
def test_energy_report_says_why_fubini_is_nan(tmp_path, value, reason):
    cfg = _table_scenario(tmp_path, value)
    assert run(["energy", "--config", cfg, "--out-dir", tmp_path / "o"]) == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report.get("fubini_reason") == reason
    assert (report["fubini_relative_error"] == "nan") == (reason is not None)


def test_scene_is_built_once_when_checks_race(monkeypatch):
    scn = load_scenario(SCENARIOS / "cascade_dlbo.json")
    init = LevelIndex.__init__
    calls = []

    def slow(self, *args, **kwargs):
        calls.append(1)
        time.sleep(0.01)  # widen the window between the None test and the store
        init(self, *args, **kwargs)

    monkeypatch.setattr(LevelIndex, "__init__", slow)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=16) as pool:
            scenes = list(pool.map(lambda _: scn.scene, range(64), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 1
    assert all(scene is scenes[0] for scene in scenes)


def test_threads_default_to_one():
    assert build_parser().parse_args(["verify", "--config", "x.json"]).threads == 1


def test_scipy_integrate_is_imported_on_the_first_quad_call():
    code = ("import sys, wolffpot.cli, wolffpot.kernels as k\n"
            "print('scipy.integrate' in sys.modules)\n"
            "print(abs(k.quad(lambda s: s * s, 0.0, 3.0)[0] - 9.0) < 1e-12)\n"
            "print('scipy.integrate' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(wolffpot.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split() == ["False", "True", "True"]


def _edit(cfg, path, value):
    *parents, last = path
    for key in parents:
        cfg = cfg[key]
    cfg[last] = value


@pytest.mark.parametrize("base, path, value, message", [
    ("single_cube", ("checks", 0, "tol"), "x", "fubini: field 'tol'"),
    ("single_cube", ("bands",), {"default": [1]}, "bands: field 'default'"),
    ("single_cube", ("exponents", "p"), "two", "exponents: field 'p'"),
    ("single_cube", ("dimension",), "x", "scenario: field 'dimension'"),
    ("single_cube", ("checks", 2, "lambda"), [[0, [0, 0], 1.0]], "a_chain: field 'lambda'"),
    ("single_cube", ("checks", 2, "lambda"), [[0, [0], 1.0], [0, [0], 2.0]],
     "a_chain: field 'lambda' repeats"),
    ("riesz_lebesgue", ("checks", 6, "draws"), 1, "shifted_average: field 'draws'"),
    ("riesz_lebesgue", ("checks", 6, "x_samples"), 0, "shifted_average: field 'x_samples'"),
    ("riesz_lebesgue", ("checks", 5, "samples"), 0, "bar_lemmas: field 'samples'"),
    ("riesz_lebesgue", ("checks", 7, "probes"), 0, "trace_q1: field 'probes'"),
    ("riesz_lebesgue", ("checks", 8, "trials"), 0, "trace_upper: field 'trials'"),
    ("counterexample", ("checks", 0, "terms"), [1000], "counterexample_series: field 'terms'"),
    ("counterexample", ("checks", 0, "terms"), [1000, 1000], "counterexample_series: field 'terms'"),
    ("counterexample", ("checks", 0, "terms"), [10, 5], "counterexample_series: field 'terms'"),
    ("counterexample", ("checks", 0, "terms"), [-1, 10], "counterexample_series: field 'terms'"),
    ("counterexample", ("checks", 0, "terms"), [0, 2 ** 53 + 1], "counterexample_series: field 'terms'"),
    ("counterexample", ("checks", 0, "terms"), 1000, "counterexample_series: field 'terms'"),
    ("counterexample", ("checks", 0, "terms"), "19", "counterexample_series: field 'terms'"),
    ("cascade_dlbo", ("window", "shift"), "x", "window: field 'shift'"),
    ("cascade_dlbo", ("window", "shift"), ["a"], "window: field 'shift'"),
    ("cascade_dlbo", ("window", "shift"), [0.0, 0.0], "window: field 'shift'"),
    ("cascade_dlbo", ("window", "shift"), [math.nan], "window: field 'shift'"),
    ("cascade_dlbo", ("window", "shift"), [True], "window: field 'shift'"),
    ("cascade_dlbo", ("checks", 0, "expect_holds"), "false", "reverse_doubling: field 'expect_holds'"),
    ("riesz_lebesgue", ("checks", 9, "expect_converged"), "false",
     "truncation: field 'expect_converged'"),
    ("cascade_dlbo", ("window", "box"), "x", "window: field 'box'"),
    ("cascade_dlbo", ("window", "box"), [[math.nan, 1.0]], "window: field 'box'"),
    ("cascade_dlbo", ("window", "box"), [[0.0, 1.0], [0.0, 1.0]], "window: field 'box'"),
    ("cascade_dlbo", ("window", "box"), [[0.0, 1.0, 2.0]], "window: field 'box'"),
    ("cascade_dlbo", ("window", "box"), [[False, 1.0]], "window: field 'box'"),
    ("riesz_lebesgue", ("sigma", "box"), "x", "sigma: field 'box'"),
    ("riesz_lebesgue", ("mu", "box"), [[0.0, math.inf]], "mu: field 'box'"),
    ("riesz_lebesgue", ("mu", "level"), "x", "mu: field 'level'"),
    ("riesz_lebesgue", ("window", "coarse_level"), "x", "window: field 'coarse_level'"),
    ("riesz_lebesgue", ("kernel", "alpha"), "x", "kernel: field 'alpha'"),
    ("cascade_dlbo", ("checks", 4, "trails"), 3, "trace_upper: unknown field 'trails'"),
    ("cascade_dlbo", ("checks", 1, "bund"), 1.0, "dlbo: unknown field 'bund'"),
    ("riesz_lebesgue", ("sigma", "scale"), 1e-3, "sigma: unknown field 'scale'"),
    ("single_cube", ("windw",), {}, "scenario: unknown field 'windw'"),
    ("cascade_dlbo", ("window", "shfit"), [0.0], "window: unknown field 'shfit'"),
    ("cascade_dlbo", ("mu", "level"), 3, "mu: unknown field 'level'"),
    ("counterexample", ("kernel", "cutoff"), 1.0, "kernel: unknown field 'cutoff'"),
    ("single_cube", ("exponents", "r"), 2.0, "exponents: unknown field 'r'"),
    ("single_cube", ("bands",), {"defualt": [1.0, 2.0]}, "bands: unknown field 'defualt'"),
    ("counterexample", ("checks", 1, "depths"), [], "counterexample_fields: field 'depths'"),
    ("riesz_lebesgue", ("checks", 9, "depths"), [], "truncation: field 'depths'"),
    ("riesz_lebesgue", ("checks", 9, "target"), "mass", "truncation: field 'target'"),
    ("cascade_dlbo", ("window",), "x", "window: expected an object"),
    ("single_cube", ("kernel",), [1], "kernel: expected an object"),
    ("single_cube", ("exponents",), 2, "exponents: expected an object"),
    ("single_cube", ("checks",), 5, "scenario: field 'checks'"),
    ("single_cube", ("checks", 0, "name"), ["fubini"], "checks: every entry needs a name"),
], ids=["tol", "band", "p", "dimension", "lambda_dimension", "lambda_repeat", "draws", "x_samples", "samples",
        "probes", "trials", "terms", "terms_equal", "terms_order", "terms_negative", "terms_huge",
        "terms_scalar", "terms_string",
        "shift_string", "shift_list", "shift_dimension", "shift_nan", "shift_bool", "expect_holds",
        "expect_converged", "box_string", "box_nan", "box_dimension", "box_pair", "box_bool",
        "grid_box_string", "grid_box_inf", "grid_level", "coarse_level", "alpha", "trails", "bund",
        "scale", "windw", "window_key", "measure_key", "kernel_key", "exponents_key", "bands_key",
        "fields_depths", "truncation_depths", "target", "window_object", "kernel_object",
        "exponents_object", "checks_list", "check_name"])
def test_malformed_values_exit_2_with_one_line(tmp_path, capsys, base, path, value, message):
    cfg = json.loads((SCENARIOS / f"{base}.json").read_text())
    _edit(cfg, path, value)
    if path[0] == "checks" and len(path) > 1:  # run the malformed check alone
        cfg["checks"] = [cfg["checks"][path[1]]]
    path_json = tmp_path / "bad.json"
    path_json.write_text(json.dumps(cfg))
    assert run(["verify", "--config", path_json, "--out-dir", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
