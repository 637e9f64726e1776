import concurrent.futures
import json
import math
import sys
import time
from pathlib import Path

import pytest

from wolffpot import LevelIndex
from wolffpot.cli import build_parser, dumps_canonical, format_float, main
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


def test_missing_seed_for_randomized_check(tmp_path):
    cfg = tmp_path / "noseed.json"
    cfg.write_text(json.dumps({
        "dimension": 1,
        "window": {"coarse_level": 0, "fine_level": 2, "box": [[0, 1]]},
        "sigma": {"type": "lebesgue_grid", "box": [[0, 1]], "level": 2},
        "mu": {"type": "atoms", "positions": [[0.5]], "weights": [1.0]},
        "kernel": {"type": "riesz", "alpha": 0.5},
        "exponents": {"p": 2.0, "q": 1.5},
        "checks": [{"name": "trace_upper"}],
    }))
    with pytest.raises(ScenarioError, match="seed"):
        load_scenario(cfg)


def test_counterexample_scenario_flags_divergence(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cex.json"
    base = json.loads((SCENARIOS / "counterexample.json").read_text())
    # shallow depths keep the test fast; divergence already shows
    base["checks"][1]["depths"] = [4, 6, 8]
    cfg.write_text(json.dumps(base))
    code = run(["counterexample", "--config", cfg, "--out-dir", out])
    assert code == 0  # expected-divergence checks pass
    report = json.loads((out / "report.json").read_text())
    fields = next(c for c in report["checks"] if c["name"] == "counterexample_fields")
    assert fields["values"]["wbar_strictly_increasing"] == 1.0
    assert fields["values"]["min_wbar_d8"] > fields["values"]["min_wbar_d4"]


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
    a, b = tmp_path / "a", tmp_path / "b"
    for out, threads in ((a, 1), (b, 2)):
        assert run(["verify", "--config", SCENARIOS / "single_cube.json",
                    "--out-dir", out, "--threads", threads]) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "ratios.csv").read_bytes() == (b / "ratios.csv").read_bytes()


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


def test_trace_command_picks_regime(tmp_path):
    code = run(["trace", "--config", SCENARIOS / "single_cube.json",
                "--out-dir", tmp_path / "q1"])
    assert code == 0
    report = json.loads((tmp_path / "q1" / "report.json").read_text())
    assert report["checks"][0]["name"] == "trace_q1"
    code = run(["trace", "--config", SCENARIOS / "cascade_dlbo.json",
                "--out-dir", tmp_path / "up"])
    assert code == 0
    report = json.loads((tmp_path / "up" / "report.json").read_text())
    assert report["checks"][0]["name"] == "trace_upper"


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
    ("counterexample", ("checks", 0, "terms"), [1000], "counterexample_series: field 'terms'"),
], ids=["tol", "band", "p", "dimension", "lambda_dimension", "lambda_repeat", "draws", "terms"])
def test_malformed_values_exit_2_with_one_line(tmp_path, capsys, base, path, value, message):
    cfg = json.loads((SCENARIOS / f"{base}.json").read_text())
    _edit(cfg, path, value)
    if path[0] == "checks":  # run the malformed check alone
        cfg["checks"] = [cfg["checks"][path[1]]]
    path_json = tmp_path / "bad.json"
    path_json.write_text(json.dumps(cfg))
    assert run(["verify", "--config", path_json, "--out-dir", tmp_path / "o"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
