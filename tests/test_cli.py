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
from wolffpot.potentials import energy_dyadic
from wolffpot.scenario import ScenarioError, load_scenario, read_kernel_table
from wolffpot.verify import wolff_integral

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
SHIPPED = ["single_cube", "cascade_dlbo", "riesz_lebesgue", "counterexample"]


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
        "check,seed,value,lower_band,upper_band,status"


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


def test_numeric_error_names_its_check(tmp_path, capsys):
    cfg = json.loads((SCENARIOS / "cascade_dlbo.json").read_text())
    cfg["sigma"] = {"type": "atoms", "positions": [[1.5]], "weights": [1.0]}  # outside the window
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", path, "--out-dir", tmp_path / "o"]) == 2
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
        for out in (a, b):
            assert run(["verify", "--config", SCENARIOS / f"{scenario}.json", "--out-dir", out]) == 0
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


def test_kernel_table_csv(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("level,i0,value\n0,0,1.0\n1,0,2.0\n1,1,0.5\n")
    table = read_kernel_table(path, 1)
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
    assert len(calls) == 0  # every check reads the atoms' fine cubes from the index


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
    assert len(calls) == 0  # mu's fine cubes are read from the index


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
    values = {"fubini": ["relative_error"],
              "energy_wolff_ratio": ["energy_over_wolff_mass", "energy", "wolff_mass"]}
    for c in checks:
        assert (c["status"] == "not-applicable") == (reasons[c["name"]] is not None)
        assert list(c["values"]) == values[c["name"]]
    ratios = (tmp_path / "o" / "ratios.csv").read_text()
    assert "reason" not in ratios
    # the last column is each check's status, not-applicable included
    assert [row.rsplit(",", 1)[1] for row in ratios.splitlines()[1:]] == \
        [c["status"] for c in checks for _ in c["values"]]


def test_check_values_keep_their_order_on_the_shipped_scenarios(tmp_path):
    # each of these check cores returns its report values, so the report keeps the core's order
    ordered = {
        "trace_q1": ["dual_constant", "achieved_ratio", "probe_max", "extremal_gap", "pairing_gap"],
        "trace_upper": ["wolff_norm", "empirical_sup", "dlbo", "equivalence_claimed",
                        "sup_over_wolff_norm"],
        "shifted_average": ["max_ratio", "points", "j0", "levels", "max_rel_stderr"],
        "truncation": ["value_d4", "value_d6", "value_d8", "converged"],  # riesz_lebesgue's depths
    }
    seen = []
    for scenario in SHIPPED:
        out = tmp_path / scenario
        assert run(["verify", "--config", SCENARIOS / f"{scenario}.json", "--out-dir", out]) == 0
        for check in json.loads((out / "report.json").read_text())["checks"]:
            if check["name"] in ordered:
                assert list(check["values"]) == ordered[check["name"]], (scenario, check["name"])
                seen.append(check["name"])
        rows = (out / "ratios.csv").read_text().splitlines()[1:]
        for name, keys in ordered.items():
            got = [row.split(",")[0].split(":")[1] for row in rows if row.startswith(f"{name}:")]
            assert got == keys * (len(got) // len(keys)), (scenario, name)
    assert sorted(set(seen)) == sorted(ordered)


@pytest.mark.parametrize("source", [*SHIPPED, "inf", "0.0"])
def test_energy_and_wolff_mass_are_published_exactly(tmp_path, source):
    base = SCENARIOS / f"{source}.json" if source in SHIPPED else _table_scenario(tmp_path, source)
    cfg = json.loads(base.read_text())
    cfg["checks"] = [{"name": "energy_wolff_ratio"}]
    path = tmp_path / "ratio.json"
    path.write_text(json.dumps(cfg))
    assert run(["verify", "--config", path, "--out-dir", tmp_path / "o"]) in (0, 1)
    values = json.loads((tmp_path / "o" / "report.json").read_text())["checks"][0]["values"]
    scn = load_scenario(path)
    assert float(values["energy"]) == energy_dyadic(scn.scene, scn.exponents)
    assert float(values["wolff_mass"]) == wolff_integral(scn.scene, scn.exponents)


def _resolved_fields(scn, cfg) -> dict:
    """A check's fields as the scenario gives them, else their defaults, resolved in order."""
    out = {}
    for key, (_, default) in cli.CHECK_FIELDS[cfg["name"]][1].items():
        if cfg.get(key) is not None:
            out[key] = cfg[key]
        else:
            out[key] = default(scn, out) if callable(default) else default
    return out


@pytest.mark.parametrize("scenario", SHIPPED)
def test_every_report_records_its_fields_and_the_run_instance(tmp_path, scenario):
    assert run(["verify", "--config", SCENARIOS / f"{scenario}.json", "--out-dir", tmp_path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    scn = load_scenario(SCENARIOS / f"{scenario}.json")
    assert len(report["checks"]) == len(scn.checks)
    for cfg, check in zip(scn.checks, report["checks"]):
        assert list(check)[:5] == ["name", "status", "seed", "instance", "params"]
        assert check["params"] == json.loads(dumps_canonical(_resolved_fields(scn, cfg))), cfg
        assert check["instance"] == report["instance"], cfg["name"]


@pytest.mark.parametrize("case", ["missing_table", "table_index", "table_bytes", "missing_points",
                                  "scenario_bytes", "scenario_digits"])
def test_bad_input_files_exit_2_with_one_line(tmp_path, capsys, case):
    cfg = _table_scenario(tmp_path, "1.0")
    table, points = tmp_path / "kernel.csv", tmp_path / "points.csv"
    args = ["verify", "--config", cfg]
    if case == "missing_table":
        table.unlink()
        message = f"kernel table {table}: No such file or directory"
    elif case == "table_index":
        table.write_text("level,i0,value\n0,0,0,1.0\n")  # a 2-D index in a 1-D scenario
        message = f"kernel table {table} line 2: 2 index components, not 1"
    elif case == "table_bytes":
        table.write_bytes(b"level,i0,value\n0,0,\xff\n")
        message = f"kernel table {table}: not UTF-8 text"
    elif case == "scenario_bytes":
        cfg.write_bytes(b'{"dimension": "\xff"}')
        message = f"{cfg}: not UTF-8 text"
    elif case == "scenario_digits":  # past the interpreter's digit limit, which stays as it is
        cfg.write_text('{"dimension": ' + "9" * 5000 + "}")
        message = f"{cfg}: an integer has more than {sys.get_int_max_str_digits()} digits"
    else:
        args = ["potential", "--config", cfg, "--points", points]
        message = f"points file {points}: No such file or directory"
    assert run([*args, "--out-dir", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("row, message", [
    ("0,0,nan", "K(Q) = nan is not in [0, inf]"),
    ("0,0,-1.0", "K(Q) = -1.0 is not in [0, inf]"),
    ("0,0,1.0\n0,0,2.0", "repeats the cube (0, (0,))"),
], ids=["nan", "negative", "repeat"])
def test_excluded_kernel_table_values_exit_2_with_one_line(tmp_path, capsys, row, message):
    cfg = _table_scenario(tmp_path, "1.0")
    table = tmp_path / "kernel.csv"
    table.write_text(f"level,i0,value\n{row}\n")
    assert run(["verify", "--config", cfg, "--out-dir", tmp_path / "o"]) == 2
    line = row.count("\n") + 2
    assert capsys.readouterr().err == f"error: kernel table {table} line {line}: {message}\n"


def test_an_infinite_kernel_table_value_is_legal(tmp_path):
    cfg = _table_scenario(tmp_path, "inf")
    assert run(["verify", "--config", cfg, "--out-dir", tmp_path / "o"]) in (0, 1)
    assert load_scenario(cfg).kernel((0, (0,))) == math.inf


@pytest.mark.parametrize("kind", ["wolff_continuous", "maximal_continuous", "wolff", "t", "maximal"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_query_points_exit_2_with_one_line(tmp_path, capsys, kind, value):
    points = tmp_path / "points.csv"
    points.write_text(f"x\n0.5\n{value}\n")
    command = "maximal" if kind.startswith("maximal") else "potential"
    assert run([command, "--kind", kind, "--config", SCENARIOS / "cascade_dlbo.json",
                "--points", points, "--out-dir", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == f"error: {points} line 3: a coordinate is not finite\n"


@pytest.mark.parametrize("command", ["verify", "potential", "maximal"])
def test_threads_other_than_one_exit_2_with_one_line(tmp_path, capsys, command):
    args = [command, "--config", SCENARIOS / "cascade_dlbo.json"]
    for threads in ("0", "2", "-1"):
        assert run([*args, "--threads", threads, "--out-dir", tmp_path / threads]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --threads must be 1, got {threads}: checks run in order on one thread\n"
        assert not (tmp_path / threads).exists()
    assert run([*args, "--threads", "1", "--out-dir", tmp_path / "one"]) == 0
    assert run([*args, "--out-dir", tmp_path / "default"]) == 0
    assert (tmp_path / "one" / "report.json").read_bytes() == \
        (tmp_path / "default" / "report.json").read_bytes()


def test_one_parser_serves_every_call_of_main(tmp_path):
    # building one costs about as much as a small command, so main reuses it
    parser = build_parser()
    assert build_parser() is parser
    args = ["verify", "--config", str(SCENARIOS / "single_cube.json")]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--seed", "3", "--out-dir", str(tmp_path / "b")]) == 0
    assert build_parser() is parser
    assert parser.parse_args(["verify", "--config", "x.json"]).seed is None


# 3e-9, 1e-9 and 3e-10 to the right of the sigma atom at 0.46533203125 of
# counterexample.json: the segment from that atom's distance out to the next
# atom's spans many quadrature pieces
NEAR_ATOM = "x\n0.46533203425\n0.46533203225\n0.46533203155\n"


def _python(tmp_path, *args):
    env = {**os.environ, "PYTHONPATH": str(Path(wolffpot.__file__).parents[1])}
    return subprocess.run([sys.executable, "-W", "error", *map(str, args)], env=env,
                          capture_output=True, text=True, cwd=tmp_path)


def test_maximal_continuous_rises_toward_a_sigma_atom(tmp_path):
    (tmp_path / "points.csv").write_text(NEAR_ATOM)
    out = _python(tmp_path, "-m", "wolffpot", "maximal", "--kind", "maximal_continuous",
                  "--config", SCENARIOS / "counterexample.json", "--points", "points.csv",
                  "--out-dir", "out")
    assert out.returncode == 0, out.stderr
    rows = (tmp_path / "out" / "values.csv").read_text().splitlines()[1:]
    values = [float(row.split(",")[1]) for row in rows]
    assert all(math.isfinite(v) for v in values)
    assert values[0] < values[1] < values[2]
    assert values[1] == pytest.approx(1.0037e4, rel=1e-4)


def test_bar_k_beside_a_sigma_atom_is_positive():
    scn = load_scenario(SCENARIOS / "counterexample.json")
    value = wolffpot.bar_k(scn.kernel.radial, scn.sigma, [0.46533203125 + 1e-10], 9e-4)
    assert math.isfinite(value) and value > 0.0


def test_no_command_imports_scipy(tmp_path):
    (tmp_path / "points.csv").write_text(NEAR_ATOM)
    counterexample = ["--config", str(SCENARIOS / "counterexample.json"), "--points", "points.csv"]
    commands = [
        ["verify", "--config", str(SCENARIOS / "riesz_lebesgue.json"), "--out-dir", "verify"],
        ["potential", "--kind", "wolff_continuous", *counterexample, "--out-dir", "wolff"],
        ["maximal", "--kind", "maximal_continuous", *counterexample, "--out-dir", "maximal"],
    ]
    code = ("import sys\n"
            "from wolffpot.cli import main\n"
            f"print([main(args) for args in {commands!r}])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = _python(tmp_path, "-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2:] == ["[0, 0, 0]", "[]"]


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
    ("counterexample", ("checks", 1, "depths"), "68", "counterexample_fields: field 'depths'"),
    ("cascade_dlbo", ("mu", "positions"), [[0.5], [0.1, 0.2]], "mu: field 'positions'"),
    ("cascade_dlbo", ("mu", "positions"), "a", "mu: field 'positions'"),
    ("cascade_dlbo", ("mu", "weights"), "x", "mu: field 'weights'"),
    ("riesz_lebesgue", ("seed",), -5, "scenario: field 'seed'"),
    ("cascade_dlbo", ("checks", 4, "seed"), -1, "trace_upper: field 'seed'"),
    ("cascade_dlbo", ("window", "fine_level"), 10.9, "window: field 'fine_level'"),
    ("cascade_dlbo", ("checks", 4, "trials"), 30.9, "trace_upper: field 'trials'"),
    ("cascade_dlbo", ("checks", 4, "trials"), True, "trace_upper: field 'trials'"),
    ("cascade_dlbo", ("kernel", "alpha"), "0.75", "kernel: field 'alpha'"),
    ("cascade_dlbo", ("exponents", "p"), "2", "exponents: field 'p'"),
    ("cascade_dlbo", ("exponents", "p"), True, "exponents: field 'p'"),
    ("cascade_dlbo", ("checks", 0, "gamma"), math.nan, "reverse_doubling: field 'gamma'"),
    ("cascade_dlbo", ("kernel",), {"type": "log", "beta": math.nan, "C": 10.0}, "kernel: field 'beta'"),
    ("cascade_dlbo", ("kernel",), {"type": "constant", "value": math.nan}, "kernel: field 'value'"),
    ("counterexample", ("checks", 1, "depths"), [6, 10.5], "counterexample_fields: field 'depths'"),
    ("counterexample", ("checks", 0, "terms"), [1000, 1e6 + 0.5], "counterexample_series: field 'terms'"),
    ("single_cube", ("checks", 2, "lambda"), [[0, [0], math.nan]], "a_chain: field 'lambda'"),
    ("single_cube", ("checks", 2, "lambda"), [[0.5, [0], 1.0]], "a_chain: field 'lambda'"),
    ("single_cube", ("bands",), {"default": ["0.001", 1000.0]}, "bands: field 'default'"),
    ("single_cube", ("bands",), {"default": "ab"}, "bands: field 'default'"),
    ("single_cube", ("dimension",), 1.5, "scenario: field 'dimension'"),
    ("cascade_dlbo", ("kernel", "alpha"), 10 ** 400, "kernel: field 'alpha'"),
    ("counterexample", ("checks", 0, "beta"), 1000.0, "counterexample_series: field 'C'"),
    ("counterexample", ("checks", 1, "beta"), 1000.0, "counterexample_fields: field 'C'"),
    ("riesz_lebesgue", ("checks", 6, "j"), 2000, "shifted_average: j must satisfy |j| n <= 512"),
    ("riesz_lebesgue", ("checks", 6, "j"), 1018, "shifted_average: j must satisfy |j| n <= 512"),
    ("riesz_lebesgue", ("checks", 3, "gamma"), 200.0, "reverse_doubling: gamma must be positive"),
    ("riesz_lebesgue", ("sigma", "box"), [[0.0, 1.0, 2.0]], "sigma: field 'box'"),
    ("cascade_dlbo", ("window", "shift"), [], "window: field 'shift'"),
    ("cascade_dlbo", ("mu", "positions"), [[0.3, 0.62], [0.9]], "mu: field 'positions'"),
    ("riesz_lebesgue", ("checks", 9, "depths"), [], "truncation: field 'depths'"),
    ("riesz_lebesgue", ("checks", 9, "depths"), "6", "truncation: field 'depths'"),
    ("counterexample", ("checks", 0, "terms"), [10, 100, 1000], "counterexample_series: field 'terms'"),
    ("single_cube", ("bands",), {"default": [1e-3, 1.0, 1e3]}, "bands: field 'default'"),
    ("riesz_lebesgue", ("checks", 1, "band"), [0.5, 1.0, 2.0], "energy_wolff_ratio: field 'band'"),
    ("cascade_dlbo", ("mu", "weights"), [1.0, True, 2.0], "mu: field 'weights'"),
], ids=["tol", "band", "p", "dimension", "lambda_dimension", "lambda_repeat", "draws", "x_samples", "samples",
        "probes", "trials", "terms", "terms_equal", "terms_order", "terms_negative", "terms_huge",
        "terms_scalar", "terms_string",
        "shift_string", "shift_list", "shift_dimension", "shift_nan", "shift_bool", "expect_holds",
        "expect_converged", "box_string", "box_nan", "box_dimension", "box_pair", "box_bool",
        "grid_box_string", "grid_box_inf", "grid_level", "coarse_level", "alpha", "trails", "bund",
        "scale", "windw", "window_key", "measure_key", "kernel_key", "exponents_key", "bands_key",
        "fields_depths", "truncation_depths", "target", "window_object", "kernel_object",
        "exponents_object", "checks_list", "check_name", "depths_string", "positions_ragged",
        "positions_string", "weights_string", "seed_negative", "check_seed_negative",
        "fine_level_fraction", "trials_fraction", "trials_bool", "alpha_string", "p_string", "p_bool",
        "gamma_nan", "log_beta_nan", "constant_value_nan", "depths_fraction", "terms_fraction",
        "lambda_weight_nan", "lambda_level_fraction", "band_string", "band_chars", "dimension_fraction",
        "alpha_huge", "series_default_C_overflow", "fields_default_C_overflow", "j_2000", "j_1018",
        "gamma_200", "grid_box_side_three", "shift_empty", "positions_ragged_2d", "truncation_depths_empty",
        "truncation_depths_string", "terms_three", "band_three", "check_band_three", "weights_bool"])
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
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("path, value, message", [
    (("checks", 1, "depths"), [6, 40],
     "counterexample_fields: lebesgue_grid on box [[-1.0, 2.0]] at level 40 has 3298534883328 cells"),
    (("sigma", "level"), 40,
     "sigma: lebesgue_grid on box [[-1.0, 2.0]] at level 40 has 3298534883328 cells"),
], ids=["fields_depth_40", "sigma_level_40"])
def test_grids_past_the_cell_budget_exit_2_before_they_allocate(tmp_path, capsys, path, value,
                                                               message):
    cfg = json.loads((SCENARIOS / "counterexample.json").read_text())
    _edit(cfg, path, value)
    cfg["checks"] = [cfg["checks"][1]]
    path_json = tmp_path / "deep.json"
    path_json.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    assert run(["verify", "--config", path_json, "--out-dir", tmp_path / "o"]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["verify", "potential"])
def test_negative_seed_flag_exits_2_with_one_line(tmp_path, capsys, command):
    code = run([command, "--config", SCENARIOS / "single_cube.json", "--seed", "-5",
                "--out-dir", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --seed must be a nonnegative integer") and err.count("\n") == 1, err
