import dataclasses
import json

import pytest
from click.testing import CliRunner

from setopt import bench, cone
from setopt.cli import main
from setopt.cone import orthant
from setopt.solvers import IterationRecord


def test_list_problems():
    result = CliRunner().invoke(main, ["list-problems"])
    assert result.exit_code == 0
    meta = json.loads(result.output)
    assert len(meta) == 22
    assert {"name", "n", "m", "p", "box_lower", "box_upper"} <= set(meta[0])


def test_inspect():
    for problem_id, point in (("dgo1_n1_m2", 0.5), ("modified_ex51_n1_m2", 5.0)):
        result = CliRunner().invoke(main, [
            "inspect", "--problem", problem_id, "--point", str(point)])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert set(data) == {"omega", "groups", "partition_size"}
        assert data["omega"] >= 1
        assert data["partition_size"] >= 1
        assert all(isinstance(g, list) for g in data["groups"])


def test_criticality():
    result = CliRunner().invoke(main, [
        "criticality", "--problem", "dgo2_n1_m2", "--point", "0.0", "--radius", "1.0"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["t"] <= 0.0
    assert len(data["s"]) == 1


@pytest.mark.parametrize("radius", ["-1", "0", "nan", "inf"])
def test_criticality_radius_must_be_positive_and_finite(radius):
    # at each of these the value is 0 wherever the point is: no certificate
    args = ["criticality", "--problem", "jos1a_n5_m2", "--point", "0.3,0.1,0.2,-0.4,0.5"]
    result = CliRunner().invoke(main, [*args, "--radius", radius])
    assert result.exit_code == 2, result.output
    assert "'--radius'" in result.output and "positive finite" in result.output
    # the same point at radius 1 is not critical
    assert json.loads(CliRunner().invoke(main, [*args, "--radius", "1"]).output)["t"] < -0.09


def test_solve_with_trace_and_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"it_max": 5}))
    result = CliRunner().invoke(main, [
        "solve", "--problem", "dgo2_n1_m2", "--algo", "max", "--x0", "4.0",
        "--config", str(cfg), "--trace"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    # leading lines are one-line JSON trace records; the summary block follows
    trace_lines = [ln for ln in lines if ln.startswith('{"k"')]
    assert trace_lines
    head = json.loads(trace_lines[0])
    assert head["k"] == 0 and "rho" in head
    assert list(head) == [f.name for f in dataclasses.fields(IterationRecord)]
    summary = json.loads("\n".join(lines[len(trace_lines):]))
    assert summary["algorithm"] == "max"


@pytest.mark.parametrize("field, value", [("nu", 1.0), ("variant", "sd"), ("radius", 2.0),
                                          ("sigma", 3.0), ("it_max", 2.5),
                                          ("eps", float("nan")), ("rho_armijo", -5.0)])
def test_solve_bad_config_is_usage_error(tmp_path, field, value):
    # out of range, set by --algo, not a SolverConfig field, out of range, not
    # an integer, NaN (JSON's NaN), and a slope that would admit an increase
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({field: value}))
    result = CliRunner().invoke(main, [
        "solve", "--problem", "dgo2_n1_m2", "--algo", "sd", "--x0", "4.0",
        "--config", str(cfg)])
    assert result.exit_code == 2, result.output
    assert "--config" in result.output and field in result.output


@pytest.mark.parametrize("command", ["run", "table", "profile"])
def test_experiment_unknown_key_is_usage_error(tmp_path, command):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"problem_ids": ["dgo2_n1_m2"], "it_mx": 5}))
    store = tmp_path / "store.jsonl"
    store.write_text("")
    args = {
        "run": ["--out", str(store)],
        "table": ["--store", str(store), "--csv", str(tmp_path / "t.csv")],
        "profile": ["--store", str(store), "--metric", "nonconv",
                    "--svg", str(tmp_path / "p.svg")],
    }[command]
    result = CliRunner().invoke(main, [command, "--config", str(cfg), *args])
    assert result.exit_code == 2, result.output
    assert "--config" in result.output and "it_mx" in result.output


@pytest.mark.parametrize("fields, message", [
    ({"algorithms": ["tr", "sd"]}, "'tr'"),
    ({"it_max": 0}, "got 0"),
    ({"problem_ids": ["dgo1"]}, "'dgo1'"),
    ({"it_max": 2.5}, "got 2.5"),
    ({"points_per_problem": 1.5}, "got 1.5"),
    ({"algorithms": []}, "nonempty algorithms"),
    ({"algorithms": ["trm", "max", "trm"]}, "no repeats"),
    ({"problem_ids": []}, "nonempty problem_ids"),
    ({"problem_ids": ["dgo2_n1_m2", "dgo2_n1_m2"]}, "no repeats"),
])
def test_run_bad_experiment_is_usage_error(tmp_path, fields, message):
    # rejected before the first run: no store file, so no failure record to resume past
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"problem_ids": ["dgo2_n1_m2"], "points_per_problem": 1,
                               "it_max": 2, **fields}))
    store = tmp_path / "store.jsonl"
    result = CliRunner().invoke(main, ["run", "--config", str(cfg), "--out", str(store)])
    assert result.exit_code == 2, result.output
    assert "'--config'" in result.output and message in result.output
    assert not store.exists()


def test_experiment_pipeline(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "problem_ids": ["dgo2_n1_m2"], "algorithms": ["trm", "max"],
        "points_per_problem": 2, "it_max": 5, "rng_seed": 3,
    }))
    store = tmp_path / "store.jsonl"
    runner = CliRunner()
    result = runner.invoke(main, ["run", "--config", str(cfg_path), "--out", str(store)])
    assert result.exit_code == 0, result.output
    assert "4 records" in result.output

    csv_path = tmp_path / "table.csv"
    result = runner.invoke(main, ["table", "--store", str(store),
                                  "--config", str(cfg_path), "--csv", str(csv_path)])
    assert result.exit_code == 0
    assert csv_path.exists()

    svg_path = tmp_path / "prof.svg"
    result = runner.invoke(main, ["profile", "--store", str(store),
                                  "--config", str(cfg_path), "--metric", "nonconv",
                                  "--svg", str(svg_path)])
    assert result.exit_code == 0
    assert svg_path.read_bytes().startswith(b"<svg")


def test_cone_experiment_command(tmp_path):
    out = tmp_path / "cones.json"
    result = CliRunner().invoke(main, [
        "cone-experiment", "--problem", "modified_ex53_n2_m2",
        "--x0", "-16.355461,-2.454201", "--out", str(out), "--it-max", "3"])
    assert result.exit_code == 0, result.output
    data = json.loads(out.read_text())
    assert set(data) == {"orthant:2", "k2prime"}
    assert set(data["k2prime"]) == {"max", "avg"}


_OUT = ["--out", "cones.json"]


@pytest.mark.parametrize("args, option, message", [
    (["inspect", "--problem", "zdt1_n2_m2", "--point", "0.5,0.5", "--cone", "orthant:3"],
     "--cone", "R^3"),
    (["inspect", "--problem", "zdt1_n2_m2", "--point", "0.5,0.5", "--cone", "bogus"],
     "--cone", "bogus"),
    (["inspect", "--problem", "zdt1_n2_m2", "--point", "0.5"], "--point", "n = 2"),
    (["inspect", "--problem", "zdt1_n2_m2", "--point", "0.5,1.5"], "--point", "in the box"),
    (["criticality", "--problem", "dgo2_n1_m2", "--point", "0.0", "--cone", "orthant:x"],
     "--cone", "orthant:x"),
    (["criticality", "--problem", "dgo2_n1_m2", "--point", "0.0", "--cone", "k3.json"],
     "--cone", "R^3"),
    (["criticality", "--problem", "dgo2_n1_m2", "--point", "0.0", "--cone", "empty.json"],
     "--cone", "empty.json"),
    (["criticality", "--problem", "dgo2_n1_m2", "--point", "zero"], "--point", "zero"),
    (["solve", "--problem", "zdt1_n2_m2", "--x0", "0.5,0.5", "--cone", "orthant:0"],
     "--cone", "orthant:0"),
    (["solve", "--problem", "dgo2_n1_m2", "--x0", "4.0,1.0"], "--x0", "n = 1"),
    (["solve", "--problem", "dgo2_n1_m2", "--x0", "nan"], "--x0", "in the box"),
    (["cone-experiment", "--problem", "modified_ex53_n2_m2", "--x0", "-16,-2",
      "--cones", "orthant:2,foo", *_OUT], "--cones", "foo"),
    (["cone-experiment", "--problem", "modified_ex53_n2_m2", "--x0", "-16,-2",
      "--cones", "orthant:3", *_OUT], "--cones", "R^3"),
    (["cone-experiment", "--problem", "modified_ex53_n2_m2", "--x0", "-16", *_OUT],
     "--x0", "n = 2"),
    (["cone-experiment", "--problem", "sphere_n3_m3", "--x0", "0.5,0.5,0.5", *_OUT],
     "--cones", "R^3"),
    (["inspect", "--problem", "nope", "--point", "1"], "--problem", "'nope'"),
    (["criticality", "--problem", "nope", "--point", "1"], "--problem", "'nope'"),
    (["solve", "--problem", "nope", "--x0", "1"], "--problem", "'nope'"),
    (["cone-experiment", "--problem", "nope", "--x0", "1", *_OUT], "--problem", "'nope'"),
    (["cone-experiment", "--problem", "sphere_n3_m3", "--x0", "0.5,0.5,0.5",
      "--cones", "orthant:3", *_OUT], "--problem", "m = 2"),
    (["cone-experiment", "--problem", "modified_ex53_n2_m2", "--x0", "-16,-2",
      "--it-max", "0", *_OUT], "--it-max", "0"),
    (["cone-experiment", "--problem", "modified_ex53_n2_m2", "--x0", "-16,-2",
      "--cones", "orthant:2,k2prime,orthant:2", *_OUT], "--cones", "no repeats"),
    (["solve", "--problem", "dgo2_n1_m2", "--x0", "4.0", "--config", "missing.json"],
     "--config", "missing.json"),
    (["run", "--config", "folder.json", "--out", "store.jsonl"], "--config", "folder.json"),
    (["table", "--store", "store.jsonl", "--config", "latin1.json", "--csv", "t.csv"],
     "--config", "latin1.json"),
    (["profile", "--store", "store.jsonl", "--config", "missing.json", "--metric", "nonconv",
      "--svg", "p.svg"], "--config", "missing.json"),
    (["run", "--config", "exp.json", "--out", "runs"], "--out", "runs is a directory"),
    (["run", "--config", "exp.json", "--out", "missing/s.jsonl"], "--out", "no directory"),
    (["run", "--config", "exp.json", "--out", "list.jsonl"], "--out", "not a JSON object"),
    (["table", "--store", "runs", "--config", "exp.json", "--csv", "t.csv"],
     "--store", "Is a directory"),
    (["table", "--store", "list.jsonl", "--config", "exp.json", "--csv", "t.csv"],
     "--store", "line 2 of list.jsonl is not a JSON object"),
    (["table", "--store", "store.jsonl", "--config", "exp.json", "--csv", "runs"],
     "--csv", "runs is a directory"),
    (["table", "--store", "store.jsonl", "--config", "exp.json", "--csv", "missing/t.csv"],
     "--csv", "no directory"),
    (["profile", "--store", "runs", "--config", "exp.json", "--metric", "nonconv",
      "--svg", "p.svg"], "--store", "Is a directory"),
    (["profile", "--store", "store.jsonl", "--config", "exp.json", "--metric", "nonconv",
      "--svg", "runs"], "--svg", "runs is a directory"),
    (["profile", "--store", "store.jsonl", "--config", "exp.json", "--metric", "nonconv",
      "--svg", "p.svg"], "--store", "no usable record"),
    (["cone-experiment", "--problem", "modified_ex53_n2_m2", "--x0", "-16,-2",
      "--out", "runs"], "--out", "runs is a directory"),
    (["cone-experiment", "--problem", "modified_ex53_n2_m2", "--x0", "-16,-2",
      "--out", "missing/c.json"], "--out", "no directory"),
    (["table", "--store", "missing.jsonl", "--config", "exp.json", "--csv", "t.csv"],
     "--store", "no store at missing.jsonl"),
    (["profile", "--store", "missing.jsonl", "--config", "exp.json", "--metric", "nonconv",
      "--svg", "p.svg"], "--store", "no store at missing.jsonl"),
    (["run", "--config", "exp.json", "--out", "keyless.jsonl"], "--out",
     "line 1 of keyless.jsonl has no problem, algorithm, point_index"),
    (["table", "--store", "keyless.jsonl", "--config", "exp.json", "--csv", "t.csv"],
     "--store", "line 1 of keyless.jsonl has no problem, algorithm, point_index"),
    (["profile", "--store", "keyless.jsonl", "--config", "exp.json", "--metric", "nonconv",
      "--svg", "p.svg"], "--store", "line 1 of keyless.jsonl has no problem, algorithm, "
                                    "point_index"),
    (["table", "--store", "resultless.jsonl", "--config", "exp.json", "--csv", "t.csv"],
     "--store", "line 1 of resultless.jsonl has no converged, iterations, cpu_time, "
                "mean_step_size"),
    (["table", "--store", "listkey.jsonl", "--config", "exp.json", "--csv", "t.csv"],
     "--store", "line 1 of listkey.jsonl has problem ['dgo2_n1_m2'], not str"),
])
def test_bad_cone_or_point_is_usage_error(tmp_path, monkeypatch, args, option, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k3.json").write_text(orthant(3).to_json())
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "folder.json").mkdir()
    (tmp_path / "runs").mkdir()
    (tmp_path / "latin1.json").write_bytes('{"it_max": 5, "notes": "café"}'.encode("latin-1"))
    (tmp_path / "exp.json").write_text(json.dumps({"problem_ids": ["dgo2_n1_m2"],
                                                   "points_per_problem": 1, "it_max": 2}))
    (tmp_path / "store.jsonl").write_text("")
    (tmp_path / "list.jsonl").write_text('{"problem": "dgo2_n1_m2"}\n[1, 2]\n')
    (tmp_path / "keyless.jsonl").write_text('{"a": 1}\n')
    key = {"problem": "dgo2_n1_m2", "algorithm": "trm", "point_index": 0}
    (tmp_path / "resultless.jsonl").write_text(json.dumps(key) + "\n")
    (tmp_path / "listkey.jsonl").write_text(json.dumps(
        key | {"problem": ["dgo2_n1_m2"], "converged": True, "iterations": 3, "cpu_time": 0.5,
               "mean_step_size": 0.25}) + "\n")
    # a usage error comes before any run
    for name in ("run_matrix", "cone_experiment"):
        monkeypatch.setattr(bench, name, lambda *a, **k: pytest.fail("a run was started"))
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"'{option}'" in result.output and message in result.output



@pytest.mark.parametrize("args, option", [
    (["solve", "--problem", "dgo1_n1_m2", "--x0", "1", "--cone", "orthant:100000"], "--cone"),
    (["inspect", "--problem", "dgo1_n1_m2", "--point", "1", "--cone", "orthant:3"], "--cone"),
    (["cone-experiment", "--problem", "modified_ex53_n2_m2", "--x0", "-16,-2",
      "--cones", "k2prime,orthant:100000", "--out", "c.json"], "--cones"),
])
def test_orthant_of_another_dimension_is_never_built(tmp_path, monkeypatch, args, option):
    # orthant:M is checked against m before its M x M normals are built
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cone, "orthant", lambda m: pytest.fail(f"orthant({m}) was built"))
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"'{option}'" in result.output and "but" in result.output
