import dataclasses
import json
import math

import numpy as np
import pytest

from setopt.bench import (
    EmptyProfileError,
    ExperimentConfig,
    build_table,
    common_convergent,
    cone_experiment,
    emit_profile_svg,
    emit_table_csv,
    load_records,
    metric_value,
    profile,
    run_matrix,
    sample_points,
)
from setopt import bench, solvers
from setopt.cone import k2prime, orthant
from setopt.problems import problem_ids, registry

# the hand-made records name any registered ids and variants: ExperimentConfig accepts no others
P1, P2 = problem_ids()[:2]
S1, S2, S3 = "trm", "max", "avg"


def test_sample_points_contract():
    box = (np.zeros(2), np.ones(2))
    assert sample_points(box, 0, 7).shape == (0, 2)
    pts = sample_points(box, 50, 7)
    assert np.all(pts >= 0.0) and np.all(pts <= 1.0)
    again = sample_points(box, 50, 7)
    assert pts.tobytes() == again.tobytes()
    other = sample_points(box, 50, 8)
    assert pts.tobytes() != other.tobytes()
    # a longer draw starts with the same prefix, so point i is stable
    longer = sample_points(box, 60, 7)
    assert np.array_equal(longer[:50], pts)


def _tiny_config():
    return ExperimentConfig(problem_ids=("dgo2_n1_m2",), algorithms=("trm", "max"),
                            points_per_problem=3, it_max=5, rng_seed=99)


def test_run_matrix_counts_and_resume(tmp_path):
    store = str(tmp_path / "store.jsonl")
    config = _tiny_config()
    records = run_matrix(config, store)
    assert len(records) == 6
    n_lines = len(load_records(store))
    assert n_lines == 6
    again = run_matrix(config, store)
    assert len(again) == 6
    assert len(load_records(store)) == 6  # rerun computed nothing new


def test_run_matrix_completes_partial_store(tmp_path):
    store = str(tmp_path / "store.jsonl")
    config = _tiny_config()
    run_matrix(config, store)
    records = load_records(store)
    with open(store, "w", encoding="utf-8") as fh:
        for rec in records[:2]:
            fh.write(json.dumps(rec) + "\n")
    completed = run_matrix(config, store)
    assert len(completed) == 6
    finished = load_records(store)
    assert len(finished) == 6
    keys = {(r["problem"], r["algorithm"], r["point_index"]) for r in finished}
    assert len(keys) == 6


def test_run_matrix_records_a_raising_run(tmp_path, monkeypatch):
    import setopt.bench as bench

    config = _tiny_config()
    ok = run_matrix(config, str(tmp_path / "ok.jsonl"))

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(bench, "run", boom)
    failed = run_matrix(config, str(tmp_path / "failed.jsonl"))
    assert [list(r) for r in failed] == [list(r) for r in ok]
    for rec, good in zip(failed, ok):
        assert rec["x0"] == good["x0"] and rec["point_index"] == good["point_index"]
        assert rec["converged"] is False and rec["iterations"] == config.it_max
        assert rec["cpu_time"] == 0.0 and rec["mean_step_size"] == 0.0
        assert rec["final_t"] is None and rec["diagnostic"] == "RuntimeError: boom"


def test_run_matrix_records_are_run_summaries(tmp_path, monkeypatch):
    # ok or failed, a record is its key and start, then the run's summary()
    results = []

    def run_or_raise(problem, cone, x0, config, memo=None):
        if config.variant == "max":
            raise RuntimeError("boom")
        results.append(solvers.run(problem, cone, x0, config, memo=memo))
        return results[-1]

    monkeypatch.setattr(bench, "run", run_or_raise)
    records = run_matrix(_tiny_config(), str(tmp_path / "store.jsonl"))
    keys = ["problem", "point_index", "x0", *results[0].summary()]
    assert len(records) == 6 and all(list(rec) == keys for rec in records)
    ok = [rec for rec in records if rec["algorithm"] == "trm"]
    assert [{k: rec[k] for k in keys[3:]} for rec in ok] == \
        [json.loads(json.dumps(res.summary())) for res in results]
    for rec in records:
        if rec["algorithm"] == "max":
            assert rec["final_point"] == rec["x0"] and rec["final_omega"] is None
            assert rec["wall_time"] == 0.0 and rec["diagnostic"] == "RuntimeError: boom"


def test_record_store_roundtrip_exact(tmp_path):
    store = str(tmp_path / "store.jsonl")
    records = run_matrix(_tiny_config(), store)
    assert load_records(store) == records


def _fixture_records():
    """3 solvers x 2 problems, 4 points each, hand-controlled convergence."""
    records = []
    conv = {
        (P1, S1): [True, True, True, True],
        (P1, S2): [True, True, False, True],
        (P1, S3): [True, True, True, True],
        (P2, S1): [False, False, False, False],
        (P2, S2): [True, True, True, True],
        (P2, S3): [True, False, True, True],
    }
    iters = {
        (P1, S1): [2, 2, 2, 2], (P1, S2): [4, 4, 4, 4], (P1, S3): [8, 8, 8, 8],
        (P2, S1): [9, 9, 9, 9], (P2, S2): [3, 3, 3, 3], (P2, S3): [6, 6, 6, 6],
    }
    for (pid, algo), flags in conv.items():
        for i, ok in enumerate(flags):
            records.append({
                "problem": pid, "algorithm": algo, "point_index": i,
                "x0": [0.0], "converged": ok, "iterations": iters[(pid, algo)][i],
                "cpu_time": 0.125 * (i + 1), "mean_step_size": 0.5,
                "final_t": -0.0005, "diagnostic": None,
            })
    return records


def test_common_convergent_and_metrics():
    records = _fixture_records()
    algos = (S1, S2, S3)
    assert common_convergent(records, P1, algos) == [0, 1, 3]
    assert common_convergent(records, P2, algos) == []
    assert metric_value(records, P1, S1, "nonconv", algos) == 0.0
    assert metric_value(records, P1, S2, "nonconv", algos) == 1.0
    assert metric_value(records, P1, S1, "iterations", algos) == 2.0
    assert metric_value(records, P2, S1, "iterations", algos) is None  # empty subset
    assert metric_value(records, P1, S1, "inv_step_size", algos) == pytest.approx(2.0)


def test_profile_single_problem_example():
    # t = {2, 4, 8}: ratios {1, 2, 4}; winner has rho(1) = 1
    records = []
    for algo, iters in [(S1, 2), (S2, 4), (S3, 8)]:
        for i in range(2):
            records.append({"problem": P1, "algorithm": algo, "point_index": i,
                            "x0": [0.0], "converged": True, "iterations": iters,
                            "cpu_time": 1.0, "mean_step_size": 1.0,
                            "final_t": 0.0, "diagnostic": None})
    config = ExperimentConfig(problem_ids=(P1,), algorithms=(S1, S2, S3),
                              points_per_problem=2)
    curves = {c.algorithm: c for c in profile(records, "iterations", config)}
    assert curves[S1].ratios == (1.0,)
    assert curves[S2].ratios == (2.0,)
    assert curves[S3].ratios == (4.0,)
    assert curves[S1].points[0] == (1.0, 1.0)
    for c in curves.values():
        rhos = [pt[1] for pt in c.points]
        assert all(0.0 <= r <= 1.0 for r in rhos)
        assert rhos == sorted(rhos)  # nondecreasing staircase
    # rho for s2 is 0 before tau = 2 and 1 afterwards
    s2 = dict(curves[S2].points)
    assert s2[1.0] == 0.0 and s2[2.0] == 1.0


def test_profile_nonconvergent_plateau():
    records = []
    for pid, ok in [(P1, True), (P2, False)]:
        for algo in (S1, S2):
            records.append({"problem": pid, "algorithm": algo, "point_index": 0,
                            "x0": [0.0], "converged": ok if algo == S1 else True,
                            "iterations": 5, "cpu_time": 1.0, "mean_step_size": 1.0,
                            "final_t": 0.0, "diagnostic": None})
    config = ExperimentConfig(problem_ids=(P1, P2), algorithms=(S1, S2),
                              points_per_problem=1)
    curves = {c.algorithm: c for c in profile(records, "iterations", config)}
    assert curves[S1].ratios[1] == math.inf
    assert curves[S1].points[-1][1] == 0.5  # plateau below 1


def test_profile_empty_metric_errors():
    records = [{"problem": P1, "algorithm": S1, "point_index": 0, "x0": [0.0],
                "converged": False, "iterations": 5, "cpu_time": 1.0,
                "mean_step_size": 1.0, "final_t": 0.0, "diagnostic": None}]
    config = ExperimentConfig(problem_ids=(P1,), algorithms=(S1,),
                              points_per_problem=1)
    with pytest.raises(EmptyProfileError):
        profile(records, "iterations", config)


def test_emit_table_csv(tmp_path):
    records = _fixture_records()
    config = ExperimentConfig(problem_ids=(P1, P2), algorithms=(S1, S2, S3),
                              points_per_problem=4)
    rows = build_table(records, config)
    path = str(tmp_path / "table.csv")
    emit_table_csv(rows, path)
    text = open(path).read().splitlines()
    assert text[0].startswith("problem,algorithm,common_count,nonconv")
    assert any(",-," in line or line.endswith("-") for line in text[1:])  # empty cells
    with pytest.raises(ValueError):
        emit_table_csv([], path)


def test_svg_emission_deterministic(tmp_path):
    records = _fixture_records()
    config = ExperimentConfig(problem_ids=(P1, P2), algorithms=(S1, S2, S3),
                              points_per_problem=4)
    curves = profile(records, "nonconv", config)
    p1, p2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    emit_profile_svg(curves, "nonconv", p1)
    emit_profile_svg(curves, "nonconv", p2)
    b1, b2 = open(p1, "rb").read(), open(p2, "rb").read()
    assert b1 == b2
    assert b1.startswith(b"<svg")
    with pytest.raises(ValueError):
        emit_profile_svg([], "nonconv", str(tmp_path / "c.svg"))


def test_experiment_config_json_roundtrip():
    config = ExperimentConfig(problem_ids=("dgo1_n1_m2",), algorithms=("trm",),
                              points_per_problem=2, it_max=7, rng_seed=5)
    again = ExperimentConfig.from_json(config.to_json())
    assert again == config
    with pytest.raises(ValueError):
        ExperimentConfig(problem_ids=("x",), points_per_problem=0)


@pytest.mark.parametrize("fields, message", [
    ({"algorithms": ("tr", "sd")}, "'tr'"),
    ({"it_max": 0}, "it_max >= 1, got 0"),
    ({"problem_ids": ("dgo1",)}, "'dgo1'"),
    ({"it_max": 2.5}, "integer it_max >= 1, got 2.5"),
    ({"points_per_problem": 1.5}, "integer points_per_problem >= 1, got 1.5"),
])
def test_experiment_config_rejects_what_run_matrix_cannot_run(fields, message):
    # checked up front, so run_matrix never stores a failure record for it
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**{"problem_ids": ("dgo1_n1_m2",), **fields})


def test_cone_experiment_critical_start_single_cloud():
    # the box-edge point is critical for the step subproblem: run stops at once
    out = cone_experiment("modified_ex53_n2_m2", np.array([-20.0, -2.45622076]),
                          {"orthant": orthant(2)}, it_max=10, algorithms=("max",))
    clouds = out["orthant"]["max"]["clouds"]
    assert len(clouds) == 1 and clouds[0]["phase"] == "initial"
    assert out["orthant"]["max"]["result"].iterations == 0


def test_cone_experiment_shape():
    out = cone_experiment("modified_ex53_n2_m2", np.array([-16.355461, -2.454201]),
                          {"k1": orthant(2), "k2prime": k2prime()}, it_max=5)
    assert set(out) == {"k1", "k2prime"}
    for per_algo in out.values():
        assert set(per_algo) == {"max", "avg"}
        for data in per_algo.values():
            assert data["clouds"][0]["phase"] == "initial"
            assert np.asarray(data["clouds"][0]["F"]).shape == (100, 2)


def test_cone_experiment_clouds_are_each_point():
    # the clouds come from one batched eval_all call; each must be the
    # single-point evaluation, bit for bit
    problem = registry("modified_ex53_n2_m2")
    out = cone_experiment("modified_ex53_n2_m2", np.array([-16.355461, -2.454201]),
                          {"k1": orthant(2), "k2prime": k2prime()}, it_max=5)
    sizes = []
    for per_algo in out.values():
        for data in per_algo.values():
            clouds = data["clouds"]
            sizes.append(len(clouds))
            for cloud in clouds:
                single = problem.eval_all(np.array(cloud["x"]))
                assert np.array(cloud["F"]).tobytes() == single.tobytes()
    assert max(sizes) > 2


# -- runs from one start share a memo -----------------------------------------

def _exact(obj):
    """A comparable form of a result, record or observer event that keeps
    every array's bytes and every float's bits."""
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            (f.name, _exact(getattr(obj, f.name))) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return tuple((k, _exact(v)) for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        return tuple(_exact(v) for v in obj)
    if isinstance(obj, float):
        return float(obj).hex()
    return obj


# what a run's own cost and its share of a memo may change
_OWN = ("wall_time", "cpu_time", "shared_steps")


def _capture_runs(monkeypatch, share):
    """Patch ``bench.run`` to keep each run's result and observer events;
    with ``share`` False every run gets a fresh memo."""
    runs = []

    def capture(problem, cone, x0, config, memo=None):
        events = []
        res = solvers.run(problem, cone, x0, config, observer=lambda e: events.append(_exact(e)),
                          memo=memo if share else None)
        result = dataclasses.replace(res, **{f: None for f in _OWN})
        runs.append((config.variant, _exact(result), events))
        return res

    monkeypatch.setattr(bench, "run", capture)
    return runs


def test_shared_memo_runs_are_fresh_memo_runs(tmp_path, monkeypatch):
    config = ExperimentConfig(
        problem_ids=("dgo2_n1_m2", "modified_ex53_n2_m2", "zdt1_n5_m2", "fdsa_n2_m3"),
        points_per_problem=2, it_max=10, rng_seed=3)
    out = {}
    for share in (True, False):
        runs = _capture_runs(monkeypatch, share)
        records = run_matrix(config, str(tmp_path / f"{share}.jsonl"))
        cones = cone_experiment("modified_ex53_n2_m2", np.array([-16.355461, -2.454201]),
                                {"k2prime": k2prime()}, it_max=10)
        shared_steps = (sum(r["shared_steps"] for r in records),
                        sum(d["result"].shared_steps for d in cones["k2prime"].values()))
        cones = {algo: (_exact(dataclasses.replace(d["result"], **{f: None for f in _OWN})),
                        _exact(d["clouds"])) for algo, d in cones["k2prime"].items()}
        records = [{k: v for k, v in r.items() if k not in _OWN} for r in records]
        out[share] = (records, cones, runs, shared_steps)
    assert len(out[True][2]) == 4 * 2 * 5 + 2
    assert out[True][:3] == out[False][:3]
    assert min(out[True][3]) > 0 and max(out[False][3]) == 0
    assert sum(len(events) for _, _, events in out[True][2]) >= 100
