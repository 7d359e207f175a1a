import dataclasses
import json
import math

import numpy as np
import pytest

from setopt.bench import (
    EmptyProfileError,
    ExperimentConfig,
    METRICS,
    build_table,
    cone_experiment,
    emit_profile_svg,
    emit_table_csv,
    load_records,
    profile,
    record_key,
    run_matrix,
    sample_points,
)
from setopt import bench, problems, solvers
from setopt.cone import k2prime, orthant
from setopt.problems import SetValuedProblem, problem_ids, registry

from plants import BAD_BOXES

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


REFERENCE_SEEDS = [0, 7, -3, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5,
                   *(bench._problem_seed(s, pid) for s in (5, 20240801) for pid in (P1, P2))]
REFERENCE_BOXES = [registry(pid).domain_box for pid in problem_ids()] + [((-2.5,), (4.0,))]


@pytest.mark.parametrize("seed", REFERENCE_SEEDS)
def test_sample_points_is_bitwise_numpy_philox_uniform(seed):
    # the numpy.random call that sample_points replaced is its reference
    for lo, hi in REFERENCE_BOXES:
        for k in (0, 1, 6, 60):
            rng = np.random.Generator(np.random.Philox(key=seed % 2 ** 64))
            want = rng.uniform(lo, hi, size=(k, len(lo)))
            got = sample_points((lo, hi), k, seed)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("box", BAD_BOXES.values(), ids=BAD_BOXES)
def test_sample_points_needs_a_box(box):
    with pytest.raises(ValueError, match="need a box"):
        sample_points(box, 3, 7)


@pytest.mark.parametrize("n_points", [-1, 2.0, 1.5, True, "3", None])
def test_sample_points_needs_a_count(n_points):
    with pytest.raises(ValueError, match="n_points"):
        sample_points((np.zeros(2), np.ones(2)), n_points, 7)


def test_sample_points_takes_a_numpy_count_and_a_flat_box():
    box = (np.zeros(2), np.ones(2))
    assert sample_points(box, np.int64(3), 7).tobytes() == sample_points(box, 3, 7).tobytes()
    flat = sample_points(((0.0, 0.5), (1.0, 0.5)), 4, 7)
    assert np.all(flat[:, 1] == 0.5)


@pytest.mark.parametrize("seed, value", [(np.int64(5), 5), (np.uint64(5), 5), (np.int32(5), 5),
                                         (np.uint64(2 ** 64 - 1), 2 ** 64 - 1)])
def test_sample_points_takes_a_numpy_seed(seed, value):
    box = (np.zeros(3), np.ones(3))
    assert sample_points(box, 2, seed).tobytes() == sample_points(box, 2, value).tobytes()


@pytest.mark.parametrize("seed", [5.0, np.float64(5.0), True, np.bool_(False), "5", None])
def test_sample_points_needs_an_integer_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        sample_points((np.zeros(2), np.ones(2)), 2, seed)


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


def test_run_matrix_resumes_a_store_cut_short(tmp_path):
    store = tmp_path / "store.jsonl"
    config = _tiny_config()
    run_matrix(config, str(store))
    whole = store.read_bytes()
    store.write_bytes(whole[:-40])  # the last record lost its tail and newline
    records = load_records(str(store))
    assert len(records) == 5
    completed = run_matrix(config, str(store))
    assert len(completed) == 6
    lines = store.read_bytes().split(b"\n")
    assert lines[-1] == b"" and len(lines) == 7  # each record on a line of its own
    finished = load_records(str(store))
    assert finished[:5] == records
    assert [record_key(r) for r in finished] == [record_key(r) for r in _records(whole)]
    # a last record that parses but lacks its newline is kept and gets one
    five = whole[:whole.rstrip(b"\n").rfind(b"\n")]
    store.write_bytes(five)
    assert load_records(str(store)) == _records(whole)[:5]
    assert len(run_matrix(config, str(store))) == 6
    assert store.read_bytes().startswith(five + b"\n") and len(load_records(str(store))) == 6


def test_load_records_raises_on_a_bad_line_not_last(tmp_path):
    store = tmp_path / "store.jsonl"
    run_matrix(_tiny_config(), str(store))
    whole = store.read_bytes()
    first = whole.index(b"\n") + 1
    for bad in (whole[:first - 10] + whole[first - 1:],  # a cut line inside the store
                whole[:-10] + b"\n"):                    # a cut last line with its newline
        store.write_bytes(bad)
        with pytest.raises(json.JSONDecodeError):
            load_records(str(store))


def test_load_records_names_a_line_that_is_not_an_object(tmp_path):
    store = tmp_path / "store.jsonl"
    run_matrix(_tiny_config(), str(store))
    lines = store.read_text().splitlines(keepends=True)
    for bad in ("[1, 2]\n", "7\n", '"text"\n'):
        store.write_text("".join(lines[:2] + [bad] + lines[2:]))
        with pytest.raises(ValueError, match="line 3 of .* is not a JSON object"):
            load_records(str(store))


def test_load_records_names_a_record_without_its_key_fields(tmp_path):
    store = tmp_path / "store.jsonl"
    run_matrix(_tiny_config(), str(store))
    lines = store.read_text().splitlines(keepends=True)
    for name in ("problem", "algorithm", "point_index"):
        rec = json.loads(lines[1])
        del rec[name]
        store.write_text("".join(lines[:1] + [json.dumps(rec) + "\n"] + lines[2:]))
        with pytest.raises(ValueError, match=f"line 2 of .* has no {name}$"):
            load_records(str(store))
    store.write_text('{"a": 1}\n')
    with pytest.raises(ValueError, match="line 1 of .* has no problem, algorithm, point_index"):
        load_records(str(store))
    # run_matrix reads the store first: no run, and nothing appended
    with pytest.raises(ValueError, match="has no problem"):
        run_matrix(_tiny_config(), str(store))
    assert store.read_text() == '{"a": 1}\n'


def test_run_matrix_rejects_a_cone_of_another_dimension(tmp_path):
    # dgo2 maps into R^2: no run, and no failure record that a rerun would skip
    store = tmp_path / "store.jsonl"
    config = ExperimentConfig(problem_ids=("dgo2_n1_m2",), algorithms=("trm",),
                              points_per_problem=1, it_max=2)
    with pytest.raises(ValueError, match=r"R\^2, but the cone is in R\^3"):
        run_matrix(config, str(store), cone=orthant(3))
    assert not store.exists()
    run_matrix(config, str(store))
    before = store.read_bytes()
    with pytest.raises(ValueError, match=r"R\^2, but the cone is in R\^3"):
        run_matrix(config, str(store), cone=orthant(3))
    assert store.read_bytes() == before


def _records(data: bytes) -> list:
    return [json.loads(line) for line in data.splitlines()]


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
        assert rec["converged"] is False and rec["iterations"] == 0
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
    config = ExperimentConfig(problem_ids=(P1, P2), algorithms=(S1, S2, S3),
                              points_per_problem=4)
    rows = {(r["problem"], r["algorithm"]): r for r in build_table(_fixture_records(), config)}
    assert rows[P1, S1]["common_count"] == 3  # points 0, 1 and 3
    assert rows[P2, S1]["common_count"] == 0
    assert rows[P1, S1]["nonconv"] == 0.0
    assert rows[P1, S2]["nonconv"] == 1.0
    assert rows[P1, S1]["iterations"] == 2.0
    assert rows[P1, S1]["cpu_time"] == 0.125 * (1 + 2 + 4) / 3
    assert rows[P2, S1]["iterations"] is None  # empty subset
    assert rows[P1, S1]["inv_step_size"] == pytest.approx(2.0)


# the per-cell reference: every cell scans the whole store again

def _reference_common(records, problem_id, algorithms):
    by_algo = {}
    for rec in records:
        if rec["problem"] == problem_id and rec["algorithm"] in algorithms:
            by_algo.setdefault(rec["algorithm"], {})[rec["point_index"]] = rec["converged"]
    if set(by_algo) != set(algorithms):
        return []
    shared = set.intersection(*(set(v) for v in by_algo.values()))
    return sorted(i for i in shared if all(by_algo[a][i] for a in algorithms))


def _reference_cell(records, problem_id, algorithm, metric, algorithms):
    rows = [r for r in records if r["problem"] == problem_id and r["algorithm"] == algorithm]
    if metric == "nonconv":
        return float(sum(not r["converged"] for r in rows)) if rows else None
    common = _reference_common(records, problem_id, algorithms)
    if not common:
        return None
    picked = {r["point_index"]: r for r in rows if r["point_index"] in set(common)}
    if metric == "inv_step_size":
        mean_step = float(np.mean([picked[i]["mean_step_size"] for i in common]))
        return (1.0 / mean_step) if mean_step > 0.0 else None
    return float(np.mean([picked[i][metric] for i in common]))


def _reference_ratios(records, metric, config):
    algos = config.algorithms
    ratios = {algo: [] for algo in algos}
    for pid in config.problem_ids:
        t = {a: _reference_cell(records, pid, a, metric, algos) for a in algos}
        defined = [v for v in t.values() if v is not None]
        best = min(defined) if defined else None
        for a in algos:
            if t[a] is None or best is None:
                ratios[a].append(math.inf)
            elif best == 0.0:
                ratios[a].append(1.0 if t[a] == 0.0 else math.inf)
            else:
                ratios[a].append(t[a] / best)
    return ratios


def _random_store(seed):
    """Records on three problems with missing (problem, algorithm) pairs,
    missing and duplicate points, nonconvergent runs, zero step sizes,
    records of an algorithm the config leaves out, in shuffled order."""
    rng = np.random.default_rng(seed)
    records = []
    for pid in problem_ids()[:3]:
        for algo in ("sd", "cg", "trm", "max", "avg"):
            if rng.random() < 0.1:
                continue
            for i in range(8):
                for _ in range(rng.choice([0, 1, 1, 1, 1, 1, 1, 2])):
                    records.append({
                        "problem": pid, "algorithm": algo, "point_index": i, "x0": [0.0],
                        "converged": bool(rng.random() < 0.9),
                        "iterations": int(rng.integers(0, 100)),
                        "cpu_time": float(rng.exponential()),
                        "mean_step_size": float(rng.choice([0.0, 0.0, 0.25, rng.random()])),
                        "final_t": 0.0, "diagnostic": None,
                    })
    rng.shuffle(records)
    return records


@pytest.mark.parametrize("seed", range(12))
def test_table_and_profile_match_the_per_cell_reference(seed):
    records = _random_store(seed)
    config = ExperimentConfig(problem_ids=problem_ids()[:4], algorithms=("trm", "cg", "max", "avg"),
                              points_per_problem=8)
    algos = config.algorithms
    expected = [{"problem": pid, "algorithm": algo,
                 "common_count": len(_reference_common(records, pid, algos)),
                 **{m: _reference_cell(records, pid, algo, m, algos) for m in METRICS}}
                for pid in config.problem_ids for algo in algos]
    rows = build_table(records, config)
    assert rows == expected and [list(r) for r in rows] == [list(r) for r in expected]
    for metric in METRICS:
        ratios = _reference_ratios(records, metric, config)
        if all(r == math.inf for rs in ratios.values() for r in rs):
            with pytest.raises(EmptyProfileError):
                profile(records, metric, config)
            continue
        curves = profile(records, metric, config)
        assert {c.algorithm: list(c.ratios) for c in curves} == ratios


def test_profile_unknown_metric_is_a_value_error():
    config = ExperimentConfig(problem_ids=(P1, P2), algorithms=(S1, S2, S3),
                              points_per_problem=4)
    with pytest.raises(ValueError, match="unknown metric 'common_count'"):
        profile(_fixture_records(), "common_count", config)


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
    # numpy integers are taken as ints, so the config still writes as JSON
    numpy_ints = ExperimentConfig(problem_ids=("dgo1_n1_m2",), algorithms=("trm",),
                                  points_per_problem=np.int64(2), it_max=np.int32(7),
                                  rng_seed=np.uint64(5))
    assert numpy_ints.to_json() == config.to_json()
    with pytest.raises(ValueError):
        ExperimentConfig(problem_ids=("x",), points_per_problem=0)


@pytest.mark.parametrize("fields, message", [
    ({"algorithms": ("tr", "sd")}, "'tr'"),
    ({"it_max": 0}, "it_max >= 1, got 0"),
    ({"problem_ids": ("dgo1",)}, "'dgo1'"),
    ({"it_max": 2.5}, "integer it_max >= 1, got 2.5"),
    ({"points_per_problem": 1.5}, "integer points_per_problem >= 1, got 1.5"),
    ({"algorithms": ()}, "nonempty algorithms"),
    ({"algorithms": ("trm", "max", "trm")}, "algorithms with no repeats"),
    ({"problem_ids": ()}, "nonempty problem_ids"),
    ({"problem_ids": ("dgo1_n1_m2", "dgo1_n1_m2")}, "problem_ids with no repeats"),
    ({"rng_seed": 1.5}, "integer rng_seed, got 1.5"),
    ({"rng_seed": True}, "integer rng_seed, got True"),
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
    # each cloud reads F from the memo the runs filled, or evaluates the
    # point anew when no run did; either must be the single-point
    # evaluation, bit for bit
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


def _pairwise_cloud_points(x0, res):
    """The cloud points as a pairwise ``np.array_equal`` loop keeps them:
    the start, the accepted iterates and the final point, in order, each
    unless an earlier kept point equals it."""
    points = ([np.asarray(x0, float)] + [rec.x for rec in res.trace if rec.accepted]
              + [np.asarray(res.final_point)])
    seen = []
    for p in points:
        if not any(np.array_equal(p, q) for q in seen):
            seen.append(p)
    return seen


def _assert_clouds_are(clouds, seen):
    assert [np.array(c["x"]).tobytes() for c in clouds] == [p.tobytes() for p in seen]
    assert [c["phase"] for c in clouds] == (
        ["initial"] + ["intermediate"] * (len(seen) - 2) + ["final"] if len(seen) > 1
        else ["initial"])


def test_cone_experiment_clouds_match_the_pairwise_loop(monkeypatch):
    # a real run: the start is also the first accepted iterate
    x0 = np.array([-16.355461, -2.454201])
    out = cone_experiment("modified_ex53_n2_m2", x0, {"k1": orthant(2)}, it_max=5)
    for data in out["k1"].values():
        res = data["result"]
        assert np.array_equal(res.trace[0].x, x0) and res.trace[0].accepted
        _assert_clouds_are(data["clouds"], _pairwise_cloud_points(x0, res))
    # a run that revisits points, one of them as -0.0 and as 0.0
    start = np.array([-0.0, 1.0])
    path = [start, np.array([0.0, 1.0]), np.array([0.5, 1.0]), np.array([-0.0, 1.0]),
            np.array([0.5, -0.0])]

    def revisiting_run(problem, cone, x0, config, memo=None):
        trace = [solvers.IterationRecord(k=k, x=x, omega=1.0, t=-1.0, a=(1,), rho=(),
                                         accepted=k != 2, step_norm=0.0)
                 for k, x in enumerate(path)]
        return solvers.RunResult(converged=False, iterations=len(trace), wall_time=0.0,
                                 cpu_time=0.0, final_point=np.array([0.5, 0.0]), final_t=-1.0,
                                 trace=trace, algorithm=config.variant)

    monkeypatch.setattr(bench, "run", revisiting_run)
    out = cone_experiment("modified_ex53_n2_m2", start, {"k1": orthant(2)}, algorithms=("max",))
    data = out["k1"]["max"]
    seen = _pairwise_cloud_points(start, data["result"])
    assert [p.tolist() for p in seen] == [[-0.0, 1.0], [0.5, -0.0]]
    _assert_clouds_are(data["clouds"], seen)


def test_cone_experiment_evaluates_each_point_once(monkeypatch):
    # the runs under both cones share one memo, and the clouds read F from
    # it: F(x0) is evaluated once, and no cloud point is evaluated again
    x0 = np.array([-16.355461, -2.454201])
    calls, in_runs = [], []
    eval_all = SetValuedProblem.eval_all
    monkeypatch.setattr(SetValuedProblem, "eval_all",
                        lambda self, x: calls.append(np.array(x)) or eval_all(self, x))

    def counted_run(*args, **kwargs):
        before = len(calls)
        res = solvers.run(*args, **kwargs)
        in_runs.append(len(calls) - before)
        return res

    monkeypatch.setattr(bench, "run", counted_run)
    out = cone_experiment("modified_ex53_n2_m2", x0, {"k1": orthant(2), "k2prime": k2prime()},
                          it_max=5)
    assert len(in_runs) == 4 and sum(in_runs) == len(calls)
    assert sum(x.tobytes() == x0.tobytes() for x in calls) == 1
    assert all(len(d["clouds"]) > 2 for per_algo in out.values() for d in per_algo.values())


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
                                {"k1": orthant(2), "k2prime": k2prime()}, it_max=10)
        shared_steps = (sum(r["shared_steps"] for r in records),
                        sum(d["result"].shared_steps for per_algo in cones.values()
                            for d in per_algo.values()))
        cones = {(name, algo): (_exact(dataclasses.replace(d["result"],
                                                           **{f: None for f in _OWN})),
                                _exact(d["clouds"]))
                 for name, per_algo in cones.items() for algo, d in per_algo.items()}
        records = [{k: v for k, v in r.items() if k not in _OWN} for r in records]
        out[share] = (records, cones, runs, shared_steps)
    assert len(out[True][2]) == 4 * 2 * 5 + 2 * 2
    assert out[True][:3] == out[False][:3]
    assert min(out[True][3]) > 0 and max(out[False][3]) == 0
    assert sum(len(events) for _, _, events in out[True][2]) >= 100


def test_cone_experiment_differentiates_each_point_once(monkeypatch):
    # the runs under both cones share one memo per start, so a point that
    # runs under either cone step from is differentiated once
    points = []
    original = problems.derivatives_all
    monkeypatch.setattr(problems, "derivatives_all",
                        lambda problem, x: points.append(x.tobytes()) or original(problem, x))
    x0 = np.array([-16.355461, -2.454201])
    cones = {"k1": orthant(2), "k2prime": k2prime()}
    out = cone_experiment("modified_ex53_n2_m2", x0, cones, it_max=10)
    assert len(points) == len(set(points)) and x0.tobytes() in points
    # the runs under each cone step from x0, so without the memo it would be twice
    stepped = [{r.x.tobytes() for d in per_algo.values() for r in d["result"].trace}
               for per_algo in out.values()]
    assert x0.tobytes() in stepped[0] & stepped[1]
