"""``tools/bench_pairs.py`` summarises alternating parent/change benchmark
runs: its seed ranges, its workload filter, and per metric the medians,
inclusive quartiles, the parent's spread, the per-pair change/parent ratios,
the pairs the change won and the verdict.  It reads the run digests from the
file that perfbench writes."""

import argparse
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"

SPEC = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25},
                       {"name": "ok_frac", "better": "higher", "bound": 0.1}]}


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("bench_pairs")


def _pair(workload, **metrics):
    """One pair of runs; each metric is given as (parent value, change value)."""
    return {"workload": workload,
            **{side: {"metrics": {name: {"value": values[i]} for name, values in metrics.items()}}
               for i, side in enumerate(("parent", "change"))}}


def test_seed_list(bench_pairs):
    assert bench_pairs.seed_list("901-903,905") == [901, 902, 903, 905]
    assert bench_pairs.seed_list("7") == [7]


def test_summarise(bench_pairs):
    wall = [(1.0, 0.5), (2.0, 2.0), (3.0, 3.5), (4.0, 3.0), (5.0, 4.0)]
    ok = [(0.8, 0.9), (0.9, 0.9), (1.0, 0.95), (0.7, 1.0), (0.9, 0.95)]
    runs = [_pair("a", wall_s=w, ok_frac=o) for w, o in zip(wall, ok)]
    runs.append(_pair("b", wall_s=(2.0, 1.0), ok_frac=(1.0, 1.0)))
    summary = bench_pairs.summarise(runs, SPEC)
    assert list(summary) == ["a", "b"] and list(summary["a"]) == ["wall_s", "ok_frac"]

    w = summary["a"]["wall_s"]
    assert (w["parent_median"], w["change_median"]) == (3.0, 3.0)
    # inclusive quartiles: the exclusive method gives [1.5, 4.5]
    assert w["parent_quartiles"] == [2.0, 4.0] and w["change_quartiles"] == [2.0, 3.5]
    assert w["parent_iqr_pct"] == pytest.approx(100.0 * 2.0 / 3.0)
    assert w["change_pct"] == 0.0
    # per pair, change over parent: 0.5, 1, 7/6, 0.75, 0.8
    assert w["pair_ratio_median"] == 0.8 and w["pair_ratio_quartiles"] == [0.75, 1.0]
    # lower is better: three wins, one tie that counts for neither side, one loss
    assert w["change_better_pairs"] == 3
    assert (w["pairs"], w["bound_pct"]) == (5, 25.0)

    o = summary["a"]["ok_frac"]
    assert (o["parent_median"], o["change_median"]) == (0.9, 0.95)
    assert o["parent_quartiles"] == [0.8, 0.9]
    assert o["parent_iqr_pct"] == pytest.approx(100.0 * 0.1 / 0.9)
    assert o["change_pct"] == pytest.approx(100.0 * (0.95 / 0.9 - 1.0))
    # higher is better: three wins, one tie, one loss
    assert o["change_better_pairs"] == 3
    assert o["bound_pct"] == pytest.approx(10.0)

    # one pair: its value is both quartiles; an equal pair is no win
    b = summary["b"]
    assert b["wall_s"]["parent_quartiles"] == [2.0, 2.0] and b["wall_s"]["parent_iqr_pct"] == 0.0
    assert b["wall_s"]["change_pct"] == -50.0 and b["wall_s"]["change_better_pairs"] == 1
    assert b["ok_frac"]["change_better_pairs"] == 0 and b["ok_frac"]["pairs"] == 1
    assert b["wall_s"]["pair_ratio_median"] == 0.5
    assert b["wall_s"]["pair_ratio_quartiles"] == [0.5, 0.5]


def test_verdict(bench_pairs):
    parent = [10.0 + i for i in range(10)]  # median 14.5, inclusive quartiles 12.25 and 16.75
    wall = {
        # 9/10 pairs won and the median 5 lower, beyond the parent's spread of 4.5
        "gain": [p - 5.0 for p in parent[:9]] + [parent[9] + 1.0],
        # 10/10 won, but the median only 1 lower
        "close": [p - 1.0 for p in parent],
        # the median 5 lower, but only 8/10 won
        "eight": [p - 5.0 for p in parent[:8]] + [p + 1.0 for p in parent[8:]],
        # the median 30% higher, beyond the 25% bound
        "worse": [1.3 * p for p in parent],
    }
    # higher is better: 9/10 won with no parent spread; a fall of 15% beyond the 10% bound
    ok = {"gain": [0.6] * 9 + [0.4], "close": [0.5] * 10, "eight": [0.5] * 10,
          "worse": [0.425] * 10}
    runs = [_pair(w, wall_s=(p, c), ok_frac=(0.5, o))
            for w in wall for p, c, o in zip(parent, wall[w], ok[w])]
    summary = bench_pairs.summarise(runs, SPEC)
    assert {w: summary[w]["wall_s"]["verdict"] for w in wall} == {
        "gain": "gain", "close": "within noise", "eight": "within noise", "worse": "worse"}
    assert {w: summary[w]["ok_frac"]["verdict"] for w in ok} == {
        "gain": "gain", "close": "within noise", "eight": "within noise", "worse": "worse"}
    assert summary["eight"]["wall_s"]["change_better_pairs"] == 8


def test_pair_ratios_leave_out_a_zero_parent(bench_pairs):
    runs = [_pair("a", wall_s=(0.0, 1.0), ok_frac=(0.0, 1.0)),
            _pair("a", wall_s=(2.0, 3.0), ok_frac=(0.0, 0.0))]
    summary = bench_pairs.summarise(runs, SPEC)["a"]
    assert summary["wall_s"]["pair_ratio_median"] == 1.5
    assert summary["wall_s"]["pair_ratio_quartiles"] == [1.5, 1.5]
    assert summary["ok_frac"]["pair_ratio_median"] is None
    assert summary["ok_frac"]["pair_ratio_quartiles"] is None


def _roots(tmp_path):
    spec = {"command": ["true"], "run_seconds": 1,
            "workloads": [{"name": "a"}, {"name": "b"}, {"name": "c"}], **SPEC}
    roots = [tmp_path / side for side in ("parent", "change")]
    for root in roots:
        root.mkdir()
        (root / "BENCHMARK.json").write_text(json.dumps(spec))
    return roots


def test_workloads_filter_runs_only_the_named_workloads(bench_pairs, tmp_path, monkeypatch,
                                                        capsys):
    calls = []

    def fake_perfbench(root, spec, workload, seed):
        calls.append((root.name, workload, seed))
        digests = root / f"{workload}-{seed}.json"
        digests.write_text("same")
        return {"correct": True,
                "metrics": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}}, digests

    monkeypatch.setattr(bench_pairs, "perfbench", fake_perfbench)
    parent, change = _roots(tmp_path)
    out = tmp_path / "pairs.json"
    argv = [str(parent), str(change), "--seeds", "5,5,6", "--workloads", "c,a",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    # the spec's order, a repeated seed run again; the side that runs first
    # alternates with (seed index + workload index)
    pairs = list(zip(calls[::2], calls[1::2]))
    assert [(w, s) for (_, w, s), _ in pairs] == [("a", 5), ("c", 5), ("a", 5), ("c", 5),
                                                   ("a", 6), ("c", 6)]
    assert all(first[1:] == second[1:] and first[0] != second[0] for first, second in pairs)
    assert [first[0] for first, _ in pairs] == ["parent", "change", "change", "parent",
                                               "parent", "change"]
    data = json.loads(out.read_text())
    assert list(data["summary"]) == ["a", "c"] and data["summary"]["a"]["wall_s"]["pairs"] == 3
    assert all(r["digests_equal"] for r in data["runs"])
    assert "per-pair change" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        bench_pairs.main([str(parent), str(change), "--seeds", "5", "--workloads", "a,d"])


def test_digests_path_names_the_file_perfbench_stores(bench_pairs, tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    perfbench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench_run)
    root = tmp_path / "checkout"
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "src" / "pkg" / "mod.py").write_text("X = 1\n")
    out = root / ".perfbench"
    out.mkdir()
    args = argparse.Namespace(workload="tr_table2", seed=7)
    plain = {"jobs_id": "abc123", "digests": ["d0", "d1"]}
    assert perfbench_run.stored_digests(root, out, args, plain) == []
    written = list((out / "digests").iterdir())
    assert written == [bench_pairs.digests_path(root, "tr_table2", 7, "abc123")]
    assert json.loads(written[0].read_text()) == ["d0", "d1"]
    # another source is another file
    (root / "src" / "pkg" / "mod.py").write_text("X = 2\n")
    assert not bench_pairs.digests_path(root, "tr_table2", 7, "abc123").exists()
