"""``tools/bench_pairs.py`` summarises alternating parent/change benchmark
runs: its seed ranges, and per metric the medians, inclusive quartiles,
the parent's spread and the pairs the change won."""

import importlib
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"

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
