"""Alternating parent/change pairs of perfbench runs, summarised per metric.

    python tools/bench_pairs.py PARENT CHANGE --seeds 901-910 \
        [--workloads cone_fig1,tr_table2] [--out pairs.json]

PARENT and CHANGE are the roots of two checkouts.  For every seed and every
workload of ``BENCHMARK.json`` (or those ``--workloads`` names) the script
runs its ``command`` with ``--trace 0`` for its ``run_seconds`` once in
each, and the side that runs first alternates from one (seed, workload) to
the next, and for one workload from one seed to the next.  A seed may be
repeated (``--seeds 2701,2701,2701``) to time one set of starts again and
again.  perfbench itself is only called, never changed.

For each workload and end-to-end metric it prints both sides' medians and
quartiles, the parent's quartile spread as a percentage of its median, the
change in the median in percent, the median and quartiles of the per-pair
change (change over parent minus 1, in percent; pairs whose parent value is
0 are left out), and the pairs the change won (ties count for neither
side); better and bound come from ``BENCHMARK.json``.  Its verdict is
*gain* when the change won at least 9 of every 10 pairs and its median is
better than the parent's by more than the parent's quartile spread,
*worse* when its median is worse than the parent's by more than the bound,
and *within noise* otherwise.  The per-pair change
sets a gain against the noise between the two runs of a pair, where the
parent's spread also holds how much the workload changes from seed to
seed.  It also says whether the two sides left byte-identical run digests
in ``.perfbench/digests`` for each seed.  ``--out`` writes every run and
the summary as JSON.

``digests_path`` names the file that ``stored_digests`` in
``perfbench/run.py`` writes (the jobs id that perfbench prints, and a hash
of ``src``'s Python files); a missing file is an error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def seed_list(text: str) -> list:
    """``901-910`` or ``901,905,907`` (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def quartiles(vals: list) -> list:
    """The inclusive first and third quartiles; one value is both."""
    if len(vals) < 2:
        return list(vals) * 2
    return statistics.quantiles(vals, n=4, method="inclusive")[::2]


def digests_path(root: Path, workload: str, seed: int, jobs_id: str) -> Path:
    """The file in which perfbench stores the run digests of one workload
    and seed, for the jobs id it printed and the code under ``root/src``."""
    code = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        code.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return (root / ".perfbench" / "digests" /
            f"{workload}-seed{seed}-{jobs_id}-{code.hexdigest()[:12]}.json")


def perfbench(root: Path, spec: dict, workload: str, seed: int) -> tuple:
    """The JSON object on the last stdout line of one ``--trace 0`` run,
    and the file that holds the run digests it stored or compared with."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    jobs = re.search(r" jobs=(\S+)", lines[0]) if lines else None
    if jobs is None or not lines[-1].startswith("{"):
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {out.returncode}: {out.stderr}")
    digests = digests_path(root, workload, seed, jobs[1])
    if not digests.is_file():
        raise FileNotFoundError(f"{root}: perfbench stored no run digests at {digests}")
    return json.loads(lines[-1]), digests


def summarise(runs: list, spec: dict) -> dict:
    """Per workload and metric: medians, quartiles, % change, per-pair
    change/parent ratios, pairs won and the verdict."""
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == workload]
        summary[workload] = {}
        for metric in spec["end_to_end"]:
            name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
            vals = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
            med = {side: statistics.median(vals[side]) for side in SIDES}
            quart = {side: quartiles(vals[side]) for side in SIDES}
            ratios = [c / p for p, c in zip(vals["parent"], vals["change"]) if p]
            base = med["parent"]
            spread = quart["parent"][1] - quart["parent"][0]
            won = sum(sign * (c - p) < 0.0 for p, c in zip(vals["parent"], vals["change"]))
            change_pct = 100.0 * (med["change"] / base - 1.0) if base else 0.0
            if 10 * won >= 9 * len(pairs) and sign * (base - med["change"]) > spread:
                verdict = "gain"
            elif sign * change_pct > 100.0 * metric["bound"]:
                verdict = "worse"
            else:
                verdict = "within noise"
            summary[workload][name] = {
                "parent_median": base,
                "parent_quartiles": quart["parent"],
                "change_median": med["change"],
                "change_quartiles": quart["change"],
                "change_pct": change_pct,
                "parent_iqr_pct": 100.0 * spread / base if base else 0.0,
                "pair_ratio_median": statistics.median(ratios) if ratios else None,
                "pair_ratio_quartiles": quartiles(ratios) if ratios else None,
                "change_better_pairs": won,
                "pairs": len(pairs),
                "bound_pct": 100.0 * metric["bound"],
                "verdict": verdict,
            }
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seeds", type=seed_list, required=True)
    ap.add_argument("--workloads", type=lambda text: text.split(","),
                    help="comma-separated workload names (default: all)")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    unknown = set(args.workloads or ()) - set(workloads)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)}; BENCHMARK.json has {workloads}")
    workloads = [w for w in workloads if args.workloads is None or w in args.workloads]

    runs = []
    for i, seed in enumerate(args.seeds):
        for j, workload in enumerate(workloads):
            order = SIDES if (i + j) % 2 == 0 else SIDES[::-1]
            pair = {"workload": workload, "seed": seed, "first": order[0]}
            files = {}
            for side in order:
                pair[side], files[side] = perfbench(roots[side], spec, workload, seed)
            pair["digests_equal"] = files["parent"].read_bytes() == files["change"].read_bytes()
            runs.append(pair)
            print(f"seed {seed} {workload}: first {order[0]}, correct "
                  f"{pair['parent']['correct']}/{pair['change']['correct']}, "
                  f"digests equal {pair['digests_equal']}", file=sys.stderr, flush=True)

    summary = summarise(runs, spec)
    for workload, metrics in summary.items():
        print(f"{workload} ({len([r for r in runs if r['workload'] == workload])} pairs)")
        print(f"  {'metric':<16} {'parent median [q1, q3]':>36} {'change median [q1, q3]':>36} "
              f"{'change':>8} {'p.IQR':>7} {'per-pair change [q1, q3]':>26} {'won':>5} "
              f"{'bound':>6}  verdict")
        for name, m in metrics.items():
            cells = [f"{m[f'{side}_median']:.4g} [{m[f'{side}_quartiles'][0]:.4g}, "
                     f"{m[f'{side}_quartiles'][1]:.4g}]" for side in SIDES]
            ratio = "-" if m["pair_ratio_median"] is None else (
                f"{100.0 * (m['pair_ratio_median'] - 1.0):+.1f}% ["
                + ", ".join(f"{100.0 * (q - 1.0):+.1f}" for q in m["pair_ratio_quartiles"]) + "]")
            print(f"  {name:<16} {cells[0]:>36} {cells[1]:>36} {m['change_pct']:>+7.1f}% "
                  f"{m['parent_iqr_pct']:>6.1f}% {ratio:>26} "
                  f"{m['change_better_pairs']:>2}/{m['pairs']:<2} {m['bound_pct']:>5.0f}%  "
                  f"{m['verdict']}")
        equal = [r["digests_equal"] for r in runs if r["workload"] == workload]
        print(f"  digests byte-identical in {sum(equal)} of {len(equal)} pairs")
    if args.out:
        args.out.write_text(json.dumps({"summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
