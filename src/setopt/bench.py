"""Benchmark harness: run matrix, metric tables, performance profiles.

Runs a set of algorithms from shared sampled initial points, persists one
JSON-lines record per (problem, algorithm, point), and turns the records
into Table-style metrics and Dolan-More profile curves.  The record store
is append-only and resumable: existing keys are skipped on rerun.
"""

from __future__ import annotations

import hashlib
import json
import os
import math
from dataclasses import asdict, dataclass

import numpy as np

from .cone import Cone, orthant
from .problems import UnknownProblemError, registry
from .solvers import RunResult, SolverConfig, StepMemo, run

METRICS = ("nonconv", "iterations", "cpu_time", "inv_step_size")


class EmptyProfileError(ValueError):
    """No algorithm has a defined value for the requested metric."""


@dataclass(frozen=True)
class ExperimentConfig:
    problem_ids: tuple
    algorithms: tuple = ("sd", "cg", "trm", "max", "avg")
    points_per_problem: int = 20
    it_max: int = 100
    rng_seed: int = 20240801

    def __post_init__(self):
        """Reject a config ``run_matrix`` could not run, before any run:
        ``points_per_problem`` must be an integer >= 1, every algorithm and
        ``it_max`` must pass ``SolverConfig``'s checks and every problem id
        must be registered (ValueError)."""
        object.__setattr__(self, "problem_ids", tuple(self.problem_ids))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not (type(self.points_per_problem) is int and 1 <= self.points_per_problem):
            raise ValueError(f"need an integer points_per_problem >= 1, "
                             f"got {self.points_per_problem!r}")
        for algo in self.algorithms:
            SolverConfig(variant=algo, it_max=self.it_max)
        for pid in self.problem_ids:
            try:
                registry(pid)
            except UnknownProblemError as exc:
                raise ValueError(exc.args[0]) from None

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        data = json.loads(text)
        return ExperimentConfig(**data)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def _problem_seed(seed: int, problem_id: str) -> int:
    digest = hashlib.sha256(f"{seed}:{problem_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def sample_points(box, n_points: int, seed: int) -> np.ndarray:
    """Uniform box samples from a counter-based generator; seed-stable."""
    lo, hi = np.asarray(box[0], float), np.asarray(box[1], float)
    rng = np.random.Generator(np.random.Philox(key=seed % (2 ** 64)))
    return rng.uniform(lo, hi, size=(n_points, lo.size))


def record_key(rec: dict) -> tuple:
    return (rec["problem"], rec["algorithm"], rec["point_index"])


def load_records(path: str) -> list:
    records = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    return records


def _result_record(problem_id: str, index: int, x0, res: RunResult) -> dict:
    """The store record of one run: its key and start, then ``res.summary()``."""
    return {"problem": problem_id, "point_index": index,
            "x0": np.asarray(x0).tolist()} | res.summary()


def run_matrix(config: ExperimentConfig, store_path: str, cone: Cone | None = None) -> list:
    """Fill in every missing (problem, algorithm, point) record.

    Per-run failures are recorded as nonconvergent with a diagnostic and
    never abort the matrix.  The runs from one start share one ``StepMemo``.
    Returns all records (old and new).
    """
    records = load_records(store_path)
    have = {record_key(r) for r in records}
    jobs = []
    for pid in config.problem_ids:
        problem = registry(pid)
        kone = cone if cone is not None else orthant(problem.m)
        points = sample_points(problem.domain_box, config.points_per_problem,
                               _problem_seed(config.rng_seed, pid))
        for idx in range(config.points_per_problem):
            for algo in config.algorithms:
                if (pid, algo, idx) not in have:
                    jobs.append((problem, kone, pid, algo, idx, points[idx]))

    new_records = []
    memo = memo_key = None
    if jobs:
        with open(store_path, "a", encoding="utf-8") as fh:
            for problem, kone, pid, algo, idx, x0 in jobs:
                if (pid, idx) != memo_key:
                    memo, memo_key = StepMemo(problem, kone), (pid, idx)
                try:
                    res = run(problem, kone, x0, SolverConfig(variant=algo, it_max=config.it_max),
                              memo=memo)
                except Exception as exc:  # noqa: BLE001 -- failures become records
                    res = RunResult(converged=False, iterations=config.it_max, wall_time=0.0,
                                    cpu_time=0.0, final_point=x0, final_t=float("nan"),
                                    trace=[], algorithm=algo,
                                    diagnostic=f"{type(exc).__name__}: {exc}")
                rec = _result_record(pid, idx, x0, res)
                fh.write(json.dumps(rec) + "\n")
                fh.flush()
                new_records.append(rec)
    return records + new_records


# ---------------------------------------------------------------------------
# metrics

def common_convergent(records: list, problem_id: str, algorithms) -> list:
    """Point indices where every listed algorithm converged."""
    by_algo = {}
    for rec in records:
        if rec["problem"] == problem_id and rec["algorithm"] in algorithms:
            by_algo.setdefault(rec["algorithm"], {})[rec["point_index"]] = rec["converged"]
    if set(by_algo) != set(algorithms):
        return []
    shared = set.intersection(*(set(v) for v in by_algo.values()))
    return sorted(i for i in shared if all(by_algo[a][i] for a in algorithms))


def metric_value(records: list, problem_id: str, algorithm: str, metric: str,
                 algorithms) -> float | None:
    """Table-style cell: nonconv count, or a common-convergent mean."""
    rows = [r for r in records
            if r["problem"] == problem_id and r["algorithm"] == algorithm]
    if metric == "nonconv":
        return float(sum(not r["converged"] for r in rows)) if rows else None
    common = common_convergent(records, problem_id, algorithms)
    if not common:
        return None
    picked = {r["point_index"]: r for r in rows if r["point_index"] in set(common)}
    if len(picked) != len(common):
        return None
    if metric == "iterations":
        return float(np.mean([picked[i]["iterations"] for i in common]))
    if metric == "cpu_time":
        return float(np.mean([picked[i]["cpu_time"] for i in common]))
    if metric == "inv_step_size":
        mean_step = float(np.mean([picked[i]["mean_step_size"] for i in common]))
        return (1.0 / mean_step) if mean_step > 0.0 else None
    raise ValueError(f"unknown metric {metric!r}")


def build_table(records: list, config: ExperimentConfig) -> list:
    """Long-format rows: one dict per (problem, algorithm) with all metrics."""
    rows = []
    for pid in config.problem_ids:
        common = common_convergent(records, pid, config.algorithms)
        for algo in config.algorithms:
            row = {"problem": pid, "algorithm": algo, "common_count": len(common)}
            for metric in METRICS:
                row[metric] = metric_value(records, pid, algo, metric, config.algorithms)
            rows.append(row)
    return rows


@dataclass(frozen=True)
class ProfileCurve:
    algorithm: str
    ratios: tuple          # r_{p, s} per problem, math.inf when undefined
    points: tuple          # staircase vertices (tau, rho_s(tau))


def profile(records: list, metric: str, config: ExperimentConfig) -> list:
    """Dolan-More curves for one metric across the configured problems."""
    algos = config.algorithms
    t_vals = {algo: [] for algo in algos}
    for pid in config.problem_ids:
        for algo in algos:
            t_vals[algo].append(metric_value(records, pid, algo, metric, algos))
    n_problems = len(config.problem_ids)
    ratios = {algo: [] for algo in algos}
    any_defined = False
    for p in range(n_problems):
        defined = [t_vals[a][p] for a in algos if t_vals[a][p] is not None]
        best = min(defined) if defined else None
        for algo in algos:
            t = t_vals[algo][p]
            if t is None or best is None:
                ratios[algo].append(math.inf)
                continue
            any_defined = True
            if best == 0.0:
                ratios[algo].append(1.0 if t == 0.0 else math.inf)
            else:
                ratios[algo].append(t / best)
    if not any_defined:
        raise EmptyProfileError(f"metric {metric!r} undefined for every problem")
    taus = sorted({r for rs in ratios.values() for r in rs if math.isfinite(r)})
    curves = []
    for algo in algos:
        rs = ratios[algo]
        pts = [(tau, sum(r <= tau for r in rs) / n_problems) for tau in taus]
        curves.append(ProfileCurve(algorithm=algo, ratios=tuple(rs), points=tuple(pts)))
    return curves


# ---------------------------------------------------------------------------
# emission

_CSV_COLUMNS = ("problem", "algorithm", "common_count", "nonconv", "iterations",
                "cpu_time", "inv_step_size")


def emit_table_csv(rows: list, path: str) -> None:
    """Table rows as CSV; undefined cells are written as '-'."""
    if not rows:
        raise ValueError("no table rows to emit")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_CSV_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for col in _CSV_COLUMNS:
                val = row.get(col)
                cells.append("-" if val is None else (repr(val) if isinstance(val, float) else str(val)))
            fh.write(",".join(cells) + "\n")


_PALETTE = ("#1b6ca8", "#d1495b", "#3d8f5f", "#8e6bbf", "#c98a1f", "#4f4f4f")


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".")


def emit_profile_svg(curves: list, metric: str, path: str) -> None:
    """Staircase plot on a log2 tau axis; byte-deterministic for fixed input."""
    if not curves:
        raise ValueError("no curves to emit")
    width, height = 640, 420
    ml, mr, mt, mb = 60, 160, 30, 50
    pw, ph = width - ml - mr, height - mt - mb
    finite = [r for c in curves for r in c.ratios if math.isfinite(r) and r > 0.0]
    max_log = max(1.0, max(math.log2(r) for r in finite) if finite else 1.0)

    def sx(tau: float) -> float:
        return ml + pw * min(math.log2(max(tau, 1.0)), max_log) / max_log

    def sy(rho: float) -> float:
        return mt + ph * (1.0 - rho)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{ml + pw / 2}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">log2(tau) -- {metric}</text>',
        f'<text x="16" y="{mt + ph / 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 16 {mt + ph / 2})">fraction of problems</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="#000"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="#000"/>',
    ]
    for tick in range(int(max_log) + 1):
        x = ml + pw * tick / max_log
        parts.append(f'<line x1="{_fmt(x)}" y1="{mt + ph}" x2="{_fmt(x)}" y2="{mt + ph + 5}" stroke="#000"/>')
        parts.append(f'<text x="{_fmt(x)}" y="{mt + ph + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tick}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(f'<line x1="{ml - 5}" y1="{_fmt(y)}" x2="{ml}" y2="{_fmt(y)}" stroke="#000"/>')
        parts.append(f'<text x="{ml - 9}" y="{_fmt(y + 4)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(frac)}</text>')
    for ci, curve in enumerate(curves):
        color = _PALETTE[ci % len(_PALETTE)]
        pts = list(curve.points)
        d = [f"M {_fmt(sx(1.0))} {_fmt(sy(0.0))}"]
        last_rho = 0.0
        for tau, rho in pts:
            d.append(f"L {_fmt(sx(tau))} {_fmt(sy(last_rho))}")
            d.append(f"L {_fmt(sx(tau))} {_fmt(sy(rho))}")
            last_rho = rho
        d.append(f"L {_fmt(ml + pw)} {_fmt(sy(last_rho))}")
        parts.append(f'<path d="{" ".join(d)}" fill="none" stroke="{color}" stroke-width="2"/>')
        ly = mt + 18 + 18 * ci
        parts.append(f'<line x1="{ml + pw + 12}" y1="{ly - 4}" x2="{ml + pw + 36}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{ml + pw + 42}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{curve.algorithm}</text>')
    parts.append("</svg>")
    data = "\n".join(parts) + "\n"
    with open(path, "wb") as fh:
        fh.write(data.encode("utf-8"))


# ---------------------------------------------------------------------------
# ordering-cone experiment

def cone_experiment(problem_id: str, x0, cones: dict, it_max: int = 100,
                    algorithms=("max", "avg")) -> dict:
    """Run the non-monotone variants under each cone from one start.

    Returns, per cone and algorithm, the run result plus the family value
    clouds at the initial, intermediate (accepted), and final iterates.
    The runs under one cone share one ``StepMemo``.
    """
    problem = registry(problem_id)
    if problem.m != 2:
        raise ValueError("cone experiment expects a 2-dimensional image space")
    out = {}
    for cone_name, cone in cones.items():
        per_algo = {}
        memo = StepMemo(problem, cone)
        for algo in algorithms:
            config = SolverConfig(variant=algo, it_max=it_max)
            res = run(problem, cone, x0, config, memo=memo)
            iterates = [rec.x for rec in res.trace if rec.accepted]
            points = [np.asarray(x0, float)] + iterates + [np.asarray(res.final_point)]
            seen = []
            for p in points:
                if not any(np.array_equal(p, q) for q in seen):
                    seen.append(p)
            values = problem.eval_all(np.array(seen))
            clouds = []
            for pi, p in enumerate(seen):
                phase = "initial" if pi == 0 else ("final" if pi == len(seen) - 1 else "intermediate")
                clouds.append({
                    "phase": phase,
                    "x": p.tolist(),
                    "F": values[pi].tolist(),
                })
            per_algo[algo] = {"result": res, "clouds": clouds}
        out[cone_name] = per_algo
    return out
