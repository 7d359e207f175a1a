"""Benchmark harness: run matrix, metric tables, performance profiles.

Runs a set of algorithms from shared sampled initial points, persists one
JSON-lines record per (problem, algorithm, point), and turns the records
into Table-style metrics and Dolan-More profile curves.  The record store
is append-only and resumable: existing keys are skipped on rerun, and a
last record cut short by a killed writer is run again.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .cone import Cone, orthant
from .problems import UnknownProblemError, checked_box, checked_integer, registry
from .solvers import RunResult, SolverConfig, StepMemo, run
from .subproblem import _first_of_each

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
        """Reject a config ``run_matrix`` could not run or the tables could
        not read, before any run: ``problem_ids`` and ``algorithms`` must be
        nonempty with no repeats, ``points_per_problem`` >= 1, ``it_max`` >= 1
        and ``rng_seed`` integers (``checked_integer``), every algorithm
        valid for ``SolverConfig`` and every problem id registered (ValueError)."""
        object.__setattr__(self, "problem_ids", tuple(self.problem_ids))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        for name in ("problem_ids", "algorithms"):
            items = getattr(self, name)
            if not items or len(set(items)) != len(items):
                raise ValueError(f"need a nonempty {name} with no repeats, got {items!r}")
        for name, least in (("points_per_problem", 1), ("it_max", 1), ("rng_seed", None)):
            object.__setattr__(self, name, checked_integer(getattr(self, name), name, least))
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


_MASK64 = 2 ** 64 - 1
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def _philox_words(key: int, n_words: int) -> list:
    """The first ``n_words`` 64-bit outputs of Philox4x64-10 (Salmon et al.
    2011) under the key (key, 0), as ``np.random.Philox(key=key)`` gives
    them: the counter (c, 0, 0, 0) runs from c = 1, one 4-word block each."""
    words = []
    for counter in range(1, (n_words + 3) // 4 + 1):
        c0, c1, c2, c3, k0, k1 = counter, 0, 0, 0, key, 0
        for _ in range(10):
            p0, p2 = _PHILOX_M0 * c0, _PHILOX_M1 * c2
            c0, c1, c2, c3 = (p2 >> 64) ^ c1 ^ k0, p2 & _MASK64, (p0 >> 64) ^ c3 ^ k1, p0 & _MASK64
            k0, k1 = (k0 + _PHILOX_W0) & _MASK64, (k1 + _PHILOX_W1) & _MASK64
        words += (c0, c1, c2, c3)
    return words[:n_words]


def sample_points(box, n_points: int, seed: int) -> np.ndarray:
    """``n_points`` uniform samples of the box, (n_points, n), seed-stable:
    point i is the same in every longer draw.

    Bit for bit ``np.random.Generator(np.random.Philox(key=seed %
    2**64)).uniform(lo, hi, size=(n_points, n))``, without numpy.random,
    whose distribution algorithms numpy does not hold fixed: entry j of
    each row, in C order, is lo_j + (hi_j - lo_j) u with u = (w >> 11) 2^-53
    for the next Philox word w.  ``checked_box`` and ``checked_integer``
    check the box, ``n_points`` >= 0 and ``seed`` (ValueError)."""
    lo, hi = checked_box(box)
    n_points = checked_integer(n_points, "n_points", 0)
    seed = checked_integer(seed, "seed")
    lo_j, width = lo.tolist(), (hi - lo).tolist()
    n = len(lo_j)
    words = _philox_words(seed % 2 ** 64, n_points * n)
    return np.array([lo_j[i % n] + width[i % n] * ((w >> 11) * 2.0 ** -53)
                     for i, w in enumerate(words)], dtype=float).reshape(n_points, n)


_KEY_FIELDS = ("problem", "algorithm", "point_index")
# the fields that ``record_key`` and ``_cells`` read, and the JSON types they need
_READ_FIELDS = {"problem": (str,), "algorithm": (str,), "point_index": (int,),
                "converged": (bool,), "iterations": (int,), "cpu_time": (int, float),
                "mean_step_size": (int, float)}


def record_key(rec: dict) -> tuple:
    return tuple(rec[name] for name in _KEY_FIELDS)


def load_records(path: str) -> list:
    """The records of a store.  A last line that lacks its newline and does
    not parse, a record cut short by a killed writer, is dropped; a bad line
    anywhere else raises, and so does a line that parses to something other
    than a JSON object (ValueError naming the line).  Then a record without
    a field that the tables read (its key ``problem``, ``algorithm`` and
    ``point_index``, then ``converged``, ``iterations``, ``cpu_time`` and
    ``mean_step_size``), or with one of another JSON type (a true or false
    where a number belongs included), raises ValueError naming the line."""
    records = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    if line.endswith("\n"):
                        raise
                    continue
                if not isinstance(rec, dict):
                    raise ValueError(f"line {number} of {path} is not a JSON object")
                records.append((number, rec))
    for number, rec in records:
        missing = [name for name in _READ_FIELDS if name not in rec]
        if missing:
            raise ValueError(f"line {number} of {path} has no {', '.join(missing)}")
        for name, types in _READ_FIELDS.items():
            value = rec[name]
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                raise ValueError(f"line {number} of {path} has {name} {value!r}, not "
                                 f"{' or '.join(t.__name__ for t in types)}")
    return [rec for _, rec in records]


def _end_at_a_line(path: str) -> None:
    """Make the store end with a newline before records are appended: a last
    line that lacks it is given one when it parses and cut off when it does
    not, so that its key runs again on a line of its own."""
    if not os.path.exists(path):
        return
    with open(path, "rb+") as fh:
        data = fh.read()
        if data.endswith(b"\n") or not data:
            return
        start = data.rfind(b"\n") + 1
        try:
            json.loads(data[start:])
        except ValueError:
            fh.truncate(start)
        else:
            fh.write(b"\n")


def _result_record(problem_id: str, index: int, x0, res: RunResult) -> dict:
    """The store record of one run: its key and start, then ``res.summary()``."""
    return {"problem": problem_id, "point_index": index,
            "x0": np.asarray(x0).tolist()} | res.summary()


def run_matrix(config: ExperimentConfig, store_path: str, cone: Cone | None = None) -> list:
    """Fill in every missing (problem, algorithm, point) record.

    Per-run failures are recorded as nonconvergent with a diagnostic and
    never abort the matrix.  A ``cone`` in another R^m than some problem's
    image space raises ValueError before any record is written.  The runs
    from one start share one ``StepMemo``.  Returns all records (old and
    new).
    """
    records = load_records(store_path)
    have = {record_key(r) for r in records}
    jobs = []
    for pid in config.problem_ids:
        problem = registry(pid)
        kone = cone if cone is not None else orthant(problem.m)
        problem.check_cone(kone)
        points = sample_points(problem.domain_box, config.points_per_problem,
                               _problem_seed(config.rng_seed, pid))
        for idx in range(config.points_per_problem):
            for algo in config.algorithms:
                if (pid, algo, idx) not in have:
                    jobs.append((problem, kone, pid, algo, idx, points[idx]))

    new_records = []
    memo = memo_key = None
    if jobs:
        _end_at_a_line(store_path)
        with open(store_path, "a", encoding="utf-8") as fh:
            for problem, kone, pid, algo, idx, x0 in jobs:
                if (pid, idx) != memo_key:
                    memo, memo_key = StepMemo(problem), (pid, idx)
                try:
                    res = run(problem, kone, x0, SolverConfig(variant=algo, it_max=config.it_max),
                              memo=memo)
                except Exception as exc:  # noqa: BLE001 -- failures become records
                    res = RunResult(converged=False, iterations=0, wall_time=0.0,
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

def _cells(records: list, config: ExperimentConfig) -> dict:
    """Every Table-2 cell from one pass over the records, keyed by
    (problem, algorithm): ``common_count``, the number of points where
    every configured algorithm converged, then each metric of ``METRICS``.
    ``nonconv`` counts all the pair's records (None when it has none); the
    others are means over the common points, read from each point's last
    record, and None when there are none (``inv_step_size`` also when the
    mean step is not positive)."""
    pairs = {(pid, algo): [] for pid in config.problem_ids for algo in config.algorithms}
    for rec in records:
        rows = pairs.get((rec["problem"], rec["algorithm"]))
        if rows is not None:
            rows.append(rec)
    cells = {}
    for pid in config.problem_ids:
        last = {algo: {r["point_index"]: r for r in pairs[pid, algo]}
                for algo in config.algorithms}
        common = sorted(set.intersection(*({i for i, r in by_point.items() if r["converged"]}
                                           for by_point in last.values())))
        for algo in config.algorithms:
            rows, picked = pairs[pid, algo], [last[algo][i] for i in common]
            iterations, cpu_time, step = (float(np.mean([r[key] for r in picked]))
                                          if picked else None
                                          for key in ("iterations", "cpu_time", "mean_step_size"))
            cells[pid, algo] = {
                "common_count": len(common),
                "nonconv": float(sum(not r["converged"] for r in rows)) if rows else None,
                "iterations": iterations,
                "cpu_time": cpu_time,
                "inv_step_size": 1.0 / step if picked and step > 0.0 else None,
            }
    return cells


def build_table(records: list, config: ExperimentConfig) -> list:
    """Long-format rows: one dict per (problem, algorithm) with all metrics."""
    cells = _cells(records, config)
    return [{"problem": pid, "algorithm": algo, **cells[pid, algo]}
            for pid in config.problem_ids for algo in config.algorithms]


@dataclass(frozen=True)
class ProfileCurve:
    algorithm: str
    ratios: tuple          # r_{p, s} per problem, math.inf when undefined
    points: tuple          # staircase vertices (tau, rho_s(tau))


def profile(records: list, metric: str, config: ExperimentConfig) -> list:
    """Dolan-More curves for one metric across the configured problems."""
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    algos = config.algorithms
    cells = _cells(records, config)
    t_vals = {algo: [cells[pid, algo][metric] for pid in config.problem_ids] for algo in algos}
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
    The runs under every cone share one ``StepMemo``, and each cloud reads
    F from it: only a point that no run evaluated is evaluated anew.
    """
    problem = registry(problem_id)
    if problem.m != 2:
        raise ValueError("cone experiment expects a 2-dimensional image space")
    memo = StepMemo(problem)
    out = {}
    for cone_name, cone in cones.items():
        per_algo = {}
        for algo in algorithms:
            config = SolverConfig(variant=algo, it_max=it_max)
            res = run(problem, cone, x0, config, memo=memo)
            points = np.array([x0] + [rec.x for rec in res.trace if rec.accepted]
                              + [res.final_point], dtype=float)
            # + 0.0 makes -0.0 and 0.0 one point, as value equality does
            seen = points[_first_of_each(points + 0.0)]
            ledger = memo.ledger(problem)
            clouds = []
            for pi, p in enumerate(seen):
                phase = "initial" if pi == 0 else ("final" if pi == len(seen) - 1 else "intermediate")
                clouds.append({
                    "phase": phase,
                    "x": p.tolist(),
                    "F": memo.values(p, ledger).tolist(),
                })
            per_algo[algo] = {"result": res, "clouds": clouds}
        out[cone_name] = per_algo
    return out
