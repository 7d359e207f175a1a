"""One pass of a perfbench workload, in a fresh process.

``run.py`` starts this script from the checkout root with BLAS/OpenMP
pinned to one thread and ``src`` on ``PYTHONPATH``:

    python3 perfbench/worker.py --workload tr_table2 --seed 7 --seconds 20 \
        --mode plain --spawned <time.monotonic() at spawn> --out result.json

Modes: ``setup`` stops after set-up; ``plain`` runs the timed region with a
per-run timer and a calibration slice after each run and, with
``--certify``, certifies every final point afterwards; ``traced`` installs
the layer spans of ``spans.py`` instead of the calibration slices.
The result (metrics, run digests, violations, environment) is written as
JSON to ``--out``; nothing is printed on stdout.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import math
import multiprocessing
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
import setopt
from setopt import bench, cone as cone_mod, partition, problems, solvers, subproblem

import spans

FIG1_PROBLEM = "modified_ex53_n2_m2"
FIG1_START = (-16.355461, -2.454201)
FIG1_CONES = ("orthant:2", "k2prime")
FIG1_ALGORITHMS = ("max", "avg")

# Every run is capped at ``it_max`` iterations.  Iterations to convergence
# vary a lot with the start (dtlz1 1-22, dtlz3 4-33 under trm at it_max 100),
# so with the paper's 100 one start of tr_table2 took 39-77 s, depending on the
# seed.  The caps bound what one start can cost, so that a run fits in its
# time and its figures vary little from seed to seed; the work per iteration,
# which the layer metrics follow, is unchanged.  tr_table2 keeps two
# iterations, the fewest in which max and avg differ from trm.
#
# Each instance gets an equal share of --seconds, as a whole number of starts
# clamped to ``starts``: cheap instances get more starts, so certified and
# failed fractions rest on more runs, and the dearest get the minimum.
# START_COST_S is what one start of every algorithm (and cone) of the
# workload costs, measured at the commit that added the benchmark on a 2-core
# Xeon box; it is fixed, so the same seed and --seconds always give the same
# jobs.
WORKLOADS = {
    "tr_table2": dict(algorithms=("trm", "max", "avg"), it_max=2, starts=(1, 6)),
    "fo_table2": dict(algorithms=("sd", "cg"), it_max=5, starts=(3, 6)),
    "cone_fig1": dict(algorithms=FIG1_ALGORITHMS, it_max=5, starts=(1, 1000)),
}
START_COST_S = {
    "tr_table2": {
        "zdt1_n2_m2": 0.129, "zdt1_n5_m2": 0.106, "zdt1_n8_m2": 0.148, "zdt1_n10_m2": 0.176,
        "zdt4_n10_m2": 0.208, "dtlz1_n6_m4": 2.794, "dtlz3_n5_m4": 2.557,
        "dtlz5_n3_m3": 0.447, "dtlz5_n5_m3": 0.408, "dtlz5_n7_m5": 5.13, "hil_n2_m2": 0.105,
        "dgo1_n1_m2": 0.115, "dgo2_n1_m2": 0.113, "jos1a_n5_m2": 0.174, "fdsa_n2_m3": 0.023,
        "rosenbrock_n4_m3": 0.125, "brown_dennis_n4_m5": 3.667, "trigonometric_n4_m4": 2.423,
        "das_dennis_n5_m2": 0.174, "modified_ex51_n1_m2": 0.043, "modified_ex53_n2_m2": 0.191,
        "sphere_n3_m3": 0.292,
    },
    "fo_table2": {
        "zdt1_n2_m2": 0.139, "zdt1_n5_m2": 0.14, "zdt1_n8_m2": 0.15, "zdt1_n10_m2": 0.153,
        "zdt4_n10_m2": 0.144, "dtlz1_n6_m4": 0.397, "dtlz3_n5_m4": 1.099,
        "dtlz5_n3_m3": 0.269, "dtlz5_n5_m3": 0.287, "dtlz5_n7_m5": 1.114, "hil_n2_m2": 0.071,
        "dgo1_n1_m2": 0.082, "dgo2_n1_m2": 0.142, "jos1a_n5_m2": 0.147, "fdsa_n2_m3": 0.012,
        "rosenbrock_n4_m3": 0.145, "brown_dennis_n4_m5": 1.323, "trigonometric_n4_m4": 0.959,
        "das_dennis_n5_m2": 0.209, "modified_ex51_n1_m2": 0.025, "modified_ex53_n2_m2": 0.214,
        "sphere_n3_m3": 0.168,
    },
    "cone_fig1": {FIG1_PROBLEM: 0.28},
}


def starts_per_instance(workload: str, seconds: float) -> dict:
    costs = START_COST_S[workload]
    lo, hi = WORKLOADS[workload]["starts"]
    return {pid: min(hi, max(lo, round(seconds / len(costs) / cost)))
            for pid, cost in costs.items()}


_EXCEPTION_DIAGNOSTIC = re.compile(r"^\w+(Error|Failure): ")


@dataclass
class Job:
    problem: object
    cone_name: str
    cone: object
    algorithm: str
    start: int
    x0: object
    it_max: int

    def key(self) -> dict:
        return {"problem": self.problem.name, "cone": self.cone_name,
                "algorithm": self.algorithm, "start": self.start}


@dataclass
class Call:
    """One intercepted ``bench.run`` call with its wall time."""

    problem: object
    cone: object
    x0: object
    algorithm: str
    result: object
    error: BaseException | None
    wall: float


class Workload:
    """Seeded jobs of one workload and the public entry points that run them."""

    def __init__(self, name: str, seed: int, seconds: float, store_dir: Path):
        self.name = name
        self.store_dir = store_dir
        spec = WORKLOADS[name]
        self.algorithms, self.it_max = spec["algorithms"], spec["it_max"]
        self.starts_per_instance = starts_per_instance(name, seconds)
        if name == "cone_fig1":
            problem = problems.registry(FIG1_PROBLEM)
            self.cones = {c: cone_mod.preset(c) for c in FIG1_CONES}
            seeded = bench.sample_points(problem.domain_box,
                                         self.starts_per_instance[FIG1_PROBLEM],
                                         bench._problem_seed(seed, FIG1_PROBLEM))
            self.starts = [np.array(FIG1_START)] + list(seeded)
            self.jobs = [Job(problem, c, kone, a, i, x0, self.it_max)
                         for i, x0 in enumerate(self.starts)
                         for c, kone in self.cones.items() for a in self.algorithms]
            return
        self.matrix, self.jobs = {}, []
        for pid in problems.problem_ids():
            problem = problems.registry(pid)
            kone = cone_mod.orthant(problem.m)
            k = self.starts_per_instance[pid]
            points = bench.sample_points(problem.domain_box, k, bench._problem_seed(seed, pid))
            config = bench.ExperimentConfig(
                problem_ids=(pid,), algorithms=self.algorithms, points_per_problem=k,
                it_max=self.it_max, rng_seed=seed)
            self.matrix[pid] = (config, kone)
            self.jobs += [Job(problem, f"orthant:{problem.m}", kone, a, i, points[i], self.it_max)
                          for i in range(k) for a in self.algorithms]

    def run(self) -> list:
        """The timed region; returns the run_matrix records (none for cone_fig1)."""
        if self.name == "cone_fig1":
            for x0 in self.starts:
                bench.cone_experiment(FIG1_PROBLEM, x0, self.cones, it_max=self.it_max,
                                      algorithms=self.algorithms)
            return []
        records = []
        for pid, (config, kone) in self.matrix.items():
            records += bench.run_matrix(config, str(self.store_dir / f"{pid}.jsonl"), cone=kone)
        return records


_CAL_X = np.linspace(-1.0, 1.0, 300).reshape(100, 3)
_CAL_W = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.25, 0.25]])


def _kernel() -> float:
    x, acc = _CAL_X, 0.0
    for _ in range(40):
        v = x @ _CAL_W.T
        acc += float(np.max(v))
        for row in v[:8]:
            acc += float(np.max(row))
        x = np.clip(x + 1e-3 * np.sign(v[:, :3]), -1.0, 1.0)
    return acc


def calibration_slice() -> tuple:
    """Wall and CPU time of a slice; its second, warm kernel run is the sample.

    The kernel (~1.5 ms of numpy and Python) does not touch setopt, so a
    change to the program leaves it alone; it follows how fast this machine
    runs right now.  Returns (slice wall, slice CPU, warm kernel wall).
    """
    t0, c0 = time.perf_counter(), time.process_time()
    _kernel()
    t1 = time.perf_counter()
    _kernel()
    t2 = time.perf_counter()
    return t2 - t0, time.process_time() - c0, t2 - t1


class RunTimer:
    """Times every ``bench.run`` call and keeps its result (plain and traced).

    With ``calibrate``, a calibration slice follows each run; its time is
    kept apart from the runs' and later taken out of the timed region.
    """

    def __init__(self, calibrate: bool):
        self.calls: list[Call] = []
        self.calibrate = calibrate
        self.slices: list[tuple] = []

    def wrap(self, run):
        def timed_run(problem, cone, x0, config, *args, **kwargs):
            t0 = time.perf_counter()
            result, error = None, None
            try:
                result = run(problem, cone, x0, config, *args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                self.calls.append(Call(problem, cone, x0, config.variant, result, error,
                                       time.perf_counter() - t0))
                if self.calibrate:
                    self.slices.append(calibration_slice())
        return timed_run

    def calibration_s(self) -> float:
        """Mean slice time, each slice weighted by the run before it."""
        weights = [c.wall for c in self.calls]
        return sum(w * s[2] for w, s in zip(weights, self.slices)) / sum(weights)


def exception_diagnostic(result) -> bool:
    return bool(result.diagnostic) and bool(_EXCEPTION_DIAGNOSTIC.match(result.diagnostic))


def digest(job: Job, call: Call) -> dict:
    d = job.key()
    if call.result is None:
        d["raised"] = type(call.error).__name__
        return d
    res = call.result
    point = np.ascontiguousarray(res.final_point, dtype=np.float64)
    t = float(res.final_t)
    d.update(converged=bool(res.converged), iterations=int(res.iterations),
             final_t=None if math.isnan(t) else t,
             x_sha256=hashlib.sha256(point.tobytes()).hexdigest())
    return d


def jobs_id(jobs: list) -> str:
    """Short hash of the job list: same id, same jobs."""
    h = hashlib.sha256()
    for job in jobs:
        h.update(json.dumps([job.key(), job.it_max]).encode())
        h.update(np.ascontiguousarray(job.x0, dtype=np.float64).tobytes())
    return h.hexdigest()[:12]


def check_run(job: Job, call: Call, eps: float) -> list:
    """Invariant violations of one run (empty when it is sound)."""
    where = f"{job.problem.name}/{job.cone_name}/{job.algorithm}/start{job.start}"
    if (call.problem is not job.problem or call.cone is not job.cone
            or call.algorithm != job.algorithm
            or np.asarray(call.x0, float).tobytes() != np.asarray(job.x0, float).tobytes()):
        return [f"{where}: the program ran another job than the benchmark generated"]
    if call.result is None:
        return []
    res, bad = call.result, []
    lo, hi = job.problem.domain_box
    x = np.asarray(res.final_point, float)
    t = float(res.final_t)
    if not (np.all(x >= lo) and np.all(x <= hi)):
        bad.append(f"{where}: final point outside the box")
    if math.isnan(t):
        if not (res.iterations == 0 and exception_diagnostic(res)):
            bad.append(f"{where}: final_t is NaN after {res.iterations} iterations")
    elif t > 0.0:
        bad.append(f"{where}: final_t {t!r} > 0")
    if not 0 <= res.iterations <= job.it_max:
        bad.append(f"{where}: {res.iterations} iterations, it_max {job.it_max}")
    if res.converged and not abs(t) < eps:
        bad.append(f"{where}: converged with |final_t| = {abs(t)!r} >= eps")
    return bad


def check_records(jobs: list, calls: list, records: list) -> list:
    """run_matrix records must describe the intercepted runs, job by job."""
    if not records:
        return []
    if len(records) != len(jobs):
        return [f"{len(records)} store records for {len(jobs)} runs"]
    bad = []
    for job, call, rec in zip(jobs, calls, records):
        same = (rec["problem"] == job.problem.name and rec["algorithm"] == job.algorithm
                and rec["point_index"] == job.start
                and rec["x0"] == [float(v) for v in job.x0])
        if same and call.result is not None:
            same = (rec["converged"] == bool(call.result.converged)
                    and rec["iterations"] == int(call.result.iterations))
        if not same:
            bad.append(f"store record {rec['problem']}/{rec['algorithm']}/{rec['point_index']} "
                       "does not match its run")
    return bad


def certified(point: tuple) -> bool:
    """|t| < eps for the box-free subproblem at radius 1 at a final point.

    ``point`` is (problem id, cone preset, final point bytes); it runs in a
    pool process, so it rebuilds the problem and the cone by name.
    """
    pid, cone_name, x_bytes = point
    problem, kone = problems.registry(pid), cone_mod.preset(cone_name)
    x = np.frombuffer(x_bytes).copy()
    try:
        structure = partition.structure_from_values(problem.eval_all(x), kone)
        t = subproblem.criticality_value(problem, kone, x, structure, radius=1.0).t_star
    except (problems.DomainError, partition.PartitionCapError, subproblem.InnerSolveFailure):
        return False
    return abs(t) < solvers.SolverConfig().eps


def count_certified(jobs: list, calls: list) -> int:
    """Certify every distinct final point, on all cores, after the timed region."""
    points = [(j.problem.name, j.cone_name,
               np.ascontiguousarray(c.result.final_point, dtype=np.float64).tobytes())
              for j, c in zip(jobs, calls) if c.result is not None]
    distinct = sorted(set(points))
    context = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(os.cpu_count() or 1, mp_context=context) as pool:
        verdict = dict(zip(distinct, pool.map(certified, distinct)))
    return sum(verdict[p] for p in points)


def environment(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = {v: os.environ.get(v) for v in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SETOPT_THREADS")}
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}", "threads": threads,
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "plain", "traced"))
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--certify", action="store_true")
    args = ap.parse_args(argv)
    out = Path(args.out)
    src = Path.cwd() / "src"
    if not Path(setopt.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"setopt imported from {setopt.__file__}, not from {src}")
    store_dir = out.with_suffix(".store")
    workload = Workload(args.workload, args.seed, args.seconds, store_dir)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s, "env": environment(args.seed)}
    result["setup_calibration_s"] = statistics.mean(calibration_slice()[2] for _ in range(100))
    if args.mode == "setup":
        out.write_text(json.dumps(result))
        return 0
    shutil.rmtree(store_dir, ignore_errors=True)
    store_dir.mkdir(parents=True)

    timer = RunTimer(calibrate=args.mode == "plain")
    original_run = bench.run
    tracer = None
    try:
        if args.mode == "traced":
            tracer = spans.Tracer()
            tracer.install()
        bench.run = timer.wrap(bench.run)
        t0, c0 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.open(spans.ROOT)
        records = workload.run()
        if tracer is not None:
            tracer.close()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        bench.run = original_run
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    eps = solvers.SolverConfig().eps
    jobs, calls = workload.jobs, timer.calls
    violations = []
    if len(calls) != len(jobs):
        violations.append(f"{len(calls)} solver runs for {len(jobs)} jobs")
    violations += check_records(jobs, calls, records)
    for job, call in zip(jobs, calls):
        violations += check_run(job, call, eps)
    failed = sum(c.result is None or exception_diagnostic(c.result) for c in calls)
    converged = sum(c.result is not None and bool(c.result.converged) for c in calls)
    if timer.slices:
        wall -= sum(w for w, _, _ in timer.slices)
        cpu -= sum(c for _, c, _ in timer.slices)
        result["calibration_s"] = timer.calibration_s()
    result.update(
        wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_rss_mb, attempted=len(calls), failed=failed,
        converged=converged, run_wall_s=[c.wall for c in calls],
        digests=[digest(j, c) for j, c in zip(jobs, calls)], violations=violations,
        starts=sum(workload.starts_per_instance.values()), it_max=workload.it_max,
        jobs_id=jobs_id(jobs),
    )
    if args.certify:
        result["certified"] = count_certified(jobs, calls)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics([c.result for c in calls])
        spans_dir = out.parent / "spans"
        spans_dir.mkdir(exist_ok=True)
        tracer.write(spans_dir / f"{args.workload}-seed{args.seed}.tsv")
    shutil.rmtree(store_dir, ignore_errors=True)
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
