"""Layer spans for the traced pass of the benchmark.

The wrappers are installed on each name where the program looks it up and
are removed when the pass ends.  Spans stay in memory and are written out
after the timed region.  A span's self time is its duration minus the
outer intervals of its child spans; the wrappers' own bookkeeping outside
a span's interval belongs to no layer and shows as
``trace.unattributed_frac``.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter
from time import perf_counter

import numpy as np
from setopt import bench, cone, partition, problems, solvers, subproblem

ROOT = "bench"
RUN = "solvers.run"
EVAL = "problems.eval_all"
STRUCTURE = "partition.structure_from_values"
INNER = "subproblem.inner_minimax"
THETA = "subproblem.theta_and_step"
DERIVATIVES = "problems.derivatives_all"
FD_JACOBIAN = "problems.fd_jacobian_all"


class Tracer:
    """In-memory span tree plus call counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.iteration_s: list[float] = []
        self._stack: list[list] = []      # [span index, summed child intervals]
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> None:
        self.names.append(name)
        self.parents.append(self._stack[-1][0] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append([len(self.names) - 1, 0.0])
        self.starts.append(perf_counter())

    def close(self) -> None:
        t1 = perf_counter()
        idx, child = self._stack.pop()
        self.ends[idx] = t1
        name = self.names[idx]
        self.self_s[name] += t1 - self.starts[idx] - child
        self.calls[name] += 1

    def _charge(self, outer: float) -> None:
        if self._stack:
            self._stack[-1][1] += outer

    def span(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before``/``after`` run outside it."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            t_enter = perf_counter()
            if before is not None:
                before(args, kwargs)
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close()
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                self._charge(perf_counter() - t_enter)
                raise
            self.close()
            if after is not None:
                after(args, kwargs, result)
            self._charge(perf_counter() - t_enter)
            return result

        return wrapped

    def counter(self, name: str, fn):
        """Wrap ``fn`` to count calls only; its time stays with the caller."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- patching ------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Patch the program's layer boundaries (see the module docstring)."""
        marks: list[float] = []

        def observe(_event):
            marks.append(perf_counter())

        def before_run(args, kwargs):
            if len(args) < 5 and "observer" not in kwargs:
                kwargs["observer"] = observe
            marks.clear()
            marks.append(perf_counter())

        def after_run(args, kwargs, result):
            self.iteration_s.extend(b - a for a, b in zip(marks, marks[1:]))

        def before_inner(args, kwargs):
            models = args[0] if args else kwargs["models"]
            cone_ = args[1] if len(args) > 1 else kwargs["cone"]
            w = cone_.dual_normals
            n = models.G.shape[2]
            rows = np.einsum("lm,jmn->jln", w, models.G).reshape(-1, n)
            curv = np.einsum("lr,jrab->jlab", w, models.H).reshape(rows.shape[0], -1)
            branches = np.concatenate([rows, curv], axis=1)
            self.counts["subproblem.branches"] += len(branches)
            self.counts["subproblem.distinct_branches"] += len(np.unique(branches, axis=0))

        def after_structure(args, kwargs, structure):
            count = structure.partition_count()
            if count > partition.PARTITION_CAP:
                self.counts["partition.cap_errors"] += 1
            else:
                self.counts["partition.tuples"] += count

        self.patch(bench, "run", lambda f: self.span(RUN, f, before_run, after_run))
        self.patch(solvers, "structure_from_values",
                   lambda f: self.span(STRUCTURE, f, after=after_structure))
        self.patch(solvers, "theta_and_step", lambda f: self.span(THETA, f))
        self.patch(subproblem, "inner_minimax", lambda f: self.span(INNER, f, before_inner))
        self.patch(problems, "derivatives_all", lambda f: self.span(DERIVATIVES, f))
        self.patch(problems, "fd_jacobian_all", lambda f: self.span(FD_JACOBIAN, f))
        self.patch(problems.SetValuedProblem, "eval_all", lambda f: self.span(EVAL, f))
        self.patch(cone.Cone, "scalarize", lambda f: self.counter("cone.scalarize.calls", f))
        self.patch(cone.Cone, "scalarize_rows",
                   lambda f: self.counter("cone.scalarize_rows.calls", f))
        for method in ("bundle_arrays", "jacobians"):
            self.patch(problems.DerivativeTable, method,
                       lambda f: self.counter("problems.derivative_cache.lookups", f))

    # -- results -------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as ``name parent start_ns end_ns`` (root-relative)."""
        base = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tparent\tstart_ns\tend_ns\n")
            for name, parent, t0, t1 in zip(self.names, self.parents, self.starts, self.ends):
                fh.write(f"{name}\t{parent}\t{round((t0 - base) * 1e9)}\t"
                         f"{round((t1 - base) * 1e9)}\n")

    def layer_metrics(self, results: list) -> dict:
        """Per-layer values; ``results`` holds one RunResult (or None) per run."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        wall = self.ends[0] - self.starts[0]

        run_children = Counter()
        for name, parent in zip(self.names, self.parents):
            if parent >= 0 and self.names[parent] == RUN:
                run_children[name] += 1
        within_cap = calls[STRUCTURE] - counts["partition.cap_errors"]
        lookups = counts["problems.derivative_cache.lookups"]
        misses = calls[DERIVATIVES] + calls[FD_JACOBIAN]
        finished = [r for r in results if r is not None]

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "subproblem.inner_minimax.calls": calls[INNER],
            "subproblem.inner_minimax.self_s": self_s[INNER],
            "subproblem.inner_minimax.ms_per_call": 1e3 * ratio(self_s[INNER], calls[INNER]),
            "subproblem.theta_and_step.calls": calls[THETA],
            "subproblem.theta_and_step.self_s": self_s[THETA],
            "subproblem.branches": counts["subproblem.branches"],
            "subproblem.distinct_branch_ratio": ratio(counts["subproblem.distinct_branches"],
                                                      counts["subproblem.branches"]),
            "subproblem.inner_failures": counts[f"{INNER}.raised.InnerSolveFailure"],
            "partition.structure_from_values.calls": calls[STRUCTURE],
            "partition.structure_from_values.self_s": self_s[STRUCTURE],
            "partition.structure_from_values.us_per_call":
                1e6 * ratio(self_s[STRUCTURE], calls[STRUCTURE]),
            "partition.tuples_per_call": ratio(counts["partition.tuples"], within_cap),
            "partition.cap_errors": counts["partition.cap_errors"],
            "solvers.self_s": self_s[RUN],
            "solvers.iterations": sum(r.iterations for r in finished),
            "solvers.iter_ms_p50": 1e3 * statistics.median(self.iteration_s)
            if self.iteration_s else 0.0,
            # evaluations by the solver loop beyond F(x): Armijo trials for
            # SD/CG, trial points for the trust-region variants
            "solvers.linesearch_evals": run_children[EVAL] - run_children[STRUCTURE],
            "solvers.converged_frac": ratio(sum(r.converged for r in finished), len(results)),
            "cone.scalarize.calls": counts["cone.scalarize.calls"],
            "cone.scalarize_rows.calls": counts["cone.scalarize_rows.calls"],
            "problems.eval_all.calls": calls[EVAL],
            "problems.eval_all.self_s": self_s[EVAL],
            "problems.derivatives_all.calls": calls[DERIVATIVES],
            "problems.derivatives_all.self_s": self_s[DERIVATIVES],
            "problems.fd_jacobian_all.calls": calls[FD_JACOBIAN],
            "problems.fd_jacobian_all.self_s": self_s[FD_JACOBIAN],
            "problems.derivative_cache.hit_ratio": ratio(lookups - misses, lookups),
            "bench.self_s": self_s[ROOT],
            "trace.wall_s": wall,
            "trace.unattributed_frac": ratio(wall - sum(self_s.values()), wall),
        }
