"""Trust-region drivers with monotone and non-monotone step acceptance,
plus steepest-descent and conjugate-gradient baselines.

All five variants run in one loop (``run``) with one stop test.  The
three trust-region variants differ only in the reference matrix the
reduction ratio compares against:

* ``trm``  — the current values F(x_k),
* ``max``  — a componentwise maximum over the values F(x_j) of the last
  N_k iterations, accepted or not; N_k grows by one per iteration up to
  the window depth and drops to 0 when the selected index tuple changes,
* ``avg``  — an exponentially weighted running average, updated on every
  iteration (successful or not) while the tuple has never changed.

With window depth 0 (``max``) or weight 0 (``avg``) both reduce exactly,
bitwise, to the monotone driver.

Runs from one start can share a ``StepMemo``: every evaluation, partition,
step and line search that one of them computes, the others read.
"""

from __future__ import annotations

import itertools
import logging
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ._scipy_core import min_norm_point
from .cone import Cone
from .partition import PartitionCapError, best_tuple, structure_from_values
from .problems import DerivativeTable, DomainError, SetValuedProblem
from .subproblem import InnerSolveFailure, ModelSet, scalarized_rows, theta_and_step

log = logging.getLogger(__name__)

VARIANTS = ("trm", "max", "avg", "sd", "cg")

OMEGA_UNDERFLOW = 1e-14


class SolverInternalError(RuntimeError):
    """A nonpositive predicted reduction reached the ratio computation."""


@dataclass(frozen=True)
class SolverConfig:
    """Algorithm parameters; defaults follow the benchmark setup."""

    variant: str = "trm"
    omega0: float = 1.0
    omega_max: float = 20.0
    eps: float = 1e-3
    eta1: float = 0.001
    eta2: float = 0.75
    gamma1: float = 0.4
    gamma2: float = 0.9
    n_memory: int = 10          # max-type window depth
    mu: float = 0.5             # avg-type weight, constant schedule
    it_max: int = 100
    rho_armijo: float = 1e-4    # sufficient-decrease slope for SD and CG
    nu: float = 0.5             # backtracking factor
    sigma: float = 0.1          # CG beta damping

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (0.0 < self.eta1 < self.eta2 < 1.0):
            raise ValueError("need 0 < eta1 < eta2 < 1")
        if not (0.0 < self.gamma1 < self.gamma2 < 1.0):
            raise ValueError("need 0 < gamma1 < gamma2 < 1")
        if not (0.0 < self.omega0 <= self.omega_max):
            raise ValueError("need 0 < omega0 <= omega_max")
        if not (0.0 <= self.mu < 1.0):
            raise ValueError("need 0 <= mu < 1")
        for name in ("nu", "sigma", "rho_armijo"):
            if not (0.0 < getattr(self, name) < 1.0):
                raise ValueError(f"need 0 < {name} < 1, got {getattr(self, name)!r}")
        if not (type(self.n_memory) is int and 0 <= self.n_memory):
            raise ValueError(f"need an integer n_memory >= 0, got {self.n_memory!r}")
        if not (type(self.it_max) is int and 1 <= self.it_max):
            raise ValueError(f"need an integer it_max >= 1, got {self.it_max!r}")
        if not (0.0 < self.eps < np.inf):
            raise ValueError(f"need 0 < eps < inf, got {self.eps!r}")


@dataclass
class IterationRecord:
    k: int
    x: np.ndarray
    omega: float
    t: float
    a: tuple
    rho: tuple
    accepted: bool
    step_norm: float


@dataclass
class RunResult:
    converged: bool
    iterations: int
    wall_time: float
    cpu_time: float             # process CPU time, with that of entries other runs computed
    final_point: np.ndarray
    final_t: float
    trace: list
    algorithm: str
    final_omega: float | None = None
    mean_step_size: float = 0.0
    diagnostic: str | None = None
    shared_steps: int = 0       # iterations whose step another run computed

    def summary(self) -> dict:
        """The run as strict JSON data, a non-finite ``final_t`` as None; a
        store record of ``bench.run_matrix`` is this plus its key and start."""
        return {
            "algorithm": self.algorithm,
            "converged": self.converged,
            "iterations": self.iterations,
            "wall_time": self.wall_time,
            "cpu_time": self.cpu_time,
            "final_point": np.asarray(self.final_point).tolist(),
            "final_t": self.final_t if np.isfinite(self.final_t) else None,
            "final_omega": self.final_omega,
            "mean_step_size": self.mean_step_size,
            "diagnostic": self.diagnostic,
            "shared_steps": self.shared_steps,
        }


class NonMonotoneMemory:
    """Reference bookkeeping for the two non-monotone acceptance rules.

    The max-type window holds the value matrices F(x_j) of the last N_k
    iterations, accepted or not (a rejected step repeats F(x_k)).  N_k
    grows by one per iteration up to ``n_memory`` and drops to 0 when the
    selected tuple changes, so the window never reaches past a tuple
    change and the reference on the selected rows never increases.  The
    avg-type average C and weight q advance on every iteration; a tuple
    change at any iteration resets them to the current values for good.
    ``reference`` is the (p, m) matrix the ratio test reads this iteration.
    """

    def __init__(self, variant: str, n_memory: int, mu: float):
        self.variant = variant
        self.mu = mu
        self.hist: deque = deque(maxlen=max(n_memory, 0))
        self.C: np.ndarray | None = None
        self.q = 1.0
        self.streak_all = True
        self._last_a: tuple | None = None
        self.reference: np.ndarray | None = None

    def begin_iteration(self, F_x: np.ndarray, a: tuple) -> None:
        """Fix the reference matrix for this iteration at x_k with tuple a,
        then let F(x_k) enter the max-type window, whether or not the step
        will be accepted.

        The avg-type update: while the tuple streak holds,
        C' = (mu q / q') C + F_x / q' with q' = mu q + 1; otherwise C' = F_x
        and q' = 1.  It does not depend on whether the step is accepted.
        """
        if self.variant == "max":
            if a != self._last_a:
                self.hist.clear()
            self.reference = np.maximum.reduce([F_x, *self.hist])
            self.hist.append(F_x.copy())
        elif self.variant == "avg":
            if self._last_a is not None and a != self._last_a:
                self.streak_all = False
            if self.C is None or not self.streak_all:
                self.C = F_x.copy()
                self.q = 1.0
            else:
                q_new = self.mu * self.q + 1.0
                self.C = (self.mu * self.q / q_new) * self.C + (1.0 / q_new) * F_x
                self.q = q_new
            self.reference = self.C
        else:
            self.reference = F_x
        self._last_a = a


def reduction_ratios(memory: NonMonotoneMemory, F_new: np.ndarray, a: tuple,
                     s: np.ndarray, models: ModelSet, cone: Cone) -> np.ndarray:
    """Per-block ratios of scalarized actual to predicted reduction, all
    blocks in one pass; each ratio is bitwise that of the block alone, the
    ``cone.scalarize`` of its reduction over that of its model decrease
    -m^j(s)."""
    pred = cone.scalarize_rows(-models.values(s))
    bad = np.flatnonzero(pred <= 0.0)
    if bad.size:
        j = int(bad[0])
        raise SolverInternalError(f"nonpositive predicted reduction {pred[j]:.3e} for block {j}")
    idx = [ai - 1 for ai in a]
    return -cone.scalarize_rows(F_new[idx] - memory.reference[idx]) / pred


def accept_and_update(rho: np.ndarray, omega: float, config: SolverConfig):
    """Step acceptance and the deterministic radius update.

    All ratios >= eta2 doubles the radius (capped); acceptance with some
    ratio below eta2 keeps it; rejection shrinks to the midpoint of
    [gamma1 omega, gamma2 omega].
    """
    rho = np.asarray(rho, dtype=float)
    accepted = bool(np.all(rho >= config.eta1))
    if accepted and np.all(rho >= config.eta2):
        omega_next = min(2.0 * omega, config.omega_max)
    elif accepted:
        omega_next = omega
    else:
        omega_next = 0.5 * (config.gamma1 + config.gamma2) * omega
    return accepted, omega_next


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows in lexicographic order, as ``np.unique(rows, axis=0)``
    gives them but without its structured-dtype sort: a stable sort, then
    each row equal (==) to the one before it is dropped.  Of two rows equal
    up to signed zeros the first in ``rows`` stays."""
    R = rows[np.lexsort(rows.T[::-1])]
    return R[np.concatenate(([True], np.any(R[1:] != R[:-1], axis=1)))]


def _prox_direction(rows: np.ndarray):
    """Steepest-descent direction v and value of min_s max(rows @ s) + ||s||^2 / 2.

    v = -p with p the min-norm element of conv(rows) (Fliege & Svaiter
    2000), so val = -||v||^2 / 2.  p is ``min_norm_point`` of the distinct
    rows R: R^T lam for the simplex weights lam of one NNLS solve.
    """
    R = _distinct_rows(rows)
    # 0.0 - p, not -p: an entry that cancels is +0.0 in -R^T lam, never -0.0
    v = 0.0 - min_norm_point(R)
    val = float(np.max(R @ v) + 0.5 * v @ v)
    return v, val


def _backtracking_steps(nu: float) -> np.ndarray:
    """The Armijo steps 1, nu, nu^2, ... above 1e-14, in the order tried."""
    steps = []
    step = 1.0
    while step > 1e-14:
        steps.append(step)
        step *= nu
    return np.array(steps)


def _armijo_step(problem: SetValuedProblem, cone: Cone, x: np.ndarray, d: np.ndarray,
                 idx: list, F_x: np.ndarray, slopes: np.ndarray, steps: np.ndarray,
                 rho_armijo: float):
    """The first of ``steps`` whose point clip(x + step d) passes the Armijo
    test on the blocks ``idx``, and that point; (None, x) when none does.

    The candidates go to the evaluator in chunks of 1, 2, 4, ... points, one
    ``eval_all`` call each, and every row is tested with the operations of a
    one-point loop, so the step found is that loop's, bit for bit.  A chunk
    whose evaluation raises is re-run one point at a time in that loop,
    which skips a point that raises DomainError: an exception escapes only
    where the loop would have met it.
    """
    lo, hi = problem.domain_box

    def passes(F, chunk):
        decrease = cone.scalarize_rows(F[:, idx] - F_x[idx])
        return np.all(decrease <= (rho_armijo * chunk)[:, None] * slopes, axis=1)

    start = 0
    while start < len(steps):
        chunk = steps[start:2 * start + 1]
        cands = np.clip(x + chunk[:, None] * d, lo, hi)
        try:
            F = problem.eval_all(cands)
        except Exception:
            # not swallowed: the re-run raises whatever the loop would meet
            for i, cand in enumerate(cands):
                try:
                    F_cand = problem.eval_all(cand)
                except DomainError:
                    continue
                if passes(F_cand[None], chunk[i:i + 1])[0]:
                    return float(chunk[i]), cand
        else:
            ok = passes(F, chunk)
            if ok.any():
                i = int(np.argmax(ok))
                return float(chunk[i]), cands[i]
        start += len(chunk)
    return None, x


def _read_only(*arrays) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True, eq=False)
class _Entry:
    """A memo value, the wall and CPU seconds it took to compute, and the
    number of the run that computed it."""

    value: object
    wall: float
    cpu: float
    owner: int


class _Ledger:
    """One run's side of a memo: the entries of other runs that it read,
    and their summed cost."""

    def __init__(self, owner: int):
        self.owner = owner
        self.read: set = set()
        self.wall = self.cpu = 0.0


class StepMemo:
    """The work that runs from one start can share, bound to one problem,
    cone and domain box and keyed by the exact bytes of its inputs:

    * F(x), keyed by x (the trial point of an accepted step is the next x);
    * the partition at x, keyed by x for a whole-family problem; an offset
      family's does not depend on x and is kept on the problem instead
      (``partition``);
    * the trust-region step, keyed by (x, omega, eps): eps decides which
      solves ``inner_minimax`` skips;
    * the SD/CG tuple, direction v and Jacobian blocks, keyed by x;
    * the Armijo search, keyed by (x, d, idx, rho_armijo, nu).

    Entries hold read-only arrays, and nothing that raised is stored.  A
    miss calls what a run without the memo calls, so a run that shares one
    is bitwise the run that does not.  Each entry keeps the wall and CPU
    seconds it took; a run adds to its own times those of every entry
    another run computed, once per entry, so its reported times stay its
    own cost.
    """

    def __init__(self, problem: SetValuedProblem, cone: Cone):
        self.problem, self.cone = problem, cone
        self._box = self._box_bytes(problem)
        # one table per kind: a bundle's Jacobians need not be fd_jacobian_all's bits
        self._bundles, self._jacobians = DerivativeTable(problem), DerivativeTable(problem)
        self._entries: dict = {}
        self._runs = itertools.count()

    @staticmethod
    def _box_bytes(problem: SetValuedProblem) -> bytes:
        return b"".join(np.asarray(b, dtype=float).tobytes() for b in problem.domain_box)

    def ledger(self, problem: SetValuedProblem, cone: Cone) -> _Ledger:
        """A new run's ledger; ValueError for another problem, cone or box."""
        if problem is not self.problem or cone is not self.cone \
                or self._box_bytes(problem) != self._box:
            raise ValueError("the memo is bound to another problem, cone or domain box")
        return _Ledger(next(self._runs))

    def _get(self, key: tuple, compute, ledger: _Ledger):
        """The entry's value and whether another run computed it."""
        entry = self._entries.get(key)
        if entry is None:
            wall, cpu = time.perf_counter(), time.process_time()
            value = compute()
            entry = _Entry(value, time.perf_counter() - wall, time.process_time() - cpu,
                           ledger.owner)
            self._entries[key] = entry
        elif entry.owner != ledger.owner and entry not in ledger.read:
            ledger.read.add(entry)
            ledger.wall += entry.wall
            ledger.cpu += entry.cpu
        return entry.value, entry.owner != ledger.owner

    def values(self, x: np.ndarray, ledger: _Ledger) -> np.ndarray:
        def compute():
            F = self.problem.eval_all(x)
            _read_only(F)
            return F
        return self._get(("F", x.tobytes()), compute, ledger)[0]

    def partition(self, x: np.ndarray, F_x: np.ndarray, ledger: _Ledger):
        """The partition at x.  The partition of an offset family is that of
        its offsets, grouped at ``grouping_tolerance(offsets)``: every
        w·(F_i(x) - F_j(x)) is w·(c_i - c_j), whatever x.  It is computed
        once per cone and kept on the problem (``problem.partitions``), so
        runs from every start share it.  It is no memo entry: the run that
        computes it pays for it, no other.  A whole family's partition is
        grouped from F(x), an entry keyed by x.
        """
        offsets = self.problem.offsets
        if offsets is None:
            return self._get(("partition", x.tobytes()),
                             lambda: structure_from_values(F_x, self.cone), ledger)[0]
        w = self.cone.dual_normals
        key = (w.shape, w.tobytes())
        if key not in self.problem.partitions:
            self.problem.partitions[key] = structure_from_values(offsets, self.cone)
        return self.problem.partitions[key]

    def step(self, x: np.ndarray, structure, omega: float, eps: float, ledger: _Ledger):
        """The trust-region solution, and whether another run computed it."""
        def compute():
            sol = theta_and_step(self.problem, self.cone, x, structure, omega,
                                 self._bundles.bundle_arrays(x),
                                 box=self.problem.domain_box, stop_tol=eps)
            _read_only(sol.s_star, sol.models.G, sol.models.H)
            return sol
        return self._get(("step", x.tobytes(), omega, eps), compute, ledger)

    def direction(self, x: np.ndarray, structure, ledger: _Ledger):
        """The tuple a, the steepest-descent direction v and the Jacobian
        blocks of a."""
        def compute():
            jac = self._jacobians.jacobians(x)

            def solve(a):
                v, val = _prox_direction(scalarized_rows(self.cone, jac[[ai - 1 for ai in a]]))
                return val, v

            a, (_, v) = best_tuple(self.problem, structure, solve)
            blocks = jac[[ai - 1 for ai in a]]
            _read_only(v, blocks)
            return a, v, blocks
        return self._get(("direction", x.tobytes()), compute, ledger)[0]

    def armijo(self, x: np.ndarray, d: np.ndarray, idx: list, F_x: np.ndarray,
               slopes: np.ndarray, steps: np.ndarray, config: SolverConfig, ledger: _Ledger):
        """``_armijo_step``'s (step, point), and whether another run computed it."""
        def compute():
            step, x_new = _armijo_step(self.problem, self.cone, x, d, idx, F_x, slopes, steps,
                                       config.rho_armijo)
            x_new = np.array(x_new)
            _read_only(x_new)
            return step, x_new
        key = ("armijo", x.tobytes(), d.tobytes(), tuple(idx), config.rho_armijo, config.nu)
        return self._get(key, compute, ledger)


def run(problem: SetValuedProblem, cone: Cone, x0, config: SolverConfig,
        observer=None, memo: StepMemo | None = None) -> RunResult:
    """One loop for all five variants: partition, step problem, step rule.

    The step problem is the box-constrained min-max subproblem at the
    current radius for the trust-region variants, and the box-free
    steepest-descent direction v for SD and CG; t is its value, t* or
    -|v|, and the run stops when |t| < eps (t = 0 where ``inner_minimax``'s
    first-order bound skips the solve).  The step rule is the ratio
    test with the radius update, or Armijo backtracking along v (SD) or
    the conjugate direction (CG).  Iterates always stay inside the domain
    box.  A failure at a point (``DomainError`` from a value or derivative,
    ``PartitionCapError``, ``InnerSolveFailure`` when no tuple's step
    problem is solved, or ``SolverInternalError`` from the ratio test) ends
    the run unconverged, with the exception as its diagnostic and the last
    t as ``final_t`` (NaN when it failed before any t).  Every evaluation, partition, step and line search goes
    through ``memo`` (a private one when None is given); a memo bound to
    another problem or cone raises ValueError.
    """
    lo, hi = problem.domain_box
    x = np.asarray(x0, dtype=float).reshape(problem.n)
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError("x0 lies outside the domain box")
    memo = StepMemo(problem, cone) if memo is None else memo
    ledger = memo.ledger(problem, cone)
    trust_region = config.variant not in ("sd", "cg")
    memory = NonMonotoneMemory(config.variant, config.n_memory if config.variant == "max" else 0,
                               config.mu)
    omega = config.omega0 if trust_region else None
    d_prev = v_prev = None
    trace: list[IterationRecord] = []
    converged = False
    diagnostic = None
    t = float("nan")
    iterations = config.it_max
    shared_steps = 0
    start, cpu_start = time.perf_counter(), time.process_time()
    underflow_logged = False
    if not trust_region:
        backtracking = _backtracking_steps(config.nu)
    for k in range(config.it_max):
        try:
            F_x = memo.values(x, ledger)
            structure = memo.partition(x, F_x, ledger)
            if trust_region:
                sol, shared = memo.step(x, structure, omega, config.eps, ledger)
                a, t = sol.a_star, sol.t_star
            else:
                a, v, blocks = memo.direction(x, structure, ledger)
                t = -float(np.linalg.norm(v))
            if abs(t) < config.eps:
                converged = True
                iterations = k
                break
            if trust_region:
                memory.begin_iteration(F_x, a)
                x_trial = np.clip(x + sol.s_star, lo, hi)
                F_new = memo.values(x_trial, ledger)
                rho = reduction_ratios(memory, F_new, a, sol.s_star, sol.models, cone)
        except (DomainError, PartitionCapError, InnerSolveFailure, SolverInternalError) as exc:
            diagnostic = f"{type(exc).__name__}: {exc}"
            iterations = k
            break
        if trust_region:
            accepted, omega_next = accept_and_update(rho, omega, config)
            rho = tuple(float(r) for r in rho)
            omega_k, omega = omega, omega_next
            if omega < OMEGA_UNDERFLOW and not underflow_logged:
                log.warning("trust radius underflow (%.3e) at iteration %d", omega, k)
                diagnostic = diagnostic or "omega_underflow"
                underflow_logged = True
            if observer is not None:
                details = {"F_new": F_new, "reference_full": memory.reference.copy(),
                           "C": None if memory.C is None else memory.C.copy(),
                           "structure": structure, "solution": sol}
        else:
            idx = [ai - 1 for ai in a]
            d, slopes = v, None
            if config.variant == "cg" and d_prev is not None:
                denom = float(d_prev @ v_prev)
                beta_cd = float(v @ v) / denom if denom > 1e-300 else 0.0
                d = v + 0.99 * (1.0 - config.sigma) * beta_cd * d_prev
                slopes = cone.scalarize_rows(blocks @ d)
                if not np.all(slopes < 0.0):
                    d, slopes = v, None  # restart when the combined direction loses descent
            if slopes is None:
                slopes = cone.scalarize_rows(blocks @ d)
            (step, x_trial), shared = memo.armijo(x, d, idx, F_x, slopes, backtracking, config,
                                                  ledger)
            accepted = step is not None
            rho = ()
            omega_k = step if accepted else 0.0
            # restart CG after a failed line search
            d_prev, v_prev = (d, v) if accepted else (None, None)
            details = {"direction": v}
        record = IterationRecord(
            k=k, x=x.copy(), omega=omega_k, t=t, a=a, rho=rho, accepted=accepted,
            step_norm=float(np.linalg.norm(x_trial - x)) if accepted else 0.0,
        )
        trace.append(record)
        shared_steps += shared
        if observer is not None:
            observer({"record": record, "F_x": F_x, **details})
        if accepted:
            x = x_trial
    wall = time.perf_counter() - start + ledger.wall
    cpu = time.process_time() - cpu_start + ledger.cpu
    norms = [r.step_norm for r in trace]
    return RunResult(
        converged=converged, iterations=iterations, wall_time=wall, cpu_time=cpu,
        final_point=np.array(x), final_t=t, trace=trace, algorithm=config.variant,
        final_omega=omega, mean_step_size=float(np.mean(norms)) if norms else 0.0,
        diagnostic=diagnostic, shared_steps=shared_steps,
    )
