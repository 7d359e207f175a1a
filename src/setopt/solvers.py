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

Runs from one start can share a ``StepMemo``, under one cone or several:
every evaluation that one of them computes, the others read, and every
partition, step (with its predicted reductions) and line search, the others
under the same cone read.
"""

from __future__ import annotations

import functools
import itertools
import logging
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import problems
from .cone import Cone
from .partition import PartitionCapError, structure_from_values
from .problems import DerivativeTable, DomainError, SetValuedProblem
from .subproblem import InnerSolveFailure, ModelSet, _norm, steepest_descent, theta_and_step

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
        n_memory = problems.checked_integer(self.n_memory, "n_memory", 0)
        it_max = problems.checked_integer(self.it_max, "it_max", 1)
        if n_memory is not self.n_memory or it_max is not self.it_max:
            # a numpy integer is stored as its int (an int comes back as itself)
            object.__setattr__(self, "n_memory", n_memory)
            object.__setattr__(self, "it_max", it_max)
        if not (0.0 < self.eps < np.inf):
            raise ValueError(f"need 0 < eps < inf, got {self.eps!r}")


@dataclass
class IterationRecord:
    """One iteration of ``run``: x_k, the radius (trust region) or Armijo
    step (SD/CG; 0 when the search failed), t, the tuple a, the ratios,
    acceptance and |x_{k+1} - x_k|.  ``x`` is one of the run's read-only
    iterates, not a copy: a later record or ``RunResult.final_point`` may
    hold the same array, and none holds the caller's x0.  ``rho`` is the
    read-only float64 array that ``reduction_ratios`` returned, one ratio
    per member of a; SD/CG records share one empty read-only array."""

    k: int
    x: np.ndarray
    omega: float
    t: float
    a: tuple
    rho: np.ndarray
    accepted: bool
    step_norm: float


@dataclass
class RunResult:
    """A run's outcome and trace (``IterationRecord``s).  ``final_point``
    is the run's last iterate, a read-only array that a record may share."""

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
        self.hist: deque = deque(maxlen=n_memory)
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


def predicted_reductions(s: np.ndarray, models: ModelSet, cone: Cone) -> np.ndarray:
    """The predicted reduction ``-cone.scalarize(m^j(s))`` of every block in
    one pass, each bitwise that of the block alone: one entry per derivative
    row of the tuple, so one for an offset family, whose omega members
    share their model.

    It is the model analogue of the ratio's numerator -psi(F_j(x+s) - R_j):
    against R = F(x), a block whose values equal its model has ratio 1, and
    at a noncritical point a smooth family's ratios tend to 1 as the radius
    goes to 0.  Both shipped cones give all their normals one 1-norm/2-norm
    ratio c, and on -K the oriented distance Delta_{-K} is c psi, so the
    ratio is also Delta_{-K}'s.  At a step that does not stop, psi(m^j(s*)) <= t* <= -eps,
    so every prediction is at least eps up to round-off; SolverInternalError
    still names the first block whose prediction is not positive."""
    pred = -cone.scalarize_rows(models.values(s))
    bad = pred <= 0.0
    if bad.any():
        j = int(bad.argmax())
        raise SolverInternalError(f"nonpositive predicted reduction {pred[j]:.3e} for block {j}")
    return pred


def reduction_ratios(memory: NonMonotoneMemory, F_new: np.ndarray, a: tuple,
                     pred: np.ndarray, cone: Cone) -> np.ndarray:
    """Per-block ratios of scalarized actual reduction, F(x_trial) against
    this iteration's reference on the rows of a, to the predicted reductions
    ``pred`` (``predicted_reductions``), all blocks in one pass; an offset
    family's one prediction broadcasts against its omega member rows."""
    idx = [ai - 1 for ai in a]
    return -cone.scalarize_rows(F_new[idx] - memory.reference[idx]) / pred


def accept_and_update(rho, omega: float, config: SolverConfig):
    """Step acceptance and the deterministic radius update from the ratios,
    an array (``reduction_ratios``') or any sequence of floats.

    All ratios >= eta2 doubles the radius (capped); acceptance with some
    ratio below eta2 keeps it; rejection shrinks to the midpoint of
    [gamma1 omega, gamma2 omega].  Both tests read the least ratio, which
    is NaN when a ratio is, so a NaN ratio passes neither test; an empty
    set of ratios passes both.
    """
    least = float(np.minimum.reduce(np.asarray(rho, dtype=float), initial=np.inf))
    accepted = least >= config.eta1
    if accepted and least >= config.eta2:
        omega_next = min(2.0 * omega, config.omega_max)
    elif accepted:
        omega_next = omega
    else:
        omega_next = 0.5 * (config.gamma1 + config.gamma2) * omega
    return accepted, omega_next


@functools.lru_cache(maxsize=32)
def _backtracking_steps(nu: float) -> np.ndarray:
    """The Armijo steps 1, nu, nu^2, ... above 1e-14, in the order tried;
    one read-only array per nu."""
    steps = []
    step = 1.0
    while step > 1e-14:
        steps.append(step)
        step *= nu
    steps = np.array(steps)
    _read_only(steps)
    return steps


def _armijo_step(problem: SetValuedProblem, cone: Cone, x: np.ndarray, d: np.ndarray,
                 idx: list, F_x: np.ndarray, slopes: np.ndarray, steps: np.ndarray,
                 rho_armijo: float):
    """The first of ``steps`` whose point clip(x + step d) passes the Armijo
    test on the members ``idx``, that point and F there (its row of the
    batch that tested it); (None, x, None) when none does.  ``slopes`` has
    one entry per member, or one for all.

    The candidates go to the evaluator in chunks of 1, 2, 4, ... points, one
    ``eval_all`` call each, and every row is tested with the operations of a
    one-point loop, so the step found is that loop's, bit for bit.  A chunk
    whose evaluation raises is re-run one point at a time in that loop,
    which skips a point that raises DomainError: an exception escapes only
    where the loop would have met it.  The F row holds the bits of
    ``eval_all`` at the point alone as long as the evaluator gives a batch
    row those bits (``tests/test_problems.py`` guards this).
    """
    lo, hi = problem.domain_box
    F_ref = F_x[idx]

    def passes(F, chunk):
        decrease = cone.scalarize_rows(F[:, idx] - F_ref)
        return (decrease <= (rho_armijo * chunk)[:, None] * slopes).all(axis=1)

    start = 0
    while start < len(steps):
        chunk = steps[start:2 * start + 1]
        cands = (x + chunk[:, None] * d).clip(lo, hi)
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
                    return float(chunk[i]), cand, F_cand
        else:
            ok = passes(F, chunk)
            if ok.any():
                i = int(ok.argmax())
                return float(chunk[i]), cands[i], F[i]
        start += len(chunk)
    return None, x, None


def _read_only(*arrays) -> None:
    for a in arrays:
        a.flags.writeable = False


_NO_RATIOS = np.empty(0)
_read_only(_NO_RATIOS)


@dataclass(eq=False, slots=True)
class _Entry:
    """A memo value, the wall and CPU seconds it took to compute, the number
    of the run that computed it, and the keys of the entries it was computed
    from."""

    value: object
    wall: float
    cpu: float
    owner: int
    parts: tuple = ()


class _Ledger:
    """One run's side of a memo: the entries of other runs that it read,
    and their summed cost."""

    def __init__(self, owner: int):
        self.owner = owner
        self.read: set = set()
        self.wall = self.cpu = 0.0


class StepMemo(DerivativeTable):
    """The work that runs from one start can share, bound to one problem
    (its box is read-only) and keyed by the exact bytes of its inputs:

    * F(x), keyed by x (the trial point of an accepted step is the next x),
      and the derivative bundle at x, keyed by ("bundle", x)
      (``DerivativeTable``): neither depends on the cone, so runs under
      every cone share them.  F at the point an Armijo search accepts is
      the row its batch tested there, kept as that point's entry when the
      search is computed; the search's entry carries its cost;
    * the partition at x, keyed by x for a whole-family problem; an offset
      family's does not depend on x and is kept on the problem instead
      (``partition``);
    * the trust-region step, keyed by (x, omega, eps): eps decides which
      solves ``theta_and_step``'s first-order bound skips, and with it the
      predicted reductions whenever |t*| >= eps, where every run that reads
      the entry goes on to its ratio test;
    * the SD/CG step problem (``steepest_descent``'s tuple, value, direction
      and Jacobian blocks), keyed by x and computed with the family's
      Jacobians inside the entry;
    * the Armijo search, keyed by (x, d, idx, rho_armijo, nu).

    Every other entry also holds the cone's normals in its key (their shape
    and bytes, ``Cone.key``), so a run reads these only from runs under its
    own normals.
    A step reads the bundle only when it is computed (``_get``'s
    ``derived_from``), and its cost leaves the bundle's out.  Entries hold
    read-only arrays, and nothing that raised is stored.  A miss calls what
    a run without the memo calls, so a run that shares one is bitwise the
    run that does not.  Each entry keeps the wall and CPU seconds it took;
    a run adds to its own times those of every entry another run computed,
    and of the bundle it was computed from, once per entry, so its reported
    times stay its own cost.
    """

    def __init__(self, problem: SetValuedProblem):
        self.problem = problem
        self._entries: dict = {}
        self._runs = itertools.count()

    def ledger(self, problem: SetValuedProblem) -> _Ledger:
        """A new run's ledger; ValueError for another problem."""
        if problem is not self.problem:
            raise ValueError("the memo is bound to another problem")
        return _Ledger(next(self._runs))

    def _get(self, key: tuple, compute, ledger: _Ledger, derived_from=None):
        """The entry's value and whether another run computed it.  With
        ``derived_from`` = x, ``compute`` takes the derivative bundle at x,
        read only on a miss, as an entry of its own and a part of this one:
        a run that reads this entry is charged for both, each once."""
        entry = self._entries.get(key)
        if entry is None:
            args = parts = ()
            if derived_from is not None:
                args = (self.bundle_arrays(derived_from, ledger),)
                parts = (("bundle", derived_from.tobytes()),)
            wall, cpu = time.perf_counter(), time.process_time()
            value = compute(*args)
            entry = _Entry(value, time.perf_counter() - wall, time.process_time() - cpu,
                           ledger.owner, parts)
            self._entries[key] = entry
        elif entry.owner != ledger.owner and entry not in ledger.read:
            # inline, not a helper call: every hit of a memo-reading run ends here
            ledger.read.add(entry)
            ledger.wall += entry.wall
            ledger.cpu += entry.cpu
            for part_key in entry.parts:
                part = self._entries[part_key]
                if part.owner != ledger.owner and part not in ledger.read:
                    ledger.read.add(part)
                    ledger.wall += part.wall
                    ledger.cpu += part.cpu
        return entry.value, entry.owner != ledger.owner

    def values(self, x: np.ndarray, ledger: _Ledger) -> np.ndarray:
        def compute():
            F = self.problem.eval_all(x)
            _read_only(F)
            return F
        return self._get(("F", x.tobytes()), compute, ledger)[0]

    def partition(self, x: np.ndarray, F_x: np.ndarray, cone: Cone, ledger: _Ledger):
        """The partition at x under ``cone``.  The partition of an offset
        family is that of its offsets, grouped at
        ``grouping_tolerance(offsets)``: every w·(F_i(x) - F_j(x)) is
        w·(c_i - c_j), whatever x.  It is computed once per cone's normals
        and kept on the problem (``problem.partitions``), so runs from every
        start share it.  It is no memo entry: the run that computes it pays
        for it, no other.  A whole family's partition is grouped from F(x),
        an entry keyed by x and the normals.
        """
        offsets = self.problem.offsets
        normals = cone.key()
        if offsets is None:
            return self._get(("partition", x.tobytes(), normals),
                             lambda: structure_from_values(F_x, cone), ledger)[0]
        if normals not in self.problem.partitions:
            self.problem.partitions[normals] = structure_from_values(offsets, cone)
        return self.problem.partitions[normals]

    def step(self, x: np.ndarray, structure, cone: Cone, omega: float, eps: float,
             ledger: _Ledger):
        """(solution, predicted reductions or None when |t*| < eps), and
        whether another run computed them."""
        def compute(derivatives):
            sol = theta_and_step(self.problem, cone, x, structure, omega, derivatives,
                                 box=self.problem.domain_box, stop_tol=eps)
            _read_only(sol.s_star, sol.models.G, sol.models.H)
            pred = None
            if abs(sol.t_star) >= eps:
                pred = predicted_reductions(sol.s_star, sol.models, cone)
                _read_only(pred)
            return sol, pred
        return self._get(("step", x.tobytes(), cone.key(), omega, eps), compute, ledger, x)

    def direction(self, x: np.ndarray, structure, cone: Cone, ledger: _Ledger):
        """``steepest_descent``'s (a, t, v, blocks) at x: an offset family
        has one block, so its slopes are one entry for all.  The family's
        Jacobians at x are computed inside the entry."""
        def compute():
            a, t, v, blocks = steepest_descent(self.problem, cone, structure,
                                               problems.fd_jacobian_all(self.problem, x))
            _read_only(v, blocks)
            return a, t, v, blocks
        return self._get(("direction", x.tobytes(), cone.key()), compute, ledger)[0]

    def armijo(self, x: np.ndarray, d: np.ndarray, idx: list, F_x: np.ndarray,
               slopes: np.ndarray, steps: np.ndarray, cone: Cone, config: SolverConfig,
               ledger: _Ledger):
        """``_armijo_step``'s (step, point), and whether another run computed
        it.  F at an accepted point becomes that point's F entry, unless it
        has one, at no cost of its own: the search's entry carries it."""
        def compute():
            step, x_new, F_new = _armijo_step(self.problem, cone, x, d, idx, F_x, slopes,
                                              steps, config.rho_armijo)
            x_new = np.array(x_new)
            _read_only(x_new)
            if F_new is not None:
                F_new = np.array(F_new)
                _read_only(F_new)
                self._entries.setdefault(("F", x_new.tobytes()),
                                         _Entry(F_new, 0.0, 0.0, ledger.owner))
            return step, x_new
        key = ("armijo", x.tobytes(), cone.key(), d.tobytes(), tuple(idx),
               config.rho_armijo, config.nu)
        return self._get(key, compute, ledger)


def run(problem: SetValuedProblem, cone: Cone, x0, config: SolverConfig,
        observer=None, memo: StepMemo | None = None) -> RunResult:
    """One loop for all five variants: partition, step problem, step rule.

    The step problem is the box-constrained min-max subproblem at the
    current radius for the trust-region variants, and the box-free
    steepest-descent direction v for SD and CG; t is its value, t* or
    -|v|, and the run stops when |t| < eps (t = 0 where ``theta_and_step``'s
    first-order bound skips the solve).  The step rule is the ratio
    test with the radius update, or Armijo backtracking along v (SD) or
    the conjugate direction (CG); a failed search along v, which would
    fail again, ends the run with the diagnostic "line_search_failed", and
    one along a conjugate direction restarts CG from v.  Iterates always
    stay inside the domain box, and are read-only arrays that the records
    and the result hold without a copy (x0 is copied once, on entry); an
    x0 that is not finite or lies outside it, or a cone in another R^m
    than the family's image space, raises ValueError.  A failure at a
    point (``DomainError`` from a value or derivative,
    ``PartitionCapError``, ``InnerSolveFailure`` when no tuple's step
    problem is solved, or ``SolverInternalError`` from a nonpositive
    predicted reduction) ends the run unconverged, with the exception as
    its diagnostic and the last t as ``final_t`` (NaN when it failed
    before any t).  Every evaluation, partition, step (with its
    predicted reductions) and line search goes through ``memo`` (a private
    one when None is given), so a run that reads a step another run took
    computes only the trial point clip(x + s*, box), its own reference,
    ratios and acceptance; a memo bound to another problem raises
    ValueError.
    """
    lo, hi = problem.domain_box
    x = np.asarray(x0, dtype=float).reshape(problem.n).copy()  # an array of its own, no view
    _read_only(x)
    if not (np.isfinite(x).all() and ((lo <= x) & (x <= hi)).all()):
        raise ValueError("x0 must be finite and lie inside the domain box")
    problem.check_cone(cone)
    memo = StepMemo(problem) if memo is None else memo
    ledger = memo.ledger(problem)
    trust_region = config.variant not in ("sd", "cg")
    memory = NonMonotoneMemory(config.variant, config.n_memory, config.mu)
    omega = config.omega0 if trust_region else None
    d_prev = v_prev = None
    trace: list[IterationRecord] = []
    converged = False
    diagnostic = None
    t = float("nan")
    shared_steps = 0
    start, cpu_start = time.perf_counter(), time.process_time()
    if not trust_region:
        backtracking = _backtracking_steps(config.nu)
    for k in range(config.it_max):
        try:
            F_x = memo.values(x, ledger)
            structure = memo.partition(x, F_x, cone, ledger)
            if trust_region:
                (sol, pred), shared = memo.step(x, structure, cone, omega, config.eps, ledger)
                a, t = sol.a_star, sol.t_star
            else:
                a, t, v, blocks = memo.direction(x, structure, cone, ledger)
            if abs(t) < config.eps:
                converged = True
                break
            if trust_region:
                memory.begin_iteration(F_x, a)
                x_trial = (x + sol.s_star).clip(lo, hi)
                _read_only(x_trial)
                F_new = memo.values(x_trial, ledger)
                rho = reduction_ratios(memory, F_new, a, pred, cone)
                _read_only(rho)
        except (DomainError, PartitionCapError, InnerSolveFailure, SolverInternalError) as exc:
            diagnostic = f"{type(exc).__name__}: {exc}"
            break
        if trust_region:
            accepted, omega_next = accept_and_update(rho, omega, config)
            omega_k, omega = omega, omega_next
            # warn once: every failure breaks the loop, so only this sets the diagnostic
            if omega < OMEGA_UNDERFLOW and diagnostic is None:
                log.warning("trust radius underflow (%.3e) at iteration %d", omega, k)
                diagnostic = "omega_underflow"
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
                if not (slopes < 0.0).all():
                    d, slopes = v, None  # restart when the combined direction loses descent
            if slopes is None:
                slopes = cone.scalarize_rows(blocks @ d)
            (step, x_trial), shared = memo.armijo(x, d, idx, F_x, slopes, backtracking, cone,
                                                  config, ledger)
            accepted = step is not None
            rho = _NO_RATIOS
            omega_k = step if accepted else 0.0
            # restart CG after a failed line search; one along v ends the run below
            d_prev, v_prev = (d, v) if accepted else (None, None)
            details = {"direction": v}
        record = IterationRecord(
            k=k, x=x, omega=omega_k, t=t, a=a, rho=rho, accepted=accepted,
            step_norm=_norm(x_trial - x) if accepted else 0.0,
        )
        trace.append(record)
        shared_steps += shared
        if observer is not None:
            observer({"record": record, "F_x": F_x, **details})
        if accepted:
            x = x_trial
        elif not trust_region and d is v:
            diagnostic = "line_search_failed"
            break
    wall = time.perf_counter() - start + ledger.wall
    cpu = time.process_time() - cpu_start + ledger.cpu
    norms = [r.step_norm for r in trace]
    return RunResult(
        converged=converged, iterations=len(trace), wall_time=wall, cpu_time=cpu,
        final_point=x, final_t=t, trace=trace, algorithm=config.variant,
        final_omega=omega, mean_step_size=float(np.mean(norms)) if norms else 0.0,
        diagnostic=diagnostic, shared_steps=shared_steps,
    )
