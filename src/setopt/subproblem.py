"""Quadratic models, the criticality value, and the min-max trial step.

For a partition element a the models are m^j(s) = G_j s + (1/2) s^T H_j s
per component.  The trial step minimizes

    phi(s) = max over j and dual normals w of { w^T m^j(s), w^T (G_j s) }

over the trust ball intersected with the box shift.  phi(0) = 0, so the
optimal value t is never positive; t < 0 certifies that the current point
is not critical and s is a common descent direction for every selected
objective.

The inner solver writes the problem in epigraph form, minimize tau
subject to tau >= each branch of phi, the ball and the box shift as
bounds, and solves it with SLSQP (Kraft 1988) and analytic Jacobians from
the 2 best distinct points of a fixed set of cheap starts (and the next 2
when neither solve converges), with a stop tolerance scaled to a bound on
|phi| over the ball; the end points are projected onto the feasible set
and phi is evaluated there again.  The branches are max-of-quadratics and
may be nonconvex, hence the multistart; the contract is feasibility plus
phi(s) <= 0, not global optimality.

SLSQP runs as scipy's compiled core, driven through its reverse-
communication interface (``_slsqplib.slsqp``, scipy >= 1.16, loaded on its
own by ``_scipy_core``) without the ``minimize`` wrapper: every input the
core sees is bit for bit what ``minimize(method="SLSQP")`` would pass, and
a test keeps that ``minimize`` form as the reference.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from . import problems
from ._scipy_core import min_norm_point, slsqp as _slsqp
from .cone import Cone
from .partition import MinimalStructure, best_tuple
from .problems import SetValuedProblem

log = logging.getLogger(__name__)

_N_STARTS = 2
# SLSQP's ftol is absolute and also bounds the constraint violation, which
# round-off keeps above a fixed ftol when branch values are large; so each
# solve stops at _SLSQP_FTOL times a bound on |phi| over the ball
# (_scaled_ftol), and the cap only ends solves that stall.
_SLSQP_MAXITER = 30
_SLSQP_FTOL = 1e-12


class InnerSolveFailure(RuntimeError):
    """The inner solver met non-finite model data or values; from
    ``theta_and_step``, no tuple of the partition could be solved."""


@dataclass(frozen=True)
class ModelSet:
    """Gradient blocks (omega, m, n) and Hessian blocks (omega, m, n, n)."""

    G: np.ndarray
    H: np.ndarray

    def values(self, s: np.ndarray) -> np.ndarray:
        """Model increments m^j(s) = G_j s + s^T H_j s / 2 of every block,
        (omega, m); m^j(0) = 0."""
        return self.G @ s + 0.5 * np.einsum("jrab,a,b->jr", self.H, s, s)


def scalarized_rows(cone: Cone, G: np.ndarray) -> np.ndarray:
    """Rows w^T G_j (omega * q, n) for every block j and dual normal w."""
    return np.einsum("lm,jmn->jln", cone.dual_normals, G).reshape(-1, G.shape[2])


@dataclass
class SubproblemSolution:
    """Winning tuple a*, trial step s*, criticality value t* <= 0, and the
    models of a*'s blocks."""

    a_star: tuple
    s_star: np.ndarray
    t_star: float
    models: ModelSet | None = field(default=None, repr=False)


def _first_of_each(rows: np.ndarray) -> list:
    """Ascending indices of the first row of each distinct bit pattern."""
    key = rows.tobytes()
    width = len(key) // len(rows)
    first = {}
    for i in range(len(rows)):
        first.setdefault(key[i * width:(i + 1) * width], i)
    return list(first.values())


@dataclass(frozen=True)
class _Branches:
    """Stacked scalarized branches: rows R (B, n) and curvatures (B, n, n).

    A branch that repeats an earlier one bit for bit (row and curvature
    together) is kept once, at its first position, so phi and the starts
    built from R are the same as on the full stack.
    """

    R: np.ndarray
    WH: np.ndarray

    @classmethod
    def build(cls, models: ModelSet, cone: Cone) -> "_Branches":
        n = models.G.shape[2]
        rows = scalarized_rows(cone, models.G)
        wh = np.einsum("lr,jrab->jlab", cone.dual_normals, models.H).reshape(-1, n, n)
        keep = _first_of_each(np.concatenate([rows, wh.reshape(len(rows), -1)], axis=1))
        return cls(R=rows[keep], WH=wh[keep])

    def _quad_terms(self, S: np.ndarray) -> np.ndarray:
        """s^T WH_b s per batch row and branch, via one matmul."""
        n_branches, n = self.R.shape
        tmp = (self.WH.reshape(n_branches * n, n) @ S.T).reshape(n_branches, n, -1)
        return np.einsum("ki,bik->kb", S, tmp)

    def phi_values(self, S: np.ndarray) -> np.ndarray:
        lin = S @ self.R.T
        quad = lin + 0.5 * self._quad_terms(S)
        return np.maximum(quad.max(axis=1), lin.max(axis=1))


@functools.lru_cache(maxsize=None)
def _fixed_directions(n: int) -> np.ndarray:
    rng = np.random.default_rng(0)
    d = rng.standard_normal((8, n))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def _project(S: np.ndarray, radius: float, box_shift) -> np.ndarray:
    """Feasible-point map: clip to the box shift, then scale into the ball."""
    if box_shift is not None:
        S = np.clip(S, box_shift[0], box_shift[1])
    norms = np.linalg.norm(S, axis=1)
    over = norms > radius
    if np.any(over):
        S = S.copy()
        S[over] *= (radius / norms[over])[:, None]
    return S


def _scaled_ftol(branches: _Branches, radius: float) -> float:
    """_SLSQP_FTOL times max(1, a bound on |phi| over the ball).

    On the ball, |r_b.s| <= |r_b| radius and |s^T WH_b s| <= |WH_b|_F
    radius^2, so max_b |r_b| radius + max_b |WH_b|_F radius^2 / 2 bounds
    every branch.
    """
    n_b = len(branches.R)
    lin = np.linalg.norm(branches.R, axis=1).max()
    quad = np.linalg.norm(branches.WH.reshape(n_b, -1), axis=1).max()
    return _SLSQP_FTOL * max(1.0, lin * radius + 0.5 * quad * radius * radius)


def _epigraph_slsqp(branches: _Branches, starts: np.ndarray, phi0: np.ndarray, radius: float,
                    lower: np.ndarray, upper: np.ndarray,
                    ftol: float) -> tuple[np.ndarray, tuple]:
    """SLSQP on the epigraph form of min phi, once from each start.

    Minimizes tau over z = (s, tau) subject to tau >= q_b(s) and
    tau >= lin_b(s) for every branch b, s.s <= radius^2 and lower <= s <=
    upper, stopping at SLSQP's ``ftol``.  Returns the end points s and one
    (exit mode, iterations) pair per start.  The end points may violate the
    constraints by round-off, so the caller projects them.

    The loop is scipy 1.17's ``_slsqp_py._minimize_slsqp`` with the wrapper
    work taken out: the objective is tau, so f = z[n] and its gradient is
    the constant e_tau; the tau column and the -R rows of the constraint
    Jacobian C are constant and written once; a gradient request (mode -1)
    refills the curvature rows and the ball row, a function request (mode 1)
    the constraint values d, with the expressions of the ``minimize`` form.
    A gradient request comes at the point of the function request before
    it, so the two share one stacked product sym @ s, recomputed whenever
    s changes.
    """
    R = branches.R
    n_b, n = R.shape
    sym = 0.5 * (branches.WH + branches.WH.transpose(0, 2, 1))
    r2 = radius * radius
    m, nz = 2 * n_b + 1, n + 1
    g = np.zeros(nz)
    g[n] = 1.0
    # tau is unbounded: +-inf when clipping the start, NaN for the core
    lo, hi = np.append(lower, -np.inf), np.append(upper, np.inf)
    xl, xu = np.append(lower, np.nan), np.append(upper, np.nan)
    C = np.zeros((m, nz), order="F")
    C[n_b:2 * n_b, :n] = -R
    C[:2 * n_b, n] = 1.0
    d = np.zeros(m)
    # _minimize_slsqp's worst-case workspace with meq = 0 and mieq = m > 0,
    # and its index and multiplier arrays of m + 2 nz + 2 (scipy 1.17.1,
    # _slsqp_py.py, lines 481-509)
    n_work = nz * (nz + 1) // 2 + 3 * m * nz + 9 * m + 8 * nz * nz + 35 * nz + 28

    last = [None, None]  # the bytes of the last s and its sym @ s

    def sym_s(s):
        key = s.tobytes()
        if key != last[0]:
            last[:] = key, sym @ s
        return last[1]

    def normals(z):
        s = z[:n]
        C[:n_b, :n] = -(R + sym_s(s))
        C[-1, :n] = -2.0 * s

    def values(z):
        s, tau = z[:n], z[n]
        lin = R @ s
        d[:n_b] = tau - lin - 0.5 * (sym_s(s) @ s)
        d[n_b:2 * n_b] = tau - lin
        d[-1] = r2 - s @ s

    ends, statuses = [], []
    for s0, t0 in zip(starts, phi0):
        z = np.clip(np.append(s0, t0), lo, hi)
        state = {"acc": ftol, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0,
                 "h2": 0.0, "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0,
                 "tol": 10.0 * ftol, "exact": 0, "inconsistent": 0, "reset": 0,
                 "iter": 0, "itermax": _SLSQP_MAXITER, "line": 0, "m": m, "meq": 0,
                 "mode": 0, "n": nz}
        mult = np.zeros(m + 2 * nz + 2)
        indices = np.zeros(m + 2 * nz + 2, dtype=np.int32)
        work = np.zeros(n_work)
        fz = z[n]
        values(z)
        normals(z)
        while True:
            _slsqp(state, fz, g, C, d, z, mult, xl, xu, work, indices)
            mode = state["mode"]
            if mode == 1:
                fz = z[n]
                values(z)
            elif mode == -1:
                normals(z)
            else:
                break
        ends.append(z[:n])
        statuses.append((mode, state["iter"]))
    return np.array(ends), tuple(statuses)


@dataclass(frozen=True)
class InnerResult:
    """Step s and value t; ``statuses`` holds one (SLSQP exit mode,
    iterations) pair per distinct start solved (empty at radius 0 or when
    ``inner_minimax``'s first-order bound decided the stop test): at most
    ``_N_STARTS``, or ``2 * _N_STARTS`` when none of the first
    ``_N_STARTS`` solves ended on mode 0."""

    s: np.ndarray
    t: float
    statuses: tuple = ()


def inner_minimax(models: ModelSet, cone: Cone, radius: float, box_shift=None, *,
                  stop_tol: float | None = None) -> InnerResult:
    """Minimize phi over the ball of the given radius and the box shift.

    Deterministic: projects the cheap starts (0, the ball point of steepest
    descent of every distinct linear branch, 8 fixed directions), drops the
    bitwise repeats among them, runs the epigraph SLSQP solve from the 2
    with the lowest phi at the scaled ftol of ``_scaled_ftol`` (and from the
    next 2 when neither solve ends on mode 0), projects the end points and
    returns the lowest phi among them and the best start, with each solve's
    SLSQP exit mode and iteration count.  Always returns a feasible s with
    phi(s) <= phi(0) = 0.

    With ``stop_tol`` (``run`` passes its eps), it returns s = 0, t = phi(0)
    = 0 and no statuses without solving when radius |p*| < stop_tol, p* the
    min-norm point of the hull of the branch rows r_b: on the ball phi(s) >=
    max_b r_b.s >= p*.s >= -radius |p*|, so the solve would give |t| <
    stop_tol too.
    """
    if not (np.all(np.isfinite(models.G)) and np.all(np.isfinite(models.H))):
        raise InnerSolveFailure("non-finite model data")
    n = models.G.shape[2]
    if radius <= 0.0:
        return InnerResult(np.zeros(n), 0.0)
    branches = _Branches.build(models, cone)
    # the margin keeps the bound strict under round-off in |p*|
    if stop_tol is not None and \
            radius * np.linalg.norm(min_norm_point(branches.R)) < stop_tol * (1.0 - 1e-9):
        return InnerResult(np.zeros(n), 0.0)

    norms = np.linalg.norm(branches.R, axis=1)
    moving = norms > 0.0
    starts = np.concatenate([np.zeros((1, n)),
                             -radius * branches.R[moving] / norms[moving, None],
                             radius * _fixed_directions(n)])
    S = _project(starts, radius, box_shift)
    S = S[_first_of_each(S)]
    phi = branches.phi_values(S)
    order = np.argsort(phi, kind="stable")[:2 * _N_STARTS]
    S, phi = S[order], phi[order]

    lower, upper = np.full(n, -radius), np.full(n, radius)
    if box_shift is not None:
        lower, upper = np.maximum(lower, box_shift[0]), np.minimum(upper, box_shift[1])
    ftol = _scaled_ftol(branches, radius)
    ends, statuses = _epigraph_slsqp(branches, S[:_N_STARTS], phi[:_N_STARTS], radius,
                                     lower, upper, ftol)
    if len(S) > _N_STARTS and all(mode != 0 for mode, _ in statuses):
        # no solve converged, so its end points say little: try the next starts
        more, more_statuses = _epigraph_slsqp(branches, S[_N_STARTS:], phi[_N_STARTS:], radius,
                                              lower, upper, ftol)
        ends, statuses = np.concatenate([ends, more]), statuses + more_statuses
    cand = np.concatenate([S[:1], _project(ends, radius, box_shift)])
    vals = branches.phi_values(cand)
    k = int(np.nanargmin(vals))
    if not np.isfinite(vals[k]):
        raise InnerSolveFailure("non-finite subproblem value")
    return InnerResult(cand[k], float(vals[k]), statuses)


def theta_and_step(problem: SetValuedProblem, cone: Cone, x, structure: MinimalStructure,
                   radius: float, derivatives, box=None, *,
                   stop_tol: float | None = None) -> SubproblemSolution:
    """Solve the inner problem for the partition elements, keep the best.

    ``derivatives`` is the family's (Jacobians, Hessians) bundle at x, as
    ``problems.derivatives_all`` returns it; the caller owns its caching.
    ``best_tuple`` picks the tuple: the least t, ties to the earliest tuple
    in lexicographic order, one tuple for an offset family.  A tuple whose
    ``inner_minimax`` raises ``InnerSolveFailure`` counts as t = +inf, so it
    never wins; when no tuple is solved, ``InnerSolveFailure`` is raised.
    ``stop_tol`` goes to each ``inner_minimax`` call; a tuple it skips has
    t = 0 > -stop_tol, so it never wins over a tuple that would go on.
    """
    x = np.asarray(x, dtype=float).reshape(problem.n)
    jac_all, hess_all = derivatives
    box_shift = None
    if box is not None:
        box_shift = (np.asarray(box[0], float) - x, np.asarray(box[1], float) - x)

    def solve(a):
        idx = [ai - 1 for ai in a]
        models = ModelSet(G=jac_all[idx], H=hess_all[idx])
        try:
            res = inner_minimax(models, cone, radius, box_shift, stop_tol=stop_tol)
        except InnerSolveFailure as exc:
            return np.inf, None, None, exc
        return res.t, res.s, models, None

    a_star, (t_star, s_star, models, failure) = best_tuple(problem, structure, solve)
    if failure is not None:
        raise InnerSolveFailure(f"no partition tuple solved at x={x.tolist()}: {failure}")
    if t_star > 0.0:
        log.debug("clamping positive subproblem value %.3e to 0", t_star)
        t_star = 0.0
    return SubproblemSolution(a_star=a_star, s_star=s_star, t_star=t_star, models=models)


def criticality_value(problem: SetValuedProblem, cone: Cone, x, structure: MinimalStructure,
                      radius: float = 1.0) -> SubproblemSolution:
    """Criticality certificate: the subproblem without box rows at a fixed radius.

    The sign of the optimal value does not depend on the radius; the fixed
    radius pins the scale so that a tolerance test |t| < eps is meaningful.
    ``run()`` does not stop on this value.  Its one stop test |t| < eps
    reads, for the trust-region variants, the box-constrained value at the
    current radius, which can vanish at a point that this certificate shows
    is not critical (a box wall, or a collapsed radius); for SD and CG it
    reads -|v| of the box-free steepest-descent direction.  It passes no
    ``stop_tol``, so every value it returns is a full solve's.  Non-finite
    derivatives raise ``DomainError``, and a point where no tuple is solved
    ``InnerSolveFailure``.
    """
    return theta_and_step(problem, cone, x, structure, radius,
                          problems.derivatives_all(problem, x))
