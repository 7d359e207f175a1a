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
a test keeps that ``minimize`` form as the reference.  One loop answers
the core's requests: it writes the constraint values and normals into
preallocated views with ``out=`` ufuncs, and its products R s, (sym s) s
and s.s are ``ndarray.dot``, bit for bit the ``@`` of the ``minimize``
form.  The stacked product sym @ s stays ``@``: ``dot`` of the 3-D stack,
or of one matrix stacking R and sym, rounds differently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import problems
from ._scipy_core import min_norm_point, slsqp as _slsqp
from .cone import Cone
from .partition import MinimalStructure, best_tuple
from .problems import SetValuedProblem, derivative_rows

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
    """Gradient blocks (b, m, n) and Hessian blocks (b, m, n, n), one per
    derivative row of a tuple: b = omega, or 1 for an offset family."""

    G: np.ndarray
    H: np.ndarray

    def values(self, s: np.ndarray) -> np.ndarray:
        """Model increments m^j(s) = G_j s + s^T H_j s / 2 of every block,
        (b, m); m^j(0) = 0."""
        return self.G @ s + 0.5 * np.einsum("jrab,a,b->jr", self.H, s, s)


def scalarized_rows(cone: Cone, G: np.ndarray) -> np.ndarray:
    """Rows w^T G_j (omega * q, n) for every block j and dual normal w."""
    return np.einsum("lm,jmn->jln", cone.dual_normals, G).reshape(-1, G.shape[2])


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows in lexicographic order, as ``np.unique(rows, axis=0)``
    gives them but without its structured-dtype sort: a stable sort, then
    each row equal (==) to the one before it is dropped.  Of two rows equal
    up to signed zeros the first in ``rows`` stays."""
    R = rows[np.lexsort(rows.T[::-1])]
    return R[np.concatenate(([True], (R[1:] != R[:-1]).any(axis=1)))]


def first_order(rows: np.ndarray):
    """Steepest-descent direction v and value of min_s max(rows @ s) + ||s||^2 / 2.

    v = -p with p the min-norm element of conv(rows) (Fliege & Svaiter
    2000), so val = -||v||^2 / 2; p is ``min_norm_point`` of the distinct
    rows.  SD/CG stop on |v|, and ``theta_and_step``'s bound reads it."""
    R = _distinct_rows(rows)
    # 0.0 - p, not -p: an entry that cancels is +0.0 in -R^T lam, never -0.0
    v = 0.0 - min_norm_point(R)
    val = float((R @ v).max() + 0.5 * v @ v)
    return v, val


@dataclass
class SubproblemSolution:
    """Winning tuple a*, trial step s*, criticality value t* <= 0, and the
    models of a*'s derivative rows (``problems.derivative_rows``): one block
    per member of a, or one block in all for an offset family, whose
    members share it."""

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


def _norm(v: np.ndarray) -> float:
    """|v| of a 1-D float vector: ``np.linalg.norm``'s sqrt(v . v), without
    its wrapper."""
    return math.sqrt(v.dot(v))


def _row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a 2-D array, as ``np.linalg.norm(A,
    axis=1)`` computes them, without its wrapper."""
    return np.sqrt(np.add.reduce(A * A, axis=1))


def _project(S: np.ndarray, radius: float, box_shift) -> np.ndarray:
    """Feasible-point map: clip to the box shift, then scale into the ball."""
    if box_shift is not None:
        S = S.clip(box_shift[0], box_shift[1])
    norms = _row_norms(S)
    over = norms > radius
    if over.any():
        S = S.copy()
        S[over] *= (radius / norms[over])[:, None]
    return S


def _scaled_ftol(branches: _Branches, row_norms: np.ndarray, radius: float) -> float:
    """_SLSQP_FTOL times max(1, a bound on |phi| over the ball).

    On the ball, |r_b.s| <= |r_b| radius and |s^T WH_b s| <= |WH_b|_F
    radius^2, so max_b |r_b| radius + max_b |WH_b|_F radius^2 / 2 bounds
    every branch; ``row_norms`` are the |r_b|.
    """
    lin = row_norms.max()
    quad = _row_norms(branches.WH.reshape(len(row_norms), -1)).max()
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
    work taken out, and its callbacks written into the loop body.  The
    objective is tau, so f = z[n] and its gradient is the constant e_tau;
    the bounds, the tau column and the -R rows of the constraint Jacobian C
    are constant and written once per call.  A function request (mode 1)
    refills the constraint values d, a gradient request (mode -1) the
    curvature rows and the ball row of C, each through ufuncs with ``out=``
    into views of d and C and with the expressions of the ``minimize`` form.
    R s, (sym s) s and s.s are ``ndarray.dot``, which gives the bits of
    ``@`` here; the stacked product sym @ s stays ``@``, because ``dot`` of
    the 3-D stack (or one matrix stacking R and sym) rounds differently.  A
    gradient request comes at the point of the function request before it,
    so the two share one sym @ s, recomputed whenever s changes.
    """
    R = branches.R
    n_b, n = R.shape
    sym = 0.5 * (branches.WH + branches.WH.transpose(0, 2, 1))
    r2 = radius * radius
    m, nz = 2 * n_b + 1, n + 1
    g = np.zeros(nz)
    g[n] = 1.0
    # tau is unbounded, which the core reads from NaN bounds
    xl, xu = np.empty(nz), np.empty(nz)
    xl[:n], xu[:n] = lower, upper
    xl[n] = xu[n] = np.nan
    C = np.zeros((m, nz), order="F")
    C[n_b:2 * n_b, :n] = -R
    C[:2 * n_b, n] = 1.0
    d = np.zeros(m)
    curv, ball = C[:n_b, :n], C[-1, :n]
    d_quad, d_lin = d[:n_b], d[n_b:2 * n_b]
    # _minimize_slsqp's worst-case workspace with meq = 0 and mieq = m > 0,
    # and its index and multiplier arrays of m + 2 nz + 2 (scipy 1.17.1,
    # _slsqp_py.py, lines 481-509)
    n_work = nz * (nz + 1) // 2 + 3 * m * nz + 9 * m + 8 * nz * nz + 35 * nz + 28
    # one row z = (s, tau) per start, the start clipped to the bounds
    Z = np.empty((len(starts), nz))
    starts.clip(lower, upper, out=Z[:, :n])
    Z[:, n] = phi0

    statuses = []
    for z in Z:
        s = z[:n]
        state = {"acc": ftol, "alpha": 0.0, "f0": 0.0, "gs": 0.0, "h1": 0.0,
                 "h2": 0.0, "h3": 0.0, "h4": 0.0, "t": 0.0, "t0": 0.0,
                 "tol": 10.0 * ftol, "exact": 0, "inconsistent": 0, "reset": 0,
                 "iter": 0, "itermax": _SLSQP_MAXITER, "line": 0, "m": m, "meq": 0,
                 "mode": 0, "n": nz}
        mult = np.zeros(m + 2 * nz + 2)
        indices = np.zeros(m + 2 * nz + 2, dtype=np.int32)
        work = np.zeros(n_work)
        mode = 0  # at the start, fill d and C both
        while True:
            if mode != -1:
                fz = z[n]
                key, sym_s = s.tobytes(), sym @ s
                np.subtract(fz, R.dot(s), out=d_lin)
                np.subtract(d_lin, 0.5 * sym_s.dot(s), out=d_quad)
                d[-1] = r2 - s.dot(s)
            if mode != 1:
                if s.tobytes() != key:
                    key, sym_s = s.tobytes(), sym @ s
                np.add(R, sym_s, out=curv)
                np.negative(curv, out=curv)
                np.multiply(s, -2.0, out=ball)
            _slsqp(state, fz, g, C, d, z, mult, xl, xu, work, indices)
            mode = state["mode"]
            if mode != 1 and mode != -1:
                break
        statuses.append((mode, state["iter"]))
    return Z[:, :n], tuple(statuses)


@dataclass(frozen=True)
class InnerResult:
    """Step s and value t; ``statuses`` holds one (SLSQP exit mode,
    iterations) pair per distinct start solved (empty at radius 0 only): at
    most ``_N_STARTS``, or ``2 * _N_STARTS`` when none of the first
    ``_N_STARTS`` solves ended on mode 0."""

    s: np.ndarray
    t: float
    statuses: tuple = ()


def _require_finite(models: ModelSet) -> None:
    if not (np.isfinite(models.G).all() and np.isfinite(models.H).all()):
        raise InnerSolveFailure("non-finite model data")


def inner_minimax(models: ModelSet, cone: Cone, radius: float, box_shift=None) -> InnerResult:
    """Minimize phi over the ball of the given radius and the box shift.

    Deterministic: projects the cheap starts (0, the ball point of steepest
    descent of every distinct linear branch, 8 fixed directions), drops the
    bitwise repeats among them, runs the epigraph SLSQP solve from the 2
    with the lowest phi at the scaled ftol of ``_scaled_ftol`` (and from the
    next 2 when neither solve ends on mode 0), projects the end points and
    returns the lowest phi among them and the best start, with each solve's
    SLSQP exit mode and iteration count.  Always returns a feasible s with
    phi(s) <= phi(0) = 0; a NaN value never wins the pick, and when no
    candidate's value is finite ``InnerSolveFailure`` is raised, as for
    non-finite model data.  It always solves at a positive radius: the
    bound that can skip a solve is ``theta_and_step``'s."""
    _require_finite(models)
    n = models.G.shape[2]
    if radius <= 0.0:
        return InnerResult(np.zeros(n), 0.0)
    branches = _Branches.build(models, cone)

    norms = _row_norms(branches.R)
    moving = norms > 0.0
    starts = np.concatenate([np.zeros((1, n)),
                             -radius * branches.R[moving] / norms[moving, None],
                             radius * _fixed_directions(n)])
    S = _project(starts, radius, box_shift)
    S = S[_first_of_each(S)]
    phi = branches.phi_values(S)
    order = phi.argsort(kind="stable")[:2 * _N_STARTS]
    S, phi = S[order], phi[order]

    lower, upper = np.full(n, -radius), np.full(n, radius)
    if box_shift is not None:
        lower, upper = np.maximum(lower, box_shift[0]), np.minimum(upper, box_shift[1])
    ftol = _scaled_ftol(branches, norms, radius)
    ends, statuses = _epigraph_slsqp(branches, S[:_N_STARTS], phi[:_N_STARTS], radius,
                                     lower, upper, ftol)
    if len(S) > _N_STARTS and all(mode != 0 for mode, _ in statuses):
        # no solve converged, so its end points say little: try the next starts
        more, more_statuses = _epigraph_slsqp(branches, S[_N_STARTS:], phi[_N_STARTS:], radius,
                                              lower, upper, ftol)
        ends, statuses = np.concatenate([ends, more]), statuses + more_statuses
    cand = np.concatenate([S[:1], _project(ends, radius, box_shift)])
    vals = branches.phi_values(cand)
    # the least value, NaN read as +inf so that it never wins
    k = int(np.fmin(vals, np.inf).argmin())
    if not math.isfinite(vals[k]):
        raise InnerSolveFailure("non-finite subproblem value")
    return InnerResult(cand[k], float(vals[k]), statuses)


def theta_and_step(problem: SetValuedProblem, cone: Cone, x, structure: MinimalStructure,
                   radius: float, derivatives, box=None, *,
                   stop_tol: float | None = None) -> SubproblemSolution:
    """Solve the inner problem for the partition elements, keep the best.

    ``derivatives`` is the family's (Jacobians, Hessians) bundle at x, as
    ``problems.derivatives_all`` returns it; the caller owns its caching.
    A tuple's models take the bundle's ``derivative_rows``: in an offset
    family one block, not the omega equal ones the members share.
    ``best_tuple`` picks the tuple: the least t, ties to the earliest tuple
    in lexicographic order, one tuple for an offset family.  A tuple with
    non-finite models or values (``InnerSolveFailure``) counts as t = +inf,
    so it never wins; when no tuple is solved, ``InnerSolveFailure`` is
    raised.  With ``stop_tol`` (``run`` passes its eps) a tuple with finite
    models takes s = 0 and t = phi(0) = 0 without ``_Branches`` or a solve
    when radius |v| < stop_tol, v the ``first_order`` direction of its
    scalarized Jacobian rows: on the ball phi(s) >= max_b r_b.s >= -v.s >=
    -radius |v|, so the solve would give |t| < stop_tol too, and t = 0
    never wins over a tuple that would go on.  For x inside ``box`` the
    zero step is among every solve's candidates, so t* <= phi(0) = 0.
    """
    x = np.asarray(x, dtype=float).reshape(problem.n)
    jac_all, hess_all = derivatives
    box_shift = None
    if box is not None:
        box_shift = (np.asarray(box[0], float) - x, np.asarray(box[1], float) - x)

    def solve(a):
        rows = derivative_rows(problem, a)
        models = ModelSet(G=jac_all[rows], H=hess_all[rows])
        try:
            if stop_tol is not None:
                _require_finite(models)
                v, _ = first_order(scalarized_rows(cone, models.G))
                # the margin keeps the bound strict under round-off in |v|
                if radius * _norm(v) < stop_tol * (1.0 - 1e-9):
                    return 0.0, np.zeros(problem.n), models, None
            res = inner_minimax(models, cone, radius, box_shift)
        except InnerSolveFailure as exc:
            return np.inf, None, None, exc
        return res.t, res.s, models, None

    a_star, (t_star, s_star, models, failure) = best_tuple(problem, structure, solve)
    if failure is not None:
        raise InnerSolveFailure(f"no partition tuple solved at x={x.tolist()}: {failure}")
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
    ``stop_tol``, so every value it returns is a full solve's.  A radius
    that is not positive and finite, where t = 0 certifies nothing, raises
    ``ValueError``; non-finite derivatives ``DomainError``, and a point
    where no tuple is solved ``InnerSolveFailure``.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"need a positive finite radius, got {radius!r}")
    return theta_and_step(problem, cone, x, structure, radius,
                          problems.derivatives_all(problem, x))
