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
the 4 best of a fixed set of cheap starts; the end points are projected
onto the feasible set and phi is evaluated there again.  The branches are
max-of-quadratics and may be nonconvex, hence the multistart; the contract
is feasibility plus phi(s) <= 0, not global optimality.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .cone import Cone
from .partition import MinimalStructure, partition_iter
from .problems import DerivativeTable, SetValuedProblem

log = logging.getLogger(__name__)

_N_STARTS = 4
# ftol is absolute and also bounds the constraint violation, which round-off
# keeps above it when branch values are large; such solves settle in ~20 steps.
_SLSQP_MAXITER = 30
_SLSQP_FTOL = 1e-12


class InnerSolveFailure(RuntimeError):
    """The inner solver met non-finite model data."""


@dataclass(frozen=True)
class ModelSet:
    """Gradient blocks (omega, m, n) and Hessian blocks (omega, m, n, n)."""

    G: np.ndarray
    H: np.ndarray

    @property
    def omega(self) -> int:
        return self.G.shape[0]

    def value(self, j: int, s: np.ndarray) -> np.ndarray:
        """Model increment m^j(s) in R^m; m^j(0) = 0."""
        return self.G[j] @ s + 0.5 * np.einsum("rab,a,b->r", self.H[j], s, s)


@dataclass
class SubproblemSolution:
    """Winning tuple a*, trial step s*, and criticality value t* <= 0."""

    a_star: tuple
    s_star: np.ndarray
    t_star: float
    feasible: bool
    models: ModelSet | None = field(default=None, repr=False)


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
        w = cone.dual_normals
        n = models.G.shape[2]
        rows = np.einsum("lm,jmn->jln", w, models.G).reshape(-1, n)
        wh = np.einsum("lr,jrab->jlab", w, models.H).reshape(-1, n, n)
        key = np.concatenate([rows, wh.reshape(len(rows), -1)], axis=1).view(np.uint64)
        _, first = np.unique(key, axis=0, return_index=True)
        keep = np.sort(first)
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


def _epigraph_slsqp(branches: _Branches, starts: np.ndarray, phi0: np.ndarray,
                    radius: float, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """SLSQP on the epigraph form of min phi, once from each start.

    Minimizes tau over z = (s, tau) subject to tau >= q_b(s) and
    tau >= lin_b(s) for every branch b, s.s <= radius^2 and lower <= s <=
    upper.  The end points may violate the constraints by round-off, so the
    caller projects them.
    """
    R = branches.R
    n_b, n = R.shape
    sym = 0.5 * (branches.WH + branches.WH.transpose(0, 2, 1))
    r2 = radius * radius
    e_tau = np.zeros(n + 1)
    e_tau[n] = 1.0

    def cons(z):
        s, tau = z[:n], z[n]
        lin = R @ s
        return np.concatenate([tau - lin - 0.5 * ((sym @ s) @ s), tau - lin, [r2 - s @ s]])

    def cons_jac(z):
        s = z[:n]
        jac = np.zeros((2 * n_b + 1, n + 1))
        jac[:n_b, :n] = -(R + sym @ s)
        jac[n_b:2 * n_b, :n] = -R
        jac[:2 * n_b, n] = 1.0
        jac[-1, :n] = -2.0 * s
        return jac

    bounds = [*zip(lower, upper), (None, None)]
    constraints = {"type": "ineq", "fun": cons, "jac": cons_jac}
    options = {"maxiter": _SLSQP_MAXITER, "ftol": _SLSQP_FTOL}
    return np.array([minimize(lambda z: z[n], np.append(s0, t0), jac=lambda z: e_tau,
                              method="SLSQP", bounds=bounds, constraints=constraints,
                              options=options).x[:n]
                     for s0, t0 in zip(starts, phi0)])


@dataclass(frozen=True)
class InnerResult:
    s: np.ndarray
    t: float


def inner_minimax(models: ModelSet, cone: Cone, radius: float, box_shift=None) -> InnerResult:
    """Minimize phi over the ball of the given radius and the box shift.

    Deterministic: projects the cheap starts (0, the ball point of steepest
    descent of every distinct linear branch, 8 fixed directions), runs the
    epigraph SLSQP solve from the 4 with the lowest phi, projects the end
    points and returns the lowest phi among them and the best start.
    Always returns a feasible s with phi(s) <= phi(0) = 0.
    """
    if not (np.all(np.isfinite(models.G)) and np.all(np.isfinite(models.H))):
        raise InnerSolveFailure("non-finite model data")
    n = models.G.shape[2]
    if radius <= 0.0:
        return InnerResult(np.zeros(n), 0.0)
    branches = _Branches.build(models, cone)

    norms = np.linalg.norm(branches.R, axis=1)
    moving = norms > 0.0
    starts = np.concatenate([np.zeros((1, n)),
                             -radius * branches.R[moving] / norms[moving, None],
                             radius * _fixed_directions(n)])
    S = _project(starts, radius, box_shift)
    phi = branches.phi_values(S)
    order = np.argsort(phi, kind="stable")[:_N_STARTS]
    S, phi = S[order], phi[order]

    lower, upper = np.full(n, -radius), np.full(n, radius)
    if box_shift is not None:
        lower, upper = np.maximum(lower, box_shift[0]), np.minimum(upper, box_shift[1])
    ends = _epigraph_slsqp(branches, S, phi, radius, lower, upper)
    cand = np.concatenate([S[:1], _project(ends, radius, box_shift)])
    vals = branches.phi_values(cand)
    k = int(np.nanargmin(vals))
    if not np.isfinite(vals[k]):
        raise InnerSolveFailure("non-finite subproblem value")
    return InnerResult(cand[k], float(vals[k]))


def predicted_reduction(models: ModelSet, cone: Cone, j: int, s: np.ndarray) -> float:
    """Scalarized model decrease of block j: Delta(m^j(0) - m^j(s))."""
    return cone.scalarize(-models.value(j, np.asarray(s, dtype=float)))


def theta_and_step(problem: SetValuedProblem, cone: Cone, x, structure: MinimalStructure,
                   radius: float, box=None,
                   table: DerivativeTable | None = None) -> SubproblemSolution:
    """Solve the inner problem for every partition element, keep the best.

    Ties within 1e-12 of the best value resolve to the earliest tuple in
    lexicographic order.  A per-tuple inner failure contributes (s=0, t=0)
    so it never fabricates descent; the result is marked infeasible only
    when every tuple fails.
    """
    x = np.asarray(x, dtype=float).reshape(problem.n)
    if table is None:
        table = DerivativeTable(problem)
    jac_all, hess_all = table.bundle_arrays(x)
    box_shift = None
    if box is not None:
        box_shift = (np.asarray(box[0], float) - x, np.asarray(box[1], float) - x)

    best = None
    any_ok = False
    for a in partition_iter(structure):
        idx = [ai - 1 for ai in a]
        models = ModelSet(G=jac_all[idx], H=hess_all[idx])
        try:
            res = inner_minimax(models, cone, radius, box_shift)
            ok = True
        except InnerSolveFailure:
            res = InnerResult(np.zeros(problem.n), 0.0)
            ok = False
        any_ok = any_ok or ok
        if best is None or res.t < best[1] - 1e-12:
            best = (a, res.t, res.s, models)
    a_star, t_star, s_star, models = best
    if t_star > 0.0:
        log.debug("clamping positive subproblem value %.3e to 0", t_star)
        t_star = 0.0
    return SubproblemSolution(a_star=tuple(a_star), s_star=s_star, t_star=t_star,
                              feasible=any_ok, models=models)


def criticality_value(problem: SetValuedProblem, cone: Cone, x, structure: MinimalStructure,
                      radius: float = 1.0,
                      table: DerivativeTable | None = None) -> SubproblemSolution:
    """Criticality certificate: the subproblem without box rows at a fixed radius.

    The sign of the optimal value does not depend on the radius; the fixed
    radius pins the scale so that a tolerance test |t| < eps is meaningful.
    ``run()`` does not stop on this value: it stops on the box-constrained
    value at the current radius, which can vanish at a point that this
    certificate shows is not critical (a box wall, or a collapsed radius).
    """
    return theta_and_step(problem, cone, x, structure, radius, box=None, table=table)
