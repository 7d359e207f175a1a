"""Quadratic models, the criticality value, and the min-max trial step.

For a partition element a the models are m^j(s) = G_j s + (1/2) s^T H_j s
per component.  The trial step minimizes

    phi(s) = max over j and dual normals w of { w^T m^j(s), w^T (G_j s) }

over the trust ball intersected with the box shift.  phi(0) = 0, so the
optimal value t is never positive; t < 0 certifies that the current point
is not critical and s is a common descent direction for every selected
objective.

The inner solver runs four deterministic stages: a multistart projected
subgradient method (geometric step schedule), seeded for n <= 3 with the
best points of a coarse grid over the ball; a polish of the best few
points by exact line searches along the coordinates and the last move;
and for n = 2 a golden-section sweep of the trust-ball rim.  Each stage
lowers t on some real calls, so none is redundant.  The constraints are
max-of-quadratics and may be nonconvex; the contract is feasibility plus
phi(s) <= 0, not global optimality.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import dataclass, field

import numpy as np

from .cone import Cone
from .partition import MinimalStructure, partition_iter
from .problems import DerivativeTable, SetValuedProblem

log = logging.getLogger(__name__)

_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


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
    together) is kept once, at its first position, so phi, its subgradients
    and the starts built from R are the same as on the full stack.
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

    def phi(self, S: np.ndarray):
        """phi and one subgradient per row of the (k, n) batch S."""
        lin = S @ self.R.T
        quad = lin + 0.5 * self._quad_terms(S)
        vals = np.concatenate([quad, lin], axis=1)
        idx = np.argmax(vals, axis=1)
        phi = vals[np.arange(len(S)), idx]
        b = idx % self.R.shape[0]
        grads = self.R[b].copy()
        is_quad = idx < self.R.shape[0]
        if np.any(is_quad):
            sel = np.nonzero(is_quad)[0]
            grads[sel] += np.einsum("kij,kj->ki", self.WH[b[sel]], S[sel])
        return phi, grads

    def phi_values(self, S: np.ndarray) -> np.ndarray:
        lin = S @ self.R.T
        quad = lin + 0.5 * self._quad_terms(S)
        return np.maximum(quad.max(axis=1), lin.max(axis=1))

    def phi_single(self, s: np.ndarray) -> float:
        return float(self.phi_values(s[None, :])[0])


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


def _line_interval(s: np.ndarray, d: np.ndarray, radius: float, box_shift):
    """Feasible step range [tl, tu] for s + t d inside ball and box."""
    dd = float(d @ d)
    sd = float(s @ d)
    disc = sd * sd - dd * (float(s @ s) - radius ** 2)
    if dd <= 0.0 or disc < 0.0:
        return 0.0, 0.0
    root = np.sqrt(disc)
    tl, tu = (-sd - root) / dd, (-sd + root) / dd
    if box_shift is not None:
        for i in range(s.size):
            if d[i] > 0.0:
                tl = max(tl, (box_shift[0][i] - s[i]) / d[i])
                tu = min(tu, (box_shift[1][i] - s[i]) / d[i])
            elif d[i] < 0.0:
                tl = max(tl, (box_shift[1][i] - s[i]) / d[i])
                tu = min(tu, (box_shift[0][i] - s[i]) / d[i])
    return tl, tu


def _golden_section(f, lo_t: float, hi_t: float, n_iter: int):
    """Golden-section refinement of f on [lo_t, hi_t]; returns the two
    final probes as (f, t) pairs."""
    x1 = hi_t - _INV_PHI * (hi_t - lo_t)
    x2 = lo_t + _INV_PHI * (hi_t - lo_t)
    f1, f2 = f(x1), f(x2)
    for _ in range(n_iter):
        if f1 <= f2:
            hi_t, x2, f2 = x2, x1, f1
            x1 = hi_t - _INV_PHI * (hi_t - lo_t)
            f1 = f(x1)
        else:
            lo_t, x1, f1 = x1, x2, f2
            x2 = lo_t + _INV_PHI * (hi_t - lo_t)
            f2 = f(x2)
    return (f1, x1), (f2, x2)


def _line_search(branches: _Branches, s: np.ndarray, d: np.ndarray,
                 radius: float, box_shift):
    """Global 1-D minimization of phi along s + t d over the feasible range.

    Along a line every branch is a quadratic in t, so the scan evaluates
    all branch vertices plus a dense sample and polishes the best bracket
    by golden section.  Returns (t_best, phi_best).
    """
    tl, tu = _line_interval(s, d, radius, box_shift)
    if not (tu - tl > 0.0 and np.isfinite(tl) and np.isfinite(tu)):
        return 0.0, branches.phi_single(s)
    lin_s = branches.R @ s
    whs = branches.WH @ s
    quad_s = lin_s + 0.5 * (s @ whs.T)
    rd = branches.R @ d
    a = np.concatenate([0.5 * (d @ (branches.WH @ d).T), np.zeros(len(rd))])
    b = np.concatenate([rd + whs @ d, rd])
    c = np.concatenate([quad_s, lin_s])

    def f(t):
        return float(np.max((a * t + b) * t + c))

    with np.errstate(divide="ignore", invalid="ignore"):
        verts = np.where(a > 0.0, -b / (2.0 * a), np.nan)
    cand = np.concatenate([np.linspace(tl, tu, 65), verts[np.isfinite(verts)], [0.0]])
    cand = np.clip(cand, tl, tu)
    vals = np.max((a[:, None] * cand + b[:, None]) * cand + c[:, None], axis=0)
    k = int(np.argmin(vals))
    t0, f0 = float(cand[k]), float(vals[k])
    cell = (tu - tl) / 64.0
    probes = _golden_section(f, max(tl, t0 - cell), min(tu, t0 + cell), 40)
    best = min([(f0, t0), *probes], key=lambda p: p[0])
    return best[1], best[0]


def _polish(branches: _Branches, s: np.ndarray, radius: float, box_shift,
            max_sweeps: int):
    """Iterated line searches along coordinates and the recent move."""
    n = s.size
    s = s.copy()
    phi_s = branches.phi_single(s)
    eye = np.eye(n)
    for _ in range(max_sweeps):
        s_before = s.copy()
        improved = False
        for i in range(n):
            t, val = _line_search(branches, s, eye[i], radius, box_shift)
            if val < phi_s - 1e-15 and t != 0.0:
                s[i] += t
                phi_s = val
                improved = True
        move = s - s_before
        if np.linalg.norm(move) > 0.0:
            t, val = _line_search(branches, s, move, radius, box_shift)
            if val < phi_s - 1e-15 and t != 0.0:
                s = s + t * move
                phi_s = val
                improved = True
        if not improved:
            break
    return s, phi_s


def _rim_sweep(branches: _Branches, radius: float, box_shift):
    """For n = 2, scan the projected trust-ball rim over the angle."""
    theta = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
    pts = radius * np.column_stack([np.cos(theta), np.sin(theta)])
    pts = _project(pts, radius, box_shift)
    vals = branches.phi_values(pts)
    k = int(np.argmin(vals))

    def f(t):
        p = _project(radius * np.array([[np.cos(t), np.sin(t)]]), radius, box_shift)
        return float(branches.phi_values(p)[0])

    cell = 2.0 * np.pi / 256.0
    probes = _golden_section(f, theta[k] - cell, theta[k] + cell, 30)
    val, ang = min([(float(vals[k]), theta[k]), *probes], key=lambda p: p[0])
    s = _project(radius * np.array([[np.cos(ang), np.sin(ang)]]), radius, box_shift)[0]
    return s, val


def _grid_seeds(branches: _Branches, radius: float, box_shift, n: int, top: int = 12):
    """Coarse feasible grid scan; returns the best few points as seeds."""
    per_axis = 41 if n == 2 else 13
    axes = [np.linspace(-radius, radius, per_axis)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in mesh])
    pts = pts[np.linalg.norm(pts, axis=1) <= radius]
    if box_shift is not None:
        pts = pts[np.all(pts >= box_shift[0], axis=1) & np.all(pts <= box_shift[1], axis=1)]
    if len(pts) == 0:
        return np.empty((0, n))
    vals = branches.phi_values(pts)
    order = np.argsort(vals, kind="stable")[:top]
    return pts[order]


@dataclass(frozen=True)
class InnerResult:
    s: np.ndarray
    t: float


def inner_minimax(models: ModelSet, cone: Cone, radius: float, box_shift=None) -> InnerResult:
    """Minimize phi over the ball of the given radius and the box shift.

    Deterministic: starts at 0, at the ball point of steepest descent of
    every linear branch, along 8 fixed directions and, for n <= 3, at the
    best grid points; then runs 200 steps of the projected subgradient
    schedule (radius/4, factor 0.7), polishes the best 3 points (n <= 3,
    5 sweeps) or the best point (2 sweeps), and for n = 2 sweeps the rim.
    Always returns phi(s) <= phi(0) = 0.
    """
    if not (np.all(np.isfinite(models.G)) and np.all(np.isfinite(models.H))):
        raise InnerSolveFailure("non-finite model data")
    n = models.G.shape[2]
    if radius <= 0.0:
        return InnerResult(np.zeros(n), 0.0)
    branches = _Branches.build(models, cone)

    starts = [np.zeros(n)]
    norms = np.linalg.norm(branches.R, axis=1)
    for row, nrm in zip(branches.R, norms):
        if nrm > 0.0:
            starts.append(-radius * row / nrm)
    starts.extend(radius * d for d in _fixed_directions(n))
    if n <= 3:
        starts.extend(_grid_seeds(branches, radius, box_shift, n))
    S = _project(np.array(starts), radius, box_shift)

    best_phi = branches.phi_values(S)
    best_S = S.copy()
    alpha = radius / 4.0
    for _ in range(200):
        if alpha < 1e-12 * radius:
            break  # remaining moves are below float resolution
        phi, grads = branches.phi(S)
        improved = phi < best_phi
        best_phi = np.where(improved, phi, best_phi)
        best_S[improved] = S[improved]
        gnorm = np.linalg.norm(grads, axis=1)
        move = gnorm > 0.0
        S = S - alpha * np.where(move[:, None], grads / np.maximum(gnorm, 1e-300)[:, None], 0.0)
        S = _project(S, radius, box_shift)
        alpha *= 0.7
    phi = branches.phi_values(S)
    improved = phi < best_phi
    best_phi = np.where(improved, phi, best_phi)
    best_S[improved] = S[improved]

    order = np.argsort(best_phi, kind="stable")
    n_polish = 3 if n <= 3 else 1
    max_sweeps = 5 if n <= 3 else 2
    picked: list[np.ndarray] = []
    for k in order:
        if len(picked) == n_polish:
            break
        if all(np.linalg.norm(best_S[k] - q) > 1e-9 * (1.0 + radius) for q in picked):
            picked.append(best_S[k])
    s_best = best_S[order[0]]
    t_best = float(best_phi[order[0]])
    for cand in picked:
        s_c, t_c = _polish(branches, cand, radius, box_shift, max_sweeps)
        if t_c < t_best:
            s_best, t_best = s_c, t_c
    if n == 2:
        s_r, t_r = _rim_sweep(branches, radius, box_shift)
        if t_r < t_best:
            s_best, t_best = s_r, t_r
    if not np.isfinite(t_best):
        raise InnerSolveFailure("non-finite subproblem value")
    return InnerResult(s_best, t_best)


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
