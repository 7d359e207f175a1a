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
own by ``_scipy_core`` at the first solve) without the ``minimize`` wrapper:
every input the core sees is bit for bit what ``minimize(method="SLSQP")``
would pass, and a test keeps that ``minimize`` form as the reference.  One
loop answers the core's requests: it writes the constraint values and
normals into preallocated views with ``out=`` ufuncs, and its products
R s, (sym s) s and s.s are ``ndarray.dot``, bit for bit the ``@`` of the
``minimize`` form.  The stacked product sym @ s stays ``@``: ``dot`` of the 3-D stack,
or of one matrix stacking R and sym, rounds differently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _scipy_core, problems
from ._qp import min_norm_point
from .cone import Cone
from .partition import MinimalStructure, best_tuple
from .problems import SetValuedProblem, derivative_rows

_N_STARTS = 2
_PYTHON_SORT_ROWS = 12
# SLSQP's ftol is absolute and also bounds the constraint violation, which
# round-off keeps above a fixed ftol when branch values are large; so each
# solve stops at _SLSQP_FTOL times a bound on |phi| over the ball
# (_scaled_ftol), and the cap only ends solves that stall.
_SLSQP_MAXITER = 30
_SLSQP_FTOL = 1e-12


class InnerSolveFailure(RuntimeError):
    """Non-finite model data (``ModelSet``) or values (``inner_minimax``);
    from ``theta_and_step``, no tuple of the partition could be solved."""


@dataclass(frozen=True)
class ModelSet:
    """Gradient blocks (b, m, n) and Hessian blocks (b, m, n, n), one per
    derivative row of a tuple: b = omega, or 1 for an offset family.  A
    non-finite entry raises ``InnerSolveFailure`` when the set is built."""

    G: np.ndarray
    H: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.G).all() and np.isfinite(self.H).all()):
            raise InnerSolveFailure("non-finite model data")

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
    up to signed zeros the first in ``rows`` stays.  Up to
    ``_PYTHON_SORT_ROWS`` rows the sort compares the rows as lists of
    Python floats, which orders them as ``np.lexsort`` does and costs less
    than its numpy calls."""
    if len(rows) <= _PYTHON_SORT_ROWS:
        Rl = rows.tolist()
        keep, last = [], None
        for i in sorted(range(len(Rl)), key=Rl.__getitem__):
            if Rl[i] != last:
                keep.append(i)
                last = Rl[i]
        return rows[keep]
    R = rows[np.lexsort(rows.T[::-1])]
    return R[np.concatenate(([True], (R[1:] != R[:-1]).any(axis=1)))]


def first_order(rows: np.ndarray) -> np.ndarray:
    """Steepest-descent direction v, the minimizer of max(rows @ s) + ||s||^2 / 2.

    v = -p with p the min-norm element of conv(rows) (Fliege & Svaiter
    2000), ``_qp.min_norm_point`` (Wolfe's algorithm) of the distinct rows
    in their sorted order, so that v does not depend on the order of the
    rows or on their repeats, up to the sign of a zero.  ``steepest_descent``
    takes it as the SD/CG direction, and ``theta_and_step``'s bound reads
    its norm."""
    # 0.0 - p, not -p: an entry that cancels is +0.0 in -R^T lam, never -0.0
    return 0.0 - min_norm_point(_distinct_rows(rows))


@dataclass
class SubproblemSolution:
    """Winning tuple a*, trial step s*, criticality value t* <= 0, and the
    models of a*'s derivative blocks (``problems.derivative_rows``): one
    block per member of a, or the one block of an offset family, whose
    members share it."""

    a_star: tuple
    s_star: np.ndarray
    t_star: float
    models: ModelSet = field(repr=False)


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


# The first 128 values of ``np.random.default_rng(0).standard_normal``:
# numpy's policy fixes a bit generator's raw stream, not the algorithm that
# turns it into normals, so the start set is pinned here, for n <= 16.
_NORMALS = np.array([
    0.1257302210933933, -0.1321048632913019, 0.6404226504432821, 0.10490011715303971,
    -0.535669373161111, 0.36159505490948474, 1.3040000451301372, 0.9470809631292422,
    -0.7037352358069926, -1.2654214710460525, -0.6232744625373522, 0.0413259793472436,
    -2.3250307746388343, -0.21879166393254573, -1.2459109472530652, -0.7322673547034516,
    -0.5442589828573099, -0.31630015636915454, 0.4116305363741328, 1.0425133694426776,
    -0.12853466294403426, 1.3664634705496859, -0.6651946734866135, 0.3515100700930197,
    0.9034701816518086, 0.09401229776087457, -0.7434992493538084, -0.9217253762584194,
    -0.45772582566733916, 0.2201951234700494, -1.009618183538736, -0.20917557487171307,
    -0.15922500991447772, 0.5408455846858077, 0.2146591225063409, 0.3553727090399214,
    -0.6538286094183394, -0.12961363369276946, 0.7839754700613295, 1.4934311452207607,
    -1.2590655321041202, 1.5139237747390626, 1.3458754237823045, 0.7813114007004275,
    0.2644556303293035, -0.3139228145364278, 1.4580206835369587, 1.9602583164499647,
    1.801634869866125, 1.31510376473437, 0.357380410658956, -1.2083186322821715,
    -0.004454133120083229, 0.6564749350763358, -1.2883614637495544, 0.39512206018200824,
    0.42986369482223, 0.6960427239628685, -1.184117966757189, -0.6617025720390349,
    -0.43643524714322124, -1.169801907772864, 1.739367877130134, -0.4959107284421519,
    0.3289696294602021, -0.258572545473924, 1.5834728788021222, 1.3203609870818391,
    0.6333526228249152, -2.2035098806466507, 0.05202897425988651, 0.6836861907765345,
    1.0039615758421696, -0.6179070447076008, 1.8220113633283233, -1.3204309700132935,
    -0.6615280218152191, 0.9350499881140221, 0.049054613825311656, 2.002392583645255,
    0.18851919251246557, -0.6331940901922267, -0.37756350523280824, -1.0911461176191954,
    -1.277680166386608, 0.6304114907682319, 0.5811658124128057, 1.294558819441117,
    -0.7546057912599311, 1.689107452443673, -0.2873877078086663, 1.5744082788445868,
    -0.4327858471825968, -0.735483292342275, 0.24978537155866684, 1.0314530848694723,
    0.16100957671534466, -0.5855288241233366, -1.341219714076669, -1.401520214917428,
    0.5026828498748657, 0.989713033285805, -0.1642945926252907, -1.0743648582284346,
    0.8730421526217066, -1.2803939447145731, -0.7130680950592722, 0.6210178535400985,
    -2.2501411735745918, 0.38636959756630584, -0.5816408364095031, 0.10927969747781388,
    -0.07570152622082311, 0.20211439504395987, 0.6941719367070082, -0.7583697508984092,
    1.4209820223119163, 0.726093788947765, 0.843732662303268, 1.1648639811110282,
    0.7875882217058694, 0.844078680578592, 0.07559361074288512, -1.4267738509897323,
    -0.13504510003701392, -0.7695146401767057, -1.4227417685154136, 0.25845279091298756,
])


@functools.lru_cache(maxsize=None)
def _fixed_directions(n: int) -> np.ndarray:
    """Eight unit directions in R^n, the rows of the normalised
    ``np.random.default_rng(0).standard_normal((8, n))``: a slice of
    ``_NORMALS`` for n <= 16, so numpy.random is not imported, and that
    call itself for larger n."""
    if 8 * n <= _NORMALS.size:
        d = _NORMALS[:8 * n].reshape(8, n)
    else:
        from numpy.random import default_rng
        d = default_rng(0).standard_normal((8, n))
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
    so the two share one sym @ s, recomputed whenever s changes.  The core
    itself comes from ``_scipy_core.slsqp()`` once per call, before the loop;
    the first call in a process loads it.
    """
    R = branches.R
    n_b, n = R.shape
    slsqp = _scipy_core.slsqp()
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
            slsqp(state, fz, g, C, d, z, mult, xl, xu, work, indices)
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
    candidate's value is finite ``InnerSolveFailure`` is raised (``models``
    is finite: ``ModelSet`` checks that).  It always solves at a positive
    radius: the bound that can skip a solve is ``theta_and_step``'s."""
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
    ``problems.derivatives_all`` returns it, in blocks; the caller owns its
    caching.  A tuple's models take the ``derivative_rows`` blocks: in an
    offset family the one block that its members share.
    ``best_tuple`` picks the tuple: the least t, ties to the earliest tuple
    in lexicographic order, one tuple for an offset family.  A tuple with
    non-finite models or values (``InnerSolveFailure``, from building its
    ``ModelSet`` or from the solve) counts as t = +inf, so it never wins;
    when no tuple is solved, ``InnerSolveFailure`` is raised.  With
    ``stop_tol`` (``run`` passes its eps) a tuple takes s = 0 and
    t = phi(0) = 0 without ``_Branches`` or a solve
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
        try:
            models = ModelSet(G=jac_all[rows], H=hess_all[rows])
            if stop_tol is not None:
                v = first_order(scalarized_rows(cone, models.G))
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


def steepest_descent(problem: SetValuedProblem, cone: Cone, structure: MinimalStructure,
                     jac: np.ndarray):
    """The SD/CG step problem: the tuple a that ``best_tuple`` picks by
    t = -|v|, the value ``run`` stops on, then t, the ``first_order``
    direction v of a's scalarized rows and a's blocks of ``jac`` (the
    family's ``fd_jacobian_all`` blocks at x) by ``derivative_rows``."""
    def solve(a):
        blocks = jac[derivative_rows(problem, a)]
        v = first_order(scalarized_rows(cone, blocks))
        return -_norm(v), v, blocks

    a, (t, v, blocks) = best_tuple(problem, structure, solve)
    return a, t, v, blocks


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
    that is not positive and finite, where t = 0 certifies nothing, or a
    cone in another R^m than the family's image space raises
    ``ValueError``; non-finite derivatives ``DomainError``, and a point
    where no tuple is solved ``InnerSolveFailure``.
    """
    if not 0.0 < radius < math.inf:
        raise ValueError(f"need a positive finite radius, got {radius!r}")
    problem.check_cone(cone)
    return theta_and_step(problem, cone, x, structure, radius,
                          problems.derivatives_all(problem, x))
