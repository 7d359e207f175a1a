"""Test-problem registry and derivative evaluation.

Each problem is a family F(x) = {f^1(x), ..., f^p(x)} of smooth maps
R^n -> R^m together with a domain box.  The shipped instances follow a
common pattern: a base multiobjective function plus a per-index offset
built from a fixed 10x10 grid of angle pairs (phi_i, psi_i), giving
p = 100 members (one instance uses p = 5 with interpolation weights).

Derivatives are central finite differences; a handful of smoke-test
plants carry analytic Jacobians so the FD machinery can be checked
against closed forms.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_EPS = float(np.finfo(float).eps)
_H_GRAD = _EPS ** (1.0 / 3.0)
_CLAMP_DELTA = 1e-9


class DomainError(ValueError):
    """A component function evaluated to a non-finite value."""


class UnknownProblemError(KeyError):
    """The requested problem id is not in the registry."""


@dataclass(frozen=True)
class SetValuedProblem:
    """A finite family of vector objectives on a box.

    ``evaluator(x)`` returns the full (p, m) value matrix; ``eval(i, x)``
    picks the 1-based row i.  Evaluation is deterministic and reentrant.
    """

    name: str
    n: int
    m: int
    p: int
    domain_box: tuple
    evaluator: object
    analytic_jacobian: object = None
    phi_psi: np.ndarray | None = None
    notes: str = ""
    clamp_events: int = 0

    def eval_all(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).reshape(self.n)
        vals = np.asarray(self.evaluator(x), dtype=float).reshape(self.p, self.m)
        if not np.all(np.isfinite(vals)):
            raise DomainError(f"{self.name}: non-finite value at x={x.tolist()}")
        return vals

    def eval(self, i: int, x) -> np.ndarray:
        if not 1 <= i <= self.p:
            raise IndexError(f"function index {i} outside 1..{self.p}")
        return self.eval_all(x)[i - 1]

    def metadata(self) -> dict:
        lo, hi = self.domain_box
        return {
            "name": self.name,
            "n": self.n,
            "m": self.m,
            "p": self.p,
            "box_lower": np.asarray(lo).tolist(),
            "box_upper": np.asarray(hi).tolist(),
            "notes": self.notes,
        }


def from_functions(name, n, m, fns, box, analytic_jacobian=None) -> SetValuedProblem:
    """Wrap plain callables f_i(x) -> R^m into a problem (p = len(fns))."""
    lo, hi = (np.full(n, box[0], dtype=float), np.full(n, box[1], dtype=float)) \
        if np.isscalar(box[0]) else (np.asarray(box[0], float), np.asarray(box[1], float))

    def evaluator(x):
        return np.stack([np.atleast_1d(np.asarray(f(x), dtype=float)) for f in fns])

    return SetValuedProblem(name, n, m, len(fns), (lo, hi), evaluator,
                            analytic_jacobian=analytic_jacobian)


# ---------------------------------------------------------------------------
# finite differences

def _grad_steps(x: np.ndarray) -> np.ndarray:
    return _H_GRAD * np.maximum(1.0, np.abs(x))


def _hess_steps(x: np.ndarray) -> np.ndarray:
    return _grad_steps(x) ** (2.0 / 3.0)


def _fd_center(problem: SetValuedProblem, x: np.ndarray, with_hessian: bool) -> np.ndarray:
    """Pull the stencil center inside the box when x sits near its edge."""
    lo, hi = problem.domain_box
    h = _grad_steps(x)
    margin = (_hess_steps(x) + 2.0 * h) if with_hessian else 1.5 * h
    lo2, hi2 = lo + margin, hi - margin
    center = np.where(lo2 <= hi2, np.clip(x, lo2, hi2), 0.5 * (lo + hi))
    return center


def _jac_all_at(problem: SetValuedProblem, c: np.ndarray) -> np.ndarray:
    h = _grad_steps(c)
    jac = np.empty((problem.p, problem.m, problem.n))
    for j in range(problem.n):
        step = (c[j] + h[j]) - c[j]  # exactly representable step
        e = np.zeros(problem.n)
        e[j] = step
        jac[:, :, j] = (problem.eval_all(c + e) - problem.eval_all(c - e)) / (2.0 * step)
    return jac


def _hess_all_at(problem: SetValuedProblem, c: np.ndarray) -> np.ndarray:
    d = _hess_steps(c)
    hess = np.empty((problem.p, problem.m, problem.n, problem.n))
    for j in range(problem.n):
        step = (c[j] + d[j]) - c[j]
        e = np.zeros(problem.n)
        e[j] = step
        jp = _jac_all_at(problem, c + e)
        jm = _jac_all_at(problem, c - e)
        hess[:, :, :, j] = (jp - jm) / (2.0 * step)
    return 0.5 * (hess + hess.swapaxes(2, 3))


def fd_jacobian_all(problem: SetValuedProblem, x) -> np.ndarray:
    """Central-difference Jacobians of all p functions, shape (p, m, n)."""
    x = np.asarray(x, dtype=float).reshape(problem.n)
    return _jac_all_at(problem, _fd_center(problem, x, with_hessian=False))


def derivatives_all(problem: SetValuedProblem, x):
    """Jacobians (p, m, n) and Hessians (p, m, n, n) of the whole family."""
    x = np.asarray(x, dtype=float).reshape(problem.n)
    c = _fd_center(problem, x, with_hessian=True)
    return _jac_all_at(problem, c), _hess_all_at(problem, c)


class DerivativeTable:
    """One-entry memo of family derivatives, keyed by the bytes of the iterate.

    Solvers move x only on acceptance, so the last point is the only one
    that comes back.  ``jacobians`` reuses the Jacobians of a full bundle
    at the same point; ``bundle_arrays`` recomputes after a Jacobian-only
    entry.
    """

    def __init__(self, problem: SetValuedProblem):
        self.problem = problem
        self._key: bytes | None = None
        self._jac: np.ndarray | None = None
        self._hess: np.ndarray | None = None

    def bundle_arrays(self, x):
        key = np.asarray(x, dtype=float).tobytes()
        if key != self._key or self._hess is None:
            self._jac, self._hess = derivatives_all(self.problem, x)
            self._key = key
        return self._jac, self._hess

    def jacobians(self, x) -> np.ndarray:
        key = np.asarray(x, dtype=float).tobytes()
        if key != self._key:
            self._jac, self._hess = fd_jacobian_all(self.problem, x), None
            self._key = key
        return self._jac


# ---------------------------------------------------------------------------
# index grids shared by the perturbation terms

def _pair_grid(phis, psis) -> np.ndarray:
    return np.array([(a, b) for a in phis for b in psis])


def _grid_pi5() -> np.ndarray:
    vals = [np.pi / 5.0 * j for j in range(10)]
    return _pair_grid(vals, vals)


def _grid_2pi5() -> np.ndarray:
    phis = [2.0 * np.pi / 5.0 * j for j in range(10)]
    psis = [0.01 + 0.098 * j for j in range(10)]
    return _pair_grid(phis, psis)


def _grid_sphere() -> np.ndarray:
    phis = [np.pi / 10.0 * j for j in range(10)]
    psis = [np.pi / 5.0 * j for j in range(10)]
    return _pair_grid(phis, psis)


def _log_tan_half(psi: np.ndarray):
    """log(tan(psi/2)) with the argument clamped into (delta, pi - delta).

    Returns the values and the number of clamped entries; the grids that
    feed this may hit 0, pi, or exceed pi, where the raw expression is
    non-finite.
    """
    clipped = np.clip(psi, _CLAMP_DELTA, np.pi - _CLAMP_DELTA)
    n_clamped = int(np.sum(clipped != psi))
    return np.log(np.tan(clipped / 2.0)), n_clamped


def _box(lo, hi):
    return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)


def _uniform_box(n, lo, hi):
    return _box([lo] * n, [hi] * n)


# ---------------------------------------------------------------------------
# problem families

def _zdt1(n: int) -> SetValuedProblem:
    i = np.arange(1, 101)
    c16 = np.cos(4.0 * np.pi * i / 100.0) ** 16
    p1 = (0.02 + 0.02 * c16) * np.cos(2.0 * np.pi * i / 100.0)
    p2 = 0.15 + 0.15 * c16 * np.sin(2.0 * np.pi * i / 100.0)

    def evaluator(x):
        f1 = x[0]
        g = 1.0 + 9.0 * np.sum(x[1:])
        with np.errstate(invalid="ignore"):
            h = 1.0 - np.sqrt(f1 / g)
        return np.column_stack([f1 + p1, g * h + p2])

    return SetValuedProblem(f"zdt1_n{n}_m2", n, 2, 100, _uniform_box(n, 0.0, 1.0), evaluator)


def _zdt4(n: int = 10) -> SetValuedProblem:
    i = np.arange(1, 101)
    c16 = np.cos(4.0 * np.pi * i / 100.0) ** 16
    p1 = 1.0 + c16 * np.cos(2.0 * np.pi * i / 100.0)
    p2 = 1.0 + c16 * np.sin(2.0 * np.pi * i / 100.0)
    lo = np.array([0.01] + [-5.0] * (n - 1))
    hi = np.array([1.0] + [5.0] * (n - 1))

    def evaluator(x):
        f1 = x[0]
        g = 1.0 + 10.0 * (n - 1) + np.sum(x[1:] ** 2 - 10.0 * np.cos(4.0 * np.pi * x[1:]))
        with np.errstate(invalid="ignore"):
            h = 1.0 - np.sqrt(f1 / g)
        return np.column_stack([f1 + p1, g * h + p2])

    return SetValuedProblem(f"zdt4_n{n}_m2", n, 2, 100, (lo, hi), evaluator)


def _dtlz_g_rastrigin(xm: np.ndarray) -> float:
    return 100.0 * (xm.size + np.sum((xm - 0.5) ** 2 - np.cos(20.0 * np.pi * (xm - 0.5))))


def _dtlz1(n: int = 6, m: int = 4) -> SetValuedProblem:
    grid = _grid_pi5()
    phi, psi = grid[:, 0], grid[:, 1]
    logtan, n_clamped = _log_tan_half(psi)
    pert = np.zeros((100, m))
    pert[:, 0] = np.cos(phi) * np.sin(psi)
    pert[:, 1] = np.sin(phi) * np.sin(psi)
    pert[:, 2] = np.cos(psi) + logtan + 0.2 * phi
    ell = n - m + 1

    def evaluator(x):
        g1 = 1.0 + _dtlz_g_rastrigin(x[n - ell:])
        base = np.array([
            g1 * x[0] * x[1] * x[2],
            g1 * x[0] * x[1] * (1.0 - x[2]),
            0.25 * g1 * x[0] * (1.0 - x[1]),
            0.5 * (1.0 - x[0]) * g1,
        ])
        return base[None, :] + pert

    return SetValuedProblem(f"dtlz1_n{n}_m{m}", n, m, 100, _uniform_box(n, 0.0, 1.0),
                            evaluator, phi_psi=grid, clamp_events=n_clamped)


def _dtlz3(n: int = 5, m: int = 4) -> SetValuedProblem:
    grid = _grid_pi5()
    phi, psi = grid[:, 0], grid[:, 1]
    pert = np.zeros((100, m))
    sech = 1.0 / np.cosh(phi)
    pert[:, 0] = sech * np.cos(psi)
    pert[:, 1] = sech * np.sin(psi)
    pert[:, 2] = phi - np.tanh(phi)
    ell = n - m + 1

    def evaluator(x):
        g1 = 1.0 + _dtlz_g_rastrigin(x[n - ell:])
        c = np.cos(x * np.pi / 2.0)
        s = np.sin(x * np.pi / 2.0)
        base = np.array([
            g1 * c[0] * c[1] * c[2],
            g1 * c[0] * c[1] * s[2],
            g1 * c[0] * c[0],
            g1 * s[0],
        ])
        return base[None, :] + pert

    return SetValuedProblem(
        f"dtlz3_n{n}_m{m}", n, m, 100, _uniform_box(n, 0.0, 1.0), evaluator,
        phi_psi=grid,
        notes="first offset component uses cos(psi_i); third base row is cos^2(x1*pi/2)")


def _fdsa(n: int = 2, m: int = 3) -> SetValuedProblem:
    grid = _grid_pi5()
    phi, psi = grid[:, 0], grid[:, 1]
    pert = np.column_stack([
        1.0 + np.cos(phi) * np.cos(psi),
        1.0 + np.cos(phi) * np.sin(psi),
        np.sin(phi),
    ])
    k = np.arange(1, n + 1)

    def evaluator(x):
        g1 = np.sum(k * (x - k) ** 4) / n ** 2
        g2 = np.exp(np.sum(x) / n) + np.dot(x, x)
        g3 = np.sum(k * (n - k + 1) * np.exp(-x)) / (n * (n + 1))
        return np.array([g1, g2, g3])[None, :] + pert

    return SetValuedProblem(f"fdsa_n{n}_m{m}", n, m, 100, _uniform_box(n, -2.0, 2.0),
                            evaluator, phi_psi=grid)


def _dtlz5(n: int, m: int) -> SetValuedProblem:
    grid = _grid_pi5()
    phi, psi = grid[:, 0], grid[:, 1]
    pert = np.zeros((100, m))
    pert[:, 0] = 5.0 * psi / (2.0 * np.pi)
    pert[:, 1] = np.cos(phi) / 10.0
    pert[:, 2] = np.sin(phi) / 10.0
    ell = n - m + 1

    def evaluator(x):
        g = np.sum((x[n - ell:] - 0.5) ** 2)
        theta = np.empty(m - 1)
        theta[0] = x[0]
        theta[1:] = (1.0 + g * x[1:m - 1]) / (2.0 * (1.0 + g))
        ang = theta * np.pi / 2.0
        c, s = np.cos(ang), np.sin(ang)
        base = np.empty(m)
        base[0] = (1.0 + g) * np.prod(c)
        for j in range(2, m):
            base[j - 1] = (1.0 + g) * np.prod(c[: m - j]) * s[m - j]
        base[m - 1] = (1.0 + g) * s[0]
        return base[None, :] + pert

    return SetValuedProblem(f"dtlz5_n{n}_m{m}", n, m, 100, _uniform_box(n, 0.0, 1.0),
                            evaluator, phi_psi=grid)


def _dgo1() -> SetValuedProblem:
    i = np.arange(1, 101)
    a = np.pi * i / 50.0
    pert = np.column_stack([np.sin(a + np.cos(a)), np.cos(a + np.sin(a))])

    def evaluator(x):
        g = np.array([np.sin(x[0]), np.sin(x[0] + 0.7)])
        return g[None, :] + pert

    return SetValuedProblem("dgo1_n1_m2", 1, 2, 100, _uniform_box(1, -10.0, 13.0), evaluator)


def _dgo2() -> SetValuedProblem:
    i = np.arange(1, 101)
    a = np.pi * i / 50.0
    pert = np.column_stack([np.sin(a + np.cos(a)), np.cos(a + np.sin(2.0 * a))])

    def evaluator(x):
        with np.errstate(invalid="ignore"):
            g = np.array([x[0] ** 2, 9.0 - np.sqrt(81.0 - x[0] ** 2)])
        return g[None, :] + pert

    return SetValuedProblem("dgo2_n1_m2", 1, 2, 100, _uniform_box(1, -9.0, 9.0), evaluator)


def _hil(n: int = 2) -> SetValuedProblem:
    i = np.arange(1, 101)
    b = np.pi * i / 25.0
    amp = 10.0 * (9.0 + np.exp(np.sin(b)) - np.sin(b) + 2.0 * np.cos(2.0 * b) ** 2) / 128.0
    a = np.pi * i / 50.0
    pert = np.column_stack([amp * np.cos(a), amp * np.sin(a)])

    def evaluator(x):
        ang = (np.pi / 180.0) * (45.0 + 40.0 * np.sin(2.0 * np.pi * x[0])
                                 + 25.0 * np.sin(2.0 * np.pi * x[1])) \
            * (1.0 + 0.5 * np.cos(2.0 * np.pi * x[0]))
        g = np.array([np.cos(ang), np.sin(ang)])
        return g[None, :] + pert

    return SetValuedProblem(f"hil_n{n}_m2", n, 2, 100, _uniform_box(n, 0.0, 5.0), evaluator)


def _jos1a(n: int = 5) -> SetValuedProblem:
    i = np.arange(1, 101)
    a = np.pi * i / 50.0
    pert = np.column_stack([0.1 * np.cos(a), 50.0 * np.sin(a)])

    def evaluator(x):
        g = np.array([np.dot(x, x) / n, np.sum((x - 2.0) ** 2) / n])
        return g[None, :] + pert

    return SetValuedProblem(f"jos1a_n{n}_m2", n, 2, 100, _uniform_box(n, -2.0, 2.0), evaluator)


def _rosenbrock(n: int = 4, m: int = 3) -> SetValuedProblem:
    grid = _grid_pi5()
    phi, psi = grid[:, 0], grid[:, 1]
    r2 = 16.0 ** 2
    pert = np.column_stack([
        r2 * np.cos(phi) * np.cos(psi) * np.sin(psi),
        r2 * np.cos(phi) * np.sin(psi) * np.sin(psi),
        r2 * np.cos(phi) * np.sin(psi) * np.cos(psi) ** 2,
    ])

    def evaluator(x):
        base = np.array([
            100.0 * (x[1] - x[0] ** 2) ** 2 + (x[1] - 1.0) ** 2,
            100.0 * (x[2] - x[1] ** 2) ** 2 + (x[2] - 1.0) ** 2,
            100.0 * (x[3] - x[2] ** 2) ** 2 + (x[3] - 1.0) ** 2,
        ])
        return base[None, :] + pert

    return SetValuedProblem(f"rosenbrock_n{n}_m{m}", n, m, 100, _uniform_box(n, -2.0, 2.0),
                            evaluator, phi_psi=grid)


def _brown_dennis(n: int = 4, m: int = 5) -> SetValuedProblem:
    grid = _grid_2pi5()
    phi, psi = grid[:, 0], grid[:, 1]
    logtan, n_clamped = _log_tan_half(psi)
    pert = np.zeros((100, m))
    pert[:, 0] = np.cos(phi) * np.sin(psi)
    pert[:, 1] = np.sin(phi) * np.sin(psi)
    pert[:, 2] = np.cos(psi) + logtan + 0.5 * phi
    t = np.arange(1, m + 1) / 5.0
    lo = np.array([-25.0, -5.0, -5.0, -1.0])
    hi = np.array([25.0, 5.0, 5.0, 1.0])

    def evaluator(x):
        first = x[0] + t * x[1] - np.exp(t)
        first[2] = x[0] + t[2] * x[2] - np.exp(t[2])  # third row pairs t with x3
        second = x[2] + x[3] * np.sin(t) - np.cos(t)
        base = first ** 2 + second ** 2
        return base[None, :] + pert

    return SetValuedProblem(f"brown_dennis_n{n}_m{m}", n, m, 100, (lo, hi), evaluator,
                            phi_psi=grid, clamp_events=n_clamped)


def _trigonometric(n: int = 4, m: int = 4) -> SetValuedProblem:
    grid = _grid_2pi5()
    phi, psi = grid[:, 0], grid[:, 1]
    logtan, n_clamped = _log_tan_half(psi)
    pert = np.zeros((100, m))
    pert[:, 0] = np.cos(phi) * np.sin(psi)
    pert[:, 1] = np.sin(phi) * np.sin(psi)
    pert[:, 2] = np.cos(psi) + logtan + 0.2 * phi

    def evaluator(x):
        cum = np.cumsum(x)
        base = np.array([
            (1.0 - np.cos(x[0]) + (1.0 - np.cos(x[0])) - np.sin(x[0])) ** 2,
            (2.0 - np.cos(cum[1]) + 2.0 * (1.0 - np.cos(x[1])) - np.sin(x[1])) ** 2,
            (3.0 - np.cos(cum[2]) + 3.0 * (1.0 - np.cos(x[2])) - np.sin(x[2])) ** 2,
            4.0 - np.cos(cum[3]) + 4.0 * (1.0 - np.cos(x[3])) - np.sin(x[3]),
        ])
        return base[None, :] + pert

    return SetValuedProblem(f"trigonometric_n{n}_m{m}", n, m, 100,
                            _uniform_box(n, -1.0, 1.0), evaluator,
                            phi_psi=grid, clamp_events=n_clamped,
                            notes="fourth base component is not squared")


def _das_dennis(n: int = 5) -> SetValuedProblem:
    i = np.arange(1, 101)
    a = np.pi * i / 50.0
    shift = np.sin(a) + np.cos(a)
    pert = np.column_stack([shift, shift])

    def evaluator(x):
        base = np.array([
            np.dot(x, x),
            3.0 * x[0] + 2.0 * x[1] - x[2] / 3.0 + 0.01 * (x[3] - x[4]) ** 3,
        ])
        return base[None, :] + pert

    return SetValuedProblem(f"das_dennis_n{n}_m2", n, 2, 100,
                            _uniform_box(n, -20.0, 20.0), evaluator)


def _modified_ex51() -> SetValuedProblem:
    alpha = (np.arange(1, 6) - 1.0) / 4.0
    coeff = np.column_stack([np.ones(5), 1.0 - 2.0 * alpha])

    def evaluator(x):
        base = np.array([x[0], 0.5 * x[0] * np.sin(x[0])])
        return base[None, :] + np.cos(x[0]) ** 2 * coeff

    return SetValuedProblem("modified_ex51_n1_m2", 1, 2, 5,
                            _uniform_box(1, 2.0, 10.0), evaluator)


def _modified_ex53() -> SetValuedProblem:
    w = np.pi * (np.arange(1, 101) - 1.0) / 50.0
    sw, cw = np.sin(w), np.cos(w)

    def evaluator(x):
        x1, x2 = x[0], x[1]
        f1 = np.exp(x1 / 2.0) * np.cos(x2) + x1 * np.cos(x2) * sw - x2 * np.sin(x2) * cw ** 3
        f2 = np.exp(x2 / 20.0) * np.sin(x1) + x1 * np.sin(x2) * sw ** 3 + x2 * np.cos(x2) * cw
        return np.column_stack([f1, f2])

    return SetValuedProblem("modified_ex53_n2_m2", 2, 2, 100,
                            _uniform_box(2, -20.0, 20.0), evaluator)


def _sphere() -> SetValuedProblem:
    grid = _grid_sphere()
    phi, psi = grid[:, 0], grid[:, 1]
    pert = np.column_stack([
        np.cos(phi), np.cos(psi) * np.sin(phi), np.sin(psi) * np.sin(phi),
    ]) / 16.0

    def evaluator(x):
        g3 = (x[2] - 0.5) ** 2
        u = np.pi * x[0] / 2.0
        gr = (np.sqrt(np.dot(x, x)) - 0.5) ** 2
        v = np.pi * (1.0 + 2.0 * g3 * x[1]) / (4.0 * (1.0 + gr))
        base = (1.0 + g3) * np.array([np.cos(u) * np.cos(v), np.cos(u) * np.sin(v), np.sin(u)])
        return base[None, :] + pert

    return SetValuedProblem("sphere_n3_m3", 3, 3, 100, _uniform_box(3, 0.0, 1.0),
                            evaluator, phi_psi=grid)


_BUILDERS = {
    "zdt1_n2_m2": lambda: _zdt1(2),
    "zdt1_n5_m2": lambda: _zdt1(5),
    "zdt1_n8_m2": lambda: _zdt1(8),
    "zdt1_n10_m2": lambda: _zdt1(10),
    "zdt4_n10_m2": _zdt4,
    "dtlz1_n6_m4": _dtlz1,
    "dtlz3_n5_m4": _dtlz3,
    "dtlz5_n3_m3": lambda: _dtlz5(3, 3),
    "dtlz5_n5_m3": lambda: _dtlz5(5, 3),
    "dtlz5_n7_m5": lambda: _dtlz5(7, 5),
    "hil_n2_m2": _hil,
    "dgo1_n1_m2": _dgo1,
    "dgo2_n1_m2": _dgo2,
    "jos1a_n5_m2": _jos1a,
    "fdsa_n2_m3": _fdsa,
    "rosenbrock_n4_m3": _rosenbrock,
    "brown_dennis_n4_m5": _brown_dennis,
    "trigonometric_n4_m4": _trigonometric,
    "das_dennis_n5_m2": _das_dennis,
    "modified_ex51_n1_m2": _modified_ex51,
    "modified_ex53_n2_m2": _modified_ex53,
    "sphere_n3_m3": _sphere,
}


def problem_ids() -> list:
    return list(_BUILDERS)


@functools.lru_cache(maxsize=None)
def registry(problem_id: str) -> SetValuedProblem:
    """Look up one of the shipped instances by id, e.g. ``zdt1_n10_m2``."""
    try:
        return _BUILDERS[problem_id]()
    except KeyError:
        raise UnknownProblemError(
            f"unknown problem {problem_id!r}; known ids: {', '.join(problem_ids())}"
        ) from None


# ---------------------------------------------------------------------------
# smoke-test plants with analytic Jacobians (used to validate the FD code)

def make_linear_plant(c, box=(-10.0, 10.0)) -> SetValuedProblem:
    """Single linear map f(x) = C x with its exact Jacobian."""
    mat = np.atleast_2d(np.asarray(c, dtype=float))
    m, n = mat.shape
    prob = from_functions("linear_plant", n, m, [lambda x: mat @ x], box,
                          analytic_jacobian=lambda i, x: mat)
    return prob


def make_quadratic_plant(a, box=(-10.0, 10.0)) -> SetValuedProblem:
    """Scalar quadratic f(x) = x^T A x / 2 with its exact gradient."""
    mat = np.asarray(a, dtype=float)
    sym = 0.5 * (mat + mat.T)
    n = sym.shape[0]
    return from_functions("quadratic_plant", n, 1,
                          [lambda x: np.array([0.5 * x @ sym @ x])], box,
                          analytic_jacobian=lambda i, x: (sym @ x)[None, :])


def make_sphere_helper_plant() -> SetValuedProblem:
    """The scalar helper (x - 1/2)^2 appearing in the sphere family."""
    return from_functions("sphere_helper_plant", 1, 1,
                          [lambda x: np.array([(x[0] - 0.5) ** 2])], (0.0, 1.0),
                          analytic_jacobian=lambda i, x: np.array([[2.0 * (x[0] - 0.5)]]))
