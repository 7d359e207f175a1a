"""Test-problem registry and derivative evaluation.

Each problem is a family F(x) = {f^1(x), ..., f^p(x)} of smooth maps
R^n -> R^m together with a domain box.  Most shipped instances follow a
common pattern: a base multiobjective function plus a constant per-index
offset built from a fixed 10x10 grid of angle pairs (phi_i, psi_i), giving
p = 100 members.  Their evaluator returns the base alone and
``SetValuedProblem.offsets`` holds the (p, m) offsets; two instances
(``modified_ex51``, ``modified_ex53``) and the problems that
``from_functions`` builds evaluate the whole family.

Every evaluator works over the last axis of its input: a point (n,)
gives one value and a batch (k, n) gives k values, row by row.
Derivatives are central finite differences of what the evaluator returns,
so the members of an offset family share one bitwise Jacobian and
Hessian; the whole stencil of a Jacobian, or of a Jacobian and Hessian,
goes to the evaluator in one call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

_EPS = float(np.finfo(float).eps)
_H_GRAD = _EPS ** (1.0 / 3.0)
_CLAMP_DELTA = 1e-9


class DomainError(ValueError):
    """A component function, or a finite-difference derivative, evaluated to
    a non-finite value."""


def _non_finite(name: str, x: np.ndarray, what: str = "value") -> DomainError:
    return DomainError(f"{name}: non-finite {what} at x={x.tolist()}")


def _read_only_copy(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class UnknownProblemError(KeyError):
    """The requested problem id is not in the registry."""


@dataclass(frozen=True)
class SetValuedProblem:
    """A finite family of vector objectives on a box.

    With ``offsets`` None, ``evaluator(x)`` returns the full (p, m) value
    matrix.  Otherwise it returns the (m,) base and F(x) is the base plus
    each constant row of the (p, m) ``offsets``.  On a (k, n) batch it
    returns (k, p, m) or (k, m), each row bitwise the value at that point
    alone.  ``eval_all`` gives F(x), (p, m), or (k, p, m) on a (k, n)
    batch.  Evaluation is deterministic and reentrant.
    ``domain_box`` and ``offsets`` are read-only float copies, made when
    the problem is built: ``solvers.StepMemo`` relies on the box never
    changing, and the offset family's partition it keeps in
    ``partitions``, one per cone, on the offsets never changing.
    """

    name: str
    n: int
    m: int
    p: int
    domain_box: tuple
    evaluator: object
    notes: str = ""
    offsets: np.ndarray | None = None
    partitions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "domain_box", tuple(map(_read_only_copy, self.domain_box)))
        if self.offsets is not None:
            object.__setattr__(self, "offsets", _read_only_copy(self.offsets))

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        """The evaluator's output at a point or each row of a batch: the
        (m,) base of an offset family, else the (p, m) values.  A finite
        offset added to a finite base stays finite, so checking this output
        checks F(x).  The error names the first row with a non-finite
        value, the point a one-by-one evaluation would have stopped at."""
        shape = (self.p, self.m) if self.offsets is None else (self.m,)
        vals = np.asarray(self.evaluator(x), dtype=float).reshape(x.shape[:-1] + shape)
        if not np.isfinite(vals).all():
            if x.ndim > 1:
                x = x[np.argmin(np.isfinite(vals).reshape(len(x), -1).all(axis=1))]
            raise _non_finite(self.name, x)
        return vals

    def eval_all(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        vals = self._evaluate(x if x.ndim == 2 else x.reshape(self.n))
        return vals if self.offsets is None else vals[..., None, :] + self.offsets

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


def from_functions(name, n, m, fns, box) -> SetValuedProblem:
    """Wrap plain callables f_i(x) -> R^m into a problem (p = len(fns))."""
    if np.isscalar(box[0]):
        box = (np.full(n, box[0]), np.full(n, box[1]))

    def evaluator(x):
        if x.ndim > 1:
            # one point at a time, stopping where a looped evaluation would:
            # a later point may raise instead of returning a non-finite value
            rows = []
            for row in x:
                rows.append(evaluator(row))
                if not np.isfinite(rows[-1]).all():
                    raise _non_finite(name, row)
            return np.array(rows)
        return np.stack([np.atleast_1d(np.asarray(f(x), dtype=float)) for f in fns])

    return SetValuedProblem(name, n, m, len(fns), box, evaluator)


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
    center = np.where(lo2 <= hi2, x.clip(lo2, hi2), 0.5 * (lo + hi))
    return center


def _stencil(centres: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Central-difference points around each of the (r, n) centres, (r, n, 2, n).

    ``[i, j, 0]`` is centre i plus ``steps[i, j]`` along axis j and
    ``[i, j, 1]`` the same minus; flattened, this is the order in which a
    loop over centres and axes visits them.
    """
    r, n = centres.shape
    e = np.zeros((r, n, n))
    e.reshape(r, n * n)[:, :: n + 1] = steps
    c = centres[:, None, :]
    points = np.empty((r, n, 2, n))
    np.add(c, e, out=points[:, :, 0])
    np.subtract(c, e, out=points[:, :, 1])
    return points


def _differences(vals: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """(f(+) - f(-)) / (2 step) per axis j from stencil values (r, n, 2, ...),
    with j moved last: a new C-ordered (r, ..., n) array.  A quotient that
    overflows is left inf or NaN, without a warning: the callers' finiteness
    checks turn it into DomainError."""
    r, n = steps.shape
    with np.errstate(over="ignore", invalid="ignore"):
        d = (vals[:, :, 0] - vals[:, :, 1]) / (2.0 * steps).reshape(r, n, *[1] * (vals.ndim - 3))
    return d.transpose(0, *range(2, d.ndim), 1).copy()


def _jacobians(problem: SetValuedProblem, centres: np.ndarray) -> np.ndarray:
    """Central-difference Jacobians of the evaluator's output at each of
    the (r, n) centres, (r, ..., m, n), from one evaluator call."""
    steps = (centres + _grad_steps(centres)) - centres  # exactly representable steps
    vals = problem._evaluate(_stencil(centres, steps).reshape(-1, problem.n))
    return _differences(vals.reshape(*steps.shape, 2, *vals.shape[1:]), steps)


def _family(problem: SetValuedProblem, arr: np.ndarray) -> np.ndarray:
    """Broadcast a base derivative to every member (a view, no copy)."""
    return arr if problem.offsets is None else np.broadcast_to(arr, (problem.p, *arr.shape))


def derivative_rows(problem: SetValuedProblem, a) -> list:
    """The rows of the family's derivatives that the 1-based tuple a needs:
    one, ``[a[0] - 1]``, for an offset family, whose members share one
    block, and ``[ai - 1 for ai in a]`` otherwise."""
    return [a[0] - 1] if problem.offsets is not None else [ai - 1 for ai in a]


def fd_jacobian_all(problem: SetValuedProblem, x) -> np.ndarray:
    """Central-difference Jacobians of all p functions, shape (p, m, n);
    DomainError when an entry is not finite (finite values whose difference
    quotient overflows)."""
    x = np.asarray(x, dtype=float).reshape(problem.n)
    c = _fd_center(problem, x, with_hessian=False)
    jac = _jacobians(problem, c[None])[0]
    if not np.isfinite(jac).all():
        raise _non_finite(problem.name, x, "derivative")
    return _family(problem, jac)


def derivatives_all(problem: SetValuedProblem, x):
    """Jacobians (p, m, n) and Hessians (p, m, n, n) of the whole family.

    The members of an offset family share the derivatives of the base:
    every member's block is the same read-only view.  The Hessian is the
    symmetrised central differences of the Jacobians at the 2n points
    c +- d_j e_j; those Jacobians and the one at the centre c come from
    one evaluator call.  DomainError when an entry of either is not finite,
    as ``fd_jacobian_all``.
    """
    x = np.asarray(x, dtype=float).reshape(problem.n)
    c = _fd_center(problem, x, with_hessian=True)
    steps = ((c + _hess_steps(c)) - c)[None]
    centres = np.concatenate((c[None], _stencil(c[None], steps).reshape(-1, problem.n)))
    jac = _jacobians(problem, centres)
    hess = _differences(jac[1:].reshape(1, problem.n, 2, *jac.shape[1:]), steps)[0]
    hess = 0.5 * (hess + hess.swapaxes(-2, -1))
    if not (np.isfinite(jac[0]).all() and np.isfinite(hess).all()):
        raise _non_finite(problem.name, x, "derivative")
    return _family(problem, jac[0]), _family(problem, hess)


class DerivativeTable:
    """Family derivatives, one read-only entry per kind and bytes of x, as
    entries of ``solvers.StepMemo``, its subclass.  The kinds are kept
    apart: a bundle's Jacobians are not ``fd_jacobian_all``'s bits at the
    same point.  Runs read the bundle alone; perfbench counts calls to
    both methods."""

    def _derive(self, kind: str, derive, x, ledger):
        x = np.asarray(x, dtype=float)

        def compute():
            value = derive(self.problem, x)
            for a in value if isinstance(value, tuple) else (value,):
                a.flags.writeable = False
            return value
        return self._get((kind, x.tobytes()), compute, ledger)[0]

    def bundle_arrays(self, x, ledger):
        """``derivatives_all(problem, x)``: the (Jacobians, Hessians) bundle."""
        return self._derive("bundle", derivatives_all, x, ledger)

    def jacobians(self, x, ledger) -> np.ndarray:
        """``fd_jacobian_all(problem, x)``."""
        return self._derive("jacobians", fd_jacobian_all, x, ledger)


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


def _log_tan_half(psi: np.ndarray) -> np.ndarray:
    """log(tan(psi/2)) with the argument clamped into (delta, pi - delta);
    the grids that feed this may hit 0, pi, or exceed pi, where the raw
    expression is non-finite."""
    return np.log(np.tan(np.clip(psi, _CLAMP_DELTA, np.pi - _CLAMP_DELTA) / 2.0))


def _box(lo, hi):
    return np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)


def _uniform_box(n, lo, hi):
    return _box([lo] * n, [hi] * n)


# ---------------------------------------------------------------------------
# helpers that keep a batch row bitwise equal to the same point alone
#
# An evaluator unpacks components as ``x0, x1, ... = x.T``: numpy scalars for
# a point, (k,) views for a batch.  ``np.array([...]).T`` puts the results
# back on the last axis.

_libm_pow = np.frompyfunc(math.pow, 2, 1)


def _pow(a, e):
    """a ** e for a component that is a numpy scalar at a single point.

    numpy's scalar power calls libm ``pow``, but its array power takes
    other paths (a plain square for e = 2, SIMD code otherwise) whose last
    bit differs on some inputs.  So an array goes through libm ``pow``
    element by element.  Terms that are array powers at a single point too
    keep ``**``.
    """
    if isinstance(a, np.ndarray):
        return _libm_pow(a, e).astype(float)
    return a ** e


# ---------------------------------------------------------------------------
# problem families

def _zdt1(n: int) -> SetValuedProblem:
    i = np.arange(1, 101)
    c16 = np.cos(4.0 * np.pi * i / 100.0) ** 16
    offsets = np.column_stack([(0.02 + 0.02 * c16) * np.cos(2.0 * np.pi * i / 100.0),
                               0.15 + 0.15 * c16 * np.sin(2.0 * np.pi * i / 100.0)])

    def evaluator(x):
        f1 = x.T[0]
        g = 1.0 + 9.0 * x[..., 1:].sum(-1)
        with np.errstate(invalid="ignore"):
            h = 1.0 - np.sqrt(f1 / g)
        return np.array([f1, g * h]).T

    return SetValuedProblem(f"zdt1_n{n}_m2", n, 2, 100, _uniform_box(n, 0.0, 1.0), evaluator,
                            offsets=offsets)


def _zdt4(n: int = 10) -> SetValuedProblem:
    i = np.arange(1, 101)
    c16 = np.cos(4.0 * np.pi * i / 100.0) ** 16
    offsets = np.column_stack([1.0 + c16 * np.cos(2.0 * np.pi * i / 100.0),
                               1.0 + c16 * np.sin(2.0 * np.pi * i / 100.0)])
    lo = np.array([0.01] + [-5.0] * (n - 1))
    hi = np.array([1.0] + [5.0] * (n - 1))

    def evaluator(x):
        f1, tail = x.T[0], x[..., 1:]
        g = 1.0 + 10.0 * (n - 1) + (tail ** 2 - 10.0 * np.cos(4.0 * np.pi * tail)).sum(-1)
        with np.errstate(invalid="ignore"):
            h = 1.0 - np.sqrt(f1 / g)
        return np.array([f1, g * h]).T

    return SetValuedProblem(f"zdt4_n{n}_m2", n, 2, 100, (lo, hi), evaluator, offsets=offsets)


def _dtlz_g_rastrigin(xm: np.ndarray):
    return 100.0 * (xm.shape[-1] + ((xm - 0.5) ** 2 - np.cos(20.0 * np.pi * (xm - 0.5))).sum(-1))


def _dtlz1(n: int = 6, m: int = 4) -> SetValuedProblem:
    phi, psi = _grid_pi5().T
    pert = np.zeros((100, m))
    pert[:, 0] = np.cos(phi) * np.sin(psi)
    pert[:, 1] = np.sin(phi) * np.sin(psi)
    pert[:, 2] = np.cos(psi) + _log_tan_half(psi) + 0.2 * phi
    ell = n - m + 1

    def evaluator(x):
        g1 = 1.0 + _dtlz_g_rastrigin(x[..., n - ell:])
        x0, x1, x2 = x.T[:3]
        return np.array([
            g1 * x0 * x1 * x2,
            g1 * x0 * x1 * (1.0 - x2),
            0.25 * g1 * x0 * (1.0 - x1),
            0.5 * (1.0 - x0) * g1,
        ]).T

    return SetValuedProblem(f"dtlz1_n{n}_m{m}", n, m, 100, _uniform_box(n, 0.0, 1.0),
                            evaluator, offsets=pert)


def _dtlz3(n: int = 5, m: int = 4) -> SetValuedProblem:
    phi, psi = _grid_pi5().T
    pert = np.zeros((100, m))
    sech = 1.0 / np.cosh(phi)
    pert[:, 0] = sech * np.cos(psi)
    pert[:, 1] = sech * np.sin(psi)
    pert[:, 2] = phi - np.tanh(phi)
    ell = n - m + 1

    def evaluator(x):
        g1 = 1.0 + _dtlz_g_rastrigin(x[..., n - ell:])
        c = np.cos(x * np.pi / 2.0).T
        s = np.sin(x * np.pi / 2.0).T
        return np.array([
            g1 * c[0] * c[1] * c[2],
            g1 * c[0] * c[1] * s[2],
            g1 * c[0] * c[0],
            g1 * s[0],
        ]).T

    return SetValuedProblem(
        f"dtlz3_n{n}_m{m}", n, m, 100, _uniform_box(n, 0.0, 1.0), evaluator, offsets=pert,
        notes="first offset component uses cos(psi_i); third base row is cos^2(x1*pi/2)")


def _fdsa(n: int = 2, m: int = 3) -> SetValuedProblem:
    phi, psi = _grid_pi5().T
    pert = np.column_stack([
        1.0 + np.cos(phi) * np.cos(psi),
        1.0 + np.cos(phi) * np.sin(psi),
        np.sin(phi),
    ])
    k = np.arange(1, n + 1)

    def evaluator(x):
        g1 = (k * (x - k) ** 4).sum(-1) / n ** 2
        g2 = np.exp(x.sum(-1) / n) + np.vecdot(x, x)
        g3 = (k * (n - k + 1) * np.exp(-x)).sum(-1) / (n * (n + 1))
        return np.array([g1, g2, g3]).T

    return SetValuedProblem(f"fdsa_n{n}_m{m}", n, m, 100, _uniform_box(n, -2.0, 2.0),
                            evaluator, offsets=pert)


def _dtlz5(n: int, m: int) -> SetValuedProblem:
    phi, psi = _grid_pi5().T
    pert = np.zeros((100, m))
    pert[:, 0] = 5.0 * psi / (2.0 * np.pi)
    pert[:, 1] = np.cos(phi) / 10.0
    pert[:, 2] = np.sin(phi) / 10.0
    ell = n - m + 1

    def evaluator(x):
        g = ((x[..., n - ell:] - 0.5) ** 2).sum(-1)
        xt = x.T
        theta = np.array([xt[0], *((1.0 + g * xt[1:m - 1]) / (2.0 * (1.0 + g)))])
        ang = theta * np.pi / 2.0
        c, s = np.cos(ang), np.sin(ang)
        return np.array([
            (1.0 + g) * c.prod(0),
            *((1.0 + g) * c[: m - j].prod(0) * s[m - j] for j in range(2, m)),
            (1.0 + g) * s[0],
        ]).T

    return SetValuedProblem(f"dtlz5_n{n}_m{m}", n, m, 100, _uniform_box(n, 0.0, 1.0),
                            evaluator, offsets=pert)


def _dgo1() -> SetValuedProblem:
    i = np.arange(1, 101)
    a = np.pi * i / 50.0
    pert = np.column_stack([np.sin(a + np.cos(a)), np.cos(a + np.sin(a))])

    def evaluator(x):
        x0 = x.T[0]
        return np.array([np.sin(x0), np.sin(x0 + 0.7)]).T

    return SetValuedProblem("dgo1_n1_m2", 1, 2, 100, _uniform_box(1, -10.0, 13.0), evaluator,
                            offsets=pert)


def _dgo2() -> SetValuedProblem:
    i = np.arange(1, 101)
    a = np.pi * i / 50.0
    pert = np.column_stack([np.sin(a + np.cos(a)), np.cos(a + np.sin(2.0 * a))])

    def evaluator(x):
        sq = _pow(x.T[0], 2)
        with np.errstate(invalid="ignore"):
            return np.array([sq, 9.0 - np.sqrt(81.0 - sq)]).T

    return SetValuedProblem("dgo2_n1_m2", 1, 2, 100, _uniform_box(1, -9.0, 9.0), evaluator,
                            offsets=pert)


def _hil(n: int = 2) -> SetValuedProblem:
    i = np.arange(1, 101)
    b = np.pi * i / 25.0
    amp = 10.0 * (9.0 + np.exp(np.sin(b)) - np.sin(b) + 2.0 * np.cos(2.0 * b) ** 2) / 128.0
    a = np.pi * i / 50.0
    pert = np.column_stack([amp * np.cos(a), amp * np.sin(a)])

    def evaluator(x):
        x0, x1 = x.T
        ang = (np.pi / 180.0) * (45.0 + 40.0 * np.sin(2.0 * np.pi * x0)
                                 + 25.0 * np.sin(2.0 * np.pi * x1)) \
            * (1.0 + 0.5 * np.cos(2.0 * np.pi * x0))
        return np.array([np.cos(ang), np.sin(ang)]).T

    return SetValuedProblem(f"hil_n{n}_m2", n, 2, 100, _uniform_box(n, 0.0, 5.0), evaluator,
                            offsets=pert)


def _jos1a(n: int = 5) -> SetValuedProblem:
    i = np.arange(1, 101)
    a = np.pi * i / 50.0
    pert = np.column_stack([0.1 * np.cos(a), 50.0 * np.sin(a)])

    def evaluator(x):
        return np.array([np.vecdot(x, x) / n, ((x - 2.0) ** 2).sum(-1) / n]).T

    return SetValuedProblem(f"jos1a_n{n}_m2", n, 2, 100, _uniform_box(n, -2.0, 2.0), evaluator,
                            offsets=pert)


def _rosenbrock(n: int = 4, m: int = 3) -> SetValuedProblem:
    phi, psi = _grid_pi5().T
    r2 = 16.0 ** 2
    pert = np.column_stack([
        r2 * np.cos(phi) * np.cos(psi) * np.sin(psi),
        r2 * np.cos(phi) * np.sin(psi) * np.sin(psi),
        r2 * np.cos(phi) * np.sin(psi) * np.cos(psi) ** 2,
    ])

    def evaluator(x):
        xt = x.T
        return np.array([100.0 * _pow(xt[j + 1] - _pow(xt[j], 2), 2) + _pow(xt[j + 1] - 1.0, 2)
                         for j in range(3)]).T

    return SetValuedProblem(f"rosenbrock_n{n}_m{m}", n, m, 100, _uniform_box(n, -2.0, 2.0),
                            evaluator, offsets=pert)


def _brown_dennis(n: int = 4, m: int = 5) -> SetValuedProblem:
    phi, psi = _grid_2pi5().T
    pert = np.zeros((100, m))
    pert[:, 0] = np.cos(phi) * np.sin(psi)
    pert[:, 1] = np.sin(phi) * np.sin(psi)
    pert[:, 2] = np.cos(psi) + _log_tan_half(psi) + 0.5 * phi
    t = np.arange(1, m + 1) / 5.0
    lo = np.array([-25.0, -5.0, -5.0, -1.0])
    hi = np.array([25.0, 5.0, 5.0, 1.0])
    exp_t, exp_t3, sin_t, cos_t = np.exp(t), np.exp(t[2]), np.sin(t), np.cos(t)

    def evaluator(x):
        first = x[..., :1] + t * x[..., 1:2] - exp_t
        first[..., 2] = x.T[0] + t[2] * x.T[2] - exp_t3  # third row pairs t with x3
        second = x[..., 2:3] + x[..., 3:4] * sin_t - cos_t
        return first ** 2 + second ** 2

    return SetValuedProblem(f"brown_dennis_n{n}_m{m}", n, m, 100, (lo, hi), evaluator,
                            offsets=pert)


def _trigonometric(n: int = 4, m: int = 4) -> SetValuedProblem:
    phi, psi = _grid_2pi5().T
    pert = np.zeros((100, m))
    pert[:, 0] = np.cos(phi) * np.sin(psi)
    pert[:, 1] = np.sin(phi) * np.sin(psi)
    pert[:, 2] = np.cos(psi) + _log_tan_half(psi) + 0.2 * phi

    def evaluator(x):
        x0, x1, x2, x3 = x.T
        cum = x.cumsum(-1).T
        return np.array([
            _pow(1.0 - np.cos(x0) + (1.0 - np.cos(x0)) - np.sin(x0), 2),
            _pow(2.0 - np.cos(cum[1]) + 2.0 * (1.0 - np.cos(x1)) - np.sin(x1), 2),
            _pow(3.0 - np.cos(cum[2]) + 3.0 * (1.0 - np.cos(x2)) - np.sin(x2), 2),
            4.0 - np.cos(cum[3]) + 4.0 * (1.0 - np.cos(x3)) - np.sin(x3),
        ]).T

    return SetValuedProblem(f"trigonometric_n{n}_m{m}", n, m, 100,
                            _uniform_box(n, -1.0, 1.0), evaluator, offsets=pert,
                            notes="fourth base component is not squared")


def _das_dennis(n: int = 5) -> SetValuedProblem:
    i = np.arange(1, 101)
    a = np.pi * i / 50.0
    shift = np.sin(a) + np.cos(a)
    pert = np.column_stack([shift, shift])

    def evaluator(x):
        x0, x1, x2, x3, x4 = x.T
        return np.array([
            np.vecdot(x, x),
            3.0 * x0 + 2.0 * x1 - x2 / 3.0 + 0.01 * _pow(x3 - x4, 3),
        ]).T

    return SetValuedProblem(f"das_dennis_n{n}_m2", n, 2, 100,
                            _uniform_box(n, -20.0, 20.0), evaluator, offsets=pert)


def _modified_ex51() -> SetValuedProblem:
    alpha = (np.arange(1, 6) - 1.0) / 4.0
    coeff = np.column_stack([np.ones(5), 1.0 - 2.0 * alpha])

    def evaluator(x):
        x0 = x.T[0]
        base = np.array([x0, 0.5 * x0 * np.sin(x0)]).T
        return base[..., None, :] + _pow(np.cos(x0), 2)[..., None, None] * coeff

    return SetValuedProblem("modified_ex51_n1_m2", 1, 2, 5,
                            _uniform_box(1, 2.0, 10.0), evaluator)


def _modified_ex53() -> SetValuedProblem:
    w = np.pi * (np.arange(1, 101) - 1.0) / 50.0
    sw, cw = np.sin(w), np.cos(w)
    sw3, cw3 = sw ** 3, cw ** 3

    def evaluator(x):
        x1, x2 = (v[..., None] for v in x.T)
        f1 = np.exp(x1 / 2.0) * np.cos(x2) + x1 * np.cos(x2) * sw - x2 * np.sin(x2) * cw3
        f2 = np.exp(x2 / 20.0) * np.sin(x1) + x1 * np.sin(x2) * sw3 + x2 * np.cos(x2) * cw
        return np.stack([f1, f2], axis=-1)

    return SetValuedProblem("modified_ex53_n2_m2", 2, 2, 100,
                            _uniform_box(2, -20.0, 20.0), evaluator)


def _sphere() -> SetValuedProblem:
    phi, psi = _grid_sphere().T
    pert = np.column_stack([
        np.cos(phi), np.cos(psi) * np.sin(phi), np.sin(psi) * np.sin(phi),
    ]) / 16.0

    def evaluator(x):
        x0, x1, x2 = x.T
        g3 = _pow(x2 - 0.5, 2)
        u = np.pi * x0 / 2.0
        gr = _pow(np.sqrt(np.vecdot(x, x)) - 0.5, 2)
        v = np.pi * (1.0 + 2.0 * g3 * x1) / (4.0 * (1.0 + gr))
        return ((1.0 + g3) * np.array([np.cos(u) * np.cos(v), np.cos(u) * np.sin(v),
                                       np.sin(u)])).T

    return SetValuedProblem("sphere_n3_m3", 3, 3, 100, _uniform_box(3, 0.0, 1.0),
                            evaluator, offsets=pert)


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
