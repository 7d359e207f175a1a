"""Smoke-test plants: small problems with closed-form derivatives, built
with ``from_functions``; ``test_problems`` checks the finite differences
against each plant's exact Jacobian.  The overflow plant has finite values
and no finite difference quotient at 0."""

import numpy as np

from setopt.problems import from_functions


def make_linear_plant(c, box=(-10.0, 10.0)):
    """Single linear map f(x) = C x; its Jacobian is C."""
    mat = np.atleast_2d(np.asarray(c, dtype=float))
    m, n = mat.shape
    return from_functions("linear_plant", n, m, [lambda x: mat @ x], box)


def make_quadratic_plant(a, box=(-10.0, 10.0)):
    """Scalar quadratic f(x) = x^T A x / 2; its gradient is (A + A^T) x / 2."""
    mat = np.asarray(a, dtype=float)
    sym = 0.5 * (mat + mat.T)
    return from_functions("quadratic_plant", sym.shape[0], 1,
                          [lambda x: np.array([0.5 * x @ sym @ x])], box)


def make_sphere_helper_plant():
    """The scalar helper (x - 1/2)^2 of the sphere family; its slope is 2 (x - 1/2)."""
    return from_functions("sphere_helper_plant", 1, 1,
                          [lambda x: np.array([(x[0] - 0.5) ** 2])], (0.0, 1.0))


def make_overflow_plant():
    """f(x) = +-1.7e308 by the sign of x on [-1, 1]: every value is finite, but
    a central difference across 0 overflows to inf."""
    return from_functions("overflow_plant", 1, 1,
                          [lambda x: np.array([np.copysign(1.7e308, x[0])])], (-1.0, 1.0))
