"""scipy's compiled SLSQP and NNLS core, loaded without ``scipy.optimize``.

setopt needs two routines of the extension ``_slsqplib`` in scipy's
``optimize`` package (scipy >= 1.16): the SLSQP reverse-communication step
(Kraft 1988) and the active-set NNLS solver (Lawson & Hanson 1974).
Importing ``scipy.optimize`` for them would run the package ``__init__``,
which pulls in scipy.linalg, sparse, special and fft: about 0.4 s and 40 MB
per process on a 2-core Xeon VM.  So the extension is loaded from its file
by itself and only ``import scipy`` runs, which loads its submodules lazily
and does scipy's own platform set-up.  This module is the one place where
setopt touches scipy.
"""

from __future__ import annotations

import os
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import numpy as np
import scipy


def _load_core():
    spec = PathFinder.find_spec("_slsqplib", [os.path.join(os.path.dirname(scipy.__file__),
                                                           "optimize")])
    if spec is None:  # before 1.16 scipy ran SLSQP as Fortran, without this interface
        raise ImportError("setopt needs scipy>=1.16 for the SLSQP reverse-communication "
                          "interface of its compiled core (_slsqplib.slsqp)")
    core = module_from_spec(spec)
    spec.loader.exec_module(core)
    return core


_core = _load_core()
slsqp = _core.slsqp


def min_norm_point(rows) -> np.ndarray:
    """The min-norm point ``rows.T @ lam`` of conv(rows), lam in the simplex.

    lam = u / sum(u), where u solves the NNLS problem
    min_{u >= 0} ||[R^T; 1^T] u - e_{n+1}|| (Lawson & Hanson 1974, ch. 23);
    sum(u) = 1 / (1 + ||p||^2) > 0.  The active-set loop is capped at 30
    iterations per row: it needed 3.5 per row at n = 10 with 0 outside the
    hull.  As in scipy's ``nnls`` wrapper, non-finite rows raise ValueError
    and reaching the cap raises RuntimeError.
    """
    R = np.asarray_chkfinite(rows, dtype=np.float64)
    rhs = np.zeros(R.shape[1] + 1)
    rhs[-1] = 1.0
    u, _, info = _core.nnls(np.vstack([R.T, np.ones(R.shape[0])]), rhs, 30 * R.shape[0])
    if info == 3:
        raise RuntimeError("NNLS reached its iteration cap")
    return R.T @ (u / u.sum())
