"""scipy's compiled SLSQP core, loaded without ``scipy.optimize`` and only
at the first trust-region step solve.

setopt needs one routine of the extension ``_slsqplib`` in scipy's
``optimize`` package (scipy >= 1.16): the SLSQP reverse-communication step
(Kraft 1988).  Importing ``scipy.optimize`` for it would run the package
``__init__``, which pulls in scipy.linalg, sparse, special and fft: about
0.4 s and 40 MB per process on a 2-core Xeon VM.  So only ``import scipy``
runs, which loads its submodules lazily and does scipy's own platform
set-up, and the extension is loaded from its file by itself.  It links
scipy's own OpenBLAS, a second copy beside numpy's, so it is executed at
the first ``slsqp()`` call, a process's first step solve, not at import:
SD/CG runs, cones and the min-norm point never load it.  Its file is
looked up at import, so a scipy without it fails at ``import setopt``.
This module is the one place where setopt touches scipy.
"""

from __future__ import annotations

import functools
import os
from importlib.machinery import PathFinder
from importlib.util import module_from_spec

import scipy

_SPEC = PathFinder.find_spec("_slsqplib", [os.path.join(os.path.dirname(scipy.__file__),
                                                        "optimize")])
if _SPEC is None:  # before 1.16 scipy ran SLSQP as Fortran, without this interface
    raise ImportError("setopt needs scipy>=1.16 for the SLSQP reverse-communication "
                      "interface of its compiled core (_slsqplib.slsqp)")


@functools.cache
def slsqp():
    """The compiled SLSQP step ``_slsqplib.slsqp``; the first call loads the
    extension."""
    core = module_from_spec(_SPEC)
    _SPEC.loader.exec_module(core)
    return core.slsqp
