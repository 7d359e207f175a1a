"""setopt loads scipy's compiled SLSQP core on its own, never
``scipy.optimize`` and what its ``__init__`` pulls in, and only at the first
trust-region solve; its sampling, runs and certificate never import
numpy.random, and its cones, runs and certificate make no call into numpy's
LAPACK.  The min-norm point that replaced the core's NNLS keeps the
wrapper's checks."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from setopt import _qp
from setopt._qp import min_norm_point

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_import_and_runs_load_no_scipy_optimize():
    done = _python(
        "import sys\n"
        "import setopt\n"
        "problem = setopt.registry('zdt1_n2_m2')\n"
        "for variant in ('trm', 'sd'):\n"
        "    setopt.run(problem, setopt.orthant(2), [0.5, 0.5],\n"
        "               setopt.SolverConfig(variant=variant, it_max=2))\n"
        "print(sorted(sys.modules))\n")
    assert done.returncode == 0, done.stderr
    loaded = eval(done.stdout)
    assert "setopt.solvers" in loaded and "scipy" in loaded
    for package in ("scipy.optimize", "scipy.linalg", "scipy.sparse"):
        assert not [name for name in loaded if name == package or name.startswith(package + ".")]


def test_sampling_runs_and_certificate_load_no_numpy_random():
    done = _python(
        "import sys\n"
        "import setopt\n"
        "from setopt import bench, partition, subproblem\n"
        "problem, cone = setopt.registry('zdt1_n5_m2'), setopt.orthant(2)\n"
        "x0 = bench.sample_points(problem.domain_box, 1, bench._problem_seed(7, problem.name))[0]\n"
        "for variant in ('trm', 'sd'):\n"
        "    setopt.run(problem, cone, x0, setopt.SolverConfig(variant=variant, it_max=3))\n"
        "structure = partition.structure_from_values(problem.eval_all(x0), cone)\n"
        "subproblem.criticality_value(problem, cone, x0, structure, radius=1.0)\n"
        "print('numpy.random' in sys.modules)\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


_LAPACK = ("svd", "matrix_rank", "qr", "eig", "eigh", "eigvals", "eigvalsh", "solve", "lstsq",
           "inv", "det", "slogdet", "cholesky", "pinv")


def test_cones_runs_and_certificate_make_no_lapack_call():
    # numpy's LAPACK routines raise, both as numpy.linalg.X and as the
    # numpy.linalg._linalg.X that numpy's own functions call, and log the call
    done = _python(
        "import numpy as np\n"
        "import numpy.linalg._linalg as impl\n"
        "called = []\n"
        "def forbidden(name):\n"
        "    def call(*args, **kwargs):\n"
        "        called.append(name)\n"
        "        raise AssertionError(f'numpy.linalg.{name} called')\n"
        "    return call\n"
        f"for name in {_LAPACK!r}:\n"
        "    setattr(np.linalg, name, forbidden(name))\n"
        "    setattr(impl, name, forbidden(name))\n"
        "import setopt\n"
        "from setopt import bench, partition, subproblem\n"
        "cones = [setopt.orthant(m) for m in range(1, 6)] + [setopt.k2prime()]\n"
        "for pid, cone in (('zdt1_n5_m2', cones[1]), ('modified_ex53_n2_m2', cones[-1])):\n"
        "    problem = setopt.registry(pid)\n"
        "    x0 = bench.sample_points(problem.domain_box, 1, bench._problem_seed(7, pid))[0]\n"
        "    for variant in ('trm', 'max', 'sd', 'cg'):\n"
        "        setopt.run(problem, cone, x0, setopt.SolverConfig(variant=variant, it_max=3))\n"
        "    structure = partition.structure_from_values(problem.eval_all(x0), cone)\n"
        "    subproblem.criticality_value(problem, cone, x0, structure, radius=1.0)\n"
        "print(called)\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_missing_core_raises_the_version_import_error():
    done = _python(
        "from importlib.machinery import PathFinder\n"
        "find_spec = PathFinder.find_spec\n"
        "PathFinder.find_spec = classmethod(\n"
        "    lambda cls, name, path=None, target=None:\n"
        "    None if name == '_slsqplib' else find_spec(name, path, target))\n"
        "try:\n"
        "    import setopt\n"
        "except ImportError as exc:\n"
        "    print(exc)\n")
    assert done.returncode == 0, done.stderr
    assert "setopt needs scipy>=1.16" in done.stdout


def test_min_norm_point_keeps_the_wrapper_checks(monkeypatch):
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_allclose(min_norm_point(rows), [0.5, 0.5], rtol=1e-15)
    # non-finite rows raise on every path: one row, the segment, the Gram
    # oracle and rows @ x
    rng = np.random.default_rng(3)
    for k in (1, 2, 3, _qp._GRAM_ROWS + 4):
        for bad in (np.nan, np.inf, -np.inf):
            R = rng.standard_normal((k, 3))
            R[-1, 1] = bad
            with pytest.raises(ValueError):
                min_norm_point(R)
    # a triangle around 0 in the plane takes major cycles; with none allowed the cap raises
    triangle = np.array([[1.0, 0.1], [-0.6, 1.0], [-0.5, -1.1]])
    assert np.abs(min_norm_point(triangle)).max() < 1e-15
    monkeypatch.setattr(_qp, "_CAP_PER_ROW", 0)
    with pytest.raises(RuntimeError, match="iteration cap"):
        min_norm_point(triangle)


_GUARD = """
import hashlib
import sys
import numpy as np
import setopt
from setopt import bench, _scipy_core
from setopt.subproblem import first_order

def core_loaded():
    # the extension's file among the mapped files, where the OS lists them
    try:
        with open("/proc/self/maps") as fh:
            mapped = "_slsqplib" in fh.read()
    except OSError:
        mapped = None
    return (_scipy_core.slsqp.cache_info().currsize == 1, mapped)

cones = [setopt.orthant(m) for m in range(1, 6)] + [setopt.k2prime()]
code = hashlib.sha256()
for pid, cone in (("zdt1_n5_m2", cones[1]), ("dtlz1_n6_m4", cones[3]),
                  ("modified_ex53_n2_m2", cones[-1])):
    problem = setopt.registry(pid)
    for x0 in bench.sample_points(problem.domain_box, 2, bench._problem_seed(7, pid)):
        for variant in ("sd", "cg"):
            res = setopt.run(problem, cone, x0, setopt.SolverConfig(variant=variant, it_max=4))
            code.update(res.final_point.tobytes())
rng = np.random.default_rng(11)
for case in range(200):
    n, k = 1 + case % 10, 1 + case % 23
    rows = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (k, 1))
    if case % 3 == 0:
        rows = np.vstack([rows, -rng.uniform(0.1, 1.0, k) @ rows])
    code.update(first_order(rows).tobytes())
print(core_loaded())
print(code.hexdigest())
problem = setopt.registry("zdt1_n2_m2")
setopt.run(problem, cones[1], [0.5, 0.5], setopt.SolverConfig(variant="trm", it_max=2))
print(core_loaded())
"""


def test_first_order_runs_never_load_the_slsqp_core():
    # cones, SD/CG runs and first_order leave the core, and with it scipy's
    # OpenBLAS, unloaded; a trust-region run loads it.  first_order gives
    # the same bytes at 1 and 2 BLAS threads.
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", _GUARD], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout.splitlines())
    for before, digest, after in outs:
        assert before in ("(False, False)", "(False, None)")
        assert after in ("(True, True)", "(True, None)")
    assert outs[0][1] == outs[1][1]
