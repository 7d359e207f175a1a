"""setopt loads scipy's compiled SLSQP/NNLS core on its own, never
``scipy.optimize`` and what its ``__init__`` pulls in; its sampling, runs
and certificate never import numpy.random, and its cones, runs and
certificate make no call into numpy's LAPACK."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from setopt import _scipy_core

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
    np.testing.assert_allclose(_scipy_core.min_norm_point(rows), [0.5, 0.5], rtol=1e-15)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            _scipy_core.min_norm_point(np.array([[1.0, bad], [0.0, 1.0]]))

    class CappedCore:
        @staticmethod
        def nnls(a, b, maxiter):
            return np.ones(a.shape[1]), 0.0, 3

    monkeypatch.setattr(_scipy_core, "_core", CappedCore)
    with pytest.raises(RuntimeError):
        _scipy_core.min_norm_point(rows)
