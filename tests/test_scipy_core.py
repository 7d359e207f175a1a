"""setopt loads scipy's compiled SLSQP/NNLS core on its own, never
``scipy.optimize`` and what its ``__init__`` pulls in."""

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
