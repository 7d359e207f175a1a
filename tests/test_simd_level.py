"""Outcomes that do not depend on numpy's SIMD level.

numpy's ``exp``, ``log`` and array powers give other last bits when
AVX-512 is turned off (``NPY_DISABLE_CPU_FEATURES``, which acts on the
process it is set for), so digests are per SIMD level.  The integer
outcome of a run (converged, iterations, diagnostic) must not be: a seeded
slice of the shared setup runs as is and with AVX-512 off, and the
batch-row guard tests run again with AVX-512 off."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core import _multiarray_umath as umath

ROOT = Path(__file__).resolve().parents[1]
AVX512_OFF = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# modified_ex53 and fdsa call exp; the other six square or cube a component
SLICE = ("modified_ex53_n2_m2,fdsa_n2_m3,dgo2_n1_m2,rosenbrock_n4_m3,trigonometric_n4_m4,"
         "das_dennis_n5_m2,modified_ex51_n1_m2,sphere_n3_m3")

# the shared setup's starts, methods and it_max on the slice, one memo per start
_OUTCOMES = """
import json, sys
sys.path.insert(0, "tools")
from shared_setup_digest import IT_MAX, METHODS, simd_level, starts
import setopt
outcomes = []
for pid, start, x0 in starts(setopt, sys.argv[1].split(",")):
    problem = setopt.registry(pid)
    memo = setopt.StepMemo(problem)
    for method in METHODS:
        res = setopt.run(problem, setopt.orthant(problem.m), x0,
                         setopt.SolverConfig(variant=method, it_max=IT_MAX), memo=memo)
        outcomes.append([pid, start, method, res.converged, res.iterations, res.diagnostic])
print(json.dumps({"simd": simd_level(), "outcomes": outcomes}))
"""

GUARDS = [
    "tests/test_problems.py::test_batched_stencil_is_bitwise_looped",
    "tests/test_problems.py::test_eval_all_batch_is_each_point",
    "tests/test_cone.py::test_scalarize_rows_is_bitwise_scalarize",
    "tests/test_solvers.py::test_reduction_ratios_match_the_per_block_loop",
    "tests/test_solvers.py::test_batched_armijo_is_looped",
]


def _start(args, extra_env):
    env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1", **extra_env}
    return subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def _finish(proc):
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, out + err
    return out


@pytest.mark.skipif("X86_V4" not in umath.__cpu_dispatch__,
                    reason="this numpy build has no AVX-512 dispatch target to turn off")
def test_outcomes_and_batch_rows_hold_with_avx512_off():
    as_is = _start(["-c", _OUTCOMES, SLICE], {})
    off = _start(["-c", _OUTCOMES, SLICE], AVX512_OFF)
    guards = _start(["-m", "pytest", "-q", "-p", "no:cacheprovider", *GUARDS], AVX512_OFF)
    as_is, off, guards = json.loads(_finish(as_is)), json.loads(_finish(off)), _finish(guards)
    assert "X86_V4" not in off["simd"].split("dispatched")[1]
    assert len(as_is["outcomes"]) == 8 * 5 * 5
    assert off["outcomes"] == as_is["outcomes"]
    assert " passed" in guards
