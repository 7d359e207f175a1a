"""Digest of the shared measurement setup: 550 seeded runs, one sha256.

The setup is the 22 registered instances with 5 starts each
(``bench.sample_points(box, 5, bench._problem_seed(5, pid))``), all five
methods at ``it_max`` 100 under the orthant cone, and one ``StepMemo`` per
(problem, start).  The digest covers, for every run in that order, the
converged flag, the iteration count, the diagnostic, the bits of
``final_t`` and of the final point, and every trace record's x, tuple a,
ratios rho and accepted flag.  Two trees with the same trajectories print
the same digest, so a change that must keep them bitwise can be checked by
running this on both:

    python tools/shared_setup_digest.py

It pins ``OPENBLAS_NUM_THREADS=1`` before numpy loads, because the
trust-region steps depend on the BLAS thread count.  It also prints, per
method, the runs that converged and the iterations summed over all runs.
"""

import hashlib
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from setopt import bench  # noqa: E402
from setopt.cone import orthant  # noqa: E402
from setopt.problems import problem_ids, registry  # noqa: E402
from setopt.solvers import VARIANTS, SolverConfig, StepMemo, run  # noqa: E402

STARTS, SEED, IT_MAX = 5, 5, 100


def _bits(v) -> str:
    return float(v).hex()


def _run_key(res) -> tuple:
    """The parts of a run the digest covers, with floats as their bits."""
    trace = tuple((r.x.tobytes(), tuple(r.a), tuple(_bits(v) for v in r.rho), r.accepted)
                  for r in res.trace)
    point = np.ascontiguousarray(res.final_point, dtype=np.float64).tobytes()
    return (res.converged, res.iterations, res.diagnostic, _bits(res.final_t), point, trace)


def main() -> int:
    digest = hashlib.sha256()
    converged = dict.fromkeys(VARIANTS, 0)
    iterations = dict.fromkeys(VARIANTS, 0)
    for pid in problem_ids():
        problem = registry(pid)
        cone = orthant(problem.m)
        points = bench.sample_points(problem.domain_box, STARTS, bench._problem_seed(SEED, pid))
        for start, x0 in enumerate(points):
            memo = StepMemo(problem, cone)
            for variant in VARIANTS:
                res = run(problem, cone, x0, SolverConfig(variant=variant, it_max=IT_MAX),
                          memo=memo)
                digest.update(repr((pid, start, variant, _run_key(res))).encode())
                converged[variant] += res.converged
                iterations[variant] += res.iterations
    print(f"sha256 {digest.hexdigest()}")
    for variant in VARIANTS:
        print(f"{variant}: converged {converged[variant]}/{len(problem_ids()) * STARTS}, "
              f"iterations {iterations[variant]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
