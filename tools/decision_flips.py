"""Ratio-test decisions of the shared measurement setup that an alternative
formula would flip.

    python tools/decision_flips.py

It runs ``trm``, ``max`` and ``avg`` on the setup of
``tools/shared_setup_digest.py`` (22 instances, 5 seeded starts each, orthant
cone, ``it_max`` 100), whose starts and ``it_max`` it imports.  At every ratio test of each trajectory it re-computes
the ratios with the alternative prediction psi(-m^j(s*)) in place of
``predicted_reductions``' -psi(m^j(s*)), from the observer's events, and
compares the (accepted, next radius) pair that ``accept_and_update`` gives
for both.  Per method it prints the ratio tests, the flipped decisions and
the runs with at least one flip.  The trajectories are not changed: each
flip is counted at a point the run actually visited.
"""

import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import setopt  # noqa: E402
from setopt.cone import orthant  # noqa: E402
from setopt.problems import problem_ids, registry  # noqa: E402
from setopt.solvers import SolverConfig, StepMemo, accept_and_update, run  # noqa: E402
from shared_setup_digest import IT_MAX, starts  # noqa: E402


def _flips(events: list, cone, config: SolverConfig) -> int:
    """The decisions among ``events`` that the prediction psi(-m) flips."""
    flips = 0
    for event in events:
        record, sol = event["record"], event["solution"]
        idx = [ai - 1 for ai in record.a]
        pred = cone.scalarize_rows(-sol.models.values(sol.s_star))
        rho = -cone.scalarize_rows(event["F_new"][idx] - event["reference_full"][idx]) / pred
        flips += (accept_and_update(rho, record.omega, config)
                  != accept_and_update(record.rho, record.omega, config))
    return flips


def main() -> int:
    variants = ("trm", "max", "avg")
    tests, flips, runs = (dict.fromkeys(variants, 0) for _ in range(3))
    blocks = starts(setopt, problem_ids())
    for pid, _, x0 in blocks:
        problem = registry(pid)
        cone = orthant(problem.m)
        memo = StepMemo(problem)
        for variant in variants:
            config = SolverConfig(variant=variant, it_max=IT_MAX)
            events = []
            run(problem, cone, x0, config, observer=events.append, memo=memo)
            n = _flips(events, cone, config)
            tests[variant] += len(events)
            flips[variant] += n
            runs[variant] += n > 0
    print("prediction psi(-m) in place of -psi(m):")
    for variant in variants:
        print(f"{variant}: {flips[variant]}/{tests[variant]} decisions flipped, "
              f"in {runs[variant]}/{len(blocks)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
