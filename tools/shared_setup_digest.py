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

    python tools/shared_setup_digest.py [--against ROOT] [--rounds K] \
        [--problems ID,ID]

After that total it prints one sha256 per method, over that method's runs
alone, so a change that must keep some methods bitwise can show which
moved, and then numpy's version and the SIMD extensions it dispatches to on
this host: numpy's transcendental ufuncs give other bits at another SIMD
level, so a digest holds only at the level printed beside it.

It pins ``OPENBLAS_NUM_THREADS=1`` before numpy loads, because the
trust-region steps depend on the BLAS thread count.  It also prints, per
method, the runs that converged, the iterations and the rejected steps
summed over all runs, and for ``max`` and ``avg`` the runs whose iterates
and accepted flags equal those of ``trm`` from the same start, and last
the wall seconds the 550 runs took (problem set-up included, process start
and imports not).  These counts and the time are not part of the digest.
``--problems`` runs those instances only.

With ``--against ROOT`` it also loads the ``src/setopt`` of the checkout
at ROOT as a second package, ``setopt_against``, and runs the setup in
both trees in one process, one (problem, start) block at a time: the
five runs from one start and their memo.  The tree that runs a block
first alternates from block to block and from round to round, for
``--rounds`` rounds (default 5), and each run keeps the fastest of its
rounds in ``perf_counter`` and in ``process_time`` seconds; the first
round also makes the digests, the counts above and this tree's seconds
(problem set-up not included).  It prints whether ROOT's digests equal
this tree's, naming the methods that differ.  Then, per method and for all five together, the ratio of this
tree's summed fastest times to ROOT's, minus 1 in percent, the blocks in
which this tree was faster and slower, and the two-sided exact sign test
over those blocks (ties left out).  Run against its own checkout it gives
the spread between two identical trees.  That spread is not centred: the
tree loaded first (this one) tends to lose blocks to an identical copy
(43 of 110 won on a 2-core Xeon VM), so read a sign test beside an A/A
run, or run the tool from the other checkout too.  It exits 1 when the
digests differ.
"""

import argparse
import hashlib
import importlib
import importlib.util
import math
import os
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import setopt  # noqa: E402
from setopt.solvers import VARIANTS as METHODS  # noqa: E402

STARTS, SEED, IT_MAX = 5, 5, 100


def simd_level() -> str:
    """numpy's version, its baseline SIMD extensions and the dispatch
    targets it uses here: those the CPU has and ``NPY_DISABLE_CPU_FEATURES``
    leaves on."""
    from numpy._core import _multiarray_umath as umath
    used = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    return (f"numpy {np.__version__}, SIMD baseline {' '.join(umath.__cpu_baseline__)}, "
            f"dispatched {' '.join(used) or 'none'}")


def _bits(v) -> str:
    return float(v).hex()


def _run_key(res) -> tuple:
    """The parts of a run the digest covers, with floats as their bits."""
    trace = tuple((r.x.tobytes(), tuple(r.a), tuple(_bits(v) for v in r.rho), r.accepted)
                  for r in res.trace)
    point = np.ascontiguousarray(res.final_point, dtype=np.float64).tobytes()
    return (res.converged, res.iterations, res.diagnostic, _bits(res.final_t), point, trace)


def _path(res) -> list:
    """The run's iterates and accepted flags."""
    return [(r.x.tobytes(), r.accepted) for r in res.trace]


def starts(package, pids) -> list:
    """The setup's (problem id, start index, x0) blocks for the ``setopt``
    package given, in run order."""
    bench = importlib.import_module(f"{package.__name__}.bench")
    return [(pid, start, x0) for pid in pids
            for start, x0 in enumerate(bench.sample_points(
                package.registry(pid).domain_box, STARTS, bench._problem_seed(SEED, pid)))]


def other_tree(root: Path):
    """The ``setopt`` package of the checkout at root, as ``setopt_against``."""
    pkg = root.resolve() / "src" / "setopt"
    spec = importlib.util.spec_from_file_location("setopt_against", pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class Setup:
    """One tree's shared setup: its blocks, digests and counts."""

    def __init__(self, package, pids):
        self.pkg = package
        self.blocks = starts(package, pids)
        self.digest = hashlib.sha256()
        self.by_method = {m: hashlib.sha256() for m in METHODS}
        self.converged = dict.fromkeys(METHODS, 0)
        self.iterations = dict.fromkeys(METHODS, 0)
        self.rejected = dict.fromkeys(METHODS, 0)
        self.as_trm = dict.fromkeys(("max", "avg"), 0)
        # the fastest (wall, cpu) seconds of every run, per block and method
        self.fastest = [{m: (math.inf, math.inf) for m in METHODS} for _ in self.blocks]

    def block(self, i: int, record: bool) -> None:
        """Run block i, keep each run's fastest times, and with ``record``
        add its runs to the digests and counts."""
        pid, start, x0 = self.blocks[i]
        pkg = self.pkg
        problem = pkg.registry(pid)
        cone = pkg.orthant(problem.m)
        memo = pkg.StepMemo(problem)
        for variant in METHODS:
            wall, cpu = time.perf_counter(), time.process_time()
            res = pkg.run(problem, cone, x0, pkg.SolverConfig(variant=variant, it_max=IT_MAX),
                          memo=memo)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            best = self.fastest[i][variant]
            self.fastest[i][variant] = (min(best[0], wall), min(best[1], cpu))
            if not record:
                continue
            key = repr((pid, start, variant, _run_key(res))).encode()
            self.digest.update(key)
            self.by_method[variant].update(key)
            self.converged[variant] += res.converged
            self.iterations[variant] += res.iterations
            self.rejected[variant] += sum(not r.accepted for r in res.trace)
            if variant == "trm":
                trm_path = _path(res)
            elif variant in self.as_trm:
                self.as_trm[variant] += _path(res) == trm_path

    def report(self, seconds: float) -> None:
        runs = len(self.blocks)
        print(f"sha256 {self.digest.hexdigest()}")
        for m in METHODS:
            print(f"{m}: sha256 {self.by_method[m].hexdigest()}")
        print(simd_level())
        for m in METHODS:
            same = f", as trm {self.as_trm[m]}/{runs}" if m in self.as_trm else ""
            print(f"{m}: converged {self.converged[m]}/{runs}, "
                  f"iterations {self.iterations[m]}, rejected {self.rejected[m]}{same}")
        print(f"{runs * len(METHODS)} runs in {seconds:.2f} s")


def sign_test(wins: int, losses: int) -> float:
    """Two-sided exact sign test: P(a split at least this uneven | p = 1/2)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def compare(mine: Setup, theirs: Setup, root: Path, rounds: int) -> int:
    """Print the digest check and the per-method timing ratios; 1 when the
    digests differ (the total is equal when every method's is)."""
    differ = [m for m in METHODS
              if mine.by_method[m].digest() != theirs.by_method[m].digest()]
    if not differ:
        print(f"digests equal against {root}")
    else:
        print(f"digests differ against {root}: sha256 {theirs.digest.hexdigest()}; "
              f"methods {', '.join(differ)}")
    print(f"fastest of {rounds} rounds per block, this tree / {root} - 1, "
          f"blocks faster/slower, sign test p:")
    for m in METHODS + ("all",):
        methods = METHODS if m == "all" else (m,)
        cells = []
        for unit, name in ((0, "wall"), (1, "cpu")):
            pairs = [(sum(a[k][unit] for k in methods), sum(t[k][unit] for k in methods))
                     for a, t in zip(mine.fastest, theirs.fastest)]
            ratio = sum(a for a, _ in pairs) / sum(t for _, t in pairs) - 1.0
            wins, losses = sum(a < t for a, t in pairs), sum(a > t for a, t in pairs)
            cells.append(f"{name} {100.0 * ratio:+.1f}% {wins}/{losses} "
                         f"p={sign_test(wins, losses):.2g}")
        print(f"{m}: " + "; ".join(cells))
    return 1 if differ else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", type=Path)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--problems")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    pids = args.problems.split(",") if args.problems else setopt.problem_ids()
    if args.against is None:
        began = time.perf_counter()
        mine = Setup(setopt, pids)
        for i in range(len(mine.blocks)):
            mine.block(i, record=True)
        mine.report(time.perf_counter() - began)
        return 0
    mine, theirs = Setup(setopt, pids), Setup(other_tree(args.against), pids)
    seconds = 0.0
    for r in range(args.rounds):
        for i in range(len(mine.blocks)):
            for setup in (mine, theirs) if (r + i) % 2 == 0 else (theirs, mine):
                began = time.perf_counter()
                setup.block(i, record=r == 0)
                if setup is mine and r == 0:
                    seconds += time.perf_counter() - began
    mine.report(seconds)
    return compare(mine, theirs, args.against, args.rounds)


if __name__ == "__main__":
    sys.exit(main())
