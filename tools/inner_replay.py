"""Capture the ``inner_minimax`` calls of a perfbench workload, replay and time them.

    python tools/inner_replay.py --workload tr_table2 --seed 3002 [--seconds 20] \
        [--repeat 5] [--save calls.pkl]
    python tools/inner_replay.py --load calls.pkl [--repeat 5]

Capture builds the jobs of ``perfbench/worker.py``'s workload for the seed
and ``--seconds`` (the same arguments give the same jobs), wraps
``subproblem.inner_minimax`` and runs the workload's timed region once,
keeping a copy of every call's model blocks, cone, radius and box shift.
The first-order bound that can skip a solve is ``theta_and_step``'s, ahead
of ``inner_minimax``, so the captured calls are full solves only.
``--save`` pickles them, so that another checkout's copy of this script can
``--load`` and replay the very same calls; load only files that ``--save``
wrote, since unpickling can run code.  Files saved by versions whose calls
held a sixth item, ``stop_tol``, no longer load.

Replay calls ``inner_minimax`` on every captured call in order and prints
one sha256 over each call's (s, t, statuses), or its ``InnerSolveFailure``
message: two trees with bitwise-equal steps print the same digest.  Then it
times ``--repeat`` rounds of two replays each: one plain, and one with
``subproblem._epigraph_slsqp`` and the SLSQP core (``subproblem._slsqp``)
wrapped in timers.  It prints the fastest plain replay and the split of the
fastest timed one: the time in the core, in the rest of
``_epigraph_slsqp`` (the reverse-communication loop and its products) and
outside the solve (set-up, starts and the final pick), in milliseconds.
The timers add a wrapper call per core call, most of it counted as core.

With ``--against ROOT`` it also loads the ``src/setopt`` of the checkout
at ROOT as a second package, prints that tree's digest, and times plain
replays of both trees in alternating order, ``--repeat`` rounds, in one
process: the fastest of each and the median and quartiles of the per-round
ratio this tree / ROOT.

It uses this checkout's ``src`` and ``perfbench`` and pins
``OPENBLAS_NUM_THREADS=1`` before numpy loads, as perfbench does.
"""

import argparse
import hashlib
import os
import pickle
import statistics
import sys
import tempfile
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from setopt import subproblem  # noqa: E402
from shared_setup_digest import other_tree  # noqa: E402


def capture(workload: str, seed: int, seconds: float) -> list:
    """(G, H, cone, radius, box_shift) of every call the jobs make."""
    import worker

    calls = []
    original = subproblem.inner_minimax

    def record(models, cone, radius, box_shift=None):
        shift = None if box_shift is None else tuple(np.array(b) for b in box_shift)
        calls.append((np.array(models.G), np.array(models.H), cone, radius, shift))
        return original(models, cone, radius, box_shift)

    subproblem.inner_minimax = record
    try:
        with tempfile.TemporaryDirectory() as store:
            worker.Workload(workload, seed, seconds, Path(store)).run()
    finally:
        subproblem.inner_minimax = original
    return calls


def replay(calls: list, module=subproblem) -> list:
    """Every call's result, or the ``InnerSolveFailure`` it raised."""
    out = []
    for G, H, cone, radius, box_shift in calls:
        try:
            out.append(module.inner_minimax(module.ModelSet(G=G, H=H), cone, radius, box_shift))
        except module.InnerSolveFailure as exc:
            out.append(exc)
    return out


def digest(results: list) -> str:
    code = hashlib.sha256()
    for res in results:
        if isinstance(res, Exception):
            code.update(repr(("failure", str(res))).encode())
        else:
            code.update(repr((res.s.tobytes(), float(res.t).hex(), res.statuses)).encode())
    return code.hexdigest()


def timed(module, name: str, spent: dict):
    """Wrap ``module.name`` so that its calls add their seconds to spent[name]."""
    f = getattr(module, name)

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return f(*args, **kwargs)
        finally:
            spent[name] += time.perf_counter() - t0
    setattr(module, name, wrapper)
    return f


def split(calls: list, repeat: int) -> tuple:
    """The fastest plain replay of ``repeat``, and the split of the fastest
    timed one: (whole replay, inside the epigraph solve, inside the core)."""
    plain, best = float("inf"), (float("inf"),)
    names = ("_epigraph_slsqp", "_slsqp")
    for _ in range(repeat):
        t0 = time.perf_counter()
        replay(calls)
        plain = min(plain, time.perf_counter() - t0)
        spent = dict.fromkeys(names, 0.0)
        originals = [timed(subproblem, name, spent) for name in names]
        try:
            t0 = time.perf_counter()
            replay(calls)
            total = time.perf_counter() - t0
        finally:
            for name, f in zip(names, originals):
                setattr(subproblem, name, f)
        best = min(best, (total, spent["_epigraph_slsqp"], spent["_slsqp"]))
    return plain, best


def replay_seconds(calls: list, module) -> float:
    t0 = time.perf_counter()
    replay(calls, module)
    return time.perf_counter() - t0


def interleaved(calls: list, other, repeat: int) -> tuple:
    """Per-round seconds of this tree and the other, the side that goes
    first alternating from round to round."""
    mine, theirs = [], []
    for k in range(repeat):
        if k % 2:
            theirs.append(replay_seconds(calls, other))
            mine.append(replay_seconds(calls, subproblem))
        else:
            mine.append(replay_seconds(calls, subproblem))
            theirs.append(replay_seconds(calls, other))
    return mine, theirs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("tr_table2", "fo_table2", "cone_fig1"))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--save", type=Path)
    ap.add_argument("--load", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    if args.load is not None:
        calls = pickle.loads(args.load.read_bytes())
        source = str(args.load)
    elif args.workload is not None and args.seed is not None:
        calls = capture(args.workload, args.seed, args.seconds)
        source = f"{args.workload} seed={args.seed} seconds={args.seconds:g}"
    else:
        ap.error("give --workload and --seed, or --load")
    if args.save is not None:
        args.save.write_bytes(pickle.dumps(calls))
    print(f"{len(calls)} inner_minimax calls from {source}")
    print(f"sha256 {digest(replay(calls))}")
    other = other_tree(args.against).subproblem if args.against is not None else None
    if other is not None:
        print(f"sha256 {digest(replay(calls, other))} against {args.against}")
    if not calls:
        return 0
    plain, (total, epigraph, core) = split(calls, args.repeat)
    print(f"fastest of {args.repeat}: {1e3 * plain:.1f} ms; timed: {1e3 * total:.1f} ms, "
          f"SLSQP core {1e3 * core:.1f} ms, loop {1e3 * (epigraph - core):.1f} ms, "
          f"outside the solve {1e3 * (total - epigraph):.1f} ms")
    if other is not None:
        mine, theirs = interleaved(calls, other, args.repeat)
        ratios = [100.0 * (a / b - 1.0) for a, b in zip(mine, theirs)]
        q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
        print(f"interleaved, fastest of {args.repeat}: this tree {1e3 * min(mine):.1f} ms, "
              f"against {1e3 * min(theirs):.1f} ms; per round {statistics.median(ratios):+.1f}% "
              f"[{q1:+.1f}, {q3:+.1f}], faster in {sum(r < 0 for r in ratios)}/{len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
