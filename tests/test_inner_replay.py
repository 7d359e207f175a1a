"""``tools/inner_replay.py`` replays saved ``inner_minimax`` calls: one digest
over the results, the same for a second tree with the same steps, and the
timing lines."""

import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from setopt.cone import k2prime, orthant

ROOT = Path(__file__).resolve().parents[1]


def _calls():
    """(G, H, cone, radius, box_shift) as the capture keeps them: a plain
    solve, one under a box shift, one whose gradients are tiny and one at
    radius 0."""
    rng = np.random.default_rng(5)
    calls = []
    for n, cone, shift, scale, radius in ((3, orthant(2), False, 1.0, 1.0),
                                          (2, k2prime(), True, 1.0, 0.5),
                                          (4, orthant(2), False, 1e-9, 1.0),
                                          (2, orthant(2), False, 1.0, 0.0)):
        G = scale * rng.normal(size=(2, 2, n))
        H = rng.normal(size=(2, 2, n, n))
        box_shift = (-rng.uniform(0.1, 1.0, n), rng.uniform(0.1, 1.0, n)) if shift else None
        calls.append((G, 0.5 * (H + H.swapaxes(2, 3)), cone, radius, box_shift))
    return calls


def test_replay_digest_and_split(tmp_path):
    saved = tmp_path / "calls.pkl"
    saved.write_bytes(pickle.dumps(_calls()))
    cmd = [sys.executable, str(ROOT / "tools" / "inner_replay.py"), "--load", str(saved),
           "--repeat", "2", "--against", str(ROOT)]
    outs = [subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120).stdout
            for _ in range(2)]
    lines = outs[0].splitlines()
    assert lines[0] == f"4 inner_minimax calls from {saved}"
    digests = re.findall(r"^sha256 ([0-9a-f]{64})", outs[0], flags=re.M)
    # this tree and the same tree loaded as a second package agree, run to run
    assert len(digests) == 2 and digests[0] == digests[1]
    assert re.findall(r"^sha256 ([0-9a-f]{64})", outs[1], flags=re.M) == digests
    assert re.search(r"SLSQP core [0-9.]+ ms, loop -?[0-9.]+ ms, "
                     r"outside the solve -?[0-9.]+ ms", outs[0])
    assert re.search(r"^interleaved, fastest of 2: .* faster in \d/2$", outs[0], flags=re.M)
