"""``tools/shared_setup_digest.py`` on a 2-instance slice: the same digests
alone and against a second copy of the same tree, the per-method timing
lines, and the exact sign test."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "shared_setup_digest.py"
SLICE = ["--problems", "hil_n2_m2,dgo2_n1_m2"]


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *SLICE, *args], capture_output=True,
                          text=True, timeout=300)


def test_against_its_own_tree_agrees_and_times_every_method():
    alone, against = _run(), _run("--against", str(ROOT), "--rounds", "2")
    assert alone.returncode == against.returncode == 0, against.stderr
    digests = re.findall(r"^(?:\w+: )?sha256 [0-9a-f]{64}$", alone.stdout, flags=re.M)
    assert len(digests) == 6
    assert re.findall(r"^(?:\w+: )?sha256 [0-9a-f]{64}$", against.stdout, flags=re.M) == digests
    assert "trm: converged 10/10" in alone.stdout and "50 runs in" in alone.stdout
    assert f"digests equal against {ROOT}" in against.stdout
    # the SIMD level that the digests hold at, alone and against
    simd = r"^numpy \S+, SIMD baseline [\w ]+, dispatched [\w ]+$"
    assert len(re.findall(simd, alone.stdout, flags=re.M)) == 1
    assert re.findall(simd, against.stdout, flags=re.M) == re.findall(simd, alone.stdout,
                                                                       flags=re.M)
    rows = re.findall(r"^(\w+): wall [+-]\d+\.\d% (\d+)/(\d+) p=\S+; "
                      r"cpu [+-]\d+\.\d% (\d+)/(\d+) p=\S+$", against.stdout, flags=re.M)
    assert [r[0] for r in rows] == ["trm", "max", "avg", "sd", "cg", "all"]
    # ten blocks, each a win, a loss or a tie
    assert all(int(w) + int(l) <= 10 for r in rows for w, l in (r[1:3], r[3:5]))


def test_sign_test_is_the_exact_two_sided_binomial():
    spec = importlib.util.spec_from_file_location("shared_setup_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.sign_test(10, 0) == pytest.approx(2 / 1024)
    assert tool.sign_test(1, 9) == pytest.approx(22 / 1024)
    assert tool.sign_test(5, 5) == tool.sign_test(0, 0) == 1.0
