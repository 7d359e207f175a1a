"""Every script under ``tools/`` imports against this tree, so a setopt name
that a script uses and a change renames fails here, not at the script's
next run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOLS = sorted(path.stem for path in (ROOT / "tools").glob("*.py"))


def test_every_tool_imports():
    # one subprocess: importing a script pins OPENBLAS_NUM_THREADS and edits
    # sys.path, which must stay out of the test process
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(ROOT / 'tools')!r})",
        *(f"import {name}" for name in TOOLS),
        "import decision_flips, shared_setup_digest",
        "assert decision_flips.starts is shared_setup_digest.starts",
        "assert decision_flips.IT_MAX is shared_setup_digest.IT_MAX",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=120)
    assert out.returncode == 0, out.stderr
