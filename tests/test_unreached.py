"""Every function in `src/riskplan/` is one some command runs, or one
`tests/unreached.py` allows with its reason: the tool exits 0."""

import subprocess
import sys

from conftest import REPO_ROOT


def test_every_function_is_reached_or_allowed():
    run = subprocess.run([sys.executable, str(REPO_ROOT / "tests" / "unreached.py")],
                         cwd=REPO_ROOT, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
