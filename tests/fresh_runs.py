"""Run one pytest node id in N fresh processes in each of one or more
checkouts, and print how often it passed in each.

    python tests/fresh_runs.py NODE_ID N CHECKOUT [CHECKOUT ...]

Each run is a new `python -m pytest` process in the checkout, with that
checkout's `src/` on PYTHONPATH.  Round r runs every checkout once,
starting with checkout r mod the number of checkouts, so no checkout
always goes first.  For a timing-sensitive test such as acceptance 7:

    python tests/fresh_runs.py \\
        tests/test_acceptance.py::test_acceptance_7_scaling_suite 30 ../parent .

pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path


def passes(node_id: str, checkout: Path) -> bool:
    """Whether ``node_id`` passes in one fresh pytest process in ``checkout``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          node_id], cwd=checkout, env=env, capture_output=True)
    return run.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("node_id", help="pytest node id, relative to each checkout")
    parser.add_argument("n", type=int, help="fresh runs per checkout")
    parser.add_argument("checkouts", nargs="+", type=Path, help="checkout directories")
    args = parser.parse_args(argv)
    checkouts = [c.resolve() for c in args.checkouts]
    passed = [0] * len(checkouts)
    for r in range(args.n):
        for k in range(len(checkouts)):
            c = (r + k) % len(checkouts)
            ok = passes(args.node_id, checkouts[c])
            passed[c] += ok
            print(f"round {r + 1}: {checkouts[c]}: {'pass' if ok else 'FAIL'}",
                  file=sys.stderr, flush=True)
    for checkout, k in zip(checkouts, passed):
        print(f"{checkout}: {k}/{args.n} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
