"""Run every `riskplan` command in this process under a profiler, and print
each function of `src/riskplan/*.py` that no command entered.

    python tests/unreached.py

It is the converse of `uncovered.py`: that one lists what no test runs,
this one what only the tests (or the benchmark) run.  The commands are the
README's two main experiments and staged workflow, on the bundled
scenarios, in a temporary directory: `pipeline` on tanks.scn (100
episodes, so the batch is split across workers), on ring.scn (with
`--perturb-target none`) and with `--from-sonar`, then `map`,
`gen-problem`, `plan`, `refine`, `simulate`, `assess`, `select`, `plot`
and `scaling`.  A function is entered when a call event of the profiler,
in any thread, names its code; a function is matched by its file and
first line, the line of its first decorator if it has one.  Only a
command's error paths and what the benchmark alone calls may go
unreached: they are in `ALLOWED`, each with its reason.  Each unreached
function is printed, with its reason if it has one, and so is an allowed
one that some command did enter or that does not exist.  The exit status
is 1 when an unreached function is not allowed or a command fails, else 0.

pytest does not collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "riskplan"
TANKS = str(REPO / "scenarios" / "tanks.scn")
RING = str(REPO / "scenarios" / "ring.scn")

COMMANDS = [
    ["pipeline", TANKS, "--out-dir", "tanks", "--seed", "7", "--episodes", "100"],
    ["pipeline", RING, "--out-dir", "ring", "--seed", "7", "--perturb-target", "none"],
    ["pipeline", TANKS, "--out-dir", "sonar", "--seed", "7", "--from-sonar"],
    ["map", TANKS, "--out", "grid.csv", "--seed", "1"],
    ["gen-problem", TANKS, "--out", "problem.scn", "--seed", "1"],
    ["plan", TANKS, "--out-dir", "plans", "--seed", "7"],
    ["refine", TANKS, "plans/plan_P1.json", "--out", "traj.csv"],
    ["simulate", TANKS, "traj.csv", "--seed", "7", "--out", "episodes.jsonl"],
    ["assess", "episodes.jsonl", "--out", "report.json"],
    ["select", "report.json"],
    ["plot", "report.json", "--out-svg", "boxplot.svg", "--out-csv", "samples.csv"],
    ["scaling", "--seed", "11", "--out", "scaling.csv"],
]

# "module.qualname": why no command enters it
ALLOWED = {
    # error paths: each runs only on input a command refuses, or on a fault
    "cli._fail": "prints the one stderr line of a failed command",
    "scenario.ParseIssue.__str__": "words a parse issue for errors.json and stderr",
    "mdp.InvalidModel.__init__": "a grounded model that breaks an invariant",
    "mdp.Mdp.__post_init__.<locals>.name": "names a state in an invalid model's problems",
    # runs only when the kernel is compiled, not when its cached build is loaded
    "kernel._compiler": "looks up the C compiler for a build",
    # what only the benchmark calls (perfbench/spans.py and perfbench/workloads.py)
    "occupancy.traverse_voxels": "the benchmark's voxel-visit counter wraps it",
    "refiner.Trajectory.samples": "the benchmark's tanks check and refine span read it",
    "simulator.run_episode": "the benchmark's episode span wraps it",
}


def functions() -> dict[tuple[str, int], str]:
    """Each function of the package by (file, first line), as "module.qualname"."""
    found = {}

    def visit(node, prefix: str, path: Path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first] = f"{path.stem}.{prefix}{child.name}"
                visit(child, f"{prefix}{child.name}.<locals>.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path)
    return found


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    from riskplan.cli import main as riskplan

    entered: set[tuple[str, int]] = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            for argv in COMMANDS:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = riskplan(argv)
                if code != 0:
                    print(f"riskplan {' '.join(argv)} exited {code}")
                    failed += 1
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)

    entered = {(str(Path(name).resolve()), line) for name, line in entered}
    unexplained = 0
    found = functions()
    for name in sorted(set(ALLOWED) - set(found.values())):
        print(f"{name}: allowed as unreached, but no such function")
    for key, name in sorted(found.items()):
        if key in entered:
            if name in ALLOWED:
                print(f"{name}: entered, but allowed as unreached: {ALLOWED[name]}")
            continue
        print(f"{name}: {ALLOWED.get(name, 'NOT ALLOWED')}")
        unexplained += name not in ALLOWED
    print(f"{unexplained} unreached functions not allowed, {failed} commands failed")
    return int(bool(unexplained or failed))


if __name__ == "__main__":
    sys.exit(main())
