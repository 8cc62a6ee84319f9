"""Byte-identity across changes: every artifact `run_pipeline` writes on
tanks.scn and ring.scn, and the benchmark corridors' `run_scaling` rows,
against the digests committed in `artifact_manifest.json`.

A change that means to move an artifact regenerates the manifest in the
same commit, from the repository root:

    PYTHONPATH=src python tests/test_manifest.py

and names each moved file in its changelog entry.  The episode streams
come from numpy's bit generators and the solver calls libm, so the
manifest holds on the platform it is stamped with.
"""

import hashlib
import json
import os
import platform
from dataclasses import asdict
from pathlib import Path

import numpy as np

from conftest import REPO_ROOT
from riskplan.pipeline import PipelineConfig, run_pipeline
from riskplan.reporting import run_scaling

MANIFEST = Path(__file__).with_name("artifact_manifest.json")
# relative, because config_sha256 hashes the path as given
TANKS = "scenarios/tanks.scn"
RING = "scenarios/ring.scn"
SEEDS = (7, 11, 123)
EPISODES = 100
# the benchmark's corridors: 130, 280 and 550 grounded states
CORRIDOR_SIZES = (64, 139, 274)
CORRIDOR_SEED = 11
TIMING_COLUMNS = ("planning_time_s", "median_solve_time_s")


def stamp() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def pipeline_digests(out_root: Path, scenario_path: str, sonar_modes) -> dict:
    """The sha256 of each file `run_pipeline` writes on ``scenario_path``, at
    each seed and each ``from_sonar`` value in ``sonar_modes``."""
    digests = {}
    for seed in SEEDS:
        for from_sonar in sonar_modes:
            run = f"seed{seed}-{'sonar' if from_sonar else 'plain'}"
            out = out_root / run
            run_pipeline(PipelineConfig(scenario_path=scenario_path, out_dir=str(out),
                                        master_seed=seed, episodes=EPISODES,
                                        from_sonar=from_sonar))
            for f in sorted(out.iterdir()):
                digests[f"{run}/{f.name}"] = hashlib.sha256(f.read_bytes()).hexdigest()
    return digests


def build(out_root: Path) -> dict:
    """The manifest of the working tree; relative paths resolve against the
    current directory, which must be the repository root.  ring.scn has
    plain runs only, so a change to the sonar survey moves none of its
    digests."""
    tanks = pipeline_digests(out_root / "tanks", TANKS, (False, True))
    ring = pipeline_digests(out_root / "ring", RING, (False,))
    rows = run_scaling(list(CORRIDOR_SIZES), list(CORRIDOR_SIZES), master_seed=CORRIDOR_SEED)
    corridors = {f"corridor-{r.depth}": {k: v for k, v in asdict(r).items()
                                         if k not in TIMING_COLUMNS}
                 for r in rows}
    return {"stamp": stamp(), "tanks": tanks, "ring": ring, "corridors": corridors}


def test_artifacts_match_manifest(tmp_path, monkeypatch):
    want = json.loads(MANIFEST.read_text(encoding="utf-8"))
    assert want["stamp"] == stamp(), (
        f"manifest stamped {want['stamp']}, this platform is {stamp()}")
    monkeypatch.chdir(REPO_ROOT)
    got = build(tmp_path)
    moved = [f"{part}/{name}" for part in ("tanks", "ring", "corridors")
             for name in sorted(want[part].keys() | got[part].keys())
             if want[part].get(name) != got[part].get(name)]
    assert not moved, f"{len(moved)} artifacts differ from the manifest: {', '.join(moved)}"


if __name__ == "__main__":
    import tempfile

    os.chdir(REPO_ROOT)
    with tempfile.TemporaryDirectory() as scratch:
        manifest = build(Path(scratch))
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {MANIFEST}: {len(manifest['tanks'])} tanks.scn files, "
          f"{len(manifest['ring'])} ring.scn files, {len(manifest['corridors'])} corridor rows")
