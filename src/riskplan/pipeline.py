"""End-to-end orchestration: scenario -> candidates -> trajectories ->
simulated episodes -> risk metrics -> selected plan, with all artifacts
written under one output directory.

The run's summaries carry one stamp, the config hash and master seed; all
randomness derives from the master seed through `named_rng` streams, so a
rerun with the same config reproduces every file byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import assess, planner, simulator
from .mdp import Mdp
from .occupancy import (DEFAULT_RESOLUTION, BeamFan, VoxelGrid, extract_problem,
                        integrate_scan, synthesize_scans)
from .refiner import HelixSpec, Trajectory, refine
from .scenario import (PlanFile, Scenario, from_json, ground_to_mdp, load_scenario,
                       named_rng, open_artifact, write_json, write_plan_file)
from .simulator import DisturbanceConfig

DEFAULT_COLLISION_COST = 12.0
MAX_SURVEY_VOXELS = 2**27  # 1 GiB of float64 log-odds
# every file a run may write into its output directory
ARTIFACTS = ("errors.json", "report.json", "candidates.json", "summary.csv", "grid.csv",
             "plan_P*.json", "trajectory_P*.csv", "episodes_P*.jsonl")


@dataclass
class PipelineConfig:
    scenario_path: str
    out_dir: str
    master_seed: int
    gamma_samples: int = planner.GAMMA_SAMPLES
    gamma_low: float = planner.GAMMA_INTERVAL[0]
    gamma_high: float = planner.GAMMA_INTERVAL[1]
    episodes: int = 10
    collision_cost: float | None = DEFAULT_COLLISION_COST
    from_sonar: bool = False
    sonar_noise_sigma: float = 0.05
    disturbance: DisturbanceConfig = field(default_factory=DisturbanceConfig)
    metrics: assess.MetricConfig = field(default_factory=assess.MetricConfig)
    alpha_mean: float = assess.DEFAULT_ALPHA_MEAN
    helix: HelixSpec = field(default_factory=HelixSpec)

    def __post_init__(self):
        if self.gamma_samples < 1 or self.episodes < assess.MIN_SAMPLES:
            raise ValueError(f"gamma_samples must be >= 1 and episodes "
                             f">= {assess.MIN_SAMPLES}")
        if not (0.0 < self.gamma_low < self.gamma_high <= 1.0):
            raise ValueError("gamma interval must lie inside (0,1]")
        assess.check_alpha_mean(self.alpha_mean)

    @classmethod
    def from_doc(cls, doc: dict) -> "PipelineConfig":
        """Config from a JSON document, checked by `from_json`."""
        return from_json(cls, doc, "config")

    def config_hash(self) -> str:
        doc = asdict(self)
        doc.pop("out_dir", None)  # where artifacts land must not change them
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


def map_from_sonar(scenario: Scenario, master_seed: int, noise_sigma: float) -> VoxelGrid:
    """Survey the scene with a synthetic sonar sweep and build the grid."""
    pts = np.array([w.position for w in scenario.waypoints]
                   + [o.center for o in scenario.obstacles], dtype=float)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    margin, res = 6.0, DEFAULT_RESOLUTION
    extent = hi - lo + 2 * margin
    voxels = extent / res  # checked as floats: a far-off point must not wrap the cast
    if not math.prod(voxels.tolist()) <= MAX_SURVEY_VOXELS:
        raise ValueError(f"survey grid extent {extent.tolist()} m holds more than "
                         f"{MAX_SURVEY_VOXELS} voxels of {res} m")
    grid = VoxelGrid(lo - margin, voxels.astype(int), res)
    rng = named_rng(master_seed, "sonar")
    fan = BeamFan(count=64, aperture=math.radians(120), max_range=25.0)
    path = []
    z = sum(pts[:, 2].tolist()) / len(pts)  # summed in order, as floats
    # orbit each obstacle so every face gets returns
    for o in scenario.obstacles:
        r = max(o.half_extents[0], o.half_extents[1]) + 6.0
        for k in range(8):
            ang = 2 * math.pi * k / 8
            pos = (o.center[0] + r * math.cos(ang),
                   o.center[1] + r * math.sin(ang), z)
            path.append((pos, ang + math.pi))  # face the obstacle
    scans = synthesize_scans(scenario.obstacles, path, fan, rng, noise_sigma)
    for scan in scans:
        integrate_scan(grid, scan)
    return grid


def plan_candidates(mdp: Mdp, cfg: PipelineConfig) -> list[planner.Candidate]:
    """The configured gamma sweep, on the master seed's "plan" stream."""
    return planner.generate_candidates(
        mdp, cfg.gamma_samples, (cfg.gamma_low, cfg.gamma_high),
        rng=named_rng(cfg.master_seed, "plan"), failure_cost=cfg.collision_cost)


def write_candidate_plan(cand: planner.Candidate, out_dir: Path,
                         trajectory_ref: str | None = None):
    actions = cand.plan.linearization
    write_plan_file(PlanFile(plan_id=cand.plan.id, gamma=cand.first_gamma,
                             actions=actions, high_level_length=len(actions),
                             trajectory_ref=trajectory_ref),
                    out_dir / f"plan_{cand.plan.id}.json")


@dataclass
class PipelineResult:
    candidates: list[planner.Candidate]
    trajectories: dict[str, Trajectory]
    episode_records: dict[str, list[simulator.EpisodeRecord]]
    report: dict
    summary_rows: list[dict]
    selected: str


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    stamp = {"config_sha256": cfg.config_hash(), "master_seed": cfg.master_seed}
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for pattern in ARTIFACTS:  # an earlier run's files must not mix with this one's
        for path in out.glob(pattern):
            path.unlink()

    parsed = load_scenario(cfg.scenario_path)
    if not parsed.ok:  # the one input check; a parsed scenario grounds
        write_json(out / "errors.json",
                   {**stamp, "stage": "parse", "errors": [str(e) for e in parsed.errors]})
    scenario = parsed.checked(cfg.scenario_path)

    if cfg.from_sonar:
        grid = map_from_sonar(scenario, cfg.master_seed, cfg.sonar_noise_sigma)
        grid.export_csv(out / "grid.csv")
        scenario = extract_problem(grid, scenario)

    candidates = plan_candidates(ground_to_mdp(scenario), cfg)

    trajectories: dict[str, Trajectory] = {}
    episode_records: dict[str, list[simulator.EpisodeRecord]] = {}
    summary_rows: list[dict] = []

    for cand in candidates:
        pid = cand.plan.id
        traj = refine(scenario, cand.plan.linearization, plan_id=pid, helix=cfg.helix)
        trajectories[pid] = traj
        traj_path = out / f"trajectory_{pid}.csv"
        traj.export_csv(traj_path)

        write_candidate_plan(cand, out, trajectory_ref=traj_path.name)

        records = simulator.run_batch(traj, scenario, cfg.disturbance,
                                      n=cfg.episodes, master_seed=cfg.master_seed)
        episode_records[pid] = records
        simulator.write_episode_log(records, out / f"episodes_{pid}.jsonl")

    samples_by_plan = {pid: [r.execution_time_s for r in records]
                       for pid, records in episode_records.items()}
    report = {**stamp, **assess.build_report(samples_by_plan, cfg.metrics,
                                             alpha_mean=cfg.alpha_mean)}
    report["gamma_by_plan"] = {c.plan.id: c.gammas for c in candidates}
    write_json(out / "report.json", report)
    write_json(out / "candidates.json", {
        **stamp, "gammas": sorted(g for c in candidates for g in c.gammas),
        "dedup": {f"{g:.12f}": c.plan.id for c in candidates for g in c.gammas}})

    for cand in candidates:
        pid = cand.plan.id
        m = report["metrics"][pid]
        summary_rows.append({
            "id": pid,
            "plan_schema": " -> ".join(cand.plan.linearization),
            "high_level_length": len(cand.plan.linearization),
            "low_level_length_m": f"{trajectories[pid].total_length:.2f}",
            "mean_s": f"{m['mean']:.2f}",
            "variance": f"{m['variance']:.4f}",
            "entropy_bits": f"{m['entropy_bits']:.4f}",
        })
    with open_artifact(out / "summary.csv", newline="") as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in stamp.items()) + "\n")
        writer = csv.DictWriter(fh, fieldnames=list(summary_rows[0].keys()))
        writer.writeheader()
        writer.writerows(summary_rows)

    return PipelineResult(candidates, trajectories, episode_records, report,
                          summary_rows, report["selection"]["selected"])
