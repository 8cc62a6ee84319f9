"""End-to-end orchestration.  `evaluate` takes a scenario to candidates,
trajectories, simulated episodes, risk metrics and a selected plan, with no
file I/O; `write_run` writes the result's artifacts under one directory.

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
from .occupancy import (DEFAULT_RESOLUTION, BeamFan, VoxelGrid, check_noise_sigma,
                        extract_problem, integrate_scan, synthesize_scans)
from .refiner import HelixSpec, Trajectory, refine
from .scenario import (PlanFile, Scenario, check_master_seed, ground_to_mdp, load_scenario,
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
        check_master_seed(self.master_seed)
        planner.check_gamma_sweep(self.gamma_samples, (self.gamma_low, self.gamma_high))
        planner.check_failure_cost(self.collision_cost)
        if self.episodes < assess.MIN_SAMPLES:
            raise ValueError(f"episodes must be >= {assess.MIN_SAMPLES}, got {self.episodes!r}")
        assess.check_alpha_mean(self.alpha_mean)
        check_noise_sigma(self.sonar_noise_sigma)

    def config_hash(self) -> str:
        doc = asdict(self)
        doc.pop("out_dir", None)  # where artifacts land must not change them
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()[:16]


def map_from_sonar(scenario: Scenario, master_seed: int, noise_sigma: float) -> VoxelGrid:
    """Survey the scene with a synthetic sonar sweep and build the grid."""
    check_noise_sigma(noise_sigma)  # before the grid is made
    pts = np.concatenate((scenario.points, scenario.centers))
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
    for (x, y, _), (hx, hy, _) in zip(scenario.centers.tolist(), scenario.halves.tolist()):
        r = max(hx, hy) + 6.0
        for k in range(8):
            ang = 2 * math.pi * k / 8
            pos = (x + r * math.cos(ang), y + r * math.sin(ang), z)
            path.append((pos, ang + math.pi))  # face the obstacle
    for scan in synthesize_scans(scenario.centers, scenario.halves, path, fan, rng,
                                 noise_sigma):
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
    stamp: dict  # config_sha256 and master_seed, computed once per run
    grid: VoxelGrid | None  # the surveyed map, when mapped from sonar
    candidates: list[planner.Candidate]
    trajectories: dict[str, Trajectory]
    episode_records: dict[str, list[simulator.EpisodeRecord]]
    report: dict
    summary_rows: list[dict]
    selected: str


def evaluate(scenario: Scenario, cfg: PipelineConfig) -> PipelineResult:
    """The run on ``scenario``: every artifact's content, with no file read or written."""
    stamp = {"config_sha256": cfg.config_hash(), "master_seed": cfg.master_seed}
    grid = None
    if cfg.from_sonar:
        grid = map_from_sonar(scenario, cfg.master_seed, cfg.sonar_noise_sigma)
        scenario = extract_problem(grid, scenario)

    candidates = plan_candidates(ground_to_mdp(scenario), cfg)
    trajectories = {c.plan.id: refine(scenario, c.plan.linearization, plan_id=c.plan.id,
                                      helix=cfg.helix) for c in candidates}
    episode_records = {pid: simulator.run_batch(traj, scenario, cfg.disturbance,
                                                n=cfg.episodes, master_seed=cfg.master_seed)
                       for pid, traj in trajectories.items()}

    report = {**stamp, **assess.build_report(
        {pid: [r.execution_time_s for r in records] for pid, records in episode_records.items()},
        cfg.metrics, alpha_mean=cfg.alpha_mean)}
    report["gamma_by_plan"] = {c.plan.id: c.gammas for c in candidates}
    summary_rows = [{
        "id": c.plan.id,
        "plan_schema": " -> ".join(c.plan.linearization),
        "high_level_length": len(c.plan.linearization),
        "low_level_length_m": f"{trajectories[c.plan.id].total_length:.2f}",
        "mean_s": f"{m['mean']:.2f}",
        "variance": f"{m['variance']:.4f}",
        "entropy_bits": f"{m['entropy_bits']:.4f}",
    } for c in candidates for m in [report["metrics"][c.plan.id]]]
    return PipelineResult(stamp, grid, candidates, trajectories, episode_records, report,
                          summary_rows, report["selection"]["selected"])


def write_run(result: PipelineResult, out: Path):
    """Write the artifacts of ``result`` into the existing directory ``out``."""
    if result.grid is not None:
        result.grid.export_csv(out / "grid.csv")
    for cand in result.candidates:
        pid = cand.plan.id
        result.trajectories[pid].export_csv(out / f"trajectory_{pid}.csv")
        write_candidate_plan(cand, out, trajectory_ref=f"trajectory_{pid}.csv")
        simulator.write_episode_log(result.episode_records[pid], out / f"episodes_{pid}.jsonl")
    write_json(out / "report.json", result.report)
    write_json(out / "candidates.json", {
        **result.stamp, "gammas": sorted(g for c in result.candidates for g in c.gammas),
        "dedup": {f"{g:.12f}": c.plan.id for c in result.candidates for g in c.gammas}})
    with open_artifact(out / "summary.csv", newline="") as fh:
        fh.write("# " + " ".join(f"{k}={v}" for k, v in result.stamp.items()) + "\n")
        writer = csv.DictWriter(fh, fieldnames=list(result.summary_rows[0].keys()))
        writer.writeheader()
        writer.writerows(result.summary_rows)


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for pattern in ARTIFACTS:  # an earlier run's files must not mix with this one's
        for path in out.glob(pattern):
            path.unlink()

    parsed = load_scenario(cfg.scenario_path)
    if not parsed.ok:  # the one input check; a parsed scenario grounds
        stamp = {"config_sha256": cfg.config_hash(), "master_seed": cfg.master_seed}
        write_json(out / "errors.json",
                   {**stamp, "stage": "parse", "errors": [str(e) for e in parsed.errors]})
    result = evaluate(parsed.checked(cfg.scenario_path), cfg)
    write_run(result, out)  # only a whole run writes its artifacts
    return result
