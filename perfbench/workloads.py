"""The benchmark's workloads.

Each one derives a fixed list of ops from the workload seed, runs one op
through riskplan's public API, checks its output, and reduces the output
to its deterministic part (`digest`), which is what `outputs_sha256`
covers. Wall-clock fields such as `planning_time_s` are left out of the
digest.

Ops come in units: one op for the tanks workloads, one cycle over the three
corridor sizes for corridor-sweep, so that every run holds the sizes in
equal number.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from riskplan import pipeline, planner, reporting
from riskplan.scenario import ground_to_mdp, load_scenario

TANKS = "scenarios/tanks.scn"
# depth = criticals: grounded corridors of 130, 280 and 550 MDP states
CORRIDOR_SIZES = (64, 139, 274)
OP_LIST_LENGTH = 3000


class CheckFailed(Exception):
    pass


def corridor_states(size: int) -> int:
    """MDP states of the grounded corridor with depth = criticals = size."""
    return 2 * size + 2


def op_seeds(seed: int, count: int = OP_LIST_LENGTH) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


class TanksWorkload:
    """`run_pipeline` on tanks.scn, one op per master seed."""

    unit_ops = 1

    def __init__(self, name: str, root: Path, out_dir: Path, episodes: int,
                 from_sonar: bool, min_units: int):
        self.name = name
        self.scenario_path = root / TANKS
        self.out_dir = out_dir
        self.episodes = episodes
        self.from_sonar = from_sonar
        self.min_units = min_units
        parsed = load_scenario(self.scenario_path)
        if not parsed.ok:
            raise ValueError(f"{self.scenario_path}: {parsed.errors}")
        # Mapping changes edge risks, never the graph, so the plain grounding
        # has the same states, actions and most probable successors.
        self.mdp = ground_to_mdp(parsed.scenario)
        self.final_position = parsed.scenario.positions()[parsed.scenario.final]

    def ops(self, seed: int) -> list[int]:
        return op_seeds(seed)

    def config(self, master_seed: int, episodes: int) -> pipeline.PipelineConfig:
        return pipeline.PipelineConfig(
            scenario_path=str(self.scenario_path), out_dir=str(self.out_dir),
            master_seed=master_seed, episodes=episodes, from_sonar=self.from_sonar)

    def warm_up(self):
        pipeline.run_pipeline(self.config(0, 2))

    def run(self, master_seed: int):
        return pipeline.run_pipeline(self.config(master_seed, self.episodes))

    def check(self, master_seed: int, result) -> None:
        ids = [c.plan.id for c in result.candidates]
        for c in result.candidates:
            try:
                planner.linearize_trace(self.mdp, c.plan)
            except planner.ImproperPolicy as exc:
                raise CheckFailed(f"{c.plan.id} does not reach the goal: {exc}")
            if "inspect sm_tank" not in c.plan.linearization:
                raise CheckFailed(f"{c.plan.id} never inspects sm_tank")
        if result.selected not in ids:
            raise CheckFailed(f"selected {result.selected!r} is not one of {ids}")
        for pid in ids:
            n = len(result.episode_records.get(pid, ()))
            if n != self.episodes:
                raise CheckFailed(f"{pid} has {n} episode records, not {self.episodes}")
            # the pipeline does not check this: the refined path ends where
            # the mission does
            traj = result.trajectories.get(pid)
            end = traj.samples[-1].position if traj and traj.samples else None
            if end is None or math.dist(end, self.final_position) > 1e-9:
                raise CheckFailed(f"trajectory of {pid} ends at {end}, not at the "
                                  f"final waypoint {self.final_position}")
        for pid, metrics in result.report["metrics"].items():
            for key, value in metrics.items():
                if not math.isfinite(value):
                    raise CheckFailed(f"report metric {pid}.{key} is {value}")

    def digest(self, master_seed: int, result) -> dict:
        return {
            "master_seed": master_seed,
            "candidates": [{"id": c.plan.id, "schema": c.plan.linearization,
                            "gammas": c.gammas} for c in result.candidates],
            "selected": result.selected,
            "episodes": {pid: [[r.execution_time_s, len(r.incidents), r.completed]
                               for r in recs]
                         for pid, recs in sorted(result.episode_records.items())},
        }


class CorridorWorkload:
    """One `run_scaling` row per op, cycling over the corridor sizes."""

    name = "corridor-sweep"
    unit_ops = len(CORRIDOR_SIZES)
    min_units = 1

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir  # run_scaling writes nothing; kept for the loop

    def ops(self, seed: int) -> list[tuple[int, int]]:
        return [(CORRIDOR_SIZES[i % self.unit_ops], s)
                for i, s in enumerate(op_seeds(seed))]

    def warm_up(self):
        reporting.run_scaling([8], [8], master_seed=0)

    def run(self, op):
        size, master_seed = op
        return reporting.run_scaling([size], [size], master_seed=master_seed)[0]

    def check(self, op, row) -> None:
        size, _ = op
        if not row.solvable:
            raise CheckFailed(f"corridor {size} unsolvable: {row.error}")
        # safe route with unrecoverable collisions: depth hops + one detour hop
        # per critical waypoint
        if row.plan_length != size + size:
            raise CheckFailed(f"corridor {size}: plan length {row.plan_length}, "
                              f"expected {size + size}")

    def digest(self, op, row) -> dict:
        size, master_seed = op
        return {"size": size, "master_seed": master_seed,
                "plan_length": row.plan_length, "gamma": row.gamma}


def make(name: str, root: Path, out_dir: Path):
    if name == "tanks-mc":
        return TanksWorkload(name, root, out_dir, episodes=100, from_sonar=False,
                             min_units=1)
    if name == "tanks-sonar":
        return TanksWorkload(name, root, out_dir, episodes=10, from_sonar=True,
                             min_units=5)
    if name == "corridor-sweep":
        return CorridorWorkload(out_dir)
    raise ValueError(f"unknown workload {name!r}")
