"""Disturbed kinematic execution of refined trajectories.

A point robot chases the trajectory samples at their commanded speed under
Gaussian current drift; obstacles are displaced once per episode; coming
closer to an obstacle than the clearance threshold logs an incident and
adds a recovery time penalty.  Every episode is a pure function of its
seed tuple (master seed, plan id, episode index).

The tick loop runs in the compiled C kernel (see `kernel`), so simulation
needs a C compiler.  Random draws stay in numpy, and the kernel rounds as
the numpy code it replaced did, so the records are those of a loop
stepping each episode on its own.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from . import kernel
from .refiner import Trajectory
from .scenario import Scenario, open_artifact

SIM_DT = 0.1
TIMEOUT_FACTOR = 10.0
# drift noise rows drawn ahead per episode; one draw of (C, 3) gives the
# values C draws of 3 would
_NOISE_CHUNK = 64


@dataclass(frozen=True)
class DisturbanceConfig:
    current_sigma: float = 0.05        # m/s, per-axis drift
    obstacle_sigma: float = 0.3        # m, one-shot displacement
    capture_radius: float = 0.3        # m
    clearance: float = 0.5             # m, incident threshold
    recovery_penalty_s: float = 20.0
    perturb_target: str | None = "sm_tank"  # obstacle label; None moves nothing
    perturb_all: bool = False
    abort_on_collision: bool = False

    def __post_init__(self):
        for name in ("current_sigma", "obstacle_sigma", "capture_radius",
                     "clearance", "recovery_penalty_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class Incident:
    time: float
    obstacle: str
    min_distance: float


@dataclass
class EpisodeRecord:
    plan_id: str
    episode_index: int
    execution_time_s: float
    incidents: list[Incident]
    completed: bool
    seed: tuple[int, str, int]


def episode_rng(master_seed: int, plan_id: str, episode_index: int) -> np.random.Generator:
    """Named stream derivation so episodes never depend on scheduling."""
    plan_key = zlib.crc32(plan_id.encode("utf-8"))
    return np.random.default_rng(
        np.random.SeedSequence([master_seed, plan_key, episode_index]))


def _obstacle_centers(scenario: Scenario, cfg: DisturbanceConfig,
                      rng: np.random.Generator) -> np.ndarray:
    """(m, 3) obstacle centres of one episode, displaced in declaration order."""
    centers = np.empty((len(scenario.obstacles), 3))
    for j, o in enumerate(scenario.obstacles):
        center = np.asarray(o.center, dtype=float)
        movable = cfg.perturb_all or o.label == cfg.perturb_target
        if movable and cfg.obstacle_sigma > 0:
            center = center + rng.normal(0.0, cfg.obstacle_sigma, size=3)
        centers[j] = center
    return centers


_RUNNING = 0
_COMPLETED = 1


def _simulate(
    trajectory: Trajectory,
    scenario: Scenario,
    cfg: DisturbanceConfig,
    seeds: list[tuple[int, str, int]],
) -> list[EpisodeRecord]:
    """Run one episode per seed tuple.

    The compiled kernel steps each running episode up to _NOISE_CHUNK ticks
    per call; between calls each episode draws its next drift chunk.  An
    episode's arithmetic and random draws are its own, so a record does
    not depend on the batch it ran in.
    """
    if not trajectory.samples:
        raise ValueError("trajectory must be nonempty")
    samples = trajectory.samples
    last = len(samples)
    if last == 1:  # already at the only sample
        return [EpisodeRecord(seed[1], seed[2], 0.0, [], True, seed) for seed in seeds]
    lib = kernel.load()
    points = np.array([s.position for s in samples], dtype=float)
    speeds = np.maximum(np.array([s.speed for s in samples], dtype=float), 1e-6)
    labels = [o.label for o in scenario.obstacles]
    m = len(labels)
    half = np.array([o.half_extents for o in scenario.obstacles],
                    dtype=float).reshape(m, 3)
    timeout = max(TIMEOUT_FACTOR * trajectory.nominal_duration, 10.0)
    drift = cfg.current_sigma > 0

    n = len(seeds)
    rngs = [episode_rng(*seed) for seed in seeds]
    centers = np.array([_obstacle_centers(scenario, cfg, rng) for rng in rngs]
                       ).reshape(n, m, 3)
    pos = np.tile(points[0], (n, 1))
    k = np.ones(n, dtype=np.intp)
    sim_time = np.zeros(n)
    in_contact = np.zeros((n, m), dtype=np.uint8)
    status = np.zeros(n, dtype=np.int8)
    noise = np.zeros((n, _NOISE_CHUNK, 3))
    capacity = n * _NOISE_CHUNK * m
    ev_row, ev_obs = np.empty(capacity, dtype=np.intp), np.empty(capacity, dtype=np.intp)
    ev_time, ev_dist = np.empty(capacity), np.empty(capacity)
    incidents: list[list[Incident]] = [[] for _ in range(n)]

    running = range(n)
    while len(running):
        if drift:
            for i in running:
                noise[i] = rngs[i].normal(0.0, cfg.current_sigma, size=(_NOISE_CHUNK, 3))
        count = lib.simulate_ticks(
            n, _NOISE_CHUNK, SIM_DT, points, speeds, last, m, half, centers,
            drift, noise, cfg.capture_radius, cfg.clearance,
            cfg.recovery_penalty_s, cfg.abort_on_collision, timeout,
            pos, k, sim_time, in_contact, status, ev_row, ev_obs, ev_time, ev_dist)
        for row, j, t, d in zip(ev_row[:count].tolist(), ev_obs[:count].tolist(),
                                ev_time[:count].tolist(), ev_dist[:count].tolist()):
            incidents[row].append(Incident(round(t, 6), labels[j], round(d, 6)))
        running = np.flatnonzero(status == _RUNNING)
    return [EpisodeRecord(seed[1], seed[2], round(t, 6), incidents[i],
                          bool(status[i] == _COMPLETED), seed)
            for i, (seed, t) in enumerate(zip(seeds, sim_time.tolist()))]


def run_episode(
    trajectory: Trajectory,
    scenario: Scenario,
    cfg: DisturbanceConfig,
    seed: tuple[int, str, int],
) -> EpisodeRecord:
    """One episode: the record a batch gives for the same seed tuple."""
    return _simulate(trajectory, scenario, cfg, [seed])[0]


def run_batch(
    trajectory: Trajectory,
    scenario: Scenario,
    cfg: DisturbanceConfig,
    n: int,
    master_seed: int = 0,
    plan_id: str | None = None,
) -> list[EpisodeRecord]:
    """n independent episodes with seed tuples (master, plan, 0..n-1)."""
    if n < 1:
        raise ValueError("need at least one episode")
    pid = trajectory.plan_id if plan_id is None else plan_id
    return _simulate(trajectory, scenario, cfg,
                     [(master_seed, pid, i) for i in range(n)])


def write_episode_log(records: list[EpisodeRecord], path):
    with open_artifact(path) as fh:
        for r in records:
            doc = asdict(r)
            doc["seed"] = list(doc["seed"])
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def read_episode_log(path) -> list[EpisodeRecord]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            doc = json.loads(line)
            try:
                doc["incidents"] = [Incident(**i) for i in doc["incidents"]]
                doc["seed"] = tuple(doc["seed"])
                out.append(EpisodeRecord(**doc))
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{line_no}: not an episode record: {exc}") from None
    return out
