"""Disturbed kinematic execution of refined trajectories.

A point robot chases the trajectory samples at their commanded speed under
Gaussian current drift; obstacles are displaced once per episode; coming
closer to an obstacle than the clearance threshold logs an incident and
adds a recovery time penalty.  Every episode is a pure function of its
seed tuple (master seed, plan id, episode index).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, asdict

import numpy as np

from .refiner import Trajectory, _norm
from .scenario import Scenario

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


def _simulate(
    trajectory: Trajectory,
    scenario: Scenario,
    cfg: DisturbanceConfig,
    seeds: list[tuple[int, str, int]],
) -> list[EpisodeRecord]:
    """Run one episode per seed tuple, all of them in lockstep.

    Each tick moves every running episode at once; an episode leaves the
    batch when it completes, times out or aborts.  Per episode the
    arithmetic, and the order of its random draws, is that of a loop
    stepping the episode on its own, so a record does not depend on the
    batch it ran in.
    """
    if not trajectory.samples:
        raise ValueError("trajectory must be nonempty")
    samples = trajectory.samples
    last = len(samples)
    if last == 1:  # already at the only sample
        return [EpisodeRecord(seed[1], seed[2], 0.0, [], True, seed) for seed in seeds]
    points = np.array([s.position for s in samples], dtype=float)
    speeds = np.maximum(np.array([s.speed for s in samples], dtype=float), 1e-6)
    labels = [o.label for o in scenario.obstacles]
    half = np.array([o.half_extents for o in scenario.obstacles],
                    dtype=float).reshape(-1, 3)
    timeout = max(TIMEOUT_FACTOR * trajectory.nominal_duration, 10.0)

    n = len(seeds)
    rngs = [episode_rng(*seed) for seed in seeds]
    incidents: list[list[Incident]] = [[] for _ in range(n)]
    records: list[EpisodeRecord | None] = [None] * n

    # one row per running episode; ids[row] is its index into seeds
    ids = np.arange(n)
    centers = np.array([_obstacle_centers(scenario, cfg, rng) for rng in rngs]
                       ).reshape(n, len(labels), 3)
    pos = np.tile(points[0], (n, 1))
    k = np.ones(n, dtype=np.intp)
    sim_time = np.zeros(n)
    in_contact = np.zeros((n, len(labels)), dtype=bool)
    noise = np.empty((n, _NOISE_CHUNK, 3))

    tick = 0
    while ids.size:
        # move for one tick, consuming samples as the capture radius allows
        budget = np.full(ids.size, SIM_DT)
        moving = np.arange(ids.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            while moving.size:
                kk = k[moving]
                p = pos[moving]
                room = budget[moving]
                speed = speeds[kk]
                gap = points[kk] - p
                dist = _norm(gap)
                reach = np.maximum(dist - cfg.capture_radius, 0.0)
                far = reach > speed * room
                unit = gap / dist[:, None]  # not used where dist == 0
                # beyond reach, travel the whole budget toward the sample;
                # otherwise capture it and spend reach / speed of the budget
                pos[moving] = np.where(
                    far[:, None], p + unit * speed[:, None] * room[:, None],
                    np.where((dist > 0.0)[:, None], p + unit * reach[:, None], p))
                room = np.where(far, 0.0, room - reach / speed)
                kk = kk + ~far
                budget[moving] = room
                k[moving] = kk
                moving = moving[(room > 0.0) & (kk < last)]
        leftover = np.where(k == last, budget, 0.0)
        if cfg.current_sigma > 0:
            if tick % _NOISE_CHUNK == 0:
                for row, i in enumerate(ids):
                    noise[row] = rngs[i].normal(0.0, cfg.current_sigma,
                                                size=(_NOISE_CHUNK, 3))
            pos = pos + noise[:, tick % _NOISE_CHUNK] * SIM_DT
        sim_time += SIM_DT - leftover
        tick += 1

        gap = np.maximum(np.abs(pos[:, None, :] - centers) - half, 0.0)
        dist = _norm(gap)
        touching = dist < cfg.clearance
        fresh = touching & ~in_contact
        aborted = np.zeros(ids.size, dtype=bool)
        for row in np.flatnonzero(fresh.any(axis=1)):
            # obstacles in declaration order: a second incident in this
            # tick is stamped after the first one's penalty
            for j in np.flatnonzero(fresh[row]):
                incidents[ids[row]].append(Incident(
                    round(float(sim_time[row]), 6), labels[j],
                    round(float(dist[row, j]), 6)))
                sim_time[row] += cfg.recovery_penalty_s
                if cfg.abort_on_collision:
                    aborted[row] = True
                    break
        in_contact = touching

        failed = aborted | (sim_time > timeout)
        done = failed | (k == last)
        if done.any():
            for row in np.flatnonzero(done):
                i = ids[row]
                _, plan_id, episode_index = seeds[i]
                records[i] = EpisodeRecord(plan_id, episode_index,
                                           round(float(sim_time[row]), 6),
                                           incidents[i], not failed[row], seeds[i])
            keep = ~done
            ids, centers, pos, k, sim_time, in_contact, noise = (
                a[keep] for a in (ids, centers, pos, k, sim_time, in_contact, noise))
    return records


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
    with open(path, "w", encoding="utf-8") as fh:
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
