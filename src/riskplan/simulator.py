"""Disturbed kinematic execution of refined trajectories.

A point robot chases the trajectory's rows at their commanded speed under
Gaussian current drift; obstacles are displaced once per episode; coming
closer to an obstacle than the clearance threshold logs an incident and
adds a recovery time penalty.  Every episode is a pure function of its
seed tuple (master seed, plan id, episode index).

The tick loop runs in the compiled C kernel (see `kernel`), so simulation
needs a C compiler.  It draws the drift from each episode's own generator
as `Generator.normal` would, and rounds as the numpy code it replaced did,
so the records are those of a loop stepping each episode on its own.

A batch of at least twice `MIN_WORKER_EPISODES` episodes is split into
contiguous runs, one per CPU the process may run on, each of at least that
many.  The calling thread runs the first, and a thread each runs the
others while ctypes releases the interpreter lock.  The records, in seed
order, do not depend on the worker count.
"""

from __future__ import annotations

import ctypes
import json
import os
from dataclasses import dataclass

import numpy as np

from . import kernel
from .refiner import MAX_DURATION_S, Trajectory
from .scenario import Scenario, from_json, named_rng, open_artifact, parse_json

SIM_DT = 0.1
TIMEOUT_FACTOR = 10.0
# An episode times out after TIMEOUT_FACTOR times its trajectory's duration.
# `refine` makes no trajectory lasting over MAX_DURATION_S, so none of its
# trajectories is refused.  One episode of this many ticks took 1.0 s on
# tanks.scn's 6 obstacles (2-vCPU VM).
MAX_EPISODE_TICKS = round(TIMEOUT_FACTOR * MAX_DURATION_S / SIM_DT)


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
            if not 0 <= getattr(self, name) < float("inf"):  # NaN fails too
                raise ValueError(f"{name} must be finite and >= 0")


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


def _obstacle_centers(scenario: Scenario, cfg: DisturbanceConfig,
                      rng: np.random.Generator) -> np.ndarray:
    """(m, 3) obstacle centres of one episode, displaced in declaration order."""
    centers = np.array([o.center for o in scenario.obstacles], dtype=float).reshape(-1, 3)
    for j, o in enumerate(scenario.obstacles):
        if (cfg.perturb_all or o.label == cfg.perturb_target) and cfg.obstacle_sigma > 0:
            centers[j] = centers[j] + rng.normal(0.0, cfg.obstacle_sigma, size=3)
    return centers


_RUNNING = 0
_COMPLETED = 1

# Episodes a worker takes at least.  A tanks.scn batch split in two (mean
# over the seed-7 candidates, min of 30 alternating calls, 2-vCPU VM) took
# 2.3-2.6 ms against 2.1-2.2 ms serial at 10 episodes, 3.9-4.0 against
# 4.0-4.3 at 20, 4.8-5.9 against 5.9-8.5 at 30 and 12.7 against 21.4 at
# 100.  A worker breaks even near 10 episodes; the floor keeps a margin
# over that for the thread's start and for Python work that holds the
# interpreter lock.
MIN_WORKER_EPISODES = 25

# PyCapsule_GetPointer, called with the interpreter lock held.  A Generator's
# `bitgen_t *` is read from its bit generator's capsule: `bit_generator.ctypes`
# gives the same address, but builds a namedtuple of ctypes function pointers
# for each new generator.
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _simulate(
    trajectory: Trajectory,
    scenario: Scenario,
    cfg: DisturbanceConfig,
    seeds: list[tuple[int, str, int]],
) -> list[EpisodeRecord]:
    """Run one episode per seed tuple, the seeds split into contiguous
    runs, one per worker.

    The compiled kernel runs each episode to its end, drawing the drift
    from the episode's generator; it returns early only when its event
    buffers fill.  An episode's arithmetic and random draws are its own, so
    a record does not depend on the batch it ran in, and so not on the
    worker count.  The records come back in seed order.
    """
    rows = trajectory.rows
    last = len(rows)
    if not last:
        raise ValueError("trajectory must be nonempty")
    duration = trajectory.nominal_duration
    timeout = max(TIMEOUT_FACTOR * duration, 10.0)
    if not timeout / SIM_DT <= MAX_EPISODE_TICKS:  # NaN fails too
        raise ValueError(f"a {duration!r} s trajectory's episodes would run up to "
                         f"{timeout / SIM_DT:.0f} ticks, more than MAX_EPISODE_TICKS "
                         f"({MAX_EPISODE_TICKS})")
    lib = kernel.load()  # built before the split: a build error starts no worker
    points = np.ascontiguousarray(rows[:, 1:4])
    speeds = np.maximum(rows[:, 4], 1e-6)
    labels = [o.label for o in scenario.obstacles]
    m = len(labels)
    half = np.array([o.half_extents for o in scenario.obstacles],
                    dtype=float).reshape(m, 3)

    def run(chunk: list[tuple[int, str, int]]) -> list[EpisodeRecord]:
        n = len(chunk)
        rngs = [named_rng(*seed) for seed in chunk]
        centers = np.array([_obstacle_centers(scenario, cfg, rng) for rng in rngs]
                           ).reshape(n, m, 3)
        # the kernel draws without the Generators' locks: rngs is private to this run
        gens = np.array([_capsule_pointer(r.bit_generator.capsule, b"BitGenerator")
                         for r in rngs], np.uintp)
        pos = np.tile(points[0], (n, 1))
        k = np.ones(n, dtype=np.intp)
        sim_time = np.zeros(n)
        in_contact = np.zeros((n, m), dtype=np.uint8)
        status = np.full(n, _COMPLETED if last == 1 else _RUNNING, dtype=np.int8)  # one row: done at the start
        capacity = n * m  # one tick's worth of incidents per episode
        ev_row, ev_obs = np.empty(capacity, dtype=np.intp), np.empty(capacity, dtype=np.intp)
        ev_time, ev_dist = np.empty(capacity), np.empty(capacity)
        incidents: list[list[Incident]] = [[] for _ in range(n)]

        while _RUNNING in status:
            count = lib.simulate_ticks(
                n, SIM_DT, points, speeds, last, m, half, centers, gens,
                cfg.current_sigma, cfg.capture_radius, cfg.clearance,
                cfg.recovery_penalty_s, cfg.abort_on_collision, timeout,
                pos, k, sim_time, in_contact, status,
                capacity, ev_row, ev_obs, ev_time, ev_dist)
            for row, j, t, d in zip(ev_row[:count].tolist(), ev_obs[:count].tolist(),
                                    ev_time[:count].tolist(), ev_dist[:count].tolist()):
                incidents[row].append(Incident(round(t, 6), labels[j], round(d, 6)))
        return [EpisodeRecord(seed[1], seed[2], round(t, 6), incidents[i],
                              bool(status[i] == _COMPLETED), seed)
                for i, (seed, t) in enumerate(zip(chunk, sim_time.tolist()))]

    workers = max(1, min(len(os.sched_getaffinity(0)), len(seeds) // MIN_WORKER_EPISODES))
    if workers == 1:
        return run(seeds)
    # imported only here: with the logging it imports, it adds ~7 ms to
    # every process's start, and a batch under the floor never needs it
    from concurrent.futures import ThreadPoolExecutor
    bounds = [len(seeds) * w // workers for w in range(workers + 1)]
    chunks = [seeds[a:b] for a, b in zip(bounds, bounds[1:])]
    with ThreadPoolExecutor(workers - 1) as pool:
        rest = [pool.submit(run, chunk) for chunk in chunks[1:]]
        records = run(chunks[0])
        return records + [record for future in rest for record in future.result()]


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
) -> list[EpisodeRecord]:
    """n independent episodes with seed tuples (master, trajectory.plan_id, 0..n-1)."""
    if n < 1:
        raise ValueError("need at least one episode")
    return _simulate(trajectory, scenario, cfg,
                     [(master_seed, trajectory.plan_id, i) for i in range(n)])


def write_episode_log(records: list[EpisodeRecord], path):
    with open_artifact(path) as fh:
        for r in records:  # the seed tuple becomes a JSON list
            fh.write(json.dumps(r, default=vars, sort_keys=True) + "\n")


def read_episode_log(path) -> list[EpisodeRecord]:
    """The records of a log that `write_episode_log` wrote, one per line,
    each checked by `from_json`."""
    with open(path, encoding="utf-8") as fh:
        return [from_json(EpisodeRecord, parse_json(line, doc := f"{path}:{line_no}"), doc)
                for line_no, line in enumerate(fh, start=1)]
