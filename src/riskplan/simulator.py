"""Disturbed kinematic execution of refined trajectories.

A point robot chases the trajectory's rows at their commanded speed under
Gaussian current drift; obstacles are displaced once per episode; coming
closer to an obstacle than the clearance threshold logs an incident and
adds a recovery time penalty.  Every episode is a pure function of its
seed tuple (master seed, plan id, episode index).

Each episode's set-up and its tick loop run in the compiled C kernel (see
`kernel`), so simulation needs a C compiler.  `scenario.named_rng` defines
an episode's stream; the kernel seeds the same PCG64 stream from the
seed tuple's key words, displaces the obstacles and draws the drift from it
as `Generator.normal` would, and rounds as the numpy code it replaced did,
so the records are those of a loop stepping each episode on its own with
`named_rng` (the tests check both).

A batch of at least twice `MIN_WORKER_EPISODES` episodes is split into
contiguous runs, one per CPU the process may run on, each of at least that
many.  The calling thread runs the first, and a thread each runs the
others while ctypes releases the interpreter lock; no episode's set-up
holds the lock.  The records, in seed order, do not depend on the worker
count.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import kernel
from .refiner import MAX_DURATION_S, Trajectory
from .scenario import Scenario, from_json, key_words, open_artifact, parse_json

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


_RUNNING = 0
_COMPLETED = 1

# Episodes a worker takes at least.  With each episode's set-up in the
# kernel, a tanks.scn batch split in two (mean over the seed-7 candidates,
# min of 30 alternating calls, 2-vCPU VM) took 1.33 ms against 1.66 ms
# serial at 10 episodes, 2.40 against 3.43 at 20 and 10.0 against 15.8 at
# 100 in a spell when the second CPU ran alongside.  In other spells it did
# not, and a split cost 0.25-0.5 ms at every size up to 100 (1.82 against
# 1.56 ms at 10, 15.2 against 14.7 at 100).  A worker breaks even below 10
# episodes when it runs; the floor keeps a margin for the spells when it
# does not and for the thread's start.
MIN_WORKER_EPISODES = 25


def _simulate(
    trajectory: Trajectory,
    scenario: Scenario,
    cfg: DisturbanceConfig,
    master_seed: int,
    plan_id: str,
    indices: list[int],
) -> list[EpisodeRecord]:
    """Run one episode per index, with seed tuple (master_seed, plan_id,
    index), the indices split into contiguous runs, one per worker.

    The compiled kernel seeds each episode's stream as `named_rng` does,
    displaces its obstacles and runs it to its end; it returns early only
    when its event buffers fill.  An episode's arithmetic and random draws
    are its own, so a record does not depend on the batch it ran in, and
    so not on the worker count.  The records come back in index order.
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
    prefix = key_words(master_seed, plan_id)
    index = np.array(indices, dtype=np.uint64)
    lib = kernel.load()  # built before the split: a build error starts no worker
    points = np.ascontiguousarray(rows[:, 1:4])
    speeds = np.maximum(rows[:, 4], 1e-6)
    labels, base, half = scenario.labels, scenario.centers, scenario.halves
    m = len(labels)
    displaced = np.array([(cfg.perturb_all or label == cfg.perturb_target)
                          and cfg.obstacle_sigma > 0 for label in labels], np.uint8)

    def run(lo: int, hi: int) -> list[EpisodeRecord]:
        n = hi - lo
        # each row's bit generator and stream, private to this run; gens
        # holds the generators' addresses in streams
        streams, gens = np.empty((n, 9), np.uint64), np.empty(n, np.uintp)
        centers = np.empty((n, m, 3))
        lib.seed_episodes(n, len(prefix), prefix, index[lo:hi], m, base, displaced,
                          cfg.obstacle_sigma, streams, gens, centers)
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
        return [EpisodeRecord(plan_id, i, round(t, 6), incidents[r],
                              bool(status[r] == _COMPLETED), (master_seed, plan_id, i))
                for r, (i, t) in enumerate(zip(indices[lo:hi], sim_time.tolist()))]

    workers = max(1, min(len(os.sched_getaffinity(0)), len(indices) // MIN_WORKER_EPISODES))
    if workers == 1:
        return run(0, len(indices))
    # imported only here: with the logging it imports, it adds ~7 ms to
    # every process's start, and a batch under the floor never needs it
    from concurrent.futures import ThreadPoolExecutor
    bounds = [len(indices) * w // workers for w in range(workers + 1)]
    with ThreadPoolExecutor(workers - 1) as pool:
        rest = [pool.submit(run, lo, hi) for lo, hi in zip(bounds[1:], bounds[2:])]
        records = run(bounds[0], bounds[1])
        return records + [record for future in rest for record in future.result()]


def run_episode(
    trajectory: Trajectory,
    scenario: Scenario,
    cfg: DisturbanceConfig,
    seed: tuple[int, str, int],
) -> EpisodeRecord:
    """One episode: the record a batch gives for the same seed tuple."""
    master_seed, plan_id, index = seed
    return _simulate(trajectory, scenario, cfg, master_seed, plan_id, [index])[0]


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
    return _simulate(trajectory, scenario, cfg, master_seed, trajectory.plan_id,
                     list(range(n)))


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
