"""Refine a high-level plan into a timestamped trajectory.

Piecewise-linear path through the plan's waypoints, helical inspection
loops around target obstacles, and a per-segment trapezoidal speed profile
capped at the critical speed inside critical-waypoint radii.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .scenario import Scenario, open_artifact

DEFAULT_DT = 0.1
A_MAX = 0.5  # m/s^2, acceleration and braking limit
HELIX_POINTS = 50


class DisconnectedPlan(ValueError):
    def __init__(self, a: str, b: str):
        self.pair = (a, b)
        super().__init__(f"no scenario edge connects {a!r} and {b!r}")


@dataclass(frozen=True)
class HelixSpec:
    """Inspection loop shape: one full turn around the obstacle by default."""

    points: int = HELIX_POINTS
    turns: float = 1.0
    clearance: float = 2.0
    pitch: float | None = None  # None: obstacle height per turn


@dataclass(frozen=True)
class TrajectorySample:
    time: float
    position: tuple[float, float, float]
    speed: float


@dataclass
class Trajectory:
    samples: list[TrajectorySample]
    total_length: float
    nominal_duration: float
    plan_id: str = ""

    def export_csv(self, path):
        with open_artifact(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "x", "y", "z", "v"])
            for s in self.samples:
                writer.writerow([f"{s.time:.3f}", f"{s.position[0]:.4f}",
                                 f"{s.position[1]:.4f}", f"{s.position[2]:.4f}",
                                 f"{s.speed:.4f}"])


def read_trajectory_csv(path, plan_id: str = "") -> Trajectory:
    """Trajectory from a CSV that `Trajectory.export_csv` wrote."""
    samples = []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            samples.append(TrajectorySample(float(row["t"]),
                                            (float(row["x"]), float(row["y"]),
                                             float(row["z"])),
                                            float(row["v"])))
    duration = samples[-1].time if samples else 0.0
    return Trajectory(samples, low_level_length_of(samples), duration, plan_id)


def helix_points(center, radius: float, start_angle: float, z0: float,
                 pitch: float, spec: HelixSpec) -> list[tuple[float, float, float]]:
    pts = []
    for i in range(1, spec.points + 1):
        frac = i / spec.points
        a = start_angle + 2.0 * math.pi * spec.turns * frac
        pts.append((center[0] + radius * math.cos(a),
                    center[1] + radius * math.sin(a),
                    z0 + pitch * spec.turns * frac))
    return pts


def parse_plan_steps(actions: list[str]) -> list[tuple[str, str]]:
    """(kind, name) steps from plan action labels ("goto w", "inspect t"),
    the form plan files store."""
    steps = []
    for label in actions:
        kind, _, name = label.partition(" ")
        if kind not in ("goto", "inspect"):
            raise ValueError(f"unrecognized plan action {label!r}")
        steps.append((kind, name))
    return steps


def plan_polyline(scenario: Scenario, steps: list[tuple[str, str]],
                  helix: HelixSpec = HelixSpec()) -> list[tuple[float, float, float]]:
    """Geometric waypoint list for a plan given as (kind, name) steps.

    ``("goto", waypoint_id)`` moves along a declared edge; ``("inspect",
    obstacle_label)`` inserts a helical loop around that obstacle.
    Raises DisconnectedPlan if consecutive waypoints share no edge.
    """
    positions = scenario.positions()
    current = scenario.start
    pts: list[tuple[float, float, float]] = [positions[current]]
    obstacles = {o.label: o for o in scenario.obstacles}
    for kind, name in steps:
        if kind == "goto":
            if scenario.edge_between(current, name) is None:
                raise DisconnectedPlan(current, name)
            current = name
            pts.append(positions[current])
        elif kind == "inspect":
            obs = obstacles[name]
            here = positions[current]
            radius = max(obs.half_extents[0], obs.half_extents[1]) + helix.clearance
            pitch = 2.0 * obs.half_extents[2] if helix.pitch is None else helix.pitch
            angle = math.atan2(here[1] - obs.center[1], here[0] - obs.center[0])
            pts.extend(helix_points(obs.center, radius, angle, here[2], pitch, helix))
            pts.append(here)  # return to the waypoint before continuing
        else:
            raise ValueError(f"unknown plan step kind {kind!r}")
    return pts


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis, equal bit for bit to
    `np.linalg.norm` of each 3-vector: both take the square root of a BLAS
    dot product, where `(v * v).sum(-1)` rounds differently."""
    return np.sqrt(np.vecdot(v, v))


def _in_critical_zone(centers: np.ndarray, radius: float, point) -> bool:
    """Whether ``point`` lies within ``radius`` of one of the (zones, 3)
    critical waypoint ``centers``."""
    return bool((_norm(point - centers) <= radius).any())


def refine(
    scenario: Scenario,
    steps: list[tuple[str, str]],
    plan_id: str = "",
    dt: float = DEFAULT_DT,
    helix: HelixSpec = HelixSpec(),
) -> Trajectory:
    """Trajectory for the plan: trapezoidal speed per segment, slow in
    critical zones, sampled every ``dt`` seconds."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    pts = plan_polyline(scenario, steps, helix)
    pts = [p for i, p in enumerate(pts) if i == 0 or math.dist(p, pts[i - 1]) > 1e-12]
    if len(pts) < 2:
        return Trajectory([], 0.0, 0.0, plan_id)

    centers = np.array([w.position for w in scenario.waypoints if w.is_critical],
                       dtype=float).reshape(-1, 3)
    radius = scenario.critical_radius
    v_max, v_crit = scenario.v_max, scenario.v_crit
    samples: list[TrajectorySample] = []
    t = 0.0
    for i in range(len(pts) - 1):
        a = np.asarray(pts[i], dtype=float)
        b = np.asarray(pts[i + 1], dtype=float)
        seg_len = float(np.linalg.norm(b - a))
        direction = (b - a) / seg_len
        s = 0.0
        v = 0.0
        while s < seg_len - 1e-12:
            pos = a + direction * s
            remaining = seg_len - s
            cap = v_crit if _in_critical_zone(centers, radius, pos) else v_max
            v = min(v + A_MAX * dt, cap, math.sqrt(2.0 * A_MAX * remaining))
            nxt = a + direction * min(s + v * dt, seg_len)
            if _in_critical_zone(centers, radius, nxt) and v > v_crit:
                v = v_crit
            samples.append(TrajectorySample(t, tuple(pos), v))
            step = v * dt
            if step >= remaining:
                t += remaining / v
                s = seg_len
            else:
                t += dt
                s += step
        samples.append(TrajectorySample(t, tuple(b), max(v, A_MAX * dt)))
        # the corner sample closes the segment; motion restarts from rest
        if i < len(pts) - 2:
            t += dt

    # corner samples duplicate positions when segments share endpoints
    deduped: list[TrajectorySample] = []
    for smp in samples:
        if deduped and smp.time <= deduped[-1].time:
            continue
        if deduped and math.dist(smp.position, deduped[-1].position) < 1e-12:
            continue
        deduped.append(smp)
    length = low_level_length_of(deduped)
    duration = deduped[-1].time if deduped else 0.0
    return Trajectory(deduped, length, duration, plan_id)


def low_level_length_of(samples: list[TrajectorySample]) -> float:
    return sum(math.dist(p.position, q.position) for p, q in zip(samples, samples[1:]))
