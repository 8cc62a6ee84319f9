"""Probabilistic voxel occupancy from synthetic sonar, and problem extraction.

Log-odds cells, additive hit/miss updates with clamping, incremental grid
ray marching, exact ray/box range synthesis, and the occupancy -> planning
problem extraction (critical flags, edge collision probabilities).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .scenario import Obstacle, Scenario, open_artifact

LOG_ODDS_MIN = -3.5
LOG_ODDS_MAX = 3.5
DEFAULT_RESOLUTION = 0.5
DEFAULT_P_HIT = 0.7
DEFAULT_P_MISS = 0.4
TAU_OCC = 0.5  # occupancy above this marks a waypoint critical, an edge risky
DEFAULT_KAPPA = 0.3
EDGE_RISK_CAP = 0.95
EVIDENCE_EPS = 0.01  # |log-odds| below this counts as unobserved


class WaypointInOccupiedVoxel(ValueError):
    def __init__(self, waypoint_id: str, occupancy: float):
        self.waypoint_id = waypoint_id
        self.occupancy = occupancy
        super().__init__(
            f"waypoint {waypoint_id!r} sits in a voxel with occupancy {occupancy:.3f}")


def logistic(l: float) -> float:
    return 1.0 / (1.0 + math.exp(-l))


@dataclass(frozen=True)
class SonarBeam:
    direction: tuple[float, float, float]  # unit vector, world frame
    measured_range: float
    max_range: float


@dataclass(frozen=True)
class SonarScan:
    position: tuple[float, float, float]
    yaw: float
    beams: tuple[SonarBeam, ...]

    def __post_init__(self):
        for b in self.beams:
            n = math.sqrt(sum(c * c for c in b.direction))
            if abs(n - 1.0) > 1e-9:
                raise ValueError(f"beam direction norm {n} is not 1")
            if not (0.0 < b.measured_range <= b.max_range):
                raise ValueError(
                    f"beam range {b.measured_range} outside (0, {b.max_range}]")


class VoxelGrid:
    """3-D occupancy grid with per-voxel log-odds."""

    def __init__(self, origin, dimensions, resolution: float = DEFAULT_RESOLUTION):
        self.origin = np.asarray(origin, dtype=float)
        self.dimensions = tuple(int(d) for d in dimensions)
        self.resolution = float(resolution)
        self.log_odds = np.zeros(self.dimensions, dtype=float)

    def in_bounds(self, idx) -> bool:
        return all(0 <= idx[k] < self.dimensions[k] for k in range(3))

    def index_of(self, point) -> tuple[int, int, int]:
        rel = (np.asarray(point, dtype=float) - self.origin) / self.resolution
        return tuple(int(math.floor(c)) for c in rel)

    def occupancy(self, idx) -> float:
        return logistic(self.log_odds[idx])

    def occupancy_at(self, point) -> float:
        idx = self.index_of(point)
        if not self.in_bounds(idx):
            return 0.5
        return self.occupancy(idx)

    def observed_voxels(self) -> np.ndarray:
        """Indexes of voxels carrying any evidence, shape (n, 3)."""
        return np.argwhere(np.abs(self.log_odds) > EVIDENCE_EPS)

    def export_csv(self, path):
        with open_artifact(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["ix", "iy", "iz", "occupancy"])
            for ix, iy, iz in self.observed_voxels():
                writer.writerow([ix, iy, iz,
                                 f"{self.occupancy((ix, iy, iz)):.6f}"])


def traverse_voxels(grid: VoxelGrid, start, end) -> list[tuple[int, int, int]]:
    """Every voxel the segment crosses, in order, truncated at grid bounds.

    Incremental grid marching: step one voxel boundary at a time along the
    axis whose boundary is nearest in ray parameter.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    direction = end - start
    seg_len = float(np.linalg.norm(direction))
    if seg_len == 0.0:
        idx = grid.index_of(start)
        return [idx] if grid.in_bounds(idx) else []
    direction = direction / seg_len

    idx = list(grid.index_of(start))
    step = [0, 0, 0]
    t_max = [math.inf] * 3
    t_delta = [math.inf] * 3
    for k in range(3):
        if direction[k] > 0:
            step[k] = 1
            boundary = grid.origin[k] + (idx[k] + 1) * grid.resolution
            t_max[k] = (boundary - start[k]) / direction[k]
            t_delta[k] = grid.resolution / direction[k]
        elif direction[k] < 0:
            step[k] = -1
            boundary = grid.origin[k] + idx[k] * grid.resolution
            t_max[k] = (boundary - start[k]) / direction[k]
            t_delta[k] = -grid.resolution / direction[k]

    visited: list[tuple[int, int, int]] = []
    t = 0.0
    while t <= seg_len + 1e-12:
        if grid.in_bounds(idx):
            visited.append(tuple(idx))
        elif visited:
            break  # left the grid after entering it
        axis = min(range(3), key=lambda k: t_max[k])
        t = t_max[axis]
        if t > seg_len + 1e-12:
            break
        idx[axis] += step[axis]
        t_max[axis] += t_delta[axis]
    return visited


def integrate_scan(
    grid: VoxelGrid,
    scan: SonarScan,
    p_hit: float = DEFAULT_P_HIT,
    p_miss: float = DEFAULT_P_MISS,
) -> VoxelGrid:
    """Fold one scan into the grid (mutates and returns it)."""
    if not (0.0 < p_miss < 0.5 < p_hit < 1.0):
        raise ValueError(f"need p_miss < 0.5 < p_hit in (0,1), got {p_miss}, {p_hit}")
    l_hit = math.log(p_hit / (1.0 - p_hit))
    l_miss = math.log(p_miss / (1.0 - p_miss))
    pos = np.asarray(scan.position, dtype=float)
    for beam in scan.beams:
        d = np.asarray(beam.direction, dtype=float)
        endpoint = pos + d * beam.measured_range
        returned = beam.measured_range < beam.max_range - 1e-9
        voxels = traverse_voxels(grid, pos, endpoint)
        if not voxels:
            continue
        hit_voxel = grid.index_of(endpoint) if returned else None
        for v in voxels:
            delta = l_hit if v == hit_voxel else l_miss
            grid.log_odds[v] = min(LOG_ODDS_MAX,
                                   max(LOG_ODDS_MIN, grid.log_odds[v] + delta))
    return grid


def ray_box_range(origin, direction, box: Obstacle) -> float | None:
    """Distance to the first intersection with an axis-aligned box, if any."""
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    lo = np.asarray(box.center) - np.asarray(box.half_extents)
    hi = np.asarray(box.center) + np.asarray(box.half_extents)
    t_near, t_far = -math.inf, math.inf
    for k in range(3):
        if direction[k] == 0.0:
            if not (lo[k] <= origin[k] <= hi[k]):
                return None
            continue
        t1 = (lo[k] - origin[k]) / direction[k]
        t2 = (hi[k] - origin[k]) / direction[k]
        t_near = max(t_near, min(t1, t2))
        t_far = min(t_far, max(t1, t2))
    if t_near > t_far or t_far < 0:
        return None
    return max(t_near, 0.0)


@dataclass(frozen=True)
class BeamFan:
    """Horizontal fan of beams centered on the sensor heading."""

    count: int = 32
    aperture: float = math.radians(90.0)
    max_range: float = 15.0

    def directions(self, yaw: float) -> list[tuple[float, float, float]]:
        if self.count == 1:
            offsets = [0.0]
        else:
            offsets = np.linspace(-self.aperture / 2, self.aperture / 2, self.count)
        return [(math.cos(yaw + off), math.sin(yaw + off), 0.0) for off in offsets]


def synthesize_scans(
    obstacles: list[Obstacle],
    sensor_path: list[tuple[tuple[float, float, float], float]],
    fan: BeamFan,
    rng: np.random.Generator,
    range_sigma: float = 0.0,
) -> list[SonarScan]:
    """Exact ray/box ranges along a sensor path, with Gaussian range noise."""
    if range_sigma < 0:
        raise ValueError("range noise sigma must be >= 0")
    scans = []
    for position, yaw in sensor_path:
        beams = []
        for d in fan.directions(yaw):
            hits = [r for r in (ray_box_range(position, d, o) for o in obstacles)
                    if r is not None and r <= fan.max_range]
            r = min(hits) if hits else fan.max_range
            if range_sigma > 0 and hits:
                r += float(rng.normal(0.0, range_sigma))
                r = min(max(r, 1e-6), fan.max_range)
            beams.append(SonarBeam(d, r, fan.max_range))
        scans.append(SonarScan(tuple(position), yaw, tuple(beams)))
    return scans


def _max_occupancy_near_segment(grid: VoxelGrid, a, b, radius: float) -> float:
    """Max occupancy over observed voxels within radius of segment ab."""
    observed = grid.observed_voxels()
    if len(observed) == 0:
        return 0.0
    centers = grid.origin + (observed + 0.5) * grid.resolution
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        d = np.linalg.norm(centers - a, axis=1)
    else:
        t = np.clip((centers - a) @ ab / denom, 0.0, 1.0)
        d = np.linalg.norm(centers - (a + t[:, None] * ab), axis=1)
    near = observed[d <= radius]
    if len(near) == 0:
        return 0.0
    lo = grid.log_odds[near[:, 0], near[:, 1], near[:, 2]]
    return float(1.0 / (1.0 + np.exp(-np.max(lo))))


def extract_problem(
    grid: VoxelGrid,
    scenario: Scenario,
    kappa: float = DEFAULT_KAPPA,
) -> Scenario:
    """Re-derive critical flags and edge collision risks from the map,
    looking for occupied voxels within the scenario's critical radius.

    Returns a new Scenario; obstacles, mission, and limits are untouched.
    """
    clearance = scenario.critical_radius
    positions = scenario.positions()
    critical: dict[str, bool] = {}
    for w in scenario.waypoints:
        own = grid.occupancy_at(w.position)
        if own > TAU_OCC and abs(own - 0.5) > 1e-12:
            raise WaypointInOccupiedVoxel(w.id, own)
        near = _max_occupancy_near_segment(grid, w.position, w.position, clearance)
        critical[w.id] = near > TAU_OCC

    new_waypoints = [replace(w, is_critical=critical[w.id]) for w in scenario.waypoints]
    new_edges = []
    for e in scenario.edges:
        occ = _max_occupancy_near_segment(grid, positions[e.a], positions[e.b], clearance)
        risk = 0.0 if occ <= TAU_OCC else min(kappa * occ, EDGE_RISK_CAP)
        new_edges.append(replace(e, collision_probability=risk))
    return replace(scenario, waypoints=new_waypoints, edges=new_edges)
