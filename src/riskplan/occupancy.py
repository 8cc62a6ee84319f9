"""Probabilistic voxel occupancy from synthetic sonar, and problem extraction.

Log-odds cells, additive hit/miss updates with clamping, incremental grid
ray marching, exact ray/box range synthesis, and the occupancy -> planning
problem extraction (critical flags, edge collision probabilities).

Ranges come from one slab test over every scan, beam and box of a survey,
each heading's beam directions worked out once, and their noise from one
draw.  The voxel walk and the log-odds updates run in the compiled C
kernel (see `kernel`), so mapping needs a C compiler, as simulation does.
The kernel keeps the update order and rounding of `traverse_voxels`, the
same walk in Python, which the tests take as the reference and
perfbench's trace wraps by name.

Extraction reads, for each waypoint and edge, only the block of the grid
within the critical radius of it, and finds the same voxels, with the same
distances, as a pass over every observed voxel of the map would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernel
from .scenario import Obstacle, Scenario, write_csv

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


@dataclass(frozen=True, eq=False)
class SonarScan:
    """A sensor position (3,), its beams' unit directions (n, 3) and ranges
    (n,), as read-only arrays, and the one max range (no return) of them
    all.  Made only if well formed, so the kernel reads the arrays as they are."""

    position: np.ndarray
    beams: np.ndarray
    ranges: np.ndarray
    max_range: float

    def __post_init__(self):
        for name in ("position", "beams", "ranges"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        object.__setattr__(self, "max_range", float(self.max_range))
        pos, dirs, r = self.position, self.beams, self.ranges
        if pos.shape != (3,) or r.ndim != 1 or dirs.shape != (len(r), 3):
            raise ValueError(f"need a (3,) position, (n, 3) directions and n ranges, "
                             f"got shapes {pos.shape}, {dirs.shape} and {r.shape}")
        if not (np.isfinite(pos).all() and 0.0 < self.max_range < math.inf):
            raise ValueError(f"need a finite position and max range > 0, got "
                             f"{pos.tolist()} and {self.max_range!r}")
        norms = np.linalg.norm(dirs, axis=1)
        if not (ok := abs(norms - 1.0) <= 1e-9).all():  # NaN fails too
            raise ValueError(f"beam direction norm {norms[~ok][0]} is not 1")
        if not (ok := (0.0 < r) & (r <= self.max_range)).all():
            raise ValueError(f"beam range {r[~ok][0]} outside (0, {self.max_range}]")


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
        """The observed voxels as CSV under the header ``ix,iy,iz,occupancy``,
        in index order, occupancy to 6 decimals, lines ending ``\\r\\n``.

        Each index along an axis is formatted once, and so is each distinct
        log-odds value's `logistic` (a map holds few: 127 over the 6,856
        voxels of the seed-7 tanks map).  A row joins its four texts, as
        object arrays added elementwise, a block of rows at a time."""
        observed = self.observed_voxels()
        distinct, which = np.unique(self.log_odds[tuple(observed.T)], return_inverse=True)
        axes = [np.array([f"{i}," for i in range(n)], dtype=object) for n in self.dimensions]
        occupancies = np.array(["%.6f\r\n" % logistic(l) for l in distinct.tolist()], dtype=object)

        def block_text(a: int, b: int) -> str:
            ix, iy, iz = (axis[observed[a:b, k]] for k, axis in enumerate(axes))
            return "".join((ix + iy + iz + occupancies[which[a:b]]).tolist())

        write_csv(path, ("ix", "iy", "iz", "occupancy"), len(observed), block_text)


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
    with np.errstate(over="ignore"):  # a tiny component gives inf, as it should
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
    """Fold one scan into the grid (mutates and returns it).

    Each beam walks the voxels from the sensor to its endpoint as
    `traverse_voxels` does: the voxel holding the endpoint of a return
    gains the hit log-odds, every other voxel on the way the miss log-odds,
    each sum clamped in turn.  The walk runs in the compiled kernel, one
    call per scan, on the arrays the scan checked when it was made.
    """
    if not (0.0 < p_miss < 0.5 < p_hit < 1.0):
        raise ValueError(f"need p_miss < 0.5 < p_hit in (0,1), got {p_miss}, {p_hit}")
    if (len(grid.dimensions) != 3 or grid.origin.shape != (3,)
            or grid.log_odds.shape != grid.dimensions):
        raise ValueError("grid origin and log-odds do not match its 3 dimensions")
    kernel.load().integrate_beams(
        len(scan.ranges), scan.position, scan.beams, scan.ranges, scan.max_range,
        math.log(p_hit / (1.0 - p_hit)), math.log(p_miss / (1.0 - p_miss)),
        LOG_ODDS_MIN, LOG_ODDS_MAX,
        grid.origin, np.array(grid.dimensions, dtype=np.intp), grid.resolution,
        grid.log_odds)
    return grid


@dataclass(frozen=True)
class BeamFan:
    """Horizontal fan of beams centered on the sensor heading."""

    count: int = 32
    aperture: float = math.radians(90.0)
    max_range: float = 15.0

    def directions(self, yaw: float) -> np.ndarray:
        """The (count, 3) unit beam directions; math's cos and sin, since
        numpy's vector ones need not round the same.  Yaw and offset are
        added as Python floats: numpy's float64 rounding, in half the time."""
        offsets = ([0.0] if self.count == 1 else
                   np.linspace(-self.aperture / 2, self.aperture / 2, self.count).tolist())
        yaw = float(yaw)
        return np.array([(math.cos(yaw + off), math.sin(yaw + off), 0.0)
                         for off in offsets], dtype=float).reshape(-1, 3)


def _nearest_hits(origins: np.ndarray, dirs: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray, max_range: float) -> np.ndarray:
    """Per scan and beam, the range to the nearest box within max_range, or
    inf, shape (scans, beams).

    The slab test of every beam (dirs, (scans, beams, 3), from the scan's
    origin in origins, (scans, 3)) against every box (corners lo and hi,
    (m, 3)) at once.  Each comparison is the one Python's min or max makes,
    taken axis by axis and then box by box, so every range equals the one a
    per-box loop finds, down to the sign of a zero.
    """
    origin = origins[:, None, None, :]
    d = dirs[:, :, None, :]
    flat = d == 0.0  # parallel to a slab: hit only from inside it
    step = np.where(flat, 1.0, d)
    with np.errstate(over="ignore"):  # a tiny component gives inf, as it should
        t1 = (lo - origin) / step
        t2 = (hi - origin) / step
    t_near = np.full(t1.shape[:3], -math.inf)
    t_far = np.full(t1.shape[:3], math.inf)
    miss = np.zeros(t1.shape[:3], dtype=bool)
    for k in range(3):
        a, b, parallel = t1[..., k], t2[..., k], flat[..., k]
        near = np.where(b < a, b, a)
        far = np.where(b > a, b, a)
        t_near = np.where(~parallel & (near > t_near), near, t_near)
        t_far = np.where(~parallel & (far < t_far), far, t_far)
        miss |= parallel & ~((lo[:, k] <= origin[..., k]) & (origin[..., k] <= hi[:, k]))
    r = np.where(0.0 > t_near, 0.0, t_near)
    hit = ~miss & ~(t_near > t_far) & ~(t_far < 0) & (r <= max_range)
    nearest = np.full(r.shape[:2], math.inf)
    for j in range(r.shape[2]):
        nearest = np.where(hit[..., j] & (r[..., j] < nearest), r[..., j], nearest)
    return nearest


def synthesize_scans(
    obstacles: list[Obstacle],
    sensor_path: list[tuple[tuple[float, float, float], float]],
    fan: BeamFan,
    rng: np.random.Generator,
    range_sigma: float = 0.0,
) -> list[SonarScan]:
    """Exact ray/box ranges along a sensor path, with Gaussian range noise.

    One slab test covers every scan, beam and box of the survey.  A beam
    that hits nothing within the fan's range reads max_range.  One draw
    gives a normal to each hit, in scan and then beam order, as a draw per
    hit would, and each noisy range is clamped to [1e-6, max_range].
    """
    if not 0.0 <= range_sigma < math.inf:  # NaN fails too
        raise ValueError(f"range noise sigma must be finite and >= 0, got {range_sigma!r}")
    boxes = np.array([(o.center, o.half_extents) for o in obstacles],
                     dtype=float).reshape(-1, 2, 3)
    lo, hi = boxes[:, 0] - boxes[:, 1], boxes[:, 0] + boxes[:, 1]
    n = len(sensor_path)
    origins = np.array([position for position, _ in sensor_path], dtype=float).reshape(n, 3)
    # each heading's beams once, keyed by the yaw's bits, as 0.0 == -0.0
    headings = {float(yaw).hex(): yaw for _, yaw in sensor_path}
    beams = {key: fan.directions(yaw) for key, yaw in headings.items()}
    directions = np.array([beams[float(yaw).hex()] for _, yaw in sensor_path],
                          dtype=float).reshape(n, fan.count, 3)
    r = _nearest_hits(origins, directions, lo, hi, fan.max_range)
    hit = r < math.inf
    r[~hit] = fan.max_range
    if range_sigma > 0:
        noisy = r[hit] + rng.normal(0.0, range_sigma, size=int(hit.sum()))
        noisy = np.where(1e-6 > noisy, 1e-6, noisy)
        r[hit] = np.where(fan.max_range < noisy, fan.max_range, noisy)
    return [SonarScan(position, d, ranges, fan.max_range)
            for (position, _), d, ranges in zip(sensor_path, directions, r)]


def _segment_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each point's (rows of (n, 3)) distance to segment ab.

    Row by row in numpy's elementwise arithmetic, so a point's distance
    does not depend on which other points come with it.  A BLAS product
    (`@`) has no such property: OpenBLAS rounds a row by its place in the
    array, fusing the multiply-adds of some rows and not of others."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(points - a, axis=1)
    rel = points - a
    t = np.clip((rel[:, 0] * ab[0] + rel[:, 1] * ab[1] + rel[:, 2] * ab[2]) / denom, 0.0, 1.0)
    return np.linalg.norm(points - (a + t[:, None] * ab), axis=1)


def _max_occupancy_near_segment(grid: VoxelGrid, a, b, radius: float) -> float:
    """Max occupancy over the observed voxels within radius of segment ab.

    Only the block of the grid that can hold such a voxel is read: per
    axis, from one voxel below the one holding the segment's least
    coordinate less the radius to one above the one holding its greatest
    plus the radius, clipped to the grid as floats before the int cast, so
    that a far-off point cannot wrap."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    res, dims = grid.resolution, np.array(grid.dimensions, dtype=float)
    first = np.clip(np.floor((np.minimum(a, b) - radius - grid.origin) / res) - 1, 0, dims)
    end = np.clip(np.floor((np.maximum(a, b) + radius - grid.origin) / res) + 2, 0, dims)
    first, end = first.astype(int), end.astype(int)
    block = grid.log_odds[tuple(slice(i, j) for i, j in zip(first, end))]
    observed = np.argwhere(np.abs(block) > EVIDENCE_EPS)
    centers = grid.origin + (observed + first + 0.5) * res
    near = block[tuple(observed.T)][_segment_distances(centers, a, b) <= radius]
    if len(near) == 0:
        return 0.0
    return float(1.0 / (1.0 + np.exp(-np.max(near))))


def extract_problem(
    grid: VoxelGrid,
    scenario: Scenario,
    kappa: float = DEFAULT_KAPPA,
) -> Scenario:
    """Re-derive critical flags and edge collision risks from the map,
    looking for occupied voxels within the scenario's critical radius.

    Returns a new Scenario; obstacles, mission, and limits are untouched.
    """
    if not 0.0 <= kappa < math.inf:  # NaN fails too
        raise ValueError(f"kappa must be finite and >= 0, got {kappa!r}")
    clearance = scenario.critical_radius
    positions = scenario.positions()
    new_waypoints = []
    for w in scenario.waypoints:
        own = grid.occupancy_at(w.position)
        if own > TAU_OCC and abs(own - 0.5) > 1e-12:
            raise WaypointInOccupiedVoxel(w.id, own)
        near = _max_occupancy_near_segment(grid, w.position, w.position, clearance)
        new_waypoints.append(replace(w, is_critical=near > TAU_OCC))
    new_edges = []
    for e in scenario.edges:
        occ = _max_occupancy_near_segment(grid, positions[e.a], positions[e.b], clearance)
        risk = 0.0 if occ <= TAU_OCC else min(kappa * occ, EDGE_RISK_CAP)
        new_edges.append(replace(e, collision_probability=risk))
    return replace(scenario, waypoints=new_waypoints, edges=new_edges)
