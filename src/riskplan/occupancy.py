"""Probabilistic voxel occupancy from synthetic sonar, and problem extraction.

Log-odds cells, additive hit/miss updates with clamping, incremental grid
ray marching, exact ray/box range synthesis, and the occupancy -> planning
problem extraction (critical flags, edge collision probabilities).

A survey is one scan (beams with their origins): checked once, folded in
by one kernel call, its ranges from one slab test over every beam and box
and its noise from one draw.  The slab test, the voxel walk with its
log-odds updates, the extraction's scan and the rows of grid.csv run in
the compiled C kernel (see `kernel`), so mapping needs a C compiler, as
simulation does.  The kernel keeps the evaluation order and rounding of
the numpy and Python code it replaced (kept in the tests as references;
`traverse_voxels` is the Python walk, which perfbench's trace wraps by
name), so scans, grids, extracted scenarios and grid.csv are the same bit
for bit.

Extraction reads, for each waypoint and edge, only the block of the grid
within the critical radius of it, and finds the same voxels, with the same
distances, as a pass over every observed voxel of the map would: one
kernel call covers every waypoint and edge.
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
# floats near a grid are at most this many voxels apart: the extraction
# block's margins (a voxel below, two above) then hold the voxel centres
# and block bounds, which round by half that spacing each
MAX_FLOAT_SPACING = 0.125


def check_noise_sigma(sigma: float) -> None:
    """Raise ValueError unless the sonar range noise sigma is finite and >= 0."""
    if not 0.0 <= sigma < math.inf:  # NaN fails too
        raise ValueError(f"sonar_noise_sigma must be finite and >= 0, got {sigma!r}")


def logistic(l: float) -> float:
    return 1.0 / (1.0 + math.exp(-l))


@dataclass(frozen=True, eq=False)
class SonarScan:
    """Beams with their origins: positions (n, 3), or one (3,) for them all,
    unit directions (n, 3) and ranges (n,), read-only, and the one max range
    (no return).  Made only if well formed, so the kernel reads them as is."""

    position: np.ndarray
    beams: np.ndarray
    ranges: np.ndarray
    max_range: float

    def __post_init__(self):
        pos, dirs, r = (np.array(a, dtype=float) for a in (self.position, self.beams, self.ranges))
        object.__setattr__(self, "max_range", float(self.max_range))
        if r.ndim != 1 or pos.shape not in ((3,), (len(r), 3)) or dirs.shape != (len(r), 3):
            raise ValueError(f"need a (3,) or (n, 3) position, (n, 3) directions and n "
                             f"ranges, got shapes {pos.shape}, {dirs.shape} and {r.shape}")
        if not (ok := np.isfinite(pos)).all():
            raise ValueError(f"sensor position coordinate {pos[~ok][0]} is not finite")
        if not 0.0 < self.max_range < math.inf:  # NaN fails too
            raise ValueError(f"need a finite max range > 0, got {self.max_range!r}")
        norms = np.linalg.norm(dirs, axis=1)
        if not (ok := abs(norms - 1.0) <= 1e-9).all():  # NaN fails too
            raise ValueError(f"beam direction norm {norms[~ok][0]} is not 1")
        if not (ok := (0.0 < r) & (r <= self.max_range)).all():
            raise ValueError(f"beam range {r[~ok][0]} outside (0, {self.max_range}]")
        for name, a in (("position", np.tile(pos, (len(r), 1)) if pos.ndim == 1 else pos),
                        ("beams", dirs), ("ranges", r)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)


class VoxelGrid:
    """3-D occupancy grid with per-voxel log-odds.  Made only with an origin
    of 3 finite numbers and a finite resolution > 0: the kernel's voxel
    walk would never end at resolution 0.  Floats at the grid's far corner
    (`math.ulp` of its largest coordinate, bounded by the largest origin
    coordinate plus the longest side) must be at most MAX_FLOAT_SPACING of
    a voxel apart: where they are a voxel or more apart, voxel centres
    round onto each other, and extraction misses voxels that the whole map
    holds."""

    def __init__(self, origin, dimensions, resolution: float = DEFAULT_RESOLUTION):
        self.origin = np.asarray(origin, dtype=float)
        self.dimensions = tuple(int(d) for d in dimensions)
        self.resolution = float(resolution)
        if self.origin.shape != (3,) or not np.isfinite(self.origin).all():
            raise ValueError(f"grid origin must be 3 finite numbers, got {origin!r}")
        if not 0.0 < self.resolution < math.inf:  # NaN fails too
            raise ValueError(f"grid resolution must be finite and > 0, got {resolution!r}")
        far = float(np.abs(self.origin).max()) + max(self.dimensions, default=0) * self.resolution
        if not math.ulp(far) <= MAX_FLOAT_SPACING * self.resolution:
            raise ValueError(f"grid resolution {self.resolution!r} is too fine for a grid "
                             f"reaching {far!r}, where floats are {math.ulp(far)!r} apart")
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
        """C-order indexes into the log-odds of the voxels carrying any
        evidence, shape (n,): one pass over the whole grid."""
        l = self.log_odds  # as |l| > EVIDENCE_EPS, with no float temporary
        return np.flatnonzero((l > EVIDENCE_EPS) | (l < -EVIDENCE_EPS))

    def export_csv(self, path):
        """The observed voxels as CSV under the header ``ix,iy,iz,occupancy``,
        in index order, occupancy to 6 decimals, lines ending ``\\r\\n``.

        Each distinct log-odds value's `logistic` is formatted once (a map
        holds few: 127 over the 6,856 voxels of the seed-7 tanks map), and
        the kernel writes a block of rows at a time: each voxel's indexes,
        then its value's text."""
        _check_grid(self)
        flat = self.observed_voxels()
        values = self.log_odds.reshape(-1)[flat]
        distinct = np.unique(values)
        which = np.searchsorted(distinct, values)
        texts = ["%.6f\r\n" % logistic(l) for l in distinct.tolist()]
        offsets = np.cumsum([0, *map(len, texts)], dtype=np.intp)
        joined = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8)
        dims = np.array(self.dimensions, dtype=np.intp)
        row_bytes = 3 * len(f"{max(dims, default=0)},") + max(map(len, texts), default=0)
        lib = kernel.load()

        def block_text(a: int, b: int) -> str:
            out = np.empty((b - a) * row_bytes, dtype=np.uint8)
            size = lib.grid_rows(b - a, flat[a:b], which[a:b], dims, offsets, joined, out)
            return str(out[:size], "ascii")

        write_csv(path, ("ix", "iy", "iz", "occupancy"), len(flat), block_text)


def _check_grid(grid: VoxelGrid):
    """Raise ValueError unless the grid's log-odds are the 3-D array its
    origin and dimensions describe, as the kernel reads them."""
    if (len(grid.dimensions) != 3 or grid.origin.shape != (3,)
            or grid.log_odds.shape != grid.dimensions):
        raise ValueError("grid origin and log-odds do not match its 3 dimensions")


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

    Each beam walks the voxels from its own origin to its endpoint as
    `traverse_voxels` does: the voxel holding the endpoint of a return
    gains the hit log-odds, every other voxel on the way the miss log-odds,
    each sum clamped in turn.  The walks run in one kernel call per scan
    (per survey), on the arrays the scan checked when it was made.
    """
    if not (0.0 < p_miss < 0.5 < p_hit < 1.0):
        raise ValueError(f"need p_miss < 0.5 < p_hit in (0,1), got {p_miss}, {p_hit}")
    _check_grid(grid)
    kernel.load().integrate_beams(
        len(scan.ranges), scan.position, scan.beams, scan.ranges, scan.max_range,
        math.log(p_hit / (1.0 - p_hit)), math.log(p_miss / (1.0 - p_miss)),
        LOG_ODDS_MIN, LOG_ODDS_MAX, grid.origin, np.array(grid.dimensions, dtype=np.intp),
        grid.resolution, grid.log_odds)
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
    """Per beam, the range to the nearest box within max_range, or inf,
    shape (n,): the kernel's slab test of every beam (dirs, (n, 3), from
    its own origin in origins, (n, 3)) against every box (corners lo and
    hi, (m, 3)).  Every range equals the one a per-box loop finds, down to
    the sign of a zero."""
    if (dirs.shape != origins.shape or dirs.shape[1:] != (3,)
            or lo.shape != hi.shape or lo.shape[1:] != (3,)):
        raise ValueError(f"need (n, 3) directions and origins and (m, 3) corners, got "
                         f"shapes {dirs.shape}, {origins.shape}, {lo.shape} and {hi.shape}")
    out = np.empty(len(dirs))
    kernel.load().nearest_hits(len(dirs), origins, dirs, len(lo), lo, hi, max_range, out)
    return out


def synthesize_scans(
    obstacles: list[Obstacle],
    sensor_path: list[tuple[tuple[float, float, float], float]],
    fan: BeamFan,
    rng: np.random.Generator,
    range_sigma: float = 0.0,
) -> list[SonarScan]:
    """Exact ray/box ranges along a sensor path, with Gaussian range noise:
    a list of one scan, each sensor's fan of beams from its position.

    One slab test covers every beam and box of the survey, on the beams and
    origins the scan holds.  A beam that hits nothing within the fan's
    range reads max_range.  One draw gives a normal to each hit, in path
    and then fan order, as a draw per hit would, and each noisy range is
    clamped to [1e-6, max_range].
    """
    check_noise_sigma(range_sigma)
    boxes = np.array([(o.center, o.half_extents) for o in obstacles],
                     dtype=float).reshape(-1, 2, 3)
    lo, hi = boxes[:, 0] - boxes[:, 1], boxes[:, 0] + boxes[:, 1]
    origins = np.repeat(np.array([position for position, _ in sensor_path],
                                 dtype=float).reshape(-1, 3), fan.count, axis=0)
    # each heading's beams once, keyed by the yaw's bits, as 0.0 == -0.0
    headings = {float(yaw).hex(): yaw for _, yaw in sensor_path}
    beams = {key: fan.directions(yaw) for key, yaw in headings.items()}
    directions = np.array([beams[float(yaw).hex()] for _, yaw in sensor_path],
                          dtype=float).reshape(-1, 3)
    r = _nearest_hits(origins, directions, lo, hi, fan.max_range)
    hit = r < math.inf
    r[~hit] = fan.max_range
    if range_sigma > 0:
        noisy = r[hit] + rng.normal(0.0, range_sigma, size=int(hit.sum()))
        noisy = np.where(1e-6 > noisy, 1e-6, noisy)
        r[hit] = np.where(fan.max_range < noisy, fan.max_range, noisy)
    return [SonarScan(origins, directions, r, fan.max_range)]


def _max_occupancy_near_segments(grid: VoxelGrid, starts, ends, radius: float) -> list[float]:
    """Per segment from starts[i] to ends[i] (n points each), the max
    occupancy over the observed voxels within radius of it, or 0.0.

    The kernel reads, per segment, only the block of the grid that can
    hold such a voxel, clipped to the grid as floats before the int cast,
    so that a far-off point cannot wrap.  Each segment is measured from
    the end whose largest absolute coordinate is the smaller (the first,
    on a tie), so a huge edge reads the same from either end.  Its
    parameter is worked out with the segment and the offsets scaled down
    by the power of two that brings the segment's largest component into
    [0.5, 1), if it is larger: the scaling is exact, and the squared
    length cannot overflow for an edge longer than ~1.3e154.  That squared
    length is BLAS's dot product, as numpy's `@` rounds it, one segment at
    a time."""
    _check_grid(grid)
    a = np.array(starts, dtype=float).reshape(-1, 3)
    b = np.array(ends, dtype=float).reshape(-1, 3)
    swap = np.abs(b).max(axis=1) < np.abs(a).max(axis=1)
    a[swap], b[swap] = b[swap], a[swap]
    ab = b - a
    scale = np.ldexp(1.0, np.minimum(-np.frexp(np.abs(ab).max(axis=1))[1], 0))
    denom = np.array([v @ v for v in ab * scale[:, None]])
    best = np.empty(len(a))
    kernel.load().max_near_segments(
        len(a), a, b, scale, denom, radius, EVIDENCE_EPS, grid.origin,
        np.array(grid.dimensions, dtype=np.intp), grid.resolution, grid.log_odds, best)
    return (1.0 / (1.0 + np.exp(-best))).tolist()  # -inf, for no voxel, gives 0.0


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
    for w in scenario.waypoints:
        own = grid.occupancy_at(w.position)
        if own > TAU_OCC and abs(own - 0.5) > 1e-12:
            raise ValueError(f"waypoint {w.id!r} sits in a voxel with occupancy {own:.3f}")
    positions = scenario.positions()
    waypoints, edges = scenario.waypoints, scenario.edges
    near = _max_occupancy_near_segments(
        grid, [w.position for w in waypoints] + [positions[e.a] for e in edges],
        [w.position for w in waypoints] + [positions[e.b] for e in edges],
        scenario.critical_radius)
    new_waypoints = [replace(w, is_critical=occ > TAU_OCC) for w, occ in zip(waypoints, near)]
    new_edges = [replace(e, collision_probability=0.0 if occ <= TAU_OCC
                         else min(kappa * occ, EDGE_RISK_CAP))
                 for e, occ in zip(edges, near[len(waypoints):])]
    return replace(scenario, waypoints=new_waypoints, edges=new_edges)
