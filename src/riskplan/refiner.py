"""Refine a high-level plan into a timestamped trajectory.

Piecewise-linear path through the plan's waypoints, helical inspection
loops around target obstacles, and a per-segment trapezoidal speed profile
capped at the critical speed inside critical-waypoint radii.

The polyline is Python, each point as the plan's labels name it; the
sampling loop of the speed profile runs over it in the compiled C kernel
(see `kernel`), which also skips each point within 1e-12 of the last one
kept and each sample that repeats a corner, so refinement needs a C
compiler, as simulation and mapping do.  The kernel rounds as the Python
loop it replaced did (kept in the tests as the reference), so
trajectories, the kernel's kept rows as one array, are the same bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .scenario import Scenario, write_csv

DEFAULT_DT = 0.1
A_MAX = 0.5  # m/s^2, acceleration and braking limit
HELIX_POINTS = 50
# most samples the kernel may make for a path, dropped ones too: a path of
# 954,241 rows refines in ~0.25 s with ~79 MB more peak RSS (2-vCPU VM)
MAX_PATH_ROWS = 1_000_000
# longest trajectory `refine` makes, at any dt: at DEFAULT_DT each sample
# moves the clock by DEFAULT_DT at most, so no path within MAX_PATH_ROWS
# lasts longer; simulator.MAX_EPISODE_TICKS is derived from it
MAX_DURATION_S = MAX_PATH_ROWS * DEFAULT_DT
CSV_COLUMNS = ("t", "x", "y", "z", "v")
CSV_ROW = "%.3f,%.4f,%.4f,%.4f,%.4f\r\n"


@dataclass(frozen=True)
class HelixSpec:
    """Inspection loop shape: one full turn around the obstacle by default."""

    points: int = HELIX_POINTS
    turns: float = 1.0
    clearance: float = 2.0
    pitch: float | None = None  # None: obstacle height per turn

    def __post_init__(self):
        if not 1 <= self.points <= MAX_PATH_ROWS:  # each point adds a path row
            raise ValueError(f"points must be >= 1 and <= MAX_PATH_ROWS "
                             f"({MAX_PATH_ROWS}), got {self.points!r}")
        if not 0 < self.turns < math.inf:  # NaN fails too
            raise ValueError(f"turns must be finite and > 0, got {self.turns!r}")
        if not 0 <= self.clearance < math.inf:
            raise ValueError(f"clearance must be finite and >= 0, got {self.clearance!r}")
        if self.pitch is not None and not math.isfinite(self.pitch):
            raise ValueError(f"pitch must be finite or None, got {self.pitch!r}")


@dataclass(frozen=True)
class TrajectorySample:
    time: float
    position: tuple[float, float, float]
    speed: float


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A plan's refined path: its (k, 5) rows (t, x, y, z, v) as a read-only
    float array, checked once, when it is made, for that shape and for
    finite numbers.  Rows that already are a read-only C-ordered float64
    array owning its data are taken as they are; any others are copied."""

    rows: np.ndarray
    plan_id: str = ""

    def __post_init__(self):
        rows = self.rows
        if not (type(rows) is np.ndarray and rows.dtype == np.float64
                and rows.flags.c_contiguous and rows.flags.owndata
                and not rows.flags.writeable):
            rows = np.array(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(CSV_COLUMNS):
            raise ValueError(f"trajectory rows must have shape (k, 5), got {rows.shape}")
        if not (finite := np.isfinite(rows).all(axis=1)).all():
            first = int(np.argmin(finite))
            raise ValueError(f"trajectory row {first} is not finite: {rows[first].tolist()}")
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    @property
    def total_length(self) -> float:
        """Sum in order of `math.dist` between positions (summary.csv's rounding)."""
        points = self.rows[:, 1:4].tolist()
        return sum(map(math.dist, points, points[1:]), 0.0)

    @property
    def nominal_duration(self) -> float:
        return float(self.rows[-1, 0]) if len(self.rows) else 0.0

    @property
    def samples(self) -> list[TrajectorySample]:
        """The rows as objects, read only by the benchmark's tanks check and
        refine span: this view goes at the benchmark's next change."""
        return [TrajectorySample(t, (x, y, z), v) for t, x, y, z, v in self.rows.tolist()]

    def export_csv(self, path):
        """The rows as CSV under the header ``t,x,y,z,v``: t to 3 decimals,
        the rest to 4, lines ending ``\\r\\n``.  Each block of rows is
        formatted by one ``%`` of CSV_ROW repeated once per row."""
        rows = self.rows
        write_csv(path, CSV_COLUMNS, len(rows), lambda a, b: (
            (CSV_ROW * (b - a)) % tuple(rows[a:b].ravel().tolist())))


def read_trajectory_csv(path, plan_id: str = "") -> Trajectory:
    """Trajectory from a CSV that `Trajectory.export_csv` wrote: the header
    ``t,x,y,z,v``, then five finite numbers a row.  Anything else is a
    ValueError that names the file and line."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        lines = csv.reader(fh)
        if (header := tuple(next(lines, ()))) != CSV_COLUMNS:
            raise ValueError(f"{path}:1: header must be t,x,y,z,v, got {','.join(header)!r}")
        for line_no, row in enumerate(lines, start=2):
            try:
                numbers = [float(word) for word in row]
            except ValueError:
                numbers = [math.nan]
            if len(numbers) != len(CSV_COLUMNS) or not all(map(math.isfinite, numbers)):
                raise ValueError(f"{path}:{line_no}: expected five finite numbers, got {row}")
            rows.append(numbers)
    return Trajectory(np.array(rows, dtype=float).reshape(-1, len(CSV_COLUMNS)), plan_id)


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


def plan_polyline(scenario: Scenario, actions: list[str],
                  helix: HelixSpec = HelixSpec()) -> list[tuple[float, float, float]]:
    """Geometric waypoint list for a plan given as its action labels, each
    point as written: the kernel skips repeats.

    ``goto <waypoint>`` moves along a declared edge; ``inspect <obstacle>``
    inserts a helical loop around that obstacle.  Raises ValueError when the
    labels name over MAX_PATH_ROWS + 1 points, before making any: the kernel
    makes a sample for each point after the first.  It also raises it if
    consecutive waypoints share no edge, or for any other label.
    """
    count = 1 + sum(helix.points + 1 if label.startswith("inspect ") else
                    label.startswith("goto ") for label in actions)
    if count > MAX_PATH_ROWS + 1:
        raise ValueError(f"the refined path has more than MAX_PATH_ROWS ({MAX_PATH_ROWS}) "
                         f"samples: its polyline has over {MAX_PATH_ROWS + 1} points")
    positions = scenario.positions()
    edges = {frozenset((e.a, e.b)) for e in scenario.edges}
    current = scenario.start
    pts: list[tuple[float, float, float]] = [positions[current]]
    obstacles = {o.label: o for o in scenario.obstacles}
    for label in actions:
        verb, _, name = label.partition(" ")
        if verb == "goto":
            if frozenset((current, name)) not in edges:
                raise ValueError(f"no scenario edge connects {current!r} and {name!r}")
            current = name
            pts.append(positions[current])
        elif verb == "inspect" and name in obstacles:
            obs = obstacles[name]
            here = positions[current]
            radius = max(obs.half_extents[0], obs.half_extents[1]) + helix.clearance
            pitch = 2.0 * obs.half_extents[2] if helix.pitch is None else helix.pitch
            angle = math.atan2(here[1] - obs.center[1], here[0] - obs.center[0])
            pts += helix_points(obs.center, radius, angle, here[2], pitch, helix)
            pts.append(here)  # return to the waypoint before continuing
        else:
            raise ValueError(f"unrecognized plan action {label!r}: expected "
                             "'goto <waypoint>' or 'inspect <obstacle>'")
    return pts


def refine(
    scenario: Scenario,
    actions: list[str],
    plan_id: str = "",
    dt: float = DEFAULT_DT,
    helix: HelixSpec = HelixSpec(),
) -> Trajectory:
    """Trajectory for the plan's action labels (see `plan_polyline`):
    trapezoidal speed per segment, slow in critical zones, sampled every
    ``dt`` seconds.  A plan with no motion is its start, one row at rest.

    Raises `KernelBuildError` when no kernel can be built to sample the
    plan, and ValueError unless ``dt`` is finite, positive and large
    enough for each step to advance along the path, the path makes at most
    MAX_PATH_ROWS samples, and it lasts at most MAX_DURATION_S (which only
    a ``dt`` above DEFAULT_DT can exceed).
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    pts = plan_polyline(scenario, actions, helix)
    rows = _sample_profile(scenario, pts, dt)
    traj = Trajectory(rows if len(rows) else [[0.0, *pts[0], 0.0]], plan_id)
    if not traj.nominal_duration <= MAX_DURATION_S:
        raise ValueError(f"at dt {dt!r} the refined path lasts {traj.nominal_duration!r} s, "
                         f"more than MAX_DURATION_S ({MAX_DURATION_S!r} s)")
    return traj


def _sample_profile(scenario: Scenario, pts: list[tuple[float, float, float]],
                    dt: float) -> np.ndarray:
    """The (k, 5) rows (t, x, y, z, v) of the kernel's speed profile along
    ``pts``, each later than and at least 1e-12 from the row before it, so
    no corner repeats: a first call counts them, and a second fills a
    buffer of that size.  The kernel refuses a path once it has made more
    than MAX_PATH_ROWS samples, kept or not, a point it skips making one."""
    lib = kernel.load()
    path = np.array(pts, dtype=float)
    centers = np.array([w.position for w in scenario.waypoints if w.is_critical],
                       dtype=float).reshape(-1, 3)
    args = (len(path), path, len(centers), centers, scenario.critical_radius,
            scenario.v_max, scenario.v_crit, A_MAX, dt)
    count = lib.refine_path(*args, MAX_PATH_ROWS, 0, np.empty((0, 5)))
    if count < 0:
        raise ValueError(f"dt {dt!r} is too small for this path: a step would "
                         "not advance along it")
    if count > MAX_PATH_ROWS:
        raise ValueError(f"the refined path has more than MAX_PATH_ROWS "
                         f"({MAX_PATH_ROWS}) samples at dt {dt!r}")
    out = np.empty((count, 5))
    lib.refine_path(*args, MAX_PATH_ROWS, count, out)
    out.flags.writeable = False  # so that `Trajectory` takes it uncopied
    return out
