"""Scenario text format (.scn), grounding to an MDP, and plan-file round trips.

The .scn grammar is line oriented.  Each non-comment line starts with a
section keyword:

    LIMITS   vmax <m/s> vcrit <m/s> radius <m>
    OBSTACLE <label> center <x> <y> <z> half <hx> <hy> <hz>
    WAYPOINT <id> pos <x> <y> <z> [critical] [inspect <obstacle-label>]
    EDGE     <waypoint> <waypoint> risk <p>
    MISSION  start <waypoint> final <waypoint> [inspect <label> ...]

'#' starts a comment.  Parsing is total: malformed input yields positioned
issues, never an exception.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict

from .mdp import ActionSpec, Mdp, StateSpec, TransitionSpec

PLAN_FORMAT_VERSION = 2

DEFAULT_V_MAX = 1.0
DEFAULT_V_CRIT = 0.25
DEFAULT_CRITICAL_RADIUS = 2.0

COLLIDED = "collided"


class UngroundableGoal(Exception):
    def __init__(self, target: str):
        self.target = target
        super().__init__(f"inspection target {target!r} has no waypoint")


class SchemaMismatch(Exception):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class Obstacle:
    label: str
    center: tuple[float, float, float]
    half_extents: tuple[float, float, float]


@dataclass(frozen=True)
class Waypoint:
    id: str
    position: tuple[float, float, float]
    is_critical: bool = False
    inspection_target: str | None = None


@dataclass(frozen=True)
class EdgeDef:
    a: str
    b: str
    collision_probability: float

    def length(self, positions: dict[str, tuple[float, float, float]]) -> float:
        pa, pb = positions[self.a], positions[self.b]
        return math.dist(pa, pb)


@dataclass
class Scenario:
    obstacles: list[Obstacle] = field(default_factory=list)
    waypoints: list[Waypoint] = field(default_factory=list)
    edges: list[EdgeDef] = field(default_factory=list)
    start: str = ""
    final: str = ""
    inspection_goals: frozenset[str] = frozenset()
    v_max: float = DEFAULT_V_MAX
    v_crit: float = DEFAULT_V_CRIT
    critical_radius: float = DEFAULT_CRITICAL_RADIUS

    def waypoint(self, wid: str) -> Waypoint:
        return next(w for w in self.waypoints if w.id == wid)

    def positions(self) -> dict[str, tuple[float, float, float]]:
        return {w.id: w.position for w in self.waypoints}

    def neighbors(self, wid: str) -> list[tuple[str, float]]:
        out = []
        for e in self.edges:
            if e.a == wid:
                out.append((e.b, e.collision_probability))
            elif e.b == wid:
                out.append((e.a, e.collision_probability))
        return sorted(out)

    def edge_between(self, a: str, b: str) -> EdgeDef | None:
        for e in self.edges:
            if {e.a, e.b} == {a, b}:
                return e
        return None


@dataclass(frozen=True)
class ParseIssue:
    line: int
    col: int
    kind: str  # "syntax" | "unknown-reference" | "duplicate-id" | "semantic"
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.kind}: {self.message}"


@dataclass
class ParseResult:
    scenario: Scenario | None
    errors: list[ParseIssue]

    @property
    def ok(self) -> bool:
        return self.scenario is not None and not self.errors


def _tokens(line: str) -> list[tuple[str, int]]:
    out = []
    col = 0
    for raw in line.split("#", 1)[0].split():
        col = line.index(raw, col)
        out.append((raw, col + 1))
        col += len(raw)
    return out


def parse_scenario(text: str) -> ParseResult:
    """Parse .scn text; total over arbitrary input."""
    errors: list[ParseIssue] = []
    obstacles: list[Obstacle] = []
    waypoints: list[Waypoint] = []
    edges: list[tuple[EdgeDef, int]] = []
    mission: dict | None = None
    limits = (DEFAULT_V_MAX, DEFAULT_V_CRIT, DEFAULT_CRITICAL_RADIUS)
    limits_line = 0

    def syntax(line_no, col, msg):
        errors.append(ParseIssue(line_no, col, "syntax", msg))

    def floats(toks, start, count, line_no):
        vals = []
        for i in range(start, start + count):
            if i >= len(toks):
                syntax(line_no, toks[-1][1] if toks else 1, "expected a number")
                return None
            try:
                vals.append(float(toks[i][0]))
            except ValueError:
                syntax(line_no, toks[i][1], f"expected a number, got {toks[i][0]!r}")
                return None
        return vals

    for line_no, line in enumerate(text.splitlines(), start=1):
        toks = _tokens(line)
        if not toks:
            continue
        keyword, col0 = toks[0]
        if keyword == "OBSTACLE":
            if len(toks) < 10 or toks[2][0] != "center" or toks[6][0] != "half":
                syntax(line_no, col0, "expected: OBSTACLE <label> center x y z half hx hy hz")
                continue
            c = floats(toks, 3, 3, line_no)
            h = floats(toks, 7, 3, line_no)
            if c is None or h is None:
                continue
            obstacles.append(Obstacle(toks[1][0], tuple(c), tuple(h)))
        elif keyword == "WAYPOINT":
            if len(toks) < 6 or toks[2][0] != "pos":
                syntax(line_no, col0, "expected: WAYPOINT <id> pos x y z [critical] [inspect <label>]")
                continue
            p = floats(toks, 3, 3, line_no)
            if p is None:
                continue
            critical = False
            inspect = None
            i = 6
            bad = False
            while i < len(toks):
                word, wcol = toks[i]
                if word == "critical":
                    critical = True
                    i += 1
                elif word == "inspect" and i + 1 < len(toks):
                    inspect = toks[i + 1][0]
                    i += 2
                else:
                    syntax(line_no, wcol, f"unexpected token {word!r}")
                    bad = True
                    break
            if bad:
                continue
            waypoints.append(Waypoint(toks[1][0], tuple(p), critical, inspect))
        elif keyword == "EDGE":
            if len(toks) != 5 or toks[3][0] != "risk":
                syntax(line_no, col0, "expected: EDGE <waypoint> <waypoint> risk <p>")
                continue
            p = floats(toks, 4, 1, line_no)
            if p is None:
                continue
            edges.append((EdgeDef(toks[1][0], toks[2][0], p[0]), line_no))
        elif keyword == "MISSION":
            if len(toks) < 5 or toks[1][0] != "start" or toks[3][0] != "final":
                syntax(line_no, col0, "expected: MISSION start <wp> final <wp> [inspect <labels>]")
                continue
            inspect_labels: list[str] = []
            if len(toks) > 5:
                if toks[5][0] != "inspect":
                    syntax(line_no, toks[5][1], f"unexpected token {toks[5][0]!r}")
                    continue
                inspect_labels = [t for t, _ in toks[6:]]
            if mission is not None:
                errors.append(ParseIssue(line_no, col0, "duplicate-id", "duplicate MISSION section"))
                continue
            mission = {"start": toks[2][0], "final": toks[4][0],
                       "inspect": inspect_labels, "line": line_no}
        elif keyword == "LIMITS":
            if (len(toks) != 7 or toks[1][0] != "vmax" or toks[3][0] != "vcrit"
                    or toks[5][0] != "radius"):
                syntax(line_no, col0, "expected: LIMITS vmax <v> vcrit <v> radius <r>")
                continue
            vals = floats(toks, 2, 1, line_no), floats(toks, 4, 1, line_no), floats(toks, 6, 1, line_no)
            if any(v is None for v in vals):
                continue
            limits = (vals[0][0], vals[1][0], vals[2][0])
            limits_line = line_no
        else:
            syntax(line_no, col0, f"unknown section keyword {keyword!r}")

    # semantic pass (forward references are legal, so this runs after reading)
    obstacle_labels = set()
    for o in obstacles:
        if o.label in obstacle_labels:
            errors.append(ParseIssue(0, 0, "duplicate-id", f"duplicate obstacle {o.label!r}"))
        obstacle_labels.add(o.label)
    wp_ids = set()
    for w in waypoints:
        if w.id in wp_ids:
            errors.append(ParseIssue(0, 0, "duplicate-id", f"duplicate waypoint {w.id!r}"))
        wp_ids.add(w.id)
        if w.inspection_target is not None and w.inspection_target not in obstacle_labels:
            errors.append(ParseIssue(0, 0, "unknown-reference",
                                     f"waypoint {w.id!r} inspects unknown obstacle {w.inspection_target!r}"))
    for e, line_no in edges:
        for end in (e.a, e.b):
            if end not in wp_ids:
                errors.append(ParseIssue(line_no, 1, "unknown-reference",
                                         f"edge references unknown waypoint {end!r}"))
        if e.a == e.b:
            errors.append(ParseIssue(line_no, 1, "semantic", f"edge endpoints must differ ({e.a!r})"))
        if not (0.0 <= e.collision_probability < 1.0):
            errors.append(ParseIssue(line_no, 1, "semantic",
                                     f"collision probability {e.collision_probability} outside [0,1)"))
    if mission is None:
        errors.append(ParseIssue(0, 0, "semantic", "missing MISSION section"))
    else:
        for wp in (mission["start"], mission["final"]):
            if wp not in wp_ids:
                errors.append(ParseIssue(mission["line"], 1, "unknown-reference",
                                         f"mission references unknown waypoint {wp!r}"))
        for label in mission["inspect"]:
            if label not in obstacle_labels:
                errors.append(ParseIssue(mission["line"], 1, "unknown-reference",
                                         f"mission inspection target {label!r} is not a declared obstacle"))
    v_max, v_crit, radius = limits
    if v_max <= 0 or v_crit <= 0:
        errors.append(ParseIssue(limits_line, 1, "semantic", "speed limits must be positive"))
    if v_crit > v_max:
        errors.append(ParseIssue(limits_line, 1, "semantic",
                                 f"vcrit {v_crit} exceeds vmax {v_max}"))
    if radius < 0:
        errors.append(ParseIssue(limits_line, 1, "semantic", "critical radius must be >= 0"))

    if errors:
        return ParseResult(None, errors)
    return ParseResult(
        Scenario(
            obstacles=obstacles,
            waypoints=waypoints,
            edges=[e for e, _ in edges],
            start=mission["start"],
            final=mission["final"],
            inspection_goals=frozenset(mission["inspect"]),
            v_max=v_max,
            v_crit=v_crit,
            critical_radius=radius,
        ),
        [],
    )


def load_scenario(path) -> ParseResult:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def format_scenario(s: Scenario) -> str:
    """Render a Scenario back into .scn text (parse round trip)."""
    lines = [f"LIMITS vmax {s.v_max:g} vcrit {s.v_crit:g} radius {s.critical_radius:g}"]
    for o in s.obstacles:
        c, h = o.center, o.half_extents
        lines.append(f"OBSTACLE {o.label} center {c[0]:g} {c[1]:g} {c[2]:g} "
                     f"half {h[0]:g} {h[1]:g} {h[2]:g}")
    for w in s.waypoints:
        p = w.position
        parts = [f"WAYPOINT {w.id} pos {p[0]:g} {p[1]:g} {p[2]:g}"]
        if w.is_critical:
            parts.append("critical")
        if w.inspection_target:
            parts.append(f"inspect {w.inspection_target}")
        lines.append(" ".join(parts))
    for e in s.edges:
        lines.append(f"EDGE {e.a} {e.b} risk {e.collision_probability:g}")
    mission = f"MISSION start {s.start} final {s.final}"
    if s.inspection_goals:
        mission += " inspect " + " ".join(sorted(s.inspection_goals))
    lines.append(mission)
    return "\n".join(lines) + "\n"


def state_id(waypoint: str, mask: int) -> str:
    return f"{waypoint}#{mask}"


def ground_to_mdp(s: Scenario) -> Mdp:
    """Ground the scenario into a goal-directed MDP.

    States are (waypoint, inspection bitmask) pairs plus one absorbing
    collision state; every state costs 1 so plan cost equals plan depth.
    """
    targets = sorted(s.inspection_goals)
    target_bit = {t: 1 << i for i, t in enumerate(targets)}
    for t in targets:
        if not any(w.inspection_target == t for w in s.waypoints):
            raise UngroundableGoal(t)
    full = (1 << len(targets)) - 1

    states = []
    transitions = []
    actions: dict[str, ActionSpec] = {}

    def add_action(aid: str, label: str):
        if aid not in actions:
            actions[aid] = ActionSpec(aid, label)

    for w in s.waypoints:
        for mask in range(full + 1):
            sid = state_id(w.id, mask)
            states.append(StateSpec(sid, cost=1.0))
            for other, p in s.neighbors(w.id):
                aid = f"move:{w.id}->{other}"
                add_action(aid, f"goto {other}")
                transitions.append(TransitionSpec(sid, aid, state_id(other, mask), 1.0 - p))
                if p > 0.0:
                    transitions.append(TransitionSpec(sid, aid, COLLIDED, p))
            t = w.inspection_target
            if t in target_bit and not mask & target_bit[t]:
                aid = f"inspect:{t}"
                add_action(aid, f"inspect {t}")
                transitions.append(
                    TransitionSpec(sid, aid, state_id(w.id, mask | target_bit[t]), 1.0))
    states.append(StateSpec(COLLIDED, cost=1.0))

    return Mdp(
        states=states,
        actions=sorted(actions.values(), key=lambda a: a.id),
        transitions=transitions,
        start=state_id(s.start, 0),
        goals=frozenset({state_id(s.final, full)}),
    )


@dataclass
class PlanFile:
    """On-disk plan record (JSON, versioned)."""

    plan_id: str
    gamma: float
    actions: list[str]
    high_level_length: int
    trajectory_ref: str | None = None

    def __post_init__(self):
        if self.high_level_length != len(self.actions):
            raise ValueError("high_level_length must equal the action count")


_PLAN_FIELDS = {"format_version", "plan_id", "gamma", "actions",
                "high_level_length", "trajectory_ref"}


def write_plan_file(p: PlanFile, path):
    doc = {"format_version": PLAN_FORMAT_VERSION, **asdict(p)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_plan_file(path) -> PlanFile:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SchemaMismatch(".", "plan file must be a JSON object")
    if doc.get("format_version") != PLAN_FORMAT_VERSION:
        raise SchemaMismatch(".format_version",
                             f"unsupported version {doc.get('format_version')}")
    for key in doc:
        if key not in _PLAN_FIELDS:
            raise SchemaMismatch(f".{key}", "unknown field")
    for key in _PLAN_FIELDS:
        if key != "trajectory_ref" and key not in doc:
            raise SchemaMismatch(f".{key}", "missing field")
    return PlanFile(
        plan_id=doc["plan_id"],
        gamma=doc["gamma"],
        actions=list(doc["actions"]),
        high_level_length=doc["high_level_length"],
        trajectory_ref=doc.get("trajectory_ref"),
    )
