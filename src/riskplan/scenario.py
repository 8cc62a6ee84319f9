"""Scenario text format (.scn), grounding to an MDP, and plan-file round trips.

The .scn grammar is line oriented.  Each non-comment line starts with a
section keyword:

    LIMITS   vmax <m/s> vcrit <m/s> radius <m>
    OBSTACLE <label> center <x> <y> <z> half <hx> <hy> <hz>
    WAYPOINT <id> pos <x> <y> <z> [critical] [inspect <obstacle-label>]
    EDGE     <waypoint> <waypoint> risk <p>
    MISSION  start <waypoint> final <waypoint> [inspect <label> ...]

'#' starts a comment.  Each obstacle label, waypoint id, pair of waypoints
(in either order), MISSION and LIMITS appears at most once, a WAYPOINT
inspects at most one label, a waypoint must inspect each mission target,
and a mission grounds to at most MAX_STATES states.  Parsing is total:
malformed input yields positioned issues, never an exception, and each
line reports only its first problem.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import types
import typing
from collections import defaultdict
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from .mdp import Mdp, StateSpec, TransitionSpec

PLAN_FORMAT_VERSION = 2

DEFAULT_V_MAX = 1.0
DEFAULT_V_CRIT = 0.25
DEFAULT_CRITICAL_RADIUS = 2.0

COLLIDED = "collided"
# the most states a mission may ground to, waypoints * 2**targets + 1: a
# complete graph of 15 waypoints and 10 targets grounds in ~3 s at ~260 MB
MAX_STATES = 2**14


class SchemaMismatch(ValueError):
    """A JSON document ``doc`` that does not fit the type it is read as;
    ``path`` is the bad value's jq-style path, such as ``.incidents[0]``."""

    def __init__(self, doc: str, path: str, message: str):
        self.doc, self.path = doc, path or "."
        super().__init__(f"{doc}: {self.path} {message}")


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

    def checked(self, path) -> Scenario:
        """The scenario; parse issues raise one `ValueError` naming ``path``."""
        if not self.ok:
            raise ValueError(f"{path}: " + "; ".join(str(e) for e in self.errors))
        return self.scenario


def _tokens(line: str) -> list[tuple[str, int]]:
    out = []
    col = 0
    for raw in line.split("#", 1)[0].split():
        col = line.index(raw, col)
        out.append((raw, col + 1))
        col += len(raw)
    return out


# each section's tokens after its keyword: "@" is a name, "#" a number, any
# other word must appear as written, and "..." lets optional words follow.
# A line of another shape is a syntax error that quotes the usage.
_SHAPES = {
    "OBSTACLE": ("@ center # # # half # # #", "<label> center x y z half hx hy hz"),
    "WAYPOINT": ("@ pos # # # ...", "<id> pos x y z [critical] [inspect <label>]"),
    "EDGE": ("@ @ risk #", "<waypoint> <waypoint> risk <p>"),
    "MISSION": ("start @ final @ ...", "start <wp> final <wp> [inspect <labels>]"),
    "LIMITS": ("vmax # vcrit # radius #", "vmax <v> vcrit <v> radius <r>"),
}


class _LineError(Exception):
    """The first problem of a .scn line: its ParseIssue's col, kind and message."""


def _fields(toks: list[tuple[str, int]]) -> tuple[list, list[tuple[str, int]]]:
    """The names and numbers of a section line in order, and the tokens
    after its fixed part.  Raises _LineError for an unknown keyword or a
    wrong shape, else at the first token that is not a finite number."""
    keyword, col0 = toks[0]
    if keyword not in _SHAPES:
        raise _LineError(col0, "syntax", f"unknown section keyword {keyword!r}")
    pattern, usage = _SHAPES[keyword]
    more = pattern.endswith("...")
    slots = pattern.removesuffix(" ...").split()
    body, rest = toks[1:len(slots) + 1], toks[len(slots) + 1:]
    if (len(body) < len(slots) or (rest and not more)
            or any(s not in ("@", "#") and s != w for s, (w, _) in zip(slots, body))):
        raise _LineError(col0, "syntax", f"expected: {keyword} {usage}")
    values = []
    for s, (word, col) in zip(slots, body):
        if s == "#":
            try:
                number = float(word)
            except ValueError:
                raise _LineError(col, "syntax", f"expected a number, got {word!r}") from None
            # float() also reads nan, inf and overflowing literals like 1e999
            if not math.isfinite(number):
                raise _LineError(col, "syntax", f"expected a finite number, got {word!r}")
            values.append(number)
        elif s == "@":
            values.append(word)
    return values, rest


def parse_scenario(text: str) -> ParseResult:
    """Parse .scn text; total over arbitrary input, with at most one issue
    per line from reading it.  A scenario it accepts grounds to a valid model."""
    errors: list[ParseIssue] = []
    obstacles: list[Obstacle] = []
    waypoints: list[tuple[Waypoint, int]] = []
    edges: list[tuple[EdgeDef, int]] = []
    mission: dict | None = None
    limits = (DEFAULT_V_MAX, DEFAULT_V_CRIT, DEFAULT_CRITICAL_RADIUS)
    limits_line = 0
    declared: dict[str, int] = {}  # what each line declares -> that line

    for line_no, line in enumerate(text.splitlines(), start=1):
        toks = _tokens(line)
        if not toks:
            continue
        keyword, col0 = toks[0]
        try:
            values, rest = _fields(toks)
            if keyword == "WAYPOINT":
                critical, inspect = False, None
                words = iter(rest)
                for word, col in words:
                    if word == "critical":
                        critical = True
                    elif word == "inspect" and inspect is None and (target := next(words, None)):
                        inspect = target[0]
                    else:
                        raise _LineError(col, "syntax", f"unexpected token {word!r}")
            elif keyword == "MISSION" and rest and rest[0][0] != "inspect":
                raise _LineError(rest[0][1], "syntax", f"unexpected token {rest[0][0]!r}")
            if keyword == "EDGE":  # between its two waypoints, in either order
                name = "edge between {!r} and {!r}".format(*sorted(values[:2]))
            elif keyword in ("OBSTACLE", "WAYPOINT"):
                name = f"{keyword.lower()} {values[0]!r}"
            else:
                name = f"{keyword} section"
            if name in declared:
                raise _LineError(col0, "duplicate-id",
                                 f"duplicate {name} (first on line {declared[name]})")
            declared[name] = line_no
            if keyword == "OBSTACLE":
                obstacles.append(Obstacle(values[0], tuple(values[1:4]), tuple(values[4:])))
            elif keyword == "WAYPOINT":
                waypoints.append((Waypoint(values[0], tuple(values[1:]), critical, inspect),
                                  line_no))
            elif keyword == "EDGE":
                edges.append((EdgeDef(*values), line_no))
            elif keyword == "MISSION":
                mission = {"start": values[0], "final": values[1],
                           "inspect": [t for t, _ in rest[1:]], "line": line_no}
            else:
                limits, limits_line = tuple(values), line_no
        except _LineError as exc:
            errors.append(ParseIssue(line_no, *exc.args))

    # semantic pass (forward references are legal, so this runs after reading)
    obstacle_labels = {o.label for o in obstacles}
    wp_ids = {w.id for w, _ in waypoints}
    for w, line_no in waypoints:
        if w.inspection_target is not None and w.inspection_target not in obstacle_labels:
            errors.append(ParseIssue(line_no, 1, "unknown-reference",
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
        at = mission["line"]
        for wp in (mission["start"], mission["final"]):
            if wp not in wp_ids:
                errors.append(ParseIssue(at, 1, "unknown-reference",
                                         f"mission references unknown waypoint {wp!r}"))
        inspected = {w.inspection_target for w, _ in waypoints}
        for label in mission["inspect"]:
            if label not in obstacle_labels:
                errors.append(ParseIssue(at, 1, "unknown-reference", f"mission inspection "
                                         f"target {label!r} is not a declared obstacle"))
            elif label not in inspected:
                errors.append(ParseIssue(at, 1, "semantic", f"mission inspection target "
                                         f"{label!r} has no waypoint that inspects it"))
        if (len(waypoints) << len(set(mission["inspect"]))) + 1 > MAX_STATES:
            errors.append(ParseIssue(at, 1, "semantic", f"mission grounds to more than "
                                     f"{MAX_STATES} states"))
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
    return ParseResult(Scenario(
        obstacles=obstacles, waypoints=[w for w, _ in waypoints], edges=[e for e, _ in edges],
        start=mission["start"], final=mission["final"],
        inspection_goals=frozenset(mission["inspect"]),
        v_max=v_max, v_crit=v_crit, critical_radius=radius), [])


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
    Waypoint k's state for mask m sits at position ``k * 2**targets + m``,
    and the collision state comes last.  The action ids are the plan labels
    ``goto <waypoint>`` and ``inspect <obstacle>`` that plan files store
    and `refine` reads.
    """
    target_bit = {t: 1 << i for i, t in enumerate(sorted(s.inspection_goals))}
    masks = 1 << len(target_bit)
    base = {w.id: k * masks for k, w in enumerate(s.waypoints)}
    collided = len(s.waypoints) * masks
    # each waypoint's (neighbour, collision probability) pairs
    neighbors: dict[str, list[tuple[str, float]]] = defaultdict(list)
    for e in s.edges:
        neighbors[e.a].append((e.b, e.collision_probability))
        neighbors[e.b].append((e.a, e.collision_probability))

    states = []
    transitions = []
    for w in s.waypoints:
        gotos = [(f"goto {other}", base[other], p) for other, p in sorted(neighbors[w.id])]
        bit = target_bit.get(w.inspection_target, 0)
        for mask in range(masks):
            i = base[w.id] + mask
            states.append(StateSpec(state_id(w.id, mask), cost=1.0))
            for aid, j, p in gotos:
                transitions.append(TransitionSpec(i, aid, j + mask, 1.0 - p))
                if p > 0.0:
                    transitions.append(TransitionSpec(i, aid, collided, p))
            if bit and not mask & bit:
                transitions.append(TransitionSpec(i, f"inspect {w.inspection_target}", i + bit, 1.0))
    states.append(StateSpec(COLLIDED, cost=1.0))

    return Mdp(states=states, transitions=transitions, start=base[s.start],
               goals=frozenset({base[s.final] + masks - 1}))


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


def parse_json(text: str, doc: str):
    """``text`` parsed by `json.loads`; a syntax error names ``doc``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise json.JSONDecodeError(f"{doc}: {exc.msg}", exc.doc, exc.pos) from None


_type_hints = functools.cache(typing.get_type_hints)  # evaluated once per dataclass
_JSON_NAMES = {dict: "an object", list: "a list", int: "an integer", float: "a number",
               str: "a string", bool: "true or false"}


def from_json(kind, value, doc: str, path: str = ""):
    """``value``, as `json.load` parsed it, as the annotated type ``kind``:
    a dataclass (an object with no unknown or missing field), ``list[X]``, a
    fixed ``tuple[...]``, ``dict[str, X]``, ``X | None`` or a leaf of the
    exact JSON type (``true`` is no integer; an integer is a fine float and
    is stored as one; a number must be finite).  A misfit, or a ValueError
    of a dataclass's own checks, is a SchemaMismatch at the value's path."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):  # only X | None
        (kind,) = set(args) - {type(None)}
        return None if value is None else from_json(kind, value, doc, path)
    if kind is float and type(value) is int:  # one beyond every double is not finite
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    shape = (dict if is_dataclass(kind) or origin is dict else
             list if origin in (list, tuple) else kind)
    if type(value) is not shape or origin is tuple and len(value) != len(args):
        want = f"a list of {len(args)}" if origin is tuple else _JSON_NAMES[shape]
        raise SchemaMismatch(doc, path, f"must be {want}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise SchemaMismatch(doc, path, f"must be finite, got {value!r}")
    if origin in (list, tuple):
        kinds = args * len(value) if origin is list else args
        return origin(from_json(k, v, doc, f"{path}[{i}]")
                      for i, (k, v) in enumerate(zip(kinds, value)))
    if origin is dict:
        return {k: from_json(args[1], v, doc, f"{path}.{k}") for k, v in value.items()}
    if not is_dataclass(kind):
        return value
    hints = _type_hints(kind)
    for key in value:
        if key not in hints:
            raise SchemaMismatch(doc, path, f"has unknown field {key!r}")
    for f in fields(kind):
        if f.name not in value and f.default is f.default_factory is MISSING:
            raise SchemaMismatch(doc, f"{path}.{f.name}", "is missing")
    given = {k: from_json(hints[k], v, doc, f"{path}.{k}") for k, v in value.items()}
    try:
        return kind(**given)
    except ValueError as exc:  # the dataclass's own checks
        raise SchemaMismatch(doc, path, f"is rejected: {exc}") from None


def open_artifact(path, newline: str | None = None):
    """``path`` opened to write a text artifact from scratch.

    An old file there is unlinked, not truncated: on ext4, truncating a
    file that was rewritten recently flushes it first, which costs ~60 ms
    per artifact when a run is repeated into the same directory.  A reader
    that still holds the old file keeps its bytes.
    """
    Path(path).unlink(missing_ok=True)
    return open(path, "w", newline=newline, encoding="utf-8")


CSV_BLOCK_ROWS = 4096  # rows formatted and written at a time


def write_csv(path, columns, count: int, block_text):
    """A CSV artifact with ``\\r\\n`` line ends: the header ``columns``, then
    ``count`` rows, where ``block_text(a, b)`` is the text of rows a to b.

    Rows go out CSV_BLOCK_ROWS at a time, so memory stays flat however long
    the file is: a 10^6-row trajectory raises peak RSS by ~1 MB.
    """
    with open_artifact(path, newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        for a in range(0, count, CSV_BLOCK_ROWS):
            fh.write(block_text(a, min(a + CSV_BLOCK_ROWS, count)))


def write_json(path, doc: dict):
    """``doc`` as an indented JSON artifact with sorted keys."""
    with open_artifact(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_plan_file(p: PlanFile, path):
    write_json(path, {"format_version": PLAN_FORMAT_VERSION, **asdict(p)})


def read_plan_file(path) -> PlanFile:
    doc = parse_json(Path(path).read_text(encoding="utf-8"), str(path))
    if type(doc) is dict:  # any other value fails as a PlanFile below
        version = doc.pop("format_version", None)
        if version != PLAN_FORMAT_VERSION:
            raise SchemaMismatch(str(path), ".format_version",
                                 f"must be {PLAN_FORMAT_VERSION}, got {version!r}")
    return from_json(PlanFile, doc, str(path))
