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
and a mission grounds to at most MAX_STATES states and MAX_TRANSITIONS
transitions.  Parsing is total: malformed input yields positioned issues,
never an exception, and each line reports only its first problem.

A parsed `Scenario` is its arrays: waypoints, edges (as waypoint indexes)
and obstacles each in declaration order, checked once when it is made and
read as they are by every stage, from grounding to the simulator.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import sys
import types
import typing
import zlib
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

from .mdp import InvalidModel, Mdp

PLAN_FORMAT_VERSION = 2

DEFAULT_V_MAX = 1.0
DEFAULT_V_CRIT = 0.25
DEFAULT_CRITICAL_RADIUS = 2.0

COLLIDED = "collided"
# the most states a mission may ground to, waypoints * 2**targets + 1
MAX_STATES = 2**14
# the most transitions, counted as (waypoints + 4 * edges) * 2**targets (per
# mask, a goto and its collision each way along an edge, an inspect per
# waypoint): ~120k ground in ~0.04 s at ~25 MB and plan in ~0.06 s (2-vCPU VM)
MAX_TRANSITIONS = 2**17


@dataclass(frozen=True, eq=False)
class Scenario:
    """A mission as arrays, by position: waypoint k is ids[k] at points[k],
    critical if critical[k], inspecting obstacle inspects[k] (or None);
    edge j joins waypoints edges[j] at collision risk risks[j]; obstacle i
    is labels[i], the box centers[i] +- halves[i].  Each array is kept as
    a new read-only copy.  The parser is the one gate for input errors, so
    construction checks only what a program can get wrong, and raises
    InvalidModel for it: shapes, edge indexes in [0, n), finite numbers."""

    ids: tuple[str, ...]
    points: np.ndarray  # (n, 3)
    critical: np.ndarray  # (n,) bool
    inspects: tuple[str | None, ...]
    edges: np.ndarray  # (e, 2) waypoint indexes
    risks: np.ndarray  # (e,)
    labels: tuple[str, ...]
    centers: np.ndarray  # (m, 3)
    halves: np.ndarray  # (m, 3) half extents
    start: str
    final: str
    inspection_goals: frozenset[str] = frozenset()
    v_max: float = DEFAULT_V_MAX
    v_crit: float = DEFAULT_V_CRIT
    critical_radius: float = DEFAULT_CRITICAL_RADIUS

    def __post_init__(self):
        for name in ("ids", "inspects", "labels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name, dtype in (("points", float), ("critical", bool), ("edges", np.intp),
                            ("risks", float), ("centers", float), ("halves", float)):
            a = np.array(getattr(self, name), dtype=dtype, ndmin=1)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        n, e, m = len(self.ids), len(self.risks), len(self.labels)
        problems = [f"{k} has shape {np.shape(getattr(self, k))}, not {shape}" for k, shape in (
            ("points", (n, 3)), ("critical", (n,)), ("inspects", (n,)), ("edges", (e, 2)),
            ("centers", (m, 3)), ("halves", (m, 3))) if np.shape(getattr(self, k)) != shape]
        if not ((self.edges >= 0) & (self.edges < n)).all():
            problems.append(f"an edge index is outside [0, {n})")
        problems += [f"{k} is not finite" for k in ("points", "risks", "centers", "halves",
                                                    "v_max", "v_crit", "critical_radius")
                     if not np.isfinite(getattr(self, k)).all()]
        if problems:
            raise InvalidModel(problems)

    def positions(self) -> dict[str, tuple[float, float, float]]:
        return dict(zip(self.ids, map(tuple, self.points.tolist())))


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
    obstacles: list[list] = []  # label, then center and half extents
    waypoints: list[tuple] = []  # id, point, critical, target, line
    edges: list[tuple] = []  # end, end, risk, line
    mission: dict | None = None
    limits = (DEFAULT_V_MAX, DEFAULT_V_CRIT, DEFAULT_CRITICAL_RADIUS)
    limits_line = 0
    declared: dict[str, int] = {}  # what each line declares -> that line
    keywords = set()  # the first word of every line, read or refused

    for line_no, line in enumerate(text.splitlines(), start=1):
        toks = _tokens(line)
        if not toks:
            continue
        keyword, col0 = toks[0]
        keywords.add(keyword)
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
                obstacles.append(values)
            elif keyword == "WAYPOINT":
                waypoints.append((values[0], values[1:], critical, inspect, line_no))
            elif keyword == "EDGE":
                edges.append((*values, line_no))
            elif keyword == "MISSION":
                mission = {"start": values[0], "final": values[1],
                           "inspect": [t for t, _ in rest[1:]], "line": line_no}
            else:
                limits, limits_line = tuple(values), line_no
        except _LineError as exc:
            errors.append(ParseIssue(line_no, *exc.args))

    # semantic pass (forward references are legal, so this runs after reading)
    obstacle_labels = {o[0] for o in obstacles}
    index = {w[0]: k for k, w in enumerate(waypoints)}  # each waypoint id's index
    for wid, _, _, target, line_no in waypoints:
        if target is not None and target not in obstacle_labels:
            errors.append(ParseIssue(line_no, 1, "unknown-reference",
                                     f"waypoint {wid!r} inspects unknown obstacle {target!r}"))
    for a, b, risk, line_no in edges:
        for end in (a, b):
            if end not in index:
                errors.append(ParseIssue(line_no, 1, "unknown-reference",
                                         f"edge references unknown waypoint {end!r}"))
        if a == b:
            errors.append(ParseIssue(line_no, 1, "semantic", f"edge endpoints must differ ({a!r})"))
        if not (0.0 <= risk < 1.0):
            errors.append(ParseIssue(line_no, 1, "semantic",
                                     f"collision probability {risk} outside [0,1)"))
    if "MISSION" not in keywords:
        errors.append(ParseIssue(0, 0, "semantic", "missing MISSION section"))
    elif mission is not None:
        at = mission["line"]
        for wp in (mission["start"], mission["final"]):
            if wp not in index:
                errors.append(ParseIssue(at, 1, "unknown-reference",
                                         f"mission references unknown waypoint {wp!r}"))
        inspected = {w[3] for w in waypoints}
        for label in mission["inspect"]:
            if label not in obstacle_labels:
                errors.append(ParseIssue(at, 1, "unknown-reference", f"mission inspection "
                                         f"target {label!r} is not a declared obstacle"))
            elif label not in inspected:
                errors.append(ParseIssue(at, 1, "semantic", f"mission inspection target "
                                         f"{label!r} has no waypoint that inspects it"))
        targets = len(set(mission["inspect"]))
        for count, most, what in (((len(waypoints) << targets) + 1, MAX_STATES, "states"),
                                  ((len(waypoints) + 4 * len(edges)) << targets,
                                   MAX_TRANSITIONS, "transitions")):
            if count > most:
                errors.append(ParseIssue(at, 1, "semantic",
                                         f"mission grounds to more than {most} {what}"))
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
    ids, points, critical, inspects, _ = zip(*waypoints)  # the mission's start is one
    boxes = np.reshape([o[1:] for o in obstacles], (-1, 6))
    return ParseResult(Scenario(
        ids, points, critical, inspects,
        edges=np.reshape([(index[a], index[b]) for a, b, _, _ in edges], (-1, 2)),
        risks=[risk for _, _, risk, _ in edges], labels=[o[0] for o in obstacles],
        centers=boxes[:, :3], halves=boxes[:, 3:], start=mission["start"],
        final=mission["final"], inspection_goals=frozenset(mission["inspect"]),
        v_max=v_max, v_crit=v_crit, critical_radius=radius), [])


def load_scenario(path) -> ParseResult:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def format_scenario(s: Scenario) -> str:
    """Render a Scenario back into .scn text, each float by its `repr`, so
    that parsing the text gives the same Scenario."""
    def xyz(v):
        return " ".join(map(repr, v))

    lines = [f"LIMITS vmax {s.v_max!r} vcrit {s.v_crit!r} radius {s.critical_radius!r}"]
    for label, center, half in zip(s.labels, s.centers.tolist(), s.halves.tolist()):
        lines.append(f"OBSTACLE {label} center {xyz(center)} half {xyz(half)}")
    for wid, point, critical, target in zip(s.ids, s.points.tolist(), s.critical.tolist(),
                                            s.inspects):
        lines.append(f"WAYPOINT {wid} pos {xyz(point)}" + " critical" * critical
                     + (f" inspect {target}" if target else ""))
    for (a, b), risk in zip(s.edges.tolist(), s.risks.tolist()):
        lines.append(f"EDGE {s.ids[a]} {s.ids[b]} risk {risk!r}")
    mission = f"MISSION start {s.start} final {s.final}"
    if s.inspection_goals:
        mission += " inspect " + " ".join(sorted(s.inspection_goals))
    lines.append(mission)
    return "\n".join(lines) + "\n"


def check_master_seed(master_seed: int):
    """Raise ValueError unless ``master_seed`` is >= 0, as a SeedSequence needs."""
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")


def key_words(master_seed: int, *names: str | int) -> np.ndarray:
    """The uint32 key words of the stream of ``names`` under the master
    seed: a string enters as the CRC-32 of its UTF-8 bytes, an integer
    >= 0 as its little-endian 32-bit words (0 as one word 0), as
    `SeedSequence` reads a list of them."""
    check_master_seed(master_seed)
    words = []
    for key in (master_seed, *names):
        if isinstance(key, str):
            words.append(zlib.crc32(key.encode("utf-8")))
        elif (key := operator.index(key)) < 0:  # a numpy integer too
            raise ValueError(f"stream key must be >= 0, got {key}")
        else:
            words += [key >> s & 0xFFFFFFFF for s in range(0, max(key.bit_length(), 1), 32)]
    return np.array(words, dtype=np.uint32)


def named_rng(master_seed: int, *names: str | int) -> np.random.Generator:
    """The random stream of ``names`` under the master seed, seeded by its
    `key_words`, so a stream never depends on which others were drawn or
    in what order.  It defines every stream of the package: the simulator's
    kernel seeds each episode's as this does, and is tested against it."""
    return np.random.default_rng(np.random.SeedSequence(key_words(master_seed, *names)))


def state_id(waypoint: str, mask: int) -> str:
    return f"{waypoint}#{mask}"


def ground_to_mdp(s: Scenario) -> Mdp:
    """Ground the scenario into a goal-directed MDP, its rows written in
    whole-array passes over the waypoint x inspection-mask product.

    States are (waypoint, inspection bitmask) pairs plus one absorbing
    collision state, each costing 1.  Waypoint k's state for mask m sits at
    position ``k * 2**targets + m``, the collision state last.  A state's
    actions are its gotos in neighbour-id order, each to the neighbour with
    probability 1 - risk and then to the collision state if the risk is
    above 0, then its inspect while the mask lacks that target.  The action
    ids are the plan labels ``goto <waypoint>`` and ``inspect <obstacle>``.
    """
    target_bit = {t: 1 << i for i, t in enumerate(sorted(s.inspection_goals))}
    masks, ids = 1 << len(target_bit), s.ids
    rank = np.argsort(sorted(range(len(ids)), key=ids.__getitem__))  # each one's in id order
    # every edge both ways, as (waypoint, neighbour, risk), sorted into goto order
    (src, dst), risk = np.concatenate((s.edges, s.edges[:, ::-1])).T, np.tile(s.risks, 2)
    order = np.lexsort((rank[dst], src))
    dst, risk, degree = dst[order], risk[order], np.bincount(src, minlength=len(ids))
    bit = np.array([target_bit.get(t, 0) for t in s.inspects], dtype=np.intp)
    # each state's action count, then each action's state, waypoint, mask and place
    wp, mask = np.divmod(np.arange(len(ids) * masks), masks)
    counts = np.append(degree[wp] + ((bit[wp] & ~mask) != 0), 0)  # bit 0: no inspect
    sources = np.repeat(np.arange(len(counts)), counts)
    nth = np.arange(len(sources)) - (np.cumsum(counts) - counts)[sources]
    wp, mask = wp[sources], mask[sources]
    goto = nth < degree[wp]
    edge = ((np.cumsum(degree) - degree)[wp] + nth)[goto]
    label = len(ids) + wp  # into names: each waypoint's goto, then each one's inspect
    label[goto] = dst[edge]
    names = np.array([f"goto {w}" for w in ids]
                     + [f"inspect {t}" for t in s.inspects], dtype=object)
    crash = risk[edge] > 0.0  # a second move for a risky goto
    moves = 1 + np.bincount(np.flatnonzero(goto)[crash], minlength=len(sources))
    rows = np.concatenate(([0], np.cumsum(moves)))
    # each action's first move, then a risky goto's collision right after it
    go, inspect = rows[:-1][goto], rows[:-1][~goto]
    targets, probabilities = np.empty(rows[-1], dtype=np.intp), np.ones(rows[-1])
    targets[go], probabilities[go] = dst[edge] * masks + mask[goto], 1.0 - risk[edge]
    targets[inspect] = sources[~goto] + bit[wp[~goto]]
    targets[go[crash] + 1], probabilities[go[crash] + 1] = len(ids) * masks, risk[edge[crash]]
    return Mdp(states=[*itertools.starmap(state_id, itertools.product(ids, range(masks))),
                       COLLIDED], costs=np.ones(len(counts)), sources=sources,
               labels=names[label].tolist(), rows=rows, targets=targets,
               transitions=probabilities, start=ids.index(s.start) * masks,
               goals={ids.index(s.final) * masks + masks - 1})


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
    of a dataclass's own checks, is a ValueError that names ``doc`` and the
    value's jq-style path, such as ``.incidents[0]``."""
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
        raise ValueError(f"{doc}: {path or '.'} must be {want}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{doc}: {path or '.'} must be finite, got {value!r}")
    if origin is list and args[0] in (str, int, bool) and set(map(type, value)) <= {args[0]}:
        return list(value)  # each element already is its own JSON type
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
            raise ValueError(f"{doc}: {path or '.'} has unknown field {key!r}")
    for f in fields(kind):
        if f.name not in value and f.default is f.default_factory is MISSING:
            raise ValueError(f"{doc}: {path}.{f.name} is missing")
    given = {k: from_json(hints[k], v, doc, f"{path}.{k}") for k, v in value.items()}
    try:
        return kind(**given)
    except ValueError as exc:  # the dataclass's own checks
        raise ValueError(f"{doc}: {path or '.'} is rejected: {exc}") from None


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
            raise ValueError(f"{path}: .format_version must be {PLAN_FORMAT_VERSION}, "
                             f"got {version!r}")
    return from_json(PlanFile, doc, str(path))
