"""Scenario parsing (total over arbitrary input), grounding, and plan files."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, edge_risk, enabled_actions, inspection_chain
from oracles import by_id, make_scenario, reference_linearize_trace, reference_model, same_scenario
from riskplan.mdp import InvalidModel
from riskplan.occupancy import extract_problem
from riskplan.pipeline import DEFAULT_COLLISION_COST, map_from_sonar
from riskplan.planner import (GAMMA_INTERVAL, GAMMA_SAMPLES, ImproperPolicy, NonConvergence,
                              NoProperPolicy, linearize_trace, solve)
from riskplan.reporting import corridor_scenario
from riskplan.scenario import (COLLIDED, MAX_STATES, MAX_TRANSITIONS, PLAN_FORMAT_VERSION,
                               PlanFile, ParseResult, format_scenario, ground_to_mdp,
                               load_scenario, parse_scenario, read_plan_file, state_id,
                               write_plan_file)

MINIMAL = """
LIMITS vmax 1.0 vcrit 0.25 radius 2.0
OBSTACLE box center 0 0 -5 half 1 1 1
WAYPOINT a pos 5 0 -5
WAYPOINT b pos 2 0 -5 critical inspect box
EDGE a b risk 0.1
MISSION start a final a inspect box
"""

# waypoint ids that could clash with a state id or the collision state;
# '#' starts a comment, so "a#0" is only ever a syntax error
_IDS = ["a", "b", "collided"]
_LABELS = st.sampled_from(["x", "y"])
_RISKS = st.sampled_from(["0", "1e-300", "0.999999"])
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _scenario_texts(draw) -> str:
    """.scn texts from a small vocabulary: a few waypoints and obstacles,
    edges between distinct waypoints and a mission, then a few lines of any
    kind (self-edges, repeats, a second ``inspect``, ``a#0``), shuffled."""

    def waypoint(ids, most_inspects):
        inspects = st.lists(_LABELS, max_size=most_inspects)
        return st.builds("WAYPOINT {} pos {} 0 -5{}{}".format, ids, st.integers(0, 3),
                         st.sampled_from(["", " critical"]),
                         inspects.map(lambda ls: "".join(f" inspect {label}" for label in ls)))

    def edge(ends):
        return st.builds("EDGE {0[0]} {0[1]} risk {1}".format, ends, _RISKS)

    def mission(ids):
        return st.builds("MISSION start {} final {}{}".format, ids, ids,
                         st.lists(_LABELS, max_size=2).map(
                             lambda ls: " inspect " + " ".join(ls) if ls else ""))

    obstacle = "OBSTACLE {} center 9 9 -5 half 1 1 1".format
    declared = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=3, unique=True))
    lines = [draw(waypoint(st.just(w), 1)) for w in declared]
    lines += map(obstacle, draw(st.lists(_LABELS, min_size=1, unique=True)))
    pairs = [(u, v) for u in declared for v in declared if u != v]
    if pairs:
        lines += draw(st.lists(edge(st.sampled_from(pairs)), max_size=3))
    lines.append(draw(mission(st.sampled_from(declared))))
    ids = st.sampled_from(_IDS + ["a#0"])
    lines += draw(st.lists(st.one_of(
        waypoint(ids, 2), edge(st.tuples(ids, ids)), _LABELS.map(obstacle), mission(ids),
        st.just("LIMITS vmax 1 vcrit 0.5 radius 2")), max_size=2))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def _connected_texts(draw) -> str:
    """.scn texts that parse: two to five waypoints joined by a random
    spanning tree and up to two more edges, most of them risky, and a
    mission that inspects one or both obstacles, each from its own
    waypoint."""
    ids = draw(st.permutations(_IDS + ["c", "d"]))[:draw(st.integers(2, 5))]
    targets = draw(st.lists(_LABELS, min_size=1, max_size=2, unique=True))
    inspectors = dict(zip(draw(st.permutations(ids)), targets))
    lines = [f"WAYPOINT {w} pos {draw(st.integers(0, 3))} 0 -5"
             f"{draw(st.sampled_from(['', ' critical']))}"
             + (f" inspect {inspectors[w]}" if w in inspectors else "") for w in ids]
    lines += [f"OBSTACLE {label} center 9 9 -5 half 1 1 1" for label in targets]
    joined = [(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, len(ids))]
    others = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]
              if (u, v) not in joined and (v, u) not in joined]
    if others:
        joined += draw(st.lists(st.sampled_from(others), max_size=2, unique=True))
    risks = st.sampled_from(["0.05", "0.3"]) | _RISKS
    lines += [f"EDGE {u} {v} risk {draw(risks)}" for u, v in joined]
    lines.append(f"MISSION start {draw(st.sampled_from(ids))} final "
                 f"{draw(st.sampled_from(ids))} inspect {' '.join(targets)}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


class TestParser:
    def test_minimal_scenario(self):
        result = parse_scenario(MINIMAL)
        assert result.ok
        s = result.scenario
        assert s.start == "a" and s.final == "a"
        assert s.inspection_goals == frozenset({"box"})
        assert [w for w, critical in zip(s.ids, s.critical) if critical] == ["b"]
        assert edge_risk(s, "b", "a") == 0.1

    def test_bundled_scenario_parses(self, tanks_path):
        result = load_scenario(tanks_path)
        assert result.ok
        assert len(result.scenario.ids) == 10

    def test_round_trip(self, tanks_path):
        first = load_scenario(tanks_path).scenario
        second = parse_scenario(format_scenario(first)).scenario
        assert same_scenario(second, first)

    @given(points=st.lists(st.tuples(*[_FLOATS] * 3), min_size=4, max_size=4),
           speeds=st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                           min_size=2, max_size=2),
           radius=st.floats(min_value=0.0, allow_infinity=False),
           risk=st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_round_trip_keeps_every_float(self, points, speeds, radius, risk):
        center, half, a, b = points
        v_crit, v_max = sorted(speeds)
        s = make_scenario([("a", a), ("b", b, True, "box")], [("a", "b", risk)],
                          [("box", center, half)], start="a", final="b",
                          inspection_goals=frozenset({"box"}),
                          v_max=v_max, v_crit=v_crit, critical_radius=radius)
        assert same_scenario(parse_scenario(format_scenario(s)).scenario, s)

    @pytest.mark.parametrize("seed", [7, 11, 123])
    def test_extracted_problem_round_trips(self, tanks_path, seed):
        # its edge risks are computed, not typed: 6 digits changed most of them
        scenario = load_scenario(tanks_path).scenario
        problem = extract_problem(map_from_sonar(scenario, seed, 0.05), scenario)
        assert same_scenario(parse_scenario(format_scenario(problem)).scenario, problem)

    def test_syntax_error_is_positioned(self):
        result = parse_scenario("WAYPOINT a pos 1 two 3\nMISSION start a final a")
        assert not result.ok
        issue = next(e for e in result.errors if e.kind == "syntax")
        assert issue.line == 1
        assert "two" in issue.message

    def test_duplicate_waypoint(self):
        text = MINIMAL + "WAYPOINT a pos 9 9 -5\n"
        kinds = {e.kind for e in parse_scenario(text).errors}
        assert "duplicate-id" in kinds

    @pytest.mark.parametrize("line, first", [
        ("OBSTACLE box center 9 9 -5 half 1 1 1", "obstacle 'box' (first on line 3)"),
        ("WAYPOINT b pos 9 9 -5", "waypoint 'b' (first on line 5)"),
        ("EDGE a b risk 0.2", "edge between 'a' and 'b' (first on line 6)"),
        ("EDGE b a risk 0.2", "edge between 'a' and 'b' (first on line 6)"),
        ("MISSION start b final b", "MISSION section (first on line 7)"),
        ("LIMITS vmax 2.0 vcrit 0.5 radius 1.0", "LIMITS section (first on line 2)"),
    ], ids=["OBSTACLE", "WAYPOINT", "EDGE", "EDGE-reversed", "MISSION", "LIMITS"])
    def test_second_declaration_is_positioned(self, line, first):
        errs = parse_scenario(MINIMAL + "  " + line + "\n").errors
        assert [str(e) for e in errs] == [f"8:3: duplicate-id: duplicate {first}"]

    def test_second_inspect_is_an_unexpected_token(self):
        line = "WAYPOINT b pos 2 0 -5 critical inspect box inspect box"
        text = MINIMAL.replace("WAYPOINT b pos 2 0 -5 critical inspect box", line)
        col = line.rindex("inspect") + 1
        assert [str(e) for e in parse_scenario(text).errors if e.line == 5] == [
            f"5:{col}: syntax: unexpected token 'inspect'"]

    def test_repeated_critical_is_accepted(self):
        text = MINIMAL.replace("critical inspect box", "critical critical inspect box")
        assert same_scenario(parse_scenario(text).scenario, parse_scenario(MINIMAL).scenario)

    @pytest.mark.parametrize("fits, over, issue", [
        # chains of w waypoints and 10 targets ground to w * 2**10 + 1 states
        (inspection_chain((MAX_STATES - 1) >> 10, 10),
         inspection_chain(((MAX_STATES - 1) >> 10) + 1, 10), f"more than {MAX_STATES} states"),
        # complete graphs of 15 waypoints: (15 + 4 * 105) * 2**targets
        # transitions at most, 111,360 with 8 targets and 445,440 with 10
        (inspection_chain(15, 8, complete=True), inspection_chain(15, 10, complete=True),
         f"more than {MAX_TRANSITIONS} transitions"),
    ], ids=["states", "transitions"])
    def test_mission_over_a_bound_is_positioned(self, fits, over, issue):
        assert parse_scenario(fits).ok
        assert [str(e) for e in parse_scenario(over).errors] == [
            f"{over.count(chr(10))}:1: semantic: mission grounds to {issue}"]

    def test_unknown_inspection_obstacle_is_positioned(self):
        text = MINIMAL.replace("WAYPOINT a pos 5 0 -5", "WAYPOINT a pos 5 0 -5 inspect ghost")
        assert [str(e) for e in parse_scenario(text).errors] == [
            "4:1: unknown-reference: waypoint 'a' inspects unknown obstacle 'ghost'"]

    def test_unknown_edge_reference(self):
        text = MINIMAL + "EDGE a ghost risk 0\n"
        errs = parse_scenario(text).errors
        assert any(e.kind == "unknown-reference" and "ghost" in e.message
                   for e in errs)

    def test_missing_mission(self):
        errs = parse_scenario("WAYPOINT a pos 0 0 0").errors
        assert any("MISSION" in e.message for e in errs)

    def test_speed_limit_ordering(self):
        text = MINIMAL.replace("vmax 1.0 vcrit 0.25", "vmax 0.2 vcrit 0.25")
        errs = parse_scenario(text).errors
        assert any("exceeds vmax" in e.message for e in errs)

    @pytest.mark.parametrize("limits, issue", [
        ("vmax 1.0 vcrit 0 radius 2.0", "speed limits must be positive"),
        ("vmax -1.0 vcrit -2.0 radius 2.0", "speed limits must be positive"),
        ("vmax 1.0 vcrit 0.25 radius -0.5", "critical radius must be >= 0"),
    ])
    def test_limits_out_of_range(self, limits, issue):
        text = MINIMAL.replace("vmax 1.0 vcrit 0.25 radius 2.0", limits)
        assert [str(e) for e in parse_scenario(text).errors] == [f"2:1: semantic: {issue}"]

    def test_mission_words_after_final_start_with_inspect(self):
        text = MINIMAL.replace("final a inspect box", "final a box")
        assert [str(e) for e in parse_scenario(text).errors] == [
            "7:25: syntax: unexpected token 'box'"]

    def test_a_malformed_mission_line_is_reported_once(self):
        # the MISSION line is there, so no section is missing
        errors = parse_scenario("WAYPOINT a pos 0 0 0\nMISSION start a\n").errors
        assert [str(e) for e in errors] == [
            "2:1: syntax: expected: MISSION start <wp> final <wp> [inspect <labels>]"]

    def test_risk_must_be_a_probability(self):
        text = MINIMAL.replace("risk 0.1", "risk 1.5")
        errs = parse_scenario(text).errors
        assert any(e.kind == "semantic" and "1.5" in e.message for e in errs)

    @pytest.mark.parametrize("section", ["OBSTACLE box", "EDGE a b", "LIMITS vmax"])
    def test_trailing_tokens_are_a_syntax_error(self, section):
        line = next(l for l in MINIMAL.splitlines() if l.startswith(section))
        text = MINIMAL.replace(line, line + " junk more")
        line_no = MINIMAL.splitlines().index(line) + 1
        errs = [e for e in parse_scenario(text).errors if e.line == line_no]
        assert [(e.col, e.kind) for e in errs] == [(1, "syntax")]
        assert errs[0].message.startswith(f"expected: {section.split()[0]} ")

    @pytest.mark.parametrize("word", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("field", ["vmax 1.0", "pos 5 0 -5", "half 1 1 1", "risk 0.1"],
                             ids=["LIMITS", "WAYPOINT", "OBSTACLE", "EDGE"])
    def test_numbers_must_be_finite(self, field, word):
        # float() reads these words; a scenario must not
        name, number, *rest = field.split()
        bad = " ".join([name, word, *rest])
        text = MINIMAL.replace(field, bad)
        line = next(l for l in text.splitlines() if bad in l)
        line_no = text.splitlines().index(line) + 1
        col = line.index(bad) + len(name) + 2
        errs = [str(e) for e in parse_scenario(text).errors if e.line == line_no]
        assert errs == [f"{line_no}:{col}: syntax: expected a finite number, got {word!r}"]

    def test_one_issue_per_line(self):
        text = MINIMAL.replace("vmax 1.0 vcrit 0.25 radius 2.0",
                               "vmax fast vcrit slow radius wide")
        errs = parse_scenario(text).errors
        assert [str(e) for e in errs] == ["2:13: syntax: expected a number, got 'fast'"]

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + MINIMAL + "  # trailing\n"
        assert parse_scenario(text).ok

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_total_over_arbitrary_text(self, text):
        result = parse_scenario(text)
        assert isinstance(result, ParseResult)
        assert result.scenario is not None or result.errors


# perfbench's corridor-sweep corridors, of 130, 280 and 550 states
CORRIDOR_SIZES = (64, 139, 274)


class TestConstruction:
    """A `Scenario` checks, once when it is made, only what a program can
    get wrong; the parser reports input errors before one is made."""

    BASE = parse_scenario(MINIMAL).scenario

    @pytest.mark.parametrize("change, problem", [
        ({"points": [[5.0, 0.0], [2.0, 0.0]]}, "points has shape (2, 2), not (2, 3)"),
        ({"edges": [[0, 2]]}, "an edge index is outside [0, 2)"),
        ({"centers": [[0.0, math.nan, -5.0]]}, "centers is not finite"),
        ({"inspects": (None,)}, "inspects has shape (1,), not (2,)"),
    ], ids=["2-d points", "edge index n", "nan center", "short inspects"])
    def test_program_errors_are_invalid_models(self, change, problem):
        with pytest.raises(InvalidModel) as info:
            replace(self.BASE, **change)
        assert info.value.problems == [problem]

    @pytest.mark.parametrize("name", ["points", "critical", "edges", "risks", "centers",
                                      "halves"])
    def test_arrays_are_read_only_copies(self, name):
        given = getattr(self.BASE, name).copy()
        s = replace(self.BASE, **{name: given})
        with pytest.raises(ValueError, match="read-only"):
            getattr(s, name)[0] = 0
        given[0] = given[0] == 0  # a new value: the scenario keeps its own copy
        assert not np.array_equal(getattr(s, name), given)


def _trace(walk, m, plan):
    """The trace ``walk`` gives the plan, or the message it fails with."""
    try:
        return walk(m, plan)
    except ImproperPolicy as exc:
        return str(exc)


def assert_grounds_as_reference(s):
    """`ground_to_mdp` gives the model that the spec lists and their
    grouping gave (`oracles.reference_model`): the same ids and labels,
    the eight numeric arrays bit for bit (ln P too), start, goals,
    goal-reaching states and counts, and the same trace of the plan of
    each gamma of a sweep, with collisions unrecoverable and priced."""
    m, want = ground_to_mdp(s), reference_model(s)
    assert (m.states, m.labels) == (want.ids, want.labels)
    for name, array in want.numeric.items():
        got = getattr(m, name)
        assert (got.dtype, got.tobytes()) == (array.dtype, array.tobytes()), name
    assert (m.start, m.goals) == (want.start, want.goals)
    assert frozenset(np.flatnonzero(m.reach).tolist()) == want.goal_reaching
    assert (len(m.states), len(m.transitions)) == (len(want.states), len(want.transitions))
    plans = {}
    for failure_cost in (None, DEFAULT_COLLISION_COST):
        for g in np.random.default_rng(0).uniform(*GAMMA_INTERVAL, size=GAMMA_SAMPLES):
            try:
                plan = solve(m, float(g), failure_cost).plan
            except (NoProperPolicy, NonConvergence):
                continue
            plans[frozenset(plan.policy.items())] = plan
    for plan in plans.values():
        assert _trace(linearize_trace, m, plan) == _trace(reference_linearize_trace, want, plan)


class TestGrounding:
    @pytest.mark.parametrize("name", ["tanks", "ring", *CORRIDOR_SIZES])
    def test_grounds_as_the_reference(self, name):
        assert_grounds_as_reference(
            corridor_scenario(name, name) if isinstance(name, int)
            else load_scenario(REPO_ROOT / "scenarios" / f"{name}.scn").scenario)

    def test_ln_p_is_libm_log(self):
        # numpy's vectorised log may round ln 0.917 differently from libm's
        # `log`, which the kernel and the Python solve use
        assert_grounds_as_reference(corridor_scenario(8, 8, risk=0.083))

    def test_state_count_formula(self, tanks_path):
        s = load_scenario(tanks_path).scenario
        m = ground_to_mdp(s)  # raises InvalidModel on any structural problem
        k = len(s.inspection_goals)
        assert len(m.states) == len(s.ids) * 2 ** k + 1

    def test_goal_is_final_with_full_mask(self):
        s = parse_scenario(MINIMAL).scenario
        m = by_id(ground_to_mdp(s))
        assert m.goals == frozenset({state_id("a", 1)})
        assert m.start == state_id("a", 0)

    def test_state_positions(self):
        # waypoint k's state for mask m sits at k * 2**targets + m, and the
        # collision state comes last
        s = parse_scenario(MINIMAL.replace("final a inspect box", "final a inspect box box2")
                           + "OBSTACLE box2 center 9 0 -5 half 1 1 1\n"
                           + "WAYPOINT c pos 9 3 -5 inspect box2\n").scenario
        m = ground_to_mdp(s)
        assert m.states == [
            state_id(w, mask) for w in s.ids for mask in range(4)] + [COLLIDED]
        assert (m.start, m.goals) == (0, frozenset({3}))

    def test_risky_edge_feeds_collision_state(self):
        m = ground_to_mdp(parse_scenario(MINIMAL).scenario)
        crash = [t for t in by_id(m).transitions if t.target == COLLIDED]
        assert crash and all(t.probability == pytest.approx(0.1) for t in crash)
        assert enabled_actions(m)[COLLIDED] == []

    def test_inspect_action_sets_bit(self):
        m = by_id(ground_to_mdp(parse_scenario(MINIMAL).scenario))
        outs = m.outgoing(state_id("b", 0), "inspect box")
        assert [(t.target, t.probability) for t in outs] == [
            (state_id("b", 1), 1.0)]
        assert m.outgoing(state_id("b", 1), "inspect box") == []

    def test_ungroundable_goal(self):
        # a mission target no waypoint inspects is refused on its MISSION line
        text = MINIMAL.replace("critical inspect box", "critical")
        assert [str(e) for e in parse_scenario(text).errors] == [
            "7:1: semantic: mission inspection target 'box' has no waypoint that inspects it"]

    @given(_scenario_texts() | _connected_texts())
    @settings(max_examples=300, deadline=None)
    def test_every_accepted_scenario_grounds(self, text):
        result = parse_scenario(text)
        if result.ok:
            s = result.scenario
            m = ground_to_mdp(s)  # raises nothing
            assert_grounds_as_reference(s)
            bound = (len(s.ids) + 4 * len(s.edges)) << len(s.inspection_goals)
            assert len(m.transitions) <= bound <= MAX_TRANSITIONS
        # only a missing MISSION section has no line to point to
        assert all(e.message == "missing MISSION section"
                   for e in result.errors if e.line == 0)


class TestPlanFile:
    def make(self):
        return PlanFile(plan_id="P1", gamma=0.9,
                        actions=["goto b", "inspect box"],
                        high_level_length=2,
                        trajectory_ref="trajectory_P1.csv")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "plan.json"
        write_plan_file(self.make(), path)
        assert read_plan_file(path) == self.make()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PlanFile("P1", 0.9, ["goto b"], 2)

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        write_plan_file(self.make(), path)
        doc = json.loads(path.read_text())
        doc["surprise"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            read_plan_file(path)
        assert str(info.value) == f"{path}: . has unknown field 'surprise'"

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        write_plan_file(self.make(), path)
        doc = json.loads(path.read_text())
        del doc["gamma"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            read_plan_file(path)
        assert str(info.value) == f"{path}: .gamma is missing"

    def test_version_gate(self, tmp_path):
        path = tmp_path / "plan.json"
        write_plan_file(self.make(), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = PLAN_FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            read_plan_file(path)
        assert str(info.value) == (f"{path}: .format_version must be {PLAN_FORMAT_VERSION}, "
                                   f"got {PLAN_FORMAT_VERSION + 1}")

    def test_v1_plan_file_rejected(self, tmp_path):
        # format 1 also stored a wall-clock planning_time_s
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "format_version": 1, "plan_id": "P1", "gamma": 0.9,
            "actions": ["goto b", "inspect box"], "high_level_length": 2,
            "planning_time_s": 0.0, "trajectory_ref": None}))
        with pytest.raises(ValueError) as info:
            read_plan_file(path)
        assert str(info.value) == (f"{path}: .format_version must be {PLAN_FORMAT_VERSION}, "
                                   f"got 1")
