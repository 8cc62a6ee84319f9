"""Scenario parsing (total over arbitrary input), grounding, and plan files."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskplan.mdp import validate
from riskplan.scenario import (COLLIDED, PLAN_FORMAT_VERSION, PlanFile,
                               ParseResult, SchemaMismatch, UngroundableGoal,
                               format_scenario, ground_to_mdp, load_scenario,
                               parse_scenario, read_plan_file, state_id,
                               write_plan_file)

MINIMAL = """
LIMITS vmax 1.0 vcrit 0.25 radius 2.0
OBSTACLE box center 0 0 -5 half 1 1 1
WAYPOINT a pos 5 0 -5
WAYPOINT b pos 2 0 -5 critical inspect box
EDGE a b risk 0.1
MISSION start a final a inspect box
"""


class TestParser:
    def test_minimal_scenario(self):
        result = parse_scenario(MINIMAL)
        assert result.ok
        s = result.scenario
        assert s.start == "a" and s.final == "a"
        assert s.inspection_goals == frozenset({"box"})
        assert s.waypoint("b").is_critical
        assert s.edge_between("b", "a").collision_probability == 0.1

    def test_bundled_scenario_parses(self, tanks_path):
        result = load_scenario(tanks_path)
        assert result.ok
        assert len(result.scenario.waypoints) == 10

    def test_round_trip(self, tanks_path):
        first = load_scenario(tanks_path).scenario
        second = parse_scenario(format_scenario(first)).scenario
        assert second == first

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

    def test_risk_must_be_a_probability(self):
        text = MINIMAL.replace("risk 0.1", "risk 1.5")
        errs = parse_scenario(text).errors
        assert any(e.kind == "semantic" and "1.5" in e.message for e in errs)

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + MINIMAL + "  # trailing\n"
        assert parse_scenario(text).ok

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_total_over_arbitrary_text(self, text):
        result = parse_scenario(text)
        assert isinstance(result, ParseResult)
        assert result.scenario is not None or result.errors


class TestGrounding:
    def test_state_count_formula(self, tanks_path):
        s = load_scenario(tanks_path).scenario
        m = ground_to_mdp(s)
        k = len(s.inspection_goals)
        assert len(m.states) == len(s.waypoints) * 2 ** k + 1
        assert validate(m) == []

    def test_goal_is_final_with_full_mask(self):
        s = parse_scenario(MINIMAL).scenario
        m = ground_to_mdp(s)
        assert m.goals == frozenset({state_id("a", 1)})
        assert m.start == state_id("a", 0)

    def test_risky_edge_feeds_collision_state(self):
        m = ground_to_mdp(parse_scenario(MINIMAL).scenario)
        crash = [t for t in m.transitions if t.target == COLLIDED]
        assert crash and all(t.probability == pytest.approx(0.1) for t in crash)
        assert m.enabled_actions(COLLIDED) == []

    def test_inspect_action_sets_bit(self):
        m = ground_to_mdp(parse_scenario(MINIMAL).scenario)
        outs = m.outgoing(state_id("b", 0), "inspect:box")
        assert [(t.target, t.probability) for t in outs] == [
            (state_id("b", 1), 1.0)]
        assert m.outgoing(state_id("b", 1), "inspect:box") == []

    def test_ungroundable_goal(self):
        text = MINIMAL.replace("critical inspect box", "critical")
        with pytest.raises(UngroundableGoal):
            ground_to_mdp(parse_scenario(text).scenario)


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
        with pytest.raises(SchemaMismatch, match="surprise"):
            read_plan_file(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        write_plan_file(self.make(), path)
        doc = json.loads(path.read_text())
        del doc["gamma"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch, match="gamma"):
            read_plan_file(path)

    def test_version_gate(self, tmp_path):
        path = tmp_path / "plan.json"
        write_plan_file(self.make(), path)
        doc = json.loads(path.read_text())
        doc["format_version"] = PLAN_FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaMismatch, match="version"):
            read_plan_file(path)

    def test_v1_plan_file_rejected(self, tmp_path):
        # format 1 also stored a wall-clock planning_time_s
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "format_version": 1, "plan_id": "P1", "gamma": 0.9,
            "actions": ["goto b", "inspect box"], "high_level_length": 2,
            "planning_time_s": 0.0, "trajectory_ref": None}))
        with pytest.raises(SchemaMismatch, match="version"):
            read_plan_file(path)
