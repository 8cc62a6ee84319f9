"""Command-line interface: exit codes, artifacts, and the staged workflow."""

import argparse
import json
import os
import re
import time
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from conftest import TANKS_SCN, inspection_chain, make_mdp
from riskplan import assess, cli, pipeline, simulator
from riskplan.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, main
from riskplan.refiner import read_trajectory_csv, refine
from riskplan.scenario import from_json, load_scenario
from riskplan.simulator import DisturbanceConfig, read_episode_log, run_batch

SMALL = """
LIMITS vmax 1.0 vcrit 0.25 radius 2.0
OBSTACLE tank center 0 0 -5 half 1 1 2
WAYPOINT start pos 10 0 -5
WAYPOINT near pos 3.2 0 -5 critical inspect tank
WAYPOINT safe pos 6 6 -5
WAYPOINT far pos 3.2 4.5 -5 inspect tank
WAYPOINT final pos -6 0 -5
EDGE start near risk 0.08
EDGE near final risk 0
EDGE start safe risk 0
EDGE safe far risk 0
EDGE far final risk 0
MISSION start start final final inspect tank
"""


@pytest.fixture
def small_scn(tmp_path):
    path = tmp_path / "small.scn"
    path.write_text(SMALL, encoding="utf-8")
    return path


class TestExitCodes:
    def test_missing_file_is_input_error(self, tmp_path):
        code = main(["pipeline", str(tmp_path / "nope.scn"),
                     "--out-dir", str(tmp_path / "out"), "--seed", "1"])
        assert code == EXIT_INPUT

    def test_parse_errors_are_input_errors(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("WAYPOINT a pos 1 two 3\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["pipeline", str(bad), "--out-dir", str(out),
                     "--seed", "1"])
        assert code == EXIT_INPUT
        errors = json.loads((out / "errors.json").read_text())
        assert errors["stage"] == "parse"

    def test_invalid_grounded_model_is_a_ground_error(self, small_scn, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(pipeline, "ground_to_mdp", lambda scenario: make_mdp(
            [("s0", 1.0), ("goal", 0.0)], [("s0", "go", "goal", 0.5)], "s0", {"goal"}))
        out = tmp_path / "out"
        code = main(["pipeline", str(small_scn), "--out-dir", str(out),
                     "--seed", "1"])
        # a scenario that parses grounds, so a bad model is the program's fault:
        # an internal error, with no errors.json
        assert code == EXIT_INTERNAL
        assert list(out.iterdir()) == []

    def test_invalid_grounded_model_is_internal_for_plan(self, small_scn, tmp_path,
                                                         monkeypatch, capsys):
        monkeypatch.setattr(cli, "ground_to_mdp", lambda scenario: make_mdp(
            [("s0", 1.0), ("goal", 0.0)], [("s0", "go", "goal", 0.5)], "s0", {"goal"}))
        assert main(["plan", str(small_scn), "--out-dir", str(tmp_path / "plans"),
                     "--seed", "1"]) == EXIT_INTERNAL
        assert "InvalidModel" in capsys.readouterr().err

    def test_pipeline_requires_seed(self, small_scn, tmp_path):
        code = main(["pipeline", str(small_scn),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_INPUT

    def test_unsolvable_mission_is_internal(self, tmp_path):
        # a solver outcome, not bad input: the final waypoint has no edge
        scn = tmp_path / "island.scn"
        scn.write_text(SMALL.replace("EDGE near final risk 0\n", "")
                       .replace("EDGE far final risk 0\n", ""), encoding="utf-8")
        code = main(["pipeline", str(scn), "--out-dir", str(tmp_path / "out"),
                     "--seed", "1"])
        assert code == EXIT_INTERNAL

    @pytest.mark.parametrize("cost", [None, "30"])
    def test_crash_seeking_plan_is_refused(self, tmp_path, capsys, cost):
        # the plan is the input's outcome, not the program's fault: exit 2,
        # naming the plan, the state its trace loops at and the collision cost
        scn = tmp_path / "s.scn"
        scn.write_text(CRASH_SEEKING, encoding="utf-8")
        out = tmp_path / "out"
        flags = [] if cost is None else ["--collision-cost", cost]
        code = main(["pipeline", str(scn), "--seed", "3", "--out-dir", str(out), *flags])
        doc = _stderr_doc(capsys)
        assert code == doc["exit_code"] == EXIT_INPUT
        assert doc["error"] == (
            "plan P2: most-probable trace from 'w0#0' does not reach a goal (stuck at "
            f"'w0#0'); it seeks a collision, priced at collision cost {float(cost or 12)}")
        assert list(out.iterdir()) == []

    def test_ungroundable_goal_is_a_ground_error(self, tmp_path):
        scn = tmp_path / "blind.scn"
        scn.write_text(UNGROUNDABLE, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["pipeline", str(scn), "--out-dir", str(out), "--seed", "1"])
        assert code == EXIT_INPUT
        errors = json.loads((out / "errors.json").read_text())
        assert errors["stage"] == "parse"
        assert errors["errors"] == [
            "7:1: semantic: mission inspection target 'tank' has no waypoint that inspects it"]
        assert sorted(p.name for p in out.iterdir()) == ["errors.json"]

    def test_duplicate_edge_is_a_parse_error(self, tmp_path, capsys):
        scn = tmp_path / "twice.scn"
        scn.write_text(TWICE_JOINED, encoding="utf-8")
        out = tmp_path / "out"
        issue = "4:1: duplicate-id: duplicate edge between 'a' and 'b' (first on line 3)"
        assert main(["pipeline", str(scn), "--out-dir", str(out), "--seed", "1"]) == EXIT_INPUT
        errors = json.loads((out / "errors.json").read_text())
        assert (errors["stage"], errors["errors"]) == ("parse", [issue])
        assert main(["plan", str(scn), "--out-dir", str(tmp_path / "plans")]) == EXIT_INPUT
        assert capsys.readouterr().err.count(issue) == 2

    @pytest.mark.parametrize("text, issue", [
        # 13 waypoints and 12 targets: 53,249 states, which take seconds and
        # ~190 MB to ground and minutes to plan; the MISSION line follows 12
        # OBSTACLE, 13 WAYPOINT and 12 EDGE lines
        (inspection_chain(13, 12), "38:1: semantic: mission grounds to more than 16384 states"),
        # a complete graph of 15 waypoints and 10 targets: 15,361 states, but
        # 435,200 transitions, which take ~3 s and ~200 MB to ground and ~30 s
        # to plan; 10 OBSTACLE, 15 WAYPOINT and 105 EDGE lines come first
        (inspection_chain(15, 10, complete=True),
         "131:1: semantic: mission grounds to more than 131072 transitions"),
    ], ids=["states", "transitions"])
    def test_mission_over_a_bound_is_refused_before_grounding(
            self, tmp_path, capsys, monkeypatch, text, issue):
        scn = tmp_path / "big.scn"
        scn.write_text(text, encoding="utf-8")
        monkeypatch.setattr(cli, "ground_to_mdp", None)  # calling it would fail
        t0 = time.perf_counter()
        code = main(["plan", str(scn), "--out-dir", str(tmp_path / "plans")])
        elapsed = time.perf_counter() - t0
        assert code == EXIT_INPUT
        assert issue in capsys.readouterr().err
        assert elapsed < 0.05

    def test_new_run_removes_old_errors_json(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("WAYPOINT a pos 1 two 3\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["pipeline", str(bad), "--out-dir", str(out),
                     "--seed", "1"]) == EXIT_INPUT
        assert (out / "errors.json").exists()
        assert main(["pipeline", str(TANKS_SCN), "--out-dir", str(out),
                     "--seed", "1"]) == EXIT_OK
        assert (out / "report.json").exists()
        assert not (out / "errors.json").exists()

    def test_failed_parse_after_a_success_leaves_only_errors_json(self, tmp_path):
        out = tmp_path / "out"
        assert main(["pipeline", str(TANKS_SCN), "--out-dir", str(out),
                     "--seed", "7", "--from-sonar"]) == EXIT_OK
        (out / "notes.txt").write_text("not an artifact", encoding="utf-8")
        bad = tmp_path / "bad.scn"
        bad.write_text("WAYPOINT a pos 1 two 3\n", encoding="utf-8")
        assert main(["pipeline", str(bad), "--out-dir", str(out),
                     "--seed", "1"]) == EXIT_INPUT
        assert sorted(p.name for p in out.iterdir()) == ["errors.json", "notes.txt"]

    def test_each_run_hashes_its_config_once(self, small_scn, tmp_path, monkeypatch):
        calls = []
        real_hash = pipeline.PipelineConfig.config_hash
        monkeypatch.setattr(pipeline.PipelineConfig, "config_hash",
                            lambda cfg: calls.append(cfg) or real_hash(cfg))
        out = tmp_path / "out"
        assert main(["pipeline", str(small_scn), "--out-dir", str(out),
                     "--seed", "1"]) == EXIT_OK
        (cfg,) = calls
        stamp = {"config_sha256": real_hash(cfg), "master_seed": 1}
        for name in ("report.json", "candidates.json"):
            doc = json.loads((out / name).read_text())
            assert {k: doc[k] for k in stamp} == stamp
        assert (out / "summary.csv").read_text().splitlines()[0] == \
            f"# config_sha256={stamp['config_sha256']} master_seed=1"

        bad = tmp_path / "bad.scn"
        bad.write_text("WAYPOINT a pos 1 two 3\n", encoding="utf-8")
        assert main(["pipeline", str(bad), "--out-dir", str(out),
                     "--seed", "1"]) == EXIT_INPUT
        assert len(calls) == 2
        errors = json.loads((out / "errors.json").read_text())
        assert errors["config_sha256"] == real_hash(calls[1])


UNGROUNDABLE = """
LIMITS vmax 1.0 vcrit 0.25 radius 2.0
OBSTACLE tank center 0 0 -5 half 1 1 2
WAYPOINT start pos 10 0 -5
WAYPOINT final pos -6 0 -5
EDGE start final risk 0
MISSION start start final final inspect tank
"""

TWICE_JOINED = """WAYPOINT a pos 0 0 -5
WAYPOINT b pos 4 0 -5
EDGE a b risk 0.1
EDGE b a risk 0.2
MISSION start a final b
"""

# a random connected scenario whose mission must cross the 0.5-risk edge
# w0-w1 twice: at collision cost 12 (the default), 30 or 100, most gammas
# give the policy {w0#0: goto w1, w1#0: goto w0}, which bounces over that
# edge until a collision ends the mission
CRASH_SEEKING = """LIMITS vmax 1 vcrit 0.25 radius 2
OBSTACLE o0 center -26.2241 4.29049 -5 half 1.04233 1.29602 1.47786
OBSTACLE o1 center -19.7071 -12.4729 -5 half 1.19811 2.70429 1.07081
OBSTACLE o2 center -22.8367 26.896 -5 half 0.855763 2.8246 1.37903
WAYPOINT w0 pos 7.34638 32.1409 -5 inspect o2
WAYPOINT w1 pos 28.7157 30.8224 -5
WAYPOINT w2 pos 3.22996 38.0873 -5 inspect o0
WAYPOINT w3 pos -9.09915 3.62945 -5 critical inspect o0
WAYPOINT w4 pos -31.9831 12.8426 -5 critical inspect o2
WAYPOINT w5 pos 15.9131 -5.23099 -5
EDGE w0 w1 risk 0.5
EDGE w1 w2 risk 0.05
EDGE w1 w3 risk 0.2
EDGE w0 w4 risk 0.2
EDGE w4 w5 risk 0.2
MISSION start w0 final w5 inspect o0 o2
"""


def _stderr_doc(capsys) -> dict:
    """The one JSON line a failed command prints on stderr."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert sorted(doc) == ["error", "exit_code"]
    return doc


class TestOneStderrShape:
    def test_parse_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("WAYPOINT a pos 1 two 3\n", encoding="utf-8")
        code = main(["pipeline", str(bad), "--out-dir", str(tmp_path / "out"),
                     "--seed", "1"])
        doc = _stderr_doc(capsys)
        assert code == doc["exit_code"] == EXIT_INPUT
        assert doc["error"].startswith(f"{bad}: ")
        for issue in load_scenario(bad).errors:
            assert str(issue) in doc["error"]

    def test_invalid_grounded_model(self, small_scn, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(pipeline, "ground_to_mdp", lambda scenario: make_mdp(
            [("s0", 1.0), ("goal", 0.0)], [("s0", "go", "goal", 0.5)], "s0", {"goal"}))
        code = main(["pipeline", str(small_scn), "--out-dir", str(tmp_path / "out"),
                     "--seed", "1"])
        doc = _stderr_doc(capsys)
        assert code == doc["exit_code"] == EXIT_INTERNAL
        assert doc["error"].startswith("InvalidModel:")

    def test_missing_seed(self, small_scn, tmp_path, capsys):
        code = main(["pipeline", str(small_scn), "--out-dir", str(tmp_path / "out")])
        doc = _stderr_doc(capsys)
        assert code == doc["exit_code"] == EXIT_INPUT
        assert doc["error"] == "--seed is required"

    @pytest.mark.parametrize("command, error", [
        ("refine", "no scenario edge connects 'start' and 'final'"),
        ("gen-problem", "waypoint 'w_sm_r' sits in a voxel with occupancy 0.659"),
        ("assess", "need at least 2 samples, got 1"),
        ("plot", "no plan has at least 2 episodes"),
    ])
    def test_input_error_line(self, tmp_path, capsys, command, error):
        # the whole stderr of an input error is its message, byte for byte
        assert main(_bad_input_argv(command, tmp_path)) == EXIT_INPUT
        line = json.dumps({"error": error, "exit_code": EXIT_INPUT})
        assert capsys.readouterr().err == line + "\n"

    @pytest.mark.parametrize("argv, error", [
        (["plan", "--samples", "0"], "gamma_samples must be >= 1, got 0"),
        (["plan", "--gamma-low", "0.9", "--gamma-high", "0.4"],
         "gamma_low and gamma_high must satisfy 0 < gamma_low < gamma_high <= 1, "
         "got 0.9 and 0.4"),
        (["pipeline", "--seed", "1", "--episodes", "1"], "episodes must be >= 2, got 1"),
    ])
    def test_config_refusal_line(self, tmp_path, monkeypatch, capsys, argv, error):
        # each names the setting it refuses and its value: plan's --samples 0
        # once read "gamma_samples must be >= 1 and episodes >= 2"
        monkeypatch.chdir(tmp_path)
        command, *flags = argv
        assert main([command, str(TANKS_SCN), *flags]) == EXIT_INPUT
        line = json.dumps({"error": f"config: . is rejected: {error}",
                           "exit_code": EXIT_INPUT})
        assert capsys.readouterr().err == line + "\n"
        assert list(tmp_path.iterdir()) == []

    def test_misfit_plan_file_line(self, tmp_path, capsys):
        plan = _plan_file(tmp_path, {"gamma": "high", "actions": ["goto w_sm_l"],
                                     "high_level_length": 1})
        assert main(["refine", str(TANKS_SCN), str(plan),
                     "--out", str(tmp_path / "t.csv")]) == EXIT_INPUT
        line = json.dumps({"error": f"{plan}: .gamma must be a number, got 'high'",
                           "exit_code": EXIT_INPUT})
        assert capsys.readouterr().err == line + "\n"


def _bad_input_argv(command, tmp_path) -> list[str]:
    """A command line of ``command`` on tanks.scn that fails on its input."""
    if command == "refine":  # no edge joins start and final
        plan = _plan_file(tmp_path, {"actions": ["goto final"], "high_level_length": 1})
        return [command, str(TANKS_SCN), str(plan), "--out", str(tmp_path / "t.csv")]
    if command == "gen-problem":  # w_sm_r moved into sm_tank's wall
        scn = tmp_path / "moved.scn"
        scn.write_text(TANKS_SCN.read_text(encoding="utf-8").replace(
            "pos 2 -1.8 -5", "pos 1.1 0 -5"), encoding="utf-8")
        return [command, str(scn), "--out", str(tmp_path / "problem.scn")]
    if command == "assess":  # one episode
        log = tmp_path / "e.jsonl"
        simulator.write_episode_log([simulator.EpisodeRecord("P1", 0, 1.0, [], True,
                                                             (1, "P1", 0))], log)
        return [command, str(log), "--out", str(tmp_path / "report.json")]
    report = tmp_path / "report.json"  # plot: no plan with two samples
    report.write_text(json.dumps({"samples": {"P1": [1.0]}}), encoding="utf-8")
    return [command, str(report), "--out-svg", str(tmp_path / "b.svg"),
            "--out-csv", str(tmp_path / "b.csv")]


def _plan_file(tmp_path, doc):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"format_version": 2, "plan_id": "P1", "gamma": 0.9,
                                "trajectory_ref": None, **doc}), encoding="utf-8")
    return path


class TestBadInputExitsTwo:
    def test_overlong_trajectory_exits_two_at_once(self, tmp_path, capsys):
        # its episodes once ran up to 1e11 ticks, past 15 s, at the speed floor
        traj = tmp_path / "T.csv"
        traj.write_text("t,x,y,z,v\r\n0.000,0,0,-5,0\r\n1000000000.000,1,0,-5,0\r\n",
                        encoding="utf-8")
        start = time.perf_counter()
        assert main(["simulate", str(TANKS_SCN), str(traj), "--seed", "1", "--episodes", "2",
                     "--out", str(tmp_path / "e.jsonl")]) == EXIT_INPUT
        assert time.perf_counter() - start < 1.0
        assert _stderr_doc(capsys)["error"] == (
            "a 1000000000.0 s trajectory's episodes would run up to 100000000000 ticks, "
            "more than MAX_EPISODE_TICKS (10000000)")
        assert not (tmp_path / "e.jsonl").exists()

    def test_v1_plan_file(self, small_scn, tmp_path):
        plan = _plan_file(tmp_path, {"format_version": 1, "planning_time_s": 0.0,
                                     "actions": ["goto near"], "high_level_length": 1})
        assert main(["refine", str(small_scn), str(plan),
                     "--out", str(tmp_path / "t.csv")]) == EXIT_INPUT

    @pytest.mark.parametrize("command, doc", [
        ("select", [1, 2]), ("select", {}), ("select", {"selection": {"selected": 1}}),
        ("plot", [1, 2]), ("plot", {"samples": [1, 2]}), ("plot", {"samples": {"P1": "ab"}}),
    ])
    def test_malformed_report(self, tmp_path, capsys, command, doc):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc), encoding="utf-8")
        flags = ["--out-svg", str(tmp_path / "b.svg"),
                 "--out-csv", str(tmp_path / "b.csv")] if command == "plot" else []
        assert main([command, str(report), *flags]) == EXIT_INPUT
        assert str(report) in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("actions", 5), ("actions", ["goto near", 5]), ("high_level_length", "1"),
        ("gamma", "0.9"), ("plan_id", 1),
    ])
    def test_plan_file_value_of_wrong_type(self, small_scn, tmp_path, capsys,
                                           field, value):
        plan = _plan_file(tmp_path, {"actions": ["goto near", "goto final"],
                                     "high_level_length": 2, field: value})
        assert main(["refine", str(small_scn), str(plan),
                     "--out", str(tmp_path / "t.csv")]) == EXIT_INPUT
        assert f".{field}" in capsys.readouterr().err

    def test_disconnected_goto(self, small_scn, tmp_path):
        # no edge joins start and final
        plan = _plan_file(tmp_path, {"actions": ["goto final"], "high_level_length": 1})
        assert main(["refine", str(small_scn), str(plan),
                     "--out", str(tmp_path / "t.csv")]) == EXIT_INPUT

    @pytest.mark.parametrize("label", ["inspect nosuch", "inspect", "fly near"])
    def test_unknown_plan_action(self, small_scn, tmp_path, capsys, label):
        # an unknown inspection target was once a KeyError, exit 1
        plan = _plan_file(tmp_path, {"actions": ["goto near", label],
                                     "high_level_length": 2})
        assert main(["refine", str(small_scn), str(plan),
                     "--out", str(tmp_path / "t.csv")]) == EXIT_INPUT
        assert repr(label) in capsys.readouterr().err

    def test_assess_one_episode_log(self, small_scn, tmp_path):
        traj, log = tmp_path / "t.csv", tmp_path / "e.jsonl"
        refine(load_scenario(small_scn).scenario,
               ["goto near", "goto final"]).export_csv(traj)
        # one episode is a valid simulation, but too few to assess
        assert main(["simulate", str(small_scn), str(traj), "--seed", "1",
                     "--episodes", "1", "--out", str(log)]) == EXIT_OK
        assert main(["assess", str(log), "--out",
                     str(tmp_path / "report.json")]) == EXIT_INPUT

    def test_assess_log_with_unknown_field(self, tmp_path):
        log = tmp_path / "e.jsonl"
        record = {"plan_id": "P1", "episode_index": 0, "execution_time_s": 1.0,
                  "incidents": [], "completed": True, "seed": [1, "P1", 0]}
        log.write_text(json.dumps(record) + "\n"
                       + json.dumps({**record, "episode_index": 1, "surprise": 1}) + "\n",
                       encoding="utf-8")
        assert main(["assess", str(log), "--out",
                     str(tmp_path / "report.json")]) == EXIT_INPUT

    def test_plot_without_two_samples(self, tmp_path):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"samples": {"P1": [3.0], "P2": [4.0]}}),
                          encoding="utf-8")
        assert main(["plot", str(report), "--out-svg", str(tmp_path / "b.svg"),
                     "--out-csv", str(tmp_path / "b.csv")]) == EXIT_INPUT

    @pytest.mark.parametrize("doc, key", [
        ({"master_seed": 3, "gamma_sample": 6}, "gamma_sample"),
        ({"master_seed": 3, "disturbance": {"current_sigm": 0.1}}, "current_sigm"),
    ])
    def test_config_unknown_field(self, small_scn, tmp_path, capsys, doc, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["pipeline", str(small_scn), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out")]) == EXIT_INPUT
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("doc, name", [
        ({"master_seed": 3, "episodes": "5"}, "episodes"),
        ({"master_seed": 3, "disturbance": {"current_sigma": "0.1"}},
         "disturbance.current_sigma"),
        ({"master_seed": True}, "master_seed"),  # JSON true is no integer
        ({"master_seed": 3, "metrics": {"alpha": False}}, "metrics.alpha"),
        ({"master_seed": 3, "helix": {"points": 12.0}}, "helix.points"),
        ({"master_seed": 3, "from_sonar": 1}, "from_sonar"),
    ])
    def test_config_wrong_json_type(self, small_scn, tmp_path, capsys, doc, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["pipeline", str(small_scn), "--config", str(cfg),
                     "--out-dir", str(out)]) == EXIT_INPUT
        assert f"{name} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_config_null_and_integer_values_accepted(self, small_scn):
        cfg = from_json(pipeline.PipelineConfig, {
            "scenario_path": str(small_scn), "out_dir": "out", "master_seed": 3,
            "collision_cost": None, "gamma_high": 1, "disturbance":
                {"perturb_target": None, "clearance": 1}, "helix": {"pitch": None}}, "config")
        assert cfg.collision_cost is None and cfg.gamma_high == 1.0
        assert cfg.disturbance == DisturbanceConfig(perturb_target=None, clearance=1.0)

    @pytest.mark.parametrize("doc, flags", [
        ([["master_seed", 3]], []),
        ({"master_seed": 3, "disturbance": 3}, ["--perturb-target", "none"]),
    ])
    def test_config_not_an_object(self, small_scn, tmp_path, doc, flags):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["pipeline", str(small_scn), "--config", str(cfg),
                     "--out-dir", str(tmp_path / "out"), *flags]) == EXIT_INPUT

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag, field", [
        ("--current-sigma", "current_sigma"), ("--obstacle-sigma", "obstacle_sigma"),
        ("--recovery-penalty", "recovery_penalty_s"),
    ])
    def test_simulate_non_finite_disturbance(self, small_scn, tmp_path, capsys,
                                             flag, field, value):
        traj, log = tmp_path / "t.csv", tmp_path / "e.jsonl"
        refine(load_scenario(small_scn).scenario,
               ["goto near", "goto final"]).export_csv(traj)
        assert main(["simulate", str(small_scn), str(traj), "--seed", "1",
                     f"{flag}={value}", "--out", str(log)]) == EXIT_INPUT
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not log.exists()

    @pytest.mark.parametrize("command, flag, value, field", [
        ("gen-problem", "--kappa", "-1", "kappa"),
        ("gen-problem", "--kappa", "nan", "kappa"),
        ("gen-problem", "--kappa", "inf", "kappa"),
        ("gen-problem", "--noise-sigma", "nan", "sigma"),
        ("map", "--noise-sigma", "nan", "sigma"),
        ("map", "--noise-sigma", "inf", "sigma"),
        ("map", "--noise-sigma", "-0.1", "sigma"),
    ])
    def test_bad_mapping_setting(self, small_scn, tmp_path, capsys, command, flag,
                                 value, field):
        # a negative or NaN kappa once wrote a problem.scn that plan rejects,
        # and a NaN noise sigma once mapped with no noise at all; the noise
        # sigma is refused under the name `pipeline` gives it
        out = tmp_path / "out"
        assert main([command, str(small_scn), "--seed", "1", f"{flag}={value}",
                     "--out", str(out)]) == EXIT_INPUT
        setting = {"kappa": "kappa", "sigma": "sonar_noise_sigma"}[field]
        assert json.loads(capsys.readouterr().err)["error"] == \
            f"{setting} must be finite and >= 0, got {float(value)!r}"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["map", "gen-problem"])
    def test_far_off_waypoint_refused_before_the_grid(self, tmp_path, capsys, command):
        # the grid's voxel counts once overflowed their int cast with a
        # RuntimeWarning, then failed on numpy's "negative dimensions"
        scn = tmp_path / "far.scn"
        scn.write_text(SMALL.replace("WAYPOINT safe pos 6 6 -5", "WAYPOINT safe pos 1e300 6 -5"),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main([command, str(scn), "--seed", "1", "--out", str(out)]) == EXIT_INPUT
        assert ("survey grid extent [1e+300, 18.0, 12.0] m holds more than 134217728 "
                "voxels of 0.5 m") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag, field", [("--bin-width", "bin_width"),
                                             ("--time-bound", "time_bound")])
    def test_assess_non_finite_metric(self, tmp_path, capsys, flag, field, value):
        log, report = tmp_path / "e.jsonl", tmp_path / "report.json"
        log.write_text("".join(
            json.dumps({"plan_id": "P1", "episode_index": i, "execution_time_s": 1.0 + i,
                        "incidents": [], "completed": True, "seed": [1, "P1", i]}) + "\n"
            for i in range(3)), encoding="utf-8")
        assert main(["assess", str(log), f"{flag}={value}",
                     "--out", str(report)]) == EXIT_INPUT
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("section, field", [
        ("disturbance", "current_sigma"), ("disturbance", "clearance"),
        ("metrics", "bin_width"), ("metrics", "time_bound"),
    ])
    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_config_non_finite_value(self, small_scn, tmp_path, capsys,
                                     section, field, value):
        # JSON has no non-finite numbers, but Python's reader takes these
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"master_seed": 3, "{section}": {{"{field}": {value}}}}}',
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["pipeline", str(small_scn), "--config", str(cfg),
                     "--out-dir", str(out)]) == EXIT_INPUT
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, line", [
        (lambda rows: ["t,x,y,v"] + rows[1:], 1),  # a column missing
        (lambda rows: ["t,x,y,z,v,w"] + rows[1:], 1),
        (lambda rows: [], 1),
        (lambda rows: rows[:2] + ["1.0,2.0"] + rows[3:], 3),  # a short row
        (lambda rows: rows[:2] + [rows[2] + ",1"] + rows[3:], 3),
        (lambda rows: rows[:2] + ["nan,0,0,-5,nan"] + rows[3:], 3),
        (lambda rows: rows[:3] + ["1,2,inf,4,5"] + rows[4:], 4),
        (lambda rows: rows[:2] + ["a,b,c,d,e"] + rows[3:], 3),
    ])
    def test_simulate_malformed_trajectory(self, small_scn, tmp_path, capsys, edit, line):
        traj, log = tmp_path / "t.csv", tmp_path / "e.jsonl"
        refine(load_scenario(small_scn).scenario,
               ["goto near", "goto final"]).export_csv(traj)
        traj.write_text("\n".join(edit(traj.read_text().splitlines())) + "\n",
                        encoding="utf-8")
        assert main(["simulate", str(small_scn), str(traj), "--seed", "1",
                     "--out", str(log)]) == EXIT_INPUT
        assert f"{traj}:{line}:" in capsys.readouterr().err
        assert not log.exists()

    @pytest.mark.parametrize("value", ["nan", "-0.5"])
    def test_assess_bad_alpha_mean(self, tmp_path, capsys, value):
        log = tmp_path / "e.jsonl"
        log.write_text("".join(
            json.dumps({"plan_id": "P1", "episode_index": i, "execution_time_s": 1.0 + i,
                        "incidents": [], "completed": True, "seed": [1, "P1", i]}) + "\n"
            for i in range(3)), encoding="utf-8")
        assert main(["assess", str(log), f"--alpha-mean={value}",
                     "--out", str(tmp_path / "report.json")]) == EXIT_INPUT
        assert "alpha_mean must be finite and >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pipeline", "plan"])
    def test_negative_seed_rejected_before_any_work(self, small_scn, tmp_path, capsys,
                                                    command):
        # refused when the config is built, before the run removes any file
        out = tmp_path / "out"
        run = [command, str(small_scn), "--out-dir", str(out), "--samples", "2"]
        assert main(run + ["--seed", "1"]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert before
        capsys.readouterr()
        assert main(run + ["--seed", "-1"]) == EXIT_INPUT
        assert "master_seed must be >= 0" in _stderr_doc(capsys)["error"]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("from_sonar", [True, False])
    def test_bad_sonar_noise_sigma_rejected_before_any_work(self, small_scn, tmp_path,
                                                            capsys, from_sonar):
        # refused when the config is built, before the run removes any file
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text(json.dumps({"sonar_noise_sigma": -1.0, "from_sonar": from_sonar}),
                       encoding="utf-8")
        run = ["pipeline", str(small_scn), "--out-dir", str(out), "--samples", "2",
               "--seed", "7"]
        assert main(run) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main(run + ["--config", str(cfg)]) == EXIT_INPUT
        assert _stderr_doc(capsys)["error"] == ("config: . is rejected: sonar_noise_sigma "
                                                "must be finite and >= 0, got -1.0")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_empty_config_path_rejected(self, small_scn, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["pipeline", str(small_scn), "--config", "", "--out-dir", str(out),
                     "--seed", "1"]) == EXIT_INPUT
        assert _stderr_doc(capsys)["error"] == "--config must name a file, got ''"
        assert not out.exists()

    def test_one_episode_pipeline_rejected_before_any_work(self, small_scn, tmp_path):
        out = tmp_path / "out"
        assert main(["pipeline", str(small_scn), "--out-dir", str(out),
                     "--seed", "1", "--episodes", "1"]) == EXIT_INPUT
        assert not out.exists() or not any(out.iterdir())

    def test_bad_alpha_mean_pipeline_rejected_before_any_work(self, small_scn, tmp_path,
                                                              capsys):
        # once only assessment checked it, after every plan and episode was written
        cfg, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.write_text('{"master_seed": 3, "alpha_mean": -0.5}', encoding="utf-8")
        assert main(["pipeline", str(small_scn), "--config", str(cfg),
                     "--out-dir", str(out)]) == EXIT_INPUT
        assert "alpha_mean must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


class TestPipeline:
    def test_end_to_end_artifacts(self, small_scn, tmp_path):
        out = tmp_path / "out"
        code = main(["pipeline", str(small_scn), "--out-dir", str(out),
                     "--seed", "7", "--samples", "8", "--episodes", "4",
                     "--perturb-target", "tank"])
        assert code == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        selected = report["selection"]["selected"]
        assert (out / f"plan_{selected}.json").exists()
        assert (out / f"trajectory_{selected}.csv").exists()
        assert (out / f"episodes_{selected}.jsonl").exists()
        assert (out / "summary.csv").exists()
        assert (out / "candidates.json").exists()

    def test_config_file_round_trip(self, small_scn, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        cfg = {"scenario_path": str(small_scn), "out_dir": str(out1),
               "master_seed": 3, "gamma_samples": 6, "episodes": 3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["pipeline", str(small_scn), "--config", str(cfg_path),
                     "--out-dir", str(out1)]) == EXIT_OK
        cfg["out_dir"] = str(out2)
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["pipeline", str(small_scn), "--config", str(cfg_path),
                     "--out-dir", str(out2)]) == EXIT_OK
        assert (out1 / "report.json").read_bytes() == \
            (out2 / "report.json").read_bytes()

    def test_rerun_replaces_artifacts_without_truncating(self, small_scn, tmp_path):
        out = tmp_path / "out"
        run = ["pipeline", str(small_scn), "--out-dir", str(out), "--samples", "8",
               "--episodes", "4"]
        assert main(run + ["--seed", "7"]) == EXIT_OK
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        held = tmp_path / "held_report.json"
        os.link(out / "report.json", held)

        # a rerun writes new files: a reader of the old one keeps its bytes
        assert main(run + ["--seed", "8"]) == EXIT_OK
        assert held.read_bytes() == first["report.json"]
        assert (out / "report.json").read_bytes() != first["report.json"]

        assert main(run + ["--seed", "7"]) == EXIT_OK
        assert {name: (out / name).read_bytes() for name in first} == first

    def test_flags_override_config_file(self, small_scn, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"master_seed": 3, "gamma_samples": 6,
                                        "episodes": 2}), encoding="utf-8")
        assert main(["pipeline", str(small_scn), "--config", str(cfg_path),
                     "--out-dir", str(out), "--samples", "3"]) == EXIT_OK
        index = json.loads((out / "candidates.json").read_text())
        assert len(index["gammas"]) == 3


    def test_rerun_leaves_what_a_fresh_run_leaves(self, tmp_path):
        # seed 7 selects from P1 and P2, one gamma sample only from P1
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        assert main(["pipeline", str(TANKS_SCN), "--out-dir", str(used),
                     "--seed", "7", "--episodes", "10"]) == EXIT_OK
        assert (used / "plan_P2.json").exists()
        rerun = ["pipeline", str(TANKS_SCN), "--seed", "11", "--samples", "1",
                 "--from-sonar"]
        assert main(rerun + ["--out-dir", str(used)]) == EXIT_OK
        assert main(rerun + ["--out-dir", str(fresh)]) == EXIT_OK
        assert ({p.name: p.read_bytes() for p in used.iterdir()}
                == {p.name: p.read_bytes() for p in fresh.iterdir()})

    def test_mission_complete_at_its_start(self, tmp_path):
        # no inspection and the start is the final waypoint: the plan has no
        # step, and its trajectory is the start at rest
        scn = tmp_path / "done.scn"
        scn.write_text(ALREADY_DONE, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["pipeline", str(scn), "--out-dir", str(out),
                     "--seed", "1"]) == EXIT_OK
        traj = read_trajectory_csv(out / "trajectory_P1.csv")
        assert traj.rows.tolist() == [[0.0, 0.0, 0.0, -5.0, 0.0]]
        records = read_episode_log(out / "episodes_P1.jsonl")
        assert records and all(r.completed and r.execution_time_s == 0.0
                               for r in records)
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[2:] == ["P1,,0,0.00,0.00,0.0000,0.0000"]


ALREADY_DONE = """
WAYPOINT a pos 0 0 -5
WAYPOINT b pos 5 0 -5
EDGE a b risk 0
MISSION start a final a
"""


class TestStagedWorkflow:
    def test_plan_refine_simulate_assess_plot(self, small_scn, tmp_path):
        plans = tmp_path / "plans"
        assert main(["plan", str(small_scn), "--out-dir", str(plans),
                     "--seed", "2", "--samples", "8"]) == EXIT_OK
        plan_files = sorted(plans.glob("plan_*.json"))
        assert plan_files

        traj = tmp_path / "traj.csv"
        assert main(["refine", str(small_scn), str(plan_files[0]),
                     "--out", str(traj)]) == EXIT_OK
        assert traj.exists()

        logs = []
        for i, pf in enumerate(plan_files[:2], start=1):
            tr = tmp_path / f"t{i}.csv"
            main(["refine", str(small_scn), str(pf), "--out", str(tr)])
            log = tmp_path / f"e{i}.jsonl"
            assert main(["simulate", str(small_scn), str(tr), "--seed", "4",
                         "--plan-id", f"P{i}", "--episodes", "4",
                         "--out", str(log)]) == EXIT_OK
            logs.append(str(log))

        report = tmp_path / "report.json"
        assert main(["assess", *logs, "--out", str(report)]) == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["selection"]["selected"].startswith("P")

        assert main(["select", str(report)]) == EXIT_OK

        svg = tmp_path / "box.svg"
        csv_out = tmp_path / "box.csv"
        assert main(["plot", str(report), "--out-svg", str(svg),
                     "--out-csv", str(csv_out)]) == EXIT_OK
        assert svg.read_text().startswith("<svg")

    def test_plan_rerun_leaves_only_its_own_plans(self, tmp_path):
        plans = tmp_path / "plans"
        assert main(["plan", str(TANKS_SCN), "--out-dir", str(plans),
                     "--seed", "7"]) == EXIT_OK
        assert (plans / "plan_P2.json").exists()
        (plans / "notes.txt").write_text("not a plan", encoding="utf-8")
        assert main(["plan", str(TANKS_SCN), "--out-dir", str(plans),
                     "--seed", "11", "--samples", "1"]) == EXIT_OK
        assert sorted(p.name for p in plans.iterdir()) == ["notes.txt", "plan_P1.json"]


class TestSimulateDefaults:
    def test_no_flags_means_disturbance_config_defaults(self, tmp_path):
        scenario = load_scenario(TANKS_SCN).scenario
        traj_csv = tmp_path / "traj.csv"
        refine(scenario, ["goto w_gap", "goto w_sm_r",
                          "inspect sm_tank", "goto final"]).export_csv(traj_csv)
        log = tmp_path / "episodes.jsonl"
        assert main(["simulate", str(TANKS_SCN), str(traj_csv), "--seed", "4",
                     "--episodes", "3", "--out", str(log)]) == EXIT_OK
        want = run_batch(read_trajectory_csv(traj_csv, plan_id="P1"), scenario,
                         DisturbanceConfig(), n=3, master_seed=4)
        assert read_episode_log(log) == want


class TestMapAndScaling:
    def test_map_and_gen_problem(self, small_scn, tmp_path):
        grid_csv = tmp_path / "grid.csv"
        assert main(["map", str(small_scn), "--out", str(grid_csv),
                     "--seed", "1"]) == EXIT_OK
        assert grid_csv.read_text().startswith("ix,iy,iz,occupancy")

        problem = tmp_path / "problem.scn"
        assert main(["gen-problem", str(small_scn), "--out", str(problem),
                     "--seed", "1"]) == EXIT_OK
        assert "MISSION start start final final" in problem.read_text()

    def test_scaling_rows(self, tmp_path):
        out = tmp_path / "scaling.csv"
        code = main(["scaling", "--depths", "3,4", "--criticals", "1,2",
                     "--seed", "5", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("depth,criticals,solvable")
        assert len(lines) == 3

    def test_failed_scaling_row_bytes(self, tmp_path):
        out = tmp_path / "scaling.csv"
        assert main(["scaling", "--depths", "3,0", "--criticals", "1,0",
                     "--seed", "5", "--out", str(out)]) == EXIT_OK
        header, solved, failed = out.read_bytes().split(b"\r\n")[:3]
        assert header == (b"depth,criticals,solvable,plan_length,gamma,planning_time_s,"
                          b"median_solve_time_s,median_backups,error")
        # the compiled solve takes microseconds: seven decimals show them
        assert re.fullmatch(rb"3,1,True,4,0\.446,0\.\d{7},0\.\d{7},\d+\.\d,", solved)
        assert failed == b"0,0,False,,,,,,ValueError: depth must be >= 1"

    @pytest.mark.parametrize("flags, error", [
        (["--seed", "-1"], "master_seed must be >= 0, got -1"),
        (["--depths", "0", "--criticals", "0", "--seed", "5"], "depth must be >= 1"),
    ])
    def test_every_row_failing_on_input_exits_two(self, tmp_path, capsys, flags, error):
        out = tmp_path / "scaling.csv"
        assert main(["scaling", *flags, "--out", str(out)]) == EXIT_INPUT
        assert _stderr_doc(capsys)["error"] == error
        assert not out.exists()

    @pytest.mark.parametrize("command", ["map", "gen-problem", "simulate"])
    def test_negative_seed_names_its_setting(self, small_scn, tmp_path, capsys, command):
        # scaling's case is a row of test_every_row_failing_on_input_exits_two
        traj, out = tmp_path / "traj.csv", tmp_path / "out"
        traj.write_text(TRAJECTORY_CSV, encoding="utf-8")
        inputs = [str(small_scn), str(traj)] if command == "simulate" else [str(small_scn)]
        assert main([command, *inputs, "--seed", "-1", "--out", str(out)]) == EXIT_INPUT
        assert _stderr_doc(capsys)["error"] == "master_seed must be >= 0, got -1"
        assert not out.exists()


TRAJECTORY_CSV = "t,x,y,z,v\n0,10,0,-5,0\n1,9,0,-5,1\n"


def _capture(command, flags, small_scn, tmp_path, monkeypatch) -> dict:
    """What the stage of ``command`` receives from ``flags``, as nested dicts:
    the PipelineConfig of plan and pipeline, and for simulate and assess
    their config and the other setting the stage reads, under the names
    PipelineConfig gives them."""
    seen = []
    monkeypatch.setattr(cli, "plan_candidates", lambda mdp, cfg: seen.append(asdict(cfg)) or [])
    monkeypatch.setattr(cli, "run_pipeline", lambda cfg: seen.append(asdict(cfg)) or
                        SimpleNamespace(candidates=[], summary_rows=[], selected=None))
    monkeypatch.setattr(simulator, "run_batch", lambda traj, scenario, cfg, n, master_seed:
                        seen.append({"disturbance": asdict(cfg), "episodes": n}) or [])
    monkeypatch.setattr(assess, "build_report", lambda samples, cfg, alpha_mean:
                        seen.append({"metrics": asdict(cfg), "alpha_mean": alpha_mean})
                        or {"selection": {"selected": "P1"}})
    monkeypatch.chdir(tmp_path)  # where each command's default outputs land
    if command == "simulate":
        (tmp_path / "traj.csv").write_text(TRAJECTORY_CSV, encoding="utf-8")
        argv = [command, str(small_scn), "traj.csv", "--seed", "4"]
    elif command == "assess":
        simulator.write_episode_log([simulator.EpisodeRecord("P1", i, 1.0 + i, [], True,
                                                             (1, "P1", i)) for i in range(2)],
                                    tmp_path / "e.jsonl")
        argv = [command, "e.jsonl"]
    else:  # a pipeline needs a seed; the later --seed of a row wins
        argv = [command, str(small_scn)] + (["--seed", "1"] if command == "pipeline" else [])
    assert main(argv + flags) == EXIT_OK
    (captured,) = seen
    return captured


def _defaults(command, small_scn) -> dict:
    if command == "simulate":
        return {"disturbance": asdict(DisturbanceConfig()),
                "episodes": pipeline.PipelineConfig.episodes}
    if command == "assess":
        return {"metrics": asdict(assess.MetricConfig()),
                "alpha_mean": assess.DEFAULT_ALPHA_MEAN}
    if command == "plan":
        return asdict(pipeline.PipelineConfig(str(small_scn), "plans", master_seed=0))
    return asdict(pipeline.PipelineConfig(str(small_scn), "out", master_seed=1))


SWEEP_ROWS = [(["--out-dir", "d"], "out_dir", "d"), (["--seed", "5"], "master_seed", 5),
              (["--samples", "3"], "gamma_samples", 3),
              (["--gamma-low", "0.2"], "gamma_low", 0.2),
              (["--gamma-high", "0.8"], "gamma_high", 0.8),
              (["--collision-cost", "50"], "collision_cost", 50.0)]

# (command, flags, the field they set as a dotted path, its value)
FLAG_TABLE = (
    [("plan", *row) for row in SWEEP_ROWS]
    + [("pipeline", *row) for row in SWEEP_ROWS]
    + [("pipeline", ["--episodes", "4"], "episodes", 4),
       ("pipeline", ["--from-sonar"], "from_sonar", True),
       ("pipeline", ["--perturb-target", "tank"], "disturbance.perturb_target", "tank"),
       ("pipeline", ["--perturb-target", "none"], "disturbance.perturb_target", None),
       ("simulate", ["--current-sigma", "0.1"], "disturbance.current_sigma", 0.1),
       ("simulate", ["--obstacle-sigma", "0.2"], "disturbance.obstacle_sigma", 0.2),
       ("simulate", ["--recovery-penalty", "5"], "disturbance.recovery_penalty_s", 5.0),
       ("simulate", ["--perturb-target", "tank"], "disturbance.perturb_target", "tank"),
       ("simulate", ["--perturb-target", "none"], "disturbance.perturb_target", None),
       ("simulate", ["--perturb-all"], "disturbance.perturb_all", True),
       ("simulate", ["--episodes", "4"], "episodes", 4),
       ("assess", ["--bin-width", "2"], "metrics.bin_width", 2.0),
       ("assess", ["--alpha", "0.8"], "metrics.alpha", 0.8),
       ("assess", ["--time-bound", "100"], "metrics.time_bound", 100.0),
       ("assess", ["--alpha-mean", "0.1"], "alpha_mean", 0.1)])


SUBPARSERS = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)).choices


class TestFlagTable:
    """A flag sets the field its dest names; a flag not given leaves the
    dataclass default."""

    @pytest.mark.parametrize("command", ["plan", "pipeline", "simulate", "assess"])
    def test_no_flags_gives_the_defaults(self, small_scn, tmp_path, monkeypatch, command):
        assert (_capture(command, [], small_scn, tmp_path, monkeypatch)
                == _defaults(command, small_scn))

    @pytest.mark.parametrize("command, flags, path, value", FLAG_TABLE)
    def test_each_flag_alone_sets_its_field(self, small_scn, tmp_path, monkeypatch,
                                            command, flags, path, value):
        want = _defaults(command, small_scn)
        *parents, name = path.split(".")
        section = want
        for parent in parents:
            section = section[parent]
        section[name] = value
        got = _capture(command, flags, small_scn, tmp_path, monkeypatch)
        assert repr(got) == repr(want)  # so 50 is not 50.0, nor 1 True

    @pytest.mark.parametrize("command", sorted(SUBPARSERS))
    def test_help_lists_every_option(self, capsys, command):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        text = capsys.readouterr().out
        for action in SUBPARSERS[command]._actions:
            for option in action.option_strings or [action.dest]:
                assert option in text
