"""Command-line interface: exit codes, artifacts, and the staged workflow."""

import json

import pytest

from conftest import TANKS_SCN
from riskplan.cli import EXIT_INPUT, EXIT_OK, main
from riskplan.pipeline import read_trajectory_csv
from riskplan.refiner import refine
from riskplan.scenario import load_scenario
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

    def test_pipeline_requires_seed(self, small_scn, tmp_path):
        code = main(["pipeline", str(small_scn),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_INPUT


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

    def test_flags_override_config_file(self, small_scn, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"master_seed": 3, "gamma_samples": 6,
                                        "episodes": 2}), encoding="utf-8")
        assert main(["pipeline", str(small_scn), "--config", str(cfg_path),
                     "--out-dir", str(out), "--samples", "3"]) == EXIT_OK
        index = json.loads((out / "candidates.json").read_text())
        assert len(index["gammas"]) == 3


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


class TestSimulateDefaults:
    def test_no_flags_means_disturbance_config_defaults(self, tmp_path):
        scenario = load_scenario(TANKS_SCN).scenario
        traj_csv = tmp_path / "traj.csv"
        refine(scenario, [("goto", "w_gap"), ("goto", "w_sm_r"),
                          ("inspect", "sm_tank"), ("goto", "final")]).export_csv(traj_csv)
        log = tmp_path / "episodes.jsonl"
        assert main(["simulate", str(TANKS_SCN), str(traj_csv), "--seed", "4",
                     "--episodes", "3", "--out", str(log)]) == EXIT_OK
        want = run_batch(read_trajectory_csv(traj_csv, plan_id="P1"), scenario,
                         DisturbanceConfig(), n=3, master_seed=4, plan_id="P1")
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
