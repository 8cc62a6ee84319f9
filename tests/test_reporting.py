"""Corridor scaling study and box-plot rendering."""

from dataclasses import fields

import numpy as np
import pytest

from conftest import make_mdp
from oracles import corridor_text, same_scenario
from riskplan import reporting
from riskplan.mdp import Mdp
from riskplan.reporting import boxplot_svg, corridor_scenario, run_scaling
from riskplan.scenario import ground_to_mdp, parse_scenario


class TestCorridor:
    def test_shape(self):
        s = corridor_scenario(depth=5, criticals=3)
        assert len(s.ids) == 5 + 1 + 3
        assert s.critical.sum() == 3
        assert s.start == "w000" and s.final == "w005"

    def test_grounds_cleanly(self):
        m = ground_to_mdp(corridor_scenario(4, 2))  # raises InvalidModel if not
        assert len(m.states) == 4 + 1 + 2 + 1

    def test_risky_edges_only_at_criticals(self):
        s = corridor_scenario(5, 2, risk=0.05)
        assert (s.risks > 0).sum() == 2

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            corridor_scenario(0, 0)
        with pytest.raises(ValueError):
            corridor_scenario(3, 4)

    @pytest.mark.parametrize("depth, criticals", [(1, 0), (3, 3), (64, 64), (139, 139),
                                                  (274, 274)])
    def test_equals_its_per_waypoint_text(self, depth, criticals):
        built = corridor_scenario(depth, criticals)
        parsed = parse_scenario(corridor_text(depth, criticals)).scenario
        assert same_scenario(built, parsed)
        a, b = ground_to_mdp(built), ground_to_mdp(parsed)
        for f in fields(Mdp):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
            elif f.name != "addresses":  # where each model's arrays happen to sit
                assert x == y, f.name


class TestScaling:
    def test_small_suite_rows(self):
        rows = run_scaling([3, 4], [1, 2], master_seed=5)
        assert [r.solvable for r in rows] == [True, True]
        for r in rows:
            assert r.plan_length >= r.depth
            assert r.planning_time_s < 5.0
            assert r.error is None

    def test_deterministic_gammas(self):
        a = run_scaling([3], [1], master_seed=5)
        b = run_scaling([3], [1], master_seed=5)
        assert a[0].gamma == b[0].gamma
        assert a[0].plan_length == b[0].plan_length

    def test_input_validation(self):
        with pytest.raises(ValueError):
            run_scaling([3, 4], [1], master_seed=0)

    def test_every_row_failing_is_fatal(self):
        # the first row's own error, so its type decides the exit code
        with pytest.raises(ValueError, match="depth must be >= 1"):
            run_scaling([0, 0], [0, 0], master_seed=0)

    def test_bad_row_is_recorded_not_fatal(self):
        rows = run_scaling([3, 0], [1, 0], master_seed=0)
        assert rows[0].solvable
        assert not rows[1].solvable
        assert "depth" in rows[1].error

    def test_long_corridor_row_solves_at_low_gamma(self):
        # seed 0 samples gamma 0.407 for this row: a plan of 800 steps there
        # overflowed the linear-space solver, which failed every row
        row, = run_scaling([800], [0], master_seed=0)
        assert row.solvable and row.error is None
        assert row.gamma < 0.412
        assert row.plan_length == 800

    def test_backup_counts_grow_with_the_corridor(self):
        # acceptance 7's corridors, then the benchmark's: worklist pops per
        # solve are exact, so their medians order the rows as wall times of
        # microseconds cannot
        rows = run_scaling([3, 4, 5, 6, 30, 90, 64, 139, 274],
                           [3, 4, 5, 6, 10, 35, 64, 139, 274], master_seed=11)
        medians = [r.median_backups for r in rows]
        assert medians == [18, 25, 32, 39, 128, 408, 445, 970, 1915]
        assert all(a < b for a, b in zip(medians[:6], medians[1:6]))

    def test_invalid_model_is_a_failed_row(self, monkeypatch):
        def half_mass():
            return make_mdp([("s0", 1.0), ("goal", 0.0)],
                            [("s0", "go", "goal", 0.5)], "s0", {"goal"})
        real_ground = reporting.ground_to_mdp
        monkeypatch.setattr(
            reporting, "ground_to_mdp",
            lambda s: half_mass() if s.final == "w004" else real_ground(s))
        rows = run_scaling([3, 4], [1, 1], master_seed=5)
        assert rows[0].solvable
        assert not rows[1].solvable and rows[1].plan_length is None
        assert rows[1].error == ("InvalidModel: outgoing probabilities from "
                                 "('s0','go') sum to 0.5, not 1")


class TestBoxplot:
    SAMPLES = {"P1": [10.0, 11.0, 12.0, 13.0, 30.0],
               "P2": [20.0, 20.5, 21.0, 19.5]}

    def test_svg_structure(self):
        svg, rows = boxplot_svg(self.SAMPLES)
        assert svg.startswith("<svg")
        assert svg.count("<rect") == 2
        assert svg.count("<circle") == 1  # the 30.0 outlier
        assert ("P1", "sample", 0, "10.000000") in rows

    def test_deterministic(self):
        assert boxplot_svg(self.SAMPLES) == boxplot_svg(self.SAMPLES)

    def test_constant_samples_render(self):
        svg, _ = boxplot_svg({"P1": [5.0, 5.0, 5.0]})
        assert "<rect" in svg

    def test_single_sample_plan_warned(self):
        svg, rows = boxplot_svg({"P1": [1.0, 2.0], "P2": [3.0]})
        assert svg.count("<rect") == 1
        assert ("P2", "warning", "", "skipped: fewer than 2 episodes") in rows

    def test_all_plans_degenerate(self):
        with pytest.raises(ValueError, match="no plan has at least 2 episodes"):
            boxplot_svg({"P1": [1.0]})
