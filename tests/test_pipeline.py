"""`evaluate` computes a run from a `Scenario` with no file I/O, and
`run_pipeline` is parse, `evaluate` and `write_run`."""

import builtins
import io

import pytest

from conftest import TANKS_SCN
from riskplan import kernel
from riskplan.pipeline import PipelineConfig, evaluate, run_pipeline
from riskplan.reporting import corridor_scenario
from riskplan.scenario import format_scenario, load_scenario

CASES = {
    "tanks": (lambda: load_scenario(TANKS_SCN).scenario, {}),
    "tanks-sonar": (lambda: load_scenario(TANKS_SCN).scenario, {"from_sonar": True}),
    "corridor": (lambda: corridor_scenario(30, 10), {}),
}


def _refuse_files(*args, **kwargs):
    raise AssertionError(f"evaluate opened a file: {args!r}")


@pytest.mark.parametrize("case", CASES)
def test_evaluate_opens_no_file_and_matches_run_pipeline(case, tmp_path, monkeypatch):
    make, settings = CASES[case]
    scenario = make()
    scn = tmp_path / "in.scn"
    scn.write_text(format_scenario(scenario), encoding="utf-8")
    cfg = PipelineConfig(str(scn), str(tmp_path / "out"), master_seed=7, **settings)
    kernel.load()  # builds or opens the compiled kernel: the one file a run needs
    with monkeypatch.context() as m:
        m.setattr(builtins, "open", _refuse_files)
        m.setattr(io, "open", _refuse_files)
        got = evaluate(scenario, cfg)

    want = run_pipeline(cfg)
    assert got.report == want.report
    assert ([(c.plan.id, c.plan.linearization, c.gammas) for c in got.candidates]
            == [(c.plan.id, c.plan.linearization, c.gammas) for c in want.candidates])
    assert got.episode_records == want.episode_records
    assert got.summary_rows == want.summary_rows and got.selected == want.selected
    if settings:
        assert got.grid.log_odds.tobytes() == want.grid.log_odds.tobytes()
    else:
        assert got.grid is None and want.grid is None
