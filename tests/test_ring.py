"""A second mission end to end: ring.scn inspects two tanks on a cycle of
waypoints, with a safe loop back through the start and a risky shortcut
between the two inspection points."""

import pytest

from conftest import REPO_ROOT, edge_risk
from riskplan.pipeline import PipelineConfig, run_pipeline
from riskplan.scenario import load_scenario

RING_SCN = REPO_ROOT / "scenarios" / "ring.scn"


def survival(scenario, actions):
    """The model's chance that the plan's gotos all pass: the product of
    ``1 - risk`` over the edges they take, from the start."""
    here, p = scenario.start, 1.0
    for label in actions:
        verb, _, name = label.partition(" ")
        if verb == "goto":
            p *= 1.0 - edge_risk(scenario, here, name)
            here = name
    return p


@pytest.mark.parametrize("seed", [7, 11, 123])
def test_ring_risk_ordering(tmp_path, seed):
    """The sweep finds at least two plans; each inspects both tanks once;
    and the plan of the lowest gamma is at least as likely to pass its
    edges as the plan of the highest."""
    cfg = PipelineConfig(scenario_path=str(RING_SCN), out_dir=str(tmp_path), master_seed=seed)
    result = run_pipeline(cfg)
    assert len(result.candidates) >= 2

    scenario = load_scenario(RING_SCN).scenario
    for cand in result.candidates:
        inspected = sorted(a.split()[1] for a in cand.plan.linearization
                           if a.startswith("inspect "))
        assert inspected == sorted(scenario.inspection_goals)

    averse = min(result.candidates, key=lambda c: min(c.gammas))
    neutral = max(result.candidates, key=lambda c: max(c.gammas))
    assert averse is not neutral
    assert survival(scenario, averse.plan.linearization) >= \
        survival(scenario, neutral.plan.linearization)
