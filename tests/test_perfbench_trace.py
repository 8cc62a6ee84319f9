"""The benchmark's tracer runs its record functions on what the package
returns, such as `len(scan.beams)` of each synthesized scan or the state
and transition counts of a grounded model; a renamed field, or a count
whose meaning changed, would otherwise show only in traced runs."""

import importlib.util

from conftest import REPO_ROOT, TANKS_SCN
from riskplan import pipeline, reporting
from riskplan.scenario import load_scenario


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO_ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_sonar_map_spans_count_every_beam():
    spans = _spans()
    tracer = spans.Tracer()
    scenario = load_scenario(TANKS_SCN).scenario
    with tracer.installed(spans.layer_patches(tracer)):
        pipeline.map_from_sonar(scenario, 7, 0.05)
    names = [s.name for s in tracer.spans]
    # 6 obstacles, 8 orbit sensors each, 64 beams a sensor, in one scan
    assert names == ["occupancy.map", "occupancy.synthesize", "occupancy.integrate"]
    (synthesize,) = [s for s in tracer.spans if s.name == "occupancy.synthesize"]
    assert synthesize.attrs == {"beams": 3072}
    assert all(s.parent == 0 for s in tracer.spans[1:])


def test_corridor_ground_span_counts_states_and_transitions():
    # the smallest benchmark corridor: 65 waypoints and 64 detours, each with
    # one state, plus the collision state; 512 transitions
    spans = _spans()
    tracer = spans.Tracer()
    with tracer.installed(spans.layer_patches(tracer)):
        reporting.run_scaling([64], [64], master_seed=0)
    (ground,) = [s for s in tracer.spans if s.name == "scenario.ground"]
    assert ground.attrs == {"states": 130, "transitions": 512}
