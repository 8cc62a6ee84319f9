"""The benchmark's tracer runs its record functions on what the package
returns, such as `len(scan.beams)` of each synthesized scan; a renamed
field would otherwise show only as failed traced ops."""

import importlib.util

from conftest import REPO_ROOT, TANKS_SCN
from riskplan import pipeline
from riskplan.scenario import load_scenario


def test_sonar_map_spans_count_every_beam():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO_ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    scenario = load_scenario(TANKS_SCN).scenario
    with tracer.installed(spans.layer_patches(tracer)):
        pipeline.map_from_sonar(scenario, 7, 0.05)
    names = [s.name for s in tracer.spans]
    # 6 obstacles, 8 orbit scans each, 64 beams a scan
    assert names == ["occupancy.map", "occupancy.synthesize"] + ["occupancy.integrate"] * 48
    (synthesize,) = [s for s in tracer.spans if s.name == "occupancy.synthesize"]
    assert synthesize.attrs == {"beams": 3072}
    assert all(s.parent == 0 for s in tracer.spans[1:])
