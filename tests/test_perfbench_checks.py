"""The benchmark's own output checks run on what `run_pipeline` and
`run_scaling` return, reading attributes such as `traj.samples[-1].position`.
A refactor that breaks them would otherwise show only as failed ops at the
benchmark gate."""

import importlib.util

import pytest

from conftest import REPO_ROOT


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO_ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("from_sonar", [False, True], ids=["plain", "sonar"])
def test_tanks_check_and_digest(workloads, tmp_path, from_sonar):
    work = workloads.TanksWorkload("tanks", REPO_ROOT, tmp_path, episodes=2,
                                   from_sonar=from_sonar, min_units=1)
    (seed,) = work.ops(7)[:1]
    result = work.run(seed)
    work.check(seed, result)
    digest = work.digest(seed, result)
    assert digest["selected"] == result.selected
    assert all(len(runs) == 2 for runs in digest["episodes"].values())


def test_corridor_check(workloads, tmp_path):
    work = workloads.CorridorWorkload(tmp_path)
    op = work.ops(7)[0]
    assert op[0] == min(workloads.CORRIDOR_SIZES)
    work.check(op, work.run(op))
