"""Seeded episode simulation: determinism, fidelity, incidents, logs, the
compiled kernel against two numpy references (a one-episode-at-a-time loop
and the lockstep batch it replaced), and how the kernel is built."""

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import TANKS_SCN
from riskplan.pipeline import PipelineConfig, map_from_sonar, plan_candidates
from riskplan.refiner import _norm, parse_plan_steps, refine
from riskplan.scenario import ground_to_mdp, load_scenario, parse_scenario
from riskplan import kernel
from riskplan.cli import EXIT_INTERNAL, main
from riskplan.kernel import KernelBuildError
from riskplan.simulator import (_NOISE_CHUNK, SIM_DT, TIMEOUT_FACTOR, DisturbanceConfig,
                                EpisodeRecord, Incident, _obstacle_centers,
                                episode_rng, run_batch, run_episode,
                                read_episode_log, write_episode_log)

OPEN_WATER = """
LIMITS vmax 1.0 vcrit 0.25 radius 2.0
WAYPOINT a pos 0 0 -5
WAYPOINT b pos 10 0 -5
EDGE a b risk 0
MISSION start a final b
"""

NEAR_MISS = """
LIMITS vmax 1.0 vcrit 0.25 radius 2.0
OBSTACLE rock center 5 1.2 -5 half 1 1 1
WAYPOINT a pos 0 0 -5
WAYPOINT b pos 10 0 -5
EDGE a b risk 0
MISSION start a final b
"""

# the path passes between the rocks, 0.2 m from each: both incidents fall
# in one tick
TWIN_ROCKS = NEAR_MISS.replace(
    "OBSTACLE rock center 5 1.2 -5 half 1 1 1",
    "OBSTACLE rock center 5 1.2 -5 half 1 1 1\n"
    "OBSTACLE reef center 5 -1.2 -5 half 1 1 1")


def trajectory(text):
    result = parse_scenario(text)
    assert result.ok, result.errors
    return result.scenario, refine(result.scenario, [("goto", "b")],
                                   plan_id="P1")


QUIET = DisturbanceConfig(current_sigma=0.0, obstacle_sigma=0.0,
                          perturb_target=None)


class TestDeterminism:
    def test_same_seed_same_record(self):
        scenario, traj = trajectory(OPEN_WATER)
        cfg = DisturbanceConfig(perturb_target=None)
        a = run_episode(traj, scenario, cfg, (7, "P1", 0))
        b = run_episode(traj, scenario, cfg, (7, "P1", 0))
        assert a == b

    def test_streams_are_independent_of_order(self):
        assert episode_rng(7, "P1", 3).integers(1 << 30) == \
            episode_rng(7, "P1", 3).integers(1 << 30)
        assert episode_rng(7, "P1", 3).integers(1 << 30) != \
            episode_rng(7, "P2", 3).integers(1 << 30)

    def test_batch_seed_tuples(self):
        scenario, traj = trajectory(OPEN_WATER)
        records = run_batch(traj, scenario, QUIET, n=4, master_seed=9)
        assert [r.seed for r in records] == [(9, "P1", i) for i in range(4)]

    def test_episodes_differ_under_noise(self):
        scenario, traj = trajectory(OPEN_WATER)
        records = run_batch(traj, scenario, DisturbanceConfig(), n=5,
                            master_seed=1)
        times = {r.execution_time_s for r in records}
        assert len(times) > 1


class TestFidelity:
    def test_quiet_episode_tracks_nominal_time(self):
        scenario, traj = trajectory(OPEN_WATER)
        rec = run_episode(traj, scenario, QUIET, (0, "P1", 0))
        assert rec.completed
        assert rec.incidents == []
        # capture radius lets the follower cut corners slightly, so the
        # executed time can only undershoot a little
        assert rec.execution_time_s == pytest.approx(traj.nominal_duration,
                                                     abs=1.0)

    def test_clear_water_has_no_incidents_even_with_noise(self):
        scenario, traj = trajectory(OPEN_WATER)
        records = run_batch(traj, scenario, DisturbanceConfig(), n=10,
                            master_seed=3)
        assert all(r.incidents == [] for r in records)


class TestIncidents:
    def test_near_obstacle_logs_incident_and_penalty(self):
        scenario, traj = trajectory(NEAR_MISS)
        # nominal gap to the rock is 0.2 m, below the 0.5 m clearance
        rec = run_episode(traj, scenario, QUIET, (0, "P1", 0))
        assert len(rec.incidents) == 1
        assert rec.incidents[0].obstacle == "rock"
        assert rec.incidents[0].min_distance < 0.5
        assert rec.execution_time_s > traj.nominal_duration + 19.0

    def test_contact_is_debounced(self):
        scenario, traj = trajectory(NEAR_MISS)
        rec = run_episode(traj, scenario, QUIET, (0, "P1", 0))
        # staying inside the clearance band is one incident, not one per tick
        assert len(rec.incidents) == 1

    def test_abort_on_collision(self):
        scenario, traj = trajectory(NEAR_MISS)
        cfg = DisturbanceConfig(current_sigma=0.0, obstacle_sigma=0.0,
                                perturb_target=None, abort_on_collision=True)
        rec = run_episode(traj, scenario, cfg, (0, "P1", 0))
        assert not rec.completed
        assert len(rec.incidents) == 1

    def test_perturbation_changes_incident_rate(self):
        scenario, traj = trajectory(NEAR_MISS)
        shaky = DisturbanceConfig(current_sigma=0.0, obstacle_sigma=1.0,
                                  perturb_target="rock")
        records = run_batch(traj, scenario, shaky, n=20, master_seed=2)
        hits = sum(1 for r in records if r.incidents)
        # displacing the rock by sigma = 1 m moves it clear of the path in
        # a nontrivial fraction of episodes
        assert 0 < hits < 20


class TestValidationAndLogs:
    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            DisturbanceConfig(current_sigma=-0.1)

    def test_empty_trajectory_rejected(self):
        scenario, traj = trajectory(OPEN_WATER)
        traj.samples = []
        with pytest.raises(ValueError):
            run_episode(traj, scenario, QUIET, (0, "P1", 0))

    def test_episode_log_round_trip(self, tmp_path):
        scenario, traj = trajectory(NEAR_MISS)
        records = run_batch(traj, scenario, QUIET, n=3, master_seed=5)
        path = tmp_path / "episodes.jsonl"
        write_episode_log(records, path)
        assert read_episode_log(path) == records


def reference_episode(trajectory, scenario, cfg, seed, dt=SIM_DT):
    """One episode stepped on its own, with numpy calls on single 3-vectors:
    the loop the lockstep batch replaced, kept as the oracle for it."""
    master, plan_id, episode_index = seed
    rng = episode_rng(master, plan_id, episode_index)
    obstacles = []
    for o in scenario.obstacles:
        center = np.asarray(o.center, dtype=float)
        movable = cfg.perturb_all or o.label == cfg.perturb_target
        if movable and cfg.obstacle_sigma > 0:
            center = center + rng.normal(0.0, cfg.obstacle_sigma, size=3)
        obstacles.append((o.label, center, np.asarray(o.half_extents, dtype=float)))

    samples = trajectory.samples
    pos = np.asarray(samples[0].position, dtype=float)
    k = 1
    sim_time = 0.0
    incidents = []
    in_contact = set()
    timeout = max(TIMEOUT_FACTOR * trajectory.nominal_duration, 10.0)

    while k < len(samples):
        budget = dt
        leftover = 0.0
        while budget > 0.0 and k < len(samples):
            target = np.asarray(samples[k].position, dtype=float)
            speed = max(samples[k].speed, 1e-6)
            gap = target - pos
            dist = float(np.linalg.norm(gap))
            reach = max(dist - cfg.capture_radius, 0.0)
            if reach > speed * budget:
                pos = pos + gap / dist * speed * budget
                budget = 0.0
            else:
                if dist > 0.0:
                    pos = pos + gap / dist * reach
                budget -= reach / speed
                k += 1
                if k == len(samples):
                    leftover = budget
        if cfg.current_sigma > 0:
            pos = pos + rng.normal(0.0, cfg.current_sigma, size=3) * dt
        sim_time += dt - leftover

        touching = set()
        for label, center, half in obstacles:
            gap = np.maximum(np.abs(pos - center) - half, 0.0)
            d = float(np.linalg.norm(gap))
            if d < cfg.clearance:
                touching.add(label)
                if label not in in_contact:
                    incidents.append(Incident(round(sim_time, 6), label, round(d, 6)))
                    sim_time += cfg.recovery_penalty_s
                    if cfg.abort_on_collision:
                        return EpisodeRecord(plan_id, episode_index, round(sim_time, 6),
                                             incidents, False, seed)
        in_contact = touching

        if sim_time > timeout:
            return EpisodeRecord(plan_id, episode_index, round(sim_time, 6),
                                 incidents, False, seed)

    return EpisodeRecord(plan_id, episode_index, round(sim_time, 6),
                         incidents, True, seed)


def lockstep_batch(trajectory, scenario, cfg, seeds):
    """All episodes stepped together as (n, 3) numpy arrays: the batch the
    compiled kernel replaced, kept as its oracle.  Per episode the
    arithmetic, and the order of its random draws, is that of
    `reference_episode`."""
    samples = trajectory.samples
    last = len(samples)
    if last == 1:  # already at the only sample
        return [EpisodeRecord(seed[1], seed[2], 0.0, [], True, seed) for seed in seeds]
    points = np.array([s.position for s in samples], dtype=float)
    speeds = np.maximum(np.array([s.speed for s in samples], dtype=float), 1e-6)
    labels = [o.label for o in scenario.obstacles]
    half = np.array([o.half_extents for o in scenario.obstacles],
                    dtype=float).reshape(-1, 3)
    timeout = max(TIMEOUT_FACTOR * trajectory.nominal_duration, 10.0)

    n = len(seeds)
    rngs = [episode_rng(*seed) for seed in seeds]
    incidents = [[] for _ in range(n)]
    records = [None] * n

    # one row per running episode; ids[row] is its index into seeds
    ids = np.arange(n)
    centers = np.array([_obstacle_centers(scenario, cfg, rng) for rng in rngs]
                       ).reshape(n, len(labels), 3)
    pos = np.tile(points[0], (n, 1))
    k = np.ones(n, dtype=np.intp)
    sim_time = np.zeros(n)
    in_contact = np.zeros((n, len(labels)), dtype=bool)
    noise = np.empty((n, _NOISE_CHUNK, 3))

    tick = 0
    while ids.size:
        # move for one tick, consuming samples as the capture radius allows
        budget = np.full(ids.size, SIM_DT)
        moving = np.arange(ids.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            while moving.size:
                kk = k[moving]
                p = pos[moving]
                room = budget[moving]
                speed = speeds[kk]
                gap = points[kk] - p
                dist = _norm(gap)
                reach = np.maximum(dist - cfg.capture_radius, 0.0)
                far = reach > speed * room
                unit = gap / dist[:, None]  # not used where dist == 0
                pos[moving] = np.where(
                    far[:, None], p + unit * speed[:, None] * room[:, None],
                    np.where((dist > 0.0)[:, None], p + unit * reach[:, None], p))
                room = np.where(far, 0.0, room - reach / speed)
                kk = kk + ~far
                budget[moving] = room
                k[moving] = kk
                moving = moving[(room > 0.0) & (kk < last)]
        leftover = np.where(k == last, budget, 0.0)
        if cfg.current_sigma > 0:
            if tick % _NOISE_CHUNK == 0:
                for row, i in enumerate(ids):
                    noise[row] = rngs[i].normal(0.0, cfg.current_sigma,
                                                size=(_NOISE_CHUNK, 3))
            pos = pos + noise[:, tick % _NOISE_CHUNK] * SIM_DT
        sim_time += SIM_DT - leftover
        tick += 1

        gap = np.maximum(np.abs(pos[:, None, :] - centers) - half, 0.0)
        dist = _norm(gap)
        touching = dist < cfg.clearance
        fresh = touching & ~in_contact
        aborted = np.zeros(ids.size, dtype=bool)
        for row in np.flatnonzero(fresh.any(axis=1)):
            for j in np.flatnonzero(fresh[row]):
                incidents[ids[row]].append(Incident(
                    round(float(sim_time[row]), 6), labels[j],
                    round(float(dist[row, j]), 6)))
                sim_time[row] += cfg.recovery_penalty_s
                if cfg.abort_on_collision:
                    aborted[row] = True
                    break
        in_contact = touching

        failed = aborted | (sim_time > timeout)
        done = failed | (k == last)
        if done.any():
            for row in np.flatnonzero(done):
                i = ids[row]
                _, plan_id, episode_index = seeds[i]
                records[i] = EpisodeRecord(plan_id, episode_index,
                                           round(float(sim_time[row]), 6),
                                           incidents[i], not failed[row], seeds[i])
            keep = ~done
            ids, centers, pos, k, sim_time, in_contact, noise = (
                a[keep] for a in (ids, centers, pos, k, sim_time, in_contact, noise))
    return records


CONFIGS = {
    "default": DisturbanceConfig(),
    "shaken": DisturbanceConfig(perturb_all=True, obstacle_sigma=1.0,
                                current_sigma=0.2),
    "abort": DisturbanceConfig(abort_on_collision=True),
    "no_drift": DisturbanceConfig(current_sigma=0.0),
    "quiet": QUIET,
}


@pytest.fixture(scope="module")
def tanks():
    """tanks.scn and the trajectories of its seed-7 candidates."""
    scenario = load_scenario(TANKS_SCN).scenario
    cfg = PipelineConfig(scenario_path=str(TANKS_SCN), out_dir="", master_seed=7)
    cands = plan_candidates(ground_to_mdp(scenario), cfg)
    return scenario, [refine(scenario, parse_plan_steps(c.plan.linearization),
                             plan_id=c.plan.id) for c in cands]


def assert_matches_reference(traj, scenario, cfg, n, master_seed=7):
    seeds = [(master_seed, traj.plan_id, i) for i in range(n)]
    want = [reference_episode(traj, scenario, cfg, seed) for seed in seeds]
    assert lockstep_batch(traj, scenario, cfg, seeds) == want
    assert run_batch(traj, scenario, cfg, n=n, master_seed=master_seed) == want
    return want


class TestLockstepMatchesReference:
    def test_distances_equal_linalg_norm_bitwise(self):
        rng = np.random.default_rng(0)
        gaps = rng.normal(size=(20000, 3)) * rng.uniform(1e-3, 1e2, size=(20000, 1))
        assert np.array_equal(_norm(gaps), [np.linalg.norm(g) for g in gaps])

    @pytest.mark.parametrize("which", [0, 1])
    def test_tanks_candidates(self, tanks, which):
        scenario, trajs = tanks
        want = assert_matches_reference(trajs[which], scenario, CONFIGS["default"], 10)
        for n in (1, 2):
            assert run_batch(trajs[which], scenario, CONFIGS["default"], n=n,
                             master_seed=7) == want[:n]

    @pytest.mark.parametrize("name", ["shaken", "abort", "no_drift"])
    def test_tanks_disturbances(self, tanks, name):
        scenario, trajs = tanks
        assert_matches_reference(trajs[0], scenario, CONFIGS[name], 3)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("text", [NEAR_MISS, TWIN_ROCKS], ids=["near_miss", "twin_rocks"])
    def test_close_passes(self, text, name):
        scenario, traj = trajectory(text)
        records = assert_matches_reference(traj, scenario, CONFIGS[name], 10)
        assert any(r.incidents for r in records)

    def test_second_incident_in_a_tick_follows_the_first_penalty(self):
        scenario, traj = trajectory(TWIN_ROCKS)
        rec = run_episode(traj, scenario, QUIET, (0, "P1", 0))
        first, second = rec.incidents
        assert (first.obstacle, second.obstacle) == ("rock", "reef")
        assert second.time == pytest.approx(first.time + QUIET.recovery_penalty_s)

    def test_forced_timeout(self, tanks):
        scenario, trajs = tanks
        short = dataclasses.replace(trajs[1], nominal_duration=0.5)
        records = assert_matches_reference(short, scenario, CONFIGS["default"], 10)
        assert not any(r.completed for r in records)

    def test_single_sample_trajectory(self):
        scenario, traj = trajectory(NEAR_MISS)
        one = dataclasses.replace(traj, samples=traj.samples[:1])
        assert_matches_reference(one, scenario, CONFIGS["default"], 2)


class TestIncompleteEpisodes:
    def test_timeout_time_is_rounded(self, tanks):
        scenario, trajs = tanks
        short = dataclasses.replace(trajs[0], nominal_duration=0.0)
        rec = run_episode(short, scenario, QUIET, (0, "P1", 0))
        assert rec.completed is False
        assert rec.execution_time_s > 10.0
        assert rec.execution_time_s == round(rec.execution_time_s, 6)


class TestKernelMatchesLockstep:
    @pytest.mark.parametrize("name", ["default", "shaken", "abort", "no_drift"])
    @pytest.mark.parametrize("master_seed", [7, 11])
    def test_tanks_batches(self, tanks, master_seed, name):
        scenario, trajs = tanks
        for traj in trajs:
            seeds = [(master_seed, traj.plan_id, i) for i in range(100)]
            assert run_batch(traj, scenario, CONFIGS[name], n=100,
                             master_seed=master_seed) == \
                lockstep_batch(traj, scenario, CONFIGS[name], seeds)

    def test_kernel_norm_equals_norm_bitwise(self):
        """The one rounding the kernel cannot take from numpy: its
        distances must round as `_norm`'s BLAS dot product does."""
        rng = np.random.default_rng(11)
        n = 200_000
        scale = 10.0 ** rng.uniform(-3, 3, size=(n, 1))
        vectors = [rng.normal(size=(n, 3)) * scale,
                   rng.uniform(1e-3, 1e3, size=(n, 3)) * rng.choice([-1.0, 1.0], (n, 3)),
                   np.zeros((3, 3))]
        for axis in range(3):  # axis-aligned: two exact zeros
            axial = np.zeros((1000, 3))
            axial[:, axis] = 10.0 ** rng.uniform(-3, 3, size=1000)
            vectors.append(axial)
        v = np.concatenate(vectors)
        got = np.empty(len(v))
        kernel.load().norm3_batch(len(v), v, got)
        differ = got.view(np.uint64) != _norm(v).view(np.uint64)
        assert not differ.any(), f"{differ.sum()} norms differ, e.g. of {v[differ][:3]}"


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """Kernel loading from an empty cache; the real library is loaded again
    afterwards."""
    monkeypatch.setattr(kernel, "_CACHE_DIR", tmp_path / "cache")
    kernel.load.cache_clear()
    yield tmp_path / "cache"
    kernel.load.cache_clear()


class TestKernelBuild:
    def test_library_name_carries_source_digest(self):
        digest = kernel._digest(kernel._SOURCE.read_bytes())
        assert Path(kernel.load()._name) == \
            kernel._CACHE_DIR / f"_simkernel-{digest}.so"

    def test_edited_source_is_rebuilt(self, fresh_kernel, monkeypatch, tmp_path):
        source = tmp_path / "_simkernel.c"
        source.write_bytes(kernel._SOURCE.read_bytes() + b"/* edited */\n")
        monkeypatch.setattr(kernel, "_SOURCE", source)
        built = Path(kernel.load()._name)
        assert built == fresh_kernel / f"_simkernel-{kernel._digest(source.read_bytes())}.so"
        assert list(fresh_kernel.iterdir()) == [built]

    @pytest.mark.parametrize("compiler", [None, shutil.which("false")],
                             ids=["no_compiler", "compile_fails"])
    def test_build_failure_is_loud(self, fresh_kernel, monkeypatch, tmp_path,
                                   capsys, compiler):
        monkeypatch.setattr(kernel, "_compiler", lambda: compiler)
        scenario, traj = trajectory(OPEN_WATER)
        with pytest.raises(KernelBuildError) as err:
            run_batch(traj, scenario, QUIET, n=1)
        message = str(err.value)
        assert "_simkernel.c" in message
        assert (compiler or "cc") in message

        scn = tmp_path / "open.scn"
        scn.write_text(OPEN_WATER)
        csv = tmp_path / "trajectory.csv"
        traj.export_csv(csv)
        assert main(["simulate", str(scn), str(csv), "--seed", "1",
                     "--out", str(tmp_path / "episodes.jsonl")]) == EXIT_INTERNAL
        assert message in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "episodes.jsonl").exists()

        # mapping runs in the same kernel
        scn.write_text(NEAR_MISS)
        with pytest.raises(KernelBuildError) as err:
            map_from_sonar(parse_scenario(NEAR_MISS).scenario, 1, 0.05)
        assert str(err.value) == message
        assert main(["map", str(scn), "--seed", "1",
                     "--out", str(tmp_path / "grid.csv")]) == EXIT_INTERNAL
        assert message in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "grid.csv").exists()
