"""Seeded episode simulation: determinism, fidelity, incidents, logs, the
compiled kernel against two numpy references (a one-episode-at-a-time loop
and the lockstep batch it replaced), and how the kernel is built."""

import concurrent.futures
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, TANKS_SCN, norm, reference_refine
from riskplan.pipeline import PipelineConfig, map_from_sonar, plan_candidates
from riskplan.refiner import MAX_PATH_ROWS, Trajectory, refine
from riskplan.scenario import (PlanFile, ground_to_mdp, key_words, load_scenario,
                               named_rng, parse_scenario, write_plan_file)
from riskplan import kernel, simulator
from riskplan.cli import EXIT_INTERNAL, main
from riskplan.kernel import KernelBuildError
from riskplan.simulator import (SIM_DT, TIMEOUT_FACTOR, DisturbanceConfig,
                                EpisodeRecord, Incident, run_batch, run_episode,
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
    return result.scenario, refine(result.scenario, ["goto b"],
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

    def test_stream_keys(self):
        # a string name enters as the CRC-32 of its UTF-8 bytes, an integer as itself
        want = np.random.default_rng(np.random.SeedSequence([7, zlib.crc32(b"P1"), 3]))
        assert named_rng(7, "P1", 3).integers(1 << 30, size=4).tolist() == \
            want.integers(1 << 30, size=4).tolist()

    @pytest.mark.parametrize("master", [0, 2**32 - 1, 2**32, 2**70 + 3])
    @pytest.mark.parametrize("index", [0, 5, 2**32 + 5])
    def test_key_words_are_the_words_seed_sequence_reads(self, master, index):
        # SeedSequence's own reading of the list [master, key, index]
        want = np.random.SeedSequence([master, zlib.crc32("é".encode()), index])
        words = key_words(master, "é", index)
        assert words.dtype == np.uint32
        assert np.random.SeedSequence(words).generate_state(4).tolist() == \
            want.generate_state(4).tolist()

    def test_negative_key_refused(self):
        with pytest.raises(ValueError, match="stream key must be >= 0, got -1"):
            named_rng(7, "P1", -1)

    def test_streams_are_independent_of_order(self):
        assert named_rng(7, "P1", 3).integers(1 << 30) == \
            named_rng(7, "P1", 3).integers(1 << 30)
        assert named_rng(7, "P1", 3).integers(1 << 30) != \
            named_rng(7, "P2", 3).integers(1 << 30)

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["current_sigma", "obstacle_sigma", "capture_radius",
                                      "clearance", "recovery_penalty_s"])
    def test_non_finite_parameters_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            DisturbanceConfig(**{name: value})

    def test_empty_trajectory_rejected(self):
        scenario = parse_scenario(OPEN_WATER).scenario
        with pytest.raises(ValueError, match="nonempty"):
            run_episode(Trajectory(np.empty((0, 5)), "P1"), scenario, QUIET, (0, "P1", 0))

    @pytest.mark.parametrize("t_end", [1e9, math.inf, math.nan])
    def test_overlong_trajectory_refused_before_any_work(self, monkeypatch, t_end):
        # an episode runs up to TIMEOUT_FACTOR times its trajectory's
        # duration: at 1e9 s one ran past 15 s, and at NaN it never ends;
        # a trajectory ending at inf or NaN is refused when it is made
        monkeypatch.setattr(kernel, "load", lambda: pytest.fail("kernel called"))
        scenario = parse_scenario(OPEN_WATER).scenario
        rows = np.array([[0.0, 0, 0, -5, 0], [t_end, 1, 0, -5, 0]])
        with pytest.raises(ValueError, match=r"more than MAX_EPISODE_TICKS \(10000000\)"
                           if math.isfinite(t_end) else r"trajectory row 1 is not finite"):
            run_batch(Trajectory(rows, "P1"), scenario, QUIET, n=2)

    def test_longest_refined_trajectory_is_not_refused(self):
        # a 24.9 km leg at 0.25 m/s: 996,001 rows, near MAX_PATH_ROWS, and
        # 99,600 s long; its episode runs to its end
        scenario = parse_scenario(OPEN_WATER.replace("vmax 1.0", "vmax 0.25").replace(
            "pos 10 0 -5", "pos 24900 0 -5")).scenario
        traj = refine(scenario, ["goto b"], plan_id="P1")
        assert len(traj.rows) > 0.99 * MAX_PATH_ROWS
        (record,) = run_batch(traj, scenario, QUIET, n=1)
        assert record.completed

    def test_refine_at_a_larger_dt_refuses_what_the_simulator_would(self):
        # a 50 km leg at 0.25 m/s: at dt 1.0, 200,001 rows lasting 200,000 s,
        # whose episodes would run up to 2 * 10^7 ticks; refine refuses it
        scenario = parse_scenario(OPEN_WATER.replace("vmax 1.0", "vmax 0.25").replace(
            "pos 10 0 -5", "pos 50000 0 -5")).scenario
        with pytest.raises(ValueError, match=r"at dt 1\.0 the refined path lasts 200000\.0 s, "
                                             r"more than MAX_DURATION_S \(100000\.0 s\)"):
            refine(scenario, ["goto b"], dt=1.0)

    def test_non_finite_row_refused_before_its_episodes(self, tanks):
        # a NaN x once ran to a record with execution time NaN, completed,
        # which the episode log wrote and could not read back
        scenario, trajs = tanks
        rows = trajs[0].rows.copy()
        rows[1, 1] = math.nan
        with pytest.raises(ValueError, match=r"trajectory row 1 is not finite: \[.*nan"):
            run_batch(Trajectory(rows, "P1"), scenario, CONFIGS["default"], n=2)

    def test_zero_episodes_rejected(self):
        scenario, traj = trajectory(OPEN_WATER)
        with pytest.raises(ValueError, match="at least one episode"):
            run_batch(traj, scenario, QUIET, n=0)

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
    rng = named_rng(master, plan_id, episode_index)
    obstacles = []
    for label, center, half in zip(scenario.labels, scenario.centers, scenario.halves):
        movable = cfg.perturb_all or label == cfg.perturb_target
        if movable and cfg.obstacle_sigma > 0:
            center = center + rng.normal(0.0, cfg.obstacle_sigma, size=3)
        obstacles.append((label, center, half))

    points, speeds = trajectory.rows[:, 1:4], trajectory.rows[:, 4].tolist()
    pos = points[0]
    k = 1
    sim_time = 0.0
    incidents = []
    in_contact = set()
    timeout = max(TIMEOUT_FACTOR * trajectory.nominal_duration, 10.0)

    while k < len(points):
        budget = dt
        leftover = 0.0
        while budget > 0.0 and k < len(points):
            target = points[k]
            speed = max(speeds[k], 1e-6)
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
                if k == len(points):
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


# drift rows the lockstep batch draws ahead per episode; one draw of (C, 3)
# gives the values C draws of 3 would
_NOISE_CHUNK = 64


def obstacle_centers(scenario, cfg, rng):
    """(m, 3) obstacle centres of one episode, displaced in declaration
    order: the set-up the lockstep batch made in numpy."""
    centers = scenario.centers.copy()
    for j, label in enumerate(scenario.labels):
        if (cfg.perturb_all or label == cfg.perturb_target) and cfg.obstacle_sigma > 0:
            centers[j] = centers[j] + rng.normal(0.0, cfg.obstacle_sigma, size=3)
    return centers


def lockstep_batch(trajectory, scenario, cfg, seeds):
    """All episodes stepped together as (n, 3) numpy arrays: the batch the
    compiled kernel replaced, kept as its oracle.  Per episode the
    arithmetic, and the order of its random draws, is that of
    `reference_episode`."""
    last = len(trajectory.rows)
    if last == 1:  # already at the only sample
        return [EpisodeRecord(seed[1], seed[2], 0.0, [], True, seed) for seed in seeds]
    points = trajectory.rows[:, 1:4]
    speeds = np.maximum(trajectory.rows[:, 4], 1e-6)
    labels, half = scenario.labels, scenario.halves
    timeout = max(TIMEOUT_FACTOR * trajectory.nominal_duration, 10.0)

    n = len(seeds)
    rngs = [named_rng(*seed) for seed in seeds]
    incidents = [[] for _ in range(n)]
    records = [None] * n

    # one row per running episode; ids[row] is its index into seeds
    ids = np.arange(n)
    centers = np.array([obstacle_centers(scenario, cfg, rng) for rng in rngs]
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
                dist = norm(gap)
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
        dist = norm(gap)
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
    # drift this strong moves every rounded time and distance
    "strong_drift": DisturbanceConfig(current_sigma=1.0),
}


@pytest.fixture(scope="module")
def tanks():
    """tanks.scn and the trajectories of its seed-7 candidates."""
    scenario = load_scenario(TANKS_SCN).scenario
    cfg = PipelineConfig(scenario_path=str(TANKS_SCN), out_dir="", master_seed=7)
    cands = plan_candidates(ground_to_mdp(scenario), cfg)
    return scenario, [refine(scenario, c.plan.linearization,
                             plan_id=c.plan.id) for c in cands]


def timed_to(traj, duration):
    """The same path and speeds, its times spread evenly from 0 to
    ``duration``: only the nominal duration, and so the timeout, changes."""
    rows = traj.rows.copy()
    rows[:, 0] = np.linspace(0.0, duration, len(rows))
    return Trajectory(rows, traj.plan_id)


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
        assert np.array_equal(norm(gaps), [np.linalg.norm(g) for g in gaps])

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
        short = timed_to(trajs[1], 0.5)
        records = assert_matches_reference(short, scenario, CONFIGS["default"], 10)
        assert not any(r.completed for r in records)

    def test_single_sample_trajectory(self):
        scenario, traj = trajectory(NEAR_MISS)
        one = Trajectory(traj.rows[:1], traj.plan_id)
        assert_matches_reference(one, scenario, CONFIGS["default"], 2)


class TestKernelStreamsMatchNamedRng:
    """The kernel seeds each episode's stream and displaces its obstacles
    as `named_rng` and `reference_episode` do, for keys of any length."""

    @given(master=st.one_of(st.just(0), st.integers(1, 2**32 - 1),
                            st.integers(2**32, 2**200), st.just(2**4000)),
           plan_id=st.one_of(st.sampled_from(["P1", "é", "計画 2", "🐟"]),
                             st.text(min_size=1, max_size=6)),
           index=st.one_of(st.just(0), st.integers(1, 2**32 - 1),
                           st.integers(2**32, 2**64 - 1)),
           cfg=st.sampled_from([
               DisturbanceConfig(current_sigma=0.0, obstacle_sigma=1.0, perturb_all=True),
               DisturbanceConfig(current_sigma=0.0, obstacle_sigma=1.0, perturb_target="reef"),
               DisturbanceConfig(current_sigma=0.2, obstacle_sigma=0.5, perturb_all=True),
               DisturbanceConfig(current_sigma=0.2)]))
    @settings(max_examples=150, deadline=None)
    def test_episode_equals_reference(self, twin_rocks, master, plan_id, index, cfg):
        scenario, traj = twin_rocks
        seed = (master, plan_id, index)
        assert run_episode(traj, scenario, cfg, seed) == \
            reference_episode(traj, scenario, cfg, seed)


@pytest.fixture(scope="module")
def twin_rocks():
    return trajectory(TWIN_ROCKS)


def reference_write_episode_log(records, path):
    """The writer `write_episode_log` replaced, which copied each record into
    dicts and lists with `dataclasses.asdict` first; kept as its reference."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(dataclasses.asdict(r), sort_keys=True) + "\n")


class TestEpisodeLogBytes:
    @pytest.mark.parametrize("which", [0, 1])
    def test_tanks_log_equals_asdict_writer(self, tanks, tmp_path, which):
        scenario, trajs = tanks
        records = run_batch(trajs[which], scenario, CONFIGS["strong_drift"], n=100,
                            master_seed=7)
        assert any(r.incidents for r in records)  # nested Incident objects too
        write_episode_log(records, tmp_path / "got.jsonl")
        reference_write_episode_log(records, tmp_path / "want.jsonl")
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()


class TestIncompleteEpisodes:
    def test_timeout_time_is_rounded(self, tanks):
        scenario, trajs = tanks
        short = timed_to(trajs[0], 0.0)
        rec = run_episode(short, scenario, QUIET, (0, "P1", 0))
        assert rec.completed is False
        assert rec.execution_time_s > 10.0
        assert rec.execution_time_s == round(rec.execution_time_s, 6)


class TestKernelMatchesLockstep:
    @pytest.mark.parametrize("name", ["default", "shaken", "abort", "no_drift",
                                      "strong_drift"])
    @pytest.mark.parametrize("master_seed", [7, 11, 2**70 + 7])
    def test_tanks_batches(self, tanks, master_seed, name):
        scenario, trajs = tanks
        for traj in trajs:
            seeds = [(master_seed, traj.plan_id, i) for i in range(100)]
            assert run_batch(traj, scenario, CONFIGS[name], n=100,
                             master_seed=master_seed) == \
                lockstep_batch(traj, scenario, CONFIGS[name], seeds)

    def test_large_batch_makes_one_kernel_call_per_worker(self, tanks, counting_kernel, cpus):
        scenario, trajs = tanks
        seeds = [(5, trajs[1].plan_id, i) for i in range(400)]
        cpus(3)
        records = run_batch(trajs[1], scenario, CONFIGS["default"], n=400, master_seed=5)
        assert counting_kernel.calls == 3
        assert records == lockstep_batch(trajs[1], scenario, CONFIGS["default"], seeds)

    def test_full_event_buffer_returns_and_resumes(self, counting_kernel):
        """Each episode logs more incidents than one call's event buffers
        hold, so the kernel returns mid-episode and is called again."""
        scenario, traj = weave(passes=12)
        cfg = DisturbanceConfig(recovery_penalty_s=0.0)
        n = 3
        records = assert_matches_reference(traj, scenario, cfg, n)
        assert all(r.completed for r in records)
        # the buffers hold n * obstacles events
        assert min(len(r.incidents) for r in records) > n * len(scenario.labels)
        assert counting_kernel.calls > 1

    @pytest.mark.parametrize("center", ["1.5 0 -5", "0 -1.5 -5", "0 0 -3.5"],
                             ids=["x", "y", "z"])
    def test_clearance_boundary(self, center):
        """An axis gap of exactly the clearance is no incident; one ulp below
        it, with the other two gaps 0, is one, at the reference's distance."""
        scenario = parse_scenario(
            "LIMITS vmax 1.0 vcrit 0.25 radius 2.0\n"
            f"OBSTACLE rock center {center} half 1 1 1\n"
            "WAYPOINT a pos 0 0 -5\nWAYPOINT b pos 0 0 -5\n"
            "EDGE a b risk 0\nMISSION start a final b\n").scenario
        # the robot stays at (0, 0, -5), 0.5 m from the rock along one axis
        traj = Trajectory([[0.0, 0.0, 0.0, -5.0, 1.0]] * 2, plan_id="P1")
        gap = 0.5
        at = dataclasses.replace(QUIET, clearance=gap)
        assert run_episode(traj, scenario, at, (0, "P1", 0)).incidents == []
        above = dataclasses.replace(QUIET, clearance=np.nextafter(gap, 1.0))
        (record,) = assert_matches_reference(traj, scenario, above, 1)
        assert [(i.obstacle, i.min_distance) for i in record.incidents] == [("rock", gap)]

    def test_clearance_one_ulp_above_a_three_axis_distance(self):
        """Gaps on all three axes, with the clearance one ulp above their
        reference distance: a distance rounded otherwise is no incident."""
        scenario = parse_scenario(
            "LIMITS vmax 1.0 vcrit 0.25 radius 2.0\n"
            "OBSTACLE rock center 1.2 1.2 -3.7 half 1 1 1\n"
            "WAYPOINT a pos 0 0 -5\nWAYPOINT b pos 0 0 -5\n"
            "EDGE a b risk 0\nMISSION start a final b\n").scenario
        traj = Trajectory([[0.0, 0.0, 0.0, -5.0, 1.0]] * 2, plan_id="P1")
        gaps = np.abs(np.array([0.0, 0.0, -5.0]) - [1.2, 1.2, -3.7]) - 1.0
        dist = float(norm(gaps))
        # summed without fused multiply-adds, the squares round one ulp higher
        x, y, z = gaps.tolist()
        assert math.sqrt(x * x + y * y + z * z) == np.nextafter(dist, 1.0)
        above = dataclasses.replace(QUIET, clearance=np.nextafter(dist, 1.0))
        (record,) = assert_matches_reference(traj, scenario, above, 1)
        assert [(i.obstacle, i.min_distance) for i in record.incidents] == [
            ("rock", round(dist, 6))]


def weave(passes):
    """A trajectory that crosses in and out of one rock's clearance
    `passes` times: its samples lie 0.2 m inside the face and 2 m out."""
    scenario = parse_scenario(NEAR_MISS.replace("center 5 1.2 -5", "center 5 0 -5")).scenario
    rows, t = [[0.0, 5.0, 3.0, -5.0, 1.0]], 0.0
    for _ in range(passes):
        for y in (0.8, 3.0):
            t += 2.2
            rows.append([t, 5.0, y, -5.0, 1.0])
    return scenario, Trajectory(rows, plan_id="P1")


class CountingKernel:
    """The kernel, counting `simulate_ticks` calls from every worker; the
    other entry points are the kernel's own."""

    def __init__(self, lib):
        self.lib, self.calls, self.lock = lib, 0, threading.Lock()

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def simulate_ticks(self, *args):
        with self.lock:
            self.calls += 1
        return self.lib.simulate_ticks(*args)


@pytest.fixture
def counting_kernel(monkeypatch):
    counting = CountingKernel(kernel.load())
    monkeypatch.setattr(kernel, "load", lambda: counting)
    return counting


@pytest.fixture
def cpus(monkeypatch):
    """Sets the number of CPUs this process may run on, as the batch sees it."""
    def force(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    return force


class TestWorkers:
    """A batch split across threads gives the records of one run in seed order."""

    @pytest.mark.parametrize("name", ["strong_drift", "abort"])
    def test_records_do_not_depend_on_the_worker_count(self, tanks, cpus, counting_kernel,
                                                       name):
        scenario, trajs = tanks
        n = 211  # a prime: no worker count splits it evenly
        cpus(1)
        want = run_batch(trajs[1], scenario, CONFIGS[name], n=n, master_seed=7)
        assert any(r.incidents for r in want)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads trade the interpreter often
        try:
            for workers in (2, 3, 4, 7):  # 7 is more threads than the CPUs here
                cpus(workers)
                counting_kernel.calls = 0
                assert run_batch(trajs[1], scenario, CONFIGS[name], n=n, master_seed=7) == want
                assert counting_kernel.calls >= workers
        finally:
            sys.setswitchinterval(interval)

    def test_floor_of_episodes_per_worker(self, tanks, cpus, counting_kernel):
        scenario, trajs = tanks
        cpus(8)
        floor = simulator.MIN_WORKER_EPISODES
        for n, calls in ((2 * floor - 1, 1), (2 * floor, 2), (8 * floor + 7, 8)):
            counting_kernel.calls = 0
            run_batch(trajs[0], scenario, CONFIGS["default"], n=n, master_seed=7)
            assert counting_kernel.calls == calls

    def test_error_in_a_later_chunk_reaches_the_caller(self, tanks, cpus, counting_kernel):
        scenario, trajs = tanks
        cpus(4)

        seed_episodes = counting_kernel.lib.seed_episodes

        def failing_seed(n, words, prefix, index, *rest):
            if 90 in index:  # the last of the four chunks, run by a pool thread
                raise ValueError("no stream for episode 90")
            return seed_episodes(n, words, prefix, index, *rest)

        counting_kernel.seed_episodes = failing_seed
        with pytest.raises(ValueError, match="no stream for episode 90"):
            run_batch(trajs[0], scenario, CONFIGS["default"], n=100, master_seed=7)

    def test_build_error_starts_no_worker(self, fresh_kernel, cpus, monkeypatch):
        scenario = parse_scenario(OPEN_WATER).scenario
        traj = reference_refine(scenario, ["goto b"], plan_id="P1")
        monkeypatch.setattr(kernel, "_compiler", lambda: None)
        started = []
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            lambda *a: started.append(a))
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread))
        cpus(2)
        with pytest.raises(KernelBuildError, match="no C compiler"):
            run_batch(traj, scenario, QUIET, n=100)
        assert started == []


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
        digest = kernel._digest(kernel._SOURCE.read_bytes(), kernel._ARCHIVE.read_bytes())
        assert Path(kernel.load()._name) == \
            kernel._CACHE_DIR / f"_simkernel-{digest}.so"

    def test_cached_build_is_loaded_not_compiled(self, fresh_kernel, monkeypatch):
        built = kernel._build(kernel._SOURCE, fresh_kernel)
        monkeypatch.setattr(kernel, "_compiler", lambda: None)  # a compile would fail
        assert kernel._build(kernel._SOURCE, fresh_kernel) == built

    def test_unwritable_cache_is_a_build_error(self, fresh_kernel):
        fresh_kernel.write_text("")  # a file where the cache directory goes
        with pytest.raises(KernelBuildError, match="could not build .*_simkernel.c"):
            kernel.load()

    def test_edited_source_is_rebuilt(self, fresh_kernel, monkeypatch, tmp_path):
        source = tmp_path / "_simkernel.c"
        source.write_bytes(kernel._SOURCE.read_bytes() + b"/* edited */\n")
        monkeypatch.setattr(kernel, "_SOURCE", source)
        built = Path(kernel.load()._name)
        digest = kernel._digest(source.read_bytes(), kernel._ARCHIVE.read_bytes())
        assert built == fresh_kernel / f"_simkernel-{digest}.so"
        assert list(fresh_kernel.iterdir()) == [built]

    def test_changed_numpy_library_is_rebuilt(self, fresh_kernel, monkeypatch, tmp_path):
        # another archive stamp: the same code in different bytes
        archive = bytearray(kernel._ARCHIVE.read_bytes())
        stamp = slice(24, 36)  # the first member header's mtime field
        assert archive[:8] == b"!<arch>\n"
        archive[stamp] = b"%-12d" % (int(archive[stamp]) + 1)
        changed = tmp_path / "libnpyrandom.a"
        changed.write_bytes(archive)
        source = kernel._SOURCE.read_bytes()
        assert kernel._digest(source, bytes(archive)) != \
            kernel._digest(source, kernel._ARCHIVE.read_bytes())
        monkeypatch.setattr(kernel, "_ARCHIVE", changed)
        built = Path(kernel.load()._name)
        assert built == fresh_kernel / f"_simkernel-{kernel._digest(source, bytes(archive))}.so"
        scenario, traj = trajectory(NEAR_MISS)
        assert run_batch(traj, scenario, CONFIGS["default"], n=3) == \
            [reference_episode(traj, scenario, CONFIGS["default"], (0, "P1", i))
             for i in range(3)]

    @pytest.mark.parametrize("missing", ["archive", "header"])
    def test_missing_numpy_library_is_loud(self, fresh_kernel, monkeypatch, tmp_path,
                                           capsys, missing):
        scenario = parse_scenario(OPEN_WATER).scenario
        traj = reference_refine(scenario, ["goto b"], plan_id="P1")
        if missing == "archive":
            monkeypatch.setattr(kernel, "_ARCHIVE", tmp_path / "libnpyrandom.a")
            path = tmp_path / "libnpyrandom.a"
        else:
            monkeypatch.setattr(kernel, "_NUMPY_INCLUDE", tmp_path / "include")
            path = tmp_path / "include" / "numpy" / "random" / "bitgen.h"
        with pytest.raises(KernelBuildError) as err:
            run_batch(traj, scenario, QUIET, n=1)
        message = str(err.value)
        assert str(path) in message

        scn, csv = tmp_path / "open.scn", tmp_path / "trajectory.csv"
        scn.write_text(OPEN_WATER)
        traj.export_csv(csv)
        assert main(["simulate", str(scn), str(csv), "--seed", "1",
                     "--out", str(tmp_path / "episodes.jsonl")]) == EXIT_INTERNAL
        assert message in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "episodes.jsonl").exists()

    @pytest.mark.parametrize("compiler", [None, shutil.which("false")],
                             ids=["no_compiler", "compile_fails"])
    def test_build_failure_is_loud(self, fresh_kernel, monkeypatch, tmp_path,
                                   capsys, compiler):
        # the Python reference refines without the kernel
        scenario = parse_scenario(OPEN_WATER).scenario
        traj = reference_refine(scenario, ["goto b"], plan_id="P1")
        monkeypatch.setattr(kernel, "_compiler", lambda: compiler)
        with pytest.raises(KernelBuildError) as err:
            refine(scenario, ["goto b"], plan_id="P1")
        message = str(err.value)
        assert "_simkernel.c" in message
        assert (compiler or "cc") in message

        scn = tmp_path / "open.scn"
        scn.write_text(OPEN_WATER)
        plan = tmp_path / "plan.json"
        write_plan_file(PlanFile("P1", 0.9, ["goto b"], 1), plan)
        assert main(["refine", str(scn), str(plan),
                     "--out", str(tmp_path / "trajectory.csv")]) == EXIT_INTERNAL
        assert message in json.loads(capsys.readouterr().err)["error"]
        assert not (tmp_path / "trajectory.csv").exists()

        # simulation runs in the same kernel
        with pytest.raises(KernelBuildError) as err:
            run_batch(traj, scenario, QUIET, n=1)
        assert str(err.value) == message
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

    def test_import_builds_and_loads_nothing(self):
        """Importing the modules that use the kernel compiles nothing and
        loads no library: the first call does.  Nor does it import the
        thread pool, which only a split batch needs."""
        code = ("import ctypes, subprocess, sys\n"
                "calls = []\n"
                "ctypes.CDLL = lambda *a, **k: calls.append(('CDLL', a))\n"
                "subprocess.run = lambda *a, **k: calls.append(('run', a))\n"
                "import riskplan.pipeline, riskplan.cli\n"
                "from riskplan import kernel\n"
                "print(calls, kernel.load.cache_info().currsize,\n"
                "      'concurrent.futures' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        assert out.stdout.split() == ["[]", "0", "False"]
