"""Trajectory refinement: trapezoidal speed, critical slow zones, helices,
and the compiled sampling loop against the Python loop it replaced."""

import csv
import dataclasses
import importlib.util
import math
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REPO_ROOT, TANKS_SCN, reference_refine, reference_samples
from riskplan import kernel, pipeline, refiner
from riskplan.pipeline import PipelineConfig, plan_candidates
from riskplan.refiner import HelixSpec, Trajectory, plan_polyline, refine
from riskplan.scenario import CSV_BLOCK_ROWS, ground_to_mdp, load_scenario, parse_scenario

STRAIGHT = """
LIMITS vmax 1.0 vcrit 0.25 radius 2.0
WAYPOINT a pos 0 0 -5
WAYPOINT b pos 10 0 -5
EDGE a b risk 0
MISSION start a final b
"""

# a 10 um leg: at dt 3e-7 runs of the kernel's rows lie within 1e-12 of
# each other
TINY_LEG = STRAIGHT.replace("WAYPOINT b pos 10 0 -5", "WAYPOINT b pos 1e-5 0 -5")

CRITICAL = STRAIGHT.replace("WAYPOINT b pos 10 0 -5",
                            "WAYPOINT b pos 10 0 -5 critical").replace(
    "radius 2.0", "radius 20.0")

INSPECT = """
LIMITS vmax 1.0 vcrit 0.25 radius 2.0
OBSTACLE tank center 0 0 -5 half 1 1 2
WAYPOINT a pos 5 0 -5
WAYPOINT b pos 3 0 -5 inspect tank
EDGE a b risk 0
MISSION start a final a inspect tank
"""


def scenario(text):
    result = parse_scenario(text)
    assert result.ok, result.errors
    return result.scenario


class TestSpeedProfile:
    def test_straight_segment_duration(self):
        # 10 m at v_max 1 with a = 0.5: 2 s ramp up, 1 m each end of
        # ramping, 8 s cruise, 2 s ramp down => 12 s nominal
        traj = refine(scenario(STRAIGHT), ["goto b"])
        assert traj.nominal_duration == pytest.approx(12.0, abs=0.3)
        assert traj.total_length == pytest.approx(10.0, abs=1e-6)

    def test_critical_zone_duration(self):
        # the whole segment lies in the critical radius: capped at 0.25 m/s
        traj = refine(scenario(CRITICAL), ["goto b"])
        assert traj.nominal_duration == pytest.approx(40.5, abs=0.6)

    def test_speed_caps_hold_pointwise(self):
        for text, cap in ((STRAIGHT, 1.0), (CRITICAL, 0.25)):
            traj = refine(scenario(text), ["goto b"])
            assert (traj.rows[:, 4] <= cap + 1e-9).all()

    def test_time_strictly_increases(self):
        traj = refine(scenario(STRAIGHT), ["goto b"])
        times = traj.rows[:, 0].tolist()
        assert times[0] == 0.0
        assert all(t2 > t1 for t1, t2 in zip(times, times[1:]))

    def test_longer_plans_take_longer(self):
        s = scenario(STRAIGHT)
        one = refine(s, ["goto b"])
        there_and_back = refine(s, ["goto b", "goto a"])
        assert there_and_back.nominal_duration > one.nominal_duration

    def test_empty_plan_is_its_start_at_rest(self):
        traj = refine(scenario(STRAIGHT), [])
        assert traj.rows.tolist() == [[0.0, 0.0, 0.0, -5.0, 0.0]]
        assert traj.nominal_duration == traj.total_length == 0.0

    def test_dt_validation(self):
        # NaN compares false with everything, so `dt <= 0` alone lets it in
        for dt in (0.0, -0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="dt must be finite and positive"):
                refine(scenario(STRAIGHT), ["goto b"], dt=dt)

    def test_dt_too_small_to_advance_is_refused(self):
        # each step of 1e-300 s rounds to no motion at all: the loop would
        # never end
        with pytest.raises(ValueError, match="too small"):
            refine(scenario(STRAIGHT), ["goto b"], dt=1e-300)


class TestConnectivity:
    def test_unconnected_goto_rejected(self):
        text = STRAIGHT + "WAYPOINT c pos 20 0 -5\n"
        text = text.replace("MISSION start a final b",
                            "MISSION start a final c")
        with pytest.raises(ValueError, match="no scenario edge connects 'a' and 'c'"):
            refine(scenario(text), ["goto c"])

    def test_gotos_at_the_end_of_a_long_chain(self):
        """Each goto is looked up among the edges in a set: 2,000 gotos over
        the last edge of a 16,000-waypoint chain refine in well under 2 s,
        where a scan of every edge per goto took ~11 s (2-vCPU VM)."""
        n = 16_000
        text = chain_text([(float(i), 0.0, 0.0) for i in range(n)])
        scn = scenario(text.replace("MISSION start w0", f"MISSION start w{n - 1}"))
        t0 = time.perf_counter()
        traj = refine(scn, [f"goto w{n - 2}", f"goto w{n - 1}"] * 1000)
        assert time.perf_counter() - t0 < 2.0
        assert traj.rows[-1, 1] == n - 1 and traj.nominal_duration > 2000


class TestHelix:
    def test_loop_radius_and_return(self):
        s = scenario(INSPECT)
        spec = HelixSpec(clearance=2.0)
        pts = plan_polyline(s, ["goto b", "inspect tank"], spec)
        tank = s.obstacles[0]
        radius = max(tank.half_extents[0], tank.half_extents[1]) + 2.0
        helix = pts[2:-1]
        assert len(helix) == spec.points
        for p in helix:
            r = math.hypot(p[0] - tank.center[0], p[1] - tank.center[1])
            assert r == pytest.approx(radius, abs=1e-9)
        assert pts[-1] == s.positions()["b"]

    def test_pitch_climbs_obstacle_height(self):
        s = scenario(INSPECT)
        pts = plan_polyline(s, ["goto b", "inspect tank"],
                            HelixSpec(clearance=2.0))
        z0 = s.positions()["b"][2]
        # one full turn climbs the full obstacle height (2 * half extent)
        assert pts[-2][2] == pytest.approx(z0 + 4.0)

    def test_inspection_adds_at_least_circumference(self):
        s = scenario(INSPECT)
        base = refine(s, ["goto b"])
        loop = refine(s, ["goto b", "inspect tank"],
                      helix=HelixSpec(clearance=2.0))
        assert loop.total_length - base.total_length > 2 * math.pi * 3.0 * 0.9

    @pytest.mark.parametrize("kwargs, field", [
        ({"points": 0}, "points"), ({"points": -3}, "points"),
        ({"turns": 0.0}, "turns"), ({"turns": math.nan}, "turns"),
        ({"turns": math.inf}, "turns"), ({"clearance": -0.5}, "clearance"),
        ({"clearance": math.inf}, "clearance"), ({"clearance": math.nan}, "clearance"),
        ({"pitch": math.nan}, "pitch"), ({"pitch": -math.inf}, "pitch"),
        ({"points": refiner.MAX_PATH_ROWS + 1}, "points"),
    ])
    def test_bad_shape_rejected(self, kwargs, field):
        # points 0 or turns NaN once dropped the loop; clearance inf never ended
        with pytest.raises(ValueError, match=f"{field} must be"):
            HelixSpec(**kwargs)


def float_bits(traj):
    """Every float of a trajectory as raw bytes: equal bytes are equal bits,
    where == would let 0.0 equal -0.0."""
    return struct.pack("2d", traj.total_length, traj.nominal_duration) + traj.rows.tobytes()


def assert_matches_reference(scn, steps, **kwargs):
    got = refine(scn, steps, **kwargs)
    want = reference_refine(scn, steps, **kwargs)
    assert got.rows.shape == want.rows.shape
    assert float_bits(got) == float_bits(want)
    assert got.plan_id == want.plan_id
    return got


TANKS = load_scenario(TANKS_SCN).scenario
TANKS_NEIGHBOURS = {w.id: sorted({e.b for e in TANKS.edges if e.a == w.id}
                                 | {e.a for e in TANKS.edges if e.b == w.id})
                    for w in TANKS.waypoints}


@st.composite
def edge_walks(draw):
    """Plans on tanks.scn: a walk along its edges from the start, with
    inspections of any obstacle between moves."""
    here, steps = TANKS.start, []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            steps.append("inspect " + draw(st.sampled_from(
                [o.label for o in TANKS.obstacles])))
        else:
            here = draw(st.sampled_from(TANKS_NEIGHBOURS[here]))
            steps.append(f"goto {here}")
    return steps


helices = st.builds(HelixSpec, points=st.integers(1, 60),
                    turns=st.floats(0.1, 2.5), clearance=st.floats(0.0, 4.0),
                    pitch=st.none() | st.floats(-3.0, 3.0))


TANKS_PLANS = plan_candidates(ground_to_mdp(TANKS), PipelineConfig(
    scenario_path=str(TANKS_SCN), out_dir="", master_seed=7))


class TestKernelMatchesReference:
    """The compiled sampling loop gives the Python loop's trajectory bit for
    bit."""

    @pytest.mark.parametrize("which", [0, 1])
    def test_tanks_candidates(self, which):
        cand = TANKS_PLANS[which]
        traj = assert_matches_reference(TANKS, cand.plan.linearization,
                                        plan_id=cand.plan.id)
        # the benchmark's view holds Python floats, as the reference's values would be
        smp = traj.samples[1]
        assert {type(smp.time), type(smp.speed), *map(type, smp.position)} == {float}

    @given(steps=edge_walks(), dt=st.floats(0.05, 1.0), helix=helices)
    @settings(max_examples=80, deadline=None)
    def test_random_edge_walks(self, steps, dt, helix):
        assert_matches_reference(TANKS, steps, dt=dt, helix=helix)

    @pytest.mark.parametrize("below", [False, True], ids=["on_radius", "just_outside"])
    def test_sample_exactly_on_the_critical_radius(self, below):
        # the first sample sits exactly 3 m from the critical waypoint c;
        # at dt 1 the first speed step (0.5) exceeds vcrit, so the zone
        # test of that sample decides its speed
        scn = scenario(STRAIGHT.replace("radius 2.0", "radius 3")
                       + "WAYPOINT c pos 0 3 -5 critical\nEDGE a c risk 0\n")
        radius = math.nextafter(3.0, 0.0) if below else 3.0
        scn = dataclasses.replace(scn, critical_radius=radius)
        traj = assert_matches_reference(scn, ["goto b"], dt=1.0)
        assert traj.rows[0, 4] == (0.5 if below else 0.25)

    def test_long_segment_at_small_dt(self):
        # 200 m at the critical speed, every 0.05 s: ~16k samples
        long_leg = CRITICAL.replace("WAYPOINT b pos 10 0 -5", "WAYPOINT b pos 200 0 -5")
        long_leg = long_leg.replace("radius 20.0", "radius 300")
        traj = assert_matches_reference(scenario(long_leg), ["goto b"], dt=0.05)
        assert len(traj.rows) > 16000

    def test_chained_drops_on_a_tiny_leg(self):
        """Each row is tested against the last row kept: a test against the
        row before it would keep 29,769 of these rows."""
        scn = scenario(TINY_LEG)
        traj = assert_matches_reference(scn, ["goto b"], dt=3e-7)
        path = plan_polyline(scn, ["goto b"])
        assert len(reference_samples(scn, path, 3e-7)) == 29805
        assert len(traj.rows) == 29783

    @pytest.mark.parametrize("capacity", [0, 1, 100])
    def test_kernel_counts_past_a_short_buffer(self, capacity):
        """Given a buffer too short for the path, the kernel fills it with
        the first kept rows, writes nothing past it and returns the count of
        rows the path keeps: on one segment, and on segments whose corners
        are each made twice and kept once."""
        for text, plan in ((CRITICAL, ["goto b"]), (INSPECT, ["goto b", "inspect tank", "goto a"])):
            scn = scenario(text)
            path = np.array(plan_polyline(scn, plan), dtype=float)
            centers = np.array([w.position for w in scn.waypoints if w.is_critical]).reshape(-1, 3)
            args = (len(path), path, len(centers), centers, scn.critical_radius,
                    scn.v_max, scn.v_crit, refiner.A_MAX, 0.05, refiner.MAX_PATH_ROWS)
            lib = kernel.load()
            full = np.empty((lib.refine_path(*args, 0, np.empty((0, 5))), 5))
            assert lib.refine_path(*args, len(full), full) == len(full) > capacity
            assert full.tobytes() == refine(scn, plan, dt=0.05).rows.tobytes()
            assert len(reference_samples(scn, path, 0.05)) == len(full) + len(path) - 2
            short = np.full((capacity + 8, 5), np.nan)  # 8 guard rows
            assert lib.refine_path(*args, capacity, short) == len(full)
            assert np.array_equal(short[:capacity], full[:capacity])
            assert np.isnan(short[capacity:]).all()

    def test_kernel_stops_counting_past_the_limit(self):
        scn = scenario(CRITICAL)
        path = np.array(plan_polyline(scn, ["goto b"]), dtype=float)
        centers = np.array([scn.positions()["b"]])
        args = (len(path), path, len(centers), centers, scn.critical_radius,
                scn.v_max, scn.v_crit, refiner.A_MAX, 0.05)
        lib, empty = kernel.load(), np.empty((0, 5))
        full = lib.refine_path(*args, refiner.MAX_PATH_ROWS, 0, empty)
        for limit in (0, 7, full - 1):
            assert lib.refine_path(*args, limit, 0, empty) == limit + 1
        assert lib.refine_path(*args, full, 0, empty) == full


def ulps_from(x, k):
    """``x`` moved ``k`` doubles up, or down for a negative ``k``."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


near_1e12 = st.integers(-4, 4).map(lambda k: ulps_from(1e-12, k))
# a nonzero direction, scaled by `scaled` to a length within ulps of a value
directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda u: math.hypot(*u) > 0.1)
origins = st.sampled_from([(0.0, 0.0, 0.0), (0.0, 0.0, -5.0)])


def scaled(u, length):
    return [c / math.hypot(*u) * length for c in u]


def leg_points(origin, legs):
    """``origin``, then the end of each (direction, length) leg in turn."""
    points = [origin]
    for u, length in legs:
        points.append(tuple(a + d for a, d in zip(points[-1], scaled(u, length))))
    return points


def walk_steps(legs, walk):
    """goto labels along `chain_text`'s chain of ``legs`` legs: to its end,
    then back and forth as ``walk`` says (True: forward where it can)."""
    steps, here = [], 0
    for forward in [True] * legs + walk:
        here += 1 if here == 0 or forward and here < legs else -1
        steps.append(f"goto w{here}")
    return steps


def chain_text(points, obstacle=""):
    """.scn text of waypoints w0..wn at ``points`` (their floats written
    exactly), each joined to the next, and ``obstacle``'s line if any."""
    lines = [f"WAYPOINT w{i} pos {x!r} {y!r} {z!r}" for i, (x, y, z) in enumerate(points)]
    lines += [f"EDGE w{i - 1} w{i} risk 0" for i in range(1, len(points))]
    return "\n".join([*lines, obstacle, f"MISSION start w0 final w{len(points) - 1}"]) + "\n"


class TestKernelMatchesReferenceNear1e12:
    """Where a sample lies within a few ulps of 1e-12 of the last kept row,
    the kernel keeps or drops it as the reference does."""

    @given(origin=origins, u=directions, length=st.floats(2e-12, 1e-7),
           k=st.integers(-4, 4))
    @settings(max_examples=100, deadline=None)
    def test_first_step_of_a_tiny_leg(self, origin, u, length, k):
        # from rest, the first step at dt is 0.5 * dt * dt: about 1e-12 here
        leg = [a + d for a, d in zip(origin, scaled(u, length))]
        dt = ulps_from(math.sqrt(2e-12), k)
        assert_matches_reference(scenario(chain_text([origin, leg])), ["goto w1"], dt=dt)

    @given(origin=origins, legs=st.lists(st.tuples(directions, near_1e12), min_size=1,
                                         max_size=5),
           dt=st.floats(1e-8, 1.0), walk=st.lists(st.booleans(), max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_walks_over_legs_of_about_1e12(self, origin, legs, dt, walk):
        assert_matches_reference(scenario(chain_text(leg_points(origin, legs))),
                                 walk_steps(len(legs), walk), dt=dt)

    @given(origin=origins, u=directions, gap=near_1e12,
           radius=st.just(0.0) | near_1e12, points=st.integers(1, 8),
           turns=st.floats(0.1, 2.5), loops=st.integers(1, 3), dt=st.floats(1e-8, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_zero_pitch_helices_of_zero_or_tiny_radius(self, origin, u, gap, radius,
                                                       points, turns, loops, dt):
        cx, cy, _ = (a + d for a, d in zip(origin, scaled(u, gap)))
        text = chain_text([origin], f"OBSTACLE o center {cx!r} {cy!r} 0 "
                                    f"half {radius!r} {radius!r} 1")
        helix = HelixSpec(points=points, turns=turns, clearance=0.0, pitch=0.0)
        assert_matches_reference(scenario(text), ["inspect o"] * loops, dt=dt, helix=helix)


# axis directions: from the origin, a leg along one is exactly its length
axes = st.sampled_from([(1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, 1.0)])
# repeats, 1e-12 and a few ulps either side, legs under 1e-12 whose runs
# pass it only against the last point kept, and longer legs
point_legs = st.just(0.0) | near_1e12 | st.floats(3e-13, 9e-13) | st.floats(2e-12, 1e-9)


class TestKernelKeepsPoints:
    """The kernel starts a segment only at a point more than 1e-12 from the
    last point kept, as the reference's point filter does, and a plan of
    repeated points is its start at rest."""

    @given(origin=origins, legs=st.lists(st.tuples(directions | axes, point_legs),
                                         min_size=1, max_size=8),
           dt=st.floats(1e-8, 1.0), walk=st.lists(st.booleans(), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_walks_over_clusters_of_near_points(self, origin, legs, dt, walk):
        assert_matches_reference(scenario(chain_text(leg_points(origin, legs))),
                                 walk_steps(len(legs), walk), dt=dt)

    def test_legs_of_1e12_measured_from_the_last_point_kept(self):
        """The first of two 1e-12 legs starts no segment, and the second
        ends one 2e-12 long: a test against the point before each would
        drop both and leave the plan at rest."""
        scn = scenario(chain_text([(0.0, 0.0, 0.0), (1e-12, 0.0, 0.0), (2e-12, 0.0, 0.0)]))
        traj = assert_matches_reference(scn, ["goto w1", "goto w2"], dt=1e-6)
        assert len(traj.rows) > 1 and traj.rows[-1, 1] == 2e-12

    @given(inspects=st.lists(st.booleans(), max_size=12), points=st.integers(1, 8),
           dt=st.floats(1e-8, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_plan_of_repeated_points_is_its_start_at_rest(self, inspects, points, dt):
        # two waypoints and a flat helix of radius 0, all at one point; each
        # step inspects, or moves to the other waypoint
        text = chain_text([(1.0, 2.0, -3.0)] * 2, "OBSTACLE o center 1.0 2.0 0 half 0.0 0.0 1")
        helix = HelixSpec(points=points, clearance=0.0, pitch=0.0)
        steps, here = [], 0
        for inspect in inspects:
            here ^= not inspect
            steps.append("inspect o" if inspect else f"goto w{here}")
        traj = assert_matches_reference(scenario(text), steps, dt=dt, helix=helix)
        assert traj.rows.tolist() == [[0.0, 1.0, 2.0, -3.0, 0.0]]


def reference_export_csv(traj, path):
    """The per-sample writer `Trajectory.export_csv` replaced, kept as its
    reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(refiner.CSV_COLUMNS)
        for t, x, y, z, v in traj.rows.tolist():
            writer.writerow([f"{t:.3f}", f"{x:.4f}", f"{y:.4f}", f"{z:.4f}", f"{v:.4f}"])


class TestTrajectory:
    @pytest.mark.parametrize("shape", [(5,), (3, 4), (3, 6), (0,), (2, 5, 1)])
    def test_rows_of_another_shape_rejected(self, shape):
        with pytest.raises(ValueError, match=r"must have shape \(k, 5\)"):
            Trajectory(np.zeros(shape))

    def test_rows_are_a_read_only_float_copy(self):
        rows = np.arange(10).reshape(2, 5)
        traj = Trajectory(rows, "P1")
        rows[0, 0] = 99
        assert traj.rows.dtype == np.float64
        assert traj.rows.tolist() == [[0.0, 1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0, 9.0]]
        with pytest.raises(ValueError, match="read-only"):
            traj.rows[0, 0] = 1.0

    def test_writable_float_rows_copied(self):
        rows = np.zeros((2, 5))
        traj = Trajectory(rows)
        rows[0, 0] = 99.0
        assert rows.flags.writeable and traj.rows[0, 0] == 0.0
        assert not np.shares_memory(rows, traj.rows)

    def test_read_only_rows_taken_only_when_they_own_their_data(self):
        rows = np.zeros((2, 5))
        rows.flags.writeable = False
        assert Trajectory(rows).rows is rows
        view = np.zeros((4, 5))[::2]
        view.flags.writeable = False
        assert not np.shares_memory(Trajectory(view).rows, view)

    @pytest.mark.parametrize("which", [0, 1])
    def test_tanks_artifacts_equal_per_sample_reference(self, tmp_path, which):
        """The CSV bytes and the length in summary.csv, against the writer
        and the in-order sum of `math.dist` they replaced."""
        cand = TANKS_PLANS[which]
        traj = refine(TANKS, cand.plan.linearization, plan_id=cand.plan.id)
        traj.export_csv(tmp_path / "got.csv")
        reference_export_csv(traj, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        points = [tuple(row[1:4]) for row in traj.rows.tolist()]
        length = sum(math.dist(p, q) for p, q in zip(points, points[1:]))
        assert struct.pack("d", traj.total_length) == struct.pack("d", length)

    @pytest.mark.parametrize("count", [0, 1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1])
    def test_csv_bytes_at_block_edges(self, tmp_path, count):
        """Rows are formatted and written a block at a time: no row, one,
        exactly one block and one past it, with values that print as
        -0.000 and -0.0000, against the per-sample reference."""
        rows = np.random.default_rng(count).normal(scale=50.0, size=(count, 5))
        rows[::3] *= 1e-6
        rows[1::4] = -0.0
        rows[2::5, 0] = -0.0004
        traj = Trajectory(rows)
        traj.export_csv(tmp_path / "got.csv")
        reference_export_csv(traj, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\r\n") == count + 1
        if count > 2:
            assert b"-0.000," in got and b",-0.0000" in got

    def test_benchmark_refine_span_counts_every_row(self):
        """The benchmark's tracer records `len(traj.samples)` in its refine
        span: the `samples` view must give one sample a row."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", REPO_ROOT / "perfbench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        cand = TANKS_PLANS[0]
        with tracer.installed(spans.layer_patches(tracer)):
            traj = pipeline.refine(TANKS, cand.plan.linearization, plan_id=cand.plan.id)
        (span,) = tracer.spans
        assert (span.name, span.attrs) == ("refiner.refine", {"samples": len(traj.rows)})
        assert traj.samples[-1].position == tuple(traj.rows[-1, 1:4].tolist())


class TestRowBound:
    def test_long_leg_at_small_dt_refused(self):
        # a 1 km leg at the critical speed: ~40k samples at dt 0.1, ~40M at 1e-4
        leg = CRITICAL.replace("WAYPOINT b pos 10 0 -5", "WAYPOINT b pos 1000 0 -5")
        leg = leg.replace("radius 20.0", "radius 2000")
        with pytest.raises(ValueError, match="MAX_PATH_ROWS"):
            refine(scenario(leg), ["goto b"], dt=0.0001)
        assert len(refine(scenario(leg), ["goto b"], dt=0.1).rows) < refiner.MAX_PATH_ROWS

    def test_long_plan_refused_before_its_polyline_is_built(self, monkeypatch):
        """Each polyline point makes a sample, so a plan whose labels name
        over MAX_PATH_ROWS + 1 points is refused before any is made."""
        monkeypatch.setattr(refiner, "MAX_PATH_ROWS", 500)
        calls = []
        real = refiner.helix_points
        monkeypatch.setattr(refiner, "helix_points",
                            lambda *args: calls.append(args) or real(*args))
        tanks = load_scenario(TANKS_SCN).scenario
        with pytest.raises(ValueError, match="MAX_PATH_ROWS"):
            refine(tanks, ["inspect sm_tank"] * 20_000)
        assert calls == []

    def test_long_plan_refused_in_bounded_memory(self):
        """400,000 loops name ~2 * 10^7 points: counting them from the
        labels holds none of them."""
        tanks = load_scenario(TANKS_SCN).scenario
        plan = ["inspect sm_tank"] * 400_000
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MAX_PATH_ROWS"):
                refine(tanks, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_plan_of_exactly_max_rows_plus_one_points(self, monkeypatch):
        """A plan of repeated points makes one dropped sample a point after
        the first: at MAX_PATH_ROWS + 1 points the kernel takes it, and one
        point more is refused from the labels before the kernel runs."""
        text = chain_text([(0.0, 0.0, 0.0)] * 2, "OBSTACLE o center 0 0 0 half 0.0 0.0 1")
        scn, helix = scenario(text), HelixSpec(points=3, clearance=0.0, pitch=0.0)
        plan = ["inspect o", "goto w1", "inspect o"]  # 1 + 4 + 1 + 4 points
        monkeypatch.setattr(refiner, "MAX_PATH_ROWS", 9)
        assert len(plan_polyline(scn, plan, helix)) == 10
        assert refine(scn, plan, helix=helix).rows.tolist() == [[0.0] * 5]
        path = np.array(plan_polyline(scn, plan, helix))
        args = (len(path), path, 0, np.empty((0, 3)), 2.0, 1.0, 0.25, refiner.A_MAX, 0.1)
        assert kernel.load().refine_path(*args, 8, 0, np.empty((0, 5))) == 9
        monkeypatch.setattr(refiner, "MAX_PATH_ROWS", 8)
        with pytest.raises(ValueError, match="over 9 points"):
            plan_polyline(scn, plan, helix)

    def test_peak_memory_of_a_long_path_is_about_its_rows(self):
        """Refinement holds the kernel's rows once: the trajectory takes
        the kernel's read-only buffer, with no copy or per-row Python list
        beside it."""
        tanks = load_scenario(TANKS_SCN).scenario
        kernel.load()  # built and loaded outside the traced span
        tracemalloc.start()
        try:
            traj = refine(tanks, ["inspect sm_tank"] * 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.rows) == 149_101
        assert peak < 1.3 * traj.rows.nbytes

    def test_path_of_exactly_max_rows_accepted(self, monkeypatch):
        tanks = load_scenario(TANKS_SCN).scenario
        plan = ["inspect sm_tank"] * 3
        rows = len(reference_samples(tanks, plan_polyline(tanks, plan), 0.1))
        want = refine(tanks, plan)
        monkeypatch.setattr(refiner, "MAX_PATH_ROWS", rows)
        assert float_bits(refine(tanks, plan)) == float_bits(want)
        monkeypatch.setattr(refiner, "MAX_PATH_ROWS", rows - 1)
        with pytest.raises(ValueError, match="MAX_PATH_ROWS"):
            refine(tanks, plan)
