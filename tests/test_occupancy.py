"""Occupancy grid updates, ray traversal, and problem extraction; the
compiled voxel walk, the survey-wide range synthesis and the block-wise
grid writer against the Python loops they replaced."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TANKS_SCN, edge_between
from riskplan import pipeline
from riskplan.occupancy import (DEFAULT_P_HIT, DEFAULT_P_MISS, EDGE_RISK_CAP,
                                LOG_ODDS_MAX, LOG_ODDS_MIN, BeamFan, SonarScan,
                                VoxelGrid, WaypointInOccupiedVoxel,
                                _nearest_hits, extract_problem, integrate_scan,
                                logistic, synthesize_scans, traverse_voxels)
from riskplan.scenario import CSV_BLOCK_ROWS, Obstacle, load_scenario, parse_scenario


def grid(res=1.0, dims=(10, 10, 10), origin=(0.0, 0.0, 0.0)):
    return VoxelGrid(origin, dims, res)


def reference_integrate_scan(grid, scan, p_hit=DEFAULT_P_HIT, p_miss=DEFAULT_P_MISS):
    """The per-voxel Python update loop the compiled kernel replaced."""
    l_hit = math.log(p_hit / (1.0 - p_hit))
    l_miss = math.log(p_miss / (1.0 - p_miss))
    pos = scan.position
    for d, r in zip(scan.beams, scan.ranges):
        endpoint = pos + d * r
        returned = r < scan.max_range - 1e-9
        voxels = traverse_voxels(grid, pos, endpoint)
        if not voxels:
            continue
        hit_voxel = grid.index_of(endpoint) if returned else None
        for v in voxels:
            delta = l_hit if v == hit_voxel else l_miss
            grid.log_odds[v] = min(LOG_ODDS_MAX,
                                   max(LOG_ODDS_MIN, grid.log_odds[v] + delta))
    return grid


def ray_box_range(origin, direction, box: Obstacle) -> float | None:
    """Distance to the first intersection with an axis-aligned box, if any:
    the per-box slab test the vectorised synthesis replaced."""
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    lo = np.asarray(box.center) - np.asarray(box.half_extents)
    hi = np.asarray(box.center) + np.asarray(box.half_extents)
    t_near, t_far = -math.inf, math.inf
    for k in range(3):
        if direction[k] == 0.0:
            if not (lo[k] <= origin[k] <= hi[k]):
                return None
            continue
        with np.errstate(over="ignore"):  # a tiny component gives inf
            t1 = (lo[k] - origin[k]) / direction[k]
            t2 = (hi[k] - origin[k]) / direction[k]
        t_near = max(t_near, min(t1, t2))
        t_far = min(t_far, max(t1, t2))
    if t_near > t_far or t_far < 0:
        return None
    return max(t_near, 0.0)


def reference_synthesize_scans(obstacles, sensor_path, fan, rng, range_sigma=0.0):
    """The per-beam, per-box synthesis loop the vectorised one replaced."""
    scans = []
    for position, yaw in sensor_path:
        directions = fan.directions(yaw)
        ranges = []
        for d in directions:
            hits = [r for r in (ray_box_range(position, d, o) for o in obstacles)
                    if r is not None and r <= fan.max_range]
            r = min(hits) if hits else fan.max_range
            if range_sigma > 0 and hits:
                r += float(rng.normal(0.0, range_sigma))
                r = min(max(r, 1e-6), fan.max_range)
            ranges.append(r)
        scans.append(SonarScan(position, directions, ranges, fan.max_range))
    return scans


def reference_export_csv(grid, path):
    """The per-voxel csv.writer loop `VoxelGrid.export_csv` replaced, kept
    as its reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ix", "iy", "iz", "occupancy"])
        observed = grid.observed_voxels()
        log_odds = grid.log_odds[tuple(observed.T)]
        for (ix, iy, iz), l in zip(observed.tolist(), log_odds.tolist()):
            writer.writerow([ix, iy, iz, f"{logistic(l):.6f}"])


def assert_same_bits(a: np.ndarray, b: np.ndarray):
    assert a.shape == b.shape
    differ = a.view(np.uint64) != b.view(np.uint64)
    assert not differ.any(), \
        f"{differ.sum()} voxels differ, first at {np.argwhere(differ)[0]}"


def hit_scan(position, direction, rng, max_range=8.0):
    """Single beam that returns at distance rng (< max range => a hit)."""
    return SonarScan(position, [direction], [rng], max_range)


AHEAD_BEAM = ((0.5, 0.5, 0.5), [(1.0, 0.0, 0.0)], [3.0], 8.0)


class TestScanChecks:
    @pytest.mark.parametrize("change", [
        {0: (0.5, 0.5)}, {0: (0.5, math.nan, 0.5)},
        {1: [(1.0, 0.0)]}, {1: [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]},
        {1: [(0.6, 0.6, 0.0)]}, {1: [(math.nan, 0.0, 0.0)]},
        {2: [0.0]}, {2: [math.nan]}, {2: [8.5]}, {2: [math.inf], 3: math.inf},
    ], ids=["position_2d", "position_nan", "beams_n2", "ranges_short", "not_unit",
            "direction_nan", "range_zero", "range_nan", "range_above_max",
            "max_range_inf"])
    def test_malformed_scan_rejected_when_made(self, change):
        args = [change.get(i, a) for i, a in enumerate(AHEAD_BEAM)]
        with pytest.raises(ValueError):
            SonarScan(*args)

    def test_arrays_are_read_only_copies(self):
        ranges = np.array([3.0])
        scan = SonarScan(AHEAD_BEAM[0], AHEAD_BEAM[1], ranges, 8.0)
        ranges[0] = 99.0
        assert scan.ranges.tolist() == [3.0]
        assert (scan.position.shape, scan.beams.shape, scan.max_range) == ((3,), (1, 3), 8.0)
        for a in (scan.position, scan.beams, scan.ranges):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestLogOddsUpdates:
    def test_two_hits_closed_form(self):
        g = grid()
        scan = hit_scan((0.5, 0.5, 0.5), (1.0, 0.0, 0.0), 3.0)
        integrate_scan(g, scan)
        integrate_scan(g, scan)
        assert g.occupancy((3, 0, 0)) == pytest.approx(0.8448, abs=1e-4)

    def test_symmetric_hit_miss_cancels_exactly(self):
        g = grid()
        scan = hit_scan((0.5, 0.5, 0.5), (1.0, 0.0, 0.0), 3.0)
        integrate_scan(g, scan, p_hit=0.7, p_miss=0.3)
        # a pass-through observation of the same voxel at p_miss = 0.3
        # contributes the exact negative of the 0.7 hit
        far = hit_scan((0.5, 0.5, 0.5), (1.0, 0.0, 0.0), 6.0)
        integrate_scan(g, far, p_hit=0.7, p_miss=0.3)
        assert g.log_odds[3, 0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_hundred_hits_saturate_at_clamp(self):
        g = grid()
        scan = hit_scan((0.5, 0.5, 0.5), (1.0, 0.0, 0.0), 3.0)
        for _ in range(100):
            integrate_scan(g, scan)
        assert g.occupancy((3, 0, 0)) == pytest.approx(logistic(LOG_ODDS_MAX),
                                                       abs=1e-9)

    def test_max_range_return_carves_free_space_only(self):
        g = grid()
        scan = hit_scan((0.5, 0.5, 0.5), (1.0, 0.0, 0.0), 8.0, max_range=8.0)
        integrate_scan(g, scan)
        assert all(g.log_odds[i, 0, 0] < 0 for i in range(8))

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            integrate_scan(grid(), hit_scan((0.5, 0.5, 0.5), (1, 0, 0), 3.0),
                           p_hit=0.4)

    def test_malformed_scan_or_grid_rejected(self):
        """Nothing malformed reaches the kernel's pointers."""
        ahead = [(1.0, 0.0, 0.0)]
        bad_scans = [((0.5, 0.5), ahead, [3.0], 8.0),
                     ((math.nan, 0.5, 0.5), ahead, [3.0], 8.0),
                     ((0.5, 0.5, 0.5), [(1.0, 0.0)], [3.0], 8.0),
                     ((0.5, 0.5, 0.5), ahead, [math.inf], math.inf)]
        for args in bad_scans:  # each is refused where it is made
            with pytest.raises(ValueError):
                integrate_scan(grid(), SonarScan(*args))
        g = grid()
        g.log_odds = np.zeros((10, 10))
        with pytest.raises(ValueError):
            integrate_scan(g, SonarScan((0.5, 0.5, 0.5), ahead, [3.0], 8.0))

    @given(hits=st.integers(min_value=1, max_value=8),
           extra=st.integers(min_value=1, max_value=8))
    @settings(max_examples=25, deadline=None)
    def test_more_hits_never_lower_occupancy(self, hits, extra):
        scan = hit_scan((0.5, 0.5, 0.5), (1.0, 0.0, 0.0), 3.0)
        g1, g2 = grid(), grid()
        for _ in range(hits):
            integrate_scan(g1, scan)
        for _ in range(hits + extra):
            integrate_scan(g2, scan)
        assert g2.occupancy((3, 0, 0)) >= g1.occupancy((3, 0, 0))

    def test_update_order_does_not_matter(self):
        hit = hit_scan((0.5, 0.5, 0.5), (1.0, 0.0, 0.0), 3.0)
        miss = hit_scan((0.5, 0.5, 0.5), (1.0, 0.0, 0.0), 6.0)
        g1, g2 = grid(), grid()
        for scan in (hit, miss, hit):
            integrate_scan(g1, scan)
        for scan in (hit, hit, miss):
            integrate_scan(g2, scan)
        assert np.allclose(g1.log_odds, g2.log_odds)


class TestTraversal:
    def test_straight_ray_visits_six_voxels(self):
        voxels = traverse_voxels(grid(), (0.5, 0.5, 0.5), (5.5, 0.5, 0.5))
        assert voxels == [(i, 0, 0) for i in range(6)]

    def test_diagonal_is_connected(self):
        voxels = traverse_voxels(grid(), (0.5, 0.5, 0.5), (4.5, 4.5, 0.5))
        for a, b in zip(voxels, voxels[1:]):
            assert sum(abs(x - y) for x, y in zip(a, b)) == 1

    def test_zero_length_segment(self):
        assert traverse_voxels(grid(), (2.5, 2.5, 2.5), (2.5, 2.5, 2.5)) == [
            (2, 2, 2)]

    def test_truncated_at_bounds(self):
        voxels = traverse_voxels(grid(), (8.5, 0.5, 0.5), (14.5, 0.5, 0.5))
        assert voxels == [(8, 0, 0), (9, 0, 0)]

    def test_out_of_bounds_point_is_agnostic(self):
        assert grid().occupancy_at((-5.0, 0.0, 0.0)) == 0.5


def box_range(origin, direction, box):
    """The reference range to one box, checked against the library's
    survey-wide slab test, as one scan of one beam (inf for no hit)."""
    want = ray_box_range(origin, direction, box)
    got = _nearest_hits(np.array([origin], dtype=float), np.array([[direction]], dtype=float),
                        np.subtract([box.center], [box.half_extents]),
                        np.add([box.center], [box.half_extents]), math.inf)
    assert got.tolist() == [[math.inf if want is None else want]]
    return want


class TestRayBox:
    BOX = Obstacle("b", (10.0, 0.0, 0.0), (1.0, 1.0, 1.0))

    def test_head_on_range(self):
        assert box_range((0, 0, 0), (1, 0, 0), self.BOX) == pytest.approx(9.0)

    def test_miss_returns_none(self):
        assert box_range((0, 5, 0), (1, 0, 0), self.BOX) is None

    def test_behind_returns_none(self):
        assert box_range((0, 0, 0), (-1, 0, 0), self.BOX) is None

    def test_inside_starts_at_zero(self):
        assert box_range((10, 0, 0), (1, 0, 0), self.BOX) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_tiny_component_overflows_to_inf_quietly(self):
        # a y component of 1e-310 puts the y boundaries and slab at an
        # infinite ray parameter, with no overflow warning on the way
        voxels = traverse_voxels(VoxelGrid((0, 0, 0), (4, 4, 4), 1.0),
                                 (0.5, 0.0, 0.5), (3.5, 1e-310, 0.5))
        assert voxels == [(i, 0, 0) for i in range(4)]
        scans = synthesize_scans([self.BOX], [((0.0, 0.0, 0.0), 1e-310)],
                                 BeamFan(count=1, max_range=25.0),
                                 np.random.default_rng(0))
        assert scans[0].ranges.tolist() == [9.0]

    def test_fan_directions_are_unit(self):
        directions = BeamFan(count=7).directions(0.3)
        assert directions.shape == (7, 3)
        for d in directions:
            assert math.dist(d, (0, 0, 0)) == pytest.approx(1.0)


SCENE = """
LIMITS vmax 1.0 vcrit 0.25 radius 2.0
OBSTACLE wall center 5 0 0 half 0.5 2 2
WAYPOINT a pos 0 0 0
WAYPOINT b pos 4 0 0
WAYPOINT c pos 0 6 0
EDGE a b risk 0
EDGE a c risk 0
MISSION start a final c
"""


class TestExtraction:
    def build_grid(self):
        scenario = parse_scenario(SCENE).scenario
        g = VoxelGrid((-2, -8, -8), (20, 32, 32), 0.5)
        rng = np.random.default_rng(3)
        path = [((0.0, y, 0.0), 0.0) for y in (-2.0, 0.0, 2.0)]
        scans = synthesize_scans(scenario.obstacles, path,
                                 BeamFan(count=48, max_range=12.0), rng)
        for s in scans:
            integrate_scan(g, s)
        return g, scenario

    def test_edge_near_wall_becomes_risky(self):
        g, scenario = self.build_grid()
        out = extract_problem(g, scenario, kappa=0.3)
        ab = edge_between(out, "a", "b").collision_probability
        ac = edge_between(out, "a", "c").collision_probability
        assert ab > 0
        assert ac == 0.0
        assert ab <= EDGE_RISK_CAP

    def test_risk_is_kappa_times_max_occupancy(self):
        g, scenario = self.build_grid()
        out = extract_problem(g, scenario, kappa=0.3)
        # the wall face is multiply confirmed, so the max occupancy along
        # a-b is the clamp value and the risk its kappa multiple
        expected = 0.3 * logistic(LOG_ODDS_MAX)
        assert edge_between(out, "a", "b").collision_probability == \
            pytest.approx(expected, abs=1e-6)

    def test_waypoint_near_wall_becomes_critical(self):
        g, scenario = self.build_grid()
        out = extract_problem(g, scenario)
        critical = {w.id: w.is_critical for w in out.waypoints}
        assert critical["b"] and not critical["c"]

    def test_waypoint_inside_occupied_voxel_rejected(self):
        g, scenario = self.build_grid()
        bad = parse_scenario(SCENE.replace("WAYPOINT b pos 4 0 0",
                                           "WAYPOINT b pos 4.6 0 0")).scenario
        with pytest.raises(WaypointInOccupiedVoxel):
            extract_problem(g, bad)

    def test_unobserved_grid_extracts_no_risk(self):
        scenario = parse_scenario(SCENE).scenario
        out = extract_problem(VoxelGrid((-2, -8, -8), (20, 32, 32), 0.5), scenario)
        assert [e.collision_probability for e in out.edges] == [0.0, 0.0]
        assert not any(w.is_critical for w in out.waypoints)

    def test_mission_and_obstacles_untouched(self):
        g, scenario = self.build_grid()
        out = extract_problem(g, scenario)
        assert out.obstacles == scenario.obstacles
        assert (out.start, out.final) == (scenario.start, scenario.final)


# A 4 x 4.5 x 3.5 m grid whose voxel boundaries fall on multiples of 0.5.
WALK_GRID = ((-1.0, -2.0, 0.5), (8, 9, 7), 0.5)
DIAGONAL = (1 / math.sqrt(2), 1 / math.sqrt(2), 0.0)
CORNER = (1 / math.sqrt(3), -1 / math.sqrt(3), 1 / math.sqrt(3))


def walk_both(scans, repeats, **probs):
    """Fold the scans into a fresh grid with the kernel and with the
    reference loop, ``repeats`` times over, and return both grids."""
    got, want = VoxelGrid(*WALK_GRID), VoxelGrid(*WALK_GRID)
    for _ in range(repeats):
        for scan in scans:
            integrate_scan(got, scan, **probs)
            reference_integrate_scan(want, scan, **probs)
    return got, want


unit_directions = st.one_of(
    st.sampled_from([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                     (0.0, -1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
                     DIAGONAL, CORNER]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3)
    .filter(lambda v: math.hypot(*v) > 0.1)
    .map(lambda v: tuple((np.asarray(v) / np.linalg.norm(v)).tolist())))
# on a voxel boundary (a t_max tie when two axes are), or anywhere around
# and outside the grid
coordinates = st.one_of(st.integers(-10, 18).map(lambda i: i * 0.5 - 1.0),
                        st.floats(-4.0, 8.0))
MAX_RANGE = 12.0
beams = st.tuples(unit_directions,
                  st.one_of(st.just(MAX_RANGE), st.floats(1e-3, MAX_RANGE)))
scans = st.builds(lambda position, beams: SonarScan(position, [d for d, _ in beams],
                                                    [r for _, r in beams], MAX_RANGE),
                  st.tuples(coordinates, coordinates, coordinates),
                  st.lists(beams, min_size=1, max_size=6))


class TestIntegrationMatchesReference:
    @pytest.mark.parametrize("seed", [7, 11, 123])
    def test_tanks_survey_grid(self, monkeypatch, seed):
        scenario = load_scenario(TANKS_SCN).scenario
        got = pipeline.map_from_sonar(scenario, seed, 0.05)
        monkeypatch.setattr(pipeline, "integrate_scan", reference_integrate_scan)
        want = pipeline.map_from_sonar(scenario, seed, 0.05)
        assert np.abs(got.log_odds).max() == LOG_ODDS_MAX  # clamps were hit
        assert_same_bits(got.log_odds, want.log_odds)

    @pytest.mark.parametrize("position, direction, rng", [
        ((0.2, 0.3, 1.2), (1.0, 0.0, 0.0), 2.6),
        ((0.2, 0.3, 1.2), (0.0, -1.0, 0.0), 1.9),
        ((0.0, 0.0, 1.0), DIAGONAL, 2.5),          # starts on a voxel corner
        ((0.5, 0.5, 1.5), CORNER, 2.0),
        ((-3.0, 0.3, 1.2), (1.0, 0.0, 0.0), 6.0),  # starts outside the grid
        ((2.7, 0.3, 1.2), (1.0, 0.0, 0.0), 6.0),   # leaves the grid
        ((0.2, 0.3, 1.2), DIAGONAL, MAX_RANGE),    # no return
        ((0.25, 0.3, 1.2), (1.0, 0.0, 0.0), 0.75),  # ends on a boundary
        ((0.25, 0.3, 1.2), (1.0, 0.0, 0.0), 0.75 - 1e-10),  # just short of it
        # meets a y and a z boundary at once, at t = 11/30: which comes first
        # turns on the last bit of the beam's length
        ((0.2, 0.3, 1.2), (2 / 11, 6 / 11, 9 / 11), 0.89),
    ], ids=["axis", "axis_negative", "corner_tie", "diagonal_3d", "outside_start",
            "leaves_grid", "max_range", "ends_on_boundary", "ends_short", "edge_tie"])
    @pytest.mark.parametrize("probs", [{}, {"p_hit": 0.9, "p_miss": 0.2}],
                             ids=["default", "sharp"])
    def test_named_rays(self, position, direction, rng, probs):
        scan = SonarScan(position, [direction], [rng], MAX_RANGE)
        got, want = walk_both([scan], 20, **probs)
        assert (got.log_odds != 0.0).any()
        assert_same_bits(got.log_odds, want.log_odds)

    @given(scans=st.lists(scans, min_size=1, max_size=4),
           repeats=st.integers(1, 12),
           p_hit=st.floats(0.51, 0.99), p_miss=st.floats(0.01, 0.49))
    @settings(max_examples=150, deadline=None)
    def test_random_rays(self, scans, repeats, p_hit, p_miss):
        got, want = walk_both(scans, repeats, p_hit=p_hit, p_miss=p_miss)
        assert_same_bits(got.log_odds, want.log_odds)

    def test_endpoint_rounding_to_start_hits_start_voxel(self):
        """A 1e-6 range at 1e11 m rounds back onto the start: the walk is a
        zero-length segment whose one voxel takes the hit."""
        origin = (1e11, 1e11, 1e11)
        position = (1e11 + 1.5, 1e11 + 0.5, 1e11 + 2.5)
        direction = (0.6, 0.8, 0.0)
        end = np.asarray(position) + np.asarray(direction) * 1e-6
        assert end.tolist() == list(position)
        g = VoxelGrid(origin, (4, 4, 4), 1.0)
        assert traverse_voxels(g, position, end) == [(1, 0, 2)]
        scan = SonarScan(position, [direction], [1e-6], 8.0)
        integrate_scan(g, scan)
        want = reference_integrate_scan(VoxelGrid(origin, (4, 4, 4), 1.0), scan)
        assert_same_bits(g.log_odds, want.log_odds)
        assert g.log_odds[1, 0, 2] == math.log(0.7 / (1.0 - 0.7))
        assert np.count_nonzero(g.log_odds) == 1


def scan_bits(scan) -> bytes:
    """Every float of a scan as raw bytes: equal bytes are equal bits,
    where == would let 0.0 equal -0.0."""
    arrays = (scan.position, scan.beams, scan.ranges, np.array([scan.max_range]))
    return b"".join(a.tobytes() for a in arrays)


def synthesis_outcome(fn, *args):
    """The scans ``fn`` makes and the next draw of its generator, or the
    type of the error it raises."""
    *head, rng, sigma = args
    try:
        made = fn(*head, rng, sigma)
    except ValueError as exc:
        return type(exc)
    return made, rng.normal()


def assert_synthesis_matches(obstacles, path, fan, sigma, seed=5):
    got = synthesis_outcome(synthesize_scans, obstacles, path, fan,
                            np.random.default_rng(seed), sigma)
    want = synthesis_outcome(reference_synthesize_scans, obstacles, path, fan,
                             np.random.default_rng(seed), sigma)
    if isinstance(want, type):
        assert got is want
    else:
        assert [scan_bits(s) for s in got[0]] == [scan_bits(s) for s in want[0]]
        assert got[1] == want[1]
    return got


BOXES = [Obstacle("near", (5.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
         Obstacle("beyond", (40.0, 0.0, 0.0), (1.0, 1.0, 1.0)),
         Obstacle("slab", (0.0, 8.0, 0.5), (3.0, 0.5, 0.25))]
AHEAD = BeamFan(count=1, max_range=15.0)  # yaw 0 points along (1.0, 0.0, 0.0)


class TestSynthesisMatchesReference:
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_tanks_survey_scans(self, monkeypatch, sigma):
        calls = []
        real = pipeline.synthesize_scans
        monkeypatch.setattr(pipeline, "synthesize_scans",
                            lambda *args: calls.append(args) or real(*args))
        pipeline.map_from_sonar(load_scenario(TANKS_SCN).scenario, 7, 0.05)
        obstacles, path, fan, _, _ = calls[0]
        # at sigma 0 both raise: two survey sensors sit inside a box
        assert_synthesis_matches(obstacles, path, fan, sigma)

    @pytest.mark.parametrize("path, ranges", [
        ([((0.0, 0.0, 0.0), 0.0)], [4.0]),          # zero y and z, inside both slabs
        ([((0.0, 0.0, 2.0), 0.0)], [15.0]),         # outside the z slab: a miss
        ([((0.0, 0.0, 0.0), math.pi)], [15.0]),     # misses every box
        ([((20.0, 0.0, 0.0), 0.0)], [15.0]),        # the only hit is beyond max range
        ([((0.0, 0.0, 0.0), 0.0), ((0.0, 0.0, 2.0), 0.0),
          ((0.0, 7.0, 0.5), math.pi / 2), ((1.0, 0.0, 0.0), 0.0)], [4.0, 15.0, 0.5, 3.0]),
    ], ids=["flat_inside", "flat_outside", "miss_all", "beyond_max", "mixed"])
    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_named_beams(self, path, ranges, sigma):
        scans, _ = assert_synthesis_matches(BOXES, path, AHEAD, sigma)
        exact = [s.ranges[0] for s in scans]
        if sigma == 0.0:
            assert exact == pytest.approx(ranges, abs=1e-9)
        else:  # only hits carry noise
            assert [r == 15.0 for r in exact] == [r == 15.0 for r in ranges]

    @pytest.mark.parametrize("sigma", [0.0, 0.05])
    def test_sensor_inside_a_box(self, sigma):
        path = [((0.0, 0.0, 0.0), 0.0), ((5.0, 0.0, 0.0), 1.0)]
        fan = BeamFan(count=9, max_range=15.0)
        got = assert_synthesis_matches(BOXES, path, fan, sigma)
        if sigma == 0.0:  # a zero range is no valid beam, in both
            assert got is ValueError
        else:
            assert got[0][1].ranges[0] < 0.2

    @given(path=st.lists(st.tuples(st.tuples(st.floats(-5, 45), st.floats(-5, 10),
                                             st.floats(-2, 2)),
                                   st.floats(-math.pi, math.pi)),
                         min_size=1, max_size=4),
           count=st.integers(1, 16), sigma=st.sampled_from([0.0, 0.05]))
    @settings(max_examples=80, deadline=None)
    def test_random_sensors(self, path, count, sigma):
        assert_synthesis_matches(BOXES, path, BeamFan(count=count, max_range=15.0), sigma)

    @given(data=st.data(), boxes=st.lists(st.builds(
               lambda c, h: Obstacle("box", c, h),
               st.tuples(*[st.floats(-5, 20)] * 3), st.tuples(*[st.floats(0.1, 4)] * 3)),
               max_size=4),
           count=st.integers(1, 16), sigma=st.sampled_from([0.0, 0.05, 3.0]))
    @settings(max_examples=150, deadline=None)
    def test_random_surveys(self, data, boxes, count, sigma):
        """Random boxes, and sensor paths of any length, some sensors on a
        box face.  Every fan beam is parallel to the z slabs, and at yaw 0
        an odd fan's middle beam to the y slabs as well."""
        free = st.tuples(*[st.floats(-5, 25)] * 3)
        faces = st.builds(
            lambda box, axis, side: tuple(c + side * h if k == axis else c for k, (c, h)
                                          in enumerate(zip(box.center, box.half_extents))),
            st.sampled_from(boxes), st.integers(0, 2), st.sampled_from([-1, 1]))
        positions = st.one_of(free, faces) if boxes else free
        yaws = st.one_of(st.just(0.0), st.floats(-math.pi, math.pi))
        path = data.draw(st.lists(st.tuples(positions, yaws), max_size=5), label="path")
        assert_synthesis_matches(boxes, path, BeamFan(count=count, max_range=15.0), sigma)


def clamped_grid():
    g = grid()
    g.log_odds[::2] = LOG_ODDS_MAX
    g.log_odds[1::3] = LOG_ODDS_MIN
    return g


def block_grid(count):
    """Exactly ``count`` observed voxels, spread over the clamp range, the
    first two just past the evidence threshold on either side."""
    g = grid(dims=(20, 20, 11))
    values = np.linspace(LOG_ODDS_MIN, LOG_ODDS_MAX, count)
    values[np.abs(values) <= 0.0105] = -0.0105
    values[:2] = (0.0105, -0.0105)[:count]
    g.log_odds.reshape(-1)[:count] = values
    assert len(g.observed_voxels()) == count
    return g


class TestGridCsv:
    @pytest.mark.parametrize("make", [
        lambda: pipeline.map_from_sonar(load_scenario(TANKS_SCN).scenario, 7, 0.05),
        grid,
        clamped_grid,
        lambda: block_grid(1),
        lambda: block_grid(CSV_BLOCK_ROWS),
        lambda: block_grid(CSV_BLOCK_ROWS + 1),
    ], ids=["tanks_seed7", "empty", "clamped", "one_row", "one_block", "block_and_one"])
    def test_bytes_equal_csv_writer_reference(self, tmp_path, make):
        g = make()
        g.export_csv(tmp_path / "got.csv")
        reference_export_csv(g, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\r\n") == len(g.observed_voxels()) + 1
