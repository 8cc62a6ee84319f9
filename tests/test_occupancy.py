"""Occupancy grid updates, ray traversal, and problem extraction; the
compiled slab test, voxel walk, extraction scan and grid.csv rows against
the numpy and Python code they replaced."""

import csv
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TANKS_SCN, edge_between
from riskplan import kernel, pipeline
from riskplan.occupancy import (DEFAULT_KAPPA, DEFAULT_P_HIT, DEFAULT_P_MISS,
                                EDGE_RISK_CAP, EVIDENCE_EPS, LOG_ODDS_MAX, LOG_ODDS_MIN,
                                MAX_FLOAT_SPACING, TAU_OCC, BeamFan, SonarScan, VoxelGrid,
                                _max_occupancy_near_segments, _nearest_hits, extract_problem,
                                integrate_scan, logistic, synthesize_scans, traverse_voxels)
from riskplan.scenario import (CSV_BLOCK_ROWS, EdgeDef, Obstacle, Scenario, Waypoint,
                               load_scenario, parse_scenario)


def grid(res=1.0, dims=(10, 10, 10), origin=(0.0, 0.0, 0.0)):
    return VoxelGrid(origin, dims, res)


def reference_integrate_scan(grid, scan, p_hit=DEFAULT_P_HIT, p_miss=DEFAULT_P_MISS):
    """The per-voxel Python update loop the compiled kernel replaced, each
    beam walked from its own origin."""
    l_hit = math.log(p_hit / (1.0 - p_hit))
    l_miss = math.log(p_miss / (1.0 - p_miss))
    for pos, d, r in zip(scan.position, scan.beams, scan.ranges):
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


def reference_nearest_hits(origins, dirs, lo, hi, max_range):
    """The survey-wide numpy slab test the kernel's `nearest_hits` replaced,
    on beams (dirs, (n, 3)) from their own origins (n, 3): per beam, the
    range to the nearest box within max_range, or inf.  Each comparison is
    the one Python's min or max makes, taken axis by axis and then box by
    box."""
    origin = origins[:, None, :]
    d = dirs[:, None, :]
    flat = d == 0.0  # parallel to a slab: hit only from inside it
    step = np.where(flat, 1.0, d)
    with np.errstate(over="ignore"):  # a tiny component gives inf, as it should
        t1 = (lo - origin) / step
        t2 = (hi - origin) / step
    t_near = np.full(t1.shape[:2], -math.inf)
    t_far = np.full(t1.shape[:2], math.inf)
    miss = np.zeros(t1.shape[:2], dtype=bool)
    for k in range(3):
        a, b, parallel = t1[..., k], t2[..., k], flat[..., k]
        near = np.where(b < a, b, a)
        far = np.where(b > a, b, a)
        t_near = np.where(~parallel & (near > t_near), near, t_near)
        t_far = np.where(~parallel & (far < t_far), far, t_far)
        miss |= parallel & ~((lo[:, k] <= origin[..., k]) & (origin[..., k] <= hi[:, k]))
    r = np.where(0.0 > t_near, 0.0, t_near)
    hit = ~miss & ~(t_near > t_far) & ~(t_far < 0) & (r <= max_range)
    nearest = np.full(r.shape[:1], math.inf)
    for j in range(r.shape[1]):
        nearest = np.where(hit[:, j] & (r[:, j] < nearest), r[:, j], nearest)
    return nearest


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


def reference_max_occupancy_near_segment(centers, log_odds, a, b, radius):
    """Max occupancy over the observed voxels (centres (n, 3), log-odds
    (n,)) within radius of segment ab: the pass over every observed voxel
    of the map that the per-segment block replaced.  Like it, it scales a
    long ab and the centres down by a power of two before working out `t`,
    so that ab @ ab cannot overflow, measures from b where `t` clips to 1,
    and takes as a the end whose largest absolute coordinate is the
    smaller."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.max(np.abs(b)) < np.max(np.abs(a)):
        a, b = b, a
    ab = b - a
    exponent = min(-int(np.frexp(np.max(np.abs(ab)))[1]), 0)
    ab_s = np.ldexp(ab, exponent)
    denom = float(ab_s @ ab_s)
    if denom == 0.0:
        d = np.linalg.norm(centers - a, axis=1)
    else:
        t = np.clip(np.ldexp(centers - a, exponent) @ ab_s / denom, 0.0, 1.0)[:, None]
        d = np.linalg.norm(centers - np.where(t == 1.0, b, a + t * ab), axis=1)
    near = log_odds[d <= radius]
    if len(near) == 0:
        return 0.0
    return float(1.0 / (1.0 + np.exp(-np.max(near))))


def reference_segment_distances(points, a, b):
    """Each point's (rows of (n, 3)) distance to segment ab, in numpy's
    elementwise arithmetic: the per-segment pass the kernel's extraction
    scan replaced.  It scales ab and the points down by the power of two
    that brings ab's largest component into [0.5, 1), if it is larger,
    measures a point whose `t` clips to 1 from b itself, and measures from
    the end whose largest absolute coordinate is the smaller (a, on a
    tie)."""
    if max(map(abs, b.tolist())) < max(map(abs, a.tolist())):
        a, b = b, a
    ab = b - a
    scale = math.ldexp(1.0, min(-math.frexp(max(map(abs, ab.tolist())))[1], 0))
    ab_s = ab * scale
    denom = float(ab_s @ ab_s)
    if denom == 0.0:
        return np.linalg.norm(points - a, axis=1)
    rel = (points - a) * scale
    x, y, z = ab_s.tolist()
    t = np.clip((rel[:, 0] * x + rel[:, 1] * y + rel[:, 2] * z) / denom, 0.0, 1.0)
    closest = a + t[:, None] * ab
    closest[t == 1.0] = b  # a + (b - a) loses b's small coordinates when a is huge
    return np.linalg.norm(points - closest, axis=1)


def reference_block_max_occupancy(grid, a, b, radius):
    """Max occupancy over the observed voxels within radius of segment ab,
    read from the segment's block of the grid in numpy: the per-segment
    pass the kernel's extraction scan replaced."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    res, dims = grid.resolution, np.array(grid.dimensions, dtype=float)
    first = np.clip(np.floor((np.minimum(a, b) - radius - grid.origin) / res) - 1, 0, dims)
    end = np.clip(np.floor((np.maximum(a, b) + radius - grid.origin) / res) + 2, 0, dims)
    first, end = first.astype(int), end.astype(int)
    block = grid.log_odds[tuple(slice(i, j) for i, j in zip(first, end))]
    observed = np.argwhere(np.abs(block) > EVIDENCE_EPS)
    centers = grid.origin + (observed + first + 0.5) * res
    near = block[tuple(observed.T)][reference_segment_distances(centers, a, b) <= radius]
    if len(near) == 0:
        return 0.0
    return float(1.0 / (1.0 + np.exp(-np.max(near))))


def observed_indexes(grid):
    """The (n, 3) indexes of the voxels carrying evidence, in index order."""
    return np.argwhere(np.abs(grid.log_odds) > EVIDENCE_EPS)


def observed_centers(grid):
    """The observed voxels' centres and log-odds, in index order."""
    observed = observed_indexes(grid)
    return grid.origin + (observed + 0.5) * grid.resolution, grid.log_odds[tuple(observed.T)]


def reference_extract_problem(grid, scenario, kappa=DEFAULT_KAPPA):
    """The whole-map extraction `extract_problem` replaced: every waypoint
    and edge check reads every observed voxel of the grid."""
    clearance = scenario.critical_radius
    positions = scenario.positions()
    centers, log_odds = observed_centers(grid)
    new_waypoints = []
    for w in scenario.waypoints:
        own = grid.occupancy_at(w.position)
        if own > TAU_OCC and abs(own - 0.5) > 1e-12:
            raise ValueError(f"waypoint {w.id!r} sits in a voxel with occupancy {own:.3f}")
        near = reference_max_occupancy_near_segment(centers, log_odds, w.position,
                                                    w.position, clearance)
        new_waypoints.append(replace(w, is_critical=near > TAU_OCC))
    new_edges = []
    for e in scenario.edges:
        occ = reference_max_occupancy_near_segment(centers, log_odds, positions[e.a],
                                                   positions[e.b], clearance)
        risk = 0.0 if occ <= TAU_OCC else min(kappa * occ, EDGE_RISK_CAP)
        new_edges.append(replace(e, collision_probability=risk))
    return replace(scenario, waypoints=new_waypoints, edges=new_edges)


def reference_export_csv(grid, path):
    """The per-voxel csv.writer loop `VoxelGrid.export_csv` replaced, kept
    as its reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ix", "iy", "iz", "occupancy"])
        observed = observed_indexes(grid)
        log_odds = grid.log_odds[tuple(observed.T)]
        for (ix, iy, iz), l in zip(observed.tolist(), log_odds.tolist()):
            writer.writerow([ix, iy, iz, f"{logistic(l):.6f}"])


def same_bits(got, want) -> bool:
    """Whether two lists of floats, or two outcomes of `quietly`, agree bit
    for bit, where == would let 0.0 equal -0.0."""
    if not isinstance(got, list) or not isinstance(want, list):
        return got == want
    return np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()


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
        {0: [(0.5, 0.5, 0.5)] * 2}, {0: [(0.5, 0.5, -math.inf)]},
        {1: [(1.0, 0.0)]}, {1: [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]},
        {1: [(0.6, 0.6, 0.0)]}, {1: [(math.nan, 0.0, 0.0)]},
        {2: [0.0]}, {2: [math.nan]}, {2: [8.5]}, {2: [math.inf], 3: math.inf},
    ], ids=["position_2d", "position_nan", "origins_n2", "origin_inf", "beams_n2",
            "ranges_short", "not_unit", "direction_nan", "range_zero", "range_nan",
            "range_above_max", "max_range_inf"])
    def test_malformed_scan_rejected_when_made(self, change):
        args = [change.get(i, a) for i, a in enumerate(AHEAD_BEAM)]
        with pytest.raises(ValueError):
            SonarScan(*args)

    @pytest.mark.parametrize("sigma", [-1.0, math.nan, math.inf])
    def test_bad_noise_sigma_names_its_setting(self, sigma):
        with pytest.raises(ValueError) as info:
            synthesize_scans(BOXES, [((0.0, 0.0, 0.0), 0.0)], AHEAD,
                             np.random.default_rng(0), sigma)
        assert str(info.value) == f"sonar_noise_sigma must be finite and >= 0, got {sigma!r}"

    def test_arrays_are_read_only_copies(self):
        origins, ranges = np.array([AHEAD_BEAM[0]]), np.array([3.0])
        scan = SonarScan(origins, AHEAD_BEAM[1], ranges, 8.0)
        origins[0, 0], ranges[0] = 99.0, 99.0
        assert (scan.position.tolist(), scan.ranges.tolist()) == ([[0.5, 0.5, 0.5]], [3.0])
        assert (scan.position.shape, scan.beams.shape, scan.max_range) == ((1, 3), (1, 3), 8.0)
        for a in (scan.position, scan.beams, scan.ranges):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_one_position_is_every_beams_origin(self):
        scan = SonarScan((0.5, 1.5, 2.5), np.eye(3), [1.0, 2.0, 3.0], 8.0)
        assert scan.position.tolist() == [[0.5, 1.5, 2.5]] * 3
        assert scan.position.flags.c_contiguous and not scan.position.flags.writeable
        empty = SonarScan((0.5, 1.5, 2.5), np.empty((0, 3)), [], 8.0)
        assert (empty.position.shape, empty.beams.shape, empty.ranges.shape) \
            == ((0, 3), (0, 3), (0,))


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

    @pytest.mark.parametrize("resolution", [0.0, -0.5, math.nan, math.inf])
    def test_bad_resolution_refused_when_made(self, monkeypatch, resolution):
        # at resolution 0 the kernel's walk never passes its stop and one
        # beam did not return within 20 s
        monkeypatch.setattr(kernel, "load", lambda: pytest.fail("kernel called"))
        with pytest.raises(ValueError) as info:
            integrate_scan(VoxelGrid((0, 0, 0), (10, 10, 10), resolution),
                           hit_scan((0.5, 0.5, 0.5), (1, 0, 0), 3.0))
        assert str(info.value) == (f"grid resolution must be finite and > 0, "
                                   f"got {resolution!r}")

    @pytest.mark.parametrize("origin", [(0.0, 0.0), (0.0, math.inf, 0.0),
                                        (math.nan, 0.0, 0.0), (0.0, 0.0, -math.inf)])
    def test_bad_origin_refused_when_made(self, monkeypatch, origin):
        # a non-finite origin reached the kernel's cast of floor(inf) to long
        monkeypatch.setattr(kernel, "load", lambda: pytest.fail("kernel called"))
        with pytest.raises(ValueError) as info:
            integrate_scan(VoxelGrid(origin, (10, 10, 10), 1.0),
                           hit_scan((0.5, 0.5, 0.5), (1, 0, 0), 3.0))
        assert str(info.value) == f"grid origin must be 3 finite numbers, got {origin!r}"

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
    survey-wide slab test, as one beam (inf for no hit)."""
    want = ray_box_range(origin, direction, box)
    got = _nearest_hits(np.array([origin], dtype=float), np.array([direction], dtype=float),
                        np.subtract([box.center], [box.half_extents]),
                        np.add([box.center], [box.half_extents]), math.inf)
    assert got.tolist() == [math.inf if want is None else want]
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


def assert_hits_match(origins, dirs, boxes, max_range=15.0):
    """The kernel's slab test against the numpy one it replaced, bit for
    bit, on beams dirs (n, 3) from their origins (n, 3) and boxes (centre,
    half extents); returns the kernel's ranges."""
    origins = np.array(origins, dtype=float).reshape(-1, 3)
    dirs = np.array(dirs, dtype=float).reshape(-1, 3)
    boxes = np.array(boxes, dtype=float).reshape(-1, 2, 3)
    lo, hi = boxes[:, 0] - boxes[:, 1], boxes[:, 0] + boxes[:, 1]
    got = _nearest_hits(origins, dirs, lo, hi, max_range)
    want = reference_nearest_hits(origins, dirs, lo, hi, max_range)
    assert got.tobytes() == want.tobytes()
    return got


# components parallel to a slab (zeros of either sign), tiny, unit or any
beam_components = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-310, -1e-310]),
                            st.floats(-1.0, 1.0))
# a lattice holding every face of BOXES, anywhere in and around them
box_coordinates = st.one_of(st.integers(-8, 44).map(lambda i: i * 0.25), st.floats(-6, 12))
# up to three boxes (centre, half extents) on that lattice
box_lists = st.lists(st.tuples(st.tuples(*[box_coordinates] * 3),
                               st.tuples(*[st.sampled_from([0.25, 0.5, 1.0])] * 3)), max_size=3)


class TestSlabTestMatchesReference:
    BOX = [((5.0, 0.0, 0.0), (1.0, 1.0, 1.0))]  # x in [4, 6], y and z in [-1, 1]

    @pytest.mark.parametrize("origin, direction, want", [
        ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), 4.0),      # parallel to the y and z slabs
        ((0.0, 0.0, 0.0), (1.0, -0.0, -0.0), 4.0),    # ... with -0.0 components
        ((0.0, 1.0, 1.0), (1.0, 0.0, -0.0), 4.0),     # along an edge of the box
        ((0.0, 1.5, 0.0), (1.0, 0.0, 0.0), math.inf),  # parallel, outside the y slab
        ((-0.0, 0.0, 0.0), (0.0, 0.0, 1.0), math.inf),  # parallel to the x slab, outside
        ((4.0, 0.0, 0.0), (1.0, 0.0, 0.0), 0.0),      # on a face, entering
        ((6.0, 0.0, 0.0), (-1.0, 0.0, 0.0), -0.0),    # on a face, entering: t = -0.0
        ((4.0, 0.0, 0.0), (-1.0, 0.0, 0.0), 0.0),     # on a face, leaving
        ((5.0, 0.5, 0.0), (0.0, 1.0, 0.0), 0.0),      # inside
        ((5.0, 0.5, 0.0), (-0.0, -1.0, -0.0), 0.0),   # inside, -0.0 components
        ((20.0, 0.0, 0.0), (-1.0, 0.0, 0.0), 14.0),   # in range
        ((21.5, 0.0, 0.0), (-1.0, 0.0, 0.0), math.inf),  # beyond max range
    ])
    def test_named_beams(self, origin, direction, want):
        (got,) = assert_hits_match([origin], [direction], self.BOX)
        assert got.tobytes() == np.float64(want).tobytes()

    def test_nearest_of_several_boxes(self):
        boxes = [(o.center, o.half_extents) for o in BOXES]
        got = assert_hits_match([(0.0, 0.0, 0.5)] * 2 + [(0.0, 7.0, 0.5)] * 2,
                                [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)] * 2, boxes, math.inf)
        assert got.tolist() == [4.0, 7.5, math.inf, 0.5]

    def test_no_box_and_no_beam(self):
        assert assert_hits_match([(0.0, 0.0, 0.0)], [(1.0, 0.0, 0.0)], []).tolist() \
            == [math.inf]
        assert assert_hits_match(np.empty((0, 3)), np.empty((0, 3)), self.BOX).shape == (0,)

    @given(data=st.data(), scans=st.integers(1, 3), beams=st.integers(1, 4),
           boxes=box_lists,
           max_range=st.sampled_from([15.0, math.inf, 0.0]))
    @settings(max_examples=200, deadline=None)
    def test_random_beams(self, data, scans, beams, boxes, max_range):
        """Scans laid out as a survey is, each origin repeated for its
        beams: origins on the lattice of the boxes' faces, inside, outside
        or on them; beam components of 0.0, -0.0, tiny or any size."""
        origins = data.draw(st.lists(st.tuples(*[box_coordinates] * 3),
                                     min_size=scans, max_size=scans), label="origins")
        dirs = data.draw(st.lists(st.tuples(*[beam_components] * 3), min_size=scans * beams,
                                  max_size=scans * beams), label="dirs")
        assert_hits_match(np.repeat(origins, beams, axis=0), dirs, [*boxes, *self.BOX],
                          max_range)

    @given(beams=st.lists(st.tuples(st.tuples(*[box_coordinates] * 3),
                                    st.tuples(*[beam_components] * 3)), min_size=2, max_size=8),
           boxes=box_lists,
           max_range=st.sampled_from([15.0, math.inf, 0.0]))
    @settings(max_examples=200, deadline=None)
    def test_beams_from_their_own_origins(self, beams, boxes, max_range):
        """One call whose every beam starts from its own origin: each
        range is the one its beam's origin gives, not the first beam's."""
        origins, dirs = zip(*beams)
        assert_hits_match(origins, dirs, [*boxes, *self.BOX], max_range)

    @pytest.mark.parametrize("origins, dirs, lo", [
        ((2, 3), (3, 3), (1, 3)),     # origins and directions of different counts
        ((2, 3), (2, 3), (1, 2)),     # corners of 2 coordinates
        ((1, 2, 3), (1, 2, 3), (1, 3)),  # a (scans, beams, 3) layout
    ])
    def test_malformed_layout_rejected(self, origins, dirs, lo):
        with pytest.raises(ValueError, match="need \\(n, 3\\) directions"):
            _nearest_hits(np.zeros(origins), np.zeros(dirs), np.zeros(lo), np.zeros(lo), 1.0)


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
        with pytest.raises(ValueError,
                           match=r"waypoint 'b' sits in a voxel with occupancy 0\.\d{3}"):
            extract_problem(g, bad)

    def test_unobserved_grid_extracts_no_risk(self):
        scenario = parse_scenario(SCENE).scenario
        out = extract_problem(VoxelGrid((-2, -8, -8), (20, 32, 32), 0.5), scenario)
        assert [e.collision_probability for e in out.edges] == [0.0, 0.0]
        assert not any(w.is_critical for w in out.waypoints)

    @pytest.mark.parametrize("far", [1e10, 1e20, 1e160, 1e300])
    def test_huge_edge_reads_the_voxels_along_it(self, far):
        """An edge whose squared length overflows sees the clamped voxel it
        passes through, as a shorter one does, given from either end.  It
        once read only the voxels near its first end, and then, given from
        its far end, only those near its small end."""
        g = grid(dims=(20, 1, 1))
        g.log_odds[15, 0, 0] = LOG_ODDS_MAX
        for edge in (EdgeDef("a", "b", 0.0), EdgeDef("b", "a", 0.0)):
            scenario = Scenario(
                waypoints=[Waypoint("a", (0.5, 0.5, 0.5)), Waypoint("b", (far, 0.5, 0.5))],
                edges=[edge], start="a", final="b")
            risk = extract_problem(g, scenario).edges[0].collision_probability
            assert risk == DEFAULT_KAPPA * logistic(LOG_ODDS_MAX)
            assert round(risk, 3) == 0.291

    @pytest.mark.parametrize("far", [1e150, 1e300])
    def test_point_beyond_the_small_end_is_measured_from_it(self, far):
        """A voxel centre past the small end b of an edge from a huge a is
        measured from b itself, exactly 15.0 away: near at a radius of 15.0
        and not at the float below.  a + (b - a) would put that end at
        x = 0, 0.5 from the centre."""
        g = grid(dims=(1, 1, 1))
        g.log_odds[0, 0, 0] = LOG_ODDS_MAX
        edge = [(far, 0.5, 0.5)], [(15.5, 0.5, 0.5)]
        assert _max_occupancy_near_segments(g, *edge, 15.0)[0] > TAU_OCC
        assert _max_occupancy_near_segments(g, *edge, math.nextafter(15.0, 0)) == [0.0]

    @pytest.mark.parametrize("a", [0.2, 0.3])
    def test_point_past_the_far_end_is_measured_from_it(self, a):
        """A voxel centre at x = 1.0, past the end b = 0.9 of an edge from
        x = a, is measured from b itself, 1.0 - 0.9 away: near at that
        radius and not at the float below.  a + (b - a) is 0.9 less one
        float at a = 0.2, and one float more at a = 0.3."""
        g = VoxelGrid((0.75, 0.25, 0.25), (1, 1, 1), 0.5)
        g.log_odds[...] = LOG_ODDS_MAX
        edge = [(a, 0.5, 0.5)], [(0.9, 0.5, 0.5)]
        assert a + (0.9 - a) != 0.9
        d = 1.0 - 0.9
        assert _max_occupancy_near_segments(g, *edge, d)[0] > TAU_OCC
        assert _max_occupancy_near_segments(g, *edge, math.nextafter(d, 0)) == [0.0]

    def test_grid_with_coarse_floats_is_refused(self):
        """Around 2^55 floats are 8 apart, so a grid there of unit voxels
        rounds voxel 3's centre, 2^55 + 3.5, to 2^55, and the point 2^55
        plus 3.5 to 2^55 too: extraction read 0.0 near that point at radius
        3.5, where the whole map reads 0.971.  Such a grid is refused; at
        voxels of 64, floats there are an eighth of a voxel apart, and the
        grid is made."""
        with pytest.raises(ValueError) as info:
            VoxelGrid((2.0 ** 55, 0.0, 0.0), (8, 1, 1), 1.0)
        assert str(info.value) == ("grid resolution 1.0 is too fine for a grid reaching "
                                   "3.6028797018963976e+16, where floats are 8.0 apart")
        assert MAX_FLOAT_SPACING * 64.0 == math.ulp(2.0 ** 55 + 8 * 64.0)
        VoxelGrid((2.0 ** 55, 0.0, 0.0), (8, 1, 1), 64.0)
        with pytest.raises(ValueError):
            VoxelGrid((2.0 ** 55, 0.0, 0.0), (8, 1, 1), math.nextafter(64.0, 0))
        with pytest.raises(ValueError):  # a side so long that the far corner is inf
            VoxelGrid((0.0, 0.0, 0.0), (8, 1, 1), 1e308)

    def test_accepted_far_grids_match_the_whole_map(self):
        """A seeded search of grids at 2^40 to 2^55, at the finest
        resolution each is made with or a little coarser: extraction finds
        the whole map's maximum near every segment between points on the
        voxel centres, corners and faces around them, at radii of whole and
        half voxels.  With floats four voxels apart, 32 times finer than
        the finest grid made, the same search finds misses."""
        for seed in range(150):
            rng = np.random.default_rng(seed)
            far = [float(rng.choice([-1.0, 1.0])) * math.ldexp(1.0 + rng.random() / 2, e)
                   for e in rng.integers(40, 56, 3).tolist()]
            origin = np.where(rng.random(3) < 0.8, far, rng.uniform(-4.0, 4.0, 3))
            dims = tuple(rng.integers(1, 9, 3).tolist())
            res = (math.ulp(float(np.abs(origin).max())) / MAX_FLOAT_SPACING
                   * float(rng.choice([1.0, 1.0, 1.25, 1.5, 2.0])))
            g = VoxelGrid(origin, dims, res)
            g.log_odds[...] = np.where(rng.random(dims) < 0.3, rng.choice(
                [LOG_ODDS_MAX, 2.0, -1.0, LOG_ODDS_MIN], dims), 0.0)
            points = [g.origin + (rng.integers(-2, np.array(dims) + 2)
                                  + rng.choice([0.0, 0.25, 0.5, 1.0], 3)) * res
                      for _ in range(6)]
            radius = float(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 3.5])) * res
            starts, ends = zip(*[(a, b) for a in points for b in points[:3]])
            centers, log_odds = observed_centers(g)
            got = _max_occupancy_near_segments(g, starts, ends, radius)
            assert same_bits(got, [reference_max_occupancy_near_segment(
                centers, log_odds, a, b, radius) for a, b in zip(starts, ends)]), seed

    def test_mission_and_obstacles_untouched(self):
        g, scenario = self.build_grid()
        out = extract_problem(g, scenario)
        assert out.obstacles == scenario.obstacles
        assert (out.start, out.final) == (scenario.start, scenario.final)


def quietly(fn, *args):
    """What ``fn`` returns, or its error's type and text.  A segment
    reaching ~1e300 overflows numpy's arithmetic on the way to the same
    result, in both versions; those warnings are not compared."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return fn(*args)
        except ValueError as exc:
            return type(exc), str(exc)


# on the lattice of voxel centres and faces, anywhere in and around the
# grid, or far off
extraction_coordinates = st.one_of(st.integers(-8, 24).map(lambda i: i * 0.25),
                                   st.floats(-6.0, 10.0),
                                   st.sampled_from([1e300, -1e300]))


class TestExtractionMatchesReference:
    @given(seed=st.integers(0, 2**32 - 1),
           dims=st.tuples(*[st.integers(0, 9)] * 3),
           origin=st.tuples(*[st.integers(-4, 4).map(lambda i: i * 0.5)] * 3),
           res=st.sampled_from([0.25, 0.5, 1.0]),
           density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
           positions=st.lists(st.tuples(*[extraction_coordinates] * 3),
                              min_size=1, max_size=5),
           pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6),
           radius=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),
                            st.floats(0.0, 4.0)),
           kappa=st.sampled_from([DEFAULT_KAPPA, 1.0]),
           free_waypoints=st.sampled_from([True, True, True, False]))
    @settings(max_examples=300, deadline=None)
    def test_random_maps(self, seed, dims, origin, res, density, positions, pairs,
                         radius, kappa, free_waypoints):
        """Random log-odds, or none, on grids of any shape, some empty;
        waypoints in, around and far outside them, edges between any two
        of them, a waypoint with itself included; radii of 0 and on the
        lattice, where voxel centres fall exactly at the radius.  The
        scenarios are equal, and so is the maximum near every segment
        between two of the points."""
        rng = np.random.default_rng(seed)
        g = VoxelGrid(origin, dims, res)
        shape = g.log_odds.shape
        special = rng.choice([LOG_ODDS_MIN, LOG_ODDS_MAX, 0.01, -0.0105, 0.3], size=shape)
        values = np.where(rng.random(shape) < 0.2, special, rng.uniform(-3.5, 3.5, shape))
        g.log_odds[...] = np.where(rng.random(shape) < density, values, 0.0)
        if free_waypoints:  # a sensor's own voxel is seldom occupied
            for p in positions:
                if g.in_bounds(idx := g.index_of(p)):
                    g.log_odds[idx] = LOG_ODDS_MIN
        scenario = Scenario(
            waypoints=[Waypoint(f"w{i}", p) for i, p in enumerate(positions)],
            edges=[EdgeDef(f"w{i % len(positions)}", f"w{j % len(positions)}", 0.5)
                   for i, j in pairs],
            start="w0", final="w0", critical_radius=radius)
        assert (quietly(extract_problem, g, scenario, kappa)
                == quietly(reference_extract_problem, g, scenario, kappa))
        centers, log_odds = observed_centers(g)
        starts, ends = zip(*[(a, b) for a in positions for b in positions])
        got = quietly(_max_occupancy_near_segments, g, starts, ends, radius)
        assert same_bits(got, [quietly(reference_max_occupancy_near_segment, centers,
                                       log_odds, a, b, radius)
                               for a, b in zip(starts, ends)])
        assert same_bits(got, [quietly(reference_block_max_occupancy, g, a, b, radius)
                               for a, b in zip(starts, ends)])

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_voxel_centre_exactly_at_the_radius(self, axis, side):
        """A centre exactly the radius beyond a segment's end, on either
        side along each axis, is near it, at the block's first or last
        index; a centre a quarter voxel further is not."""
        g = grid(dims=(11, 11, 11))
        mid = np.full(3, 5.5)
        voxel = [5, 5, 5]
        voxel[axis] += 5 * side  # centre 5.0 from mid, along the axis
        g.log_odds[tuple(voxel)] = LOG_ODDS_MAX
        for reach, critical in ((3.0, True), (2.75, False)):
            end = mid.copy()
            end[axis] += reach * side
            scenario = Scenario(
                waypoints=[Waypoint("a", tuple(mid)), Waypoint("b", tuple(end))],
                edges=[EdgeDef("a", "b", 0.0)], start="a", final="b", critical_radius=2.0)
            got = extract_problem(g, scenario)
            assert got == reference_extract_problem(g, scenario)
            assert [w.is_critical for w in got.waypoints] == [False, critical]
            assert (got.edges[0].collision_probability > 0) is critical

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_block_clipped_at_the_grid_edge(self, axis, side):
        """Segments outside the grid, along a face, and crossing it, whose
        blocks reach past the grid's edge: the clipped block holds the face
        voxels 1.5 from them, as both references find."""
        rng = np.random.default_rng(axis * 2 + (side > 0))
        g = grid(dims=(11, 11, 11))
        g.log_odds[...] = np.where(rng.random(g.dimensions) < 0.3,
                                   rng.uniform(LOG_ODDS_MIN, LOG_ODDS_MAX, g.dimensions), 0.0)
        face = [slice(None)] * 3
        face[axis] = 0 if side < 0 else -1
        g.log_odds[tuple(face)] = LOG_ODDS_MAX
        outside = 5.5 + side * 6.5  # 1.5 beyond the face voxels' centres
        starts, ends = [], []
        for a, b in (((outside, 2.0, 2.0), (outside, 9.0, 9.0)),
                     ((outside, 5.5, 5.5), (5.5, 5.5, 5.5)),
                     ((outside, 0.5, 10.5), (outside, 0.5, 10.5))):
            starts.append(np.roll(a, axis))
            ends.append(np.roll(b, axis))
        got = _max_occupancy_near_segments(g, starts, ends, 1.5)
        centers, log_odds = observed_centers(g)
        assert same_bits(got, [reference_max_occupancy_near_segment(centers, log_odds, a, b, 1.5)
                               for a, b in zip(starts, ends)])
        assert same_bits(got, [reference_block_max_occupancy(g, a, b, 1.5)
                               for a, b in zip(starts, ends)])
        assert got[0] == got[2] == float(1.0 / (1.0 + np.exp(-LOG_ODDS_MAX)))

    def test_far_off_waypoint_reads_no_wrapped_block(self):
        """A block reaching 1e300 is clipped to the grid before its indexes
        are cast: the edge sees the wall by its near end only, and the far
        waypoint sees nothing."""
        g, scenario = TestExtraction().build_grid()
        positions = {"a": (0.0, 0.0, 0.0), "b": (4.0, 0.0, 0.0), "c": (1e300, 0.0, 0.0)}
        far = replace(scenario, waypoints=[Waypoint(k, p) for k, p in positions.items()],
                      edges=[EdgeDef("b", "c", 0.0), EdgeDef("a", "c", 0.0)])
        got = quietly(extract_problem, g, far, DEFAULT_KAPPA)
        assert got == quietly(reference_extract_problem, g, far, DEFAULT_KAPPA)
        assert [w.is_critical for w in got.waypoints] == [False, True, False]
        assert got.edges[0].collision_probability > 0

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 200),
           scale=st.sampled_from([1.0, 1e3, 1e-3]), zero_length=st.booleans())
    @example(seed=7, rows=7, scale=1.0, zero_length=False)
    @settings(max_examples=100, deadline=None)
    def test_row_results_do_not_depend_on_the_slice(self, seed, rows, scale, zero_length):
        """A voxel's distance to a segment has the same bits whether numpy
        computes it among every observed voxel of the map, among a block's,
        a fresh array of some of them, or alone, and whether the kernel
        measures it in its scan: the extraction's equality with the
        whole-map pass rests on it.  The kernel's distance is read off the
        radius at which the voxel, alone in a one-voxel grid, turns near:
        at numpy's distance, and not at the float below it.  (With
        OpenBLAS, `(points - a) @ ab` fails at the explicit example.)"""
        rng = np.random.default_rng(seed)
        res = 0.5 * scale
        corners = rng.uniform(-20, 20, (rows, 3)) * scale
        points = corners + 0.5 * res  # each corner's voxel centre, as the kernel places it
        a = rng.uniform(-20, 20, 3) * scale
        b = a if zero_length else a + rng.uniform(-5, 5, 3) * scale
        whole = reference_segment_distances(points, a, b)
        singles = np.eye(rows, dtype=bool)
        for keep in (rng.random(rows) < 0.3, rng.random(rows) < 0.9,
                     np.arange(rows) >= rng.integers(rows), *singles):
            part = reference_segment_distances(np.ascontiguousarray(points[keep]), a, b)
            assert part.tobytes() == whole[keep].tobytes()
        for corner, d in zip(corners, whole.tolist()):
            g = VoxelGrid(corner, (1, 1, 1), res)
            g.log_odds[...] = LOG_ODDS_MAX
            assert _max_occupancy_near_segments(g, [a], [b], d)[0] > TAU_OCC
            assert _max_occupancy_near_segments(g, [a], [b], math.nextafter(d, -1)) == [0.0]


class KernelCalls:
    """The kernel, recording the name and result of each entry point called
    through it."""

    def __init__(self, lib):
        self.lib, self.names, self.results = lib, [], []

    def __getattr__(self, name):
        entry = getattr(self.lib, name)

        def call(*args):
            self.names.append(name)
            self.results.append(entry(*args))
            return self.results[-1]
        return call


class TestObservedVoxelsOnce:
    """`observed_voxels` is the one pass over the whole grid: a from-sonar
    run makes it once, for grid.csv, whose rows the kernel writes a block
    at a time.  Extraction makes one kernel call, which reads the
    per-segment blocks of every waypoint and edge."""

    def count_calls(self, monkeypatch):
        callers = []
        real = VoxelGrid.observed_voxels

        def counted(grid):
            callers.append(sys._getframe(1).f_code.co_name)
            return real(grid)

        monkeypatch.setattr(VoxelGrid, "observed_voxels", counted)
        calls = KernelCalls(kernel.load())
        monkeypatch.setattr(kernel, "load", lambda: calls)
        return callers, calls.names

    def test_extraction_makes_none(self, monkeypatch):
        g, scenario = TestExtraction().build_grid()
        callers, kernel_calls = self.count_calls(monkeypatch)
        extract_problem(g, scenario)
        assert callers == []
        assert kernel_calls == ["max_near_segments"]

    def test_sonar_run_makes_one_for_the_grid_csv(self, monkeypatch, tmp_path):
        callers, kernel_calls = self.count_calls(monkeypatch)
        pipeline.run_pipeline(pipeline.PipelineConfig(
            str(TANKS_SCN), str(tmp_path), master_seed=7, episodes=2, from_sonar=True))
        assert callers == ["export_csv"]
        rows = (tmp_path / "grid.csv").read_bytes().count(b"\r\n") - 1
        mapping = [name for name in kernel_calls
                   if name not in ("solve_mdp", "refine_path", "simulate_ticks")]
        assert mapping \
            == (["nearest_hits", "integrate_beams", "max_near_segments"]
                + ["grid_rows"] * -(-rows // CSV_BLOCK_ROWS))


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
positions = st.tuples(coordinates, coordinates, coordinates)
beam_ranges = st.one_of(st.just(MAX_RANGE), st.floats(1e-3, MAX_RANGE))
# scans from one sensor, and scans whose every beam has its own origin
scans = st.one_of(
    st.builds(lambda position, beams: SonarScan(position, [d for d, _ in beams],
                                                [r for _, r in beams], MAX_RANGE),
              positions, st.lists(st.tuples(unit_directions, beam_ranges),
                                  min_size=1, max_size=6)),
    st.lists(st.tuples(positions, unit_directions, beam_ranges), min_size=1, max_size=6)
    .map(lambda beams: SonarScan(*zip(*beams), MAX_RANGE)))


def survey_scans(monkeypatch) -> list:
    """The scans the next `pipeline.synthesize_scans` call makes, once it
    has made them."""
    made, real = [], pipeline.synthesize_scans

    def recorded(*args):
        made[:] = real(*args)
        return made

    monkeypatch.setattr(pipeline, "synthesize_scans", recorded)
    return made


NO_OBSTACLES = """
LIMITS vmax 1.0 vcrit 0.25 radius 2.0
WAYPOINT a pos 0 0 0
WAYPOINT b pos 4 0 0
EDGE a b risk 0
MISSION start a final b
"""


class TestIntegrationMatchesReference:
    @pytest.mark.parametrize("seed", [7, 11, 123])
    def test_tanks_survey_grid(self, monkeypatch, seed):
        scenario = load_scenario(TANKS_SCN).scenario
        got = pipeline.map_from_sonar(scenario, seed, 0.05)
        monkeypatch.setattr(pipeline, "integrate_scan", reference_integrate_scan)
        want = pipeline.map_from_sonar(scenario, seed, 0.05)
        assert np.abs(got.log_odds).max() == LOG_ODDS_MAX  # clamps were hit
        assert_same_bits(got.log_odds, want.log_odds)

    def test_survey_is_one_scan_and_counts_voxel_updates(self, monkeypatch):
        """The seed-7 tanks survey is one scan and one `integrate_beams`
        call, which returns one update per voxel `traverse_voxels` walks,
        over every beam."""
        scans = survey_scans(monkeypatch)
        calls = KernelCalls(kernel.load())
        monkeypatch.setattr(kernel, "load", lambda: calls)
        g = pipeline.map_from_sonar(load_scenario(TANKS_SCN).scenario, 7, 0.05)
        (scan,) = scans
        walked = sum(len(traverse_voxels(g, p, p + d * r))
                     for p, d, r in zip(scan.position, scan.beams, scan.ranges))
        assert calls.names == ["nearest_hits", "integrate_beams"]
        assert calls.results[1] == walked > len(scan.ranges) == 3072

    def test_survey_without_obstacles_is_one_empty_scan(self, monkeypatch):
        """No obstacle, no sensor: the survey is one scan of no beams, which
        the kernel folds in as no update, and the grid stays all zero."""
        scans = survey_scans(monkeypatch)
        calls = KernelCalls(kernel.load())
        monkeypatch.setattr(kernel, "load", lambda: calls)
        g = pipeline.map_from_sonar(parse_scenario(NO_OBSTACLES).scenario, 7, 0.05)
        (scan,) = scans
        assert (scan.position.shape, scan.beams.shape, scan.ranges.shape) \
            == ((0, 3), (0, 3), (0,))
        assert calls.names == ["nearest_hits", "integrate_beams"] and calls.results[1] == 0
        assert g.log_odds.size > 0 and not g.log_odds.any()

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


def laid_end_to_end(scans, max_range) -> SonarScan:
    """One scan holding the beams of ``scans``, in order, each from its own
    scan's position."""
    def joined(name, empty):
        return np.concatenate([np.empty(empty), *(getattr(s, name) for s in scans)])

    return SonarScan(joined("position", (0, 3)), joined("beams", (0, 3)), joined("ranges", 0),
                     max_range)


def assert_synthesis_matches(obstacles, path, fan, sigma, seed=5):
    """The survey as one scan, against the reference's scan per sensor laid
    end to end, and the generator's next draw after each."""
    got = synthesis_outcome(synthesize_scans, obstacles, path, fan,
                            np.random.default_rng(seed), sigma)
    want = synthesis_outcome(reference_synthesize_scans, obstacles, path, fan,
                             np.random.default_rng(seed), sigma)
    if isinstance(want, type):
        assert got is want
    else:
        (survey,) = got[0]
        assert scan_bits(survey) == scan_bits(laid_end_to_end(want[0], fan.max_range))
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
        (survey,), _ = assert_synthesis_matches(BOXES, path, AHEAD, sigma)
        exact = survey.ranges.tolist()
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
            assert got[0][0].ranges[fan.count] < 0.2  # the second sensor's first beam

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
           count=st.integers(1, 16), sigma=st.sampled_from([0.0, 0.05, 3.0]),
           aperture=st.sampled_from([BeamFan.aperture, -0.0]))
    @settings(max_examples=150, deadline=None)
    def test_random_surveys(self, data, boxes, count, sigma, aperture):
        """Random boxes, and sensor paths of any length, some sensors on a
        box face, each facing one of a few headings.  Every fan beam is
        parallel to the z slabs, and at yaw 0 an odd fan's middle beam to
        the y slabs as well.  A fan of aperture -0.0 turns its last beam
        by an offset of -0.0, so that its beams at yaw -0.0 and 0.0
        differ in the sign of a zero."""
        free = st.tuples(*[st.floats(-5, 25)] * 3)
        faces = st.builds(
            lambda box, axis, side: tuple(c + side * h if k == axis else c for k, (c, h)
                                          in enumerate(zip(box.center, box.half_extents))),
            st.sampled_from(boxes), st.integers(0, 2), st.sampled_from([-1, 1]))
        positions = st.one_of(free, faces) if boxes else free
        # a few headings, repeated along the path as a survey's are: 0.0,
        # -0.0 and drawn ones, each also one float up
        headings = [0.0, -0.0, *data.draw(st.lists(st.floats(-math.pi, math.pi),
                                                   max_size=3), label="headings")]
        yaws = st.sampled_from(headings + [math.nextafter(h, math.inf) for h in headings])
        path = data.draw(st.lists(st.tuples(positions, yaws), max_size=8), label="path")
        assert_synthesis_matches(boxes, path, BeamFan(count, aperture, max_range=15.0), sigma)


def clamped_grid():
    g = grid()
    g.log_odds[::2] = LOG_ODDS_MAX
    g.log_odds[1::3] = LOG_ODDS_MIN
    return g


def threshold_grid():
    """Log-odds at exactly the evidence threshold (unobserved) and the
    float past it, at the clamp bounds and at 0.01 and -0.0105, in the
    first and last voxels, along a long third axis."""
    g = grid(dims=(2, 3, 1001))
    values = [EVIDENCE_EPS, -EVIDENCE_EPS, math.nextafter(EVIDENCE_EPS, 1),
              -math.nextafter(EVIDENCE_EPS, 1), LOG_ODDS_MAX, -LOG_ODDS_MAX, 0.01, -0.0105,
              0.0105, -0.0, 0.0]
    g.log_odds.reshape(-1)[:len(values)] = values
    g.log_odds.reshape(-1)[-len(values):] = values[::-1]
    g.log_odds[1, 1, 500] = -0.0105
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
        threshold_grid,
        lambda: grid(dims=(0, 4, 4)),
    ], ids=["tanks_seed7", "empty", "clamped", "one_row", "one_block", "block_and_one",
            "thresholds", "no_voxels"])
    def test_bytes_equal_csv_writer_reference(self, tmp_path, make):
        g = make()
        g.export_csv(tmp_path / "got.csv")
        reference_export_csv(g, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.count(b"\r\n") == len(g.observed_voxels()) + 1

    @pytest.mark.parametrize("dims", [(10, 10, 10), (0, 4, 4)])
    def test_no_observed_voxel_is_the_header_only(self, tmp_path, dims):
        g = grid(dims=dims)
        g.log_odds[...] = EVIDENCE_EPS
        g.export_csv(tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_bytes() == b"ix,iy,iz,occupancy\r\n"
