"""Shared fixtures: small hand-built MDPs and chains used across the suite,
and the Python refiner loop the compiled kernel is checked against."""

import math
from pathlib import Path

import numpy as np
import pytest

from oracles import MarkovChain, by_id
from riskplan.mdp import Mdp, StateSpec, TransitionSpec
from riskplan.refiner import A_MAX, DEFAULT_DT, HelixSpec, Trajectory, plan_polyline

REPO_ROOT = Path(__file__).resolve().parent.parent
TANKS_SCN = REPO_ROOT / "scenarios" / "tanks.scn"


def make_mdp(states, transitions, start, goals):
    """Compact MDP builder by state id: states as (id, cost) pairs,
    transitions as (source, action, target, probability) tuples.  Each id
    becomes its position in ``states``, and an unknown id the position just
    past them, so that `Mdp` reports it."""
    pos = {sid: i for i, (sid, _) in enumerate(states)}

    def at(sid):
        return pos.get(sid, len(states))

    return Mdp(
        states=[StateSpec(sid, cost=c) for sid, c in states],
        transitions=[TransitionSpec(at(s), a, at(t), p) for s, a, t, p in transitions],
        start=at(start),
        goals=frozenset(map(at, goals)),
    )


def enabled_actions(m):
    """Each state's actions with transitions out of it, sorted by id, read
    from the model's transition list (of an `Mdp` or of its `oracles.by_id`
    view)."""
    enabled = {s.id: set() for s in m.states}
    for t in by_id(m).transitions:
        enabled[t.source].add(t.action)
    return {s: sorted(actions) for s, actions in enabled.items()}


def state_costs(m):
    """Each state's cost by id, read from the model's state list."""
    return {s.id: s.cost for s in m.states}


def inspection_chain(waypoints, targets):
    """.scn text of a chain of waypoints w0..w(n-1), the first ``targets``
    of them each inspecting its own obstacle, and a mission from w0 to the
    last waypoint that inspects them all, on the last line."""
    lines = [f"OBSTACLE o{i} center {5 * i} 5 -5 half 1 1 1" for i in range(targets)]
    lines += [f"WAYPOINT w{i} pos {5 * i} 0 -5" + (f" inspect o{i}" if i < targets else "")
              for i in range(waypoints)]
    lines += [f"EDGE w{i - 1} w{i} risk 0.01" for i in range(1, waypoints)]
    lines.append(f"MISSION start w0 final w{waypoints - 1} inspect "
                 + " ".join(f"o{i}" for i in range(targets)))
    return "\n".join(lines) + "\n"


def make_chain(edges, costs, start, goals):
    """MarkovChain from {src: [(dst, p), ...]} plus per-state costs."""
    goals = frozenset(goals)
    states = sorted(set(costs) | set(edges) | goals)
    edges = dict(edges)
    for g in goals:
        edges.setdefault(g, [(g, 1.0)])
    return MarkovChain(states, edges, start, dict(costs), goals)


def two_action_mdp():
    """The a/b switch-point model: a costs 10 for sure, b costs 2 with
    probability 0.9 and 30 with probability 0.1."""
    return make_mdp(
        states=[("s0", 0.0), ("pay10", 10.0), ("pay2", 2.0), ("pay30", 30.0),
                ("goal", 0.0)],
        transitions=[
            ("s0", "a", "pay10", 1.0),
            ("s0", "b", "pay2", 0.9),
            ("s0", "b", "pay30", 0.1),
            ("pay10", "go", "goal", 1.0),
            ("pay2", "go", "goal", 1.0),
            ("pay30", "go", "goal", 1.0),
        ],
        start="s0",
        goals={"goal"},
    )


def risky_vs_safe_mdp(risk=0.2, safe_steps=4):
    """Short risky route (one step, may dead-end) vs a longer sure route."""
    states = [("s0", 1.0), ("trap", 1.0), ("goal", 0.0)]
    transitions = [
        ("s0", "risky", "goal", 1.0 - risk),
        ("s0", "risky", "trap", risk),
    ]
    prev = "s0"
    for i in range(1, safe_steps):
        sid = f"safe{i}"
        states.append((sid, 1.0))
        transitions.append((prev, "safe" if prev == "s0" else "step", sid, 1.0))
        prev = sid
    transitions.append((prev, "step", "goal", 1.0))
    return make_mdp(states, transitions, "s0", {"goal"})


def loop_mdp(p_exit=0.5):
    """Single state that retries itself until it reaches the goal."""
    return make_mdp(
        states=[("s0", 1.0), ("goal", 0.0)],
        transitions=[
            ("s0", "try", "goal", p_exit),
            ("s0", "try", "s0", 1.0 - p_exit),
        ],
        start="s0",
        goals={"goal"},
    )


def detour_mdp():
    """Unique-optimum model where expected-cost and minimax plans differ.

    Direct: cost 2 with probability 0.8, cost 20 with probability 0.2
    (expected 5.6, worst case 20).  Detour: cost 8 for sure.
    """
    return make_mdp(
        states=[("s0", 0.0), ("cheap", 2.0), ("dear", 20.0), ("d1", 4.0),
                ("d2", 4.0), ("goal", 0.0)],
        transitions=[
            ("s0", "direct", "cheap", 0.8),
            ("s0", "direct", "dear", 0.2),
            ("s0", "detour", "d1", 1.0),
            ("d1", "step", "d2", 1.0),
            ("d2", "step", "goal", 1.0),
            ("cheap", "step", "goal", 1.0),
            ("dear", "step", "goal", 1.0),
        ],
        start="s0",
        goals={"goal"},
    )


@pytest.fixture
def tanks_path():
    return TANKS_SCN


def norm(v):
    """Euclidean norm over the last axis, equal bit for bit to
    `np.linalg.norm` of each 3-vector: both take the square root of a BLAS
    dot product, where `(v * v).sum(-1)` rounds differently."""
    return np.sqrt(np.vecdot(v, v))


def in_critical_zone(centers, radius, point):
    """Whether ``point`` lies within ``radius`` of one of the (zones, 3)
    critical waypoint ``centers``."""
    return bool((norm(point - centers) <= radius).any())


def reference_refine(scenario, actions, plan_id="", dt=DEFAULT_DT, helix=HelixSpec()):
    """The Python sampling loop the compiled `refine_path` replaced, kept as
    its oracle: the trajectory `refiner.refine` must equal bit for bit."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    pts = plan_polyline(scenario, actions, helix)
    pts = [p for i, p in enumerate(pts) if i == 0 or math.dist(p, pts[i - 1]) > 1e-12]
    if len(pts) < 2:
        return Trajectory([[0.0, *pts[0], 0.0]], plan_id)

    centers = np.array([w.position for w in scenario.waypoints if w.is_critical],
                       dtype=float).reshape(-1, 3)
    radius = scenario.critical_radius
    v_max, v_crit = scenario.v_max, scenario.v_crit
    rows = []  # (t, x, y, z, v)
    t = 0.0
    for i in range(len(pts) - 1):
        a = np.asarray(pts[i], dtype=float)
        b = np.asarray(pts[i + 1], dtype=float)
        seg_len = float(np.linalg.norm(b - a))
        direction = (b - a) / seg_len
        s = 0.0
        v = 0.0
        while s < seg_len - 1e-12:
            pos = a + direction * s
            remaining = seg_len - s
            cap = v_crit if in_critical_zone(centers, radius, pos) else v_max
            v = min(v + A_MAX * dt, cap, math.sqrt(2.0 * A_MAX * remaining))
            nxt = a + direction * min(s + v * dt, seg_len)
            if in_critical_zone(centers, radius, nxt) and v > v_crit:
                v = v_crit
            rows.append([t, *pos, v])
            step = v * dt
            if step >= remaining:
                t += remaining / v
                s = seg_len
            else:
                t += dt
                s += step
        rows.append([t, *b, max(v, A_MAX * dt)])
        # the corner sample closes the segment; motion restarts from rest
        if i < len(pts) - 2:
            t += dt

    # corner samples duplicate positions when segments share endpoints
    deduped = []
    for row in rows:
        if deduped and row[0] <= deduped[-1][0]:
            continue
        if deduped and math.dist(row[1:4], deduped[-1][1:4]) < 1e-12:
            continue
        deduped.append(row)
    return Trajectory(np.array(deduped, dtype=float).reshape(-1, 5), plan_id)
