"""Shared fixtures: small hand-built MDPs and chains used across the suite."""

from pathlib import Path

import pytest

from riskplan.mdp import (ActionSpec, MarkovChain, Mdp, StateSpec,
                          TransitionSpec)

REPO_ROOT = Path(__file__).resolve().parent.parent
TANKS_SCN = REPO_ROOT / "scenarios" / "tanks.scn"


def make_mdp(states, transitions, start, goals, actions=None):
    """Compact MDP builder: states as (id, cost) pairs, transitions as
    (source, action, target, probability) tuples."""
    if actions is None:
        actions = sorted({t[1] for t in transitions})
    return Mdp(
        states=[StateSpec(sid, cost=c)
                for sid, c in states],
        actions=[ActionSpec(a) for a in actions],
        transitions=[TransitionSpec(*t) for t in transitions],
        start=start,
        goals=frozenset(goals),
    )


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
