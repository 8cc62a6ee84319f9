"""Risk-sensitive value iteration: gamma bounds, limits, and the gamma sweep.

The gamma-limit oracles (expected-cost and minimax plans) are computed here
by independent dynamic programs, not by the code under test.  The compiled
log-domain worklist solver is checked against the linear-space sweep it
replaced (`reference_solve`), bit for bit and pop for pop against the
Python solve it was ported from (`oracles.per_action_solve`), and against
brute-force enumeration of every deterministic policy of small random
models.
"""

import itertools
import math
import re
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (TANKS_SCN, detour_mdp, enabled_actions, loop_mdp,
                      make_mdp, risky_vs_safe_mdp, state_costs, two_action_mdp)
from oracles import by_id, can_reach, induce_chain, reward_distribution_exact
from oracles import linearize_trace as linearize_trace_by_id
from oracles import per_action_solve
from riskplan import planner
from riskplan.mdp import Mdp, Plan, TransitionSpec
from riskplan.planner import (ImproperPolicy, NoProperPolicy, generate_candidates,
                              linearize, linearize_trace, solve)
from riskplan.reporting import corridor_scenario
from riskplan.scenario import ground_to_mdp, load_scenario, parse_scenario

TWO_WAYPOINT_TIE = """
OBSTACLE t center 0 0 -5 half 1 1 2
WAYPOINT a pos 5 0 -5 inspect t
WAYPOINT b pos -5 0 -5 inspect t
EDGE a b risk 0
MISSION start a final b inspect t
"""

# the only route to the target runs over an edge whose collision risk is
# at least as likely as getting through
ONLY_RISKY_ROUTE = """
OBSTACLE tank center 5 5 0 half 1 1 1
WAYPOINT start pos 0 0 0
WAYPOINT mid pos 5 3 0 inspect tank
WAYPOINT final pos 10 0 0
EDGE start mid risk {risk}
EDGE mid final risk 0
MISSION start start final final inspect tank
"""

SUITE = [two_action_mdp(), risky_vs_safe_mdp(), loop_mdp(), detour_mdp()]


def expected_cost_policy(m, sweeps=100_000, tol=1e-12):
    """Independent oracle: plain expected-cost value iteration."""
    m = by_id(m)
    enabled = enabled_actions(m)
    cost = state_costs(m)
    # dead ends never reach a goal: infinite expected cost
    value = {s.id: (math.inf if s.id not in m.goals and not enabled[s.id]
                    else 0.0)
             for s in m.states}

    def q(s, a):
        return cost[s] + sum(t.probability * value[t.target]
                             for t in m.outgoing(s, a))

    for _ in range(sweeps):
        delta = 0.0
        for s in m.states:
            if s.id in m.goals or not enabled[s.id]:
                continue
            new = min(q(s.id, a) for a in enabled[s.id])
            delta = max(delta, abs(new - value[s.id]))
            value[s.id] = new
        if delta < tol:
            break
    return {s.id: min(enabled[s.id], key=lambda a: (q(s.id, a), a))
            for s in m.states if s.id not in m.goals and enabled[s.id]}


def minimax_policy(m, sweeps=100_000):
    """Independent oracle: worst-case (guaranteed) cost dynamic program."""
    m = by_id(m)
    value = {s.id: (0.0 if s.id in m.goals else math.inf) for s in m.states}
    enabled = enabled_actions(m)
    cost = state_costs(m)

    def q(s, a):
        worst = max(value[t.target] for t in m.outgoing(s, a)
                    if t.probability > 0.0)
        return cost[s] + worst

    for _ in range(sweeps):
        changed = False
        for s in m.states:
            if s.id in m.goals or not enabled[s.id]:
                continue
            new = min(q(s.id, a) for a in enabled[s.id])
            if new < value[s.id]:
                value[s.id] = new
                changed = True
        if not changed:
            break
    return {s.id: min(enabled[s.id], key=lambda a: (q(s.id, a), a))
            for s in m.states
            if s.id not in m.goals and enabled[s.id]
            and value[s.id] < math.inf}


def reference_solve(m, gamma, failure_cost=None):
    """Gauss-Seidel sweeps over linear values gamma^-cost * V from V = 1:
    the solver the log-domain worklist replaced, kept as the oracle for its
    policies.  It overflows once a plan's disutility passes the largest
    float, so it is only compared where that cannot happen."""
    m = by_id(m)
    enabled = enabled_actions(m)
    cost = state_costs(m)
    dead_end_value = math.inf if failure_cost is None else gamma ** (-failure_cost)
    value = {}
    reach = can_reach(((t.source, t.target) for t in m.transitions
                       if t.probability > 0.0), m.goals)
    for s in m.states:
        if s.id in m.goals:
            value[s.id] = 1.0
        elif not enabled[s.id]:
            value[s.id] = dead_end_value
        elif s.id not in reach:
            value[s.id] = math.inf
        else:
            value[s.id] = 1.0

    sweep_states = [(s.id, enabled[s.id]) for s in m.states
                    if s.id not in m.goals and enabled[s.id] and s.id in reach]

    def action_value(s, a):
        mult = gamma ** (-cost[s])
        total = 0.0
        for t in m.outgoing(s, a):
            if t.probability == 0.0:
                continue
            v = value[t.target]
            if v == math.inf:
                return math.inf
            total += t.probability * v
        return mult * total

    for _ in range(planner.MAX_SWEEPS):
        delta = 0.0
        for s, acts in sweep_states:
            new = min(action_value(s, a) for a in acts)
            old = value[s]
            if new == math.inf or old == math.inf:
                if new != old:
                    delta = math.inf
            else:
                delta = max(delta, abs(new - old) / max(1.0, abs(old)))
            value[s] = new
        if delta < planner.TOLERANCE:
            break
    else:
        raise AssertionError("reference sweep did not converge")
    if value[m.start] == math.inf:
        raise NoProperPolicy(m.start)

    policy = {}
    for s in m.states:
        if s.id in m.goals or not enabled[s.id] or value[s.id] == math.inf:
            continue
        policy[s.id] = min(enabled[s.id], key=lambda a: (action_value(s.id, a), a))

    reachable = set()
    stack = [m.start]
    while stack:
        s = stack.pop()
        if s in reachable or s in m.goals:
            reachable.add(s)
            continue
        reachable.add(s)
        a = policy.get(s)
        if a is None:
            continue
        for t in m.outgoing(s, a):
            if t.probability > 0.0 and t.target not in reachable:
                stack.append(t.target)
    return value, Plan({s: a for s, a in policy.items() if s in reachable})


class TestTransform:
    def test_gamma_bounds(self):
        for g in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError, match=re.escape(f"gamma must be in (0,1), got {g}")):
                solve(two_action_mdp(), g)


class TestSolve:
    def test_two_action_disutilities(self):
        m = two_action_mdp()
        for gamma in (0.95, 0.90):
            table, plan = solve(m, gamma)[:2]
            x = 1.0 / gamma
            want_a = x ** 10
            want_b = 0.9 * x ** 2 + 0.1 * x ** 30
            assert table["s0"] == pytest.approx(math.log(min(want_a, want_b)),
                                                abs=1e-9)
            assert plan.policy["s0"] == ("b" if want_b < want_a else "a")

    def test_switch_endpoints(self):
        m = two_action_mdp()
        assert solve(m, 0.95)[1].policy["s0"] == "b"
        assert solve(m, 0.90)[1].policy["s0"] == "a"

    def test_goal_value_is_one(self):
        # solve returns log V: V(goal) = 1 is log V(goal) = 0, exactly
        table = solve(loop_mdp(), 0.7).log_values
        assert table["goal"] == 0.0

    def test_ties_go_to_lowest_action_id(self):
        m = make_mdp([("s0", 1.0), ("l", 1.0), ("r", 1.0), ("g", 0.0)],
                     [("s0", "right", "r", 1.0), ("s0", "left", "l", 1.0),
                      ("l", "go", "g", 1.0), ("r", "go", "g", 1.0)], "s0", {"g"})
        for gamma in (0.3, 0.9):
            assert solve(m, gamma)[1].policy["s0"] == "left"

    def test_no_proper_policy(self):
        m = make_mdp([("s", 1.0), ("pit", 1.0), ("g", 0.0)],
                     [("s", "a", "pit", 1.0)], "s", {"g"})
        with pytest.raises(NoProperPolicy):
            solve(m, 0.9)

    def test_no_proper_policy_behind_a_loop(self):
        # "a" may fall into a trap that loops forever, "b" loops in place:
        # the start reaches the goal under no policy, so it must not be
        # restarted as if a loop of its own could finish it
        m = make_mdp([("s0", 0.5), ("s1", 0.5), ("g", 0.0)],
                     [("s0", "a", "s1", 0.1), ("s0", "a", "g", 0.9),
                      ("s0", "b", "s0", 1.0), ("s1", "a", "s1", 1.0)], "s0", {"g"})
        with pytest.raises(NoProperPolicy):
            solve(m, 0.75)

    def test_non_convergence(self, monkeypatch):
        # at gamma 0.4 a retry fails with probability 0.5 and multiplies the
        # disutility by 1/0.4: 0.5 * 2.5 > 1, so E[(1/gamma)^C] is infinite
        # and log V grows with every backup
        monkeypatch.setattr(planner, "MAX_SWEEPS", 100)
        with pytest.raises(planner.NonConvergence, match="100 backups per state"):
            planner.solve(loop_mdp(), 0.4)

    def test_finite_failure_cost_admits_risky_plans(self):
        m = risky_vs_safe_mdp(risk=0.1, safe_steps=6)
        # unrecoverable dead ends: only the sure route is acceptable
        assert solve(m, 0.999)[1].policy["s0"] == "safe"
        # pricing the dead end finitely makes the short risky route win
        # at high gamma but not at low gamma
        assert solve(m, 0.999, failure_cost=12.0)[1].policy["s0"] == "risky"
        assert solve(m, 0.45, failure_cost=12.0)[1].policy["s0"] == "safe"

    def test_gamma_one_limit_matches_expected_cost(self):
        for m in SUITE:
            want = expected_cost_policy(m)
            plan = solve(m, 0.999).plan
            for s, a in plan.policy.items():
                assert a == want[s], f"state {s} of {m.start}"

    def test_gamma_zero_limit_matches_minimax(self):
        for m in (two_action_mdp(), risky_vs_safe_mdp(), detour_mdp()):
            want = minimax_policy(m)
            plan = solve(m, 0.05).plan
            for s, a in plan.policy.items():
                assert a == want[s], f"state {s} of {m.start}"

    def test_any_action_id(self):
        # an action is whatever a transition names: no list declares them
        m = make_mdp([("s0", 1.0), ("s1", 2.0), ("g", 0.0)],
                     [("s0", "", "s1", 1.0), ("s0", "goto g ☃", "g", 0.5),
                      ("s0", "goto g ☃", "s0", 0.5), ("s1", "inspect", "g", 1.0)],
                     "s0", {"g"})
        # a sure cost of 3 against a geometric one of mean 2
        assert solve(m, 0.4)[1].policy == {"s0": "", "s1": "inspect"}
        assert solve(m, 0.99)[1].policy == {"s0": "goto g ☃"}

    def test_policy_restricted_to_reachable_states(self):
        plan = solve(two_action_mdp(), 0.95).plan
        assert set(plan.policy) == {"s0", "pay2", "pay30"}


class TestLinearize:
    def test_most_probable_trace(self):
        plan = solve(two_action_mdp(), 0.95).plan
        trace = linearize_trace(two_action_mdp(), plan)
        assert trace == [("s0", "b"), ("pay2", "go")]

    def test_labels_and_length(self):
        m = two_action_mdp()
        assert linearize(m, solve(m, 0.9)[1]) == ["a", "go"]

    def test_exact_tie_goes_to_the_lowest_action_id(self):
        # inspecting at a, then moving on, costs 2, as moving on and then
        # inspecting at b does: the action ids are the labels, and
        # "goto b" sorts before "inspect t"
        m = ground_to_mdp(parse_scenario(TWO_WAYPOINT_TIE).scenario)
        for g in (0.41, 0.7, 0.99):
            assert linearize(m, solve(m, g)[1]) == ["goto b", "inspect t"]

    @pytest.mark.parametrize("risk", [0.6, 0.5])
    def test_trace_passes_a_likely_collision(self, risk):
        # collision is the most probable successor of "goto mid" (at 0.5 it
        # tied, and id order once gave it to 'collided'); the trace follows
        # the successor that can still reach the goal
        m = ground_to_mdp(parse_scenario(ONLY_RISKY_ROUTE.format(risk=risk)).scenario)
        plan = solve(m, 0.9, failure_cost=12.0).plan
        assert linearize(m, plan) == ["goto mid", "inspect tank", "goto final"]

    def test_a_retry_steps_on_to_its_other_outcome(self):
        # staying at s0 is the most probable move, but s0 is already on the
        # trace, so the trace steps to the goal
        m = loop_mdp(0.4)
        (cand,) = generate_candidates(m, 2, (0.7, 0.99), rng=np.random.default_rng(0))
        assert cand.plan.linearization == ["try"]
        assert _same_walk(m, cand.plan) == [("s0", "try")]

    def test_cyclic_policy_rejected(self):
        m = two_action_mdp()
        from riskplan.mdp import Plan
        with pytest.raises(ImproperPolicy):
            linearize_trace(m, Plan({"s0": "b"}))


def _same_walk(m, plan):
    """`linearize_trace` gives the oracle's trace, or fails as it does."""
    try:
        want = linearize_trace_by_id(m, plan)
    except ImproperPolicy as exc:
        with pytest.raises(ImproperPolicy) as got:
            linearize_trace(m, plan)
        assert str(got.value) == str(exc)
        return None
    assert linearize_trace(m, plan) == want
    return want


# each successor count's probabilities, repeated so that targets tie
TIED_SPLITS = {1: [(1.0,)], 2: [(0.5, 0.5), (0.7, 0.3), (1.0, 0.0)],
               3: [(1 / 3,) * 3, (0.4, 0.4, 0.2), (0.25, 0.25, 0.5)],
               4: [(0.25,) * 4, (0.3, 0.3, 0.2, 0.2)]}


@st.composite
def traced_models(draw):
    """Up to five states besides the goal, listed in a drawn order so that
    position order is not id order; zero to two actions each, with one to
    four successors whose probabilities repeat; and a drawn policy that may
    name a disabled action or none, so that traces may get stuck or loop."""
    ids = [f"s{i}" for i in range(draw(st.integers(1, 5)))] + ["g"]
    transitions = []
    for s in ids[:-1]:
        for a in ("a", "b")[:draw(st.integers(0, 2))]:
            targets = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4, unique=True))
            split = draw(st.sampled_from(TIED_SPLITS[len(targets)]))
            transitions += [(s, a, t, q) for t, q in zip(targets, split)]
    states = [(s, 1.0) for s in draw(st.permutations(ids))]
    policy = {s: a for s in ids[:-1]
              if (a := draw(st.sampled_from(["a", "b", None]))) is not None}
    return make_mdp(states, transitions, "s0", {"g"}), Plan(policy)


class TestLinearizeMatchesTheWalkById:
    """The positional walk gives the trace the walk over transitions by id
    gave, and fails where it failed."""

    def test_suite(self):
        for m in SUITE:
            for gamma in (0.6, 0.8, 0.95):  # loop_mdp diverges from 0.5 down
                plan = solve(m, gamma, failure_cost=12.0).plan
                assert _same_walk(m, plan) is not None
            assert _same_walk(m, Plan({})) is None  # stuck at the start
        assert _same_walk(two_action_mdp(), Plan({"s0": "b"})) is None

    @settings(max_examples=300, deadline=None)
    @given(traced_models())
    def test_random_models(self, model):
        _same_walk(*model)


class TestGenerateCandidates:
    def test_dedup_is_sound(self):
        m = risky_vs_safe_mdp(risk=0.1, safe_steps=6)
        cands = generate_candidates(m, 40, rng=np.random.default_rng(1),
                                    failure_cost=12.0)
        policies = [tuple(sorted(c.plan.policy.items())) for c in cands]
        assert len(set(policies)) == len(policies)
        assert sum(len(c.gammas) for c in cands) == 40
        assert [c.plan.id for c in cands] == [f"P{i + 1}"
                                              for i in range(len(cands))]

    def test_ordering_by_first_gamma(self):
        m = risky_vs_safe_mdp(risk=0.1, safe_steps=6)
        cands = generate_candidates(m, 40, rng=np.random.default_rng(1),
                                    failure_cost=12.0)
        firsts = [c.first_gamma for c in cands]
        assert firsts == sorted(firsts)

    def test_deterministic_in_rng(self):
        m = two_action_mdp()
        a = generate_candidates(m, 10, rng=np.random.default_rng(3))
        b = generate_candidates(m, 10, rng=np.random.default_rng(3))
        assert [c.gammas for c in a] == [c.gammas for c in b]
        assert [c.plan.policy for c in a] == [c.plan.policy for c in b]

    def test_sample_count_validation(self):
        with pytest.raises(ValueError) as info:
            generate_candidates(two_action_mdp(), 0, rng=np.random.default_rng(0))
        assert str(info.value) == "gamma_samples must be >= 1, got 0"

    def test_interval_validation(self):
        with pytest.raises(ValueError) as info:
            generate_candidates(two_action_mdp(), 5, interval=(0.9, 0.4),
                                rng=np.random.default_rng(0))
        assert str(info.value) == ("gamma_low and gamma_high must satisfy 0 < gamma_low "
                                   "< gamma_high <= 1, got 0.9 and 0.4")

    def test_a_looping_trace_names_its_plan(self):
        # a proper policy whose most probable outcome at s1 is back to s0,
        # its only goal-reaching one, so the trace loops; with no collision
        # cost none is named (loop_mdp(0.4) once failed here: its retry
        # now steps on to the goal)
        m = make_mdp([("s0", 1.0), ("s1", 1.0), ("s2", 1.0), ("goal", 0.0)],
                     [("s0", "go", "s1", 0.6), ("s0", "go", "s2", 0.4),
                      ("s1", "back", "s0", 1.0), ("s2", "on", "goal", 1.0)], "s0", {"goal"})
        with pytest.raises(ImproperPolicy) as got:
            generate_candidates(m, 2, (0.7, 0.99), rng=np.random.default_rng(0))
        assert str(got.value) == ("plan P1: most-probable trace from 's0' does not "
                                  "reach a goal (stuck at 's0')")
        assert isinstance(got.value, ValueError)  # an input outcome: exit 2

    def test_one_failed_solve_fails_the_sweep(self, monkeypatch):
        real_solve = planner.solve
        solved = []

        def solve_failing_low_gammas(m, gamma, **kwargs):
            if gamma < 0.7:
                raise NoProperPolicy(f"injected failure at gamma {gamma}")
            solved.append(gamma)
            return real_solve(m, gamma, **kwargs)

        monkeypatch.setattr(planner, "solve", solve_failing_low_gammas)
        rng = np.random.default_rng(1)
        gammas = np.random.default_rng(1).uniform(0.4, 1.0, size=20)
        assert (gammas < 0.7).any() and (gammas >= 0.7).any()
        with pytest.raises(NoProperPolicy, match="injected"):
            generate_candidates(two_action_mdp(), 20, rng=rng)

    def test_each_distinct_plan_linearized_once(self, monkeypatch):
        real_linearize = planner.linearize
        calls = []

        def counting_linearize(m, p):
            calls.append(dict(p.policy))
            return real_linearize(m, p)

        monkeypatch.setattr(planner, "linearize", counting_linearize)
        m = two_action_mdp()
        cands = generate_candidates(m, 20, rng=np.random.default_rng(3))
        assert len(calls) == len(cands) < 20
        for c in cands:
            assert c.plan.linearization == real_linearize(m, c.plan)

    def test_solve_times_parallel_gammas(self):
        cands = generate_candidates(two_action_mdp(), 10,
                                    rng=np.random.default_rng(3))
        for c in cands:
            assert len(c.solve_times) == len(c.gammas) == len(c.backups)
            assert all(t >= 0.0 for t in c.solve_times)

    def test_kernel_clock_is_inside_the_call(self):
        # each solve is timed by the kernel, from its entry to its return:
        # a positive time, and together no more than the whole sweep
        m = ground_to_mdp(corridor_scenario(64, 64))
        t0 = time.perf_counter()
        cands = generate_candidates(m, 20, rng=np.random.default_rng(11))
        wall = time.perf_counter() - t0
        times = [t for c in cands for t in c.solve_times]
        assert len(times) == 20 and all(t > 0.0 for t in times)
        assert sum(times) <= wall

    def test_kernel_failures_keep_their_messages(self, monkeypatch):
        monkeypatch.setattr(planner, "MAX_SWEEPS", 100)
        with pytest.raises(planner.NonConvergence) as got:
            generate_candidates(loop_mdp(), 3, (0.4, 0.45), rng=np.random.default_rng(0))
        assert str(got.value) == "value iteration did not converge in 100 backups per state"
        m = make_mdp([("s", 1.0), ("pit", 1.0), ("g", 0.0)],
                     [("s", "a", "pit", 1.0)], "s", {"g"})
        with pytest.raises(NoProperPolicy) as got:
            generate_candidates(m, 3, rng=np.random.default_rng(0))
        assert str(got.value) == "no policy reaches a goal with probability 1 from 's'"

    def test_unsolvable_model_reraises(self):
        m = make_mdp([("s", 1.0), ("pit", 1.0), ("g", 0.0)],
                     [("s", "a", "pit", 1.0)], "s", {"g"})
        with pytest.raises(NoProperPolicy):
            generate_candidates(m, 5, rng=np.random.default_rng(0))


def _tanks_mdp():
    return ground_to_mdp(load_scenario(TANKS_SCN).scenario)


def _assert_log_values_match(log_values, linear_values):
    for s, v in linear_values.items():
        want = math.log(v) if v < math.inf else math.inf
        assert log_values[s] == pytest.approx(want, abs=1e-9), s


def _outcome(solver, m, gamma, failure_cost):
    """Every state's log V as its exact float (``float.hex``, +inf too),
    the policy and the worklist pops, or the raised error's type and
    message."""
    try:
        values, plan, backups = solver(m, gamma, failure_cost)[:3]
    except Exception as exc:
        return type(exc), str(exc)
    return {s: v.hex() for s, v in values.items()}, plan.policy, backups


class TestMatchesReference:
    """The worklist solver returns the replaced sweep's policies, and the
    logs of its values, wherever the sweep does not overflow; and the
    per-action solve's log V and policy bit for bit."""

    @pytest.mark.parametrize("failure_cost", [12.0, None])
    def test_tanks_gamma_grid(self, failure_cost):
        m = _tanks_mdp()
        gammas = np.concatenate([np.linspace(0.01, 0.999, 300),
                                 np.random.default_rng(0).uniform(0.01, 0.999, 200)])
        for g in gammas:
            want_values, want = reference_solve(m, float(g), failure_cost)
            values, plan = solve(m, float(g), failure_cost)[:2]
            assert plan.policy == want.policy, g
            _assert_log_values_match(values, want_values)
            assert (_outcome(solve, m, float(g), failure_cost)
                    == _outcome(per_action_solve, m, float(g), failure_cost)), g

    @pytest.mark.parametrize("size", [64, 139, 274])
    def test_corridor_scaling_gammas(self, size):
        # the 20 gammas run_scaling samples for this corridor at seed 11
        m = ground_to_mdp(corridor_scenario(size, size))
        rng = np.random.default_rng(np.random.SeedSequence([11, size, size]))
        for g in rng.uniform(*planner.GAMMA_INTERVAL, size=planner.GAMMA_SAMPLES):
            want_values, want = reference_solve(m, float(g))
            values, plan = solve(m, float(g))[:2]
            assert plan.policy == want.policy, g
            _assert_log_values_match(values, want_values)
            assert (_outcome(solve, m, float(g), None)
                    == _outcome(per_action_solve, m, float(g), None)), g


@st.composite
def solver_models(draw):
    """Up to six costed states, one or two goals and, when there is one
    goal, a state with no action.  Each costed state has no action (a dead
    end) or up to three, each with one to three successors among all
    states, itself included: self-loops, dead ends and states that only a
    loop of their own can finish (restarted from log V = 0) all occur."""
    k = draw(st.integers(1, 6))
    ids = [f"s{i}" for i in range(k)] + ["g", "h"]
    states = [(s, draw(st.sampled_from([0.0, 0.5, 1.0, 2.5]))) for s in ids[:k]]
    states += [("g", 0.0), ("h", 0.0)]
    goals = {"g", "h"} if draw(st.booleans()) else {"g"}
    transitions = []
    for s in ids[:k]:
        for a in ("a", "b", "c")[:draw(st.integers(0, 3))]:
            # the goal g is drawn twice as often as any other state
            targets = draw(st.lists(st.sampled_from(ids + ["g"]), min_size=1,
                                    max_size=3, unique=True))
            weights = draw(st.lists(st.integers(1, 9), min_size=len(targets),
                                    max_size=len(targets)))
            transitions += [(s, a, t, w / sum(weights))
                            for t, w in zip(targets, weights)]
    return make_mdp(states, transitions, draw(st.sampled_from(ids[:k])), goals)


@settings(max_examples=500, deadline=None)
@given(solver_models(), st.floats(0.4, 1.0, exclude_min=True, exclude_max=True),
       st.none() | st.floats(0.0, 40.0))
def test_bit_identical_to_per_action_solve(m, gamma, failure_cost):
    """The compiled `solve` backs a state up in one loop over its actions;
    the Python solve with one `action_value` call per action
    (`oracles.per_action_solve`) gives the same log V bit for bit, the same
    policy, the same worklist pop count and the same error."""
    # a small sweep budget keeps the non-converging models fast
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(planner, "MAX_SWEEPS", 200)
        assert (_outcome(solve, m, gamma, failure_cost)
                == _outcome(per_action_solve, m, gamma, failure_cost))


def test_long_corridor_does_not_overflow():
    # 800 steps at gamma 0.41 is a disutility of about 1.2e309, past the
    # largest float: the linear-space sweep reported no proper policy here
    m = ground_to_mdp(corridor_scenario(800, 0))
    values, plan = solve(m, 0.41)[:2]
    assert linearize(m, plan) == [f"goto w{i:03d}" for i in range(1, 801)]
    assert values["w000#0"] == pytest.approx(800 * math.log(1 / 0.41), rel=1e-12)


@st.composite
def small_models(draw):
    """At most four costed states plus the goal, one or two actions each,
    one or two successors per action (self-loops and cycles allowed)."""
    k = draw(st.integers(1, 4))
    ids = [f"s{i}" for i in range(k)] + ["g"]
    states = [(s, draw(st.sampled_from([0.5, 1.0, 1.5]))) for s in ids[:-1]]
    states.append(("g", 0.0))
    transitions = []
    for s in ids[:-1]:
        for a in ("a", "b")[:draw(st.integers(1, 2))]:
            # the goal is drawn twice as often as any other state
            targets = draw(st.lists(st.sampled_from(ids + ["g"]), min_size=1,
                                    max_size=2, unique=True))
            tenths = draw(st.integers(1, 9)) if len(targets) == 2 else 10
            transitions.append((s, a, targets[0], tenths / 10))
            if len(targets) == 2:
                transitions.append((s, a, targets[1], (10 - tenths) / 10))
    gamma = draw(st.floats(0.7, 0.99))
    return make_mdp(states, transitions, "s0", {"g"}), gamma


@settings(max_examples=60, deadline=None)
@given(small_models(), st.data())
def test_goal_reaching_is_reachability(model, data):
    # a zero-probability transition into any state is no path to it
    m, _ = model
    t = data.draw(st.sampled_from(m.transitions))
    target = data.draw(st.sampled_from(range(len(m.states))))
    m = Mdp(m.states, m.transitions + [TransitionSpec(t.source, t.action, target, 0.0)],
            m.start, m.goals)
    edges = [(t.source, t.target) for t in m.transitions if t.probability > 0.0]
    assert m.goal_reaching == can_reach(edges, m.goals)


def _policies(m):
    m = by_id(m)
    free = [s.id for s in m.states if s.id not in m.goals]
    enabled = enabled_actions(m)
    for choice in itertools.product(*(enabled[s] for s in free)):
        yield dict(zip(free, choice))


def _disutility(m, policy, gamma):
    """E[(1/gamma)^C] of the policy from the start by exact enumeration,
    or inf when some of its mass never reaches the goal."""
    chain = induce_chain(m, Plan(policy))
    dist = reward_distribution_exact(chain, epsilon=1e-60)
    if dist.residual > 1e-30:
        return math.inf
    return math.fsum(p * gamma ** -c for c, p in dist.mass.items())


def _well_conditioned(m, policy, gamma, bound=0.5):
    """Spectral radius of the policy's reshaped transition matrix over the
    states that reach the goal under it is below ``bound``: every finite
    value converges fast, and the enumeration's truncated tail is
    negligible."""
    m = by_id(m)
    edges = [(t.source, t.target) for t in m.transitions
             if policy.get(t.source) == t.action and t.probability > 0.0]
    live = sorted(can_reach(edges, m.goals) - m.goals)
    cost = state_costs(m)
    pos = {s: i for i, s in enumerate(live)}
    reshaped = np.zeros((len(live), len(live)))
    for t in m.transitions:
        if policy.get(t.source) == t.action and t.source in pos and t.target in pos:
            reshaped[pos[t.source], pos[t.target]] += (
                t.probability * gamma ** -cost[t.source])
    return len(live) == 0 or max(abs(np.linalg.eigvals(reshaped))) < bound


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(small_models())
def test_solve_matches_brute_force_optimum(model):
    m, gamma = model
    policies = list(_policies(m))
    assume(all(_well_conditioned(m, p, gamma) for p in policies))
    best = min(_disutility(m, p, gamma) for p in policies)
    if best == math.inf:
        with pytest.raises(NoProperPolicy):
            solve(m, gamma)
        return
    values, plan = solve(m, gamma)[:2]
    assert math.exp(values[by_id(m).start]) == pytest.approx(best, rel=1e-9)
    assert _disutility(m, plan.policy, gamma) == pytest.approx(best, rel=1e-9)
