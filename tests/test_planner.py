"""Risk-sensitive value iteration: gamma bounds, limits, and the gamma sweep.

The gamma-limit oracles (expected-cost and minimax plans) are computed here
by independent dynamic programs, not by the code under test.
"""

import math

import numpy as np
import pytest
from conftest import (detour_mdp, loop_mdp, make_mdp, risky_vs_safe_mdp,
                      two_action_mdp)
from riskplan import planner
from riskplan.planner import (GammaOutOfRange, ImproperPolicy, NoProperPolicy,
                              generate_candidates, linearize, linearize_trace,
                              solve)

SUITE = [two_action_mdp(), risky_vs_safe_mdp(), loop_mdp(), detour_mdp()]


def expected_cost_policy(m, sweeps=100_000, tol=1e-12):
    """Independent oracle: plain expected-cost value iteration."""
    enabled = {s.id: m.enabled_actions(s.id) for s in m.states}
    # dead ends never reach a goal: infinite expected cost
    value = {s.id: (math.inf if s.id not in m.goals and not enabled[s.id]
                    else 0.0)
             for s in m.states}

    def q(s, a):
        return m.cost(s) + sum(t.probability * value[t.target]
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
    value = {s.id: (0.0 if s.id in m.goals else math.inf) for s in m.states}
    enabled = {s.id: m.enabled_actions(s.id) for s in m.states}

    def q(s, a):
        worst = max(value[t.target] for t in m.outgoing(s, a)
                    if t.probability > 0.0)
        return m.cost(s) + worst

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


class TestTransform:
    def test_gamma_bounds(self):
        for g in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(GammaOutOfRange):
                solve(two_action_mdp(), g)


class TestSolve:
    def test_two_action_disutilities(self):
        m = two_action_mdp()
        for gamma in (0.95, 0.90):
            table, plan = solve(m, gamma)
            x = 1.0 / gamma
            want_a = x ** 10
            want_b = 0.9 * x ** 2 + 0.1 * x ** 30
            assert table["s0"] == pytest.approx(min(want_a, want_b), rel=1e-9)
            assert plan.policy["s0"] == ("b" if want_b < want_a else "a")

    def test_switch_endpoints(self):
        m = two_action_mdp()
        assert solve(m, 0.95)[1].policy["s0"] == "b"
        assert solve(m, 0.90)[1].policy["s0"] == "a"

    def test_goal_value_is_one(self):
        table, _ = solve(loop_mdp(), 0.7)
        assert table["goal"] == 1.0

    def test_no_proper_policy(self):
        m = make_mdp([("s", 1.0), ("pit", 1.0), ("g", 0.0)],
                     [("s", "a", "pit", 1.0)], "s", {"g"})
        with pytest.raises(NoProperPolicy):
            solve(m, 0.9)

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
            _, plan = solve(m, 0.999)
            for s, a in plan.policy.items():
                assert a == want[s], f"state {s} of {m.start}"

    def test_gamma_zero_limit_matches_minimax(self):
        for m in (two_action_mdp(), risky_vs_safe_mdp(), detour_mdp()):
            want = minimax_policy(m)
            _, plan = solve(m, 0.05)
            for s, a in plan.policy.items():
                assert a == want[s], f"state {s} of {m.start}"

    def test_policy_restricted_to_reachable_states(self):
        _, plan = solve(two_action_mdp(), 0.95)
        assert set(plan.policy) == {"s0", "pay2", "pay30"}


class TestLinearize:
    def test_most_probable_trace(self):
        _, plan = solve(two_action_mdp(), 0.95)
        trace = linearize_trace(two_action_mdp(), plan)
        assert trace == [("s0", "b"), ("pay2", "go")]

    def test_labels_and_length(self):
        m = two_action_mdp()
        schema, n = linearize(m, solve(m, 0.9)[1])
        assert schema == ["a", "go"]
        assert n == 2

    def test_cyclic_policy_rejected(self):
        m = two_action_mdp()
        from riskplan.mdp import Plan
        with pytest.raises(ImproperPolicy):
            linearize_trace(m, Plan({"s0": "b"}))


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
        for c in cands:
            assert c.plan.gamma == c.first_gamma

    def test_deterministic_in_rng(self):
        m = two_action_mdp()
        a = generate_candidates(m, 10, rng=np.random.default_rng(3))
        b = generate_candidates(m, 10, rng=np.random.default_rng(3))
        assert [c.gammas for c in a] == [c.gammas for c in b]
        assert [c.plan.policy for c in a] == [c.plan.policy for c in b]

    def test_interval_validation(self):
        with pytest.raises(GammaOutOfRange):
            generate_candidates(two_action_mdp(), 5, interval=(0.9, 0.4))

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

    def test_solve_times_parallel_gammas(self):
        cands = generate_candidates(two_action_mdp(), 10,
                                    rng=np.random.default_rng(3))
        for c in cands:
            assert len(c.solve_times) == len(c.gammas)
            assert all(t >= 0.0 for t in c.solve_times)

    def test_unsolvable_model_reraises(self):
        m = make_mdp([("s", 1.0), ("pit", 1.0), ("g", 0.0)],
                     [("s", "a", "pit", 1.0)], "s", {"g"})
        with pytest.raises(NoProperPolicy):
            generate_candidates(m, 5, rng=np.random.default_rng(0))
