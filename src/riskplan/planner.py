"""Risk-averse planning via an exponential-utility transformation.

A risk factor gamma in (0,1) reshapes each transition weight; solving the
reshaped model minimizes the expected disutility E[(1/gamma)^C] of the
cumulative cost C.  gamma near 1 recovers expected-cost planning, gamma
near 0 recovers guaranteed (worst-case) cost planning.  Sweeping gamma
yields a diverse, deduplicated candidate-plan set.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .mdp import ImproperPolicy, Mdp, NonConvergence, Plan

INF = math.inf


class GammaOutOfRange(Exception):
    pass


class NoProperPolicy(Exception):
    pass


@dataclass
class Candidate:
    plan: Plan
    gammas: list[float]  # every sampled gamma that produced this policy
    solve_times: list[float]  # wall seconds of each gamma's solve, same order

    @property
    def first_gamma(self) -> float:
        return self.gammas[0]


def _goal_reaching_states(m: Mdp) -> set[str]:
    """States from which some policy can reach a goal."""
    incoming: dict[str, set[str]] = {}
    for t in m.transitions:
        if t.probability > 0.0:
            incoming.setdefault(t.target, set()).add(t.source)
    reach = set(m.goals)
    stack = list(reach)
    while stack:
        s = stack.pop()
        for pred in incoming.get(s, ()):
            if pred not in reach:
                reach.add(pred)
                stack.append(pred)
    return reach


def solve(
    m: Mdp,
    gamma: float,
    tolerance: float = 1e-10,
    max_sweeps: int = 10**6,
    failure_cost: float | None = None,
) -> tuple[dict[str, float], Plan]:
    """Exponential-disutility value iteration with greedy plan extraction.

    V(s) = min over actions of sum_s' P(s,a,s') * gamma^(-cost(s)) * V(s'),
    V(goal) = 1: the pseudo-probability reshaping of Koenig & Simmons (1994),
    applied inline.  Dead ends are +inf unless ``failure_cost`` is given, in
    which case entering one is priced as terminating with that extra cost
    (collision-recovery semantics for grounded scenarios).  Returns the
    value of every state and the plan.
    """
    if not (0.0 < gamma < 1.0):
        raise GammaOutOfRange(f"gamma must be in (0,1), got {gamma}")

    enabled = m.enabled_actions
    dead_end_value = INF if failure_cost is None else gamma ** (-failure_cost)
    value: dict[str, float] = {}
    reach = _goal_reaching_states(m)
    for s in m.states:
        if s.id in m.goals:
            value[s.id] = 1.0
        elif not enabled(s.id):
            value[s.id] = dead_end_value
        elif s.id not in reach:
            value[s.id] = INF
        else:
            value[s.id] = 1.0

    sweep_states = [(s.id, enabled(s.id)) for s in m.states
                    if s.id not in m.goals and enabled(s.id) and s.id in reach]

    def action_value(s: str, a: str) -> float:
        mult = gamma ** (-m.cost(s))
        total = 0.0
        for t in m.outgoing(s, a):
            if t.probability == 0.0:
                continue
            v = value[t.target]
            if v == INF:
                return INF
            total += t.probability * v
        return mult * total

    converged = False
    for _ in range(max_sweeps):
        delta = 0.0
        for s, acts in sweep_states:
            new = min(action_value(s, a) for a in acts)
            old = value[s]
            if new == INF or old == INF:
                if new != old:
                    delta = INF
            else:
                delta = max(delta, abs(new - old) / max(1.0, abs(old)))
            value[s] = new
        if delta < tolerance:
            converged = True
            break
    if not converged:
        raise NonConvergence(f"value iteration did not converge in {max_sweeps} sweeps")

    if value[m.start] == INF:
        raise NoProperPolicy(
            f"no policy reaches a goal with probability 1 from {m.start!r}")

    policy: dict[str, str] = {}
    for s in m.states:
        if s.id in m.goals or not enabled(s.id) or value[s.id] == INF:
            continue
        best = min(enabled(s.id), key=lambda a: (action_value(s.id, a), a))
        policy[s.id] = best

    # keep only states reachable under the policy itself so two plans are
    # comparable as policies
    reachable: set[str] = set()
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
    policy = {s: a for s, a in policy.items() if s in reachable}

    plan = Plan(policy=policy, gamma=gamma)
    plan.linearization, _ = linearize(m, plan)
    return value, plan


def linearize_trace(m: Mdp, p: Plan) -> list[tuple[str, str]]:
    """Most-probable execution trace: (state, action) pairs from start to goal."""
    trace: list[tuple[str, str]] = []
    s = m.start
    seen = set()
    while s not in m.goals:
        if s in seen or s not in p.policy:
            raise ImproperPolicy(
                f"most-probable trace from {m.start!r} does not reach a goal (stuck at {s!r})")
        seen.add(s)
        a = p.policy[s]
        outs = m.outgoing(s, a)
        if not outs:
            raise ImproperPolicy(f"policy action {a!r} has no transitions from {s!r}")
        # highest-probability successor, ties to the lowest target id
        top = max(t.probability for t in outs)
        best = min((t for t in outs if t.probability == top), key=lambda t: t.target)
        trace.append((s, a))
        s = best.target
    return trace


def linearize(m: Mdp, p: Plan) -> tuple[list[str], int]:
    """High-level action-label schema of the plan, plus its step count."""
    labels = {a.id: (a.label or a.id) for a in m.actions}
    trace = linearize_trace(m, p)
    schema = [labels[a] for _, a in trace]
    return schema, len(schema)


def generate_candidates(
    m: Mdp,
    n: int,
    interval: tuple[float, float] = (0.4, 1.0),
    rng: np.random.Generator | None = None,
    failure_cost: float | None = None,
    tolerance: float = 1e-10,
) -> list[Candidate]:
    """Sample gammas uniformly, solve each, and deduplicate by policy.

    The first failed solve is raised: whether a proper policy exists does
    not depend on gamma, so no gamma is skipped.  Output order is fixed by
    each policy's first-producing gamma, independent of any scheduling.
    """
    if n < 1:
        raise ValueError("need at least one gamma sample")
    lo, hi = interval
    if not (0.0 < lo < hi <= 1.0):
        raise GammaOutOfRange(f"interval {interval} must lie inside (0,1]")
    rng = np.random.default_rng() if rng is None else rng
    gammas = [float(g) for g in rng.uniform(lo, hi, size=n)]

    by_policy: dict[tuple, Candidate] = {}
    for g in gammas:
        t0 = time.perf_counter()
        _, plan = solve(m, g, tolerance=tolerance, failure_cost=failure_cost)
        elapsed = time.perf_counter() - t0
        key = tuple(sorted(plan.policy.items()))
        cand = by_policy.setdefault(key, Candidate(plan=plan, gammas=[], solve_times=[]))
        cand.gammas.append(g)
        cand.solve_times.append(elapsed)

    candidates = sorted(by_policy.values(), key=lambda c: c.first_gamma)
    for i, c in enumerate(candidates, start=1):
        c.plan.id = f"P{i}"
        c.plan.gamma = c.first_gamma
    return candidates
