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
from collections import deque
from dataclasses import dataclass

import numpy as np

from .mdp import ImproperPolicy, Mdp, NonConvergence, Plan

INF = math.inf
# a backup that moves log V by less than TOLERANCE queues no predecessor;
# value iteration fails after MAX_SWEEPS backups per swept state
TOLERANCE = 1e-10
MAX_SWEEPS = 10**6
# the default sweep: GAMMA_SAMPLES gammas drawn uniformly from GAMMA_INTERVAL
GAMMA_SAMPLES = 20
GAMMA_INTERVAL = (0.4, 1.0)


class GammaOutOfRange(ValueError):
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


def _with_proper_policy(looped: list[int], m: Mdp, logv: list[float]) -> list[int]:
    """The looped states from which some policy reaches a finite-valued
    state with probability 1.

    The greatest set whose every state reaches a finite state through
    actions that lead only to finite states or back into the set
    (almost-sure reachability).  The rest have no proper policy: restarted
    from log V = 0, their values would grow without bound.
    """
    keep = set(looped)
    while keep:
        allowed = {i: [moves for _, moves in m.successors[i]
                       if all(logv[j] < INF or j in keep for _, j in moves)]
                   for i in keep}
        good = {i for i in keep
                if any(logv[j] < INF for moves in allowed[i] for _, j in moves)}
        stack = list(good)
        while stack:
            for i in m.predecessors[stack.pop()]:
                if i in keep and i not in good and any(
                        j in good for moves in allowed[i] for _, j in moves):
                    good.add(i)
                    stack.append(i)
        if good == keep:
            break
        keep = good
    return [i for i in looped if i in keep]


def solve(
    m: Mdp,
    gamma: float,
    failure_cost: float | None = None,
) -> tuple[dict[str, float], Plan]:
    """Exponential-disutility value iteration in the log domain, with greedy
    plan extraction.

    log V(s) = cost(s) ln(1/gamma) + min over actions of
    logsumexp over s' of (ln P(s,a,s') + log V(s')), log V(goal) = 0, where
    V = E[(1/gamma)^C]: the pseudo-probability reshaping of Koenig &
    Simmons (1994), kept in logs so that long missions cannot overflow.
    Dead ends are +inf unless ``failure_cost`` is given, in which case
    entering one is priced as terminating with that extra cost
    (collision-recovery semantics for grounded scenarios).

    States are backed up from a FIFO worklist, as in prioritized sweeping
    (Moore & Atkeson 1993): a state whose value moves by TOLERANCE or more
    queues its predecessors again.  Values start from +inf, so the goal's
    value runs back along every path in one pass.  The goal-reaching states
    still at +inf after that can only finish through a loop of their own;
    those with a proper policy restart from log V = 0 and the queue drains
    again, the others stay at +inf.  Returns log V
    of every state and the plan, without its linearization.
    """
    if not (0.0 < gamma < 1.0):
        raise GammaOutOfRange(f"gamma must be in (0,1), got {gamma}")

    log_x = -math.log(gamma)  # ln(1/gamma)
    succ = m.successors
    logv = [INF] * len(m.states)
    swept = []
    for i, s in enumerate(m.states):
        if s.id in m.goals:
            logv[i] = 0.0
        elif not succ[i]:
            if failure_cost is not None:
                logv[i] = failure_cost * log_x
        elif s.id in m.goal_reaching:
            swept.append(i)
    cost = [s.cost * log_x for s in m.states]

    def action_value(moves: list[tuple[float, int]]) -> float:
        """logsumexp of ln P + log V over the successors, cost excluded."""
        if len(moves) == 1:
            lp, j = moves[0]
            return lp + logv[j]
        top = max(lp + logv[j] for lp, j in moves)
        if top == INF:
            return INF
        return top + math.log(sum(math.exp(lp + logv[j] - top) for lp, j in moves))

    budget = MAX_SWEEPS * len(swept)
    queued = [True] * len(m.states)  # only swept states ever leave it
    queue = deque(swept)

    def drain():
        nonlocal budget
        while queue:
            i = queue.popleft()
            queued[i] = False
            budget -= 1
            if budget < 0:
                raise NonConvergence(f"value iteration did not converge in "
                                     f"{MAX_SWEEPS} backups per state")
            new = cost[i] + min(action_value(moves) for _, moves in succ[i])
            old = logv[i]
            logv[i] = new
            if new == old or abs(new - old) < TOLERANCE:
                continue
            for j in m.predecessors[i]:
                if not queued[j]:
                    queued[j] = True
                    queue.append(j)

    drain()
    looped = _with_proper_policy([i for i in swept if logv[i] == INF], m, logv)
    if looped:
        for i in looped:
            logv[i] = 0.0
        for i in swept:
            queued[i] = True
        queue.extend(swept)
        drain()

    value = {s.id: v for s, v in zip(m.states, logv)}
    if value[m.start] == INF:
        raise NoProperPolicy(
            f"no policy reaches a goal with probability 1 from {m.start!r}")

    policy: dict[str, str] = {}
    for i in swept:
        if logv[i] < INF:
            # lowest value; min keeps the first, so ties go to the lowest
            # action id
            policy[m.states[i].id] = min(succ[i], key=lambda am: action_value(am[1]))[0]

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

    return value, Plan(policy=policy)


def linearize_trace(m: Mdp, p: Plan) -> list[tuple[str, str]]:
    """Most-probable execution trace: (state, action) pairs from start to
    goal, each step to the most probable successor that can reach a goal."""
    trace: list[tuple[str, str]] = []
    s = m.start
    seen = set()
    while s not in m.goals:
        a = p.policy.get(s)
        outs = [t for t in m.outgoing(s, a)
                if t.probability > 0.0 and t.target in m.goal_reaching]
        if s in seen or not outs:
            raise ImproperPolicy(
                f"most-probable trace from {m.start!r} does not reach a goal (stuck at {s!r})")
        seen.add(s)
        # highest-probability successor, ties to the lowest target id
        top = max(t.probability for t in outs)
        best = min((t for t in outs if t.probability == top), key=lambda t: t.target)
        trace.append((s, a))
        s = best.target
    return trace


def linearize(m: Mdp, p: Plan) -> list[str]:
    """High-level schema of the plan: its actions along `linearize_trace`."""
    return [a for _, a in linearize_trace(m, p)]


def generate_candidates(
    m: Mdp,
    n: int,
    interval: tuple[float, float] = GAMMA_INTERVAL,
    *,
    rng: np.random.Generator,
    failure_cost: float | None = None,
) -> list[Candidate]:
    """Sample gammas uniformly, solve each, deduplicate by policy, and
    linearize each distinct plan once.

    The first failed solve is raised: whether a proper policy exists does
    not depend on gamma, so no gamma is skipped.  Output order is fixed by
    each policy's first-producing gamma, independent of any scheduling.
    """
    if n < 1:
        raise ValueError("need at least one gamma sample")
    lo, hi = interval
    if not (0.0 < lo < hi <= 1.0):
        raise GammaOutOfRange(f"interval {interval} must lie inside (0,1]")
    gammas = [float(g) for g in rng.uniform(lo, hi, size=n)]

    by_policy: dict[tuple, Candidate] = {}
    for g in gammas:
        t0 = time.perf_counter()
        _, plan = solve(m, g, failure_cost=failure_cost)
        elapsed = time.perf_counter() - t0
        key = tuple(sorted(plan.policy.items()))
        cand = by_policy.setdefault(key, Candidate(plan=plan, gammas=[], solve_times=[]))
        cand.gammas.append(g)
        cand.solve_times.append(elapsed)

    candidates = sorted(by_policy.values(), key=lambda c: c.first_gamma)
    for i, c in enumerate(candidates, start=1):
        c.plan.id = f"P{i}"
        c.plan.linearization = linearize(m, c.plan)
    return candidates
