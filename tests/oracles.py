"""The brute-force oracle: the Markov chain a plan induces on a model, and
the exact distribution of its cumulative cost at first goal entry.

The program never enumerates a plan's cost distribution; the tests check
the solver and every downstream statistic against this enumeration.

The model names its states by position; the oracles read it by state id,
through `by_id`.  `per_action_solve` is the exception: the log-domain
worklist solver in Python as it was before its backups became one loop per
state, kept by position as the bitwise oracle of the compiled
`planner.solve`, and
`samples_compare_means` is Welch's test as it was when it summed each
plan's samples itself, the bitwise oracle of `assess.compare_means`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from riskplan import planner
from riskplan.assess import MIN_SAMPLES, t_two_sided_p
from riskplan.mdp import Mdp, Plan
from riskplan.planner import INF, ImproperPolicy, NonConvergence, NoProperPolicy

# accumulated real-valued costs are rounded to this many decimals to keep
# the distribution support finite
COST_DECIMALS = 9


class MissingPolicyEntry(Exception):
    def __init__(self, state: str):
        self.state = state
        super().__init__(f"no policy entry for reachable non-goal state {state!r}")


class ZeroCostCycle(Exception):
    """Mass trapped away from every goal on a cycle of zero-cost states."""

    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("frontier mass cannot be absorbed: zero-cost cycle "
                         f"{' -> '.join(cycle)} never reaches a goal")


class IdTransition(NamedTuple):
    source: str
    action: str
    target: str
    probability: float


class ModelById:
    """A model read by state id: its transitions, start, goals and
    goal-reaching states name states by id, and ``outgoing(s, a)`` lists
    the transitions of state ``s`` under action ``a``."""

    def __init__(self, m: Mdp):
        ids = [st.id for st in m.states]
        self.states = m.states
        self.transitions = [IdTransition(ids[s], a, ids[t], p)
                            for s, a, t, p in m.transitions]
        self.start = ids[m.start]
        self.goals = frozenset(ids[g] for g in m.goals)
        self.goal_reaching = frozenset(ids[i] for i in m.goal_reaching)
        self._outgoing: dict[tuple[str, str], list[IdTransition]] = {}
        for t in self.transitions:
            self._outgoing.setdefault((t.source, t.action), []).append(t)

    def outgoing(self, state_id: str, action_id: str) -> list[IdTransition]:
        return self._outgoing.get((state_id, action_id), [])


def by_id(m: Mdp | ModelById) -> ModelById:
    """The model read by state id (a view is its own view)."""
    return m if isinstance(m, ModelById) else ModelById(m)


def linearize_trace(m: Mdp, p: Plan) -> list[tuple[str, str]]:
    """Most-probable execution trace, walked over the transitions by id:
    (state, action) pairs from start to goal, each step to the most
    probable successor that can reach a goal and is not yet on the trace
    (to the most probable one when all are), ties in probability to the
    lowest target id.  The oracle of `planner.linearize_trace`."""
    m = by_id(m)
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
        outs = [t for t in outs if t.target not in seen] or outs
        top = max(t.probability for t in outs)
        best = min((t for t in outs if t.probability == top), key=lambda t: t.target)
        trace.append((s, a))
        s = best.target
    return trace


def predecessors(m: Mdp) -> list[list[int]]:
    """Each state's predecessors by position, ascending: the states with
    a move of positive probability into it, read from `Mdp.successors`."""
    preds = [set() for _ in m.states]
    for i, actions in enumerate(m.successors):
        for _, moves in actions:
            for _, j in moves:
                preds[j].add(i)
    return [sorted(p) for p in preds]


def with_proper_policy(looped: list[int], m: Mdp, logv: list[float],
                       preds: list[list[int]]) -> list[int]:
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
            for i in preds[stack.pop()]:
                if i in keep and i not in good and any(
                        j in good for moves in allowed[i] for _, j in moves):
                    good.add(i)
                    stack.append(i)
        if good == keep:
            break
        keep = good
    return [i for i in looped if i in keep]


def per_action_solve(m: Mdp, gamma: float, failure_cost: float | None = None):
    """`planner.solve` in Python, with one `action_value` call per action,
    a `min` over a generator per backup and another per extracted state.
    Its log-sum-exp adds its terms in order with a loop, as ``sum()`` did
    on Python 3.11.  It reads `planner.MAX_SWEEPS` and `planner.TOLERANCE`
    when called.  Returns log V by id, the plan, and the worklist pops of
    both drains."""
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0,1), got {gamma}")

    log_x = -math.log(gamma)
    succ = m.successors
    preds = predecessors(m)
    logv = [INF] * len(m.states)
    swept = []
    for i in range(len(m.states)):
        if i in m.goals:
            logv[i] = 0.0
        elif not succ[i]:
            if failure_cost is not None:
                logv[i] = failure_cost * log_x
        elif i in m.goal_reaching:
            swept.append(i)
    cost = [s.cost * log_x for s in m.states]

    def action_value(moves):
        if len(moves) == 1:
            lp, j = moves[0]
            return lp + logv[j]
        top = max(lp + logv[j] for lp, j in moves)
        if top == INF:
            return INF
        total = 0.0
        for lp, j in moves:
            total += math.exp(lp + logv[j] - top)
        return top + math.log(total)

    budget = planner.MAX_SWEEPS * len(swept)
    queued = [True] * len(m.states)
    queue = deque(swept)

    def drain():
        nonlocal budget
        while queue:
            i = queue.popleft()
            queued[i] = False
            budget -= 1
            if budget < 0:
                raise NonConvergence(f"value iteration did not converge in "
                                     f"{planner.MAX_SWEEPS} backups per state")
            new = cost[i] + min(action_value(moves) for _, moves in succ[i])
            old = logv[i]
            logv[i] = new
            if new == old or abs(new - old) < planner.TOLERANCE:
                continue
            for j in preds[i]:
                if not queued[j]:
                    queued[j] = True
                    queue.append(j)

    drain()
    looped = with_proper_policy([i for i in swept if logv[i] == INF], m, logv, preds)
    if looped:
        for i in looped:
            logv[i] = 0.0
        for i in swept:
            queued[i] = True
        queue.extend(swept)
        drain()

    backups = planner.MAX_SWEEPS * len(swept) - budget
    if logv[m.start] == INF:
        raise NoProperPolicy(f"no policy reaches a goal with probability 1 "
                             f"from {m.states[m.start].id!r}")

    best = {i: min(succ[i], key=lambda am: action_value(am[1]))
            for i in swept if logv[i] < INF}
    reached = set()
    stack = [m.start]
    while stack:
        i = stack.pop()
        if i not in reached:
            reached.add(i)
            if i in best:
                stack += [j for _, j in best[i][1]]
    policy = {m.states[i].id: a for i, (a, _) in best.items() if i in reached}
    return {s.id: v for s, v in zip(m.states, logv)}, Plan(policy=policy), backups


def samples_compare_means(a: list[float], b: list[float]) -> tuple[float, float]:
    """`assess.compare_means` from the two sample lists: each list's count,
    mean and unbiased variance summed here, as `compute_metrics` sums them."""
    if len(a) < MIN_SAMPLES or len(b) < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples per group")
    na, nb = len(a), len(b)
    ma, mb = sum(a) / na, sum(b) / nb
    va = sum((x - ma) ** 2 for x in a) / (na - 1)
    vb = sum((x - mb) ** 2 for x in b) / (nb - 1)
    se2 = va / na + vb / nb
    if se2 == 0.0:
        return (0.0, 1.0) if ma == mb else (math.copysign(math.inf, ma - mb), 0.0)
    t = (ma - mb) / math.sqrt(se2)
    den = (va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1)
    if se2 ** 2 == 0.0 or den == 0.0:  # underflowed: the shares of se2 sum to 1
        ra, rb = (va / na) / se2, (vb / nb) / se2
        df = 1 / (ra ** 2 / (na - 1) + rb ** 2 / (nb - 1))
    else:
        df = se2 ** 2 / den
    return t, min(t_two_sided_p(t, df), 1.0)


@dataclass
class RewardDistribution:
    """Exact distribution of cumulative cost at first goal entry.

    ``residual`` is the probability mass not absorbed at a goal when
    enumeration stopped; it is reported, never renormalized away.
    """

    mass: dict[float, float]
    residual: float

    def total(self) -> float:
        return sum(self.mass.values()) + self.residual

    def mean(self) -> float:
        absorbed = sum(self.mass.values())
        if absorbed == 0.0:
            return 0.0
        return sum(x * p for x, p in self.mass.items()) / absorbed

    def variance(self) -> float:
        absorbed = sum(self.mass.values())
        if absorbed == 0.0:
            return 0.0
        mu = self.mean()
        return sum((x - mu) ** 2 * p for x, p in self.mass.items()) / absorbed


@dataclass
class MarkovChain:
    """Chain induced by fixing a policy; goal states are absorbing."""

    states: list[str]
    edges: dict[str, list[tuple[str, float]]]
    start: str
    costs: dict[str, float]
    goals: frozenset[str]


def induce_chain(m: Mdp, p: Plan) -> MarkovChain:
    """Fix the plan's action at every reachable non-goal state.

    Raises MissingPolicyEntry if a reachable non-goal state is unmapped.
    """
    m = by_id(m)
    edges: dict[str, list[tuple[str, float]]] = {}
    costs: dict[str, float] = {}
    chain_states: list[str] = []
    state_cost = {st.id: st.cost for st in m.states}
    frontier = [m.start]
    visited: set[str] = set()
    while frontier:
        s = frontier.pop()
        if s in visited:
            continue
        visited.add(s)
        chain_states.append(s)
        costs[s] = state_cost[s]
        if s in m.goals:
            edges[s] = [(s, 1.0)]
            continue
        if s not in p.policy:
            raise MissingPolicyEntry(s)
        outs = m.outgoing(s, p.policy[s])
        if not outs:
            raise MissingPolicyEntry(s)
        edges[s] = [(t.target, t.probability) for t in outs]
        for t in outs:
            if t.target not in visited:
                frontier.append(t.target)
    chain_states.sort()
    return MarkovChain(chain_states, edges, m.start, costs, m.goals & visited)


def can_reach(edges, targets) -> set[str]:
    """Nodes with a path to one of ``targets`` along the (source, target)
    pairs of ``edges``; the targets themselves included."""
    incoming: dict[str, set[str]] = {}
    for source, target in edges:
        incoming.setdefault(target, set()).add(source)
    reach = set(targets)
    stack = list(reach)
    while stack:
        s = stack.pop()
        for pred in incoming.get(s, ()):
            if pred not in reach:
                reach.add(pred)
                stack.append(pred)
    return reach


def _zero_cost_cycle(chain: MarkovChain, trapped: set[str]) -> list[str] | None:
    """Find a cycle through zero-cost trapped states, if one exists."""
    zero = {s for s in trapped if chain.costs.get(s, 0.0) == 0.0}
    for origin in sorted(zero):
        path = [origin]
        on_path = {origin}
        def dfs(s: str) -> list[str] | None:
            for t, q in chain.edges.get(s, ()):
                if q <= 0.0 or t not in zero:
                    continue
                if t == origin:
                    return list(path)
                if t in on_path:
                    continue
                path.append(t)
                on_path.add(t)
                found = dfs(t)
                if found is not None:
                    return found
                path.pop()
                on_path.discard(t)
            return None
        cycle = dfs(origin)
        if cycle is not None:
            return cycle
    return None


def reward_distribution_exact(
    chain: MarkovChain, goals: frozenset[str] | None = None, epsilon: float = 1e-9
) -> RewardDistribution:
    """Enumerate histories by dynamic programming over (state, cost) mass.

    Absorbs mass on first goal entry (the goal state's own cost is never
    added); stops when unabsorbed mass drops below ``epsilon``.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0,1), got {epsilon}")
    goals = chain.goals if goals is None else goals
    reach = can_reach(((s, t) for s, outs in chain.edges.items()
                       for t, q in outs if q > 0.0), goals)

    def key(c: float) -> float:
        return round(c, COST_DECIMALS)

    mass: dict[float, float] = {}
    residual = 0.0
    frontier: dict[tuple[str, float], float] = {}

    def push(state: str, cost: float, prob: float):
        nonlocal residual
        if prob <= 0.0:
            return
        if state in goals:
            k = key(cost)
            mass[k] = mass.get(k, 0.0) + prob
        elif state not in reach:
            cycle = _zero_cost_cycle(chain, {s for s in chain.states if s not in reach})
            if cycle is not None:
                raise ZeroCostCycle(cycle)
            residual += prob
        else:
            k = (state, key(cost))
            frontier[k] = frontier.get(k, 0.0) + prob

    push(chain.start, 0.0, 1.0)
    while sum(frontier.values()) >= epsilon:
        current, frontier = frontier, {}
        for (s, c), prob in current.items():
            step = chain.costs.get(s, 0.0)
            for t, q in chain.edges.get(s, ()):
                push(t, c + step, prob * q)
    residual += sum(frontier.values())
    return RewardDistribution(mass, residual)
