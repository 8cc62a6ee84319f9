"""The brute-force oracle: the Markov chain a plan induces on a model, and
the exact distribution of its cumulative cost at first goal entry.

The program never enumerates a plan's cost distribution; the tests check
the solver and every downstream statistic against this enumeration.

The model names its states by position; the oracles read it by state id,
through `by_id`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from riskplan.mdp import Mdp, Plan
from riskplan.planner import ImproperPolicy

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
    probable successor that can reach a goal, ties in probability to the
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
        top = max(t.probability for t in outs)
        best = min((t for t in outs if t.probability == top), key=lambda t: t.target)
        trace.append((s, a))
        s = best.target
    return trace


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
