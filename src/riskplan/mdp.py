"""Goal-directed probabilistic model: MDP, policy-induced chain, exact cost distribution.

The exact distribution enumerator is the brute-force oracle that every
downstream statistic is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

PROB_TOL = 1e-9
# accumulated real-valued costs are grouped at this granularity to keep
# the distribution support finite
COST_QUANTUM = 1e-9


class MissingPolicyEntry(Exception):
    def __init__(self, state: str):
        self.state = state
        super().__init__(f"no policy entry for reachable non-goal state {state!r}")


class NonConvergence(Exception):
    def __init__(self, message: str, cycle: list[str] | None = None):
        self.cycle = cycle or []
        super().__init__(message)


class ImproperPolicy(Exception):
    pass


@dataclass(frozen=True)
class StateSpec:
    id: str
    cost: float = 0.0


@dataclass(frozen=True)
class ActionSpec:
    id: str
    label: str = ""


@dataclass(frozen=True)
class TransitionSpec:
    source: str
    action: str
    target: str
    probability: float


@dataclass
class Mdp:
    """Finite goal-directed MDP with nonnegative per-state costs.

    Treated as immutable after construction; lookup indexes are built once.
    """

    states: list[StateSpec]
    actions: list[ActionSpec]
    transitions: list[TransitionSpec]
    start: str
    goals: frozenset[str]

    _state_by_id: dict[str, StateSpec] = field(init=False, repr=False)
    _outgoing: dict[tuple[str, str], list[TransitionSpec]] = field(init=False, repr=False)
    _enabled: dict[str, list[str]] = field(init=False, repr=False)

    def __post_init__(self):
        self.goals = frozenset(self.goals)
        self._state_by_id = {s.id: s for s in self.states}
        self._outgoing = {}
        for t in self.transitions:
            self._outgoing.setdefault((t.source, t.action), []).append(t)
        self._enabled = {}
        for s, a in sorted(self._outgoing):
            self._enabled.setdefault(s, []).append(a)

    def state(self, state_id: str) -> StateSpec:
        return self._state_by_id[state_id]

    def cost(self, state_id: str) -> float:
        return self._state_by_id[state_id].cost

    def outgoing(self, state_id: str, action_id: str) -> list[TransitionSpec]:
        return self._outgoing.get((state_id, action_id), [])

    def enabled_actions(self, state_id: str) -> list[str]:
        """Actions with transitions out of the state, sorted by id."""
        return self._enabled.get(state_id, [])


@dataclass
class Plan:
    """Partial policy plus the linearized high-level schema it induces."""

    policy: dict[str, str]
    id: str = ""
    gamma: float = 1.0
    linearization: list[str] = field(default_factory=list)


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


def validate(m: Mdp) -> list[str]:
    """Check all structural invariants; returns human-readable violations."""
    problems: list[str] = []
    seen_states: set[str] = set()
    for s in m.states:
        if s.id in seen_states:
            problems.append(f"duplicate state id {s.id!r}")
        seen_states.add(s.id)
        if s.cost < 0:
            problems.append(f"state {s.id!r} has negative cost {s.cost}")
    if m.start not in seen_states:
        problems.append(f"start {m.start!r} is not a declared state")
    for g in m.goals:
        if g not in seen_states:
            problems.append(f"goal {g!r} is not a declared state")
    action_ids = {a.id for a in m.actions}
    groups: dict[tuple[str, str], float] = {}
    for t in m.transitions:
        if t.source not in seen_states:
            problems.append(f"transition from unknown state {t.source!r}")
        if t.target not in seen_states:
            problems.append(f"transition to unknown state {t.target!r}")
        if t.action not in action_ids:
            problems.append(f"transition uses unknown action {t.action!r}")
        if not (0.0 <= t.probability <= 1.0):
            problems.append(
                f"transition ({t.source!r},{t.action!r},{t.target!r}) has "
                f"probability {t.probability} outside [0,1]"
            )
        groups[(t.source, t.action)] = groups.get((t.source, t.action), 0.0) + t.probability
    for (s, a), total in groups.items():
        if abs(total - 1.0) > PROB_TOL:
            problems.append(f"outgoing probabilities from ({s!r},{a!r}) sum to {total}, not 1")
    return problems


def induce_chain(m: Mdp, p: Plan) -> MarkovChain:
    """Fix the plan's action at every reachable non-goal state.

    Raises MissingPolicyEntry if a reachable non-goal state is unmapped.
    """
    edges: dict[str, list[tuple[str, float]]] = {}
    costs: dict[str, float] = {}
    chain_states: list[str] = []
    frontier = [m.start]
    visited: set[str] = set()
    while frontier:
        s = frontier.pop()
        if s in visited:
            continue
        visited.add(s)
        chain_states.append(s)
        costs[s] = m.cost(s)
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


def _can_reach_goal(chain: MarkovChain, goals: frozenset[str]) -> set[str]:
    incoming: dict[str, set[str]] = {s: set() for s in chain.states}
    for s, outs in chain.edges.items():
        for t, q in outs:
            if q > 0.0:
                incoming.setdefault(t, set()).add(s)
    reach = set(g for g in goals if g in incoming or g in chain.edges)
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
    reach = _can_reach_goal(chain, goals)

    def key(c: float) -> float:
        return round(c, 9)  # group at COST_QUANTUM granularity

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
                raise NonConvergence(
                    "frontier mass cannot be absorbed: zero-cost cycle "
                    f"{' -> '.join(cycle)} never reaches a goal",
                    cycle=cycle,
                )
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
