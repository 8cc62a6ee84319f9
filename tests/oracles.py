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
`reference_model` is the road to the model that grounding and `Mdp` took
before grounding wrote the rows: one spec per state and per transition,
grouped by (source, action) into nested successor lists, with the walk
`planner.linearize_trace` took over them; the grounding differential
checks the arrays and traces against it.

`make_scenario` builds a `Scenario` from one tuple per waypoint, edge and
obstacle, `same_scenario` compares two field by field (a `Scenario` has no
equality of its own), and `corridor_text` writes the .scn text of
`reporting.corridor_scenario` with the per-waypoint loop that built it
before it was whole arrays: the corridor's differential oracle.
"""

from __future__ import annotations

import math
from collections import defaultdict, deque
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from riskplan import planner
from riskplan.assess import MIN_SAMPLES, t_two_sided_p
from riskplan.mdp import GOAL, REACHES, Mdp, Plan
from riskplan.planner import INF, ImproperPolicy, NonConvergence, NoProperPolicy
from riskplan.reporting import CORRIDOR_SPACING
from riskplan.scenario import COLLIDED, Scenario, state_id

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


class IdState(NamedTuple):
    id: str
    cost: float


class IdTransition(NamedTuple):
    source: str
    action: str
    target: str
    probability: float


class ModelById:
    """A model read by state id: its states, transitions (by action row, as
    given, zero probabilities included), start, goals and goal-reaching
    states name states by id, and ``outgoing(s, a)`` lists the transitions
    of state ``s`` under action ``a``."""

    def __init__(self, m: Mdp):
        ids, sources = m.states, m.sources.tolist()
        action = np.repeat(np.arange(len(m.labels)), np.diff(m.rows)).tolist()
        self.states = [IdState(*sc) for sc in zip(ids, m.costs.tolist())]
        self.transitions = [IdTransition(ids[sources[k]], m.labels[k], ids[t], p)
                            for k, t, p in zip(action, m.targets.tolist(), m.transitions.tolist())]
        self.start = ids[m.start]
        self.goals = frozenset(ids[g] for g in m.goals)
        self.goal_reaching = frozenset(ids[i] for i in np.flatnonzero(m.reach).tolist())
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


def successors(m: Mdp) -> list[list[tuple[str, list[tuple[float, int]]]]]:
    """Each state's actions by position, in row order, each with its
    (ln P, target) moves: the model's arrays as the nested lists that the
    Python solve walks."""
    acts, starts, logp, target = (x.tolist() for x in (
        m.act_start, m.move_start, m.move_logp, m.move_target))
    return [[(m.labels[k], list(zip(logp[starts[k]:starts[k + 1]],
                                    target[starts[k]:starts[k + 1]])))
             for k in range(acts[i], acts[i + 1])] for i in range(len(m.states))]


def predecessors(succ) -> list[list[int]]:
    """Each state's predecessors by position, ascending: the states with
    a move of positive probability into it, read from ``succ``, as
    `successors` gives them."""
    preds = [set() for _ in succ]
    for i, actions in enumerate(succ):
        for _, moves in actions:
            for _, j in moves:
                preds[j].add(i)
    return [sorted(p) for p in preds]


def with_proper_policy(looped: list[int], succ, logv: list[float],
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
        allowed = {i: [moves for _, moves in succ[i]
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
    succ = successors(m)
    preds = predecessors(succ)
    logv = [INF] * len(m.states)
    swept = []
    for i in range(len(m.states)):
        if i in m.goals:
            logv[i] = 0.0
        elif not succ[i]:
            if failure_cost is not None:
                logv[i] = failure_cost * log_x
        elif m.reach[i]:
            swept.append(i)
    cost = [c * log_x for c in m.costs.tolist()]

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
    looped = with_proper_policy([i for i in swept if logv[i] == INF], succ, logv, preds)
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
                             f"from {m.states[m.start]!r}")

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
    policy = {m.states[i]: a for i, (a, _) in best.items() if i in reached}
    return dict(zip(m.states, logv)), Plan(policy=policy), backups


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


class StateSpec(NamedTuple):
    id: str
    cost: float = 0.0


class TransitionSpec(NamedTuple):
    source: int  # positions in the state list
    action: str
    target: int
    probability: float


@dataclass
class ReferenceModel:
    """A grounded model as the spec lists and their grouping gave it: the
    nested `successors` (each state's actions in id order with their
    (ln P, target) moves), the goal-reaching positions, each state's id,
    each action's label, and the arrays that the `Mdp` must hold, by
    attribute name."""

    states: list[StateSpec]
    transitions: list[TransitionSpec]
    start: int
    goals: frozenset[int]
    successors: list[list[tuple[str, list[tuple[float, int]]]]]
    goal_reaching: frozenset[int]
    ids: list[str]
    labels: list[str]
    numeric: dict[str, np.ndarray]


def reference_model(s: Scenario) -> ReferenceModel:
    """`scenario.ground_to_mdp` and the `Mdp` grouping as they were before
    grounding wrote the rows: one `StateSpec` per state and one
    `TransitionSpec` per transition in a loop over waypoints and masks,
    grouped by (source, action) in a dict, sorted into the successor lists,
    and the arrays built from those lists."""
    target_bit = {t: 1 << i for i, t in enumerate(sorted(s.inspection_goals))}
    masks = 1 << len(target_bit)
    base = {w: k * masks for k, w in enumerate(s.ids)}
    collided = len(s.ids) * masks
    neighbors: dict[str, list[tuple[str, float]]] = defaultdict(list)
    for (a, b), p in zip(s.edges.tolist(), s.risks.tolist()):
        neighbors[s.ids[a]].append((s.ids[b], p))
        neighbors[s.ids[b]].append((s.ids[a], p))
    states, transitions = [], []
    for w, target in zip(s.ids, s.inspects):
        gotos = [(f"goto {other}", base[other], p) for other, p in sorted(neighbors[w])]
        bit = target_bit.get(target, 0)
        for mask in range(masks):
            i = base[w] + mask
            states.append(StateSpec(state_id(w, mask), cost=1.0))
            for aid, j, p in gotos:
                transitions.append(TransitionSpec(i, aid, j + mask, 1.0 - p))
                if p > 0.0:
                    transitions.append(TransitionSpec(i, aid, collided, p))
            if bit and not mask & bit:
                transitions.append(TransitionSpec(i, f"inspect {target}", i + bit, 1.0))
    states.append(StateSpec(COLLIDED, cost=1.0))
    start, goals = base[s.start], frozenset({base[s.final] + masks - 1})

    groups: dict[tuple[int, str], list[tuple[float, int]]] = {}
    for i, a, j, p in transitions:
        moves = groups.setdefault((i, a), [])
        if p > 0.0:
            moves.append((math.log(p), j))
    succ = [[] for _ in states]
    for (i, a), moves in sorted(groups.items()):
        succ[i].append((a, moves))
    preds = predecessors(succ)
    reach, stack = set(goals), list(goals)
    while stack:
        new = set(preds[stack.pop()]) - reach
        reach |= new
        stack += new
    role = np.zeros(len(states), dtype=np.uint8)
    role[list(reach)] = REACHES
    role[list(goals)] = GOAL
    ids = [st.id for st in states]
    rows = [moves for acts in succ for _, moves in acts]
    moves = [mv for mvs in rows for mv in mvs]

    def starts(rows):
        return np.cumsum([0, *map(len, rows)]).astype(np.intp)

    numeric = {"costs": np.array([st.cost for st in states], dtype=np.float64),
               "act_start": starts(succ), "move_start": starts(rows),
               "move_logp": np.array([lp for lp, _ in moves], dtype=np.float64),
               "move_target": np.array([j for _, j in moves], dtype=np.intp),
               "pred_start": starts(preds),
               "preds": np.array([i for p in preds for i in p], dtype=np.intp), "reach": role}
    return ReferenceModel(states, transitions, start, goals, succ, frozenset(reach), ids,
                          [a for acts in succ for a, _ in acts], numeric)


def reference_linearize_trace(m: ReferenceModel, p: Plan) -> list[tuple[str, str]]:
    """`planner.linearize_trace` as it walked the nested successor lists:
    ln P compared, ties to the lowest target id, a retry stepping on."""
    trace: list[tuple[str, str]] = []
    i = m.start
    seen = set()
    while i not in m.goals:
        s = m.ids[i]
        a = p.policy.get(s)
        moves = next((moves for b, moves in m.successors[i] if b == a), [])
        outs = [(lp, j) for lp, j in moves if j in m.goal_reaching]
        if i in seen or not outs:
            raise ImproperPolicy(f"most-probable trace from {m.ids[m.start]!r} "
                                 f"does not reach a goal (stuck at {s!r})")
        seen.add(i)
        outs = [(lp, j) for lp, j in outs if j not in seen] or outs
        top = max(lp for lp, _ in outs)
        trace.append((s, a))
        i = min((j for lp, j in outs if lp == top), key=lambda j: m.ids[j])
    return trace


def make_scenario(waypoints, edges=(), obstacles=(), **mission) -> Scenario:
    """A `Scenario` from tuples: each waypoint ``(id, point, critical=False,
    target=None)``, each edge ``(a, b, risk)`` by waypoint id and each
    obstacle ``(label, center, half extents)``; ``mission`` gives start,
    final and any other field."""
    def waypoint(wid, point, critical=False, target=None):
        return wid, point, critical, target

    ids, points, critical, inspects = zip(*(waypoint(*w) for w in waypoints))
    return Scenario(
        ids, points, critical, inspects,
        edges=np.reshape([(ids.index(a), ids.index(b)) for a, b, _ in edges], (-1, 2)),
        risks=[risk for _, _, risk in edges], labels=[o[0] for o in obstacles],
        centers=np.reshape([o[1] for o in obstacles], (-1, 3)),
        halves=np.reshape([o[2] for o in obstacles], (-1, 3)), **mission)


def same_scenario(a: Scenario, b: Scenario) -> bool:
    """Whether ``a`` and ``b`` hold equal values in every field, the arrays
    by `np.array_equal`."""
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(Scenario)))


def corridor_text(depth: int, criticals: int, risk: float = 0.05) -> str:
    """The .scn text of ``corridor_scenario(depth, criticals, risk)``, one
    waypoint and edge at a time: the chain w000..w<depth>, each of its
    first ``criticals`` passages risky, then each one's safe detour."""
    waypoints, edges = [], []
    for i in range(depth + 1):
        waypoints.append(f"WAYPOINT w{i:03d} pos {i * CORRIDOR_SPACING!r} 0.0 -5.0"
                         + (" critical" if 1 <= i <= criticals else ""))
        if i > 0:
            p = risk if i <= criticals else 0.0
            edges.append(f"EDGE w{i - 1:03d} w{i:03d} risk {p!r}")
    for i in range(1, criticals + 1):
        waypoints.append(f"WAYPOINT d{i:03d} pos {(i - 0.5) * CORRIDOR_SPACING!r} "
                         f"{CORRIDOR_SPACING!r} -5.0")
        edges += [f"EDGE w{i - 1:03d} d{i:03d} risk 0.0", f"EDGE d{i:03d} w{i:03d} risk 0.0"]
    return "\n".join(waypoints + edges + [f"MISSION start w000 final w{depth:03d}"]) + "\n"
