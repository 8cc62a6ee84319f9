"""Goal-directed probabilistic model: the MDP, checked when it is made,
and the plan a solver extracts from it."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

PROB_TOL = 1e-9


@dataclass(frozen=True)
class StateSpec:
    id: str
    cost: float = 0.0


@dataclass(frozen=True)
class TransitionSpec:
    source: str
    action: str
    target: str
    probability: float


class InvalidModel(Exception):
    """The structural problems of a model.  Not a ValueError: the program
    builds its models, so an invalid one is an internal error."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass
class Mdp:
    """Finite goal-directed MDP with nonnegative per-state costs.

    Construction raises InvalidModel listing every structural problem.
    Treated as immutable after construction; lookup indexes are built once.
    """

    states: list[StateSpec]
    transitions: list[TransitionSpec]
    start: str
    goals: frozenset[str]

    _outgoing: dict[tuple[str, str], list[TransitionSpec]] = field(init=False, repr=False)
    successors: list[list[tuple[str, list[tuple[float, int]]]]] = field(
        init=False, repr=False)
    predecessors: list[list[int]] = field(init=False, repr=False)
    goal_reaching: frozenset[str] = field(init=False, repr=False)

    def __post_init__(self):
        self.goals = frozenset(self.goals)
        problems: list[str] = []
        index: dict[str, int] = {}
        for i, s in enumerate(self.states):
            if s.id in index:
                problems.append(f"duplicate state id {s.id!r}")
            index[s.id] = i
            if s.cost < 0:
                problems.append(f"state {s.id!r} has negative cost {s.cost}")
        if self.start not in index:
            problems.append(f"start {self.start!r} is not a declared state")
        problems += [f"goal {g!r} is not a declared state"
                     for g in self.goals if g not in index]
        self._outgoing = {}
        for t in self.transitions:
            if t.source not in index:
                problems.append(f"transition from unknown state {t.source!r}")
            if t.target not in index:
                problems.append(f"transition to unknown state {t.target!r}")
            if not (0.0 <= t.probability <= 1.0):
                problems.append(
                    f"transition ({t.source!r},{t.action!r},{t.target!r}) has "
                    f"probability {t.probability} outside [0,1]")
            self._outgoing.setdefault((t.source, t.action), []).append(t)
        for (s, a), outs in self._outgoing.items():
            total = 0.0  # added in order: sum() compensates from Python 3.12
            for t in outs:
                total += t.probability
            if abs(total - 1.0) > PROB_TOL:
                problems.append(
                    f"outgoing probabilities from ({s!r},{a!r}) sum to {total}, not 1")
        if problems:
            raise InvalidModel(problems)
        # by position in ``states``: the enabled actions in id order, each
        # with its (ln P, successor position) pairs of positive probability,
        # the positions with such a transition into the state, and the ids
        # of the states with a path of them to a goal
        self.successors = [[] for _ in self.states]
        preds: list[set[int]] = [set() for _ in self.states]
        for s, a in sorted(self._outgoing):
            moves = [(math.log(t.probability), index[t.target])
                     for t in self._outgoing[(s, a)] if t.probability > 0.0]
            self.successors[index[s]].append((a, moves))
            for _, j in moves:
                preds[j].add(index[s])
        self.predecessors = [sorted(p) for p in preds]
        reach = {index[g] for g in self.goals}
        stack = list(reach)
        while stack:
            for i in self.predecessors[stack.pop()]:
                if i not in reach:
                    reach.add(i)
                    stack.append(i)
        self.goal_reaching = frozenset(self.states[i].id for i in reach)

    def outgoing(self, state_id: str, action_id: str) -> list[TransitionSpec]:
        return self._outgoing.get((state_id, action_id), [])


@dataclass
class Plan:
    """Partial policy plus the linearized high-level schema it induces."""

    policy: dict[str, str]
    id: str = ""
    linearization: list[str] = field(default_factory=list)
