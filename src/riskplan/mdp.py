"""Goal-directed probabilistic model: the MDP, checked when it is made,
and the plan a solver extracts from it.  A state is its position in
``Mdp.states``; its id names it only in a solver's values and policy and
in a plan's trace."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

PROB_TOL = 1e-9
# Arrays.reach of a state with a path to a goal, and of a goal
REACHES, GOAL = 1, 2


class StateSpec(NamedTuple):
    id: str
    cost: float = 0.0


class TransitionSpec(NamedTuple):
    source: int  # positions in Mdp.states
    action: str
    target: int
    probability: float


class Arrays(NamedTuple):
    """The model as compressed rows, by position: what the compiled solver
    reads.  State i's actions are rows act_start[i]:act_start[i + 1], in id
    order; action a's moves are move_start[a]:move_start[a + 1], in the
    order of its transitions; the states with a move into i are
    preds[pred_start[i]:pred_start[i + 1]], ascending.

    The numeric arrays are new, C-ordered and read-only, float64, intp or
    uint8 as the kernel reads them, so the solver passes their
    `addresses`, in the kernel's argument order, with no check per call."""

    ids: list[str]
    choices: list[tuple[str, str]]  # each action's state id and label: a policy entry
    costs: np.ndarray  # (states,)
    act_start: np.ndarray  # (states + 1,)
    move_start: np.ndarray  # (actions + 1,)
    move_logp: np.ndarray  # (moves,) ln P
    move_target: np.ndarray  # (moves,)
    pred_start: np.ndarray  # (states + 1,)
    preds: np.ndarray
    reach: np.ndarray  # (states,) GOAL, REACHES or 0, as uint8
    addresses: tuple[int, ...]  # of the eight arrays above, in this order


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
    start: int
    goals: frozenset[int]

    successors: list[list[tuple[str, list[tuple[float, int]]]]] = field(init=False, repr=False)
    goal_reaching: frozenset[int] = field(init=False, repr=False)
    arrays: Arrays = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.goals = frozenset(self.goals)
        n = len(self.states)

        def name(i):  # a state by its id, or by its position when it has none
            return repr(self.states[i].id) if 0 <= i < n else f"position {i}"

        problems, ids = [], set()
        for s in self.states:
            if s.id in ids:
                problems.append(f"duplicate state id {s.id!r}")
            ids.add(s.id)
            if s.cost < 0:
                problems.append(f"state {s.id!r} has negative cost {s.cost}")
        if not 0 <= self.start < n:
            problems.append(f"start {name(self.start)} is not a declared state")
        problems += [f"goal {name(g)} is not a declared state"
                     for g in sorted(self.goals) if not 0 <= g < n]
        # (source, action) -> [its total probability, its (ln P, target) moves]
        groups: dict[tuple[int, str], list] = {}
        for s, a, j, p in self.transitions:
            if not 0 <= s < n:
                problems.append(f"transition from unknown state {name(s)}")
            if not 0 <= j < n:
                problems.append(f"transition to unknown state {name(j)}")
            if not (0.0 <= p <= 1.0):
                problems.append(f"transition ({name(s)},{a!r},{name(j)}) has "
                                f"probability {p} outside [0,1]")
            group = groups.get((s, a))
            if group is None:
                group = groups[(s, a)] = [0.0, []]
            group[0] += p  # added in order: sum() compensates from Python 3.12
            if p > 0.0:  # a probability past 1 is logged too, then refused
                group[1].append((math.log(p), j))
        problems += [f"outgoing probabilities from ({name(s)},{a!r}) sum to {g[0]}, not 1"
                     for (s, a), g in groups.items() if abs(g[0] - 1.0) > PROB_TOL]
        if problems:
            raise InvalidModel(problems)
        # by position: the enabled actions in id order, each with its
        # (ln P, successor) pairs of positive probability, the states with
        # such a transition into the state, and the states with a path of
        # them to a goal
        self.successors = [[] for _ in self.states]
        preds: list[set[int]] = [set() for _ in self.states]
        for (s, a), (_, moves) in sorted(groups.items()):
            self.successors[s].append((a, moves))
            for _, j in moves:
                preds[j].add(s)
        predecessors = [sorted(p) for p in preds]
        reach, stack = set(self.goals), list(self.goals)
        while stack:
            new = set(predecessors[stack.pop()]) - reach
            reach |= new
            stack += new
        self.goal_reaching = frozenset(reach)

        ids = [s.id for s in self.states]
        rows = [moves for acts in self.successors for _, moves in acts]
        moves = [mv for mvs in rows for mv in mvs]
        role = np.zeros(n, dtype=np.uint8)
        role[list(reach)] = REACHES
        role[list(self.goals)] = GOAL

        def frozen(values, dtype):  # new, C-ordered and read-only: the kernel reads it by address
            a = np.array(values, dtype=dtype, order="C")
            a.flags.writeable = False
            return a

        def starts(rows):
            return frozen(np.cumsum([0, *map(len, rows)]), np.intp)

        numeric = (frozen([s.cost for s in self.states], np.float64), starts(self.successors),
                   starts(rows), frozen([lp for lp, _ in moves], np.float64),
                   frozen([j for _, j in moves], np.intp), starts(predecessors),
                   frozen([i for p in predecessors for i in p], np.intp), frozen(role, np.uint8))
        self.arrays = Arrays(
            ids, [(s, a) for s, acts in zip(ids, self.successors) for a, _ in acts],
            *numeric, tuple(a.ctypes.data for a in numeric))


@dataclass
class Plan:
    """Partial policy plus the linearized high-level schema it induces."""

    policy: dict[str, str]
    id: str = ""
    linearization: list[str] = field(default_factory=list)
