"""Goal-directed probabilistic model: the MDP as the compressed rows the
compiled solver reads, checked when it is made, and the plan a solver
extracts from it.  A state is its position; its id names it only in a
solver's values and policy and in a plan's trace."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PROB_TOL = 1e-9
# Mdp.reach of a state with a path to a goal, and of a goal
REACHES, GOAL = 1, 2


class InvalidModel(Exception):
    """The structural problems of a model.  Not a ValueError: the program
    builds its models, so an invalid one is an internal error."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass(eq=False)
class Mdp:
    """Finite goal-directed MDP with nonnegative per-state costs, given as
    rows by position: action k is state sources[k]'s action labels[k], in
    ascending (state, label) order, with transitions rows[k]:rows[k + 1].
    Construction checks the model in whole-array passes, raises
    InvalidModel listing every problem it finds, and makes, once, the
    arrays the compiled solver reads; the model is treated as immutable
    after that.

    Those arrays are `costs` and the compressed rows below, by position:
    state i's actions are rows act_start[i]:act_start[i + 1] (those of
    `labels`); action a's moves are move_start[a]:move_start[a + 1], its
    transitions of positive probability in their order; the states with a
    move into i are preds[pred_start[i]:pred_start[i + 1]], ascending.
    They are new, C-ordered and read-only, float64, intp or uint8 as the
    kernel reads them, so the solver passes their `addresses`, in the
    kernel's argument order, with no check per call."""

    states: list[str]  # each state's id
    costs: np.ndarray  # each state's cost: made a solver array once checked
    sources: np.ndarray  # each action's state
    labels: list[str]  # each action's label
    rows: np.ndarray  # (actions + 1,) each action's first transition, then their count
    targets: np.ndarray  # each transition's target state
    transitions: np.ndarray  # each transition's probability
    start: int
    goals: frozenset[int]

    act_start: np.ndarray = field(init=False, repr=False)  # (states + 1,)
    move_start: np.ndarray = field(init=False, repr=False)  # (actions + 1,)
    move_logp: np.ndarray = field(init=False, repr=False)  # (moves,) ln P
    move_target: np.ndarray = field(init=False, repr=False)  # (moves,)
    pred_start: np.ndarray = field(init=False, repr=False)  # (states + 1,)
    preds: np.ndarray = field(init=False, repr=False)
    reach: np.ndarray = field(init=False, repr=False)  # (states,) GOAL, REACHES or 0
    addresses: tuple[int, ...] = field(init=False, repr=False)  # costs, then those above

    def __post_init__(self):
        self.goals = frozenset(self.goals)
        self.costs, self.transitions = (np.asarray(a, dtype=np.float64)
                                        for a in (self.costs, self.transitions))
        self.sources, self.rows, self.targets = (np.asarray(a, dtype=np.intp)
                                                 for a in (self.sources, self.rows, self.targets))
        n, k, p = len(self.states), len(self.labels), self.transitions
        step, labels = self.sources[1:] - self.sources[:-1], np.array(self.labels, dtype=object)
        if not (len(self.costs) == n and len(self.sources) == k == len(self.rows) - 1
                and self.rows[0] == 0 and self.rows[-1] == len(p) == len(self.targets)
                and ((counts := self.rows[1:] - self.rows[:-1]) >= 0).all()
                and ((step > 0) | (step == 0) & (labels[1:] > labels[:-1])).all()):
            raise InvalidModel(["rows not in ascending (state, label) order, or not sized"])
        action = np.repeat(np.arange(k), counts)  # each transition's

        def name(i):  # a state by its id, or by its position when it has none
            return repr(self.states[i]) if 0 <= i < n else f"position {i}"

        # each check runs on whole arrays; only what it finds is worded
        problems, seen = [], set()
        if len(set(self.states)) < n or (self.costs < 0).any():
            for s, cost in zip(self.states, self.costs.tolist()):
                if s in seen:
                    problems.append(f"duplicate state id {s!r}")
                seen.add(s)
                if cost < 0:
                    problems.append(f"state {s!r} has negative cost {cost}")
        if not 0 <= self.start < n:
            problems.append(f"start {name(self.start)} is not a declared state")
        problems += [f"goal {name(g)} is not a declared state"
                     for g in sorted(self.goals) if not 0 <= g < n]
        bad = ~((p >= 0) & (p <= 1))
        problems += [f"transition ({name(self.sources[a])},{self.labels[a]!r},{name(j)}) has "
                     f"probability {q} outside [0,1]" for a, j, q in
                     zip(*(x[bad].tolist() for x in (action, self.targets, p)))]
        problems += [f"transition {way} unknown state {name(i)}"
                     for way, x in (("from", self.sources[action]), ("to", self.targets))
                     for i in x[(x < 0) | (x >= n)].tolist()]
        sums = np.bincount(action, weights=p, minlength=k)  # added in order
        problems += [f"outgoing probabilities from ({name(self.sources[a])},{self.labels[a]!r}) "
                     f"sum to {sums[a]}, not 1"
                     for a in np.flatnonzero(abs(sums - 1.0) > PROB_TOL).tolist()]
        if problems:
            raise InvalidModel(problems)

        # the moves: transitions of positive probability, with libm's ln P once per value
        keep = p > 0.0
        move_start = np.concatenate(([0], np.cumsum(np.bincount(action[keep], minlength=k))))
        move_target, p, action = self.targets[keep], p[keep], action[keep]
        values = np.concatenate(([-1.0], np.sort(p)))  # each once; np.unique imports numpy.ma
        values = values[1:][values[1:] != values[:-1]]
        move_logp = np.array([math.log(q) for q in values.tolist()])[np.searchsorted(values, p)]
        # each state's predecessors, ascending: the distinct (target, source) pairs
        pairs = np.concatenate(([-1], np.sort(move_target * n + self.sources[action])))
        pairs = pairs[1:][pairs[1:] != pairs[:-1]]
        pred_start = np.concatenate(([0], np.cumsum(np.bincount(pairs // n, minlength=n))))
        # the states with a path to a goal, walked back over the predecessors
        reach, stack = bytearray(n), list(self.goals)
        for g in stack:
            reach[g] = GOAL
        starts, before = pred_start.tolist(), (pairs % n).tolist()
        while stack:
            i = stack.pop()
            for j in before[starts[i]:starts[i + 1]]:
                if not reach[j]:
                    reach[j] = REACHES
                    stack.append(j)
        numeric = [np.array(a, dtype=t, order="C") for a, t in (
            (self.costs, np.float64), (np.searchsorted(self.sources, np.arange(n + 1)), np.intp),
            (move_start, np.intp), (move_logp, np.float64), (move_target, np.intp),
            (pred_start, np.intp), (before, np.intp), (reach, np.uint8))]
        for a in numeric:  # new, C-ordered and read-only: the kernel reads them by address
            a.flags.writeable = False
        (self.costs, self.act_start, self.move_start, self.move_logp, self.move_target,
         self.pred_start, self.preds, self.reach) = numeric
        self.addresses = tuple(a.ctypes.data for a in numeric)


@dataclass
class Plan:
    """Partial policy plus the linearized high-level schema it induces."""

    policy: dict[str, str]
    id: str = ""
    linearization: list[str] = field(default_factory=list)
