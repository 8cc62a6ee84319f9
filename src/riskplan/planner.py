"""Risk-averse planning via an exponential-utility transformation.

A risk factor gamma in (0,1) reshapes each transition weight; solving the
reshaped model minimizes the expected disutility E[(1/gamma)^C] of the
cumulative cost C.  gamma near 1 recovers expected-cost planning, gamma
near 0 recovers guaranteed (worst-case) cost planning.  Sweeping gamma
yields a diverse, deduplicated candidate-plan set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernel
from .mdp import Mdp, Plan

INF = math.inf
# a backup that moves log V by less than TOLERANCE queues no predecessor;
# value iteration fails after MAX_SWEEPS backups per swept state
TOLERANCE = 1e-10
MAX_SWEEPS = 10**6
# the default sweep: GAMMA_SAMPLES gammas drawn uniformly from GAMMA_INTERVAL
GAMMA_SAMPLES = 20
GAMMA_INTERVAL = (0.4, 1.0)


class NoProperPolicy(Exception):
    pass


class NonConvergence(Exception):
    pass


class ImproperPolicy(ValueError):
    """A plan whose most-probable trace does not reach a goal: with a
    collision cost, a policy can price a crash below finishing and seek one."""


def check_gamma_sweep(samples: int, interval: tuple[float, float]) -> None:
    """Raise ValueError unless a sweep draws at least one gamma, from an
    interval (gamma_low, gamma_high] inside (0, 1]."""
    if samples < 1:
        raise ValueError(f"gamma_samples must be >= 1, got {samples!r}")
    low, high = interval
    if not 0.0 < low < high <= 1.0:  # NaN fails too
        raise ValueError(f"gamma_low and gamma_high must satisfy 0 < gamma_low < "
                         f"gamma_high <= 1, got {low!r} and {high!r}")


@dataclass
class Candidate:
    plan: Plan
    gammas: list[float]  # every sampled gamma that produced this policy
    solve_times: list[float]  # wall seconds of each gamma's solve, same order
    backups: list[int]  # worklist pops of each gamma's solve, same order

    @property
    def first_gamma(self) -> float:
        return self.gammas[0]


class Solution(NamedTuple):
    """What `solve` returns."""

    log_values: dict[str, float]  # every state's log V, by id
    plan: Plan
    backups: int  # worklist pops over both drains
    seconds: float  # the solve's own wall time, taken in the kernel


def solve(
    m: Mdp,
    gamma: float,
    failure_cost: float | None = None,
) -> Solution:
    """Exponential-disutility value iteration in the log domain, with greedy
    plan extraction, run by the compiled kernel (`solve_mdp`) over the
    model's arrays.

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
    again, the others stay at +inf.  The plan maps each finite swept state
    that its own walk from the start meets to its lowest-valued action, ties
    to the lowest action id, in the order the walk meets them; it stops at
    goals and dead ends and has no linearization.  Reads MAX_SWEEPS and
    TOLERANCE when called.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must be in (0,1), got {gamma}")

    log_x = -math.log(gamma)  # ln(1/gamma)
    a = m.arrays
    n = len(a.ids)
    logv, seconds = np.empty(n), np.empty(1)
    actions, backups = np.empty(n, dtype=np.intp), np.empty(1, dtype=np.intp)
    scratch = np.empty(5 * n + len(a.move_target) + 1, dtype=np.intp)
    found = kernel.load().solve_mdp(
        n, a.costs, a.act_start, a.move_start, a.move_logp, a.move_target,
        a.pred_start, a.preds, a.reach, m.start,
        log_x, INF if failure_cost is None else failure_cost * log_x, MAX_SWEEPS, TOLERANCE,
        logv, actions, backups, seconds, scratch)
    if found == -1:  # the kernel's SOLVE_NONCONVERGENCE
        raise NonConvergence(f"value iteration did not converge in "
                             f"{MAX_SWEEPS} backups per state")
    if found == -2:  # SOLVE_NO_PROPER_POLICY
        raise NoProperPolicy(f"no policy reaches a goal with probability 1 "
                             f"from {a.ids[m.start]!r}")
    policy = dict(map(a.choices.__getitem__, actions[:found].tolist()))
    return Solution(dict(zip(a.ids, logv.tolist())), Plan(policy=policy),
                    int(backups[0]), float(seconds[0]))


def linearize_trace(m: Mdp, p: Plan) -> list[tuple[str, str]]:
    """Most-probable execution trace: (state id, action) pairs from start to
    goal, each step to the most probable successor that can reach a goal
    and is not yet on the trace, so a retry steps on to its other outcome.
    It compares ln P along `Mdp.successors`, so two probabilities whose logs
    round to the same value tie; ties go to the lowest target id.  When
    every such successor is on the trace, the step goes to the most probable
    one, and the trace fails there."""
    trace: list[tuple[str, str]] = []
    i = m.start
    seen = set()
    while i not in m.goals:
        s = m.states[i].id
        a = p.policy.get(s)
        moves = next((moves for b, moves in m.successors[i] if b == a), [])
        outs = [(lp, j) for lp, j in moves if j in m.goal_reaching]
        if i in seen or not outs:
            raise ImproperPolicy(f"most-probable trace from {m.states[m.start].id!r} "
                                 f"does not reach a goal (stuck at {s!r})")
        seen.add(i)
        outs = [(lp, j) for lp, j in outs if j not in seen] or outs
        top = max(lp for lp, _ in outs)
        trace.append((s, a))
        i = min((j for lp, j in outs if lp == top), key=lambda j: m.states[j].id)
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
    check_gamma_sweep(n, interval)
    gammas = [float(g) for g in rng.uniform(*interval, size=n)]

    by_policy: dict[frozenset, Candidate] = {}
    for g in gammas:
        solved = solve(m, g, failure_cost=failure_cost)
        key = frozenset(solved.plan.policy.items())
        cand = by_policy.setdefault(
            key, Candidate(plan=solved.plan, gammas=[], solve_times=[], backups=[]))
        cand.gammas.append(g)
        cand.solve_times.append(solved.seconds)
        cand.backups.append(solved.backups)

    candidates = sorted(by_policy.values(), key=lambda c: c.first_gamma)
    for i, c in enumerate(candidates, start=1):
        c.plan.id = f"P{i}"
        try:
            c.plan.linearization = linearize(m, c.plan)
        except ImproperPolicy as exc:
            crash = "" if failure_cost is None else (
                f"; it seeks a collision, priced at collision cost {failure_cost}")
            raise ImproperPolicy(f"plan {c.plan.id}: {exc}{crash}") from None
    return candidates
