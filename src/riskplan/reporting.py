"""Scaling study over synthetic corridor scenarios and box-plot rendering."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import planner
from .scenario import Scenario, ground_to_mdp, named_rng

CORRIDOR_SPACING = 5.0  # m between neighbouring corridor waypoints


def corridor_scenario(depth: int, criticals: int, risk: float = 0.05) -> Scenario:
    """Linear waypoint chain with risky shortcuts at the critical waypoints.

    The safe route detours around each critical passage (two extra hops),
    so plan depth and the number of critical states can be varied
    independently; the chain itself keeps every instance solvable.  Its
    waypoints and edges are the chain's, then each detour d<i>'s, in order.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not (0 <= criticals <= depth):
        raise ValueError("criticals must be in [0, depth]")
    chain, crit = np.arange(depth + 1), np.arange(1, criticals + 1)
    detour = depth + crit  # each critical waypoint's detour, by position
    points = np.full((depth + 1 + criticals, 3), (0.0, 0.0, -5.0))
    points[chain, 0] = chain * CORRIDOR_SPACING
    points[detour, 0], points[detour, 1] = (crit - 0.5) * CORRIDOR_SPACING, CORRIDOR_SPACING
    return Scenario(
        ids=[f"w{i:03d}" for i in chain] + [f"d{i:03d}" for i in crit],
        points=points, critical=np.isin(np.arange(len(points)), crit),
        inspects=[None] * len(points),
        edges=np.concatenate((np.stack((chain[:-1], chain[1:]), axis=1),
                              np.stack((crit - 1, detour, detour, crit), axis=1).reshape(-1, 2))),
        risks=np.concatenate((np.where(chain[1:] <= criticals, risk, 0.0),
                              np.zeros(2 * criticals))),
        labels=(), centers=np.empty((0, 3)), halves=np.empty((0, 3)),
        start="w000", final=f"w{depth:03d}")


@dataclass
class ScalingRow:
    depth: int
    criticals: int
    solvable: bool
    plan_length: int | None = None
    gamma: float | None = None
    planning_time_s: float | None = None
    median_solve_time_s: float | None = None
    median_backups: float | None = None  # worklist pops per solve: the clock-free cost
    error: str | None = None


def run_scaling(
    depth_list: list[int],
    criticals_list: list[int],
    master_seed: int,
    collision_cost: float | None = None,
) -> list[ScalingRow]:
    """Solve one corridor per (depth, criticals) pair with the default gamma
    sweep and report the safest plan's length, producing risk factor and
    planning time, and the median solve time and worklist pop count over
    the sweep.

    Collisions are priced as unrecoverable by default (``collision_cost
    None``): a finite penalty smaller than the remaining corridor cost would
    make crashing cheaper than finishing on the long rows.  A failed row is
    recorded; when every row fails, the first row's exception is raised.
    """
    if not depth_list or len(depth_list) != len(criticals_list):
        raise ValueError("depth and criticals lists must be nonempty and equal length")
    rows, errors = [], []
    for depth, crit in zip(depth_list, criticals_list):
        try:
            mdp = ground_to_mdp(corridor_scenario(depth, crit))
            candidates = planner.generate_candidates(
                mdp, planner.GAMMA_SAMPLES, rng=named_rng(master_seed, depth, crit),
                failure_cost=collision_cost)
            # safest candidate: the one produced at the lowest risk factor
            safest = min(candidates, key=lambda c: min(c.gammas))
            g = min(safest.gammas)
            solve_times = [t for c in candidates for t in c.solve_times]
            backups = [b for c in candidates for b in c.backups]
            rows.append(ScalingRow(depth, crit, True, len(safest.plan.linearization), g,
                                   safest.solve_times[safest.gammas.index(g)],
                                   float(np.median(solve_times)), float(np.median(backups))))
        except Exception as exc:  # per-row failure is recorded, not fatal
            errors.append(exc)
            rows.append(ScalingRow(depth, crit, False, error=f"{type(exc).__name__}: {exc}"))
    if len(errors) == len(rows):
        raise errors[0]
    return rows


def boxplot_svg(samples_by_plan: dict[str, list[float]]) -> tuple[str, list[tuple]]:
    """Deterministic box-plot SVG plus CSV rows of the raw samples.

    Boxes show median and quartiles, whiskers the min/max within 1.5 IQR,
    and dots any outliers beyond that.  Plans with fewer than 2 samples
    are skipped with a warning row.
    """
    plans = sorted(samples_by_plan)
    usable = {p: samples_by_plan[p] for p in plans if len(samples_by_plan[p]) >= 2}
    if not usable:
        raise ValueError("no plan has at least 2 episodes")

    rows: list[tuple] = []
    for p in plans:
        if p in usable:
            for i, x in enumerate(samples_by_plan[p]):
                rows.append((p, "sample", i, f"{x:.6f}"))
        else:
            rows.append((p, "warning", "",
                         "skipped: fewer than 2 episodes"))

    width, height = 120 * len(usable) + 80, 360
    top, bottom = 40, height - 50
    all_vals = [x for s in usable.values() for x in s]
    lo, hi = min(all_vals), max(all_vals)
    span = (hi - lo) or 1.0
    lo -= 0.05 * span
    hi += 0.05 * span

    def y(v: float) -> float:
        return bottom - (v - lo) / (hi - lo) * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">execution time [s]</text>',
    ]
    for k, plan in enumerate(sorted(usable)):
        s = sorted(usable[plan])
        q1, q2, q3 = np.percentile(s, [25, 50, 75]).tolist()
        iqr = q3 - q1
        lo_w = min(x for x in s if x >= q1 - 1.5 * iqr)
        hi_w = max(x for x in s if x <= q3 + 1.5 * iqr)
        outliers = [x for x in s if x < q1 - 1.5 * iqr or x > q3 + 1.5 * iqr]
        cx = 80 + 120 * k + 40
        bw = 50
        parts.append(f'<line x1="{cx}" y1="{y(lo_w):.2f}" x2="{cx}" y2="{y(q1):.2f}" stroke="black"/>')
        parts.append(f'<line x1="{cx}" y1="{y(q3):.2f}" x2="{cx}" y2="{y(hi_w):.2f}" stroke="black"/>')
        for wv in (lo_w, hi_w):
            parts.append(f'<line x1="{cx - 15}" y1="{y(wv):.2f}" x2="{cx + 15}" y2="{y(wv):.2f}" stroke="black"/>')
        parts.append(f'<rect x="{cx - bw / 2}" y="{y(q3):.2f}" width="{bw}" '
                     f'height="{max(y(q1) - y(q3), 0.5):.2f}" fill="#9ecae1" stroke="black"/>')
        parts.append(f'<line x1="{cx - bw / 2}" y1="{y(q2):.2f}" x2="{cx + bw / 2}" y2="{y(q2):.2f}" '
                     f'stroke="black" stroke-width="2"/>')
        for o in outliers:
            parts.append(f'<circle cx="{cx}" cy="{y(o):.2f}" r="3" fill="none" stroke="black"/>')
        parts.append(f'<text x="{cx}" y="{height - 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12">{plan}</text>')
    for frac in (0.0, 0.5, 1.0):
        v = lo + frac * (hi - lo)
        parts.append(f'<text x="10" y="{y(v) + 4:.2f}" font-family="sans-serif" '
                     f'font-size="10">{v:.1f}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n", rows
