"""Acceptance gate: ten end-to-end criteria with independent oracles.

Each test computes its oracle inside this file (closed forms, brute-force
dynamic programs, or vectorized Monte Carlo) before asserting against the
library, and prints one PASS line when its criterion holds.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import (TANKS_SCN, detour_mdp, loop_mdp, make_chain, make_mdp,
                      risky_vs_safe_mdp, two_action_mdp)
from oracles import induce_chain, reward_distribution_exact
from riskplan.assess import RiskMetrics, compute_metrics, select
from riskplan.mdp import Plan
from riskplan.occupancy import (LOG_ODDS_MAX, SonarScan, VoxelGrid, integrate_scan,
                                logistic)
from riskplan.pipeline import PipelineConfig, run_pipeline
from riskplan.planner import solve
from riskplan.reporting import run_scaling
from test_planner import expected_cost_policy, minimax_policy


def _passed(n, detail=""):
    print(f"ACCEPTANCE {n}: PASS {detail}".rstrip())


def _mc_chain(chain, n, rng, max_steps=5_000):
    """Vectorized Monte Carlo over a small chain: n sampled history costs."""
    ids = {s: i for i, s in enumerate(chain.states)}
    k = len(ids)
    targets = np.zeros((k, 8), dtype=int)
    cumprobs = np.ones((k, 8))
    for s, outs in chain.edges.items():
        cp = np.cumsum([q for _, q in outs])
        for j, (t, _) in enumerate(outs):
            targets[ids[s], j] = ids[t]
        cumprobs[ids[s], :len(outs)] = cp / cp[-1]
        cumprobs[ids[s], len(outs):] = 1.0
        targets[ids[s], len(outs):] = ids[outs[-1][0]]
    costs = np.array([chain.costs.get(s, 0.0) for s in chain.states])
    is_goal = np.array([s in chain.goals for s in chain.states])

    state = np.full(n, ids[chain.start], dtype=int)
    total = np.zeros(n)
    active = ~is_goal[state]
    for _ in range(max_steps):
        if not active.any():
            break
        cur = state[active]
        total[active] += costs[cur]
        u = rng.random(cur.shape[0])
        pick = (u[:, None] > cumprobs[cur]).sum(axis=1)
        state[active] = targets[cur, pick]
        active = ~is_goal[state]
    assert not active.any(), "Monte Carlo walkers failed to absorb"
    return total


def test_acceptance_1_exact_distribution_vs_monte_carlo():
    """Eq. 1 oracle equivalence on >= 5 hand-built chains, 100k histories."""
    chains = [
        induce_chain(loop_mdp(0.5), Plan({"s0": "try"})),
        induce_chain(loop_mdp(0.2), Plan({"s0": "try"})),
        induce_chain(two_action_mdp(),
                     Plan({"s0": "b", "pay2": "go", "pay30": "go"})),
        induce_chain(detour_mdp(),
                     Plan({"s0": "direct", "cheap": "step", "dear": "step"})),
        make_chain({"s0": [("s1", 0.6), ("s2", 0.4)],
                    "s1": [("s0", 0.3), ("g", 0.7)],
                    "s2": [("g", 1.0)]},
                   {"s0": 1.0, "s1": 2.0, "s2": 5.0, "g": 0.0},
                   "s0", {"g"}),
    ]
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    for i, chain in enumerate(chains):
        assert len(chain.states) <= 10
        exact = reward_distribution_exact(chain, epsilon=1e-12)
        samples = _mc_chain(chain, 100_000, rng)
        n = samples.shape[0]
        mean_se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - exact.mean()) < 4 * mean_se, f"chain {i}"
        sample_var = samples.var(ddof=1)
        m4 = ((samples - samples.mean()) ** 4).mean()
        var_se = math.sqrt(max(m4 - sample_var ** 2, 0.0) / n)
        assert abs(sample_var - exact.variance()) < 4 * var_se, f"chain {i}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _passed(1, f"({len(chains)} chains, {elapsed:.2f}s)")


GAMMA_LIMIT_SUITE = [two_action_mdp(), risky_vs_safe_mdp(), loop_mdp(),
                     detour_mdp()]


def test_acceptance_2_gamma_to_one_limit():
    """Plan at gamma = 0.999 equals the expected-cost-optimal plan."""
    t0 = time.perf_counter()
    for m in GAMMA_LIMIT_SUITE:
        oracle = expected_cost_policy(m)
        plan = solve(m, 0.999).plan
        assert plan.policy == {s: oracle[s] for s in plan.policy}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(2, f"({len(GAMMA_LIMIT_SUITE)} models, {elapsed:.3f}s)")


def test_acceptance_3_gamma_to_zero_limit():
    """Plan at gamma = 0.05 equals the worst-case-optimal plan."""
    suite = [two_action_mdp(), risky_vs_safe_mdp(), detour_mdp()]
    t0 = time.perf_counter()
    for m in suite:
        oracle = minimax_policy(m)
        plan = solve(m, 0.05).plan
        assert plan.policy == {s: oracle[s] for s in plan.policy}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _passed(3, f"({len(suite)} models, {elapsed:.3f}s)")


def test_acceptance_4_switch_point():
    """Single a/b switch located by an independent numeric root solve."""
    t0 = time.perf_counter()
    m = two_action_mdp()
    assert solve(m, 0.95).plan.policy["s0"] == "b"
    assert solve(m, 0.90).plan.policy["s0"] == "a"

    # derived oracle: 0.9 x^2 + 0.1 x^30 = x^10 with x = 1/gamma
    def f(x):
        return 0.9 * x ** 2 + 0.1 * x ** 30 - x ** 10

    x_star = brentq(f, 1.0 / 0.95, 1.0 / 0.90)
    gamma_star = 1.0 / x_star

    grid = np.arange(0.4, 1.0, 0.001)
    choices = [solve(m, float(g)).plan.policy["s0"] for g in grid]
    switches = [i for i in range(1, len(choices))
                if choices[i] != choices[i - 1]]
    assert len(switches) == 1
    i = switches[0]
    assert grid[i - 1] < gamma_star < grid[i]
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _passed(4, f"(gamma* = {gamma_star:.4f}, {elapsed:.2f}s)")


def test_acceptance_5_selector_reference_verdict():
    """Reference metric table: P4 selected, P3 eliminated by the mean filter."""
    def row(mean, var, ent):
        return RiskMetrics(10, mean, var, ent, 0.0, 0.0, 0.0, 5.0, 0.9, 600.0)

    table = [("P1", row(293.0, 1.92, 1.6)), ("P2", row(297.0, 1.8, 1.6)),
             ("P3", row(322.0, 0.17, 1.6)), ("P4", row(294.0, 0.02, 0.2)),
             ("P5", row(305.0, 0.1, 1.6))]
    result = select(table)
    assert result.selected == "P4"
    p3 = next(e for e in result.eliminated if e.plan_id == "P3")
    assert "cutoff" in p3.reason
    _passed(5, "(P4 selected, P3 mean-filtered)")


def test_acceptance_6_end_to_end_risk_ordering(tmp_path):
    """Default pipeline on the bundled scenario: the selected plan beats the
    risk-neutral candidate on variance at near-equal mean."""
    t0 = time.perf_counter()
    cfg = PipelineConfig(scenario_path=str(TANKS_SCN),
                         out_dir=str(tmp_path / "out"), master_seed=7)
    result = run_pipeline(cfg)
    assert len(result.candidates) >= 2

    metrics = result.report["metrics"]
    selected = result.selected
    # the risk-neutral candidate is the one produced by the largest gamma
    neutral = max(result.candidates, key=lambda c: max(c.gammas)).plan.id
    assert neutral != selected
    assert metrics[selected]["variance"] < metrics[neutral]["variance"]

    best_mean = min(m["mean"] for m in metrics.values())
    assert metrics[selected]["mean"] <= 1.05 * best_mean
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _passed(6, f"({selected} var {metrics[selected]['variance']:.2f} < "
               f"{neutral} var {metrics[neutral]['variance']:.2f}, "
               f"{elapsed:.1f}s)")


def test_acceptance_7_scaling_suite():
    """All corridor rows solvable, each under 5 s, median time nondecreasing
    in the number of critical states."""
    rows = run_scaling([3, 4, 5, 6, 30, 90], [3, 4, 5, 6, 10, 35],
                       master_seed=11)
    assert all(r.solvable for r in rows)
    assert all(r.planning_time_s < 5.0 for r in rows)
    by_criticals = sorted(rows, key=lambda r: r.criticals)
    medians = [r.median_solve_time_s for r in by_criticals]
    assert all(a <= b for a, b in zip(medians, medians[1:]))
    _passed(7, f"(6/6 solvable, max median {max(medians):.4f}s)")


def test_acceptance_8_occupancy_closed_forms():
    """Log-odds closed forms at the stated tolerances."""
    def fresh():
        return VoxelGrid((0, 0, 0), (10, 10, 10), 1.0)

    hit = SonarScan((0.5, 0.5, 0.5), [(1.0, 0.0, 0.0)], [3.0], 8.0)
    g = fresh()
    integrate_scan(g, hit)
    integrate_scan(g, hit)
    assert g.occupancy((3, 0, 0)) == pytest.approx(0.8448, abs=1e-4)

    g = fresh()
    integrate_scan(g, hit, p_hit=0.7, p_miss=0.3)
    passthrough = SonarScan((0.5, 0.5, 0.5), [(1.0, 0.0, 0.0)], [6.0], 8.0)
    integrate_scan(g, passthrough, p_hit=0.7, p_miss=0.3)
    assert g.occupancy((3, 0, 0)) == 0.5  # exactly the prior

    g = fresh()
    for _ in range(100):
        integrate_scan(g, hit)
    assert g.occupancy((3, 0, 0)) == pytest.approx(logistic(LOG_ODDS_MAX),
                                                   abs=1e-9)
    _passed(8)


def test_acceptance_9_determinism(tmp_path):
    """Identical config and seed give byte-identical artifacts, every file."""
    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        cfg = PipelineConfig(scenario_path=str(TANKS_SCN), out_dir=str(out),
                             master_seed=7, gamma_samples=12, episodes=6)
        run_pipeline(cfg)
        outs.append(out)
    a, b = outs
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    _passed(9, f"({len(names)} artifacts byte-identical)")


def test_acceptance_10_metric_identities():
    """Constant, uniform-bin, and order-statistic identities."""
    constant = compute_metrics([37.0] * 10)
    assert constant.variance == 0.0
    assert constant.entropy_bits == 0.0

    uniform = compute_metrics([1.0, 6.0, 11.0, 16.0])
    assert uniform.entropy_bits == pytest.approx(2.0)

    deciles = compute_metrics([float(i) for i in range(1, 11)])
    assert (deciles.var_alpha, deciles.es_alpha) == (9.0, 10.0)
    _passed(10)
