"""Command-line front end.

Subcommands: map, gen-problem, plan, refine, simulate, assess, select,
pipeline, scaling, plot.  Exit codes: 0 success, 1 internal error, 2 input
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import assess, reporting, simulator
from .pipeline import (PipelineConfig, map_from_sonar, plan_candidates, run_pipeline,
                       write_candidate_plan)
from .refiner import read_trajectory_csv, refine
from .scenario import (SchemaMismatch, format_scenario, from_json, ground_to_mdp,
                       load_scenario, open_artifact, parse_json, read_plan_file,
                       write_json)
from .occupancy import DEFAULT_KAPPA, extract_problem

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2

# Flags that set a PipelineConfig or DisturbanceConfig field carry its name
# as their dest and default to None, meaning "not given": the dataclass
# supplies every default, so no default is written twice.
SWEEP_FLAGS = ("out_dir", "master_seed", "gamma_samples", "gamma_low",
               "gamma_high", "collision_cost")
PIPELINE_FLAGS = SWEEP_FLAGS + ("episodes", "from_sonar")
DISTURBANCE_FLAGS = ("current_sigma", "obstacle_sigma", "recovery_penalty_s",
                     "perturb_target", "perturb_all")


def _fail(message: str, code: int) -> int:
    print(json.dumps({"error": message, "exit_code": code}), file=sys.stderr)
    return code


def _given(args, names) -> dict:
    """The flags among ``names`` that the command line set; the perturb
    target "none" stands for no target."""
    given = {n: getattr(args, n) for n in names if getattr(args, n, None) is not None}
    if given.get("perturb_target") == "none":
        given["perturb_target"] = None
    return given


def _load_scenario(path):
    return load_scenario(path).checked(path)


def _report_section(path, name: str, kind):
    """Section ``name`` of the assessment report at ``path``, read as
    ``kind`` by `from_json`."""
    report = parse_json(Path(path).read_text(encoding="utf-8"), str(path))
    if type(report) is not dict or name not in report:
        raise SchemaMismatch(str(path), f".{name}", "is missing")
    return from_json(kind, report[name], str(path), f".{name}")


def cmd_map(args) -> int:
    scenario = _load_scenario(args.scenario)
    grid = map_from_sonar(scenario, args.seed, args.noise_sigma)
    grid.export_csv(args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_gen_problem(args) -> int:
    scenario = _load_scenario(args.scenario)
    grid = map_from_sonar(scenario, args.seed, args.noise_sigma)
    updated = extract_problem(grid, scenario, kappa=args.kappa)
    with open_artifact(args.out) as fh:
        fh.write(format_scenario(updated))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_plan(args) -> int:
    scenario = _load_scenario(args.scenario)
    cfg = PipelineConfig.from_doc({"scenario_path": args.scenario, "master_seed": 0,
                                   **_given(args, SWEEP_FLAGS)})
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for cand in plan_candidates(ground_to_mdp(scenario), cfg):
        write_candidate_plan(cand, out)
        print(f"{cand.plan.id}: gamma={cand.first_gamma:.3f} "
              f"steps={len(cand.plan.linearization)}")
    return EXIT_OK


def cmd_refine(args) -> int:
    scenario = _load_scenario(args.scenario)
    plan = read_plan_file(args.plan)
    traj = refine(scenario, plan.actions, plan_id=plan.plan_id)
    traj.export_csv(args.out)
    print(f"wrote {args.out}: {traj.total_length:.2f} m, "
          f"{traj.nominal_duration:.1f} s nominal")
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = _load_scenario(args.scenario)
    traj = read_trajectory_csv(args.trajectory, plan_id=args.plan_id)
    cfg = simulator.DisturbanceConfig(**_given(args, DISTURBANCE_FLAGS))
    n = PipelineConfig.episodes if args.episodes is None else args.episodes
    records = simulator.run_batch(traj, scenario, cfg, n=n, master_seed=args.seed)
    simulator.write_episode_log(records, args.out)
    done = sum(1 for r in records if r.completed)
    print(f"wrote {args.out}: {done}/{len(records)} episodes completed")
    return EXIT_OK


def cmd_assess(args) -> int:
    samples = {}
    for path in args.episodes:
        for r in simulator.read_episode_log(path):
            samples.setdefault(r.plan_id, []).append(r.execution_time_s)
    cfg = assess.MetricConfig(bin_width=args.bin_width, alpha=args.alpha,
                              time_bound=args.time_bound)
    report = assess.build_report(samples, cfg, alpha_mean=args.alpha_mean)
    write_json(args.out, report)
    print(f"wrote {args.out}: selected {report['selection']['selected']}")
    return EXIT_OK


def cmd_select(args) -> int:
    print(_report_section(args.report, "selection", assess.SelectionResult).selected)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    doc = {"scenario_path": args.scenario, "out_dir": "out"}
    if args.config:
        loaded = parse_json(Path(args.config).read_text(encoding="utf-8"), args.config)
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        doc.update(loaded)
    doc.update(_given(args, PIPELINE_FLAGS))
    disturbance = _given(args, ("perturb_target",))
    if disturbance and isinstance(doc.get("disturbance", {}), dict):
        doc["disturbance"] = {**doc.get("disturbance", {}), **disturbance}
    if "master_seed" not in doc:
        raise ValueError("--seed is required")
    cfg = PipelineConfig.from_doc(doc)
    result = run_pipeline(cfg)
    print(f"candidates: {len(result.candidates)}")
    for row in result.summary_rows:
        mark = "*" if row["id"] == result.selected else " "
        print(f" {mark} {row['id']}: mean {row['mean_s']}s var {row['variance']} "
              f"| {row['plan_schema']}")
    print(f"selected: {result.selected}; artifacts in {cfg.out_dir}/")
    return EXIT_OK


def cmd_scaling(args) -> int:
    depths = [int(x) for x in args.depths.split(",") if x]
    crits = [int(x) for x in args.criticals.split(",") if x]
    rows = reporting.run_scaling(depths, crits, args.seed,
                                 collision_cost=args.collision_cost)
    with open_artifact(args.out, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["depth", "criticals", "solvable", "plan_length",
                         "gamma", "planning_time_s", "median_solve_time_s", "error"])
        for r in rows:
            writer.writerow([
                r.depth, r.criticals, r.solvable,
                r.plan_length if r.plan_length is not None else "",
                f"{r.gamma:.3f}" if r.gamma is not None else "",
                f"{r.planning_time_s:.4f}" if r.planning_time_s is not None else "",
                f"{r.median_solve_time_s:.4f}" if r.median_solve_time_s is not None else "",
                r.error or "",
            ])
    solvable = sum(1 for r in rows if r.solvable)
    print(f"wrote {args.out}: {solvable}/{len(rows)} scenarios solvable")
    return EXIT_OK


def cmd_plot(args) -> int:
    svg, rows = reporting.boxplot_svg(
        _report_section(args.report, "samples", dict[str, list[float]]))
    with open_artifact(args.out_svg) as fh:
        fh.write(svg)
    with open_artifact(args.out_csv, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["plan_id", "kind", "episode", "value"])
        writer.writerows(rows)
    print(f"wrote {args.out_svg} and {args.out_csv}")
    return EXIT_OK


PERTURB_TARGET_HELP = "obstacle label displaced per episode; 'none' disables"


def _add_sweep_flags(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, dest="master_seed")
    p.add_argument("--samples", type=int, dest="gamma_samples")
    p.add_argument("--gamma-low", type=float)
    p.add_argument("--gamma-high", type=float)
    p.add_argument("--collision-cost", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riskplan",
        description="Risk-averse mission planning: candidate generation, "
                    "simulation-based assessment, and plan selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", help="build an occupancy grid from synthetic sonar")
    p.add_argument("scenario")
    p.add_argument("--out", default="grid.csv")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=PipelineConfig.sonar_noise_sigma)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("gen-problem",
                       help="re-derive critical flags and edge risks from the map")
    p.add_argument("scenario")
    p.add_argument("--out", default="problem.scn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=PipelineConfig.sonar_noise_sigma)
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    p.set_defaults(func=cmd_gen_problem)

    p = sub.add_parser("plan", help="generate deduplicated candidate plans")
    p.add_argument("scenario")
    p.add_argument("--out-dir", default="plans")
    _add_sweep_flags(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("refine", help="refine a plan file into a trajectory CSV")
    p.add_argument("scenario")
    p.add_argument("plan")
    p.add_argument("--out", default="trajectory.csv")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("simulate", help="run seeded episodes of a trajectory")
    p.add_argument("scenario")
    p.add_argument("trajectory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--plan-id", default="P1")
    p.add_argument("--episodes", type=int)
    p.add_argument("--current-sigma", type=float)
    p.add_argument("--obstacle-sigma", type=float)
    p.add_argument("--recovery-penalty", type=float, dest="recovery_penalty_s")
    p.add_argument("--perturb-target", help=PERTURB_TARGET_HELP)
    p.add_argument("--perturb-all", action="store_true", default=None)
    p.add_argument("--out", default="episodes.jsonl")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("assess", help="compute risk metrics from episode logs")
    p.add_argument("episodes", nargs="+")
    p.add_argument("--out", default="report.json")
    p.add_argument("--bin-width", type=float, default=assess.DEFAULT_BIN_WIDTH)
    p.add_argument("--alpha", type=float, default=assess.DEFAULT_ALPHA)
    p.add_argument("--time-bound", type=float, default=assess.DEFAULT_TIME_BOUND)
    p.add_argument("--alpha-mean", type=float, default=assess.DEFAULT_ALPHA_MEAN)
    p.set_defaults(func=cmd_assess)

    p = sub.add_parser("select", help="print the selected plan of a report")
    p.add_argument("report")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("pipeline", help="run the full flow end to end")
    p.add_argument("scenario")
    p.add_argument("--out-dir", help="default: out")
    p.add_argument("--config", help="JSON PipelineConfig; flags override it")
    _add_sweep_flags(p)
    p.add_argument("--episodes", type=int)
    p.add_argument("--from-sonar", action="store_true", default=None)
    p.add_argument("--perturb-target", help=PERTURB_TARGET_HELP)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("scaling", help="corridor scaling study")
    p.add_argument("--depths", default="3,4,5,6,30,90",
                   help="comma list of corridor depths")
    p.add_argument("--criticals", default="3,4,5,6,10,35",
                   help="comma list, same length as --depths")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--collision-cost", type=float, default=None,
                   help="finite dead-end cost; default treats crashes as unrecoverable")
    p.add_argument("--out", default="scaling.csv")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("plot", help="box-plot SVG from an assessment report")
    p.add_argument("report")
    p.add_argument("--out-svg", default="boxplot.svg")
    p.add_argument("--out-csv", default="samples.csv")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:  # json errors are ValueErrors
        return _fail(str(exc), EXIT_INPUT)
    except Exception as exc:  # solver outcomes, InvalidModel: internal errors
        return _fail(f"{type(exc).__name__}: {exc}", EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
