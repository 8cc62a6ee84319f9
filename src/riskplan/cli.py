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
from dataclasses import asdict, fields
from functools import partial
from pathlib import Path

from . import assess, reporting, simulator
from .pipeline import (PipelineConfig, map_from_sonar, plan_candidates, run_pipeline,
                       write_candidate_plan)
from .refiner import read_trajectory_csv, refine
from .scenario import (format_scenario, from_json, ground_to_mdp, load_scenario,
                       open_artifact, parse_json, read_plan_file, write_json)
from .occupancy import DEFAULT_KAPPA, extract_problem

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2


def _fail(message: str, code: int) -> int:
    print(json.dumps({"error": message, "exit_code": code}), file=sys.stderr)
    return code


def _given(args, kind) -> dict:
    """The fields of dataclass ``kind`` that the command line set.  A flag
    that sets a field carries its name as its dest and has no default, so
    one that is not given is absent from ``args`` and ``kind`` supplies it."""
    return {f.name: getattr(args, f.name) for f in fields(kind) if f.name in args}


def _perturb_target(label: str) -> str | None:
    return None if label == "none" else label


def _load_scenario(path):
    return load_scenario(path).checked(path)


def _report_section(path, name: str, kind):
    """Section ``name`` of the assessment report at ``path``, read as
    ``kind`` by `from_json`."""
    report = parse_json(Path(path).read_text(encoding="utf-8"), str(path))
    if type(report) is not dict or name not in report:
        raise ValueError(f"{path}: .{name} is missing")
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
    cfg = from_json(PipelineConfig, {"scenario_path": args.scenario, "master_seed": 0,
                                     **_given(args, PipelineConfig)}, "config")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for path in out.glob("plan_P*.json"):  # an earlier run's plans must not mix in
        path.unlink()
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
    cfg = simulator.DisturbanceConfig(**_given(args, simulator.DisturbanceConfig))
    n = getattr(args, "episodes", PipelineConfig.episodes)
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
    cfg = assess.MetricConfig(**_given(args, assess.MetricConfig))
    report = assess.build_report(samples, cfg, alpha_mean=args.alpha_mean)
    write_json(args.out, report)
    print(f"wrote {args.out}: selected {report['selection']['selected']}")
    return EXIT_OK


def cmd_select(args) -> int:
    print(_report_section(args.report, "selection", assess.SelectionResult).selected)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    doc = {"scenario_path": args.scenario, "out_dir": "out"}
    if "config" in args:
        if not args.config:  # Path("") would name the working directory
            raise ValueError("--config must name a file, got ''")
        loaded = parse_json(Path(args.config).read_text(encoding="utf-8"), args.config)
        if not isinstance(loaded, dict):
            raise ValueError(f"{args.config}: config must be a JSON object")
        doc.update(loaded)
    doc.update(_given(args, PipelineConfig))
    disturbance = _given(args, simulator.DisturbanceConfig)
    if disturbance and isinstance(doc.get("disturbance", {}), dict):
        doc["disturbance"] = {**doc.get("disturbance", {}), **disturbance}
    if "master_seed" not in doc:
        raise ValueError("--seed is required")
    cfg = from_json(PipelineConfig, doc, "config")
    result = run_pipeline(cfg)
    print(f"candidates: {len(result.candidates)}")
    for row in result.summary_rows:
        mark = "*" if row["id"] == result.selected else " "
        print(f" {mark} {row['id']}: mean {row['mean_s']}s var {row['variance']} "
              f"| {row['plan_schema']}")
    print(f"selected: {result.selected}; artifacts in {cfg.out_dir}/")
    return EXIT_OK


# scaling.csv's columns are ScalingRow's fields; a cell is "" for None, else by this or str()
SCALING_FORMATS = {"gamma": "{:.3f}".format, "planning_time_s": "{:.7f}".format,
                   "median_solve_time_s": "{:.7f}".format}


def cmd_scaling(args) -> int:
    depths = [int(x) for x in args.depths.split(",") if x]
    crits = [int(x) for x in args.criticals.split(",") if x]
    rows = reporting.run_scaling(depths, crits, args.seed,
                                 collision_cost=getattr(args, "collision_cost", None))
    with open_artifact(args.out, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(f.name for f in fields(reporting.ScalingRow))
        writer.writerows(["" if v is None else SCALING_FORMATS.get(name, str)(v)
                          for name, v in asdict(r).items()] for r in rows)
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
    # a flag with no default that is not given stays out of the namespace (see _given)
    add = partial(sub.add_parser, argument_default=argparse.SUPPRESS)

    p = add("map", help="build an occupancy grid from synthetic sonar")
    p.add_argument("scenario")
    p.add_argument("--out", default="grid.csv")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=PipelineConfig.sonar_noise_sigma)
    p.set_defaults(func=cmd_map)

    p = add("gen-problem",
            help="re-derive critical flags and edge risks from the map")
    p.add_argument("scenario")
    p.add_argument("--out", default="problem.scn")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sigma", type=float, default=PipelineConfig.sonar_noise_sigma)
    p.add_argument("--kappa", type=float, default=DEFAULT_KAPPA)
    p.set_defaults(func=cmd_gen_problem)

    p = add("plan", help="generate deduplicated candidate plans")
    p.add_argument("scenario")
    p.add_argument("--out-dir", default="plans")
    _add_sweep_flags(p)
    p.set_defaults(func=cmd_plan)

    p = add("refine", help="refine a plan file into a trajectory CSV")
    p.add_argument("scenario")
    p.add_argument("plan")
    p.add_argument("--out", default="trajectory.csv")
    p.set_defaults(func=cmd_refine)

    p = add("simulate", help="run seeded episodes of a trajectory")
    p.add_argument("scenario")
    p.add_argument("trajectory")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--plan-id", default="P1")
    p.add_argument("--episodes", type=int)
    p.add_argument("--current-sigma", type=float)
    p.add_argument("--obstacle-sigma", type=float)
    p.add_argument("--recovery-penalty", type=float, dest="recovery_penalty_s")
    p.add_argument("--perturb-target", type=_perturb_target, help=PERTURB_TARGET_HELP)
    p.add_argument("--perturb-all", action="store_true")
    p.add_argument("--out", default="episodes.jsonl")
    p.set_defaults(func=cmd_simulate)

    p = add("assess", help="compute risk metrics from episode logs")
    p.add_argument("episodes", nargs="+")
    p.add_argument("--out", default="report.json")
    p.add_argument("--bin-width", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--time-bound", type=float)
    p.add_argument("--alpha-mean", type=float, default=assess.DEFAULT_ALPHA_MEAN)
    p.set_defaults(func=cmd_assess)

    p = add("select", help="print the selected plan of a report")
    p.add_argument("report")
    p.set_defaults(func=cmd_select)

    p = add("pipeline", help="run the full flow end to end")
    p.add_argument("scenario")
    p.add_argument("--out-dir", help="default: out")
    p.add_argument("--config", help="JSON PipelineConfig; flags override it")
    _add_sweep_flags(p)
    p.add_argument("--episodes", type=int)
    p.add_argument("--from-sonar", action="store_true")
    p.add_argument("--perturb-target", type=_perturb_target, help=PERTURB_TARGET_HELP)
    p.set_defaults(func=cmd_pipeline)

    p = add("scaling", help="corridor scaling study")
    p.add_argument("--depths", default="3,4,5,6,30,90",
                   help="comma list of corridor depths")
    p.add_argument("--criticals", default="3,4,5,6,10,35",
                   help="comma list, same length as --depths")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--collision-cost", type=float,
                   help="finite dead-end cost; default treats crashes as unrecoverable")
    p.add_argument("--out", default="scaling.csv")
    p.set_defaults(func=cmd_scaling)

    p = add("plot", help="box-plot SVG from an assessment report")
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
