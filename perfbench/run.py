#!/usr/bin/env python3
"""Outside-in benchmark of riskplan.

    python3 perfbench/run.py --workload tanks-mc --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one after another

Run from the root of a source checkout; the package is imported from its
`src/`. Each workload is a closed loop: one client in one process, each op
starting after the previous one ends. Ops are taken in order from a list
derived from `--seed`, in units (one op, or one cycle of corridor sizes)
until the next unit would end more than half a unit past `--seconds`.
Every op's output is checked; a failed check or a raised error counts
against the op.

`--trace 0` times the ops untraced and reports the end-to-end metrics
ops_per_s_norm, peak_rss_mb and setup_s. ops_per_s_norm is the op rate with
each op's time scaled by the machine's speed while it ran, as sampled by
timing a fixed loop from a timer signal, so that it does not follow the
machine's drift. setup_s is the median of several fresh processes spread
over the run: one before the first op, the others between units and after
the last, never counted in the loop's time; each is normalised the same
way from ticks of its own. It also prints the raw
ops_per_s, op_s.p50 with its sample count, error_rate, episodes with
the incomplete ones, and outputs_sha256. `--trace 1` runs each op twice, untraced and then
traced with spans around the public functions of every layer, and reports
the per-layer metrics, the tracing overhead and a table of each layer's
share of op time. Spans are written to
`perfbench/out/spans-<workload>-seed<seed>.jsonl`.

Exact counts and `outputs_sha256` cover only the first ops of the list,
which every run executes, so two runs with one seed report the same ones.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out"
WORKLOADS = ("tanks-mc", "corridor-sweep", "tanks-sonar")
SETUP_PROBES = 5
# On a shared 2-vCPU VM the CPU's speed switches, within seconds, between
# states up to 1.5x apart as other work comes and goes, so raw op times
# spread too widely to gate on. While an untraced op or a set-up probe
# runs, a timer signal times a fixed pure-Python loop (a tick) every
# TICK_INTERVAL seconds. ops_per_s_norm and setup_s scale each op's and each
# probe's time, less its ticks, by its median tick: they read as at the
# speed where a tick takes TICK_SECONDS. The constant only sets the scale;
# it is about a tick's median time on such a VM.
TICK_INTERVAL = 0.025
TICK_SECONDS = 0.0005


def import_package():
    """Import riskplan from this checkout's source tree, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "riskplan" / "__init__.py").is_file():
        sys.exit(f"perfbench: no riskplan source under {src}")
    sys.path.insert(0, str(src))
    import riskplan
    if Path(riskplan.__file__).resolve().parent != (src / "riskplan").resolve():
        sys.exit(f"perfbench: riskplan was imported from {riskplan.__file__}, not {src}")


def tick() -> float:
    """Seconds taken by a fixed pure-Python loop. It touches nothing of
    riskplan, so only the machine's speed moves it."""
    t = time.perf_counter()
    x = 0
    for i in range(5000):
        x += i * i & 7
    return time.perf_counter() - t


@contextmanager
def ticking():
    """Ticks: one now, and one every TICK_INTERVAL seconds until exit."""
    ticks = [tick()]
    previous = signal.signal(signal.SIGALRM, lambda *_: ticks.append(tick()))
    signal.setitimer(signal.ITIMER_REAL, TICK_INTERVAL, TICK_INTERVAL)
    try:
        yield ticks
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)


def normalised(seconds: float, ticks: list[float]) -> float:
    """`seconds`, during which `ticks` ran, less the ticks and scaled to the
    speed where a tick takes TICK_SECONDS."""
    return (seconds - sum(ticks)) * TICK_SECONDS / statistics.median(ticks)


def units_of() -> dict[str, str]:
    """Each metric's unit, as BENCHMARK.json declares it."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


class SetupProbes:
    """Process start to first op ready, in fresh interpreters: imports plus
    input generation, as `--setup-probe` does them. `due(progress)` runs the
    probes that fall due by `progress` (0 to 1) of the run, so that the
    SETUP_PROBES of them spread over the run. Each probe's time is kept raw
    and normalised by the ticks it ran."""

    def __init__(self, args):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed)]
        self.raw: list[float] = []
        self.times: list[float] = []

    def due(self, progress: float):
        while len(self.times) < SETUP_PROBES and len(self.times) <= progress * SETUP_PROBES:
            t = time.perf_counter()
            out = subprocess.run(self.cmd, check=True, stdout=subprocess.PIPE, text=True)
            self.raw.append(time.perf_counter() - t)
            ticks = json.loads(out.stdout.splitlines()[-1])
            self.times.append(normalised(self.raw[-1], ticks))


def setup_probe(args) -> int:
    """Import the package and generate the inputs, as a run does before its
    first op, and print the ticks that ran meanwhile."""
    with ticking() as ticks:
        import_package()
        import workloads
        workloads.make(args.workload, ROOT, OUT / args.workload).ops(args.seed)
    print(json.dumps(ticks))
    return 0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Outcome:
    seconds: float
    digest: dict | None = None
    error: str | None = None
    norm_seconds: float = 0.0  # untraced: at the speed where a tick takes TICK_SECONDS


def run_op(wl, op, index, tracer=None, patches=(), sample=False) -> Outcome:
    """One op, traced if `tracer` is given, else with ticks if `sample`. A
    traced run leaves its untraced ops without ticks, so that they measure
    the tracing overhead alone."""
    shutil.rmtree(wl.out_dir, ignore_errors=True)
    t = time.perf_counter()
    norm = 0.0
    try:
        if tracer is None:
            with ticking() if sample else nullcontext() as ticks:
                result = wl.run(op)
            seconds = time.perf_counter() - t
            if sample:
                norm = normalised(seconds, ticks)
        else:
            tracer.op = index
            with tracer.installed(patches), tracer.span("bench.op") as s:
                result = wl.run(op)
            seconds = s.duration
            if wl.out_dir.exists():
                s.attrs["bytes_written"] = dir_bytes(wl.out_dir)
        wl.check(op, result)
        return Outcome(seconds, wl.digest(op, result), norm_seconds=norm)
    except Exception as exc:  # a failed op is counted and the loop goes on
        return Outcome(time.perf_counter() - t, error=f"{type(exc).__name__}: {exc}")


def run_loop(wl, ops, seconds: float, tracer=None, patches=(), probes=None):
    """Untraced outcomes, traced outcomes (paired with the untraced ones by
    index when tracing) and the loop's wall time, which leaves out the time
    of the setup probes run between units."""
    plain, traced = [], []
    units = 0
    paused = 0.0
    t0 = time.perf_counter()
    while True:
        for _ in range(wl.unit_ops):
            i = len(plain)
            op = ops[i % len(ops)]  # only a very fast program gets round the list
            plain.append(run_op(wl, op, i, sample=tracer is None))
            if tracer is not None:
                traced.append(run_op(wl, op, i, tracer, patches))
        units += 1
        elapsed = time.perf_counter() - t0 - paused
        if units >= wl.min_units and elapsed + elapsed / units / 2 >= seconds:
            return plain, traced, elapsed
        if probes is not None:
            t = time.perf_counter()
            probes.due(elapsed / seconds)
            paused += time.perf_counter() - t


def outputs_sha256(outcomes) -> str:
    docs = [o.digest for o in outcomes]
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer, prefix: int, plain, traced) -> dict:
    """Per-layer metrics from the spans.

    Times are summed per op and reported as the median over traced ops.
    Counts are per-op means over the first `prefix` ops, which every run
    executes, so they repeat exactly.
    """
    from workloads import CORRIDOR_SIZES, corridor_states
    spans = tracer.spans
    ops = sorted({s.op for s in spans})
    first = [op for op in ops if op < prefix]
    self_t = tracer.self_times()

    def is_(name):
        return lambda s: s.name == name

    def dur(s):
        return s.duration

    def per_op(pred, value, over):
        sums = dict.fromkeys(over, 0.0)
        for s in spans:
            if s.op in sums and pred(s):
                sums[s.op] += value(s)
        return sums

    def time_s(pred, value=dur):
        return median_or_zero(per_op(pred, value, ops).values())

    def first_total(pred, value=lambda s: 1):
        return sum(per_op(pred, value, first).values())

    def count(pred, value=lambda s: 1):
        return first_total(pred, value) / max(len(first), 1)

    def attr(key):
        return lambda s: s.attrs.get(key, 0)

    def total(pred, value=dur):
        return sum(value(s) for s in spans if pred(s))

    def ratio(a, b):
        return a / b if b else 0.0

    solve = is_("planner.solve")
    in_sweep = [s for s in spans if solve(s) and s.parent is not None
                and spans[s.parent].name == "planner.sweep" and s.op in first]
    m = {
        "scenario.parse_s": time_s(is_("scenario.parse")),
        "scenario.ground_s": time_s(is_("scenario.ground")),
        "scenario.states": count(is_("scenario.ground"), attr("states")),
        "scenario.transitions": count(is_("scenario.ground"), attr("transitions")),
        "occupancy.map_s": time_s(is_("occupancy.map")),
        "occupancy.synthesize_s": time_s(is_("occupancy.synthesize")),
        "occupancy.integrate_s": time_s(is_("occupancy.integrate")),
        "occupancy.extract_s": time_s(is_("occupancy.extract")),
        "occupancy.beams": count(is_("occupancy.synthesize"), attr("beams")),
        "occupancy.voxel_visits": count(is_("occupancy.integrate"), attr("voxel_visits")),
        "occupancy.voxel_visits_per_s": ratio(
            total(is_("occupancy.integrate"), attr("voxel_visits")),
            total(is_("occupancy.integrate"))),
    }
    for n in map(corridor_states, CORRIDOR_SIZES):
        m[f"planner.solve_s.n{n}"] = median_or_zero(
            s.duration for s in spans if solve(s) and s.attrs.get("states") == n)
    m.update({
        "planner.sweep_s": time_s(is_("planner.sweep")),
        "planner.solves": count(solve),
        "planner.solve_failures": count(lambda s: solve(s) and "error" in s.attrs),
        "planner.candidates": count(is_("planner.sweep"), attr("candidates")),
        "planner.distinct_ratio": ratio(
            first_total(is_("planner.sweep"), attr("candidates")),
            sum("error" not in s.attrs for s in in_sweep)),
        "refiner.refine_s": time_s(is_("refiner.refine")),
        "refiner.samples": count(is_("refiner.refine"), attr("samples")),
        "simulator.batch_s": time_s(is_("simulator.batch")),
        "simulator.episode_s.p50": median_or_zero(
            s.duration for s in spans if s.name == "simulator.episode"),
        "simulator.episodes": count(is_("simulator.episode")),
        "simulator.sim_s": count(is_("simulator.episode"), attr("sim_s")),
        "simulator.host_ms_per_sim_s": 1000.0 * ratio(
            total(is_("simulator.batch")),
            total(is_("simulator.episode"), attr("sim_s"))),
        "simulator.incidents": count(is_("simulator.episode"), attr("incidents")),
        "simulator.incomplete": count(is_("simulator.episode"), attr("incomplete")),
        "assess.report_s": time_s(is_("assess.report")),
        "pipeline.io_s": time_s(lambda s: s.name.startswith("pipeline.io.")),
        "pipeline.bytes_written": count(is_("bench.op"), attr("bytes_written")),
        "pipeline.self_s": time_s(is_("pipeline.run"), lambda s: self_t[s.index]),
        "reporting.self_s": time_s(is_("reporting.row"), lambda s: self_t[s.index]),
        "trace.spans": count(lambda s: True),
        # per pair: an op's traced run follows its untraced one at once, so
        # the machine's drift between them is small
        "trace.overhead": statistics.median(
            b.seconds / a.seconds for a, b in zip(plain, traced)) - 1.0,
    })
    return m


def layer_shares(tracer) -> list[tuple[str, float]]:
    """Each layer's self time as a share of traced op time, largest first."""
    self_t = tracer.self_times()
    op_time = sum(s.duration for s in tracer.spans if s.name == "bench.op")
    by_layer: dict[str, float] = {}
    for s in tracer.spans:
        by_layer[s.layer] = by_layer.get(s.layer, 0.0) + self_t[s.index]
    return sorted(((k, v / op_time) for k, v in by_layer.items()),
                  key=lambda kv: -kv[1])


def run_workload(args) -> int:
    import workloads
    out_dir = OUT / args.workload
    wl = workloads.make(args.workload, ROOT, out_dir)
    ops = wl.ops(args.seed)
    units = units_of()

    t = time.perf_counter()
    wl.warm_up()
    warm = time.perf_counter() - t

    tracer, patches, probes = None, (), None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        patches = spans.layer_patches(tracer)
    else:
        probes = SetupProbes(args)
        probes.due(0.0)
    plain, traced, wall = run_loop(wl, ops, args.seconds, tracer, patches, probes)
    if probes is not None:
        probes.due(1.0)

    prefix = wl.min_units * wl.unit_ops
    outcomes = plain + traced
    failed = [o for o in outcomes if o.error]
    # tracing must not change what the program computes
    mismatched = [i for i, (a, b) in enumerate(zip(plain, traced))
                  if not (a.error or b.error) and a.digest != b.digest]
    ok_plain = [o for o in plain if not o.error]
    durations = [o.seconds for o in plain]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{len(plain)} ops in {wall:.2f} s (warm-up {warm:.2f} s, untimed)")
    for o in failed:
        print(f"  FAILED op: {o.error}")
    for i in mismatched:
        print(f"  FAILED op {i}: traced output differs from untraced output")
    n_failed = len(failed) + len(mismatched)
    print(f"  error_rate  {n_failed / len(outcomes):.4f}  "
          f"({n_failed} of {len(outcomes)} ops)")
    episodes = [e for o in plain if o.digest
                for recs in o.digest.get("episodes", {}).values() for e in recs]
    if episodes:
        # each episode is [execution_time_s, incidents, completed]
        print(f"  episodes    {len(episodes)} "
              f"(incomplete {sum(not completed for *_, completed in episodes)})")
    if len(plain) >= prefix and all(o.digest for o in plain[:prefix]):
        print(f"  outputs_sha256  {outputs_sha256(plain[:prefix])}  (first {prefix} ops)")

    if tracer is None:
        # op_s.p50 is printed but not among the gated metrics: on
        # corridor-sweep it rests on the two or three mid-size rows of a run.
        print(f"  op_s.p50    {statistics.median(durations):.4f} s  (n={len(durations)}; "
              f"ops {' '.join(f'{d:.3f}' for d in durations)})")
        print(f"  ops_per_s      {len(ok_plain) / wall:.4f} 1/s  (raw wall clock, "
              f"ticks included)")
        values = {
            "ops_per_s_norm": len(ok_plain) / (sum(o.norm_seconds for o in ok_plain)
                                               or math.inf),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(probes.times),
        }
        for k, v in values.items():
            print(f"  {k:<14} {v:.4f} {units[k]}")
        print(f"  setup_s is the median of {len(probes.times)} fresh processes, "
              f"normalised: {', '.join(f'{x:.3f}' for x in probes.times)} s; raw: "
              f"{', '.join(f'{x:.3f}' for x in probes.raw)} s")
    else:
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(spans_path)
        values = layer_metrics(tracer, prefix, plain, traced)
        traced_p50 = statistics.median(o.seconds for o in traced)
        print(f"  traced op_s.p50 {traced_p50:.4f} s against untraced "
              f"{statistics.median(durations):.4f} s; overhead, median over op "
              f"pairs: {100 * values['trace.overhead']:+.2f}%  (n={len(traced)})")
        print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        print("  layer self time as a share of op time:")
        for layer, share in layer_shares(tracer):
            print(f"    {layer:<10} {100 * share:6.2f}%")
        for k, v in values.items():
            print(f"  {k:<30} {v:.6g} {units[k]}")

    print(json.dumps({
        "correct": n_failed == 0,
        "attempted": len(outcomes),
        "failed": n_failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another; the last line
    merges their results, with metric names prefixed by the workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and generate inputs, then exit (times setup_s)")
    args = parser.parse_args()
    if args.setup_probe:
        return setup_probe(args)
    import_package()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
