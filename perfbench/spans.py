"""In-memory span tracing around the public functions of riskplan's layers.

The tracer records spans only while `Tracer.installed()` is active: it
swaps each listed module or class attribute for a timing wrapper and puts
the original back on exit, so no file of the package changes and an
untraced op calls the package exactly as a user would.

A span is (name, start, end, parent, op, attrs). Names are
`<layer>.<what>`; the layer is the part before the first dot.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("index", "name", "op", "parent", "start", "end", "attrs")

    def __init__(self, index, name, op, parent):
        self.index = index
        self.name = name
        self.op = op
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._open: list[Span] = []
        self.t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1].index if self._open else None
        s = Span(len(self.spans), name, self.op, parent)
        self.spans.append(s)
        self._open.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        except Exception as exc:
            s.attrs["error"] = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, record=None):
        """`fn` inside a span; `record(attrs, result, *args)` adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if record is not None:
                    record(s.attrs, result, *args)
                return result
        return traced

    def count(self, key: str, fn):
        """`fn` without a span of its own: adds len(result) to `key` of the
        innermost open span. For calls too frequent to span singly."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self._open:
                attrs = self._open[-1].attrs
                attrs[key] = attrs.get(key, 0) + len(result)
            return result
        return counted

    @contextmanager
    def installed(self, patches):
        """Patch each (owner, attribute, make_wrapper) for the duration."""
        saved = []
        try:
            for owner, attr, make in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus its children's, by span index (calls
        are sequential, so the children never overlap)."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "op": s.op, "parent": s.parent,
                    "start": s.start - self.t0, "end": s.end - self.t0,
                    **({"attrs": s.attrs} if s.attrs else {}),
                }, sort_keys=True) + "\n")


def layer_patches(tracer: Tracer) -> list[tuple]:
    """Every wrapped function, under the name the package's callers use.

    `pipeline` imports several names straight into its namespace, so those
    are patched there; calls made through a module attribute are patched on
    the defining module, which also catches calls from inside it (`solve`
    from `generate_candidates`, `run_episode` from `run_batch`).
    """
    from riskplan import assess, occupancy, pipeline, planner, refiner, reporting, simulator

    def grounded(a, m, *_):
        a["states"] = len(m.states)
        a["transitions"] = len(m.transitions)

    def solved(a, _result, m, *_):
        a["states"] = len(m.states)

    def episode(a, r, *_):
        a["sim_s"] = r.execution_time_s
        a["incidents"] = len(r.incidents)
        a["incomplete"] = int(not r.completed)

    def wrap(name, record=None):
        return lambda fn: tracer.wrap(name, fn, record)

    def count_into(key):
        return lambda a, result, *_: a.__setitem__(key, len(result))

    return [
        (pipeline, "run_pipeline", wrap("pipeline.run")),
        (reporting, "run_scaling", wrap("reporting.row")),
        (pipeline, "load_scenario", wrap("scenario.parse")),
        (pipeline, "ground_to_mdp", wrap("scenario.ground", grounded)),
        (reporting, "ground_to_mdp", wrap("scenario.ground", grounded)),
        (pipeline, "map_from_sonar", wrap("occupancy.map")),
        (pipeline, "synthesize_scans",
         wrap("occupancy.synthesize",
              lambda a, scans, *_: a.__setitem__("beams", sum(len(s.beams) for s in scans)))),
        (pipeline, "integrate_scan", wrap("occupancy.integrate")),
        (occupancy, "traverse_voxels",
         lambda fn: tracer.count("voxel_visits", fn)),
        (pipeline, "extract_problem", wrap("occupancy.extract")),
        (planner, "generate_candidates", wrap("planner.sweep", count_into("candidates"))),
        (planner, "solve", wrap("planner.solve", solved)),
        (pipeline, "refine", wrap("refiner.refine",
                                  lambda a, t, *_: a.__setitem__("samples", len(t.samples)))),
        (simulator, "run_batch", wrap("simulator.batch")),
        (simulator, "run_episode", wrap("simulator.episode", episode)),
        (assess, "build_report", wrap("assess.report")),
        (simulator, "write_episode_log", wrap("pipeline.io.episode_log")),
        (pipeline, "write_plan_file", wrap("pipeline.io.plan_file")),
        (refiner.Trajectory, "export_csv", wrap("pipeline.io.trajectory_csv")),
        (occupancy.VoxelGrid, "export_csv", wrap("pipeline.io.grid_csv")),
    ]
