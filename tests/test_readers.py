"""Every JSON document the program reads goes through one checker,
`scenario.from_json`: plan files, episode logs, `--config` documents and the
report sections that `select` and `plot` read.  Each test starts from a
valid document and changes one thing; the reader must raise a plain
ValueError naming the document and the field path, and never another
exception."""

import json
import math
import re
import time
from dataclasses import asdict

import pytest

from conftest import TANKS_SCN
from riskplan import assess, cli, kernel
from riskplan.cli import EXIT_INPUT, main
from riskplan.pipeline import PipelineConfig
from riskplan.refiner import MAX_PATH_ROWS
from riskplan.scenario import PLAN_FORMAT_VERSION, PlanFile, from_json, read_plan_file
from riskplan.simulator import EpisodeRecord, Incident, read_episode_log

# JSON values of another type than the leaf they replace; an integer is a
# fine float, so no number replaces a float
SWAPS = {str: [1, []], bool: [1, "true"], int: [0.5, True, "1"],
         float: [True, "1.0", []], type(None): [[], {}]}


def _round_trip(doc):
    return json.loads(json.dumps(doc))


PLAN = _round_trip({"format_version": PLAN_FORMAT_VERSION, **asdict(PlanFile(
    plan_id="P1", gamma=0.9, actions=["goto b", "inspect box"], high_level_length=2,
    trajectory_ref="trajectory_P1.csv"))})
RECORD = _round_trip(asdict(EpisodeRecord(
    "P1", 1, 5.0, [Incident(1.5, "tank", 0.25)], True, (7, "P1", 1))))
CONFIG = _round_trip(asdict(PipelineConfig(scenario_path="s.scn", out_dir="out",
                                           master_seed=3)))
REPORT = _round_trip(assess.build_report({"P1": [10.0, 11.0, 12.0],
                                          "P2": [10.0, 20.0, 30.0]}))


def read_plan(doc, tmp_path):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path), lambda: read_plan_file(path)


def read_log(doc, tmp_path):
    """``doc`` as the second line of a log whose first line is valid."""
    path = tmp_path / "e.jsonl"
    path.write_text(json.dumps(RECORD) + "\n" + json.dumps(doc) + "\n", encoding="utf-8")
    return f"{path}:2", lambda: read_episode_log(path)


def read_config(doc, tmp_path):
    return "config", lambda: from_json(PipelineConfig, doc, "config")


def report_reader(name, kind):
    def read(doc, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({**REPORT, name: doc}), encoding="utf-8")
        return str(path), lambda: cli._report_section(path, name, kind)
    return read


# reader, valid document, root path, and the paths of the keys it requires
READERS = {
    "plan": (read_plan, PLAN, "",
             r"\.(format_version|plan_id|gamma|actions|high_level_length)"),
    "log": (read_log, RECORD, "", r".*"),
    "config": (read_config, CONFIG, "", r"\.(scenario_path|out_dir|master_seed)"),
    "selection": (report_reader("selection", assess.SelectionResult),
                  REPORT["selection"], ".selection", r".*"),
    "samples": (report_reader("samples", dict[str, list[float]]), REPORT["samples"],
                ".samples", r"(?!)"),  # a map: every key may go
}


def mutations(doc, required: str, path: str):
    """(label, document, fragments) triples: ``doc`` changed in one place,
    and what the error message must hold to name that place."""
    if isinstance(doc, dict):
        yield f"{path or '.'}=[]", [], (f"{path or '.'} must be",)
        yield f"{path}.surprise", {**doc, "surprise": {}}, (path or ".", "surprise")
        for key, value in doc.items():
            sub = f"{path}.{key}"
            if re.fullmatch(required, sub):
                yield f"drop {sub}", {k: v for k, v in doc.items() if k != key}, (f"{sub} ",)
            for label, changed, fragments in mutations(value, required, sub):
                yield label, {**doc, key: changed}, fragments
    elif isinstance(doc, list):
        yield f"{path}={{}}", {}, (f"{path} must be",)
        for i, value in enumerate(doc):
            for label, changed, fragments in mutations(value, required, f"{path}[{i}]"):
                yield label, [*doc[:i], changed, *doc[i + 1:]], fragments
    else:
        others = SWAPS[type(doc)] + ([math.nan, math.inf] if type(doc) in (int, float)
                                     else [])
        for other in others:
            yield f"{path}={other!r}", other, (f"{path} must be",)


CASES = [pytest.param(reader, doc, fragments, id=f"{reader}:{label}")
         for reader, (_, valid, root, required) in READERS.items()
         for label, doc, fragments in mutations(valid, required, root)]


@pytest.mark.parametrize("reader", READERS)
def test_valid_document_reads(tmp_path, reader):
    read, valid, _, _ = READERS[reader]
    read(valid, tmp_path)[1]()


@pytest.mark.parametrize("reader, doc, fragments", CASES)
def test_one_change_is_a_schema_mismatch(tmp_path, reader, doc, fragments):
    name, read = READERS[reader][0](doc, tmp_path)
    with pytest.raises(ValueError) as info:
        read()
    assert type(info.value) is ValueError
    message = str(info.value)
    assert message.startswith(f"{name}: ")
    for fragment in fragments:
        assert fragment in message


def test_every_reader_is_covered():
    assert {reader for reader, *_ in (c.values for c in CASES)} == set(READERS)
    assert len(CASES) > 200


class TestEpisodeLogLines:
    @pytest.mark.parametrize("spelling, problem", [
        ('"5"', "must be a number, got '5'"),
        ("true", "must be a number, got True"),  # not one second
        ("Infinity", "must be finite, got inf"),
    ])
    def test_execution_time(self, tmp_path, capsys, spelling, problem):
        log = tmp_path / "e.jsonl"
        bad = json.dumps({**RECORD, "execution_time_s": 0}).replace(
            '"execution_time_s": 0', f'"execution_time_s": {spelling}')
        log.write_text(json.dumps(RECORD) + "\n" + bad + "\n", encoding="utf-8")
        assert main(["assess", str(log), "--out", str(tmp_path / "r.json")]) == EXIT_INPUT
        assert f"{log}:2: .execution_time_s {problem}" in capsys.readouterr().err

    def test_malformed_incident(self, tmp_path, capsys):
        log = tmp_path / "e.jsonl"
        bad = {**RECORD, "incidents": [{"time": 1.0, "obstacle": 3, "min_distance": 0.1}]}
        log.write_text(json.dumps(RECORD) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        assert main(["assess", str(log), "--out", str(tmp_path / "r.json")]) == EXIT_INPUT
        assert f"{log}:2: .incidents[0].obstacle must be a string" in capsys.readouterr().err

    def test_round_trip_types(self):
        (record,) = from_json(list[EpisodeRecord], [RECORD], "log")
        assert record.seed == (7, "P1", 1) and record.incidents == [Incident(1.5, "tank", 0.25)]


class TestNumbers:
    def test_integer_float_is_stored_as_float(self):
        cfg = from_json(PipelineConfig, {**CONFIG, "gamma_high": 1}, "config")
        assert type(cfg.gamma_high) is float

    def test_config_hash_does_not_depend_on_spelling(self):
        # "gamma_high": 1 and 1.0 are one configuration, so one stamp
        assert (from_json(PipelineConfig, {**CONFIG, "gamma_high": 1}, "config").config_hash()
                == from_json(PipelineConfig, {**CONFIG, "gamma_high": 1.0}, "config")
                .config_hash())

    def test_integer_beyond_every_double(self):
        with pytest.raises(ValueError, match=r"config: \.gamma_high must be finite"):
            from_json(PipelineConfig, {**CONFIG, "gamma_high": 10 ** 400}, "config")

    @pytest.mark.parametrize("low, high", [(0.0, 0.5), (0.6, 0.4), (0.5, 1.5)])
    def test_gamma_interval_outside_unit_interval_rejected(self, low, high):
        with pytest.raises(ValueError) as info:
            from_json(PipelineConfig, {**CONFIG, "gamma_low": low, "gamma_high": high}, "config")
        assert str(info.value) == (
            f"config: . is rejected: gamma_low and gamma_high must satisfy 0 < gamma_low "
            f"< gamma_high <= 1, got {low!r} and {high!r}")

    def test_dataclass_check_names_the_section(self):
        with pytest.raises(ValueError,
                           match=r"config: \.helix is rejected: points must be >= 1"):
            from_json(PipelineConfig, {**CONFIG, "helix": {"points": 0}}, "config")


class TestScalarLists:
    """A list of strings, integers or booleans is checked in one pass; the
    first misfit is reported as the per-element check reports it."""

    @pytest.mark.parametrize("kind, value, problem", [
        (list[str], ["goto b", "inspect t", 3, []], "[2] must be a string, got 3"),
        (list[int], [1, 2, True, 0.5], "[2] must be an integer, got True"),
        (list[int], [1, 2, 0.5], "[2] must be an integer, got 0.5"),
        (list[bool], [True, False, 1], "[2] must be true or false, got 1"),
    ])
    def test_first_misfit_named(self, kind, value, problem):
        with pytest.raises(ValueError) as info:
            from_json(kind, value, "doc")
        assert str(info.value) == f"doc: {problem}"

    def test_bad_plan_label_named_at_its_path(self, tmp_path):
        doc = {**PLAN, "actions": ["goto b"] * 5 + [None, 7], "high_level_length": 7}
        name, read = read_plan(doc, tmp_path)
        with pytest.raises(ValueError) as info:
            read()
        assert str(info.value) == f"{name}: .actions[5] must be a string, got None"

    def test_floats_still_converted_per_element(self):
        values = from_json(list[float], [1, 2.5], "doc")
        assert values == [1.0, 2.5] and [type(v) for v in values] == [float, float]

    def test_long_plan_read_in_one_pass(self, tmp_path, monkeypatch):
        from riskplan import scenario
        calls = []
        monkeypatch.setattr(scenario, "from_json",
                            lambda *a, _f=scenario.from_json: calls.append(1) or _f(*a))
        labels = ["inspect sm_tank"] * 400_000
        _, read = read_plan({**PLAN, "actions": labels, "high_level_length": 400_000},
                            tmp_path)
        plan = read()
        assert plan.actions == labels and type(plan.actions) is list
        assert len(calls) < 10  # the plan's fields, not one per label


@pytest.mark.parametrize("helix, problem", [
    ('{"points": 0}', ".helix is rejected: points must be >= 1"),
    ('{"turns": NaN}', ".helix.turns must be finite"),
    ('{"clearance": Infinity}', ".helix.clearance must be finite"),
    ('{"points": 100000000}', f".helix is rejected: points must be >= 1 and <= "
                              f"MAX_PATH_ROWS ({MAX_PATH_ROWS})"),
])
def test_bad_helix_config_exits_two_before_any_work(tmp_path, capsys, helix, problem):
    # once these dropped the inspection loop or never finished refining
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(f'{{"master_seed": 3, "helix": {helix}}}', encoding="utf-8")
    start = time.perf_counter()
    assert main(["pipeline", str(TANKS_SCN), "--config", str(cfg),
                 "--out-dir", str(out)]) == EXIT_INPUT
    assert time.perf_counter() - start < 1.0
    assert f"config: {problem}" in capsys.readouterr().err
    assert not out.exists()


def test_endless_helix_exits_two_at_refinement(tmp_path, capsys):
    # 1e300 turns passes every shape check, but no path that long is sampled
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text('{"master_seed": 3, "helix": {"turns": 1e300}}', encoding="utf-8")
    kernel.load()  # a first build is not part of the bound
    start = time.perf_counter()
    assert main(["pipeline", str(TANKS_SCN), "--config", str(cfg),
                 "--out-dir", str(out)]) == EXIT_INPUT
    assert time.perf_counter() - start < 1.0
    assert f"more than MAX_PATH_ROWS ({MAX_PATH_ROWS}) samples" in capsys.readouterr().err
    assert not any(out.glob("trajectory_*"))


# the command line that reads each reader's document from ``path``
COMMANDS = {
    "plan": lambda path, tmp: ["refine", str(TANKS_SCN), path, "--out", str(tmp / "t.csv")],
    "log": lambda path, tmp: ["assess", path, "--out", str(tmp / "r.json")],
    "config": lambda path, tmp: ["pipeline", str(TANKS_SCN), "--config", path,
                                 "--out-dir", str(tmp / "out")],
    "selection": lambda path, tmp: ["select", path],
    "samples": lambda path, tmp: ["plot", path, "--out-svg", str(tmp / "b.svg"),
                                  "--out-csv", str(tmp / "b.csv")],
}


@pytest.mark.parametrize("reader", READERS)
def test_syntax_error_names_the_document(tmp_path, capsys, reader):
    # once only "Expecting value: line 2 column 1 (char 15)", with no file
    whole = {"plan": PLAN, "log": RECORD, "config": CONFIG}.get(reader, REPORT)
    truncated = json.dumps(whole)[:-1]
    path = tmp_path / "doc.json"
    if reader == "log":  # the second line is cut short
        path.write_text(json.dumps(RECORD) + "\n" + truncated + "\n", encoding="utf-8")
        name = f"{path}:2"
    else:
        path.write_text(truncated, encoding="utf-8")
        name = str(path)
    assert main(COMMANDS[reader](str(path), tmp_path)) == EXIT_INPUT
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith(f"{name}: Expecting ")
    assert not (tmp_path / "out").exists()
