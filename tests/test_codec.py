"""Codec tests: round trips over real episode objects and over every
dataclass a trace writes, self-referencing templates, and every
`SchemaMismatch` rule of the row form."""

from __future__ import annotations

import copy
import importlib
import json
import pkgutil
from dataclasses import dataclass, fields, is_dataclass
from functools import partial
from inspect import get_annotations

import pytest

import contextflow
from contextflow import alignment, harness
from contextflow.alignment import ScopedUpdate
from contextflow.board import (
    BoardRecord,
    Terminal,
    TraceHeader,
    _slot,
    from_object,
    header_templates,
    parse_trace,
    to_object,
)
from contextflow.codec import from_json, to_json
from contextflow.contracts import (
    EvidenceClause,
    SatisfactionReport,
    StageContract,
    StageGoal,
    StageTemplate,
    Workflow,
)
from contextflow.errors import SchemaMismatch
from contextflow.executors import Status
from contextflow.harness import RunConfig, run_episode
from contextflow.memory import MemoryEntry
from contextflow.metrics import score_episode
from contextflow.monitor import Evidence, EvidencePacket
from contextflow.scenario import golden_scenario_path, load_scenario
from contextflow.world import Anchor


def golden_objects(monkeypatch) -> list:
    """Every codec-handled object the golden episode produces: templates,
    consultation inputs and results, records, the final workflow and memory,
    and the metrics."""
    scenario = load_scenario(golden_scenario_path())
    seen: list = list(scenario.stages)
    emit = harness.emit_record
    classify = alignment.classify_misalignment

    def capture(trace, result):
        c = result.consultation
        seen.extend([c.packet, c.status, result.update])
        seen.extend(c.memory)
        return emit(trace, result)

    def classified(*args, **kwargs):
        case, reports = classify(*args, **kwargs)
        seen.append(case)
        seen.extend(reports.values())
        return case, reports

    def inspect(workflow, mem, registry):
        seen.append(workflow)
        seen.extend(mem.all_entries())

    monkeypatch.setattr(harness, "emit_record", capture)
    monkeypatch.setattr(alignment, "classify_misalignment", classified)
    trace = run_episode(scenario, RunConfig(), inspect)
    seen.append(score_episode(trace, scenario.world, scenario))
    seen.extend(trace.records)
    return seen


def test_round_trip_of_every_golden_object(monkeypatch):
    objects = golden_objects(monkeypatch)
    kinds = {type(x).__name__ for x in objects}
    assert {"EvidencePacket", "SatisfactionReport", "Workflow", "StageTemplate"} <= kinds
    assert {"MemoryEntry", "BoardRecord", "EpisodeMetrics"} <= kinds
    for x in objects:
        data = to_json(x)
        assert json.loads(json.dumps(data)) == data
        assert from_json(type(x), data) == x


def test_template_with_nested_alternates_round_trips():
    clause = EvidenceClause("object", "sink", 0.8, "live-or-corroborated-memory")
    room, hall = StageGoal("sink", "room"), StageGoal("door", "hall")
    inner = StageTemplate("inner", room, (clause,), compatible=("local-searcher",))
    middle = StageTemplate("middle", room, (), alternates=(inner,))
    outer = StageTemplate("outer", hall, (clause,), (clause,), alternates=(middle, inner))
    data = to_json(outer)
    alternates, name = _slot(StageTemplate, "alternates"), _slot(StageTemplate, "name")
    nested = data[alternates][0][alternates][0]
    assert nested[name] == "inner"
    assert nested[_slot(StageTemplate, "handoff")][0][_slot(EvidenceClause, "source")] == clause.source
    assert from_json(StageTemplate, data) == outer
    assert from_json(tuple[StageTemplate, ...], [data, data]) == (outer, outer)


# every dataclass that a trace writes: the header and terminal objects, the
# record rows and each row nested in them
TRACE_CLASSES = {
    TraceHeader, Terminal, StageTemplate, StageGoal, EvidenceClause, BoardRecord, MemoryEntry, Anchor,
    Evidence, Status, ScopedUpdate,
}


def _instances(obj):
    """`obj` and every dataclass instance nested in its fields."""
    if is_dataclass(obj):
        yield obj
        for f in fields(obj):
            yield from _instances(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _instances(item)


def test_round_trip_of_every_dataclass_a_trace_writes():
    """Decoded from shipped traces that hold memory entries (promotion_05)
    and alternate groundings nested in a template (repair_02), every value
    encodes back to its row, or its object for the header and terminal."""
    from test_trace_sha256 import shipped_traces

    texts = dict(shipped_traces())
    seen = set()
    for label in ("fig4_sink/contextflow", "promotion_05/contextflow", "repair_02/contextflow"):
        trace = parse_trace(texts[label])
        header, terminal = from_object(TraceHeader, trace.header), from_object(Terminal, trace.terminal)
        assert to_object(header) == trace.header and to_object(terminal) == trace.terminal
        values = [header, terminal, *header_templates(trace), *trace.records]
        values += [from_json(MemoryEntry, row) for row in trace.entries.values()]
        for x in (x for value in values for x in _instances(value)):
            seen.add(type(x))
            data = to_json(x)
            assert type(data) is list and len(data) == len(fields(x))
            assert json.loads(json.dumps(data)) == data
            assert from_json(type(x), data) == x
    assert seen == TRACE_CLASSES
    alternates = _slot(StageTemplate, "alternates")
    assert any(row[alternates] for row in json.loads(texts["repair_02/contextflow"].splitlines()[0])["templates"])


def _contract_json() -> list:
    goal = StageGoal("sink", "room")
    return to_json(StageContract("s", goal, (), (), ("local-searcher",)))


def _evidence_json(monkeypatch) -> list:
    """A golden packet's JSON as a board record writes it."""
    packet = next(x for x in golden_objects(monkeypatch) if isinstance(x, EvidencePacket))
    return to_json(packet.recorded())


def _row(cls, **values) -> list:
    """A row of `cls` that holds `values`, field by field."""
    return [values[f.name] for f in fields(cls)]


def _clause(**changes) -> list:
    return _row(EvidenceClause, **{"kind": "object", "label": "sink", "min_confidence": 0.7, "source": "live-only", **changes})


def _with(cls, data: list, **changes) -> list:
    """A copy of the row `data` of `cls` with `changes` in their slots."""
    out = copy.deepcopy(data)
    for name, value in changes.items():
        out[_slot(cls, name)] = value
    return out


@dataclass(frozen=True)
class Keyed:
    """A class decoded from a keyed object (`board.from_object`), as the
    header and the terminal line are, not from a row."""

    cls: type


@pytest.mark.parametrize(
    "cls, data",
    [
        pytest.param(Keyed(StageGoal), ["sink", "room"], id="dataclass-not-object"),
        pytest.param(Keyed(StageGoal), {"target": "sink"}, id="dataclass-missing-key"),
        pytest.param(Keyed(StageGoal), {"target": "sink", "region": "r", "x": 1}, id="dataclass-extra-key"),
        pytest.param(StageGoal, {"target": "sink", "region": "room"}, id="dataclass-object-not-row"),
        pytest.param(StageGoal, ["sink"], id="dataclass-short-row"),
        pytest.param(StageGoal, ["sink", "r", 1], id="dataclass-long-row"),
        pytest.param(StageContract, lambda: _with(StageContract, _contract_json(), handoff={}), id="tuple-not-list"),
        pytest.param(Workflow, _row(Workflow, frontier=0, contracts="abc", templates=[]), id="list-not-list"),
        pytest.param(
            StageContract, lambda: _with(StageContract, _contract_json(), compatible="x"), id="str-tuple-not-list"
        ),
        pytest.param(ScopedUpdate, ["continue", []], id="bare-dict-field"),
        pytest.param(tuple[EvidenceClause, ...], {"kind": "object"}, id="top-level-sequence"),
        pytest.param(StageGoal, [3, "r"], id="str-field"),
        pytest.param(Workflow, _row(Workflow, frontier="0", contracts=[], templates=[]), id="int-field"),
        pytest.param(Workflow, _row(Workflow, frontier=False, contracts=[], templates=[]), id="int-field-bool"),
        pytest.param(EvidenceClause, _clause(min_confidence="0.7"), id="float-field"),
        pytest.param(EvidenceClause, _clause(min_confidence=True), id="float-field-bool"),
        pytest.param(
            SatisfactionReport,
            _row(SatisfactionReport, satisfied=1, matched=[], missing=[], ambiguous=[]),
            id="bool-field",
        ),
        pytest.param(
            RunConfig, _row(RunConfig, variant="contextflow", seed=0.5, budget=None, cadence=2), id="optional-int-field"
        ),
    ],
)
def test_schema_mismatch_rules(cls, data):
    decode = partial(from_object, cls.cls) if isinstance(cls, Keyed) else partial(from_json, cls)
    with pytest.raises(SchemaMismatch):
        decode(data() if callable(data) else data)


def test_schema_mismatch_messages_name_the_field_or_the_row():
    with pytest.raises(SchemaMismatch, match=r"^StageGoal\.region needs str: 3$"):
        from_json(StageGoal, ["sink", 3])
    with pytest.raises(SchemaMismatch, match=r"^EvidenceClause\.min_confidence needs float or int: True$"):
        from_json(EvidenceClause, _clause(min_confidence=True))
    row = r"StageGoal needs a row of 2 values \['target', 'region'\]"
    for data in (["sink"], ["sink", "room", "hall"], {"target": "sink", "region": "room"}, "sink"):
        with pytest.raises(SchemaMismatch, match=f"^{row}: "):
            from_json(StageGoal, data)


def test_schema_mismatch_in_nested_packet_fields(monkeypatch):
    evidence = _evidence_json(monkeypatch)
    assert from_json(Evidence, evidence).a == from_json(tuple[Anchor, ...], evidence[_slot(Evidence, "a")])
    bad_rows = (
        _with(Evidence, evidence, degraded=[]),
        _with(Evidence, evidence, a=3),
        _with(Evidence, evidence, a=[{"label": "x"}]),
        _with(Evidence, evidence, a=[["x"]]),
    )
    for bad in bad_rows:
        with pytest.raises(SchemaMismatch):
            from_json(Evidence, bad)


def test_schema_mismatch_for_bare_list_field(monkeypatch):
    record = next(x for x in golden_objects(monkeypatch) if isinstance(x, BoardRecord))
    data = to_json(record)
    assert from_json(BoardRecord, data) == record
    with pytest.raises(SchemaMismatch):
        from_json(BoardRecord, _with(BoardRecord, data, memory_context={}))


def test_no_dataclass_annotation_quotes_a_name():
    """Every module postpones its annotations, so a field's raw annotation is
    a string. A name quoted inside it (`tuple["StageTemplate", ...]`) stays
    a string under Python 3.10's `typing.get_type_hints`, which the codec
    cannot compile."""
    annotations = {}
    for info in pkgutil.iter_modules(contextflow.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"contextflow.{info.name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and is_dataclass(cls) and cls.__module__ == module.__name__:
                for name, annotation in get_annotations(cls).items():
                    annotations[f"{cls.__name__}.{name}"] = annotation
    assert annotations["StageTemplate.alternates"] == "tuple[StageTemplate, ...]"
    assert [f"{k}: {a}" for k, a in annotations.items() if "'" in a or '"' in a] == []
