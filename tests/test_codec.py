"""Codec tests: round trips over real episode objects, self-referencing
templates, and every `SchemaMismatch` rule."""

from __future__ import annotations

import copy
import importlib
import json
import pkgutil
from dataclasses import is_dataclass
from inspect import get_annotations

import pytest

import contextflow
from contextflow import alignment, harness
from contextflow.alignment import ScopedUpdate
from contextflow.board import BoardRecord
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
from contextflow.harness import RunConfig, run_episode
from contextflow.metrics import score_episode
from contextflow.monitor import Evidence, EvidencePacket
from contextflow.scenario import golden_scenario_path, load_scenario


def golden_objects(monkeypatch) -> list:
    """Every codec-handled object the golden episode produces: templates,
    consultation inputs and results, records, the final workflow and memory,
    and the metrics."""
    scenario = load_scenario(golden_scenario_path())
    seen: list = list(scenario.stages)
    emit = harness.emit_record
    classify = alignment.classify_misalignment

    def capture(trace, result, packet, status):
        seen.extend([packet, status, result.case, result.update])
        seen.extend(result.memory_context)
        return emit(trace, result, packet, status)

    def classified(*args, **kwargs):
        case, reports = classify(*args, **kwargs)
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
    assert data["alternates"][0]["alternates"][0]["name"] == "inner"
    assert data["alternates"][0]["alternates"][0]["handoff"][0]["source"] == clause.source
    assert from_json(StageTemplate, data) == outer
    assert from_json(tuple[StageTemplate, ...], [data, data]) == (outer, outer)


def _contract_json() -> dict:
    goal = StageGoal("sink", "room")
    return to_json(StageContract("s", goal, (), (), ("local-searcher",)))


def _evidence_json(monkeypatch) -> dict:
    """A golden packet's JSON as a board record writes it."""
    packet = next(x for x in golden_objects(monkeypatch) if isinstance(x, EvidencePacket))
    return to_json(packet.recorded())


def _clause(**changes) -> dict:
    return {"kind": "object", "label": "sink", "min_confidence": 0.7, "source": "live-only", **changes}


def _with(data: dict, **changes) -> dict:
    out = copy.deepcopy(data)
    out.update(changes)
    return out


@pytest.mark.parametrize(
    "cls, data",
    [
        pytest.param(StageGoal, ["sink", "room"], id="dataclass-not-object"),
        pytest.param(StageGoal, {"target": "sink"}, id="dataclass-missing-key"),
        pytest.param(StageGoal, {"target": "sink", "region": "r", "x": 1}, id="dataclass-extra-key"),
        pytest.param(StageContract, lambda: _with(_contract_json(), handoff={}), id="tuple-not-list"),
        pytest.param(Workflow, lambda: {"frontier": 0, "contracts": "abc", "templates": []}, id="list-not-list"),
        pytest.param(
            StageContract, lambda: _with(_contract_json(), compatible="x"), id="str-tuple-not-list"
        ),
        pytest.param(ScopedUpdate, {"action": "continue", "payload": []}, id="bare-dict-field"),
        pytest.param(tuple[EvidenceClause, ...], {"kind": "object"}, id="top-level-sequence"),
        pytest.param(StageGoal, {"target": 3, "region": "r"}, id="str-field"),
        pytest.param(Workflow, {"frontier": "0", "contracts": [], "templates": []}, id="int-field"),
        pytest.param(Workflow, {"frontier": False, "contracts": [], "templates": []}, id="int-field-bool"),
        pytest.param(EvidenceClause, _clause(min_confidence="0.7"), id="float-field"),
        pytest.param(EvidenceClause, _clause(min_confidence=True), id="float-field-bool"),
        pytest.param(
            SatisfactionReport,
            {"satisfied": 1, "matched": [], "missing": [], "ambiguous": []},
            id="bool-field",
        ),
        pytest.param(
            RunConfig, {"variant": "contextflow", "seed": 0.5, "budget": None, "cadence": 2}, id="optional-int-field"
        ),
    ],
)
def test_schema_mismatch_rules(cls, data):
    with pytest.raises(SchemaMismatch):
        from_json(cls, data() if callable(data) else data)


def test_schema_mismatch_in_nested_packet_fields(monkeypatch):
    evidence = _evidence_json(monkeypatch)
    assert from_json(Evidence, evidence).tick == evidence["tick"]
    for bad in (_with(evidence, degraded=[]), _with(evidence, a=3), _with(evidence, a=[{"label": "x"}])):
        with pytest.raises(SchemaMismatch):
            from_json(Evidence, bad)


def test_schema_mismatch_for_bare_list_field(monkeypatch):
    record = next(x for x in golden_objects(monkeypatch) if isinstance(x, BoardRecord))
    data = to_json(record)
    assert from_json(BoardRecord, data) == record
    with pytest.raises(SchemaMismatch):
        from_json(BoardRecord, _with(data, memory_context={}))


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
