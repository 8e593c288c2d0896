"""Codec tests: round trips over real episode objects, self-referencing
templates, fields left out of the encoding, and every `SchemaMismatch` rule."""

from __future__ import annotations

import copy
import json

import pytest

from contextflow import alignment, harness
from contextflow.alignment import ScopedUpdate
from contextflow.board import BoardRecord
from contextflow.codec import from_json, to_json
from contextflow.contracts import (
    EvidenceClause,
    PlanDiff,
    SatisfactionReport,
    StageContract,
    StageGoal,
    StageStatus,
    StageTemplate,
    Workflow,
)
from contextflow.errors import SchemaMismatch
from contextflow.harness import RunConfig, run_episode
from contextflow.metrics import score_episode
from contextflow.monitor import EvidencePacket
from contextflow.scenario import golden_scenario_path, load_scenario, stress_suite_dir


def golden_objects(monkeypatch) -> list:
    """Every codec-handled object the golden episode produces: templates,
    consultation inputs and results, records, the final workflow and memory,
    and the metrics."""
    scenario = load_scenario(golden_scenario_path())
    seen: list = list(scenario.stages)
    emit = harness.emit_record
    classify = alignment.classify_misalignment

    def capture(trace, tick, instruction, result, packet, kind, ident, status):
        seen.extend([packet, status, result.case, result.update, result.diff])
        seen.extend(result.memory_context)
        return emit(trace, tick, instruction, result, packet, kind, ident, status)

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
    assert {"MemoryEntry", "BoardRecord", "EpisodeMetrics", "PlanDiff"} <= kinds
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


def test_workflow_retired_is_not_encoded():
    scenario = load_scenario(stress_suite_dir() / "repair_02.scn")
    ended = []
    run_episode(scenario, RunConfig(), lambda workflow, mem, registry: ended.append(workflow))
    workflow = ended[0]
    assert workflow.retired
    data = to_json(workflow)
    assert set(data) == {"contracts", "frontier"}
    again = from_json(Workflow, data)
    assert again.retired == []
    assert again.contracts == workflow.contracts and again.frontier == workflow.frontier


def _contract_json() -> dict:
    goal = StageGoal("sink", "room")
    return to_json(StageContract("s", goal, (), (), ("local-searcher",), StageStatus.ACTIVE))


def _packet_json(monkeypatch) -> dict:
    return to_json(next(x for x in golden_objects(monkeypatch) if isinstance(x, EvidencePacket)))


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
        pytest.param(Workflow, lambda: {"frontier": 0, "contracts": "abc"}, id="list-not-list"),
        pytest.param(
            StageContract, lambda: _with(_contract_json(), compatible="x"), id="str-tuple-not-list"
        ),
        pytest.param(
            PlanDiff, {"retained_prefix": [0], "changed": [], "repair_root": None}, id="fixed-tuple-length"
        ),
        pytest.param(
            PlanDiff, {"retained_prefix": 3, "changed": [], "repair_root": None}, id="fixed-tuple-not-list"
        ),
        pytest.param(ScopedUpdate, {"action": "continue", "payload": []}, id="bare-dict-field"),
        pytest.param(StageContract, lambda: _with(_contract_json(), status="bogus"), id="unknown-enum"),
        pytest.param(tuple[EvidenceClause, ...], {"kind": "object"}, id="top-level-sequence"),
        pytest.param(StageGoal, {"target": 3, "region": "r"}, id="str-field"),
        pytest.param(Workflow, {"frontier": "0", "contracts": []}, id="int-field"),
        pytest.param(Workflow, {"frontier": False, "contracts": []}, id="int-field-bool"),
        pytest.param(EvidenceClause, _clause(min_confidence="0.7"), id="float-field"),
        pytest.param(EvidenceClause, _clause(min_confidence=True), id="float-field-bool"),
        pytest.param(
            SatisfactionReport,
            {"satisfied": 1, "matched": [], "missing": [], "ambiguous": []},
            id="bool-field",
        ),
        pytest.param(
            PlanDiff, {"retained_prefix": None, "changed": [], "repair_root": 0.5}, id="optional-int-field"
        ),
    ],
)
def test_schema_mismatch_rules(cls, data):
    with pytest.raises(SchemaMismatch):
        from_json(cls, data() if callable(data) else data)


def test_schema_mismatch_in_nested_packet_fields(monkeypatch):
    packet = _packet_json(monkeypatch)
    for bad in (_with(packet, degraded=[]), _with(packet, a=3), _with(packet, d=[{"stage": 1}])):
        with pytest.raises(SchemaMismatch):
            from_json(EvidencePacket, bad)


def test_schema_mismatch_for_bare_list_field(monkeypatch):
    record = next(x for x in golden_objects(monkeypatch) if isinstance(x, BoardRecord))
    data = to_json(record)
    assert from_json(BoardRecord, data) == record
    with pytest.raises(SchemaMismatch):
        from_json(BoardRecord, _with(data, memory_context={}))
