"""Contract compilation, handoff satisfaction, and plan diffs."""

from __future__ import annotations

import random

import pytest

from contextflow.codec import from_json, to_json
from contextflow.contracts import (
    EvidenceClause,
    SatisfactionReport,
    StageGoal,
    StageTemplate,
    StageStatus,
    Workflow,
    compile_instruction,
    evaluate_clauses,
    handoff_satisfied,
    plan_diff,
)
from contextflow.errors import EmptyInstruction, NoCompatibleExecutor
from contextflow.memory import MemoryEntry
from contextflow.scenario import golden_scenario_path, load_scenario
from contextflow.world import Anchor


def template(name="go", target="sink", region="room", clauses=(), compatible=("route-navigator",)):
    clauses = clauses or (EvidenceClause("object", target),)
    return StageTemplate(
        name=name,
        goal=StageGoal(target, region),
        handoff=tuple(clauses),
        compatible=tuple(compatible),
    )


def test_golden_instruction_compiles_to_four_contracts():
    scenario = load_scenario(golden_scenario_path())
    workflow = compile_instruction(scenario.stages)
    assert len(workflow.contracts) == 4
    assert workflow.frontier == 0
    assert workflow.contracts[0].status == StageStatus.ACTIVE
    assert all(c.status == StageStatus.PENDING for c in workflow.contracts[1:])


def test_single_stage_instruction():
    workflow = compile_instruction([template()])
    assert len(workflow.contracts) == 1
    assert workflow.active().status == StageStatus.ACTIVE


def test_empty_instruction_rejected():
    with pytest.raises(EmptyInstruction):
        compile_instruction([])


def test_no_compatible_executor_rejected():
    with pytest.raises(NoCompatibleExecutor):
        compile_instruction([template(compatible=())])


def test_handoff_subset_of_expected_by_construction():
    probe = StageTemplate(
        name="s",
        goal=StageGoal("sink", "room"),
        handoff=(EvidenceClause("object", "sink"),),
        expected=(EvidenceClause("room", "room", 0.5),),
        compatible=("route-navigator",),
    )
    contract = compile_instruction([probe]).contracts[0]
    for clause in contract.handoff:
        assert clause in contract.expected


def test_live_match_above_threshold():
    clause = EvidenceClause("object", "sink", 0.7)
    report = evaluate_clauses([clause], [Anchor("sink", "object", 0.9, "n1")], [], now=0)
    assert report.satisfied
    assert report.matched[0].provenance == "live"


def test_borderline_confidence_is_ambiguous():
    clause = EvidenceClause("object", "sink", 0.7)
    report = evaluate_clauses([clause], [Anchor("sink", "object", 0.60, "n1")], [], now=0)
    assert not report.satisfied
    assert report.ambiguous and report.ambiguous[0].best_confidence == 0.60
    assert not report.missing


def test_memory_corroborated_match_needs_live_witness():
    clause = EvidenceClause(
        "object", "sink", 0.7, source="live-or-corroborated-memory"
    )
    remembered = MemoryEntry(
        tick=10,
        kind="observation-anchor",
        stage_index=0,
        anchor=Anchor("sink", "object", 0.8, "n7"),
        region="sink-room",
    )
    # live packet holds only the room cue for where the sink was recorded
    live = [Anchor("sink-room", "room", 0.9, "n6")]
    report = evaluate_clauses([clause], live, [remembered], now=30)
    assert report.satisfied
    match = report.matched[0]
    assert match.provenance == "memory-corroborated"
    assert match.witness_label == "sink-room"
    # with no live anchors at all, memory alone must not satisfy
    empty = evaluate_clauses([clause], [], [remembered], now=30)
    assert not empty.satisfied


def test_satisfaction_monotone_in_evidence():
    rng = random.Random(5)
    labels = ["sink", "door", "lamp"]
    for _ in range(50):
        clauses = [
            EvidenceClause("object", rng.choice(labels), round(rng.uniform(0.3, 0.8), 2))
            for _ in range(rng.randint(1, 3))
        ]
        anchors = [
            Anchor(rng.choice(labels), "object", round(rng.uniform(0, 1), 2), "n1")
            for _ in range(rng.randint(0, 5))
        ]
        report = evaluate_clauses(clauses, anchors, [], now=0)
        if not report.satisfied:
            continue
        richer = anchors + [Anchor("extra", "object", 1.0, "n2")]
        richer = [Anchor(a.label, a.kind, min(1.0, a.confidence + 0.1), a.node) for a in richer]
        again = evaluate_clauses(clauses, richer, [], now=0)
        assert again.satisfied


def make_workflow(n=4):
    return compile_instruction([template(name=f"s{i}") for i in range(n)])


def test_plan_diff_identity_is_empty():
    w = make_workflow()
    diff = plan_diff(w, w)
    assert diff.changed == ()
    assert diff.retained_prefix == (0, 3)
    assert diff.repair_root is None


def test_plan_diff_repair_at_two_of_four():
    before = make_workflow()
    after = Workflow(contracts=list(before.contracts), frontier=before.frontier)
    from dataclasses import replace

    after.contracts[2] = replace(after.contracts[2], goal=StageGoal("other", "room"))
    after.contracts[3] = replace(after.contracts[3], status=StageStatus.PENDING)
    diff = plan_diff(before, after)
    assert diff.retained_prefix == (0, 1)
    assert diff.repair_root == 2


def test_plan_diff_promote_changes_only_two_statuses():
    before = make_workflow()
    after = Workflow(contracts=list(before.contracts), frontier=1)
    from dataclasses import replace

    after.contracts[0] = replace(after.contracts[0], status=StageStatus.DONE)
    after.contracts[1] = replace(after.contracts[1], status=StageStatus.ACTIVE)
    diff = plan_diff(before, after)
    assert len(diff.changed) == 2
    assert {c.field for c in diff.changed} == {"status"}
    # hand-built expectation: exactly indices 0 and 1
    assert sorted(c.index for c in diff.changed) == [0, 1]


def test_plan_diff_renders_only_replaced_contracts(monkeypatch):
    from dataclasses import replace

    from contextflow import contracts

    before = make_workflow()
    after = Workflow(contracts=list(before.contracts), frontier=before.frontier)
    after.contracts[2] = replace(after.contracts[2], status=StageStatus.DONE)
    rendered = []
    render = contracts._render_field
    monkeypatch.setattr(
        contracts, "_render_field", lambda c, name: rendered.append(id(c)) or render(c, name)
    )
    diff = plan_diff(before, after)
    assert [(c.index, c.field) for c in diff.changed] == [(2, "status")]
    assert set(rendered) == {id(before.contracts[2]), id(after.contracts[2])}


def test_handoff_satisfied_reads_packet_anchor_field():
    workflow = make_workflow(1)
    contract = workflow.active()

    class PacketStub:
        a = (Anchor("sink", "object", 0.95, "n0"),)

    report = handoff_satisfied(contract, PacketStub(), [], now=0)
    assert isinstance(report, SatisfactionReport)
    assert report.satisfied


def test_report_round_trip():
    clause = EvidenceClause("object", "sink", 0.7)
    report = evaluate_clauses([clause], [Anchor("sink", "object", 0.9, "n1")], [], now=0)
    again = from_json(SatisfactionReport, to_json(report))
    assert again == report
