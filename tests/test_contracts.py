"""Contract compilation, handoff satisfaction, and plan diffs."""

from __future__ import annotations

import math
import random
from types import SimpleNamespace

import pytest

from contextflow.codec import from_json, to_json
from contextflow.contracts import (
    AMBIGUITY_MARGIN,
    SOURCE_MEMORY_OK,
    EvidenceClause,
    SatisfactionReport,
    StageGoal,
    StageTemplate,
    Workflow,
    compile_instruction,
    handoff_satisfied,
    live_pass,
    plan_diff,
    stage_status,
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
    assert [stage_status(i, workflow.frontier) for i in range(4)] == ["active", "pending", "pending", "pending"]


def test_single_stage_instruction():
    workflow = compile_instruction([template()])
    assert len(workflow.contracts) == 1
    assert workflow.active() is workflow.contracts[0]
    assert stage_status(0, workflow.frontier) == "active"


def test_empty_instruction_rejected():
    with pytest.raises(EmptyInstruction):
        compile_instruction([])


def test_no_compatible_executor_rejected():
    with pytest.raises(NoCompatibleExecutor):
        compile_instruction([template(compatible=())])


def test_alternate_without_kinds_rejected():
    # a repair would regenerate the stage from it
    from dataclasses import replace

    stage = replace(template(), alternates=(template(name="alt", compatible=()),))
    with pytest.raises(NoCompatibleExecutor, match="'alt'"):
        compile_instruction([stage])


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


def evaluate(clauses, anchors, memory_entries, now):
    """The report of a handoff of `clauses` as the planner settles it: their
    live pass over `anchors`, then corroborated memory."""
    contract = compile_instruction([template(clauses=clauses)]).active()
    packet = SimpleNamespace(a=anchors)
    return handoff_satisfied(contract, packet, memory_entries, now, live_pass(clauses, anchors))


def test_live_match_above_threshold():
    clause = EvidenceClause("object", "sink", 0.7)
    report = evaluate([clause], [Anchor("sink", "object", 0.9, "n1")], [], now=0)
    assert report.satisfied
    assert report.matched[0].provenance == "live"


def test_borderline_confidence_is_ambiguous():
    clause = EvidenceClause("object", "sink", 0.7)
    report = evaluate([clause], [Anchor("sink", "object", 0.60, "n1")], [], now=0)
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
    report = evaluate([clause], live, [remembered], now=30)
    assert report.satisfied
    match = report.matched[0]
    assert match.provenance == "memory-corroborated"
    assert match.witness_label == "sink-room"
    # with no live anchors at all, memory alone must not satisfy
    empty = evaluate([clause], [], [remembered], now=30)
    assert not empty.satisfied


def _live(clause, anchors):
    """The live match of one clause: (label, node, confidence) of its
    evidence, or None when the clause is not matched live."""
    report = evaluate([clause], anchors, [], now=0)
    if not report.matched:
        return None
    match = report.matched[0]
    assert match.provenance == "live"
    return match.anchor_label, match.anchor_node, match.confidence


@pytest.mark.parametrize(
    "clause, anchors, expected",
    [
        pytest.param(
            EvidenceClause("object", "*"),
            [Anchor("cup", "object", 0.9, "n1"), Anchor("sink", "object", 0.9, "n0")],
            ("sink", "n0", 0.9),
            id="equal-confidence-greater-label",
        ),
        pytest.param(
            EvidenceClause("object", "sink"),
            [Anchor("sink", "object", 0.9, "n2"), Anchor("sink", "object", 0.9, "n1")],
            ("sink", "n2", 0.9),
            id="equal-confidence-and-label-greater-node",
        ),
        pytest.param(
            EvidenceClause("object", "*"),
            [Anchor("zebra", "object", 0.8, "n9"), Anchor("ant", "object", 0.85, "n0")],
            ("ant", "n0", 0.85),
            id="confidence-before-label",
        ),
    ],
)
def test_live_match_tie_breaks(clause, anchors, expected):
    assert _live(clause, anchors) == expected
    assert _live(clause, anchors[::-1]) == expected


def test_first_maximal_candidate_wins():
    # 0.0 and -0.0 compare equal, so the two candidates tie on every key; the
    # sign of the matched confidence shows which one was kept
    clause = EvidenceClause("object", "sink", 0.0)
    for first, second in ((0.0, -0.0), (-0.0, 0.0)):
        anchors = [Anchor("sink", "object", first, "n1"), Anchor("sink", "object", second, "n1")]
        _, _, confidence = _live(clause, anchors)
        assert math.copysign(1.0, confidence) == math.copysign(1.0, first)


def test_wildcard_clause_matches_any_label_of_its_kind():
    clause = EvidenceClause("object", "*")
    anchors = [Anchor("sink-room", "room", 0.95, "n6"), Anchor("cup", "object", 0.8, "n3")]
    assert _live(clause, anchors) == ("cup", "n3", 0.8)
    assert _live(clause, [Anchor("sink-room", "room", 0.95, "n6")]) is None


def test_labelled_clause_matches_only_its_label_and_kind():
    clause = EvidenceClause("object", "sink")
    anchors = [
        Anchor("cup", "object", 0.95, "n3"),
        Anchor("sink", "room", 0.95, "n6"),
        Anchor("sink", "object", 0.75, "n7"),
    ]
    assert _live(clause, anchors) == ("sink", "n7", 0.75)
    assert _live(clause, anchors[:2]) is None


def test_wildcard_clause_never_matches_from_memory():
    clause = EvidenceClause("object", "*", source=SOURCE_MEMORY_OK)
    remembered = MemoryEntry(10, "observation-anchor", 0, Anchor("sink", "object", 0.9, "n7"), "sink-room")
    live = [Anchor("sink-room", "room", 0.9, "n6")]
    report = evaluate([clause], live, [remembered], now=30)
    assert report.missing == (clause,) and not report.matched


def test_ambiguity_margin_edges():
    clause = EvidenceClause("object", "sink", 0.7)
    floor = clause.min_confidence - AMBIGUITY_MARGIN

    def outcome(confidence):
        report = evaluate([clause], [Anchor("sink", "object", confidence, "n1")], [], now=0)
        return (len(report.matched), len(report.ambiguous), len(report.missing))

    assert outcome(0.7) == (1, 0, 0)
    assert outcome(math.nextafter(0.7, 0.0)) == (0, 1, 0)
    assert outcome(floor) == (0, 1, 0)
    assert outcome(math.nextafter(floor, 0.0)) == (0, 0, 1)


def test_ambiguous_live_evidence_is_not_settled_from_memory():
    clause = EvidenceClause("object", "sink", 0.7, source=SOURCE_MEMORY_OK)
    remembered = MemoryEntry(10, "observation-anchor", 0, Anchor("sink", "object", 0.9, "n7"), "sink-room")
    live = [Anchor("sink", "object", 0.6, "n7")]
    report = evaluate([clause], live, [remembered], now=30)
    assert [a.best_confidence for a in report.ambiguous] == [0.6]
    assert not report.matched and not report.missing


def test_matched_clauses_keep_clause_order():
    clauses = [
        EvidenceClause("object", "sink", source=SOURCE_MEMORY_OK),
        EvidenceClause("object", "cup"),
        EvidenceClause("room", "*"),
    ]
    remembered = MemoryEntry(10, "observation-anchor", 0, Anchor("sink", "object", 0.9, "n7"), "sink-room")
    live = [Anchor("cup", "object", 0.9, "n3"), Anchor("sink-room", "room", 0.9, "n6")]
    report = evaluate(clauses, live, [remembered], now=30)
    assert [m.clause for m in report.matched] == clauses
    assert [m.provenance for m in report.matched] == ["memory-corroborated", "live", "live"]


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
        report = evaluate(clauses, anchors, [], now=0)
        if not report.satisfied:
            continue
        richer = anchors + [Anchor("extra", "object", 1.0, "n2")]
        richer = [Anchor(a.label, a.kind, min(1.0, a.confidence + 0.1), a.node) for a in richer]
        again = evaluate(clauses, richer, [], now=0)
        assert again.satisfied


def make_workflow(n=4):
    return compile_instruction([template(name=f"s{i}") for i in range(n)])


def test_plan_diff_identity_is_empty():
    w = make_workflow()
    diff = plan_diff(w, w)
    assert diff.changed == ()  # every stage is retained, and nothing is repaired


def test_plan_diff_repair_at_two_of_four():
    before = make_workflow()
    before.frontier = 2
    after = Workflow(contracts=list(before.contracts), frontier=before.frontier)
    from dataclasses import replace

    after.contracts[2] = replace(after.contracts[2], goal=StageGoal("other", "room"))
    after.contracts[3] = replace(after.contracts[3], template_index=3)
    diff = plan_diff(before, after)
    # the frontier stays, so no status changes; stage 3 is replaced by an
    # equal contract; stages 0 and 1 are retained and the root is 2, the
    # first changed index
    assert [(c.index, c.field) for c in diff.changed] == [(2, "goal")]


def test_plan_diff_promote_changes_only_two_statuses():
    before = make_workflow()
    after = Workflow(contracts=list(before.contracts), frontier=1)
    diff = plan_diff(before, after)
    # hand-built expectation: stage 0 closes and stage 1 opens
    assert [(c.index, c.field, c.before, c.after) for c in diff.changed] == [
        (0, "status", "active", "done"),
        (1, "status", "pending", "active"),
    ]


def test_plan_diff_full_repair_reports_status_after_fields_in_index_order():
    from dataclasses import replace

    before = make_workflow()
    before.frontier = 2
    after = Workflow(contracts=list(before.contracts), frontier=0)
    after.contracts[1] = replace(after.contracts[1], goal=StageGoal("other", "room"))
    diff = plan_diff(before, after)
    assert [(c.index, c.field, c.before, c.after) for c in diff.changed] == [
        (0, "status", "done", "active"),
        (1, "goal", "sink@room", "other@room"),
        (1, "status", "done", "pending"),
        (2, "status", "active", "pending"),
    ]


def test_plan_diff_renders_only_replaced_contracts(monkeypatch):
    from dataclasses import replace

    from contextflow import contracts

    before = make_workflow()
    after = Workflow(contracts=list(before.contracts), frontier=3)
    after.contracts[2] = replace(after.contracts[2], goal=StageGoal("other", "room"))
    rendered = []
    render = contracts._render_field
    monkeypatch.setattr(
        contracts, "_render_field", lambda c, name: rendered.append(id(c)) or render(c, name)
    )
    diff = plan_diff(before, after)
    # moving the frontier renders no contract; its status changes follow
    # from the two frontiers alone
    assert [(c.index, c.field) for c in diff.changed] == [
        (0, "status"), (1, "status"), (2, "goal"), (2, "status"), (3, "status")
    ]
    assert set(rendered) == {id(before.contracts[2]), id(after.contracts[2])}


def test_handoff_satisfied_reads_packet_anchor_field():
    workflow = make_workflow(1)
    contract = workflow.active()

    class PacketStub:
        a = (Anchor("sink", "object", 0.95, "n0"),)

    report = handoff_satisfied(contract, PacketStub(), [], 0, live_pass(contract.handoff, PacketStub.a))
    assert isinstance(report, SatisfactionReport)
    assert report.satisfied


def test_report_round_trip():
    clause = EvidenceClause("object", "sink", 0.7)
    report = evaluate([clause], [Anchor("sink", "object", 0.9, "n1")], [], now=0)
    again = from_json(SatisfactionReport, to_json(report))
    assert again == report
