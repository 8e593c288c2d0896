"""Board tests: trace round-trips, rendering, labels, and audit checks."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from contextflow import board
from contextflow.alignment import ScopedUpdate
from contextflow.board import (
    SCHEMA,
    Trace,
    _audit_memory_witness,
    audit_trace,
    load_trace,
    parse_trace,
    render_trace,
    serialize_trace,
    update_label,
    update_sequence,
)
from contextflow.cli import main
from contextflow.contracts import SOURCE_MEMORY_OK, ClauseMatch, EvidenceClause, SatisfactionReport
from contextflow.errors import SchemaMismatch
from contextflow.harness import RunConfig, run_episode
from contextflow.scenario import golden_scenario_path, load_scenario


def golden_trace(variant="contextflow"):
    scenario = load_scenario(golden_scenario_path())
    return run_episode(scenario, RunConfig(variant=variant))


def test_trace_round_trip():
    trace = golden_trace()
    text = serialize_trace(trace)
    again = parse_trace(text)
    assert serialize_trace(again) == text
    assert len(again.records) == len(trace.records)
    assert again.terminal == trace.terminal


def test_empty_trace_renders_header_only():
    trace = Trace(header={"schema": SCHEMA, "scenario": "x", "variant": "contextflow", "seed": 0, "budget": 1, "cadence": 2, "templates": []})
    out = render_trace(trace)
    lines = out.strip().splitlines()
    assert len(lines) == 3  # title, column header, rule
    assert "tick" in lines[1]


def _golden_lines():
    return serialize_trace(golden_trace()).splitlines()


def test_unknown_schema_rejected():
    lines = _golden_lines()
    header = json.loads(lines[0])
    for schema in ("cftrace/99", "cftrace/3", "cftrace/2", "cftrace/1"):
        header["schema"] = schema
        with pytest.raises(SchemaMismatch):
            parse_trace("\n".join([json.dumps(header)] + lines[1:]) + "\n")


def _edit_record(index, edit):
    lines = _golden_lines()
    data = json.loads(lines[1 + index])
    edit(data["record"])
    lines[1 + index] = json.dumps(data)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(lambda: "\n".join(_golden_lines()[:2])[:-40] + "\n", id="truncated"),
        pytest.param(lambda: "[1]\n", id="header-not-object"),
        pytest.param(lambda: "\n".join(_golden_lines()[:1] + ["[1]"]) + "\n", id="line-not-object"),
        pytest.param(lambda: "\n".join(_golden_lines()[:1] + ['{"record": 3}']) + "\n", id="record-not-object"),
        pytest.param(lambda: "\n".join(_golden_lines()[:1] + ['{"terminal": {}, "x": 1}']) + "\n", id="extra-line-key"),
        pytest.param(lambda: _edit_record(0, lambda r: r.pop("tick")), id="missing-key"),
        pytest.param(lambda: _edit_record(1, lambda r: r.update(extra=1)), id="extra-key"),
        pytest.param(lambda: _edit_record(0, lambda r: r.pop("workflow")), id="no-first-snapshot"),
        pytest.param(
            lambda: "\n".join([json.dumps({"schema": SCHEMA})] + _golden_lines()[1:]) + "\n",
            id="header-keys",
        ),
    ],
)
def test_malformed_trace_raises_schema_mismatch(text):
    with pytest.raises(SchemaMismatch):
        parse_trace(text())


def _edit_header(edit):
    lines = _golden_lines()
    header = json.loads(lines[0])
    edit(header)
    lines[0] = json.dumps(header)
    return "\n".join(lines) + "\n"


_WRONGLY_TYPED_RECORDS = [
    pytest.param(lambda: _edit_record(0, lambda r: r.update(selected_update="x")), id="update"),
    pytest.param(lambda: _edit_record(0, lambda r: r["live_evidence"].update(a=3)), id="anchors"),
    pytest.param(
        lambda: _edit_record(0, lambda r: r["workflow"]["contracts"][1].update(status="bogus")),
        id="status-unknown",
    ),
    pytest.param(lambda: _edit_record(0, lambda r: r["live_evidence"].update(q="x")), id="q-str"),
    pytest.param(lambda: _edit_record(0, lambda r: r["live_evidence"].update(q=True)), id="q-bool"),
    pytest.param(lambda: _edit_record(0, lambda r: r["live_evidence"].update(tick="x")), id="tick-str"),
    pytest.param(lambda: _edit_record(0, lambda r: r.update(tick=True)), id="tick-bool"),
    pytest.param(lambda: _edit_record(0, lambda r: r.update(instruction=3)), id="instruction-int"),
    pytest.param(
        lambda: _edit_record(0, lambda r: r["plan_diff"].update(repair_root="0")), id="repair-root-str"
    ),
]


@pytest.mark.parametrize(
    "text",
    _WRONGLY_TYPED_RECORDS
    + [pytest.param(lambda: _edit_header(lambda h: h.update(templates=5)), id="templates")],
)
def test_wrongly_typed_trace_field_raises_schema_mismatch(text, tmp_path, capsys):
    with pytest.raises(SchemaMismatch):
        audit_trace(parse_trace(text()))
    path = tmp_path / "bad.cftrace"
    path.write_text(text(), encoding="utf-8")
    assert main(["audit", str(path)]) == 2
    assert "error: SchemaMismatch" in capsys.readouterr().err


# All but `status-unknown` fail in `parse_trace`, which decodes the typed
# fields; they stay so that every wrongly typed record is pinned on the render
# path too.
@pytest.mark.parametrize("text", _WRONGLY_TYPED_RECORDS)
def test_render_rejects_wrongly_typed_record(text):
    with pytest.raises(SchemaMismatch):
        render_trace(parse_trace(text()))


_REPORT = {"satisfied": True, "matched": [], "missing": [], "ambiguous": []}


# fields that cftrace/2 wrote and the replay re-derives, and packet fields that
# cftrace/3 wrote and no decision reads; a record carrying one is not a
# cftrace/4 record
@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(
            lambda r: r.update(active_stage={"index": 0, "name": "s", "goal": {"target": "t", "region": "r"}}),
            id="active_stage",
        ),
        pytest.param(lambda r: r.update(expected_evidence={"handoff": [], "expected": []}), id="expected_evidence"),
        pytest.param(lambda r: r["alignment_factors"].update(active_report=_REPORT), id="active_report"),
        pytest.param(lambda r: r["alignment_factors"].update(boundary_reports={"0": _REPORT}), id="boundary_reports"),
        pytest.param(lambda r: r["alignment_factors"].update(q=0.5), id="q"),
        pytest.param(lambda r: r["live_evidence"].update(pose_node="n00"), id="pose_node"),
        pytest.param(lambda r: r["live_evidence"].update(pose_heading="E"), id="pose_heading"),
        pytest.param(lambda r: r["live_evidence"].update(blocked=False), id="blocked"),
        pytest.param(lambda r: r["live_evidence"].update(goal_distance_delta=0.0), id="goal_distance_delta"),
        pytest.param(lambda r: r["live_evidence"].update(executor_progress=0.0), id="executor_progress"),
        pytest.param(lambda r: r["live_evidence"].update(blocked_streak=0), id="blocked_streak"),
    ],
)
def test_record_with_a_dropped_field_raises_schema_mismatch(edit, tmp_path, capsys):
    text = _edit_record(0, edit)
    with pytest.raises(SchemaMismatch):
        parse_trace(text)
    path = tmp_path / "old.cftrace"
    path.write_text(text, encoding="utf-8")
    for command in ("audit", "render"):
        assert main([command, str(path)]) == 2
        assert "error: SchemaMismatch" in capsys.readouterr().err


_REPAIR_WITHOUT_ROOT = {"action": "repair", "payload": {"scope": "suffix", "regenerated": []}}

# records that decode but lack what the audit, the renderer or the update
# labels index; golden record 2 is a promote and record 0 holds the snapshot
_UNREADABLE_RECORDS = [
    pytest.param(
        lambda: _edit_record(2, lambda r: r["selected_update"]["payload"].pop("target")),
        id="promote-without-target",
    ),
    pytest.param(
        lambda: _edit_record(2, lambda r: r["selected_update"]["payload"].update(target="2")),
        id="promote-target-not-int",
    ),
    pytest.param(
        lambda: _edit_record(0, lambda r: r.update(selected_update=_REPAIR_WITHOUT_ROOT)),
        id="repair-without-root",
    ),
    pytest.param(
        lambda: _edit_record(0, lambda r: r["alignment_factors"].pop("retry_count")),
        id="no-retry-count",
    ),
    pytest.param(
        lambda: _edit_record(0, lambda r: r["workflow"].update(frontier=len(r["workflow"]["contracts"]))),
        id="frontier-past-contracts",
    ),
    pytest.param(
        lambda: _edit_record(0, lambda r: r["workflow"].update(frontier=-1)), id="frontier-negative"
    ),
    pytest.param(
        lambda: _edit_record(0, lambda r: r["plan_diff"].update(changed={"index": 0})),
        id="changed-not-list",
    ),
    pytest.param(
        lambda: _edit_record(0, lambda r: r["plan_diff"].update(changed=["x"])), id="change-not-object"
    ),
]


@pytest.mark.parametrize("text", _UNREADABLE_RECORDS)
def test_unreadable_record_raises_schema_mismatch(text, tmp_path, capsys):
    for read in (audit_trace, render_trace, update_sequence):
        with pytest.raises(SchemaMismatch):
            read(parse_trace(text()))
    path = tmp_path / "bad.cftrace"
    path.write_text(text(), encoding="utf-8")
    for command in ("audit", "render"):
        assert main([command, str(path)]) == 2
        assert "error: SchemaMismatch" in capsys.readouterr().err


def test_non_utf8_trace_file_raises_schema_mismatch(tmp_path):
    path = tmp_path / "bad.cftrace"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(SchemaMismatch):
        load_trace(path)


def test_workflow_snapshot_written_only_when_it_changes():
    from contextflow.scenario import load_scenario, stress_suite_dir

    scenario = load_scenario(stress_suite_dir() / "repair_02.scn")
    for trace in (golden_trace(), run_episode(scenario, RunConfig(variant="full-replanner"))):
        text = serialize_trace(trace)
        parsed = parse_trace(text)
        assert serialize_trace(parsed) == text
        lines = text.splitlines()[1 : 1 + len(trace.records)]
        previous = None
        for record, again, line in zip(trace.records, parsed.records, lines):
            assert again.workflow == record.workflow
            changed = record.workflow != previous
            assert ('"workflow":' in line) == changed
            previous = record.workflow
        written = sum('"workflow":' in line for line in lines)
        assert 1 < written < len(lines)


def test_golden_renders_six_visible_update_rows():
    trace = golden_trace()
    out = render_trace(trace)
    lines = out.strip().splitlines()
    # title + header + rule + 6 records + terminal
    assert len(lines) == 3 + 6 + 1
    assert lines[-1].startswith("terminal: reason=completed")


def test_update_labels():
    trace = golden_trace()
    labels = update_sequence(trace)
    assert labels[0] == "initialize/continue"
    assert labels[-1] == "complete"
    for record, label in zip(trace.records, labels):
        assert update_label(record) == label


def test_audit_clean_on_golden():
    assert audit_trace(golden_trace()) == []


def test_hand_corrupted_promote_fails_gating_audit():
    # forge the recorded update of a consultation whose handoff is unsupported
    forged = {"action": "promote", "payload": {"target": 1}}
    trace = parse_trace(_edit_record(1, lambda r: r.update(selected_update=forged)))
    gating = [v for v in audit_trace(trace) if v.check == "promote-gating"]
    assert [(v.record_index, v.message) for v in gating] == [
        (1, "boundary 0 crossed without satisfied handoff")
    ]


def test_fabricated_memory_match_fails_witness_audit(monkeypatch):
    trace = golden_trace()
    record = trace.records[0]
    live = record.live_evidence.a[0].label
    clause = EvidenceClause("object", "sink", 0.7, SOURCE_MEMORY_OK)
    match = ClauseMatch(clause, "memory-corroborated", "sink", "n08", 0.9, witness_label="never-seen")
    report = SatisfactionReport(True, (match,), (), ())
    violations = _audit_memory_witness(record, [report])
    assert [v.check for v in violations] == ["memory-witness"]
    witnessed = replace(report, matched=(replace(match, witness_label=live),))
    assert _audit_memory_witness(record, [witnessed]) == []

    # the audit checks the reports its replay recomputes: a classifier that
    # matched memory without a live witness would be flagged
    classify = board.classify_misalignment

    def unwitnessed(*args):
        case, reports = classify(*args)
        return case, {**reports, -1: report}

    monkeypatch.setattr(board, "classify_misalignment", unwitnessed)
    flagged = [v.record_index for v in audit_trace(trace) if v.check == "memory-witness"]
    assert flagged == list(range(len(trace.records)))


def test_tampered_update_fails_decision_replay():
    trace = parse_trace(serialize_trace(golden_trace()))
    record = trace.records[1]
    assert record.selected_update.action == "continue"
    record.selected_update = ScopedUpdate("promote", {"target": 1})
    violations = audit_trace(trace)
    assert any(v.check == "decision-replay" for v in violations)


def test_termination_follower_promotes_are_visible_to_the_audit():
    # hand a termination-follower trace from a handoff scenario to the auditor
    from contextflow.scenario import load_suite, stress_suite_dir

    scenario = next(
        s for s in load_suite(stress_suite_dir()) if s.diagnostic_type == "handoff"
    )
    trace = run_episode(scenario, RunConfig(variant="termination-follower"))
    violations = audit_trace(trace)
    checks = {v.check for v in violations}
    assert "promote-gating" in checks
    assert "unsupported-handoff-blocking" in checks


def test_record_count_tracks_monitor_emissions_while_non_terminal():
    from contextflow.scenario import load_scenario, stress_suite_dir

    # completion on a cadence tick: one record per emission, including tick 0
    golden = golden_trace()
    assert len(golden.records) == golden.terminal["tick"] // 2 + 1

    # budget-terminal episode: every cadence tick up to the budget consults
    scenario = load_scenario(stress_suite_dir() / "promotion_01.scn")
    trace = run_episode(scenario, RunConfig(variant="no-promoter"))
    assert trace.terminal["reason"] == "budget"
    assert len(trace.records) == scenario.budget // 2 + 1


def test_continue_records_carry_empty_diffs():
    trace = golden_trace()
    for record in trace.records:
        if record.selected_update.action == "continue":
            assert record.plan_diff.changed == ()


def test_repair_traces_round_trip_with_regenerated_payloads():
    from contextflow.scenario import load_scenario, stress_suite_dir

    scenario = load_scenario(stress_suite_dir() / "repair_02.scn")
    for variant in ("contextflow", "full-replanner"):
        trace = run_episode(scenario, RunConfig(variant=variant))
        text = serialize_trace(trace)
        assert serialize_trace(parse_trace(text)) == text
        repairs = [
            r for r in parse_trace(text).records if r.selected_update.action == "repair"
        ]
        assert repairs
        payload = repairs[0].selected_update.payload
        assert payload["regenerated"]
        assert all("contract" in item for item in payload["regenerated"])
