"""Board tests: trace round-trips, rendering, labels, and audit checks."""

from __future__ import annotations

import json

import pytest

from contextflow.board import (
    SCHEMA,
    Trace,
    audit_trace,
    load_trace,
    parse_trace,
    render_trace,
    serialize_trace,
    update_label,
    update_sequence,
)
from contextflow.cli import main
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
    for schema in ("cftrace/99", "cftrace/1"):
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


# `update` already fails in `parse_trace`; it stays so that every wrongly typed
# record is pinned to SchemaMismatch on the render path too.
@pytest.mark.parametrize("text", _WRONGLY_TYPED_RECORDS)
def test_render_rejects_wrongly_typed_record(text):
    with pytest.raises(SchemaMismatch):
        render_trace(parse_trace(text()))


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
    trace = golden_trace()
    corrupted = parse_trace(serialize_trace(trace))
    promote = next(
        r for r in corrupted.records if r.selected_update["action"] == "promote"
    )
    boundary = promote.alignment_factors["boundary_reports"]
    key = sorted(boundary)[0]
    boundary[key] = dict(boundary[key])
    boundary[key]["satisfied"] = False
    violations = audit_trace(corrupted)
    assert any(v.check == "promote-gating" for v in violations)


def test_fabricated_memory_match_fails_witness_audit():
    trace = parse_trace(serialize_trace(golden_trace()))
    record = trace.records[0]
    record.alignment_factors["active_report"]["matched"].append(
        {
            "clause": {"kind": "object", "label": "sink", "min_confidence": 0.7, "source": "live-or-corroborated-memory"},
            "provenance": "memory-corroborated",
            "anchor_label": "sink",
            "anchor_node": "n08",
            "confidence": 0.9,
            "witness_label": "never-seen",
        }
    )
    violations = audit_trace(trace)
    assert any(v.check == "memory-witness" for v in violations)


def test_tampered_update_fails_decision_replay():
    trace = parse_trace(serialize_trace(golden_trace()))
    record = trace.records[1]
    assert record.selected_update["action"] == "continue"
    record.selected_update = {"action": "promote", "payload": {"target": 1}}
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
        if record.selected_update["action"] == "continue":
            assert record.plan_diff["changed"] == []


def test_repair_traces_round_trip_with_regenerated_payloads():
    from contextflow.scenario import load_scenario, stress_suite_dir

    scenario = load_scenario(stress_suite_dir() / "repair_02.scn")
    for variant in ("contextflow", "full-replanner"):
        trace = run_episode(scenario, RunConfig(variant=variant))
        text = serialize_trace(trace)
        assert serialize_trace(parse_trace(text)) == text
        repairs = [
            r for r in parse_trace(text).records if r.selected_update["action"] == "repair"
        ]
        assert repairs
        payload = repairs[0].selected_update["payload"]
        assert payload["regenerated"]
        assert all("contract" in item for item in payload["regenerated"])
