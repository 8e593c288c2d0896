"""The visible alignment board: one record per planner consultation.

A trace is line-delimited JSON with a schema-versioned header, one record
line per consultation, and a terminal line carrying episode totals. Records
capture everything the planner's decision used (memory only as the slice it
could match) and what it decided, so the auditor can re-run
classification and selection offline and flag any drift, plus structural
violations: ungated promotion, goal-changing transfers, prefix-touching
repairs, and memory matches without a live witness.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .alignment import (
    ACT_CONTINUE,
    ACT_PROMOTE,
    ACT_REPAIR,
    ACT_TRANSFER,
    ConsultResult,
    ScopedUpdate,
    classify_misalignment,
    select_update,
)
from .codec import from_json, to_json
from .contracts import StageTemplate, Workflow
from .errors import SchemaMismatch
from .executors import StatusReport
from .memory import MemoryEntry
from .monitor import EvidencePacket

SCHEMA = "cftrace/2"


@dataclass
class BoardRecord:
    index: int
    tick: int
    instruction: str
    active_stage: dict
    expected_evidence: dict
    memory_context: list
    live_evidence: dict
    executor_status: dict
    alignment_factors: dict
    selected_update: dict
    plan_diff: dict
    workflow: dict


@dataclass
class Trace:
    header: dict
    records: list[BoardRecord] = field(default_factory=list)
    terminal: dict | None = None


def make_header(scenario_id: str, variant: str, seed: int, budget: int, cadence: int, templates) -> dict:
    return {
        "schema": SCHEMA,
        "scenario": scenario_id,
        "variant": variant,
        "seed": seed,
        "budget": budget,
        "cadence": cadence,
        "templates": [to_json(t) for t in templates],
    }


def emit_record(
    trace: Trace,
    tick: int,
    instruction: str,
    result: ConsultResult,
    packet: EvidencePacket,
    executor_kind: str,
    executor_ident: str,
    status: StatusReport,
) -> BoardRecord:
    """Append one consultation to the trace (append-only)."""
    workflow = result.workflow_before
    frontier = workflow["frontier"]
    active = workflow["contracts"][frontier]
    record = BoardRecord(
        index=len(trace.records),
        tick=tick,
        instruction=instruction,
        active_stage={"index": frontier, "name": active["name"], "goal": active["goal"]},
        expected_evidence={"handoff": active["handoff"], "expected": active["expected"]},
        memory_context=[to_json(e) for e in result.memory_context],
        live_evidence=to_json(packet),
        executor_status={
            "kind": executor_kind,
            "ident": executor_ident,
            "report": to_json(status),
        },
        alignment_factors={
            "case": to_json(result.case),
            "q": packet.q,
            "active_report": to_json(result.active_report),
            "boundary_reports": {
                str(i): to_json(r) for i, r in sorted(result.reports.items())
            },
            "retry_count": result.retry_count,
        },
        selected_update=to_json(result.update),
        plan_diff=to_json(result.diff),
        workflow=workflow,
    )
    trace.records.append(record)
    return record


def _dumps(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def serialize_trace(trace: Trace) -> str:
    """Header line, one line per record, then the terminal line. A record's
    `workflow` snapshot is written only when it differs from the previous
    record's; `parse_trace` restores it."""
    lines = [_dumps(trace.header)]
    previous = None
    for record in trace.records:
        data = to_json(record)
        if data["workflow"] == previous:
            del data["workflow"]
        else:
            previous = data["workflow"]
        lines.append(_dumps({"record": data}))
    if trace.terminal is not None:
        lines.append(_dumps({"terminal": trace.terminal}))
    return "\n".join(lines) + "\n"


_HEADER_FIELDS = frozenset(make_header("", "", 0, 0, 0, ()))


def _json_object(line: str) -> dict:
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"trace line is not JSON ({exc}): {line[:60]}") from None
    if not isinstance(data, dict):
        raise SchemaMismatch(f"trace line is not a JSON object: {line[:60]}")
    return data


def parse_trace(text: str) -> Trace:
    """Inverse of `serialize_trace`. Records without a `workflow` key get the
    previous record's snapshot (the same dict object). Any malformed line,
    or a record that `codec.from_json` cannot decode as a `BoardRecord`,
    raises `SchemaMismatch`."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise SchemaMismatch("empty trace")
    header = _json_object(lines[0])
    if header.get("schema") != SCHEMA:
        raise SchemaMismatch(f"unknown schema {header.get('schema')!r}")
    if header.keys() != _HEADER_FIELDS:
        raise SchemaMismatch(f"header keys {sorted(header)} are not {sorted(_HEADER_FIELDS)}")
    trace = Trace(header=header)
    workflow = None
    for line in lines[1:]:
        data = _json_object(line)
        if data.keys() == {"record"} and isinstance(data["record"], dict):
            record = data["record"]
            if "workflow" in record:
                workflow = record["workflow"]
            elif workflow is None:
                raise SchemaMismatch("record without a workflow before any snapshot")
            else:
                record["workflow"] = workflow
            trace.records.append(from_json(BoardRecord, record))
        elif data.keys() == {"terminal"} and isinstance(data["terminal"], dict):
            trace.terminal = data["terminal"]
        else:
            raise SchemaMismatch(f"unrecognized trace line: {line[:60]}")
    return trace


def load_trace(path) -> Trace:
    from pathlib import Path

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(f"trace is not UTF-8 text: {exc}") from None
    return parse_trace(text)


# -- update labels -----------------------------------------------------------


def update_label(record: BoardRecord) -> str:
    """Display name for a record's update: the first consultation's Continue
    reads `initialize/continue`; a Promote past the last stage reads
    `complete`; everything else is the action name."""
    action = record.selected_update["action"]
    if action == ACT_CONTINUE and record.index == 0:
        return "initialize/continue"
    if action == ACT_PROMOTE:
        stage_count = len(record.workflow["contracts"])
        if record.selected_update["payload"]["target"] >= stage_count:
            return "complete"
    return action


def update_sequence(trace: Trace) -> list[str]:
    return [update_label(r) for r in trace.records]


def _decoded_records(trace: Trace):
    """Each record with its decoded (workflow, packet, status report, memory
    slice, recorded update); a wrongly shaped one raises `SchemaMismatch`.
    Records share one snapshot dict until the workflow changes, so each
    distinct snapshot is decoded once; no reader mutates the workflow."""
    snapshot = workflow = None
    for record in trace.records:
        if record.workflow is not snapshot:
            snapshot, workflow = record.workflow, from_json(Workflow, record.workflow)
        yield record, (
            workflow,
            from_json(EvidencePacket, record.live_evidence),
            from_json(StatusReport, record.executor_status.get("report")),
            from_json(list[MemoryEntry], record.memory_context),
            from_json(ScopedUpdate, record.selected_update),
        )


# -- renderer ----------------------------------------------------------------

_COLUMNS = (
    ("tick", 5),
    ("instruction", 12),
    ("stage", 18),
    ("expected", 28),
    ("memory", 20),
    ("live", 28),
    ("executor", 22),
    ("factors", 26),
    ("update", 20),
    ("diff", 22),
)


def _fit(text: str, width: int) -> str:
    if len(text) <= width:
        return text.ljust(width)
    return text[: width - 1] + "~"


def _clause_digest(clauses: list) -> str:
    return ";".join(f"{c['kind']}:{c['label']}>={c['min_confidence']:g}" for c in clauses)


def render_trace(trace: Trace) -> str:
    """One row per record, stable column widths, deterministic output. Each
    record is decoded first, so a wrongly shaped one raises `SchemaMismatch`."""
    header_cells = [_fit(name, width) for name, width in _COLUMNS]
    lines = [
        f"alignment board: scenario={trace.header['scenario']} "
        f"variant={trace.header['variant']} seed={trace.header['seed']}",
        " | ".join(header_cells),
        "-+-".join("-" * width for _, width in _COLUMNS),
    ]
    for record, (_, packet, _, memory_entries, selected) in _decoded_records(trace):
        live = ",".join(f"{a.label}:{a.confidence:.2f}" for a in packet.a)
        mem = ",".join(
            f"{e.kind}:{e.tag or (e.anchor.label if e.anchor else '')}"
            for e in memory_entries[:4]
        )
        factors = (
            f"{record.alignment_factors['case']['case']}"
            f" q={record.alignment_factors['q']:.2f}"
            f" sat={record.alignment_factors['active_report']['satisfied']}"
        )
        update = update_label(record)
        payload = selected.payload
        if payload:
            compact = ",".join(f"{k}={payload[k]}" for k in sorted(payload) if k != "regenerated")
            update = f"{update}({compact})" if compact else update
        diff = record.plan_diff
        diff_text = (
            "empty"
            if not diff["changed"]
            else f"changes={len(diff['changed'])} root={diff['repair_root']}"
        )
        cells = [
            _fit(str(record.tick), _COLUMNS[0][1]),
            _fit(record.instruction, _COLUMNS[1][1]),
            _fit(
                f"{record.active_stage['index']}:{record.active_stage['name']}",
                _COLUMNS[2][1],
            ),
            _fit(_clause_digest(record.expected_evidence["handoff"]), _COLUMNS[3][1]),
            _fit(mem, _COLUMNS[4][1]),
            _fit(live, _COLUMNS[5][1]),
            _fit(
                f"{record.executor_status['kind']}:{record.executor_status['report']['state']}",
                _COLUMNS[6][1],
            ),
            _fit(factors, _COLUMNS[7][1]),
            _fit(update, _COLUMNS[8][1]),
            _fit(diff_text, _COLUMNS[9][1]),
        ]
        lines.append(" | ".join(cells))
    if trace.terminal:
        term = trace.terminal
        lines.append(
            f"terminal: reason={term['reason']} tick={term['tick']} node={term['node']} "
            f"frontier={term['frontier']} stopped={term['stopped']}"
        )
    return "\n".join(lines) + "\n"


# -- auditor -----------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    record_index: int
    check: str
    message: str


def audit_trace(trace: Trace) -> list[Violation]:
    """Structural and replay checks over a parsed trace; empty for a
    compliant one. The header templates and each record's replay inputs are
    decoded before its checks run, so a wrongly shaped one raises
    `SchemaMismatch`."""
    violations: list[Violation] = []
    templates = from_json(tuple[StageTemplate, ...], trace.header["templates"])
    variant = trace.header["variant"]
    for record, inputs in _decoded_records(trace):
        violations.extend(_audit_promote_gating(record))
        violations.extend(_audit_transfer(record))
        violations.extend(_audit_repair_scope(record))
        violations.extend(_audit_handoff_blocking(record))
        violations.extend(_audit_memory_witness(record))
        violations.extend(_audit_replay(record, templates, variant, inputs))
    return violations


def _audit_promote_gating(record: BoardRecord) -> list[Violation]:
    if record.selected_update["action"] != ACT_PROMOTE:
        return []
    out = []
    frontier = record.workflow["frontier"]
    target = record.selected_update["payload"]["target"]
    reports = record.alignment_factors["boundary_reports"]
    for i in range(frontier, target):
        report = reports.get(str(i))
        if report is None or not report["satisfied"]:
            out.append(
                Violation(
                    record.index,
                    "promote-gating",
                    f"boundary {i} crossed without satisfied handoff",
                )
            )
    return out


def _audit_transfer(record: BoardRecord) -> list[Violation]:
    if record.selected_update["action"] != ACT_TRANSFER:
        return []
    if record.plan_diff["changed"]:
        return [
            Violation(
                record.index,
                "transfer-preservation",
                "transfer changed contract fields",
            )
        ]
    return []


def _audit_repair_scope(record: BoardRecord) -> list[Violation]:
    if record.selected_update["action"] != ACT_REPAIR:
        return []
    out = []
    root = record.selected_update["payload"]["root"]
    validated = {"done", "done-evidence-promoted"}
    for change in record.plan_diff["changed"]:
        if change["index"] < root:
            out.append(
                Violation(
                    record.index,
                    "repair-prefix-preservation",
                    f"change at index {change['index']} below root {root}",
                )
            )
    contracts = record.workflow["contracts"]
    changed_indices = {c["index"] for c in record.plan_diff["changed"]}
    for idx in sorted(changed_indices):
        if idx < len(contracts) and contracts[idx]["status"] in validated:
            out.append(
                Violation(
                    record.index,
                    "repair-prefix-preservation",
                    f"repair revised validated stage {idx}",
                )
            )
    return out


def _audit_handoff_blocking(record: BoardRecord) -> list[Violation]:
    state = record.executor_status["report"]["state"]
    satisfied = record.alignment_factors["active_report"]["satisfied"]
    action = record.selected_update["action"]
    if state == "done" and not satisfied and action == ACT_PROMOTE:
        return [
            Violation(
                record.index,
                "unsupported-handoff-blocking",
                "promoted while executor done and handoff unsatisfied",
            )
        ]
    return []


def _audit_memory_witness(record: BoardRecord) -> list[Violation]:
    out = []
    live_labels = {a["label"] for a in record.live_evidence["a"]}
    reports = [record.alignment_factors["active_report"]] + list(
        record.alignment_factors["boundary_reports"].values()
    )
    for report in reports:
        for match in report["matched"]:
            if match["provenance"] != "memory-corroborated":
                continue
            witness = match.get("witness_label")
            if witness is None or witness not in live_labels:
                out.append(
                    Violation(
                        record.index,
                        "memory-witness",
                        f"memory match {match['anchor_label']!r} lacks live witness",
                    )
                )
    return out


def _audit_replay(record: BoardRecord, templates, variant: str, inputs: tuple) -> list[Violation]:
    """Classify and select again from the decoded (workflow, packet, status,
    memory, recorded update) and flag any drift from what was recorded."""
    workflow, packet, status, memory_entries, recorded = inputs
    retry_count = record.alignment_factors["retry_count"]
    case, active_report, reports = classify_misalignment(
        workflow.active(), packet, memory_entries, status, workflow
    )
    update = select_update(
        case, workflow, packet, status, active_report, reports, retry_count, templates, variant
    )
    out = []
    if to_json(case) != record.alignment_factors["case"]:
        out.append(
            Violation(
                record.index,
                "decision-replay",
                f"case drift: {case.case} != {record.alignment_factors['case']['case']}",
            )
        )
    if update != recorded:
        out.append(
            Violation(
                record.index,
                "decision-replay",
                f"update drift: {update.action} != {recorded.action}",
            )
        )
    return out
