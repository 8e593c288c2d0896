"""The visible alignment board: one record per planner consultation.

A trace is line-delimited JSON with a schema-versioned header, one record
line per consultation, and a terminal line carrying episode totals. A
record holds only the decision's inputs (workflow snapshot, evidence
packet, executor status, retry count, and memory as the slice the planner
could match) and its outcome (case, update, plan diff). Whatever follows
from those inputs is re-derived, not written: the auditor classifies each
record again, flags drift from the recorded case and update, and checks
the recomputed satisfaction reports for structural violations (ungated
promotion, goal-changing transfers, prefix-touching repairs, unsupported
handoffs, memory matches without a live witness). The renderer derives
its stage, expected-evidence and satisfaction columns the same way.
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
    MisalignmentCase,
    ScopedUpdate,
    classify_misalignment,
    select_update,
)
from .codec import from_json, to_json
from .contracts import PlanDiff, SatisfactionReport, StageStatus, StageTemplate, Workflow
from .errors import SchemaMismatch
from .executors import StatusReport
from .memory import MemoryEntry
from .monitor import EvidencePacket

SCHEMA = "cftrace/4"


@dataclass(frozen=True)
class ExecutorStatus:
    """The executor carrying the stage when the planner was consulted."""

    kind: str
    ident: str
    report: StatusReport


@dataclass(frozen=True)
class AlignmentFactors:
    case: MisalignmentCase
    retry_count: int


@dataclass
class BoardRecord:
    """One consultation. `memory_context` and `workflow` stay JSON: records
    share one workflow snapshot dict until the workflow changes, and the
    benchmark's byte counter `json.dumps` both fields of each record."""

    index: int
    tick: int
    instruction: str
    memory_context: list
    live_evidence: EvidencePacket
    executor_status: ExecutorStatus
    alignment_factors: AlignmentFactors
    selected_update: ScopedUpdate
    plan_diff: PlanDiff
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
    record = BoardRecord(
        index=len(trace.records),
        tick=tick,
        instruction=instruction,
        memory_context=[to_json(e) for e in result.memory_context],
        live_evidence=packet,
        executor_status=ExecutorStatus(executor_kind, executor_ident, status),
        alignment_factors=AlignmentFactors(result.case, result.retry_count),
        selected_update=result.update,
        plan_diff=result.diff,
        workflow=result.workflow_before,
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
    or a record that `codec.from_json` cannot decode as a `BoardRecord` or
    that lacks what its readers index (see `_check_record`), raises
    `SchemaMismatch`."""
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
            trace.records.append(_check_record(from_json(BoardRecord, record)))
        elif data.keys() == {"terminal"} and isinstance(data["terminal"], dict):
            trace.terminal = data["terminal"]
        else:
            raise SchemaMismatch(f"unrecognized trace line: {line[:60]}")
    return trace


_SCOPE_KEYS = {ACT_PROMOTE: "target", ACT_REPAIR: "root"}


def _check_record(record: BoardRecord) -> BoardRecord:
    """`record`, if its snapshot's `frontier` indexes its `contracts` and a
    promote's `target` or a repair's `root` is an int; else `SchemaMismatch`."""
    contracts, frontier = record.workflow.get("contracts"), record.workflow.get("frontier")
    if not isinstance(contracts, list) or type(frontier) is not int or not 0 <= frontier < len(contracts):
        raise SchemaMismatch(f"record {record.index}: frontier {frontier!r} names no contract")
    update = record.selected_update
    key = _SCOPE_KEYS.get(update.action)
    if key is not None and type(update.payload.get(key)) is not int:
        raise SchemaMismatch(f"record {record.index}: {update.action} payload needs an int {key!r}")
    return record


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
    update = record.selected_update
    if update.action == ACT_CONTINUE and record.index == 0:
        return "initialize/continue"
    if update.action == ACT_PROMOTE and update.payload["target"] >= len(record.workflow["contracts"]):
        return "complete"
    return update.action


def update_sequence(trace: Trace) -> list[str]:
    return [update_label(r) for r in trace.records]


def replay_inputs(trace: Trace):
    """Each record with its decoded workflow snapshot and memory slice, the
    decision inputs that stay JSON in the record. Records share one snapshot
    dict until the workflow changes, so each distinct snapshot is decoded
    once; no reader mutates it. A wrongly shaped one raises `SchemaMismatch`."""
    snapshot = workflow = None
    for record in trace.records:
        if record.workflow is not snapshot:
            snapshot, workflow = record.workflow, from_json(Workflow, record.workflow)
        yield record, workflow, from_json(list[MemoryEntry], record.memory_context)


def classify_record(record: BoardRecord, workflow: Workflow, memory_entries):
    """`classify_misalignment` again on a record's decision inputs: the case
    and every boundary report."""
    return classify_misalignment(
        workflow, record.live_evidence, memory_entries, record.executor_status.report
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


def _clause_digest(clauses) -> str:
    return ";".join(f"{c.kind}:{c.label}>={c.min_confidence:g}" for c in clauses)


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
    for record, workflow, memory_entries in replay_inputs(trace):
        _, reports = classify_record(record, workflow, memory_entries)
        satisfied = reports[workflow.frontier].satisfied
        active = workflow.active()
        packet = record.live_evidence
        live = ",".join(f"{a.label}:{a.confidence:.2f}" for a in packet.a)
        mem = ",".join(
            f"{e.kind}:{e.tag or (e.anchor.label if e.anchor else '')}"
            for e in memory_entries[:4]
        )
        update = update_label(record)
        payload = record.selected_update.payload
        if payload:
            compact = ",".join(f"{k}={payload[k]}" for k in sorted(payload) if k != "regenerated")
            update = f"{update}({compact})" if compact else update
        diff = record.plan_diff
        status = record.executor_status
        cells = [
            str(record.tick),
            record.instruction,
            f"{workflow.frontier}:{active.name}",
            _clause_digest(active.handoff),
            mem,
            live,
            f"{status.kind}:{status.report.state}",
            f"{record.alignment_factors.case.case} q={packet.q:.2f} sat={satisfied}",
            update,
            f"changes={len(diff.changed)} root={diff.repair_root}" if diff.changed else "empty",
        ]
        lines.append(" | ".join(_fit(cell, width) for cell, (_, width) in zip(cells, _COLUMNS)))
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
    for record, workflow, memory_entries in replay_inputs(trace):
        violations.extend(_audit_replay(record, workflow, memory_entries, templates, variant))
    return violations


def _audit_promote_gating(
    record: BoardRecord, workflow: Workflow, reports: dict[int, SatisfactionReport]
) -> list[Violation]:
    if record.selected_update.action != ACT_PROMOTE:
        return []
    out = []
    for i in range(workflow.frontier, record.selected_update.payload["target"]):
        report = reports.get(i)
        if report is None or not report.satisfied:
            out.append(
                Violation(
                    record.index,
                    "promote-gating",
                    f"boundary {i} crossed without satisfied handoff",
                )
            )
    return out


def _audit_transfer(record: BoardRecord) -> list[Violation]:
    if record.selected_update.action != ACT_TRANSFER:
        return []
    if record.plan_diff.changed:
        return [
            Violation(
                record.index,
                "transfer-preservation",
                "transfer changed contract fields",
            )
        ]
    return []


def _audit_repair_scope(record: BoardRecord, workflow: Workflow) -> list[Violation]:
    if record.selected_update.action != ACT_REPAIR:
        return []
    out = []
    root = record.selected_update.payload["root"]
    validated = (StageStatus.DONE, StageStatus.DONE_PROMOTED)
    changed_indices = {c.index for c in record.plan_diff.changed}
    for change in record.plan_diff.changed:
        if change.index < root:
            out.append(
                Violation(
                    record.index,
                    "repair-prefix-preservation",
                    f"change at index {change.index} below root {root}",
                )
            )
    for idx in sorted(changed_indices):
        if idx < len(workflow.contracts) and workflow.contracts[idx].status in validated:
            out.append(
                Violation(
                    record.index,
                    "repair-prefix-preservation",
                    f"repair revised validated stage {idx}",
                )
            )
    return out


def _audit_handoff_blocking(record: BoardRecord, active_report: SatisfactionReport) -> list[Violation]:
    state = record.executor_status.report.state
    if state == "done" and not active_report.satisfied and record.selected_update.action == ACT_PROMOTE:
        return [
            Violation(
                record.index,
                "unsupported-handoff-blocking",
                "promoted while executor done and handoff unsatisfied",
            )
        ]
    return []


def _audit_memory_witness(record: BoardRecord, reports) -> list[Violation]:
    out = []
    live_labels = {a.label for a in record.live_evidence.a}
    for report in reports:
        for match in report.matched:
            if match.provenance != "memory-corroborated":
                continue
            if match.witness_label is None or match.witness_label not in live_labels:
                out.append(
                    Violation(
                        record.index,
                        "memory-witness",
                        f"memory match {match.anchor_label!r} lacks live witness",
                    )
                )
    return out


def _audit_replay(
    record: BoardRecord, workflow: Workflow, memory_entries, templates, variant: str
) -> list[Violation]:
    """Classify and select again from the record's decision inputs, run the
    structural checks on the recomputed reports, and flag any drift from the
    recorded case and update."""
    case, reports = classify_record(record, workflow, memory_entries)
    update = select_update(
        case,
        workflow,
        record.live_evidence,
        record.executor_status.report,
        reports,
        record.alignment_factors.retry_count,
        templates,
        variant,
    )
    out = [
        *_audit_promote_gating(record, workflow, reports),
        *_audit_transfer(record),
        *_audit_repair_scope(record, workflow),
        *_audit_handoff_blocking(record, reports[workflow.frontier]),
        *_audit_memory_witness(record, reports.values()),
    ]
    recorded = record.alignment_factors.case
    if case != recorded:
        out.append(
            Violation(record.index, "decision-replay", f"case drift: {case.case} != {recorded.case}")
        )
    if update != record.selected_update:
        out.append(
            Violation(
                record.index,
                "decision-replay",
                f"update drift: {update.action} != {record.selected_update.action}",
            )
        )
    return out
