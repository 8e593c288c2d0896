"""The visible alignment board: one record per planner consultation.

A trace is line-delimited JSON with a schema-versioned header, one record
line per consultation, and a terminal line carrying episode totals. A
record holds only the decision's inputs (workflow snapshot, evidence,
executor status, retry count, and memory as the slice the planner could
match) and its outcome (case, update, plan diff), and each value is
written once: a memory entry in full where its `seq` first appears, then as
that `seq`; the workflow snapshot and the executor's kind and ident only
when they change (`_CARRIED`). The consultation's tick is the evidence's,
its instruction is the header's scenario, and its index is its position.
Whatever follows from those inputs is re-derived, not written: the live
pass of each boundary and the discoveries in it (`replay_inputs`), and the
diff's retained prefix and repair root (below its first change). The
auditor classifies each record again, flags drift from the recorded case
and update, and checks the recomputed satisfaction reports for structural
violations (ungated promotion, goal-changing transfers, prefix-touching
repairs, unsupported handoffs, memory matches without a live witness). The
renderer derives its stage, expected-evidence and satisfaction columns the
same way.
"""

from __future__ import annotations

import json
import reprlib
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
    promote_targets,
    select_update,
)
from .codec import from_json, to_json
from .contracts import (
    PlanDiff,
    SatisfactionReport,
    StageStatus,
    StageTemplate,
    Workflow,
    handoff_satisfied,
)
from .errors import SchemaMismatch
from .executors import StatusReport
from .memory import MemoryEntry
from .monitor import Evidence, EvidencePacket, boundary_live

SCHEMA = "cftrace/6"


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

    memory_context: list
    live_evidence: Evidence
    executor_status: ExecutorStatus
    alignment_factors: AlignmentFactors
    selected_update: ScopedUpdate
    plan_diff: PlanDiff
    workflow: dict


@dataclass(frozen=True)
class TraceHeader:
    """The header line. `templates` stays JSON until the audit decodes it."""

    schema: str
    scenario: str
    variant: str
    seed: int
    budget: int
    cadence: int
    templates: list


@dataclass(frozen=True)
class Terminal:
    """The terminal line: how, when and where the episode ended."""

    reason: str
    tick: int
    node: str
    heading: str
    frontier: int
    steps: int
    traveled: float
    min_goal_distance: float
    stopped: bool
    faults_fired: list[str]


@dataclass
class Trace:
    """A trace's header and terminal line stay JSON objects, checked against
    `TraceHeader` and `Terminal` when parsed."""

    header: dict
    records: list[BoardRecord] = field(default_factory=list)
    terminal: dict | None = None


def make_header(scenario_id: str, variant: str, seed: int, budget: int, cadence: int, templates) -> dict:
    templates = [to_json(t) for t in templates]
    return to_json(TraceHeader(SCHEMA, scenario_id, variant, seed, budget, cadence, templates))


def emit_record(
    trace: Trace,
    result: ConsultResult,
    packet: EvidencePacket,
    executor_kind: str,
    executor_ident: str,
    status: StatusReport,
) -> BoardRecord:
    """Append one consultation to the trace (append-only)."""
    record = BoardRecord(
        memory_context=[to_json(e) for e in result.memory_context],
        live_evidence=packet.recorded(),
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


# Record fields written only when they differ from the previous record's,
# as (owner, key); owner None is the record itself.
_CARRIED = ((None, "workflow"), ("executor_status", "kind"), ("executor_status", "ident"))


def serialize_trace(trace: Trace) -> str:
    """Header line, one line per record, then the terminal line. A carried
    field is written only when it differs from the previous record's, and a
    memory entry in full only where its `seq` first appears, as that `seq`
    after that; `parse_trace` restores both."""
    lines = [_dumps(trace.header)]
    carried: dict = {}
    written: set[int] = set()
    for record in trace.records:
        data = to_json(record)
        for path in _CARRIED:
            owner, key = path
            fields = data[owner] if owner else data
            if path in carried and carried[path] == fields[key]:
                del fields[key]
            else:
                carried[path] = fields[key]
        context = []
        for entry in record.memory_context:
            context.append(entry["seq"] if entry["seq"] in written else entry)
            written.add(entry["seq"])
        data["memory_context"] = context
        lines.append(_dumps({"record": data}))
    if trace.terminal is not None:
        lines.append(_dumps({"terminal": trace.terminal}))
    return "\n".join(lines) + "\n"


def _json_object(line: str) -> dict:
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"trace line is not JSON ({exc}): {line[:60]}") from None
    if not isinstance(data, dict):
        raise SchemaMismatch(f"trace line is not a JSON object: {line[:60]}")
    return data


def parse_trace(text: str) -> Trace:
    """Inverse of `serialize_trace`. A record without a carried field gets
    the last value written for it (the same object), and a memory `seq` the
    entry written for it (the same dict). Any malformed line, or line after
    the terminal line; a header or terminal line that `codec.from_json`
    cannot decode as `TraceHeader` or `Terminal`; a carried field or a
    memory `seq` used before its first value, or a `seq` written twice; or a
    record that `codec.from_json` cannot decode as a `BoardRecord` or that
    lacks what its readers index (see `_check_record`) raises
    `SchemaMismatch`."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise SchemaMismatch("empty trace")
    header = _json_object(lines[0])
    if header.get("schema") != SCHEMA:
        raise SchemaMismatch(f"unknown schema {header.get('schema')!r}")
    from_json(TraceHeader, header)
    trace = Trace(header=header)
    carried: dict = {}
    entries: dict[int, dict] = {}
    for line in lines[1:]:
        if trace.terminal is not None:
            raise SchemaMismatch(f"line after the terminal line: {line[:60]}")
        data = _json_object(line)
        if data.keys() == {"record"} and isinstance(data["record"], dict):
            record = data["record"]
            for path in _CARRIED:
                owner, key = path
                fields = record.get(owner) if owner else record
                if not isinstance(fields, dict):
                    continue  # `from_json` rejects the record
                if key in fields:
                    carried[path] = fields[key]
                elif path in carried:
                    fields[key] = carried[path]
                else:
                    raise SchemaMismatch(f"record without a {key!r} before its first value")
            context = record.get("memory_context")
            if type(context) is list:
                record["memory_context"] = [_memory_entry(item, entries) for item in context]
            trace.records.append(_check_record(from_json(BoardRecord, record), len(trace.records)))
        elif data.keys() == {"terminal"}:
            from_json(Terminal, data["terminal"])
            trace.terminal = data["terminal"]
        else:
            raise SchemaMismatch(f"unrecognized trace line: {line[:60]}")
    return trace


def _memory_entry(item, entries: dict[int, dict]) -> dict:
    """A memory entry's JSON: `item` where it writes the entry out, which
    defines its `seq`, else the entry defined for the `seq` `item`."""
    if type(item) is int:
        if item not in entries:
            raise SchemaMismatch(f"memory seq {item} used before it is defined")
        return entries[item]
    seq = item.get("seq") if type(item) is dict else None
    if type(seq) is not int:
        raise SchemaMismatch(f"memory entry needs an int seq: {reprlib.repr(item)}")
    if seq in entries:
        raise SchemaMismatch(f"memory seq {seq} defined twice")
    entries[seq] = item
    return item


_SCOPE_KEYS = {ACT_PROMOTE: "target", ACT_REPAIR: "root"}


def _check_record(record: BoardRecord, position: int) -> BoardRecord:
    """`record`, the record at `position`, if its snapshot's `frontier`
    indexes its `contracts`, a promote's `target` or a repair's `root` is an
    int, and the target is one of `promote_targets` (the rule `apply_update`
    enforces); else `SchemaMismatch`."""
    contracts, frontier = record.workflow.get("contracts"), record.workflow.get("frontier")
    if not isinstance(contracts, list) or type(frontier) is not int or not 0 <= frontier < len(contracts):
        raise SchemaMismatch(f"record {position}: frontier {frontier!r} names no contract")
    update = record.selected_update
    key = _SCOPE_KEYS.get(update.action)
    if key is not None and type(update.payload.get(key)) is not int:
        raise SchemaMismatch(f"record {position}: {update.action} payload needs an int {key!r}")
    if update.action == ACT_PROMOTE:
        target, targets = update.payload["target"], promote_targets(frontier, len(contracts))
        if target not in targets:
            raise SchemaMismatch(f"record {position}: promote target {target} is not in {targets}")
    return record


def load_trace(path) -> Trace:
    from pathlib import Path

    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(f"trace is not UTF-8 text: {exc}") from None
    return parse_trace(text)


# -- update labels -----------------------------------------------------------


def update_label(record: BoardRecord, index: int) -> str:
    """Display name for the update of the record at `index`: the first
    consultation's Continue reads `initialize/continue`; a Promote past the
    last stage reads `complete`; everything else is the action name."""
    update = record.selected_update
    if update.action == ACT_CONTINUE and index == 0:
        return "initialize/continue"
    if update.action == ACT_PROMOTE and update.payload["target"] >= len(record.workflow["contracts"]):
        return "complete"
    return update.action


def update_sequence(trace: Trace) -> list[str]:
    return [update_label(r, i) for i, r in enumerate(trace.records)]


def replay_inputs(trace: Trace):
    """Each record with its decoded workflow snapshot and memory slice, the
    decision inputs that stay JSON in the record, and its `boundary_live`,
    the live pass that the monitor made and the record leaves out. Records
    share one snapshot dict until the workflow changes, and a parsed trace
    one dict per memory entry, so each is decoded once per trace; no reader
    mutates them. A wrongly shaped one raises `SchemaMismatch`."""
    snapshot = workflow = None
    decoded: dict[int, MemoryEntry] = {}  # by id() of JSON the trace keeps alive
    for record in trace.records:
        if record.workflow is not snapshot:
            snapshot, workflow = record.workflow, from_json(Workflow, record.workflow)
        memory = []
        for data in record.memory_context:
            entry = decoded.get(id(data))
            if entry is None:
                entry = decoded[id(data)] = from_json(MemoryEntry, data)
            memory.append(entry)
        yield record, workflow, memory, boundary_live(workflow, record.live_evidence.a)


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
    for index, (record, workflow, memory_entries, live) in enumerate(replay_inputs(trace)):
        active = workflow.active()
        packet = record.live_evidence
        report = handoff_satisfied(active, packet, memory_entries, packet.tick, live[workflow.frontier])
        anchors = ",".join(f"{a.label}:{a.confidence:.2f}" for a in packet.a)
        mem = ",".join(f"{e.kind}:{e.anchor.label}" for e in memory_entries[:4])
        update = update_label(record, index)
        payload = record.selected_update.payload
        if payload:
            compact = ",".join(f"{k}={payload[k]}" for k in sorted(payload) if k != "regenerated")
            update = f"{update}({compact})" if compact else update
        diff = record.plan_diff
        status = record.executor_status
        cells = [
            str(packet.tick),
            trace.header["scenario"],
            f"{workflow.frontier}:{active.name}",
            _clause_digest(active.handoff),
            mem,
            anchors,
            f"{status.kind}:{status.report.state}",
            f"{record.alignment_factors.case.case} q={packet.q:.2f} sat={report.satisfied}",
            update,
            f"changes={len(diff.changed)} root={diff.changed[0].index}" if diff.changed else "empty",
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
    for index, inputs in enumerate(replay_inputs(trace)):
        violations.extend(_audit_replay(index, *inputs, templates, variant))
    return violations


def _audit_promote_gating(
    index: int, record: BoardRecord, workflow: Workflow, reports: dict[int, SatisfactionReport]
) -> list[Violation]:
    if record.selected_update.action != ACT_PROMOTE:
        return []
    out = []
    for i in range(workflow.frontier, record.selected_update.payload["target"]):
        report = reports.get(i)
        if report is None or not report.satisfied:
            out.append(
                Violation(
                    index,
                    "promote-gating",
                    f"boundary {i} crossed without satisfied handoff",
                )
            )
    return out


def _audit_transfer(index: int, record: BoardRecord) -> list[Violation]:
    if record.selected_update.action != ACT_TRANSFER:
        return []
    if record.plan_diff.changed:
        return [
            Violation(
                index,
                "transfer-preservation",
                "transfer changed contract fields",
            )
        ]
    return []


def _audit_repair_scope(index: int, record: BoardRecord, workflow: Workflow) -> list[Violation]:
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
                    index,
                    "repair-prefix-preservation",
                    f"change at index {change.index} below root {root}",
                )
            )
    for idx in sorted(changed_indices):
        if idx < len(workflow.contracts) and workflow.contracts[idx].status in validated:
            out.append(
                Violation(
                    index,
                    "repair-prefix-preservation",
                    f"repair revised validated stage {idx}",
                )
            )
    return out


def _audit_handoff_blocking(
    index: int, record: BoardRecord, active_report: SatisfactionReport
) -> list[Violation]:
    state = record.executor_status.report.state
    if state == "done" and not active_report.satisfied and record.selected_update.action == ACT_PROMOTE:
        return [
            Violation(
                index,
                "unsupported-handoff-blocking",
                "promoted while executor done and handoff unsatisfied",
            )
        ]
    return []


def _audit_memory_witness(index: int, record: BoardRecord, reports) -> list[Violation]:
    out = []
    for report in reports:
        for match in report.matched:
            if match.provenance == "memory-corroborated" and not any(
                a.label == match.witness_label for a in record.live_evidence.a
            ):
                out.append(
                    Violation(
                        index,
                        "memory-witness",
                        f"memory match {match.anchor_label!r} lacks live witness",
                    )
                )
    return out


def _audit_replay(
    index: int, record: BoardRecord, workflow: Workflow, memory_entries, live, templates, variant: str
) -> list[Violation]:
    """Classify and select again from the record's decision inputs (`live`
    is its `boundary_live`), run the structural checks on the recomputed
    reports, and flag any drift from the recorded case and update."""
    case, reports = classify_misalignment(
        workflow, record.live_evidence, memory_entries, record.executor_status.report, live
    )
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
        *_audit_promote_gating(index, record, workflow, reports),
        *_audit_transfer(index, record),
        *_audit_repair_scope(index, record, workflow),
        *_audit_handoff_blocking(index, record, reports[workflow.frontier]),
        *_audit_memory_witness(index, record, reports.values()),
    ]
    recorded = record.alignment_factors.case
    if case != recorded:
        out.append(
            Violation(index, "decision-replay", f"case drift: {case.case} != {recorded.case}")
        )
    if update != record.selected_update:
        out.append(
            Violation(
                index,
                "decision-replay",
                f"update drift: {update.action} != {record.selected_update.action}",
            )
        )
    return out
