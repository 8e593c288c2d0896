"""The visible alignment board: one record per planner consultation.

A trace is line-delimited JSON: a header object, one record row per
consultation and a terminal object. The header and terminal are keyed
(`to_object`), so `head -1` shows the schema, scenario, variant, seed,
budget and cadence; its templates are `StageTemplate` rows. A record line
is a `BoardRecord` row (`codec`: a list of field values in declaration
order) of what the replay reads of the decision: its inputs (the
monitor's evidence: anchors, scene tags and degraded tags; the executor's
report, a `Status` of state and progress, as the planner read it; memory
as the slice the planner could match) and its update. Each value is
written once per trace (`serialize_trace`): a memory entry as its row
where its `seq` first appears, then as that `seq`; an anchor as its row
where its label, kind and node first appear, then as `[n, confidence]`,
`n` being that row's ordinal among the full anchor rows; the scene tags,
the degraded tags, the status and the update, which are never ints, in
full where they first appear, then as the index of that record. A
record's index is its position, its tick that position times the
header's cadence, its instruction the header's scenario. Whatever follows from those inputs is
re-derived, not written (`replay_inputs`), by the rules the run uses: the
workflow each record was decided on (the templates compiled, then each
earlier update applied by `alignment.advance`, which also regenerates a
repair's stages), the executor kind consulted (`alignment.spawned_kind`),
the contradiction cues `u`, the executor's fitness `q` and each
boundary's live pass (`monitor.Monitor.fold`), the retry count (the
retry steps `alignment.retry_count` and `alignment.note_restart`, which
read no `Policy`), the case (`classify_misalignment`) and the plan diff
of its update. So the run and the replay build each `Consultation` from
the same values. `cftrace/1` to `cftrace/11` traces are rejected; a
`cftrace/11` trace wrote every anchor and value in full, and a
`cftrace/10` record also wrote the case, and the executor's confidence
and note. The auditor classifies and selects each record again, flags
drift from the recorded update, and checks the recomputed satisfaction
reports and plan diffs for structural violations (ungated promotion,
goal-changing transfers, prefix-touching repairs, unsupported handoffs,
memory matches without a live witness). The renderer derives its tick,
stage, expected-evidence, case, satisfaction, fitness and diff columns
the same way, and `explain_record` prints one record's case, update and
plan diff.
"""

from __future__ import annotations

import json
import reprlib
import typing
from dataclasses import dataclass, field, fields
from itertools import islice

from .alignment import (
    ACT_CONTINUE,
    ACT_PROMOTE,
    ACT_REPAIR,
    ACT_TRANSFER,
    ACT_REFINE,
    Consultation,
    ConsultResult,
    Policy,
    ScopedUpdate,
    advance,
    classify_misalignment,
    note_restart,
    policy,
    promote_targets,
    retry_count,
    select_update,
    spawned_kind,
)
from .codec import from_json, to_json
from .contracts import (
    PlanDiff,
    SatisfactionReport,
    StageTemplate,
    Workflow,
    compile_instruction,
    plan_diff,
)
from .errors import EmptyInstruction, InvalidPromoteTarget, InvalidRepairRoot, NoCompatibleExecutor
from .errors import InvalidRunConfig, NoSuchRecord, SchemaMismatch, UnknownAction, read_utf8
from .executors import Status
from .memory import MemoryEntry
from .monitor import Evidence, Monitor
from .world import Anchor

SCHEMA = "cftrace/12"


@dataclass
class BoardRecord:
    """One consultation. `memory_context` stays JSON: a trace, whether run or
    parsed, shares one `MemoryEntry` row per memory entry (`Trace.entries`)
    among the records that cite it, and the benchmark's byte counter
    `json.dumps` it for each record."""

    memory_context: list
    live_evidence: Evidence
    executor_status: Status
    selected_update: ScopedUpdate


@dataclass(frozen=True)
class TraceHeader:
    """The header line. `templates` stays JSON until the replay decodes it."""

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
    `TraceHeader` and `Terminal` when parsed. `entries` holds the one JSON
    row of each memory `seq` the records cite, which `emit_record` encodes
    the first time a record cites it and `parse_trace` takes from where the
    trace writes it out."""

    header: dict
    records: list[BoardRecord] = field(default_factory=list)
    terminal: dict | None = None
    entries: dict[int, list] = field(default_factory=dict, repr=False, compare=False)


def _slot(cls, name: str) -> int:
    """The index of field `name` in a row of `cls`."""
    return [f.name for f in fields(cls)].index(name)


_EVIDENCE = _slot(BoardRecord, "live_evidence")
_CONFIDENCE = _slot(Anchor, "confidence")
_SEQ = _slot(MemoryEntry, "seq")
_RECORD_SLOTS, _EVIDENCE_SLOTS, _ANCHOR_SLOTS = (len(fields(cls)) for cls in (BoardRecord, Evidence, Anchor))
# the annotations of the evidence slots, which `_record` decodes one by one
_ANCHOR_ROWS, _TAG_LIST, _DEGRADED_TAGS = typing.get_type_hints(Evidence).values()


def to_object(obj) -> dict:
    """A dataclass as a `{field: value}` JSON object, built from its row."""
    return dict(zip((f.name for f in fields(obj)), to_json(obj)))


def from_object(cls, data):
    """Decode a `{field: value}` JSON object as `cls` through its row
    decoder; `SchemaMismatch` unless its keys are the fields of `cls`."""
    names = [f.name for f in fields(cls)]
    if type(data) is not dict or data.keys() != set(names):
        raise SchemaMismatch(f"{cls.__name__} needs an object with keys {sorted(names)}: {reprlib.repr(data)}")
    return from_json(cls, [data[name] for name in names])


def make_header(scenario_id: str, variant: str, seed: int, budget: int, cadence: int, templates) -> dict:
    templates = [to_json(t) for t in templates]
    return to_object(TraceHeader(SCHEMA, scenario_id, variant, seed, budget, cadence, templates))


def emit_record(trace: Trace, result: ConsultResult) -> BoardRecord:
    """Append one consultation to the trace (append-only). A memory entry is
    encoded once per trace, the first time a record cites it."""
    c = result.consultation
    entries = trace.entries
    context = []
    for entry in c.memory:
        row = entries.get(entry.seq)
        if row is None:
            row = entries[entry.seq] = to_json(entry)
        context.append(row)
    record = BoardRecord(context, c.packet.recorded(), c.status, result.update)
    trace.records.append(record)
    return record


# One encoder for every line: `json.dumps` with options builds a new one per
# call. A trace line is a tree of dicts, lists and tuples, so there is no
# cycle to check for.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def serialize_trace(trace: Trace) -> str:
    """Header line, one row per record, then the terminal line. Each value
    that an earlier record wrote is written once per trace; `parse_trace`
    restores it. A memory entry is written in full only where its `seq`
    first appears, as that `seq` after that. An anchor whose label, kind and
    node an earlier anchor row wrote is `[n, confidence]`, `n` being that
    row's ordinal among the trace's full anchor rows. The scene tags, the
    degraded tags, the status and the update are written as the index of
    the first record that wrote the same value in full. The tables key on
    tuples of the values themselves, which compare as Python compares them:
    the run writes every number of these slots as a float, so equal keys
    are equal JSON."""
    lines = [_dumps(trace.header)]
    seqs: set[int] = set()
    ordinals: dict[tuple[str, str, str], int] = {}
    # by slot, the index of the first record that wrote each value
    tag_sets, degraded_sets, statuses, updates = {}, {}, {}, {}
    for index, record in enumerate(trace.records):
        context = []
        for entry in record.memory_context:
            seq = entry[_SEQ]
            context.append(seq if seq in seqs else entry)
            seqs.add(seq)
        evidence, status, update = record.live_evidence, record.executor_status, record.selected_update
        anchors = []
        for anchor in evidence.a:
            key = (anchor.label, anchor.kind, anchor.node)
            n = ordinals.get(key)
            if n is None:
                ordinals[key] = len(ordinals)
                anchors.append(to_json(anchor))
            else:
                anchors.append([n, anchor.confidence])
        tags_first = tag_sets.setdefault(evidence.scene_tags, index)
        degraded_first = degraded_sets.setdefault(tuple(evidence.degraded.items()), index)
        status_first = statuses.setdefault((status.state, status.progress), index)
        try:
            update_first = updates.setdefault((update.action, *update.payload.items()), index)
        except TypeError:  # a payload value that is a list or dict, as only a forged one holds
            update_first = index
        # the row of `to_json(record)`, fields in declaration order; the
        # encoder writes a tuple as a list
        row = [
            context,
            [
                anchors,
                evidence.scene_tags if tags_first == index else tags_first,
                evidence.degraded if degraded_first == index else degraded_first,
            ],
            to_json(status) if status_first == index else status_first,
            to_json(update) if update_first == index else update_first,
        ]
        lines.append(_dumps(row))
    if trace.terminal is not None:
        lines.append(_dumps({"terminal": trace.terminal}))
    return "\n".join(lines) + "\n"


def _json_line(line: str):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"trace line is not JSON ({exc}): {line[:60]}") from None


def parse_trace(text: str) -> Trace:
    """Inverse of `serialize_trace`; a memory `seq` gets the row written for
    it, an anchor reference and a record index the value they name
    (`_record`). After the header, a row is a record and `{"terminal": ...}`
    the terminal. Any other or malformed line, or line after the terminal; a
    header or terminal that `from_object` cannot decode, or whose schema,
    variant (`alignment.policy`) or cadence (below 1) is unknown; a `seq`
    used before its entry or written twice; a reference that names no
    earlier record or anchor row; or a record that is no `BoardRecord` row
    or lacks what `update_label` reads (`_check_record`) raises
    `SchemaMismatch`. The replay checks that each update fits."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise SchemaMismatch("empty trace")
    header = _json_line(lines[0])
    schema = header.get("schema") if type(header) is dict else None
    if schema != SCHEMA:
        raise SchemaMismatch(f"unknown schema {schema!r}")
    decoded = from_object(TraceHeader, header)
    try:
        policy(decoded.variant)
    except InvalidRunConfig as exc:
        raise SchemaMismatch(str(exc)) from None
    if decoded.cadence < 1:
        raise SchemaMismatch(f"cadence {decoded.cadence} is below 1")
    stages = len(decoded.templates)
    trace = Trace(header=header)
    anchors: list[list] = []
    for line in lines[1:]:
        if trace.terminal is not None:
            raise SchemaMismatch(f"line after the terminal line: {line[:60]}")
        data = _json_line(line)
        if type(data) is list:
            record = _record(data, trace, anchors)
            trace.records.append(_check_record(record, len(trace.records), stages))
        elif type(data) is dict and data.keys() == {"terminal"}:
            from_object(Terminal, data["terminal"])
            trace.terminal = data["terminal"]
        else:
            raise SchemaMismatch(f"unrecognized trace line: {line[:60]}")
    return trace


def _memory_entry(item, entries: dict[int, list]) -> list:
    """A memory entry's row: `item` where it writes the entry out, which
    defines its `seq`, else the entry defined for the `seq` `item`."""
    if type(item) is int:
        if item not in entries:
            raise SchemaMismatch(f"memory seq {item} used before it is defined")
        return entries[item]
    seq = item[_SEQ] if type(item) is list and len(item) > _SEQ else None
    if type(seq) is not int:
        raise SchemaMismatch(f"memory entry needs an int seq: {reprlib.repr(item)}")
    if seq in entries:
        raise SchemaMismatch(f"memory seq {seq} defined twice")
    entries[seq] = item
    return item


def _record(row: list, trace: Trace, anchors: list[list]) -> BoardRecord:
    """Decode record `row`, which follows the records of `trace` and
    `anchors`, the full anchor rows (rows of 4 values) written so far. A
    memory `seq` gives its entry (`_memory_entry`). An anchor `[n,
    confidence]` is the `n`th of `anchors` with that confidence; a full row
    is added to them. An int in place of the scene tags, the degraded tags,
    the status or the update, which are never ints, gives that value of the
    record it indexes, decoded once per trace."""
    evidence = row[_EVIDENCE] if len(row) == _RECORD_SLOTS else None
    if type(evidence) is not list or len(evidence) != _EVIDENCE_SLOTS:
        return from_json(BoardRecord, row)  # which raises: no record row
    context, (items, tags, degraded), status, update = row
    for i, item in enumerate(items if type(items) is list else ()):
        if type(item) is list and len(item) == _ANCHOR_SLOTS:
            anchors.append(item)
        elif type(item) is list and len(item) == 2:
            n, confidence = item
            if type(n) is not int or not 0 <= n < len(anchors):
                raise SchemaMismatch(f"anchor reference {reprlib.repr(item)} names no anchor row written before it")
            items[i] = full = anchors[n].copy()
            full[_CONFIDENCE] = confidence
    records = trace.records
    return BoardRecord(
        [_memory_entry(item, trace.entries) for item in from_json(list, context)],
        Evidence(
            from_json(_ANCHOR_ROWS, items),
            _earlier(records, tags).live_evidence.scene_tags if type(tags) is int else from_json(_TAG_LIST, tags),
            _earlier(records, degraded).live_evidence.degraded
            if type(degraded) is int
            else from_json(_DEGRADED_TAGS, degraded),
        ),
        _earlier(records, status).executor_status if type(status) is int else from_json(Status, status),
        _earlier(records, update).selected_update if type(update) is int else from_json(ScopedUpdate, update),
    )


def _earlier(records: list[BoardRecord], ref: int) -> BoardRecord:
    """The earlier record that `ref` indexes."""
    if not 0 <= ref < len(records):
        raise SchemaMismatch(f"record {len(records)}: reference {ref} names no earlier record")
    return records[ref]


_SCOPE_KEYS = {ACT_PROMOTE: "target", ACT_REPAIR: "root"}


def _check_record(record: BoardRecord, position: int, stages: int) -> BoardRecord:
    """`record`, the record at `position` of a trace of `stages` stages, if
    a promote's `target` or a repair's `root` is an int and the target is
    one of `promote_targets` from the first stage; else `SchemaMismatch`."""
    update = record.selected_update
    key = _SCOPE_KEYS.get(update.action)
    if key is not None and type(update.payload.get(key)) is not int:
        raise SchemaMismatch(f"record {position}: {update.action} payload needs an int {key!r}")
    if update.action == ACT_PROMOTE:
        target, targets = update.payload["target"], promote_targets(0, stages)
        if target not in targets:
            raise SchemaMismatch(f"record {position}: promote target {target} is not in {targets}")
    return record


def load_trace(path) -> Trace:
    return parse_trace(read_utf8(path, SchemaMismatch))


# -- update labels -----------------------------------------------------------


def update_label(record: BoardRecord, index: int, stages: int) -> str:
    """Display name for the update of the record at `index` of a trace of
    `stages` stages: the first consultation's Continue reads
    `initialize/continue`; a Promote past the last stage reads `complete`;
    everything else is the action name."""
    update = record.selected_update
    if update.action == ACT_CONTINUE and index == 0:
        return "initialize/continue"
    if update.action == ACT_PROMOTE and update.payload["target"] >= stages:
        return "complete"
    return update.action


def update_sequence(trace: Trace) -> list[str]:
    stages = len(trace.header["templates"])
    return [update_label(r, i, stages) for i, r in enumerate(trace.records)]


def header_templates(trace: Trace) -> tuple[StageTemplate, ...]:
    """The header's stage templates, decoded."""
    return from_json(tuple[StageTemplate, ...], trace.header["templates"])


def replay_inputs(trace: Trace, templates: tuple[StageTemplate, ...]):
    """Each record as `(record, consultation, diff)`: the `Consultation` it
    was decided on and the plan diff of its update, none of which the
    record writes. The workflow starts as `compile_instruction` of
    `templates`, the trace's `header_templates`, and each record's update is
    applied to a copy by `alignment.advance`, the rule the run uses; no
    reader mutates a yielded workflow. The kind starts as the first stage's
    first compatible kind, which the run spawns first, and follows
    `alignment.spawned_kind`. The packet and its `boundary_live` come from a
    `Monitor` that folds in each record's evidence at its tick, the
    record's position times the header's cadence; the retry count from the
    retry steps over a dict of restarts that notes each recorded update,
    which reads no `Policy`. A trace keeps one row per memory entry, so
    each is decoded once per trace. Templates that do not compile, a record after the workflow
    completed, an update that its workflow cannot take, or a wrongly shaped
    value raises `SchemaMismatch` before its record is yielded."""
    if not trace.records:
        return
    try:
        workflow = compile_instruction(templates)
    except (EmptyInstruction, NoCompatibleExecutor) as exc:
        raise SchemaMismatch(f"header templates do not compile: {exc}") from None
    kind = workflow.active().compatible[0]
    monitor, restarts = Monitor(), {}
    cadence = trace.header["cadence"]
    decoded: dict[int, MemoryEntry] = {}  # by id() of JSON the trace keeps alive
    for index, record in enumerate(trace.records):
        after = _advanced(workflow, record, index)
        memory = []
        for data in record.memory_context:
            entry = decoded.get(id(data))
            if entry is None:
                entry = decoded[id(data)] = from_json(MemoryEntry, data)
            memory.append(entry)
        packet = monitor.fold(record.live_evidence, index * cadence, kind, workflow)
        status = record.executor_status
        retries = retry_count(restarts, workflow.frontier, status)
        c = Consultation(workflow, kind, memory, packet, monitor.live, status, retries)
        yield record, c, plan_diff(workflow, after)
        note_restart(restarts, c, record.selected_update)
        kind = spawned_kind(after, record.selected_update, kind) or kind
        workflow = after


def _advanced(workflow: Workflow, record: BoardRecord, index: int) -> Workflow:
    """A copy of `workflow` that has taken the update of the record at
    `index`; `SchemaMismatch` when it cannot take it."""
    update = record.selected_update
    problem = "it follows the completed workflow" if workflow.is_complete() else _misfit(update, workflow)
    if problem is None:
        after = workflow.copy()
        try:
            advance(after, update)
            return after
        except (InvalidPromoteTarget, InvalidRepairRoot, UnknownAction) as exc:
            problem = f"{type(exc).__name__}: {exc}"
    raise SchemaMismatch(f"record {index}: {update.action} does not replay: {problem}")


def _misfit(update: ScopedUpdate, workflow: Workflow) -> str | None:
    """Why a refine, transfer or repair payload is not one that the run
    writes for `workflow`, or None: a refine names a clause of the active
    handoff and a str `bind_label` or a number `new_min_confidence`; a
    transfer's `target_kind` is a compatible kind of the active stage, as
    the run's `spawn` requires; a repair has exactly a `root` and a `suffix`
    or `full` scope. `advance` checks the rest."""
    payload = update.payload
    if update.action == ACT_REFINE:
        clause = payload.get("clause_index")
        if type(clause) is not int or not 0 <= clause < len(workflow.active().handoff):
            return f"clause_index {reprlib.repr(clause)} names no clause of the active handoff"
        if "bind_label" in payload:
            return None if type(payload["bind_label"]) is str else "bind_label needs a str"
        if type(payload.get("new_min_confidence")) not in (int, float):
            return "new_min_confidence needs a number"
    elif update.action == ACT_TRANSFER:
        kind, compatible = payload.get("target_kind"), workflow.active().compatible
        if kind not in compatible:
            return f"target_kind {reprlib.repr(kind)} is not one of {compatible}"
    elif update.action == ACT_REPAIR:
        if payload.keys() != {"root", "scope"}:
            return f"payload keys {sorted(payload)} are not ['root', 'scope']"
        if payload["scope"] not in ("suffix", "full"):
            return f"scope {reprlib.repr(payload['scope'])} is neither 'suffix' nor 'full'"
    return None


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
    templates = header_templates(trace)
    replayed = replay_inputs(trace, templates)
    for index, (record, c, diff) in enumerate(replayed):
        workflow, packet = c.workflow, c.packet
        active = workflow.active()
        case, reports = classify_misalignment(c)
        anchors = ",".join(f"{a.label}:{a.confidence:.3f}" for a in packet.a)
        mem = ",".join(f"{e.kind}:{e.anchor.label}" for e in c.memory[:4])
        update = update_label(record, index, len(templates))
        payload = record.selected_update.payload
        if payload:
            compact = ",".join(f"{k}={payload[k]}" for k in sorted(payload))
            update = f"{update}({compact})"
        cells = [
            str(packet.tick),
            trace.header["scenario"],
            f"{workflow.frontier}:{active.name}",
            _clause_digest(active.handoff),
            mem,
            anchors,
            f"{c.kind}:{c.status.state}",
            f"{case.case} q={packet.q:.2f} sat={reports[workflow.frontier].satisfied}",
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


def explain_record(trace: Trace, index: int) -> str:
    """Why the record at `index` holds its update: the case that classifying
    its replayed `Consultation` gives and the case's detail, the update and
    its plan diff. `NoSuchRecord` for an index the trace does not have."""
    if not 0 <= index < len(trace.records):
        raise NoSuchRecord(f"record {index}: the trace has {len(trace.records)} records")
    templates = header_templates(trace)
    record, c, diff = next(islice(replay_inputs(trace, templates), index, None))
    case = classify_misalignment(c)[0]
    update = record.selected_update
    lines = [
        f"record {index}: tick {c.packet.tick}, stage {c.workflow.frontier}:{c.workflow.active().name}, "
        f"executor {c.kind}:{c.status.state}",
        f"case: {case.case} {_dumps(case.detail)}",
        f"update: {update_label(record, index, len(templates))} {_dumps(update.payload)}",
        f"diff: {len(diff.changed)} change(s)",
        *(f"  stage {ch.index} {ch.field}: {ch.before} -> {ch.after}" for ch in diff.changed),
    ]
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
    rule = policy(trace.header["variant"])
    replayed = replay_inputs(trace, header_templates(trace))
    return [v for index, inputs in enumerate(replayed) for v in _audit_replay(index, rule, *inputs)]


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


def _audit_transfer(index: int, record: BoardRecord, diff: PlanDiff) -> list[Violation]:
    if record.selected_update.action != ACT_TRANSFER or not diff.changed:
        return []
    return [
        Violation(
            index,
            "transfer-preservation",
            "transfer changed contract fields",
        )
    ]


def _audit_repair_scope(
    index: int, record: BoardRecord, workflow: Workflow, diff: PlanDiff
) -> list[Violation]:
    if record.selected_update.action != ACT_REPAIR:
        return []
    out = []
    root = record.selected_update.payload["root"]
    changed_indices = {c.index for c in diff.changed}
    for change in diff.changed:
        if change.index < root:
            out.append(
                Violation(
                    index,
                    "repair-prefix-preservation",
                    f"change at index {change.index} below root {root}",
                )
            )
    for idx in sorted(changed_indices):
        if idx < workflow.frontier:
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
    state = record.executor_status.state
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
    index: int, policy: Policy, record: BoardRecord, c: Consultation, diff: PlanDiff
) -> list[Violation]:
    """Classify and select again under `policy` from the record's
    `Consultation` (`replay_inputs`; the checks do not read its `kind`), run
    the structural checks on the recomputed reports and the replayed plan
    `diff`, and flag any drift from the recorded update."""
    case, reports = classify_misalignment(c)
    update = select_update(case, c, reports, policy)
    out = [
        *_audit_promote_gating(index, record, c.workflow, reports),
        *_audit_transfer(index, record, diff),
        *_audit_repair_scope(index, record, c.workflow, diff),
        *_audit_handoff_blocking(index, record, reports[c.workflow.frontier]),
        *_audit_memory_witness(index, record, reports.values()),
    ]
    if update != record.selected_update:
        out.append(
            Violation(
                index,
                "decision-replay",
                f"update drift: {update.action} != {record.selected_update.action}",
            )
        )
    return out
