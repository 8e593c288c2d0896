"""Every value a `cftrace/12` record writes has a reader in the replay.

For each value a record row holds, the test looks, over the shipped traces,
for one edit of it that changes what the replay makes of the trace: the
parse outcome, the audit verdict, the plan diffs, or the replayed
`Consultation` as the rules read it. A `Consultation` holds the recorded
inputs themselves, so comparing it whole would count any written value as
read; the test compares what the rules derive from it instead: the case
and the boundary reports, the selected update, the retry count, the
consulted kind, the frontier, the cues `u`, the fitness `q` and the live
passes. The edits are made on the record rows in full form
(`full_lines`), so that each edit changes the value of the one record it
edits.
"""

from __future__ import annotations

import json
from dataclasses import fields

from contextflow.alignment import classify_misalignment, policy, select_update
from contextflow.board import BoardRecord, _slot, audit_trace, header_templates, parse_trace, replay_inputs
from contextflow.errors import ContextFlowError
from contextflow.executors import Status
from contextflow.memory import MemoryEntry
from contextflow.monitor import Evidence
from contextflow.world import Anchor
from test_trace_sha256 import full_lines, shipped_traces

_EVIDENCE, _STATUS, _UPDATE, _CONTEXT = (
    _slot(BoardRecord, name) for name in ("live_evidence", "executor_status", "selected_update", "memory_context")
)
_ANCHORS = _slot(Evidence, "a")
_ENTRY_ANCHOR = _slot(MemoryEntry, "anchor")
_KINDS = ["object", "room", "landmark", "pose-region"]
_DEGRADED_ALL = {
    "route-navigator": ["route", "doorway"], "local-searcher": ["room-local"], "endpoint-approacher": ["endpoint"]
}
PLACES_PER_TRACE = 4  # the rows of one trace at which a value is tried


def _anchors(row):
    return row[_EVIDENCE][_ANCHORS]


def _entries(row):
    """The memory entries a record row writes out in full."""
    return [entry for entry in row[_CONTEXT] if type(entry) is list]


def _entry_anchors(row):
    return [entry[_ENTRY_ANCHOR] for entry in _entries(row)]


def _in(of, cls, name):
    """The places of field `name` in each row of `cls` that `of(row)` gives."""
    index = _slot(cls, name)
    return lambda row: [(value, index) for value in of(row)]


def _anchor_slots(prefix, of):
    return {
        f"{prefix}.label": (_in(of, Anchor, "label"), lambda v: ["zz-unseen"]),
        f"{prefix}.kind": (_in(of, Anchor, "kind"), lambda v: [k for k in _KINDS if k != v]),
        f"{prefix}.confidence": (_in(of, Anchor, "confidence"), lambda v: [0.0, 1.0, round(v / 2, 3)]),
        f"{prefix}.node": (_in(of, Anchor, "node"), lambda v: ["zz-node"]),
    }


# each value a record writes: where it sits in a record row, and the values
# an edit tries in its place
SLOTS = {
    **_anchor_slots("live_evidence.a", _anchors),
    "live_evidence.scene_tags": (_in(lambda row: [row[_EVIDENCE]], Evidence, "scene_tags"),
                                 lambda v: [[], ["doorway", "endpoint", "room-local", "route"]]),
    "live_evidence.degraded": (_in(lambda row: [row[_EVIDENCE]], Evidence, "degraded"),
                               lambda v: [{}, _DEGRADED_ALL]),
    "executor_status.state": (_in(lambda row: [row[_STATUS]], Status, "state"),
                              lambda v: [s for s in ("running", "done", "blocked", "failed") if s != v]),
    "executor_status.progress": (_in(lambda row: [row[_STATUS]], Status, "progress"), lambda v: [0.0, 1.0]),
    "selected_update": (lambda row: [(row, _UPDATE)],
                        lambda v: [u for u in (["continue", {}], ["continue", {"restart": True}]) if u != v]),
    "memory_context.tick": (_in(_entries, MemoryEntry, "tick"), lambda v: [v - 1000]),
    "memory_context.kind": (_in(_entries, MemoryEntry, "kind"), lambda v: ["zz-kind"]),
    "memory_context.stage_index": (_in(_entries, MemoryEntry, "stage_index"), lambda v: [v + 1, v - 1]),
    **_anchor_slots("memory_context.anchor", _entry_anchors),
    "memory_context.region": (_in(_entries, MemoryEntry, "region"), lambda v: ["zz-region"]),
    "memory_context.seq": (_in(_entries, MemoryEntry, "seq"), lambda v: [v + 100_000]),
}

# the values that no edit tried here shows in the replay, and why
UNREAD = {
    # no rule reads it; only the memory column of `render` shows it
    "memory_context.kind": "render only",
    # `_memory_match` breaks tick ties by it, but the tied entries of every
    # shipped trace are one anchor written as an observation and as a
    # discovery, which match alike in either order
    "memory_context.stage_index": "no shipped tie",
}


def observed(text: str):
    """What the replay makes of a trace: the name of the error it raises, or
    each record's derived decision inputs and outcome, and the audit."""
    try:
        trace = parse_trace(text)
        rule = policy(trace.header["variant"])
        decisions = []
        for _, c, diff in replay_inputs(trace, header_templates(trace)):
            case, reports = classify_misalignment(c)
            update = select_update(case, c, reports, rule)
            packet = c.packet
            decisions.append((case, reports, update, c.retry_count, c.kind, c.workflow.frontier,
                              packet.u, packet.q, c.live, diff))
        return decisions, audit_trace(trace)
    except ContextFlowError as exc:
        return type(exc).__name__


def _edits(line: str, name: str) -> list[str]:
    """The edits of record `line` to try for slot `name`: one place set to
    one of its candidate values; then, where the row holds the slot more
    than once, every place set to its own candidate at once. The run writes
    a discovered anchor to memory twice at one tick, as an observation and
    as a discovery, and either entry alone gives the same memory match."""
    places, candidates = SLOTS[name]
    values = [candidates(holder[key]) for holder, key in places(json.loads(line))]
    out = []
    for n, tried in enumerate(values):
        for value in tried:
            row = json.loads(line)
            holder, key = places(row)[n]
            holder[key] = value
            out.append(json.dumps(row))
    if len(values) > 1:
        for j in range(max(map(len, values))):
            row = json.loads(line)
            for (holder, key), tried in zip(places(row), values):
                holder[key] = tried[min(j, len(tried) - 1)]
            out.append(json.dumps(row))
    return out


def _read(name: str, traces) -> bool:
    """Whether some edit of slot `name`, at one of the first rows of a trace
    that hold it, changes what the replay makes of that trace."""
    places = SLOTS[name][0]
    for lines, before in traces:
        rows = [i for i in range(1, len(lines) - 1) if places(json.loads(lines[i]))][:PLACES_PER_TRACE]
        for i in rows:
            for edited in _edits(lines[i], name):
                if observed("\n".join([*lines[:i], edited, *lines[i + 1:]]) + "\n") != before:
                    return True
    return False


def test_every_value_a_record_writes_has_a_reader_in_the_replay():
    traces = [(full_lines(text), observed(text)) for _, text in shipped_traces()]
    assert all(type(before) is tuple for _, before in traces)
    unread = {name for name in SLOTS if not _read(name, traces)}
    assert unread == set(UNREAD)


def test_the_slots_cover_every_field_of_a_record_row():
    """Each field of a record row, down to the fields of its nested rows, has
    an entry in `SLOTS` (an update is one value): a field added to a record
    needs a reader, or an entry in `UNREAD` that says why it has none."""
    assert [f.name for f in fields(BoardRecord)] == [
        "memory_context", "live_evidence", "executor_status", "selected_update"
    ]
    leaves = {"selected_update"}
    leaves |= {f"live_evidence.{f.name}" for f in fields(Evidence) if f.name != "a"}
    leaves |= {f"executor_status.{f.name}" for f in fields(Status)}
    leaves |= {f"memory_context.{f.name}" for f in fields(MemoryEntry) if f.name != "anchor"}
    leaves |= {f"{prefix}.{f.name}" for prefix in ("live_evidence.a", "memory_context.anchor") for f in fields(Anchor)}
    assert set(SLOTS) == leaves
