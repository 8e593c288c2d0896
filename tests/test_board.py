"""Board tests: trace round-trips, rendering, labels, and audit checks."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, fields, replace
from functools import reduce
from operator import getitem

import pytest

from contextflow import board
from contextflow.alignment import ScopedUpdate
from contextflow.board import (
    SCHEMA,
    BoardRecord,
    Trace,
    _audit_memory_witness,
    _slot,
    audit_trace,
    header_templates,
    load_trace,
    parse_trace,
    render_trace,
    replay_inputs,
    serialize_trace,
    update_label,
    update_sequence,
)
from contextflow.cli import main
from contextflow.codec import from_json, to_json
from contextflow.contracts import (
    SOURCE_MEMORY_OK,
    ClauseMatch,
    EvidenceClause,
    SatisfactionReport,
    StageTemplate,
    compile_instruction,
)
from contextflow.errors import IncompatibleKind, SchemaMismatch
from contextflow.executors import Status
from contextflow.harness import RunConfig, run_episode
from contextflow.memory import MemoryEntry
from contextflow.monitor import Evidence
from contextflow.world import Anchor
from contextflow.scenario import golden_scenario_path, load_scenario, stress_suite_dir
from test_trace_sha256 import full_lines, shipped_traces


def golden_trace(variant="contextflow"):
    scenario = load_scenario(golden_scenario_path())
    return run_episode(scenario, RunConfig(variant=variant))


SEQ = _slot(MemoryEntry, "seq")
# the slots of a record row that hold rows, which `_edit_record` hands its
# edit as objects keyed by field name
_NESTED = {"live_evidence": Evidence, "executor_status": Status, "selected_update": ScopedUpdate}


def _names(cls) -> list[str]:
    return [f.name for f in fields(cls)]


def _keyed(cls, row: list) -> dict:
    """The row of `cls` as a `{field: value}` object, for reading and
    editing by name."""
    assert len(row) == len(fields(cls)), (cls.__name__, row)
    return dict(zip(_names(cls), row))


def _row(cls, data: dict) -> list:
    """Inverse of `_keyed`: the values of the fields of `cls` that `data`
    still holds, in field order, then the value of any other key. A field
    dropped from the object is thus a row one value short, and a key added
    to it a row one value long."""
    names = _names(cls)
    return [data[name] for name in names if name in data] + [v for k, v in data.items() if k not in names]


def _template(row: list, **changes) -> None:
    """Set `changes` in their slots of a `StageTemplate` row."""
    for name, value in changes.items():
        row[_slot(StageTemplate, name)] = value


def test_trace_round_trip():
    trace = golden_trace()
    text = serialize_trace(trace)
    again = parse_trace(text)
    assert serialize_trace(again) == text
    assert len(again.records) == len(trace.records)
    assert again.terminal == trace.terminal


def test_a_run_encodes_each_memory_entry_once_and_its_records_share_the_dict(monkeypatch):
    """In promotion_05/no-promoter, whose records cite memory entries
    thousands of times, each entry is encoded the first time a record cites
    it, and every later record holds that same row. Nothing changes an
    entry after it is recorded, so the row still equals its encoding when
    the episode ends."""
    encoded: dict[int, list[MemoryEntry]] = {}

    def counted_to_json(obj):
        if type(obj) is MemoryEntry:
            encoded.setdefault(obj.seq, []).append(obj)
        return to_json(obj)

    monkeypatch.setattr(board, "to_json", counted_to_json)
    scenario = load_scenario(stress_suite_dir() / "promotion_05.scn")
    trace = run_episode(scenario, RunConfig(variant="no-promoter"))
    cited: dict[int, list[list]] = {}
    for record in trace.records:
        for row in record.memory_context:
            cited.setdefault(row[SEQ], []).append(row)
    assert sum(map(len, cited.values())) > 10 * len(cited) > 0
    assert {seq: len(entries) for seq, entries in encoded.items()} == dict.fromkeys(cited, 1)
    for seq, rows in cited.items():
        assert all(row is rows[0] for row in rows)
        assert rows[0] == to_json(encoded[seq][0])


def test_empty_trace_renders_header_only():
    trace = Trace(header={"schema": SCHEMA, "scenario": "x", "variant": "contextflow", "seed": 0, "budget": 1, "cadence": 2, "templates": []})
    out = render_trace(trace)
    lines = out.strip().splitlines()
    assert len(lines) == 3  # title, column header, rule
    assert "tick" in lines[1]


def _golden_lines():
    """The golden trace's lines, each record row in full form (`full_lines`)."""
    return full_lines(serialize_trace(golden_trace()))


def test_unknown_schema_rejected():
    lines = _golden_lines()
    header = json.loads(lines[0])
    for schema in ("cftrace/99", *(f"cftrace/{n}" for n in range(1, 12))):
        header["schema"] = schema
        with pytest.raises(SchemaMismatch):
            parse_trace("\n".join([json.dumps(header)] + lines[1:]) + "\n")


def cftrace_9(text: str) -> str:
    """A trace in the layout of `cftrace/9`: keyed objects for
    the templates and for each record, which sits under `record` and whose
    evidence holds its tick; a memory entry an object where its seq first
    appears."""
    trace = parse_trace(text)
    header = {**trace.header, "schema": "cftrace/9", "templates": [asdict(t) for t in header_templates(trace)]}
    dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    lines, written = [dumps(header)], set()
    for index, record in enumerate(trace.records):
        data = asdict(record)
        data["live_evidence"]["tick"] = index * header["cadence"]
        data["memory_context"] = []
        for row in record.memory_context:
            data["memory_context"].append(row[SEQ] if row[SEQ] in written else asdict(from_json(MemoryEntry, row)))
            written.add(row[SEQ])
        lines.append(dumps({"record": data}))
    return "\n".join([*lines, dumps({"terminal": trace.terminal})]) + "\n"


def test_a_cftrace_9_trace_is_rejected():
    """Its header names `cftrace/9`; relabelled with `SCHEMA`, its first
    record line, a keyed object, is no row."""
    text = cftrace_9("\n".join(_memory_lines()) + "\n")
    with pytest.raises(SchemaMismatch, match="^unknown schema 'cftrace/9'$"):
        parse_trace(text)
    relabelled = text.replace('"schema":"cftrace/9"', f'"schema":"{SCHEMA}"', 1)
    with pytest.raises(SchemaMismatch, match='^unrecognized trace line: {"record"'):
        parse_trace(relabelled)


def _edit_record(index, edit, lines=None):
    """The trace of `lines` (the golden one by default) with record `index`
    edited by name: `edit` gets the record and the rows of `_NESTED` as
    keyed objects (`_keyed`), which are written back as rows (`_row`)."""
    lines = lines or _golden_lines()
    record = _keyed(BoardRecord, json.loads(lines[1 + index]))
    for name, cls in _NESTED.items():
        record[name] = _keyed(cls, record[name])
    edit(record)
    for name, cls in _NESTED.items():
        if type(record.get(name)) is dict:
            record[name] = _row(cls, record[name])
    lines[1 + index] = json.dumps(_row(BoardRecord, record))
    return "\n".join(lines) + "\n"


def _nested_object(name):
    """The golden trace with record 0's `name` row written as the keyed
    object that cftrace/9 wrote."""
    lines = _golden_lines()
    row = json.loads(lines[1])
    slot = _slot(BoardRecord, name)
    row[slot] = _keyed(_NESTED[name], row[slot])
    lines[1] = json.dumps(row)
    return "\n".join(lines) + "\n"


def _memory_text():
    """A trace whose records refer back to memory entries written before."""
    scenario = load_scenario(stress_suite_dir() / "promotion_05.scn")
    return serialize_trace(run_episode(scenario, RunConfig()))


def _memory_lines():
    """`_memory_text`'s lines, each record row in full form (`full_lines`)."""
    return full_lines(_memory_text())


def _undefine_first_entry():
    """Write the trace's first memory entry as its bare `seq`."""
    lines = _memory_lines()
    index = next(i for i, line in enumerate(lines[1:-1]) if _keyed(BoardRecord, json.loads(line))["memory_context"])

    def undefine(record):
        context = record["memory_context"]
        context[0] = context[0][SEQ]

    return _edit_record(index, undefine, lines)


def _define_entry_again():
    """Write out in full, a second time, the first entry referred to by `seq`."""
    lines = _memory_lines()
    defined = {}
    for index, line in enumerate(lines[1:-1]):
        context = _keyed(BoardRecord, json.loads(line))["memory_context"]
        ref = next((i for i, item in enumerate(context) if type(item) is int), None)
        if ref is None:
            defined.update((item[SEQ], item) for item in context)
            continue

        def define(record):
            record["memory_context"][ref] = defined[context[ref]]

        return _edit_record(index, define, lines)
    raise AssertionError("no memory entry is referred to by its seq")


# each slot that a record row may write as the index of an earlier record,
# and the fields of a record that lead to it
_REFERABLE = {"scene_tags": ("live_evidence",), "degraded": ("live_evidence",), "executor_status": (),
              "selected_update": ()}
_NO_RECORD = "^record 2: reference -?[0-9]+ names no earlier record$"


def _refer(index, slot, ref):
    """The golden trace with `ref` written where record `index` holds its
    `slot`."""
    return _edit_record(index, lambda r: reduce(getitem, _REFERABLE[slot], r).update({slot: ref}))


def _anchor_at(index, position, item):
    """The golden trace with anchor `position` of record `index` written as
    `item`."""
    return _edit_record(index, lambda r: r["live_evidence"]["a"].__setitem__(position, item))


@pytest.mark.parametrize("slot", _REFERABLE)
@pytest.mark.parametrize(
    "ref, message",
    [
        pytest.param(2, _NO_RECORD, id="itself"),
        pytest.param(3, _NO_RECORD, id="later"),
        pytest.param(-1, _NO_RECORD, id="negative"),
        pytest.param(True, "needs", id="bool"),
    ],
)
def test_a_back_reference_to_no_earlier_record_raises_schema_mismatch(slot, ref, message):
    """Golden record 2 writes `ref` where its `slot` belongs."""
    with pytest.raises(SchemaMismatch, match=message):
        parse_trace(_refer(2, slot, ref))


@pytest.mark.parametrize("slot", _REFERABLE)
def test_a_back_reference_reads_the_value_of_the_record_it_indexes(slot):
    """Golden record 2 takes record 1's value of `slot`, whether record 1
    wrote it in full or referred to record 0."""
    records = parse_trace(_refer(2, slot, 1)).records

    def read(record):
        return getattr(reduce(getattr, _REFERABLE[slot], record), slot)

    assert read(records[2]) == read(records[1]) == read(golden_trace().records[1])


_NO_ROW = "^anchor reference .* names no anchor row written before it$"


@pytest.mark.parametrize(
    "item, message",
    [
        # record 0 writes the trace's first two anchor rows: when its second
        # anchor is read, one row has been written, whose ordinal is 0
        pytest.param([1, 0.5], _NO_ROW, id="ordinal-past-the-rows-written"),
        pytest.param([-1, 0.5], _NO_ROW, id="ordinal-negative"),
        pytest.param(["0", 0.5], _NO_ROW, id="ordinal-str"),
        pytest.param([0.0, 0.5], _NO_ROW, id="ordinal-float"),
        pytest.param([False, 0.5], _NO_ROW, id="ordinal-bool"),
        pytest.param([None, 0.5], _NO_ROW, id="ordinal-null"),
        pytest.param([0, "0.5"], "^Anchor.confidence needs", id="confidence-str"),
        pytest.param([0, True], "^Anchor.confidence needs", id="confidence-bool"),
    ],
)
def test_a_malformed_anchor_reference_raises_schema_mismatch(item, message):
    with pytest.raises(SchemaMismatch, match=message):
        parse_trace(_anchor_at(0, 1, item))


def test_an_anchor_reference_reads_the_row_it_names_with_its_own_confidence():
    record = parse_trace(_anchor_at(0, 1, [0, 0.5])).records[0]
    first = golden_trace().records[0].live_evidence.a[0]
    assert record.live_evidence.a[1] == replace(first, confidence=0.5)


def test_an_update_whose_payload_holds_a_list_is_written_in_full():
    """`parse_trace` takes a forged repair that still writes cftrace/7's
    `regenerated` list (the replay rejects it); its payload cannot key the
    writer's table, so each record writes it in full."""
    trace = parse_trace(_repair(2, regenerated=[]))
    trace.records[3].selected_update = trace.records[4].selected_update
    text = serialize_trace(trace)
    rows = [_keyed(BoardRecord, json.loads(line)) for line in text.splitlines()[4:6]]
    assert [row["selected_update"] for row in rows] == [["repair", {"root": 2, "scope": "suffix", "regenerated": []}]] * 2
    assert serialize_trace(parse_trace(text)) == text


def test_repeated_values_are_written_once_per_trace():
    """In every shipped trace, each anchor's label, kind and node, and each
    value of a `_REFERABLE` slot, is written in full once; later records
    refer to it, and read the same records as the rows in full form."""
    referred = 0
    for label, text in shipped_traces():
        raw, full = text.splitlines(), full_lines(text)
        anchors, values = set(), {slot: [] for slot in _REFERABLE}
        for line, expanded in zip(raw[1:-1], full[1:-1]):
            row, record = _keyed(BoardRecord, json.loads(line)), _keyed(BoardRecord, json.loads(expanded))
            evidence, whole = _keyed(Evidence, row["live_evidence"]), _keyed(Evidence, record["live_evidence"])
            for item, anchor in zip(evidence["a"], whole["a"]):
                key = tuple(anchor[_slot(Anchor, name)] for name in ("label", "kind", "node"))
                assert (len(item) == 2) == (key in anchors), (label, item)
                referred += len(item) == 2
                anchors.add(key)
            for slot in _REFERABLE:
                written, value = (evidence, whole) if slot in evidence else (row, record)
                assert (type(written[slot]) is int) == (value[slot] in values[slot]), (label, slot)
                values[slot].append(value[slot])
        assert serialize_trace(parse_trace("\n".join(full) + "\n")) == text
    assert referred


_CUE_WITH_ASSUMPTION = {"stage": 1, "assumption": "sink", "conflicting": "basin", "streak": 3}
# the golden workflow as the keyed object that cftrace/6 and cftrace/7 wrote
_GOLDEN_WORKFLOW = asdict(compile_instruction(load_scenario(golden_scenario_path()).stages))


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(lambda: "\n".join(_golden_lines()[:2])[:-40] + "\n", id="truncated"),
        pytest.param(lambda: "[1]\n", id="header-not-object"),
        pytest.param(lambda: "\n".join(_golden_lines()[:1] + ["[1]"]) + "\n", id="line-not-object"),
        pytest.param(lambda: "\n".join(_golden_lines()[:1] + ["3"]) + "\n", id="line-not-row-or-object"),
        pytest.param(lambda: "\n".join(_golden_lines()[:1] + ['{"record": 3}']) + "\n", id="record-not-object"),
        pytest.param(lambda: "\n".join(_golden_lines()[:1] + ['{"terminal": {}, "x": 1}']) + "\n", id="extra-line-key"),
        pytest.param(lambda: _edit_record(0, lambda r: r.pop("selected_update")), id="missing-key"),
        pytest.param(lambda: _edit_record(1, lambda r: r.update(extra=1)), id="extra-key"),
        pytest.param(
            lambda: "\n".join([json.dumps({"schema": SCHEMA})] + _golden_lines()[1:]) + "\n",
            id="header-keys",
        ),
        pytest.param(_undefine_first_entry, id="seq-before-definition"),
        pytest.param(_define_entry_again, id="seq-defined-twice"),
        pytest.param(lambda: _edit_header(lambda h: h.update(schema="cftrace/4")), id="cftrace-4-header"),
        pytest.param(lambda: _edit_header(lambda h: h.update(schema="cftrace/5")), id="cftrace-5-header"),
        pytest.param(lambda: _edit_header(lambda h: h.update(schema="cftrace/6")), id="cftrace-6-header"),
        pytest.param(lambda: _edit_header(lambda h: h.update(schema="cftrace/7")), id="cftrace-7-header"),
        pytest.param(lambda: _edit_header(lambda h: h.update(schema="cftrace/8")), id="cftrace-8-header"),
        pytest.param(lambda: _edit_header(lambda h: h.update(schema="cftrace/9")), id="cftrace-9-header"),
        pytest.param(lambda: _edit_header(lambda h: h.update(schema="cftrace/10")), id="cftrace-10-header"),
        pytest.param(lambda: _edit_header(lambda h: h.update(schema="cftrace/11")), id="cftrace-11-header"),
        # the replay's record ticks step by the cadence
        pytest.param(lambda: _edit_header(lambda h: h.update(cadence=0)), id="cadence-zero"),
        # a row where a nested row belongs holds an object
        pytest.param(lambda: _nested_object("executor_status"), id="status-object-not-row"),
        pytest.param(lambda: _nested_object("live_evidence"), id="evidence-object-not-row"),
        # a planner variant the run does not have, misspelt or ablated away
        pytest.param(lambda: _edit_header(lambda h: h.update(variant="fixed-exec")), id="unknown-variant"),
        pytest.param(lambda: "\n".join(_golden_lines() + _golden_lines()[-1:]) + "\n", id="two-terminal-lines"),
        pytest.param(
            lambda: "\n".join(_golden_lines()[:1] + _golden_lines()[-1:] + _golden_lines()[1:-1]) + "\n",
            id="record-after-terminal",
        ),
        # values that cftrace/5 wrote and the replay derives: a record's index
        # is its position, whatever the value written
        pytest.param(lambda: _edit_record(1, lambda r: r.update(index=1)), id="index"),
        pytest.param(lambda: _edit_record(1, lambda r: r.update(index=0)), id="index-not-position"),
        pytest.param(lambda: _edit_record(0, lambda r: r.update(index=1)), id="first-index-not-zero"),
        pytest.param(lambda: _edit_record(0, lambda r: r["live_evidence"].update(d=[])), id="discoveries"),
        # cftrace/9's evidence tick, which the replay derives from the
        # record's position and the header's cadence
        pytest.param(lambda: _edit_record(0, lambda r: r["live_evidence"].update(tick=0)), id="evidence-tick"),
        pytest.param(
            lambda: _edit_record(0, lambda r: r.update(plan_diff={"changed": [], "retained_prefix": [0, 3]})),
            id="retained-prefix",
        ),
        pytest.param(
            lambda: _edit_record(0, lambda r: r.update(plan_diff={"changed": [], "repair_root": None})),
            id="repair-root",
        ),
        pytest.param(
            lambda: _edit_record(0, lambda r: r["live_evidence"].update(u=[_CUE_WITH_ASSUMPTION])),
            id="cue-assumption",
        ),
        # values that cftrace/6 wrote and the replay derives from the header's
        # templates and the updates
        pytest.param(lambda: _edit_record(0, lambda r: r.update(workflow=_GOLDEN_WORKFLOW)), id="workflow"),
        pytest.param(lambda: _edit_record(0, lambda r: r.update(plan_diff={"changed": []})), id="plan-diff"),
        # cftrace/7's executor status, which wrapped the report with the
        # executor's kind and ident
        pytest.param(
            lambda: _edit_record(0, lambda r: r.update(executor_status={"kind": "x", "ident": "x#0", "report": {}})),
            id="executor-status-with-kind-and-ident",
        ),
    ],
)
def test_malformed_trace_raises_schema_mismatch(text):
    with pytest.raises(SchemaMismatch):
        parse_trace(text())


def _edit_header(edit, lines=None):
    lines = lines or _golden_lines()
    header = json.loads(lines[0])
    edit(header)
    lines[0] = json.dumps(header)
    return "\n".join(lines) + "\n"


def _contract(index, **fields):
    """A golden contract's JSON, with `fields` changed."""
    return {**_GOLDEN_WORKFLOW["contracts"][index], **fields}


def _forge(index, action, **payload):
    """The golden trace with the update of record `index` replaced."""
    return _edit_record(index, lambda r: r.update(selected_update={"action": action, "payload": payload}))


def _repair(root, scope="suffix", **payload):
    """Golden record 4, at frontier 2 of 4 stages, forged into a repair with
    `payload` besides its root and scope."""
    return _forge(4, "repair", root=root, scope=scope, **payload)


def _refine(**payload):
    """Golden record 4, a refine of the active stage's one-clause handoff,
    with `payload` in place of its own."""
    return _forge(4, "refine", **payload)


def _alternate_without_kinds():
    """repair_02's contextflow trace, whose repair regenerates stage 1 from
    its alternate grounding, with that grounding's kinds removed."""
    text = dict(shipped_traces())["repair_02/contextflow"]
    alternates = _slot(StageTemplate, "alternates")
    return _edit_header(lambda h: _template(h["templates"][1][alternates][0], compatible=[]), text.splitlines())


def _after_completion():
    """The golden trace with its last record, which completes the workflow,
    written twice."""
    lines = _golden_lines()
    return "\n".join(lines[:-1] + lines[-2:]) + "\n"


_WRONGLY_TYPED_RECORDS = [
    pytest.param(lambda: _edit_record(0, lambda r: r.update(selected_update="x")), id="update"),
    pytest.param(lambda: _edit_record(0, lambda r: r["live_evidence"].update(a=3)), id="anchors"),
    # cftrace/8's fitness, which the replay derives, in any shape
    pytest.param(lambda: _edit_record(0, lambda r: r["live_evidence"].update(q="x")), id="q-str"),
    pytest.param(lambda: _edit_record(0, lambda r: r["live_evidence"].update(q=True)), id="q-bool"),
    # cftrace/9's evidence tick, which the replay derives, in any shape
    pytest.param(lambda: _edit_record(0, lambda r: r["live_evidence"].update(tick="x")), id="tick-str"),
    pytest.param(lambda: _edit_record(0, lambda r: r["live_evidence"].update(tick=True)), id="tick-bool"),
    # the record's instruction is the header's scenario
    pytest.param(lambda: _edit_header(lambda h: h.update(scenario=3)), id="instruction-int"),
    pytest.param(lambda: _repair("2"), id="repair-root-str"),
    # items of scalar sequences; golden record 3 is a transfer
    pytest.param(
        lambda: _edit_record(3, lambda r: r["live_evidence"].update(scene_tags=[["room-local"]])),
        id="scene-tag-list",
    ),
    pytest.param(lambda: _edit_record(0, lambda r: r["live_evidence"].update(scene_tags=[1])), id="scene-tag-int"),
    pytest.param(
        lambda: _edit_record(0, lambda r: r["live_evidence"].update(degraded={"route-navigator": [[1]]})),
        id="degraded-tag-list",
    ),
    pytest.param(lambda: _edit_header(lambda h: _template(h["templates"][0], compatible=[1])), id="compatible-int"),
    # updates that the replayed workflow cannot take: the replay rejects each
    # before it yields its record
    pytest.param(_after_completion, id="record-after-completion"),
    pytest.param(lambda: _forge(4, "promote", target=1), id="promote-target-below-the-frontier"),
    pytest.param(lambda: _forge(1, "teleport"), id="unknown-action"),
    pytest.param(lambda: _repair(4), id="repair-root-past-the-last-stage"),
    pytest.param(lambda: _repair(-1), id="repair-root-negative"),
    pytest.param(lambda: _repair(1), id="suffix-root-below-the-frontier"),
    pytest.param(lambda: _forge(4, "repair", root=2), id="repair-without-scope"),
    pytest.param(lambda: _repair(2, scope=["suffix"]), id="repair-scope-list"),
    pytest.param(lambda: _repair(2, scope="partial"), id="repair-scope-unknown"),
    # a repair that still writes cftrace/7's regenerated stages, in any shape
    pytest.param(lambda: _repair(2, regenerated=[]), id="stale-regenerated"),
    *[
        pytest.param(lambda items=items: _repair(2, regenerated=items), id=f"regenerated-{name}")
        for name, items in (
            ("not-list", {}),
            ("not-object", ["x"]),
            ("past-the-last-stage", [{"index": 4, "contract": _contract(3)}]),
            ("index-negative", [{"index": -1, "contract": _contract(3)}]),
            ("index-str", [{"index": "2", "contract": _contract(2)}]),
            ("index-bool", [{"index": True, "contract": _contract(1)}]),
            ("without-contract", [{"index": 2}]),
            ("no-kind", [{"index": 2, "contract": _contract(2, compatible=[])}]),
            ("no-template", [{"index": 2, "contract": _contract(2, template_index=4)}]),
        )
    ],
    # cftrace/7's executor kind and ident, which the replay derives or
    # nothing reads
    pytest.param(lambda: _edit_record(0, lambda r: r["executor_status"].update(kind="x")), id="stale-kind"),
    pytest.param(lambda: _edit_record(0, lambda r: r["executor_status"].update(ident="x#0")), id="stale-ident"),
    # golden record 3 transfers at stage 2, whose kinds are the navigator
    # and the searcher: the run's `spawn` raises for any other kind
    pytest.param(lambda: _forge(3, "transfer", target_kind="endpoint-approacher"), id="transfer-foreign-kind"),
    pytest.param(lambda: _forge(3, "transfer"), id="transfer-without-kind"),
    pytest.param(lambda: _refine(clause_index=1, new_min_confidence=0.8), id="refine-clause-past-the-handoff"),
    pytest.param(lambda: _refine(clause_index=-1, new_min_confidence=0.8), id="refine-clause-negative"),
    pytest.param(lambda: _refine(clause_index="0", new_min_confidence=0.8), id="refine-clause-str"),
    pytest.param(lambda: _refine(clause_index=0, bind_label=3), id="refine-bind-label-int"),
    pytest.param(lambda: _refine(clause_index=0, new_min_confidence="0.8"), id="refine-confidence-str"),
    pytest.param(lambda: _refine(clause_index=0, new_min_confidence=True), id="refine-confidence-bool"),
    pytest.param(lambda: _refine(clause_index=0), id="refine-without-value"),
    # header templates that do not compile, when records follow
    pytest.param(lambda: _edit_header(lambda h: h.update(templates=[]), _golden_lines()[:3]), id="templates-empty"),
    pytest.param(lambda: _edit_header(lambda h: _template(h["templates"][0], compatible=[])), id="templates-no-kind"),
    pytest.param(_alternate_without_kinds, id="alternate-no-kind"),
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


# Most fail in `parse_trace`, which decodes the typed fields, and the rest in
# the replay; they stay so that every wrongly typed record is pinned on the
# render path too.
@pytest.mark.parametrize("text", _WRONGLY_TYPED_RECORDS)
def test_render_rejects_wrongly_typed_record(text):
    with pytest.raises(SchemaMismatch):
        render_trace(parse_trace(text()))


_REPORT = {"satisfied": True, "matched": [], "missing": [], "ambiguous": []}


_NO_CASE = {"case": "none", "detail": {}}


def _factors(record, **fields):
    """Add a case, with a retry count and `fields`, as the
    `alignment_factors` that cftrace/8 and earlier wrote."""
    record["alignment_factors"] = {"case": _NO_CASE, "retry_count": 0, **fields}


# fields that cftrace/2 wrote and the replay re-derives, packet fields that
# cftrace/3 wrote and no decision reads, and the cues, fitness and retry count
# that cftrace/8 wrote and the replay derives; a record carrying one (a row
# one value long) is not a cftrace/12 record
@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(
            lambda r: r.update(active_stage={"index": 0, "name": "s", "goal": {"target": "t", "region": "r"}}),
            id="active_stage",
        ),
        pytest.param(lambda r: r.update(expected_evidence={"handoff": [], "expected": []}), id="expected_evidence"),
        pytest.param(lambda r: _factors(r, active_report=_REPORT), id="active_report"),
        pytest.param(lambda r: _factors(r, boundary_reports={"0": _REPORT}), id="boundary_reports"),
        pytest.param(lambda r: _factors(r, q=0.5), id="q"),
        pytest.param(_factors, id="alignment_factors"),
        pytest.param(lambda r: r.update(retry_count=0), id="retry_count"),
        pytest.param(lambda r: r["live_evidence"].update(u=[]), id="u"),
        pytest.param(lambda r: r["live_evidence"].update(q=0.5), id="evidence-q"),
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


_REPAIR_WITHOUT_ROOT = {"action": "repair", "payload": {"scope": "suffix"}}

# records that decode but lack what the audit, the renderer or the update
# labels index; golden record 2 is a promote
_UNREADABLE_RECORDS = [
    pytest.param(
        lambda: _edit_record(2, lambda r: r["selected_update"]["payload"].pop("target")),
        id="promote-without-target",
    ),
    pytest.param(
        lambda: _edit_record(2, lambda r: r["selected_update"]["payload"].update(target="2")),
        id="promote-target-not-int",
    ),
    # the golden instruction has 4 stages, and record 2 promotes from stage 0
    pytest.param(
        lambda: _edit_record(2, lambda r: r["selected_update"]["payload"].update(target=5)),
        id="promote-target-past-the-last-stage",
    ),
    pytest.param(
        lambda: _edit_record(2, lambda r: r["selected_update"]["payload"].update(target=0)),
        id="promote-target-at-the-frontier",
    ),
    pytest.param(
        lambda: _edit_record(0, lambda r: r.update(selected_update=_REPAIR_WITHOUT_ROOT)),
        id="repair-without-root",
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


def _edit_terminal(edit):
    lines = _golden_lines()
    data = json.loads(lines[-1])
    edit(data["terminal"])
    lines[-1] = json.dumps(data)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda t: t.pop("node"), id="no-node"),
        pytest.param(lambda t: t.update(extra=1), id="extra-key"),
        pytest.param(lambda t: t.update(tick="10"), id="tick-str"),
        pytest.param(lambda t: t.update(stopped=1), id="stopped-int"),
        pytest.param(lambda t: t.update(traveled=None), id="traveled-null"),
        pytest.param(lambda t: t.update(faults_fired=[3]), id="fault-int"),
        pytest.param(lambda t: t.update(faults_fired="x"), id="faults-str"),
    ],
)
def test_untyped_terminal_line_raises_schema_mismatch(edit, tmp_path, capsys):
    text = _edit_terminal(edit)
    with pytest.raises(SchemaMismatch):
        parse_trace(text)
    path = tmp_path / "bad.cftrace"
    path.write_text(text, encoding="utf-8")
    assert main(["render", str(path)]) == 2
    assert "error: SchemaMismatch" in capsys.readouterr().err


def test_non_utf8_trace_file_raises_schema_mismatch(tmp_path):
    path = tmp_path / "bad.cftrace"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(SchemaMismatch):
        load_trace(path)


def test_records_write_no_workflow_or_plan_diff():
    from contextflow.scenario import load_scenario, stress_suite_dir

    scenario = load_scenario(stress_suite_dir() / "repair_02.scn")
    for trace in (golden_trace(), run_episode(scenario, RunConfig(variant="full-replanner"))):
        text = serialize_trace(trace)
        assert serialize_trace(parse_trace(text)) == text
        for line in text.splitlines()[1 : 1 + len(trace.records)]:
            assert _keyed(BoardRecord, json.loads(line)).keys().isdisjoint({"workflow", "plan_diff"})


def test_records_write_no_executor_kind_or_regenerated_stages():
    """The consulted kind follows from the header and the updates, and a
    repair's stages from `advance`: no shipped record writes either, nor the
    executor's ident, which nothing reads."""
    repairs = 0
    for _, text in shipped_traces():
        for line in full_lines(text)[1:-1]:
            record = _keyed(BoardRecord, json.loads(line))
            status = _keyed(Status, record["executor_status"])
            assert status.keys() == {"state", "progress"}
            update = _keyed(ScopedUpdate, record["selected_update"])
            if update["action"] == "repair":
                assert update["payload"].keys() == {"root", "scope"}
                repairs += 1
    assert repairs


def test_every_shipped_confidence_is_on_the_observe_grid():
    """Every anchor confidence a shipped trace writes, in a full anchor row,
    an `[n, confidence]` reference or a memory entry's anchor, is as
    `observe` reports it: rounded to 3 decimals."""
    confidence, entry_anchor = _slot(Anchor, "confidence"), _slot(MemoryEntry, "anchor")
    places = Counter()
    for label, text in shipped_traces():
        for line, expanded in zip(text.splitlines()[1:-1], full_lines(text)[1:-1]):
            row, record = _keyed(BoardRecord, json.loads(line)), _keyed(BoardRecord, json.loads(expanded))
            items = _keyed(Evidence, row["live_evidence"])["a"]
            anchors = _keyed(Evidence, record["live_evidence"])["a"]
            found = [("ref" if len(item) == 2 else "row", anchor) for item, anchor in zip(items, anchors)]
            found += [("memory", entry[entry_anchor]) for entry in record["memory_context"] if type(entry) is list]
            for place, anchor in found:
                places[place] += 1
                c = anchor[confidence]
                assert round(c, 3) == c, (label, place, anchor)
    assert places["row"] and places["ref"] and places["memory"], places


def test_memory_entries_written_once_then_referred_to_by_seq():
    text = _memory_text()
    contexts = [_keyed(BoardRecord, json.loads(line))["memory_context"] for line in text.splitlines()[1:-1]]
    written = [item[SEQ] for context in contexts for item in context if type(item) is list]
    referred = [item for context in contexts for item in context if type(item) is int]
    assert referred and len(written) == len(set(written)) and set(referred) <= set(written)
    parsed = parse_trace(text)
    assert serialize_trace(parsed) == text
    # every record holds full entries again, and one row per seq
    entries = {}
    for record in parsed.records:
        for entry in record.memory_context:
            assert entries.setdefault(entry[SEQ], entry) is entry


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
    for index, (record, label) in enumerate(zip(trace.records, labels)):
        assert update_label(record, index, len(trace.header["templates"])) == label


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
    violations = _audit_memory_witness(0, record, [report])
    assert [v.check for v in violations] == ["memory-witness"]
    witnessed = replace(report, matched=(replace(match, witness_label=live),))
    assert _audit_memory_witness(0, record, [witnessed]) == []

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


def _checks(violations, check):
    return [(v.record_index, v.message) for v in violations if v.check == check]


def test_forged_transfer_diff_fails_transfer_preservation(monkeypatch):
    # golden record 3 is a transfer, whose diff is empty; an `advance` that
    # changed a goal on transfer would be flagged
    trace = parse_trace(serialize_trace(golden_trace()))
    assert trace.records[3].selected_update.action == "transfer"
    advance = board.advance

    def regoaling(workflow, update):
        advance(workflow, update)
        if update.action == "transfer":
            contract = workflow.contracts[0]
            workflow.contracts[0] = replace(contract, goal=replace(contract.goal, target="basin"))

    monkeypatch.setattr(board, "advance", regoaling)
    assert _checks(audit_trace(trace), "transfer-preservation") == [(3, "transfer changed contract fields")]


def test_forged_change_below_the_repair_root_fails_prefix_preservation(monkeypatch):
    # repair_02's contextflow repair roots at stage 1, past the validated
    # stage 0; an `advance` that regenerated stage 0 too, with another goal
    # target, would be flagged
    from contextflow.scenario import stress_suite_dir

    scenario = load_scenario(stress_suite_dir() / "repair_02.scn")
    trace = parse_trace(serialize_trace(run_episode(scenario, RunConfig())))
    index = next(i for i, r in enumerate(trace.records) if r.selected_update.action == "repair")
    assert trace.records[index].selected_update.payload["root"] == 1
    advance = board.advance

    def regoaling(workflow, update):
        advance(workflow, update)
        if update.action == "repair":
            contract = workflow.contracts[0]
            workflow.contracts[0] = replace(contract, goal=replace(contract.goal, target="b"))

    monkeypatch.setattr(board, "advance", regoaling)
    assert _checks(audit_trace(trace), "repair-prefix-preservation") == [
        (index, "change at index 0 below root 1"),
        (index, "repair revised validated stage 0"),
    ]


def test_a_record_row_with_a_case_slot_raises_schema_mismatch(tmp_path, capsys):
    """A cftrace/10 record wrote its case in slot 3, which the audit now
    derives: a five-slot row is no record, whatever case it holds."""
    lines = _golden_lines()
    row = json.loads(lines[2])
    row.insert(3, {"case": "stage-lock", "detail": {"boundary": 0, "unlocked": 1}})
    lines[2] = json.dumps(row)
    text = "\n".join(lines) + "\n"
    with pytest.raises(SchemaMismatch, match="^BoardRecord needs a row of 4 values"):
        parse_trace(text)
    path = tmp_path / "old.cftrace"
    path.write_text(text, encoding="utf-8")
    for command in ("audit", "render", "explain"):
        assert main([command, str(path), *(["1"] if command == "explain" else [])]) == 2
        assert "error: SchemaMismatch" in capsys.readouterr().err


def test_forged_fitness_fails_decision_replay_with_update_drift():
    """Golden record 0 reads fitness 0.5, at the transfer threshold. A
    forger who turns its update into a transfer can no longer write the low
    fitness that would justify it: the replay derives the fitness from the
    consulted kind and the recorded scene, and selects a continue."""
    transfer = {"action": "transfer", "payload": {"target_kind": "route-navigator"}}
    trace = parse_trace(_edit_record(0, lambda r: r.update(selected_update=transfer)))
    assert _checks(audit_trace(trace), "decision-replay") == [(0, "update drift: continue != transfer")]


def test_unknown_executor_kind_in_a_record_raises_incompatible_kind():
    # golden record 3 transfers to the searcher on an executor mismatch at
    # stage 2: the replay ranks the active stage's kinds, so a forged unknown
    # kind used to raise KeyError. The navigator stays listed first, so the
    # replayed kind, and with it the fitness, is the run's.
    compatible = ["route-navigator", "local-searcher", "x"]
    trace = parse_trace(_edit_header(lambda h: _template(h["templates"][2], compatible=compatible)))
    assert trace.records[3].selected_update.action == "transfer"
    with pytest.raises(IncompatibleKind, match="'x'"):
        audit_trace(trace)


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


def _decided_and_replayed(monkeypatch):
    """Run the 151 shipped episodes and yield, for each, its label, the
    snapshot of every `Consultation` the run's decision read, the snapshot of
    every one the replay derives from the header and the records, the plan
    diffs `apply_update` returned and the replayed ones. A snapshot is a dict
    of the fields; its packet is taken without its discoveries `d`."""
    from contextflow import alignment
    from contextflow.alignment import VARIANTS, Consultation
    from contextflow.scenario import load_suite, stress_suite_dir

    def snapshot(c):
        # the run's `apply_update` changes the consulted workflow in place
        values = {f.name: getattr(c, f.name) for f in fields(Consultation)}
        return {**values, "workflow": c.workflow.copy(), "packet": replace(c.packet, d=())}

    decided, diffs = [], []
    select_update, apply_update = alignment.select_update, alignment.apply_update

    def deciding(case, c, reports, policy):
        decided.append(snapshot(c))
        return select_update(case, c, reports, policy)

    def applying(*args, **kwargs):
        diffs.append(apply_update(*args, **kwargs))
        return diffs[-1]

    monkeypatch.setattr(alignment, "select_update", deciding)
    monkeypatch.setattr(alignment, "apply_update", applying)
    episodes = [(load_scenario(golden_scenario_path()), "contextflow")]
    episodes += [(s, v) for s in load_suite(stress_suite_dir()) for v in VARIANTS]
    assert len(episodes) == 151
    for scenario, variant in episodes:
        decided.clear()
        diffs.clear()
        trace = parse_trace(serialize_trace(run_episode(scenario, RunConfig(variant=variant))))
        replayed = list(replay_inputs(trace, header_templates(trace)))
        label = f"{scenario.id}/{variant}"
        # a consultation whose update raised ended the episode unrecorded
        aborted = trace.terminal["reason"].startswith("error:")
        assert len(decided) == len(replayed) + aborted, label
        yield label, list(decided), [snapshot(c) for _, c, _ in replayed], list(diffs), [d for *_, d in replayed]


def _only(snapshots, names):
    return [{name: s[name] for name in names} for s in snapshots]


# the fields of a `Consultation` each of the two tests below compares
_WORKFLOW_FIELDS = ("workflow", "kind", "memory")
_CUE_FIELDS = ("packet", "live", "status", "retry_count")


def test_the_replayed_workflow_is_the_live_one(monkeypatch):
    """The workflow, the executor kind and the memory slice that the replay
    derives from the header's templates and the recorded updates are the
    ones the run held at each consultation of the 151 shipped episodes, and
    each replayed plan diff is the one `apply_update` returned."""
    from contextflow.alignment import Consultation

    assert {f.name for f in fields(Consultation)} == {*_WORKFLOW_FIELDS, *_CUE_FIELDS}
    changes = memory = 0
    kinds = set()
    for label, decided, replayed, diffs, replayed_diffs in _decided_and_replayed(monkeypatch):
        assert _only(replayed, _WORKFLOW_FIELDS) == _only(decided[: len(replayed)], _WORKFLOW_FIELDS), label
        assert replayed_diffs == diffs, label
        changes += sum(len(diff.changed) for diff in diffs)
        kinds.update(c["kind"] for c in decided)
        memory += sum(1 for c in decided if c["memory"])
    assert changes > 0 and memory > 0
    assert kinds == {"route-navigator", "local-searcher", "endpoint-approacher"}


def test_the_replayed_cues_fitness_and_retry_count_are_the_live_ones(monkeypatch):
    """At every consultation of the 151 shipped episodes, the packet (its
    contradiction cues, fitness and tick), the boundary liveness, the status
    report and the retry count that the replay derives are the ones the
    run's decision read: one streak, fitness and retry rule serves both, and
    the tick follows from the record's position and the header's cadence."""
    cues = retries = 0
    for label, decided, replayed, _, _ in _decided_and_replayed(monkeypatch):
        assert _only(replayed, _CUE_FIELDS) == _only(decided[: len(replayed)], _CUE_FIELDS), label
        cues += sum(1 for c in decided if c["packet"].u)
        retries += sum(1 for c in decided if c["retry_count"])
    assert cues > 0 and retries > 0


@pytest.mark.parametrize("cadence", [1, 3])
def test_the_replayed_ticks_are_the_live_ones_at_other_cadences(cadence, monkeypatch):
    """A record writes no tick: the replay derives it from the record's
    position and the header's cadence, which must give the tick of each
    packet the run recorded, at any cadence."""
    from contextflow import harness
    from contextflow.alignment import VARIANTS

    live = []
    emit = harness.emit_record

    def recording(trace, result):
        live.append(result.consultation.packet.tick)
        return emit(trace, result)

    monkeypatch.setattr(harness, "emit_record", recording)
    scenarios = [load_scenario(golden_scenario_path())]
    scenarios += [load_scenario(stress_suite_dir() / f"{name}.scn") for name in ("promotion_05", "repair_02")]
    for scenario in scenarios:
        for variant in VARIANTS:
            live.clear()
            trace = parse_trace(serialize_trace(run_episode(scenario, RunConfig(variant=variant, cadence=cadence))))
            replayed = [c.packet.tick for _, c, _ in replay_inputs(trace, header_templates(trace))]
            assert replayed == live and len(live) > 1, f"{scenario.id}/{variant}"


def test_continue_records_carry_empty_diffs():
    trace = golden_trace()
    for record, _, diff in replay_inputs(trace, header_templates(trace)):
        if record.selected_update.action == "continue":
            assert diff.changed == ()


def test_repair_traces_round_trip_with_regenerated_payloads():
    # a repair writes its root and scope; `advance` regenerates the stages
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
        assert all(r.selected_update.payload.keys() == {"root", "scope"} for r in repairs)
