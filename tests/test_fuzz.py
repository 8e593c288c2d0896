"""Seeded fuzzing of the trace readers and of the scenario loader: edited
shipped traces and scenarios may be rejected, but only with the package's
own `ContextFlowError` subclasses.

Each trace edit takes one shipped trace and either changes one JSON value (a
random key or list item of a random line: replaced by a value of another
type or dropped) or changes the lines themselves (one deleted, duplicated,
swapped with its successor, or cut short). Each payload edit changes one key
of the update payload of a repair, refine, promote or transfer record, whose
payloads the replay applies; the uniform trace edits rarely reach the rare
repair records. Each scenario edit takes one
shipped `.scn` file and either changes one word of a line (replaced by a
word of another line or by an odd value, or dropped) or changes the lines
as a trace edit does; the edited scenario is loaded and run for
`SCN_TICKS` ticks. The seeds and the edit counts are fixed, so a failure
names an edit that can be replayed.
"""

from __future__ import annotations

import json
import random
import re
from functools import reduce
from operator import getitem

from contextflow.alignment import ScopedUpdate
from contextflow.board import BoardRecord, _slot, audit_trace, explain_record, parse_trace, render_trace, update_sequence
from contextflow.errors import ContextFlowError
from contextflow.harness import RunConfig, run_episode
from contextflow.scenario import data_dir, load_scenario
from test_trace_sha256 import full_lines, shipped_traces

SEED = 11
EDITS = 300
VALUES = (None, True, False, 0, -1, 1, 2, 5, 10**6, 0.5, -2.5, "", "x", "sink", [], [0], {}, {"x": 1})


def _paths(node, path=()):
    """Every key and list-item path under `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def edit_lines(lines: list[str], i: int, rng: random.Random) -> str:
    """Delete, duplicate, swap with its successor or cut short line `i`, in
    place; the name of the edit."""
    how = rng.choice(("delete", "duplicate", "swap", "cut"))
    if how == "delete":
        del lines[i]
    elif how == "duplicate":
        lines.insert(i, lines[i])
    elif how == "swap" and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    else:
        lines[i] = lines[i][: rng.randrange(len(lines[i]) or 1)]
    return how


def edit_trace(text: str, rng: random.Random) -> tuple[str, str]:
    """One edit of `text`, and a description of it."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    how = rng.choice(("value", "value", "value", "drop", "line"))
    if how == "line":
        how = edit_lines(lines, i, rng)
        return "\n".join(lines) + "\n", f"line {i}: {how}"
    data = json.loads(lines[i])
    path = rng.choice(list(_paths(data)))
    owner = reduce(getitem, path[:-1], data)
    if how == "drop":
        del owner[path[-1]]
    else:
        owner[path[-1]] = rng.choice(VALUES)
        how = f"= {owner[path[-1]]!r}"
    lines[i] = json.dumps(data)
    return "\n".join(lines) + "\n", f"line {i} {list(path)} {how}"


def read_fully(text: str) -> None:
    trace = parse_trace(text)
    audit_trace(trace)
    render_trace(trace)
    update_sequence(trace)
    explain_record(trace, len(trace.records) - 1)


def test_edited_traces_fail_only_with_contextflow_errors():
    rng = random.Random(SEED)
    shipped = shipped_traces()
    escaped = []
    for _ in range(EDITS):
        label, text = rng.choice(shipped)
        edited, what = edit_trace(text, rng)
        try:
            read_fully(edited)
        except ContextFlowError:
            pass
        except Exception as exc:  # noqa: BLE001 - the escape is the finding
            escaped.append(f"{label} {what}: {type(exc).__name__}: {exc}")
    assert not escaped, "\n".join(escaped[:10])


PAYLOAD_SEED = 17
PAYLOAD_EDITS = 200
PAYLOAD_ACTIONS = ("repair", "refine", "promote", "transfer")
# every key that some update writes, so that an edit may add a foreign one,
# and the values that such keys hold
PAYLOAD_KEYS = ("root", "scope", "target", "target_kind", "clause_index", "bind_label", "new_min_confidence")
PAYLOAD_VALUES = VALUES + ("suffix", "full", "route-navigator", "local-searcher", "endpoint-approacher", 3)
# a record row's update slot, and the action and payload slots of that row
UPDATE = _slot(BoardRecord, "selected_update")
ACTION, PAYLOAD = _slot(ScopedUpdate, "action"), _slot(ScopedUpdate, "payload")


def payload_records(shipped) -> dict[str, list[tuple[str, list[str], int]]]:
    """Per action of `PAYLOAD_ACTIONS`, each (label, lines, line index) of a
    shipped record that takes it, the lines with each record row in full
    form (`full_lines`), so that the edited record holds its own update."""
    out: dict[str, list] = {action: [] for action in PAYLOAD_ACTIONS}
    for label, text in shipped:
        lines = full_lines(text)
        for i, line in enumerate(lines[1:-1], 1):
            action = json.loads(line)[UPDATE][ACTION]
            if action in out:
                out[action].append((label, lines, i))
    return out


def edit_payload(records, rng: random.Random) -> tuple[str, str]:
    """One edit of one payload key of a record that takes an action drawn
    evenly from `PAYLOAD_ACTIONS`: the key set to another value or dropped.
    The trace's text, and a description of the edit."""
    label, lines, i = rng.choice(records[rng.choice(PAYLOAD_ACTIONS)])
    data = json.loads(lines[i])
    payload = data[UPDATE][PAYLOAD]
    key = rng.choice(sorted(set(payload) | set(PAYLOAD_KEYS)))
    if key in payload and rng.random() < 0.3:
        del payload[key]
        how = "dropped"
    else:
        payload[key] = rng.choice(PAYLOAD_VALUES)
        how = f"= {payload[key]!r}"
    edited = lines[:i] + [json.dumps(data)] + lines[i + 1 :]
    return "\n".join(edited) + "\n", f"{label} line {i} payload[{key!r}] {how}"


def test_edited_payloads_fail_only_with_contextflow_errors():
    rng = random.Random(PAYLOAD_SEED)
    records = payload_records(shipped_traces())
    assert all(records.values())
    escaped = []
    for _ in range(PAYLOAD_EDITS):
        edited, what = edit_payload(records, rng)
        try:
            read_fully(edited)
        except ContextFlowError:
            pass
        except Exception as exc:  # noqa: BLE001 - the escape is the finding
            escaped.append(f"{what}: {type(exc).__name__}: {exc}")
    assert not escaped, "\n".join(escaped[:10])


SCN_SEED = 13
SCN_EDITS = 1200
SCN_TICKS = 30
SCN_VALUES = (
    "", "0", "-1", "1", "7", "0.5", "-2.5", "1e9", "nan", "inf", "-inf", "x", "*", "=", "@", ">=", "->", ",",
)
# a word is what lies between spaces and the scenario syntax's separators
_WORD = re.compile(r"[^\s=;,@:>]+")


def shipped_scenarios() -> list[tuple[str, str]]:
    paths = sorted(data_dir().rglob("*.scn"))
    return [(path.name, path.read_text(encoding="utf-8")) for path in paths]


def edit_scenario(text: str, rng: random.Random) -> tuple[str, str]:
    """One edit of scenario `text`, and a description of it."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    words = list(_WORD.finditer(lines[i]))
    if not words or rng.random() < 0.2:
        how = edit_lines(lines, i, rng)
        return "\n".join(lines) + "\n", f"line {i}: {how}"
    word = rng.choice(words)
    how = rng.choice(("value", "borrow", "drop"))
    if how == "value":
        new = rng.choice(SCN_VALUES)
    elif how == "borrow":
        donor = [w.group() for w in _WORD.finditer(rng.choice(lines))] or [""]
        new = rng.choice(donor)
    else:
        new = ""
    lines[i] = lines[i][: word.start()] + new + lines[i][word.end() :]
    return "\n".join(lines) + "\n", f"line {i}: {word.group()!r} -> {new!r}"


def load_and_run(text: str) -> str:
    """What went wrong loading and running `text`, or "" if nothing did: the
    loader may refuse it with a `ContextFlowError`, but a scenario it loads
    must run to a terminal line, `error:*` included."""
    try:
        scenario = load_scenario(text)
    except ContextFlowError:
        return ""
    except Exception as exc:  # noqa: BLE001 - the escape is the finding
        return f"load: {type(exc).__name__}: {exc}"
    try:
        trace = run_episode(scenario, RunConfig(budget=SCN_TICKS))
    except Exception as exc:  # noqa: BLE001 - the escape is the finding
        return f"run: {type(exc).__name__}: {exc}"
    return "" if trace.terminal is not None else "run: no terminal line"


def test_edited_scenarios_fail_only_with_contextflow_errors():
    rng = random.Random(SCN_SEED)
    shipped = shipped_scenarios()
    assert len(shipped) == 31
    escaped = []
    for _ in range(SCN_EDITS):
        name, text = rng.choice(shipped)
        edited, what = edit_scenario(text, rng)
        if failure := load_and_run(edited):
            escaped.append(f"{name} {what}: {failure}")
    assert not escaped, "\n".join(escaped[:10])
