"""Seeded fuzzing of the trace readers: edited shipped traces may be rejected,
but only with the package's own `ContextFlowError` subclasses.

Each edit takes one shipped trace and either changes one JSON value (a
random key or list item of a random line: replaced by a value of another
type or dropped) or changes the lines themselves (one deleted, duplicated,
swapped with its successor, or cut short). The seed and the edit count are
fixed, so a failure names an edit that can be replayed.
"""

from __future__ import annotations

import json
import random
from functools import reduce
from operator import getitem

from contextflow.board import audit_trace, parse_trace, render_trace, update_sequence
from contextflow.errors import ContextFlowError
from test_trace_sha256 import shipped_traces

SEED = 11
EDITS = 300
VALUES = (None, True, False, 0, -1, 1, 2, 5, 10**6, 0.5, -2.5, "", "x", "sink", [], [0], {}, {"x": 1})


def _paths(node, path=()):
    """Every key and list-item path under `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def edit_trace(text: str, rng: random.Random) -> tuple[str, str]:
    """One edit of `text`, and a description of it."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    how = rng.choice(("value", "value", "value", "drop", "line"))
    if how == "line":
        how = rng.choice(("delete", "duplicate", "swap", "cut"))
        if how == "delete":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        elif how == "swap" and i + 1 < len(lines):
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
        else:
            lines[i] = lines[i][: rng.randrange(len(lines[i]))]
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
