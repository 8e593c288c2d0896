"""Byte-identity gate: the sha256 of every shipped trace against a manifest.

`tests/data/trace_sha256.txt` holds one `sha256  scenario/variant` line for
each of the 30 stress scenarios under the 5 planner variants, and for the
golden `fig4_sink` episode. A refactor must leave every line unchanged.
Rewrite the manifest (`python tests/test_trace_sha256.py`) only together
with a `SCHEMA` bump or an intended behaviour change named in CHANGES.md.

The module also gives other tests the shipped traces (`shipped_traces`)
and their lines with each record row in full form (`full_lines`).
"""

from __future__ import annotations

import functools
import hashlib
import json
from functools import reduce
from operator import getitem
from pathlib import Path

from contextflow.alignment import VARIANTS
from contextflow.board import BoardRecord, _slot, serialize_trace
from contextflow.harness import RunConfig, run_episode
from contextflow.monitor import Evidence
from contextflow.scenario import golden_scenario_path, load_scenario, load_suite, stress_suite_dir
from contextflow.world import Anchor

MANIFEST = Path(__file__).parent / "data" / "trace_sha256.txt"


@functools.cache
def shipped_traces() -> tuple[tuple[str, str], ...]:
    """(`scenario/variant`, serialized trace) for every shipped episode."""
    episodes = [(s, v) for s in load_suite(stress_suite_dir()) for v in VARIANTS]
    episodes.append((load_scenario(golden_scenario_path()), "contextflow"))
    return tuple(
        (f"{scenario.id}/{variant}", serialize_trace(run_episode(scenario, RunConfig(variant=variant))))
        for scenario, variant in episodes
    )


_EVIDENCE = _slot(BoardRecord, "live_evidence")
_ANCHORS = _slot(Evidence, "a")
_CONFIDENCE = _slot(Anchor, "confidence")
# the path to each slot that a record row may write as the index of an
# earlier record
_REFERABLE = (
    (_EVIDENCE, _slot(Evidence, "scene_tags")),
    (_EVIDENCE, _slot(Evidence, "degraded")),
    (_slot(BoardRecord, "executor_status"),),
    (_slot(BoardRecord, "selected_update"),),
)


def full_lines(text: str) -> list[str]:
    """The lines of trace `text` with each record row in full form, for
    tests that index or edit a record's values by slot: an anchor written
    `[n, confidence]` becomes the `n`th full anchor row with that
    confidence, and a record index in a slot of `_REFERABLE` that slot's
    value in the record it indexes. Memory seqs stay as written."""
    lines = text.splitlines()
    anchors, rows = [], []
    for i, line in enumerate(lines[1:], 1):
        row = json.loads(line)
        if type(row) is not list:
            continue
        items = row[_EVIDENCE][_ANCHORS]
        for j, item in enumerate(items):
            if len(item) == 2:
                n, confidence = item
                items[j] = [*anchors[n][:_CONFIDENCE], confidence, *anchors[n][_CONFIDENCE + 1 :]]
            else:
                anchors.append(item)
        for *path, slot in _REFERABLE:
            holder = reduce(getitem, path, row)
            if type(holder[slot]) is int:
                holder[slot] = reduce(getitem, path, rows[holder[slot]])[slot]
        rows.append(row)
        lines[i] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return lines


def digest_lines(texts) -> list[str]:
    return [
        f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}  {label}" for label, text in texts
    ]


def trace_digests() -> list[str]:
    return digest_lines(shipped_traces())


def test_every_shipped_trace_matches_the_sha256_manifest():
    expected = MANIFEST.read_text(encoding="utf-8").splitlines()
    assert len(expected) == 30 * len(VARIANTS) + 1
    assert trace_digests() == expected


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text("\n".join(trace_digests()) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}")
