"""Bytes per record of board traces, and each part's share of the text.

Usage, from the repository root:

    python3 tools/trace_bytes.py             # the shipped stress suite, run in process
    python3 tools/trace_bytes.py PATH        # one .cftrace file, or every *.cftrace under a directory

With no argument, every shipped stress scenario runs under each planner
variant, as the benchmark's `stress-suite` workload runs them. Prints the
trace and record counts, the bytes per record (the whole serialized text
over the record count, as the benchmark's `trace_bytes_per_record` counts
it) and each part's bytes and share of the text: the header and terminal
lines, and each slot of the record rows, the evidence row split into its
own slots. The references of a slot (`refs`: a memory `seq`, an anchor
`[n, confidence]`, the index of an earlier record) count apart from the
values it writes in full. `syntax` parts are the brackets and commas of a
row and the newlines of the lines that hold it. The parts sum to the
text's length. The `in full` column gives each part's bytes per record
with each anchor and each record-indexed value written in full
(`in_full`), memory entries as written.

Standard library only, besides the package under `src/`.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contextflow.alignment import VARIANTS  # noqa: E402
from contextflow.board import BoardRecord, parse_trace, serialize_trace  # noqa: E402
from contextflow.codec import to_json  # noqa: E402
from contextflow.harness import RunConfig, run_episode  # noqa: E402
from contextflow.monitor import Evidence  # noqa: E402
from contextflow.scenario import load_suite, stress_suite_dir  # noqa: E402

# the encoder `board.serialize_trace` writes each line with
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
RECORD_SLOTS = [f.name for f in fields(BoardRecord)]
CONTEXT = RECORD_SLOTS.index("memory_context")
EVIDENCE_SLOTS = [f.name for f in fields(Evidence)]


# the parts whose references `byte_parts` counts apart, and which items of a
# list part are references: a memory `seq`, an anchor `[n, confidence]`
REFERABLE = {
    "memory_context": lambda item: type(item) is int,
    "live_evidence.a": lambda item: len(item) == 2,
    "live_evidence.scene_tags": None,
    "live_evidence.degraded": None,
    "executor_status": None,
    "selected_update": None,
}
REFS = " refs"


def _count(parts: Counter, name: str, value) -> int:
    """Add the bytes of `value`, part `name` of a record row, to `parts`:
    those of its references under `name` plus `REFS`, the rest under
    `name`. Returns the bytes of `value`."""
    size = len(_dumps(value))
    if name in REFERABLE and type(value) is int:
        parts[name + REFS] += size
        return size
    is_ref = REFERABLE.get(name)
    refs = sum(len(_dumps(item)) for item in value if is_ref(item)) if is_ref else 0
    parts[name + REFS] += refs
    parts[name] += size - refs
    return size


def byte_parts(text: str) -> tuple[Counter, int]:
    """The bytes of each part of one trace's `text`, and its record count.
    The first line is the header, a list line a record, and any other line
    the terminal line. A reference in a `REFERABLE` part counts under that
    part's name plus `REFS`: a record index in place of a whole value, and
    the items of a list that refer back."""
    parts: Counter = Counter()
    records = 0
    for index, line in enumerate(text.splitlines(keepends=True)):
        body = line.rstrip("\n")
        data = json.loads(body)
        if _dumps(data) != body:
            raise ValueError(f"line {index} does not re-encode as written: {body[:60]}")
        if index == 0 or type(data) is not list:
            parts["header" if index == 0 else "terminal"] += len(line)
            continue
        records += 1
        slots = 0
        for name, value in zip(RECORD_SLOTS, data):
            if name != "live_evidence":
                slots += _count(parts, name, value)
                continue
            size = len(_dumps(value))
            slots += size
            for sub, item in zip(EVIDENCE_SLOTS, value):
                size -= _count(parts, f"live_evidence.{sub}", item)
            parts["live_evidence syntax"] += size
        parts["record syntax"] += len(line) - slots
    return parts, records


def in_full(text: str) -> str:
    """`text` with each anchor, and each value that a record writes as the
    index of an earlier record, written in full, as `cftrace/11` wrote
    them. Memory entries stay as written: a `seq` is an entry's identity,
    and one written in full twice does not parse."""
    lines = text.splitlines()
    for index, record in enumerate(parse_trace(text).records, 1):
        row = to_json(record)
        row[CONTEXT] = json.loads(lines[index])[CONTEXT]
        lines[index] = _dumps(row)
    return "\n".join(lines) + "\n"


def stress_suite_texts() -> list[str]:
    """The serialized trace of every shipped stress scenario under each
    planner variant, with the scenario's own seed and budget."""
    return [
        serialize_trace(run_episode(scenario, RunConfig(variant=variant)))
        for scenario in load_suite(stress_suite_dir())
        for variant in VARIANTS
    ]


def report(texts: list[str]) -> str:
    """The byte table of `texts`, one trace each, with each part's bytes
    per record were every record row written in full (`in_full`)."""
    parts: Counter = Counter()
    full: Counter = Counter()
    records = 0
    for text in texts:
        counted, n = byte_parts(text)
        parts.update(counted)
        full.update(byte_parts(in_full(text))[0])
        records += n
    total = sum(map(len, texts))
    assert sum(parts.values()) == total, (sum(parts.values()), total)
    order = ["header", *(f"live_evidence.{s}" for s in EVIDENCE_SLOTS), "live_evidence syntax"]
    order += [s for s in RECORD_SLOTS if s != "live_evidence"] + ["record syntax", "terminal"]
    order = [part for name in order for part in (name, name + REFS)[: 1 + (name in REFERABLE)]]
    per = max(records, 1)
    lines = [
        f"traces {len(texts)}, records {records}, bytes {total}, bytes per record {total / per:.1f} "
        f"({sum(full.values()) / per:.1f} in full)",
        "",
        f"{'part':29s} {'bytes':>10s} {'share':>7s} {'per record':>11s} {'in full':>8s}",
    ]
    for name in order:
        share = parts[name] / max(total, 1)
        lines.append(f"{name:29s} {parts[name]:10d} {share:7.1%} {parts[name] / per:11.1f} {full[name] / per:8.1f}")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("path", nargs="?", type=Path, help="a .cftrace file or a directory of them")
    args = parser.parse_args(argv)
    if args.path is None:
        texts = stress_suite_texts()
    else:
        files = sorted(args.path.rglob("*.cftrace")) if args.path.is_dir() else [args.path]
        if not files:
            parser.error(f"no .cftrace file under {args.path}")
        texts = [path.read_text(encoding="utf-8") for path in files]
    sys.stdout.write(report(texts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
