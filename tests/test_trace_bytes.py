"""Smoke test of `tools/trace_bytes.py`: its parts of a shipped trace add up
to the trace's length, and it counts the trace's records and the bytes of
its references."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from contextflow.board import parse_trace
from test_trace_sha256 import shipped_traces

TOOL = Path(__file__).resolve().parent.parent / "tools" / "trace_bytes.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("trace_bytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_parts_of_a_shipped_trace_sum_to_its_length():
    tool = load_tool()
    text = dict(shipped_traces())["promotion_05/contextflow"]
    parts, records = tool.byte_parts(text)
    assert sum(parts.values()) == len(text)
    assert records == len(parse_trace(text).records) > 0
    assert parts["header"] and parts["terminal"] and parts["memory_context"] and parts["live_evidence.a"]
    assert parts["live_evidence.a refs"] and parts["memory_context refs"] and parts["selected_update refs"]
    assert "bytes per record" in tool.report([text])


def test_a_trace_written_in_full_reads_alike_and_refers_only_to_memory_entries():
    tool = load_tool()
    text = dict(shipped_traces())["promotion_05/contextflow"]
    full = tool.in_full(text)
    parts, records = tool.byte_parts(full)
    assert sum(parts.values()) == len(full) > len(text)
    refs = {name for name, count in parts.items() if name.endswith(tool.REFS) and count}
    assert refs == {"memory_context refs"}
    assert parse_trace(full).records == parse_trace(text).records
