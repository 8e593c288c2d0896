"""The benchmark's tracer (`perfbench/tracer.py`) wraps package functions by
name. This test installs it unchanged around the golden episode and one
stress episode, so that renaming or removing a name it patches, or changing
the arguments it reads, fails here, not only in a traced benchmark run."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from contextflow import alignment, harness, monitor, world
from contextflow.board import audit_trace, parse_trace, serialize_trace
from contextflow.harness import RunConfig, run_episode
from contextflow.scenario import golden_scenario_path, load_scenario, stress_suite_dir

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# `memory.retrieve` is checked on the stress episode below: the golden
# stages admit no remembered evidence, so the planner never queries memory there
LAYER_SPANS = {
    "scenario.parse",
    "world.build_world",
    "world.observe",
    "world.shortest_node_path",
    "executors.spawn",
    "executors.step",
    "memory.record_event",
    "monitor.aggregate",
    "contracts.handoff_satisfied",
    "contracts.plan_diff",
    "alignment.consult",
    "alignment.classify",
    "alignment.select",
    "alignment.apply_update",
    "board.emit_record",
    "board.replay",
}


def test_tracer_records_every_layer_of_the_golden_episode(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer = importlib.import_module("tracer").Tracer()
    originals = (harness.observe, alignment.classify_misalignment, monitor.Monitor.aggregate)
    tracer.install()
    try:
        trace = run_episode(load_scenario(golden_scenario_path()), RunConfig())
        violations = audit_trace(parse_trace(serialize_trace(trace)))
    finally:
        tracer.uninstall()

    assert violations == []
    assert trace.terminal["reason"] == "completed"
    assert LAYER_SPANS - {name for name, *_ in tracer.spans} == set()
    # The first spawn is a route navigator on a fresh world: its plan misses
    # the cache, and the miss shows as a path query under the spawn span.
    first_spawn = next(i for i, (name, *_) in enumerate(tracer.spans) if name == "executors.spawn")
    assert ("world.shortest_node_path", first_spawn) in {(name, parent) for name, _, _, parent, _ in tracer.spans}
    assert tracer.counts["world.geodesic_distance"] > 0
    assert tracer.counts["alignment.updates.promote"] > 0
    assert (harness.observe, alignment.classify_misalignment, monitor.Monitor.aggregate) == originals
    assert harness.observe is world.observe


def test_tracer_records_memory_retrieval(monkeypatch):
    # promotion_05 is the one shipped scenario with a memory-admitting
    # (`live-or-corroborated-memory`) handoff clause
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer = importlib.import_module("tracer").Tracer()
    tracer.install()
    try:
        trace = run_episode(load_scenario(stress_suite_dir() / "promotion_05.scn"), RunConfig())
    finally:
        tracer.uninstall()

    assert not trace.terminal["reason"].startswith("error:")
    assert "memory.retrieve" in {name for name, *_ in tracer.spans}
    assert tracer.counts["memory.entries_scanned"] > 0
