"""The benchmark's tracer (`perfbench/tracer.py`) wraps package functions by
name. This test installs it unchanged around the golden episode, so that
renaming or removing a name it patches fails here, not only in a traced
benchmark run."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from contextflow import alignment, harness, monitor, world
from contextflow.board import audit_trace, parse_trace, serialize_trace
from contextflow.harness import RunConfig, run_episode
from contextflow.scenario import golden_scenario_path, load_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# `memory.retrieve` is left out: the golden stages admit no remembered
# evidence, so the planner never queries memory there
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
    assert tracer.counts["world.geodesic_distance"] > 0
    assert tracer.counts["alignment.updates.promote"] > 0
    assert (harness.observe, alignment.classify_misalignment, monitor.Monitor.aggregate) == originals
    assert harness.observe is world.observe
