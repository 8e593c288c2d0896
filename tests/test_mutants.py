"""Smoke test of `tools/mutants.py`, which runs no mutant here: each edit
still finds its one line, and every shared rule, `Policy` lever, the
status row and `closest_approach` has a mutant."""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

from contextflow.alignment import Policy

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the dataclass decorator looks its module up
    spec.loader.exec_module(module)
    return module


def test_each_mutant_edits_exactly_one_occurrence_of_its_old_text():
    tool = load_tool()
    assert tool.misplaced() == []
    names = [m.name for m in tool.MUTANTS]
    assert len(names) == len(set(names))
    assert all("\n" not in m.equivalent for m in tool.MUTANTS)


def test_every_shared_rule_and_policy_lever_has_a_mutant():
    rules = {m.rule for m in load_tool().MUTANTS}
    levers = {f"lever {f.name}" for f in dataclasses.fields(Policy)}
    shared = {
        "advance", "spawned_kind", "retry steps", "Monitor.fold", "classify_misalignment", "select_update", "status row",
        "closest_approach",
    }
    assert rules == levers | shared
