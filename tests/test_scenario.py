"""Scenario loading and load errors, fault arming, and suite manifests."""

from __future__ import annotations

from collections import Counter

import pytest

from contextflow.errors import (
    InvalidDiagnosticType,
    OrphanFault,
    ParseError,
    UnresolvedReference,
)
from contextflow.executors import ExecutorRegistry
from contextflow.harness import RunConfig, run_episode
from contextflow.board import classify_record, replay_inputs, serialize_trace
from contextflow.cli import main
from contextflow.scenario import (
    FaultScript,
    Scenario,
    golden_scenario_path,
    instantiate_faults,
    load_scenario,
    load_suite,
    stress_suite_dir,
)

MINI = """
[world]
region hall route
region room room-local
node a hall 0 0
node b hall 1 0
node c room 2 0
node d room 3 0
edge a b 1
edge b c 1
edge c d 1
object hall room a 1.5
object room room c 1.5
object cup object d 4.0

[stages]
stage find-cup
goal = cup @ room
handoff = object:cup>=0.7
expected_evidence = room:room>=0.5
compatible_executors = local-searcher

stage stop-at-cup
goal = cup @ room
handoff = object:cup>=0.7
compatible_executors = endpoint-approacher

[episode]
id = mini
diagnostic_type = none
start = a E
goal_node = d
budget = 60
seed = 3
"""


def test_golden_scenario_has_four_stages():
    scenario = load_scenario(golden_scenario_path())
    assert len(scenario.stages) == 4
    assert scenario.id == "fig4_sink"


def test_unknown_goal_node_rejected():
    bad = MINI.replace("goal_node = d", "goal_node = n99")
    with pytest.raises(UnresolvedReference):
        load_scenario(bad)


def test_unknown_diagnostic_type_rejected():
    bad = MINI.replace("diagnostic_type = none", "diagnostic_type = spooky")
    with pytest.raises(InvalidDiagnosticType):
        load_scenario(bad)


def test_malformed_stage_line_rejected():
    bad = MINI.replace("goal = cup @ room", "goal = cup room", 1)
    with pytest.raises(ParseError):
        load_scenario(bad)


_GOLDEN_FAULT = "\n[faults]\nfault local-searcher "


@pytest.mark.parametrize(
    "old, new",
    [
        pytest.param("node n00 closet 0 0", "node n00 closet x 0", id="node-x"),
        pytest.param("node n00 closet 0 0", "node n00 closet 0 y", id="node-y"),
        pytest.param("edge n00 n01 1", "edge n00 n01 one", id="edge-length"),
        pytest.param("object sink object n08 1.5", "object sink object n08 wide", id="object-radius"),
        pytest.param("handoff = object:basin>=0.7", "handoff = object:basin>=high", id="clause-confidence"),
        pytest.param("success_radius = 3.0", "success_radius = far", id="success-radius"),
        pytest.param("budget = 500", "budget = 5e2", id="budget"),
        pytest.param("seed = 7", "seed = seven", id="seed"),
        pytest.param("[episode]", _GOLDEN_FAULT + "on_stage=abc report_done_early\n[episode]", id="on-stage"),
        pytest.param("[episode]", _GOLDEN_FAULT + "at_tick=abc report_done_early\n[episode]", id="at-tick"),
        pytest.param(
            "[episode]", _GOLDEN_FAULT + "at_tick=1 ignore_target_for=zz\n[episode]", id="ignore-for"
        ),
        pytest.param(
            "[episode]", _GOLDEN_FAULT + "at_tick=1 misground_goal=nodash\n[episode]", id="misground"
        ),
    ],
)
def test_malformed_scenario_value_raises_parse_error(old, new, tmp_path, capsys):
    text = golden_scenario_path().read_text(encoding="utf-8")
    assert text.count(old) == 1
    bad = text.replace(old, new)
    with pytest.raises(ParseError):
        load_scenario(bad)
    path = tmp_path / "bad.scn"
    path.write_text(bad, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "error: ParseError" in capsys.readouterr().err


def test_stress_suite_group_sizes():
    suite = load_suite(stress_suite_dir())
    assert len(suite) == 30
    counts = Counter(s.diagnostic_type for s in suite)
    assert counts == {
        "handoff": 8,
        "promotion": 9,
        "repair": 7,
        "executor-context": 6,
    }


def test_loading_is_deterministic():
    first = load_scenario(MINI)
    second = load_scenario(MINI)
    assert first.id == second.id
    assert first.world_spec == second.world_spec
    assert first.stages == second.stages
    assert first.faults == second.faults


def test_orphan_fault_is_an_error_at_instantiation():
    scenario = load_scenario(MINI)
    probe = Scenario(
        id="probe",
        world_spec=scenario.world_spec,
        world=scenario.world,
        stages=scenario.stages,
        diagnostic_type="none",
        faults=(FaultScript("route-navigator", "at_tick", "1", "report_done_early"),),
        start=scenario.start,
        goal_node=scenario.goal_node,
    )
    registry = ExecutorRegistry(scenario.world)
    with pytest.raises(OrphanFault):
        instantiate_faults(probe, registry)


def test_never_firing_fault_leaves_episode_identical():
    armed = (
        MINI.rstrip()
        + "\n"
        + "\n[faults]\nfault local-searcher at_tick=100000 report_done_early\n"
    )
    base = run_episode(load_scenario(MINI), RunConfig())
    faulty = run_episode(load_scenario(armed), RunConfig())
    assert serialize_trace(base) == serialize_trace(faulty)


def _active_reports(trace):
    """Each record with its active handoff report, recomputed from its inputs."""
    for record, workflow, memory_entries in replay_inputs(trace):
        yield record, classify_record(record, workflow, memory_entries)[1][workflow.frontier]


def test_done_early_fault_blocks_promotion_on_the_board():
    armed = MINI.rstrip() + "\n\n[faults]\nfault local-searcher at_tick=2 report_done_early\n"
    trace = run_episode(load_scenario(armed), RunConfig())
    fault_consults = [
        r
        for r, active_report in _active_reports(trace)
        if r.executor_status.report.note == "early-report" and not active_report.satisfied
    ]
    assert fault_consults
    for record in fault_consults:
        assert record.selected_update.action in ("continue", "refine")


def test_ignore_fault_delays_searcher_termination():
    armed = (
        MINI.rstrip()
        + "\n\n[faults]\nfault local-searcher on_anchor_visible=cup ignore_target_for=40\n"
    )
    scenario = load_scenario(armed)
    trace = run_episode(scenario, RunConfig(variant="no-promoter", budget=200))
    first_seen = None
    done_tick = None
    for record in trace.records:
        if first_seen is None and any(
            a.label == "cup" and a.confidence > 0.5
            for a in record.live_evidence.a
        ):
            first_seen = record.tick
        if done_tick is None and record.executor_status.report.state == "done":
            done_tick = record.tick
    assert first_seen is not None and done_tick is not None
    assert done_tick - first_seen >= 40


def test_manifest_mismatch_detected(tmp_path):
    src = stress_suite_dir()
    target = tmp_path / "suite"
    target.mkdir()
    for path in src.glob("*.scn"):
        (target / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    (target / "manifest.txt").write_text(
        "handoff_01 promotion handoff_01.scn\n", encoding="utf-8"
    )
    from contextflow.errors import ManifestError

    with pytest.raises(ManifestError):
        load_suite(target)


def test_misground_fault_diverts_and_recovery_restores_target():
    world_extra = MINI.replace(
        "object cup object d 4.0",
        "object cup object d 4.0\nobject jug object b 4.0",
    )
    armed = (
        world_extra.rstrip()
        + "\n\n[faults]\nfault local-searcher at_tick=1 misground_goal=cup->jug\n"
    )
    scenario = load_scenario(armed)
    trace = run_episode(scenario, RunConfig())
    assert trace.terminal["faults_fired"], "misground never fired"
    # the misgrounded searcher reports done on the wrong label; the planner
    # must hold the stage (handoff still names the true target)
    blocked = [
        r
        for r, active_report in _active_reports(trace)
        if r.executor_status.report.state == "done" and not active_report.satisfied
    ]
    assert blocked
    assert all(r.selected_update.action != "promote" for r in blocked)
    # a restart respawns from the stage goal, so the episode still completes
    assert trace.terminal["reason"] == "completed"


def test_golden_scenario_validates_without_warnings():
    # every non-wildcard clause label of every stage and alternate grounding
    # names an anchor of the golden world
    scenario = load_scenario(golden_scenario_path())
    anchors = {a.label for a in scenario.world_spec.objects}
    labels = {
        clause.label
        for template in scenario.stages
        for candidate in (template,) + template.alternates
        for clause in candidate.handoff + candidate.expected
        if not clause.is_wildcard()
    }
    assert labels and labels <= anchors
