"""Metric formulas against hand calculations and an independent
shortest-path oracle; aggregation arithmetic and formatting."""

from __future__ import annotations

import random

import pytest

from contextflow.board import Trace, make_header
from contextflow.contracts import EvidenceClause, StageGoal, StageTemplate
from contextflow.errors import IncompleteTrace, LabelMismatch
from contextflow.metrics import (
    EpisodeMetrics,
    aggregate_suite,
    format_pct,
    render_suite_table,
    score_episode,
)
from contextflow.scenario import Scenario
from contextflow.world import Pose, build_world

from test_world import brute_force_distance, random_world_spec


def synthetic_scenario(world_spec, start, goal, stages=2):
    world = build_world(world_spec)
    template = StageTemplate(
        name="go",
        goal=StageGoal("x", world_spec.nodes[0].region),
        handoff=(EvidenceClause("object", "x"),),
        compatible=("route-navigator",),
    )
    return Scenario(
        id="synthetic",
        world=world,
        stages=tuple(template for _ in range(stages)),
        diagnostic_type="none",
        faults=(),
        start=Pose(start, "E"),
        goal_node=goal,
    )


def synthetic_trace(scenario, final, traveled, min_goal, stopped, frontier, tick=40):
    trace = Trace(
        header=make_header(scenario.id, "contextflow", 0, 500, 2, scenario.stages)
    )
    trace.terminal = {
        "reason": "stopped" if stopped else "budget",
        "tick": tick,
        "node": final,
        "heading": "E",
        "frontier": frontier,
        "steps": tick,
        "traveled": traveled,
        "min_goal_distance": min_goal,
        "stopped": stopped,
        "faults_fired": [],
    }
    return trace


def test_spl_hand_example():
    # success with traveled 12 against a shortest path of 10
    rng = random.Random(0)
    spec = random_world_spec(rng, n=6)
    world = build_world(spec)
    ids = sorted(world.nodes)
    start, goal = ids[0], ids[1]
    scenario = synthetic_scenario(spec, start, goal)
    shortest = brute_force_distance(spec, start, goal)
    trace = synthetic_trace(scenario, goal, traveled=shortest * 1.2, min_goal=0.0, stopped=True, frontier=2)
    metrics = score_episode(trace, world, scenario)
    assert metrics.success == 1
    assert metrics.spl == pytest.approx(shortest / (shortest * 1.2))
    # the canonical numbers: L=10, P=12
    assert 1 * 10 / max(12, 10) == pytest.approx(0.8333333333333334)


def test_progress_zero_when_never_moving():
    rng = random.Random(1)
    spec = random_world_spec(rng, n=6)
    world = build_world(spec)
    ids = sorted(world.nodes)
    start, goal = ids[0], ids[2]
    scenario = synthetic_scenario(spec, start, goal)
    trace = synthetic_trace(
        scenario,
        final=start,
        traveled=0.0,
        min_goal=brute_force_distance(spec, start, goal),
        stopped=False,
        frontier=0,
    )
    metrics = score_episode(trace, world, scenario)
    assert metrics.progress == 0.0
    assert metrics.success == 0


def test_stop_on_goal_node():
    rng = random.Random(2)
    spec = random_world_spec(rng, n=6)
    world = build_world(spec)
    ids = sorted(world.nodes)
    start, goal = ids[0], ids[3]
    scenario = synthetic_scenario(spec, start, goal)
    shortest = brute_force_distance(spec, start, goal)
    trace = synthetic_trace(scenario, goal, traveled=shortest, min_goal=0.0, stopped=True, frontier=2)
    metrics = score_episode(trace, world, scenario)
    assert metrics.ne == 0.0
    assert metrics.success == 1
    assert metrics.spl == pytest.approx(shortest / max(shortest, shortest))


def test_incomplete_trace_rejected():
    rng = random.Random(3)
    spec = random_world_spec(rng, n=6)
    scenario = synthetic_scenario(spec, sorted(n.id for n in spec.nodes)[0], sorted(n.id for n in spec.nodes)[1])
    trace = Trace(header=make_header("x", "contextflow", 0, 500, 2, scenario.stages))
    with pytest.raises(IncompleteTrace):
        score_episode(trace, scenario.world, scenario)


def test_metrics_match_oracle_on_twenty_seeded_worlds():
    for seed in range(20):
        rng = random.Random(1000 + seed)
        spec = random_world_spec(rng, n=7)
        world = build_world(spec)
        ids = sorted(world.nodes)
        start, goal, final = rng.sample(ids, 3)
        scenario = synthetic_scenario(spec, start, goal)
        shortest = brute_force_distance(spec, start, goal)
        traveled = shortest + rng.choice([0.0, 1.0, 3.0])
        min_goal = min(brute_force_distance(spec, final, goal), shortest)
        trace = synthetic_trace(scenario, final, traveled, min_goal, stopped=True, frontier=2)
        metrics = score_episode(trace, world, scenario)

        ne_oracle = brute_force_distance(spec, final, goal)
        assert abs(metrics.ne - ne_oracle) <= 1e-9
        progress_oracle = 0.0 if shortest <= 0 else max(0.0, min(1.0, (shortest - ne_oracle) / shortest))
        assert abs(metrics.progress - progress_oracle) <= 1e-9
        success_oracle = 1 if ne_oracle <= scenario.success_radius else 0
        spl_oracle = 0.0 if shortest <= 0 else success_oracle * shortest / max(traveled, shortest)
        assert abs(metrics.spl - spl_oracle) <= 1e-9
        assert metrics.spl <= metrics.success
        assert metrics.oracle_success >= metrics.success


def fake_metrics(success):
    return EpisodeMetrics(
        success=success,
        oracle_success=max(success, 0),
        spl=0.5 * success,
        ne=1.0,
        progress=0.5,
        steps=10,
        stopped=bool(success),
        wrong_stop=0,
        early_stop=0,
    )


def test_aggregation_percent_formatting():
    metrics = [fake_metrics(1)] * 12 + [fake_metrics(0)] * 18
    labels = ["handoff"] * 8 + ["promotion"] * 9 + ["repair"] * 7 + ["executor-context"] * 6
    report = aggregate_suite(metrics, labels)
    assert format_pct(report.sr) == "40.00%"
    handoff_only = aggregate_suite(
        [fake_metrics(1)] * 5 + [fake_metrics(0)] * 3, ["handoff"] * 8
    )
    assert format_pct(handoff_only.within_type_sr["handoff"]) == "62.50%"


def test_empty_group_reports_na():
    report = aggregate_suite([fake_metrics(1)], ["none"])
    assert report.within_type_sr == {}
    assert format_pct(None) == "n/a"


def test_label_mismatch_rejected():
    with pytest.raises(LabelMismatch):
        aggregate_suite([fake_metrics(1)], ["handoff", "repair"])


def test_suite_table_renders_all_variants():
    metrics = [fake_metrics(1), fake_metrics(0)]
    labels = ["handoff", "repair"]
    reports = {
        "contextflow": aggregate_suite(metrics, labels),
        "no-promoter": aggregate_suite(metrics, labels),
    }
    table = render_suite_table(reports)
    assert "contextflow" in table and "no-promoter" in table
    assert "SR[handoff]" in table


def test_wrong_stop_and_early_stop_diagnostics():
    rng = random.Random(4)
    spec = random_world_spec(rng, n=6)
    world = build_world(spec)
    ids = sorted(world.nodes)
    start, goal = ids[0], ids[1]
    scenario = synthetic_scenario(spec, start, goal, stages=3)
    far = max(ids, key=lambda n: brute_force_distance(spec, n, goal))
    if brute_force_distance(spec, far, goal) > scenario.success_radius:
        wrong = score_episode(
            synthetic_trace(scenario, far, 6.0, 4.0, stopped=True, frontier=2),
            world,
            scenario,
        )
        assert wrong.wrong_stop == 1 and wrong.early_stop == 0
    early = score_episode(
        synthetic_trace(scenario, start, 2.0, 4.0, stopped=True, frontier=0),
        world,
        scenario,
    )
    assert early.early_stop == 1 and early.wrong_stop == 0
