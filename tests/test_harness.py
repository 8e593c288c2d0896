"""Episode-loop and batch-runner tests."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from contextflow import harness
from contextflow.alignment import VARIANTS, advance, boundary_reports
from contextflow.board import header_templates, parse_trace, replay_inputs, serialize_trace, update_sequence
from contextflow.contracts import stage_status
from contextflow.errors import InvalidRunConfig
from contextflow.harness import RunConfig, closest_approach, run_episode, run_suite
from contextflow.metrics import aggregate_suite, score_episode
from contextflow.monitor import discoveries
from contextflow.scenario import (
    golden_scenario_path,
    load_scenario,
    load_suite,
    stress_suite_dir,
)
from contextflow.world import EdgeSpec, NodeSpec, WorldSpec, build_world, geodesic_distance

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

ABORT_SCENARIO = """
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
object cup object d 1.2

[stages]
stage find-cup
goal = cup @ room
handoff = object:cup>=0.7
compatible_executors = local-searcher

stage stop-at-phantom
goal = phantom @ room
handoff = object:phantom>=0.7
compatible_executors = endpoint-approacher

[faults]
fault local-searcher at_tick=2 report_done_early

[episode]
id = abortive
diagnostic_type = none
start = a E
goal_node = d
budget = 40
seed = 5
"""


def test_golden_episode_update_sequence_and_metrics():
    scenario = load_scenario(golden_scenario_path())
    trace = run_episode(scenario, RunConfig())
    assert update_sequence(trace) == [
        "initialize/continue",
        "continue",
        "promote",
        "transfer",
        "refine",
        "complete",
    ]
    metrics = score_episode(trace, scenario.world, scenario)
    assert metrics.success == 1
    assert metrics.ne == 0.0
    assert metrics.spl == 1.0
    assert metrics.steps == 10


def test_same_seed_runs_are_byte_identical():
    scenario = load_scenario(golden_scenario_path())
    one = serialize_trace(run_episode(scenario, RunConfig()))
    two = serialize_trace(run_episode(scenario, RunConfig()))
    assert one == two


def test_stage_lock_scenario_under_no_promoter_hits_the_budget():
    scenario = load_scenario(stress_suite_dir() / "promotion_01.scn")
    assert scenario.budget == 500
    trace = run_episode(scenario, RunConfig(variant="no-promoter"))
    assert trace.terminal["reason"] == "budget"
    assert trace.terminal["steps"] == 500
    assert not trace.terminal["stopped"]


def test_executor_error_aborts_with_terminal_record():
    scenario = load_scenario(ABORT_SCENARIO)
    trace = run_episode(scenario, RunConfig(variant="termination-follower"))
    assert trace.terminal["reason"] == "error:NoAnchorToApproach"
    assert not trace.terminal["stopped"]
    # the trace still parses and scores
    again = parse_trace(serialize_trace(trace))
    metrics = score_episode(again, scenario.world, scenario)
    assert metrics.success == 0


def test_suite_writes_traces_and_reports(tmp_path):
    result = run_suite(
        stress_suite_dir(), ["contextflow"], out_dir=tmp_path
    )
    traces = sorted((tmp_path / "contextflow").glob("*.cftrace"))
    assert len(traces) == 30
    assert (tmp_path / "report_contextflow.json").exists()
    assert len(result.metrics["contextflow"]) == 30


def reversed_suite(variant="contextflow"):
    """The stress suite's traces under `variant`, in `load_suite` order, and
    their `aggregate_suite` report, with the episodes run and scored last to
    first."""
    scenarios = load_suite(stress_suite_dir())
    cfg, done = RunConfig(variant=variant), {}
    for i in reversed(range(len(scenarios))):
        trace = run_episode(scenarios[i], cfg)
        done[i] = trace, score_episode(trace, scenarios[i].world, scenarios[i])
    traces, metrics = zip(*(done[i] for i in range(len(scenarios))))
    return list(traces), aggregate_suite(list(metrics), [s.diagnostic_type for s in scenarios])


def test_suite_order_permutation_changes_nothing(tmp_path):
    natural = run_suite(stress_suite_dir(), ["contextflow"], out_dir=tmp_path)
    traces, report = reversed_suite()
    assert report == natural.reports["contextflow"]
    for trace in traces:
        path = tmp_path / "contextflow" / f"{trace.header['scenario']}.cftrace"
        assert path.read_text(encoding="utf-8") == serialize_trace(trace)


def test_episode_order_and_seeds_identical_across_variants():
    suite = load_suite(stress_suite_dir())
    sample = suite[0]
    for variant in ("contextflow", "no-promoter"):
        trace = run_episode(sample, RunConfig(variant=variant))
        assert trace.header["seed"] == sample.seed
        assert trace.header["scenario"] == sample.id


def test_workflow_invariants_hold_on_every_consultation():
    """Over the golden and the 150 stress traces, only a promote (forward)
    or a full repair (back to 0) moves the frontier, and each plan diff
    reports a status change at exactly the stages from the lower of its two
    frontiers to the higher (at most the last stage): from the stage's
    `stage_status` under the old frontier to that under the new one, after
    the stage's field changes."""
    from test_trace_sha256 import shipped_traces

    moved = 0
    for label, text in shipped_traces():
        trace = parse_trace(text)
        for record, c, diff in replay_inputs(trace, header_templates(trace)):
            workflow, update = c.workflow, record.selected_update
            after = workflow.copy()
            advance(after, update)
            fb, fa = workflow.frontier, after.frontier
            if update.action == "promote":
                assert fa > fb, label
            elif update.action == "repair" and update.payload["scope"] == "full":
                assert fa == 0, label
            else:
                assert fa == fb, label
            moved += fa != fb
            stages = range(min(fb, fa), min(max(fb, fa) + 1, len(workflow.contracts))) if fa != fb else ()
            statuses = [(c.index, c.before, c.after) for c in diff.changed if c.field == "status"]
            assert statuses == [(i, stage_status(i, fb), stage_status(i, fa)) for i in stages], label
            names = [(c.index, c.field) for c in diff.changed]
            assert names == sorted(names, key=lambda n: (n[0], n[1] == "status")), label
    assert moved > 100


def test_suite_level_metric_invariants():
    result = run_suite(stress_suite_dir(), ["contextflow", "termination-follower"])
    for variant, report in result.reports.items():
        assert report.spl <= report.sr + 1e-12
        assert report.osr >= report.sr - 1e-12


def test_memory_corroborated_boundary_match_in_shipped_corpus():
    scenario = load_scenario(stress_suite_dir() / "promotion_05.scn")
    trace = run_episode(scenario, RunConfig())
    matches = []
    for _, c, _ in replay_inputs(trace, header_templates(trace)):
        for report in boundary_reports(c).values():
            matches += [m for m in report.matched if m.provenance == "memory-corroborated"]
    assert matches, "no memory-corroborated match in promotion_05"
    assert all(m.witness_label for m in matches)
    assert trace.terminal["reason"] == "completed"


def test_suite_of_thirty_by_five_variants_yields_150_traces(tmp_path):
    from contextflow.alignment import VARIANTS

    result = run_suite(
        stress_suite_dir(), list(VARIANTS), budget=60, out_dir=tmp_path
    )
    traces = list(tmp_path.glob("*/*.cftrace"))
    reports = list(tmp_path.glob("report_*.json"))
    assert len(traces) == 150
    assert len(reports) == 5
    assert set(result.reports) == set(VARIANTS)


def test_golden_discoveries_cite_stages_beyond_the_frontier():
    scenario = load_scenario(golden_scenario_path())
    trace = run_episode(scenario, RunConfig())
    # a record leaves its discoveries out: the replay derives them
    replayed = replay_inputs(trace, header_templates(trace))
    _, c, _ = next(x for x in replayed if x[0].selected_update.action == "promote")
    frontier = c.workflow.frontier
    tagged = {(d.stage, d.match.anchor_label) for d in discoveries(c.live)}
    assert (1, "hallway") in tagged
    assert (2, "double-doors") in tagged
    assert all(stage > frontier for stage, _ in tagged)


def test_each_consultation_passes_each_open_boundary_once(monkeypatch):
    """The monitor's live pass over each handoff boundary at or past the
    frontier is the only one a consultation makes: the planner's boundary
    reports reuse it."""
    from contextflow import alignment, contracts, monitor

    passes = []
    per_consult = []
    live_pass = contracts.live_pass

    def counted(clauses, anchors):
        passes.append(clauses)
        return live_pass(clauses, anchors)

    monkeypatch.setattr(contracts, "live_pass", counted)
    monkeypatch.setattr(monitor, "live_pass", counted)
    consult = alignment.PlannerSession.consult

    def counting_consult(self, workflow, *args, **kwargs):
        open_boundaries = len(workflow.contracts) - workflow.frontier
        result = consult(self, workflow, *args, **kwargs)
        per_consult.append((len(passes), open_boundaries))
        passes.clear()
        return result

    monkeypatch.setattr(alignment.PlannerSession, "consult", counting_consult)
    scenarios = [load_scenario(golden_scenario_path()), *load_suite(stress_suite_dir())]
    for scenario in scenarios:
        run_episode(scenario, RunConfig())
    assert len(per_consult) > len(scenarios)
    assert all(made == open_boundaries for made, open_boundaries in per_consult)


EARLY_STOP_SCENARIO = """
[world]
region hall route
region mid room-local
region room room-local
node a hall 0 0
node b hall 1 0
node c mid 2 0
node d room 3 0
node e room 4 0
node f room 5 0
edge a b 1
edge b c 1
edge c d 1
edge d e 1
edge e f 1
object waypost object c 3.0
object hall room a 1.5
object cup object f 2.0

[stages]
stage approach-waypost
goal = waypost @ mid
handoff = object:waypost>=0.7
compatible_executors = endpoint-approacher

stage find-cup
goal = cup @ room
handoff = object:cup>=0.7
compatible_executors = local-searcher

stage stop-at-cup
goal = cup @ room
handoff = object:cup>=0.7
compatible_executors = endpoint-approacher

[episode]
id = early-stopper
diagnostic_type = none
start = a E
goal_node = f
budget = 40
seed = 2
"""


def test_mid_workflow_approacher_stop_counts_as_early_stop():
    scenario = load_scenario(EARLY_STOP_SCENARIO)
    trace = run_episode(scenario, RunConfig())
    assert trace.terminal["reason"] == "stopped"
    assert trace.terminal["frontier"] == 0
    metrics = score_episode(trace, scenario.world, scenario)
    assert metrics.early_stop == 1
    assert metrics.success == 0


DIVERSION_SCENARIO = """
# two east-ish edges leave n0; the closer one wins the heading and
# diverts the navigator off its planned path
[world]
region hall route
region room doorway
node n0 hall 0 0
node na hall 2 0.5
node nb hall 1 -0.5
node nd hall 2 -0.5
node nc room 3 0.5
edge n0 na 1.5
edge n0 nb 1.0
edge na nc 1.4
edge nb nd 1.0
edge nd nc 1.4
object room room nc 1.5

[stages]
stage enter-room
goal = room @ room
handoff = room:room>=0.7
compatible_executors = route-navigator

[episode]
id = diversion
diagnostic_type = none
start = n0 E
goal_node = nc
budget = 30
seed = 4
"""


def test_heading_diversion_forces_blocked_recovery_and_reroute():
    scenario = load_scenario(DIVERSION_SCENARIO)
    trace = run_episode(scenario, RunConfig())
    assert trace.terminal["reason"] == "completed"
    # the navigator reports `blocked` once a FORWARD left it short of its path
    blocked = [r for r in trace.records if r.executor_status.state == "blocked"]
    assert blocked, "diversion never blocked the navigator"
    metrics = score_episode(trace, scenario.world, scenario)
    assert metrics.success == 1


def test_golden_completes_under_other_cadences():
    scenario = load_scenario(golden_scenario_path())
    for cadence in (1, 3, 5):
        trace = run_episode(scenario, RunConfig(cadence=cadence))
        assert trace.terminal["reason"] == "completed", f"cadence {cadence}"
        metrics = score_episode(trace, scenario.world, scenario)
        assert metrics.success == 1


def test_budget_override_truncates_episode():
    scenario = load_scenario(golden_scenario_path())
    trace = run_episode(scenario, RunConfig(budget=4))
    assert trace.terminal["reason"] == "budget"
    assert trace.terminal["steps"] == 4
    assert not trace.terminal["stopped"]


@pytest.mark.parametrize("config", [RunConfig(cadence=0), RunConfig(cadence=-2), RunConfig(budget=-1)])
def test_run_episode_rejects_a_cadence_below_1_or_a_budget_below_0(config):
    with pytest.raises(InvalidRunConfig):
        run_episode(load_scenario(golden_scenario_path()), config)


def test_run_suite_rejects_a_cadence_below_1(tmp_path):
    with pytest.raises(InvalidRunConfig):
        run_suite(stress_suite_dir(), ["contextflow"], cadence=0, out_dir=tmp_path)
    assert not list(tmp_path.iterdir())


def test_run_episode_rejects_an_unknown_variant():
    # a misspelt variant used to run the full policy under its own name
    with pytest.raises(InvalidRunConfig, match="fixed-exec"):
        run_episode(load_scenario(golden_scenario_path()), RunConfig(variant="fixed-exec"))


def test_run_suite_rejects_an_unknown_variant_before_any_episode(tmp_path):
    with pytest.raises(InvalidRunConfig, match="fixed-exec"):
        run_suite(stress_suite_dir(), ["contextflow", "fixed-exec"], out_dir=tmp_path)
    assert not list(tmp_path.iterdir())


def test_closest_approach_reads_past_a_goal_rooted_tie_by_its_rounding_slack():
    # two 3-edge branches off g whose lengths tie at 3.52, but whose float
    # sums order x and y one way from the goal and the other way towards it
    nodes = tuple(NodeSpec(n, "r", i, 0) for i, n in enumerate(("g", "a1", "a2", "x", "b1", "b2", "y")))
    edges = (
        EdgeSpec("g", "a1", 1.01), EdgeSpec("a1", "a2", 1.81), EdgeSpec("a2", "x", 0.7),
        EdgeSpec("g", "b1", 0.69), EdgeSpec("b1", "b2", 1.07), EdgeSpec("b2", "y", 1.76),
    )
    world = build_world(WorldSpec(nodes=nodes, edges=edges, objects=()))
    assert geodesic_distance(world, "x", "g") == 3.5199999999999996 < geodesic_distance(world, "y", "g") == 3.52
    assert geodesic_distance(world, "g", "x") == 3.5200000000000005 > geodesic_distance(world, "g", "y") == 3.52
    # with no slack the scan would stop at x, its goal-rooted bound past y's 3.52
    assert closest_approach(world, {"x", "y"}, "g") == 3.5199999999999996
    assert closest_approach(world, {"g", "x", "y"}, "g") == 0.0


def test_min_goal_distance_is_the_least_over_every_observed_pose(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    poses, observe = [], harness.observe

    def recorded(world, pose, seed, tick):
        poses.append(pose.node)
        return observe(world, pose, seed, tick)

    monkeypatch.setattr(harness, "observe", recorded)
    episodes = [(s, RunConfig(variant=v)) for v in VARIANTS for s in load_suite(stress_suite_dir())]
    # the first generated world of the benchmark's large-world seed 41, with its 32 instructions
    episodes += [(s, RunConfig(budget=40)) for s in workloads.large_scenarios(*next(workloads.large_worlds(41)))]
    episodes.append((load_scenario(golden_scenario_path()), RunConfig(budget=0)))  # only the start is observed
    reasons = []
    for scenario, config in episodes:
        poses.clear()
        terminal = run_episode(scenario, config).terminal
        reasons.append(terminal["reason"])
        oracle = min(geodesic_distance(scenario.world, n, scenario.goal_node) for n in poses)
        assert terminal["min_goal_distance"] == oracle, (scenario.id, config.variant)
    assert len(episodes) == 150 + 32 + 1
    assert sum(reason.startswith("error:") for reason in reasons[:150]) == 4
