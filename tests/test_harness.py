"""Episode-loop and batch-runner tests."""

from __future__ import annotations

from contextflow.board import classify_record, parse_trace, replay_inputs, serialize_trace, update_sequence
from contextflow.harness import RunConfig, run_episode, run_suite
from contextflow.metrics import score_episode
from contextflow.scenario import (
    golden_scenario_path,
    load_scenario,
    load_suite,
    stress_suite_dir,
)

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


def test_suite_order_permutation_changes_nothing(tmp_path):
    natural = run_suite(stress_suite_dir(), ["contextflow"], out_dir=tmp_path / "a")
    reversed_order = run_suite(
        stress_suite_dir(),
        ["contextflow"],
        out_dir=tmp_path / "b",
        order=list(range(29, -1, -1)),
    )
    assert natural.reports["contextflow"] == reversed_order.reports["contextflow"]
    for path in sorted((tmp_path / "a" / "contextflow").glob("*.cftrace")):
        other = tmp_path / "b" / "contextflow" / path.name
        assert path.read_text(encoding="utf-8") == other.read_text(encoding="utf-8")


def test_episode_order_and_seeds_identical_across_variants():
    suite = load_suite(stress_suite_dir())
    sample = suite[0]
    for variant in ("contextflow", "no-promoter"):
        trace = run_episode(sample, RunConfig(variant=variant))
        assert trace.header["seed"] == sample.seed
        assert trace.header["scenario"] == sample.id


def workflow_snapshot_invariants(record):
    contracts = record.workflow["contracts"]
    frontier = record.workflow["frontier"]
    statuses = [c["status"] for c in contracts]
    if frontier < len(contracts):
        assert statuses.count("active") == 1
        assert statuses[frontier] == "active"
    for status in statuses[:frontier]:
        assert status in ("done", "done-evidence-promoted")
    for status in statuses[frontier + 1 :]:
        assert status in ("pending", "repaired-out")


def test_workflow_invariants_hold_on_every_consultation():
    golden = load_scenario(golden_scenario_path())
    traces = [run_episode(golden, RunConfig())]
    for scenario in load_suite(stress_suite_dir())[:6]:
        traces.append(run_episode(scenario, RunConfig()))
    frontier_history = []
    for trace in traces:
        last = 0
        for record in trace.records:
            workflow_snapshot_invariants(record)
            frontier = record.workflow["frontier"]
            if record.selected_update.action != "repair":
                assert frontier >= last
            last = frontier


def test_suite_level_metric_invariants():
    result = run_suite(stress_suite_dir(), ["contextflow", "termination-follower"])
    for variant, report in result.reports.items():
        assert report.spl <= report.sr + 1e-12
        assert report.osr >= report.sr - 1e-12


def test_memory_corroborated_boundary_match_in_shipped_corpus():
    scenario = load_scenario(stress_suite_dir() / "promotion_05.scn")
    trace = run_episode(scenario, RunConfig())
    matches = []
    for record, workflow, memory_entries in replay_inputs(trace):
        _, reports = classify_record(record, workflow, memory_entries)
        for report in reports.values():
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
    promote = next(r for r in trace.records if r.selected_update.action == "promote")
    frontier = promote.workflow["frontier"]
    discoveries = promote.live_evidence.d
    tagged = {(d.stage, d.match.anchor_label) for d in discoveries}
    assert (1, "hallway") in tagged
    assert (2, "double-doors") in tagged
    assert all(stage > frontier for stage, _ in tagged)


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
    blocked = [r for r in trace.records if r.executor_status.report.state == "blocked"]
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
