"""Acceptance suite: one test per criterion, one printed verdict per
criterion. The shared fixture runs the golden scenario plus the full
30-scenario stress suite under all five planner variants exactly once.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import pytest

from contextflow.board import (
    Trace,
    audit_trace,
    classify_record,
    parse_trace,
    replay_inputs,
    serialize_trace,
    update_sequence,
)
from contextflow.harness import RunConfig, run_episode, run_suite
from contextflow.metrics import EpisodeMetrics, aggregate_suite, format_pct, score_episode
from contextflow.scenario import (
    golden_scenario_path,
    load_scenario,
    load_suite,
    stress_suite_dir,
)
from contextflow.world import build_world

from test_metrics import fake_metrics, synthetic_scenario, synthetic_trace
from test_world import brute_force_distance, random_world_spec

VARIANTS = (
    "contextflow",
    "termination-follower",
    "no-promoter",
    "full-replanner",
    "fixed-executor",
)

PAIRINGS = {
    "handoff": "termination-follower",
    "promotion": "no-promoter",
    "repair": "full-replanner",
    "executor-context": "fixed-executor",
}


@dataclass
class Context:
    golden_trace: Trace
    golden_seconds: float
    suite_seconds: float
    scenarios: list
    labels: list[str]
    traces: dict[str, list[Trace]]      # variant -> trace per scenario
    reports: dict
    metrics: dict[str, list[EpisodeMetrics]]


@pytest.fixture(scope="module")
def ctx() -> Context:
    golden = load_scenario(golden_scenario_path())
    start = time.perf_counter()
    golden_trace = run_episode(golden, RunConfig())
    golden_seconds = time.perf_counter() - start

    scenarios = load_suite(stress_suite_dir())
    start = time.perf_counter()
    traces = {
        variant: [run_episode(s, RunConfig(variant=variant)) for s in scenarios]
        for variant in VARIANTS
    }
    suite_seconds = time.perf_counter() - start

    labels = [s.diagnostic_type for s in scenarios]
    metrics = {
        variant: [
            score_episode(t, s.world, s) for t, s in zip(traces[variant], scenarios)
        ]
        for variant in VARIANTS
    }
    reports = {v: aggregate_suite(metrics[v], labels) for v in VARIANTS}
    return Context(
        golden_trace=golden_trace,
        golden_seconds=golden_seconds,
        suite_seconds=suite_seconds,
        scenarios=scenarios,
        labels=labels,
        traces=traces,
        reports=reports,
        metrics=metrics,
    )


def _verdict(number: int, name: str, run) -> None:
    try:
        run()
    except AssertionError:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS")


def test_criterion_1_golden_trace(ctx):
    def run():
        assert ctx.golden_seconds < 1.0
        sequence = update_sequence(ctx.golden_trace)
        assert sequence == [
            "initialize/continue",
            "continue",
            "promote",
            "transfer",
            "refine",
            "complete",
        ]
        records = ctx.golden_trace.records
        transfer = next(r for r in records if r.selected_update.action == "transfer")
        assert transfer.executor_status.kind == "route-navigator"
        assert transfer.selected_update.payload["target_kind"] == "local-searcher"
        follower = records[records.index(transfer) + 1]
        assert follower.executor_status.kind == "local-searcher"
        # zero changes to any contract's goal, handoff, or expected evidence
        assert transfer.plan_diff.changed == ()

    _verdict(1, "golden trace", run)


def test_criterion_2_within_type_ordering(ctx):
    def run():
        from collections import Counter

        counts = Counter(ctx.labels)
        assert counts == {
            "handoff": 8,
            "promotion": 9,
            "repair": 7,
            "executor-context": 6,
        }
        for group, rival in PAIRINGS.items():
            ours = ctx.reports["contextflow"].within_type_sr[group]
            theirs = ctx.reports[rival].within_type_sr[group]
            assert ours is not None and theirs is not None
            assert ours > theirs, f"{group}: {ours} !> {theirs} ({rival})"
        assert ctx.suite_seconds < 30.0

    _verdict(2, "within-type ordering", run)


def test_criterion_3_repair_scoping(ctx):
    def run():
        repair_ids = [i for i, s in enumerate(ctx.scenarios) if s.diagnostic_type == "repair"]
        assert repair_ids
        for i in repair_ids:
            ours = ctx.traces["contextflow"][i]
            repairs = [r for r in ours.records if r.selected_update.action == "repair"]
            assert repairs, f"{ctx.scenarios[i].id}: contextflow issued no repair"
            violations = [
                v for v in audit_trace(ours) if v.check == "repair-prefix-preservation"
            ]
            assert violations == []
            theirs = ctx.traces["full-replanner"][i]
            broken = [
                v for v in audit_trace(theirs) if v.check == "repair-prefix-preservation"
            ]
            assert broken, f"{ctx.scenarios[i].id}: full-replanner produced no violation"

    _verdict(3, "repair scoping", run)


def _ungated_promotes(trace: Trace) -> int:
    count = 0
    for record, workflow, memory_entries in replay_inputs(trace):
        state = record.executor_status.report.state
        _, reports = classify_record(record, workflow, memory_entries)
        satisfied = reports[workflow.frontier].satisfied
        if state == "done" and not satisfied and record.selected_update.action == "promote":
            count += 1
    return count


def test_criterion_4_handoff_blocking(ctx):
    def run():
        for trace in ctx.traces["contextflow"] + [ctx.golden_trace]:
            assert _ungated_promotes(trace) == 0
            blocking = [
                v
                for v in audit_trace(trace)
                if v.check == "unsupported-handoff-blocking"
            ]
            assert blocking == []
        for i, scenario in enumerate(ctx.scenarios):
            if scenario.diagnostic_type != "handoff":
                continue
            assert _ungated_promotes(ctx.traces["termination-follower"][i]) >= 1

    _verdict(4, "handoff blocking", run)


def test_criterion_5_metrics_oracle(ctx):
    def run():
        assert 1 * 10 / max(12, 10) == 0.8333333333333334
        for seed in range(20):
            rng = random.Random(9000 + seed)
            spec = random_world_spec(rng, n=7)
            world = build_world(spec)
            ids = sorted(world.nodes)
            start, goal, final = rng.sample(ids, 3)
            scenario = synthetic_scenario(spec, start, goal)
            shortest = brute_force_distance(spec, start, goal)
            traveled = shortest + rng.choice([0.0, 2.0, 5.0])
            ne_oracle = brute_force_distance(spec, final, goal)
            trace = synthetic_trace(
                scenario,
                final,
                traveled,
                min(ne_oracle, shortest),
                stopped=True,
                frontier=2,
            )
            metrics = score_episode(trace, world, scenario)
            assert abs(metrics.ne - ne_oracle) <= 1e-9
            progress_oracle = max(0.0, min(1.0, (shortest - ne_oracle) / shortest))
            assert abs(metrics.progress - progress_oracle) <= 1e-9
            success = 1 if ne_oracle <= scenario.success_radius else 0
            spl_oracle = success * shortest / max(traveled, shortest)
            assert abs(metrics.spl - spl_oracle) <= 1e-9

    _verdict(5, "metrics oracle", run)


def test_criterion_6_determinism(ctx):
    def run():
        golden = load_scenario(golden_scenario_path())
        assert serialize_trace(run_episode(golden, RunConfig())) == serialize_trace(
            run_episode(golden, RunConfig())
        )
        for i in (0, 11, 24):
            scenario = ctx.scenarios[i]
            for variant in ("contextflow", "full-replanner"):
                cfg = RunConfig(variant=variant)
                assert serialize_trace(run_episode(scenario, cfg)) == serialize_trace(
                    ctx.traces[variant][i]
                ), f"{scenario.id}/{variant} not reproducible"
        natural = run_suite(stress_suite_dir(), ["contextflow"])
        permuted = run_suite(
            stress_suite_dir(), ["contextflow"], order=list(range(29, -1, -1))
        )
        assert natural.reports == permuted.reports

    _verdict(6, "determinism", run)


def test_criterion_7_audit_replay(ctx):
    def run():
        shipped = [ctx.golden_trace] + [
            trace for variant in VARIANTS for trace in ctx.traces[variant]
        ]
        for trace in shipped:
            reparsed = parse_trace(serialize_trace(trace))
            drift = [v for v in audit_trace(reparsed) if v.check == "decision-replay"]
            assert drift == [], f"{trace.header['scenario']}/{trace.header['variant']}"

    _verdict(7, "audit replay", run)


def test_criterion_8_aggregation_arithmetic(ctx):
    def run():
        twelve_of_thirty = aggregate_suite(
            [fake_metrics(1)] * 12 + [fake_metrics(0)] * 18, ["handoff"] * 30
        )
        assert format_pct(twelve_of_thirty.sr) == "40.00%"
        five_of_eight = aggregate_suite(
            [fake_metrics(1)] * 5 + [fake_metrics(0)] * 3, ["handoff"] * 8
        )
        assert format_pct(five_of_eight.within_type_sr["handoff"]) == "62.50%"

    _verdict(8, "aggregation arithmetic", run)
