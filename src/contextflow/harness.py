"""Episode loop and batch runner with seeded deterministic replay.

Per tick: the executor acts on the previous observation, the world applies
the action, a fresh observation lands in memory, and on monitor ticks the
planner is consulted exactly once and one board record is emitted. Episodes
terminate on STOP, budget exhaustion, or the frontier passing the last
stage (at which point the harness issues the final STOP itself).

Episodes share no mutable state: scenario and world values are immutable,
so suite order never affects any individual trace.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .alignment import PlannerSession
from .board import Trace, emit_record, make_header, serialize_trace
from .contracts import compile_instruction
from .errors import ContextFlowError
from .memory import MemoryEntry, MemoryState, record_event
from .metrics import EpisodeMetrics, SuiteReport, aggregate_suite, score_episode
from .monitor import Monitor
from .executors import ExecutorRegistry
from .scenario import Scenario, instantiate_faults, load_suite
from .world import Anchor, apply_action, geodesic_distance, observe

DEFAULT_CADENCE = 2  # ticks between planner consultations


@dataclass(frozen=True)
class RunConfig:
    variant: str = "contextflow"
    seed: int | None = None
    budget: int | None = None
    cadence: int = DEFAULT_CADENCE


def run_episode(scenario: Scenario, cfg: RunConfig, inspect=None) -> Trace:
    """Run one episode to termination and return its trace.

    `inspect`, when given, is called with (workflow, memory, registry) just
    before the terminal line is written; tests use it to examine episode
    state that the trace does not carry.
    """
    world = scenario.world
    seed = scenario.seed if cfg.seed is None else cfg.seed
    budget = scenario.budget if cfg.budget is None else cfg.budget
    cadence = cfg.cadence

    workflow = compile_instruction(scenario.stages)
    mem = MemoryState()
    registry = ExecutorRegistry(world)
    faults = instantiate_faults(scenario, registry)
    session = PlannerSession(cfg.variant, scenario.stages)
    monitor = Monitor(world, registry)
    trace = Trace(
        header=make_header(scenario.id, cfg.variant, seed, budget, cadence, scenario.stages)
    )

    pose = scenario.start
    traveled = 0.0
    blocked_streak = 0
    min_goal = geodesic_distance(world, pose.node, scenario.goal_node)
    stopped = False
    reason = "budget"
    tick = 0
    fired_log: list[str] = []

    def remember_observation(obs, tick_now: int) -> None:
        for anchor in obs.visible:
            record_event(
                mem,
                MemoryEntry(
                    tick=tick_now,
                    kind="observation-anchor",
                    stage_index=workflow.frontier,
                    anchor=anchor,
                    region=world.region_of(anchor.node),
                ),
            )

    def consult(obs, status, tick_now: int) -> None:
        nonlocal stopped, reason, pose
        packet = monitor.aggregate(obs, workflow, tick_now)
        for discovery in packet.d:
            record_event(
                mem,
                MemoryEntry(
                    tick=tick_now,
                    kind="discovery",
                    stage_index=discovery.stage,
                    anchor=Anchor(
                        discovery.match.anchor_label,
                        discovery.match.clause.kind,
                        discovery.match.confidence,
                        discovery.match.anchor_node,
                    ),
                    region=world.region_of(discovery.match.anchor_node),
                ),
            )
        record_event(
            mem,
            MemoryEntry(
                tick=tick_now,
                kind="progress-cue",
                stage_index=workflow.frontier,
                tag=f"progress={status.progress:.2f}",
            ),
        )
        executor = registry.current
        kind = executor.kind if executor else ""
        ident = executor.ident if executor else ""
        result = session.consult(
            workflow, packet, status, mem, registry, pose, obs, tick_now
        )
        emit_record(
            trace,
            tick_now,
            scenario.id,
            result,
            packet,
            kind,
            ident,
            status,
        )
        if workflow.is_complete():
            pose = apply_action(world, pose, "STOP")
            stopped = True
            reason = "completed"

    try:
        obs = observe(world, pose, seed, 0)
        remember_observation(obs, 0)
        first = workflow.active()
        registry.spawn_for_stage(first.compatible[0], first, pose, obs, mem.all_entries())
        faults.poll(0, obs, workflow, registry)
        status = registry.current.status
        consult(obs, status, 0)

        last_state = status.state
        while not stopped and tick < budget:
            tick += 1
            fired_log.extend(faults.poll(tick, obs, workflow, registry))
            executor = registry.current
            action, status = executor.step(obs)
            prev_node = pose.node
            if action is not None:
                pose = apply_action(world, pose, action)
            if pose.node != prev_node:
                traveled += world.adjacency[prev_node][pose.node]
                blocked_streak = 0
            elif action == "FORWARD":
                blocked_streak += 1
                if blocked_streak == 3:
                    record_event(
                        mem,
                        MemoryEntry(
                            tick=tick,
                            kind="recovery-event",
                            stage_index=workflow.frontier,
                            tag="blocked",
                        ),
                    )
            else:
                blocked_streak = 0
            obs = observe(world, pose, seed, tick)
            remember_observation(obs, tick)
            if status.state != last_state:
                record_event(
                    mem,
                    MemoryEntry(
                        tick=tick,
                        kind="executor-feedback",
                        stage_index=workflow.frontier,
                        tag=f"{executor.kind}:{status.state}",
                    ),
                )
                last_state = status.state
            min_goal = min(min_goal, geodesic_distance(world, pose.node, scenario.goal_node))
            if action == "STOP":
                stopped = True
                reason = "stopped"
                break
            if tick % cadence == 0 and not workflow.is_complete():
                consult(obs, status, tick)
    except ContextFlowError as exc:
        reason = f"error:{type(exc).__name__}"
        record_event(
            mem,
            MemoryEntry(
                tick=tick,
                kind="failure-point",
                stage_index=min(workflow.frontier, workflow.last_index()),
                tag=type(exc).__name__,
            ),
        )

    if inspect is not None:
        inspect(workflow, mem, registry)
    trace.terminal = {
        "reason": reason,
        "tick": tick,
        "node": pose.node,
        "heading": pose.heading,
        "frontier": workflow.frontier,
        "steps": tick,
        "traveled": traveled,
        "min_goal_distance": min_goal,
        "stopped": stopped,
        "faults_fired": fired_log,
    }
    return trace


@dataclass
class SuiteResult:
    reports: dict[str, SuiteReport]
    metrics: dict[str, list[EpisodeMetrics]]
    labels: list[str]


def run_suite(
    suite_dir: str | Path,
    variants: list[str],
    seed: int | None = None,
    budget: int | None = None,
    cadence: int = DEFAULT_CADENCE,
    out_dir: str | Path | None = None,
    order: list[int] | None = None,
) -> SuiteResult:
    """Run every (scenario, variant) pair with identical episode order and
    seeds; optionally persist traces and per-variant reports."""
    scenarios = load_suite(suite_dir)
    indices = list(range(len(scenarios))) if order is None else list(order)
    labels = [scenarios[i].diagnostic_type for i in sorted(indices)]
    result = SuiteResult(reports={}, metrics={}, labels=labels)
    out = Path(out_dir) if out_dir is not None else None
    for variant in variants:
        cfg = RunConfig(variant=variant, seed=seed, budget=budget, cadence=cadence)
        per_scenario: dict[int, EpisodeMetrics] = {}
        for i in indices:
            scenario = scenarios[i]
            trace = run_episode(scenario, cfg)
            per_scenario[i] = score_episode(trace, scenario.world, scenario)
            if out is not None:
                variant_dir = out / variant
                variant_dir.mkdir(parents=True, exist_ok=True)
                path = variant_dir / f"{scenario.id}.cftrace"
                path.write_text(serialize_trace(trace), encoding="utf-8")
        ordered = [per_scenario[i] for i in sorted(per_scenario)]
        result.metrics[variant] = ordered
        result.reports[variant] = aggregate_suite(ordered, labels)
        if out is not None:
            report_path = out / f"report_{variant}.json"
            report_path.write_text(
                json.dumps(result.reports[variant].to_json(), indent=2, sort_keys=True)
                + "\n",
                encoding="utf-8",
            )
    return result
