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
import sys
from dataclasses import dataclass
from pathlib import Path

from .alignment import PlannerSession, policy
from .board import Terminal, Trace, emit_record, make_header, serialize_trace, to_object
from .contracts import compile_instruction
from .errors import ContextFlowError, InvalidRunConfig
from .memory import LONG_KIND, SHORT_KIND, MemoryState, record_event
from .metrics import EpisodeMetrics, SuiteReport, aggregate_suite, score_episode
from .monitor import Monitor
from .executors import ExecutorRegistry
from .scenario import Scenario, instantiate_faults, load_suite
from .world import Anchor, WorldState, apply_action, geodesic_distance, observe

DEFAULT_CADENCE = 2  # ticks between planner consultations


def closest_approach(world: WorldState, nodes, goal: str) -> float:
    """Least `geodesic_distance(world, n, goal)` over the node set `nodes`,
    each distance rooted at its node as the terminal reports it.

    Only nodes near the goal need a search of their own: they are taken by
    their distance from the goal, read from one search rooted there, until
    that bound passes the best by more than rounding explains. A float
    Dijkstra distance is the float sum of at most N - 1 edges, so each
    direction is within gamma_N = N*eps / (1 - N*eps) of the true length,
    and a node whose goal-rooted bound exceeds best * (1 + 4*N*eps) is
    farther than best whichever way it is measured."""
    slack = 1 + 4 * len(world.nodes) * sys.float_info.epsilon
    best = float("inf")
    for bound, node in sorted((geodesic_distance(world, goal, n), n) for n in nodes):
        if bound > best * slack:
            break
        best = min(best, geodesic_distance(world, node, goal))
    return best


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
    state that the trace does not carry. A variant not in `VARIANTS` (see
    `alignment.policy`), a cadence below 1 or a budget below 0 (the config's,
    else the scenario's) raises `InvalidRunConfig` before the episode starts.
    """
    world = scenario.world
    seed = scenario.seed if cfg.seed is None else cfg.seed
    budget = scenario.budget if cfg.budget is None else cfg.budget
    cadence = cfg.cadence
    session = PlannerSession(policy(cfg.variant))
    if cadence < 1:
        raise InvalidRunConfig(f"cadence {cadence} is below 1")
    if budget < 0:
        raise InvalidRunConfig(f"budget {budget} is below 0")

    workflow = compile_instruction(scenario.stages)
    mem = MemoryState()
    registry = ExecutorRegistry(world)
    faults = instantiate_faults(scenario)
    monitor = Monitor()
    trace = Trace(
        header=make_header(scenario.id, cfg.variant, seed, budget, cadence, scenario.stages)
    )

    pose = scenario.start
    traveled = 0.0
    visited = {pose.node}
    stopped = False
    reason = "budget"
    tick = 0
    fired_log: list[str] = []

    def remember_observation(obs, tick_now: int) -> None:
        for anchor in obs.visible:
            record_event(mem, tick_now, SHORT_KIND, workflow.frontier, anchor, world.region_of(anchor.node))

    def consult(obs, status, tick_now: int) -> None:
        nonlocal stopped, reason, pose
        packet = monitor.aggregate(obs, workflow, tick_now, world, registry)
        for discovery in packet.d:
            match = discovery.match
            anchor = Anchor(match.anchor_label, match.clause.kind, match.confidence, match.anchor_node)
            record_event(mem, tick_now, LONG_KIND, discovery.stage, anchor, world.region_of(anchor.node))
        result = session.consult(workflow, packet, status, mem, registry, pose, obs, live=monitor.live)
        emit_record(trace, result)
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

        while not stopped and tick < budget:
            tick += 1
            fired_log.extend(faults.poll(tick, obs, workflow, registry))
            action, status = registry.current.step(obs)
            prev_node = pose.node
            if action is not None:
                pose = apply_action(world, pose, action)
            if pose.node != prev_node:
                traveled += world.adjacency[prev_node][pose.node]
            obs = observe(world, pose, seed, tick)
            remember_observation(obs, tick)
            visited.add(pose.node)
            if action == "STOP":
                stopped = True
                reason = "stopped"
                break
            if tick % cadence == 0 and not workflow.is_complete():
                consult(obs, status, tick)
    except ContextFlowError as exc:
        reason = f"error:{type(exc).__name__}"

    if inspect is not None:
        inspect(workflow, mem, registry)
    trace.terminal = to_object(
        Terminal(
            reason=reason,
            tick=tick,
            node=pose.node,
            heading=pose.heading,
            frontier=workflow.frontier,
            steps=tick,
            traveled=traveled,
            min_goal_distance=closest_approach(world, visited, scenario.goal_node),
            stopped=stopped,
            faults_fired=fired_log,
        )
    )
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
) -> SuiteResult:
    """Run every (scenario, variant) pair in `load_suite` order with
    identical seeds; optionally persist traces and per-variant reports. A
    variant not in `VARIANTS` raises `InvalidRunConfig` before any episode
    runs."""
    for variant in variants:
        policy(variant)
    scenarios = load_suite(suite_dir)
    labels = [scenario.diagnostic_type for scenario in scenarios]
    result = SuiteResult(reports={}, metrics={}, labels=labels)
    out = Path(out_dir) if out_dir is not None else None
    for variant in variants:
        cfg = RunConfig(variant=variant, seed=seed, budget=budget, cadence=cadence)
        metrics = []
        for scenario in scenarios:
            trace = run_episode(scenario, cfg)
            metrics.append(score_episode(trace, scenario.world, scenario))
            if out is not None:
                variant_dir = out / variant
                variant_dir.mkdir(parents=True, exist_ok=True)
                path = variant_dir / f"{scenario.id}.cftrace"
                path.write_text(serialize_trace(trace), encoding="utf-8")
        result.metrics[variant] = metrics
        result.reports[variant] = aggregate_suite(metrics, labels)
        if out is not None:
            report_path = out / f"report_{variant}.json"
            report_path.write_text(
                json.dumps(result.reports[variant].to_json(), indent=2, sort_keys=True)
                + "\n",
                encoding="utf-8",
            )
    return result
