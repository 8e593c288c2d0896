"""Evidence aggregation: observations, the workflow and the executor
registry fold into evidence packets on a fixed cadence.

Asynchrony is modeled as a deterministic cadence (default: every 2 ticks,
kept by the harness); the planner acts only on emitted packets, so it can
be working from stale evidence between emissions exactly like a planner
behind a real monitor. The monitor reads neither memory nor executor
status: the planner takes those directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .contracts import ClauseMatch, Workflow, evaluate_clauses
from .executors import ExecutorRegistry, effective_tags
from .world import Anchor, Observation, WorldState
# perfbench/tracer.py counts geodesic_distance calls through each module's name
from .world import geodesic_distance  # noqa: F401

CONTRADICTION_STREAK = 3
FITNESS_TRANSFER_THRESHOLD = 0.5


@dataclass(frozen=True)
class Discovery:
    """A live anchor that fully satisfies a downstream handoff clause; the
    stage index names the stage that boundary unlocks."""

    stage: int
    match: ClauseMatch


@dataclass(frozen=True)
class ContradictionCue:
    stage: int
    assumption: str
    conflicting: str
    streak: int


@dataclass(frozen=True)
class EvidencePacket:
    tick: int
    a: tuple[Anchor, ...]
    d: tuple[Discovery, ...]
    u: tuple[ContradictionCue, ...]
    q: float
    scene_tags: tuple[str, ...]
    degraded: dict[str, tuple[str, ...]]


def scene_tags(world: WorldState, visible, goal_region: str) -> tuple[str, ...]:
    """Context tags of visible region anchors plus the active goal region."""
    tags: set[str] = set(world.tags_for_region(goal_region))
    for anchor in visible:
        if anchor.kind in ("room", "pose-region"):
            tags.update(world.tags_for_region(world.region_of(anchor.node)))
    return tuple(sorted(tags))


def fitness_from_tags(profile_tags: frozenset[str], scene: tuple[str, ...]) -> float:
    """Set-overlap ratio between executor context tags and scene tags."""
    scene_set = set(scene)
    union = profile_tags | scene_set
    if not union:
        return 1.0
    return len(profile_tags & scene_set) / len(union)


def boundary_discoveries(workflow: Workflow, anchors, now: int) -> tuple[Discovery, ...]:
    """Scan every handoff boundary at or beyond the frontier for live anchors
    that fully satisfy its clauses. A match of boundary i is tagged with the
    stage it unlocks (i + 1), so every discovery cites a stage > frontier."""
    found: list[Discovery] = []
    for i in range(workflow.frontier, len(workflow.contracts)):
        report = evaluate_clauses(workflow.contracts[i].handoff, anchors, [], now)
        for match in report.matched:
            if match.provenance == "live":
                found.append(Discovery(stage=i + 1, match=match))
    return tuple(found)


def trailing_streaks(history: list, workflow: Workflow) -> dict[int, tuple[str, int]]:
    """Trailing consecutive-emission streak of contradiction sightings per
    stage, computed from a history of anchor snapshots (oldest first)."""
    streaks: dict[int, tuple[str, int]] = {}
    for j in range(workflow.frontier, len(workflow.contracts)):
        labels = workflow.contracts[j].contradicts
        if not labels:
            continue
        streak = 0
        latest = ""
        for anchors in reversed(history):
            seen = sorted({a.label for a in anchors if a.label in labels})
            if not seen:
                break
            streak += 1
            if not latest:
                latest = seen[0]
        if streak:
            streaks[j] = (latest, streak)
    return streaks


def detect_contradiction(history: list, workflow: Workflow) -> tuple[ContradictionCue, ...]:
    """Cues for stages whose excluded anchor classes have been visible for at
    least CONTRADICTION_STREAK consecutive monitor emissions."""
    cues = []
    for stage, (label, streak) in sorted(trailing_streaks(history, workflow).items()):
        if streak >= CONTRADICTION_STREAK:
            cues.append(
                ContradictionCue(
                    stage=stage,
                    assumption=workflow.contracts[stage].goal.target,
                    conflicting=label,
                    streak=streak,
                )
            )
    return tuple(cues)


@dataclass
class Monitor:
    """Per-episode monitor: the anchor history behind contradiction streaks."""

    world: WorldState
    registry: ExecutorRegistry
    anchor_history: list = field(default_factory=list)

    def aggregate(self, obs: Observation, workflow: Workflow, tick: int) -> EvidencePacket:
        self.anchor_history.append(obs.visible)
        tags = scene_tags(self.world, obs.visible, workflow.active().goal.region)
        kind = self.registry.current.kind if self.registry.current else ""
        if kind:
            q = fitness_from_tags(effective_tags(kind, self.registry.degraded_tags), tags)
        else:
            q = 1.0

        return EvidencePacket(
            tick=tick,
            a=obs.visible,
            d=boundary_discoveries(workflow, obs.visible, tick),
            u=detect_contradiction(self.anchor_history, workflow),
            q=q,
            scene_tags=tags,
            degraded={k: tuple(v) for k, v in sorted(self.registry.degraded_tags.items())},
        )
