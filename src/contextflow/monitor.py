"""Evidence aggregation: observations, the workflow and the executor
registry fold into evidence packets on a fixed cadence.

Asynchrony is modeled as a deterministic cadence (default: every 2 ticks,
kept by the harness); the planner acts only on emitted packets, so it can
be working from stale evidence between emissions exactly like a planner
behind a real monitor. The monitor reads neither memory nor executor
status: the planner takes those directly. The replay folds each recorded
`Evidence` in by the run's rule (`Monitor.fold`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .contracts import ClauseMatch, Workflow, live_pass
from .executors import ExecutorRegistry, effective_tags
from .world import Anchor, Observation, WorldState
# perfbench/tracer.py counts geodesic_distance calls through each module's name
from .world import geodesic_distance  # noqa: F401

CONTRADICTION_STREAK = 3
FITNESS_TRANSFER_THRESHOLD = 0.5


@dataclass
class Discovery:
    """A live anchor that fully satisfies a downstream handoff clause; the
    stage index names the stage that boundary unlocks. Plain, as
    `world.Anchor` is."""

    stage: int
    match: ClauseMatch


@dataclass(frozen=True)
class ContradictionCue:
    stage: int
    conflicting: str
    streak: int


@dataclass
class Evidence:
    """What a monitor emission records: the planner's inputs that nothing
    else recorded derives, unlike its tick. Plain, as `world.Anchor` is."""

    a: tuple[Anchor, ...]
    scene_tags: tuple[str, ...]
    degraded: dict[str, tuple[str, ...]]


@dataclass
class EvidencePacket(Evidence):
    """One monitor emission: the recorded evidence, its tick, cues `u` and
    fitness `q` (`Monitor.fold`) and, in the run, its discoveries `d`
    (`discoveries` of its `boundary_live`), which the harness remembers."""

    tick: int
    u: tuple[ContradictionCue, ...]
    q: float
    d: tuple[Discovery, ...] = ()

    def recorded(self) -> Evidence:
        """The evidence alone, as a board record holds it."""
        return Evidence(self.a, self.scene_tags, self.degraded)


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


def boundary_live(workflow: Workflow, anchors) -> dict[int, tuple]:
    """The `live_pass` of every handoff boundary at or beyond the frontier,
    by boundary index."""
    return {
        i: live_pass(workflow.contracts[i].handoff, anchors)
        for i in range(workflow.frontier, len(workflow.contracts))
    }


def discoveries(live: dict[int, tuple]) -> tuple[Discovery, ...]:
    """The matches of a `boundary_live`, boundary by boundary in clause
    order. A match of boundary i is tagged with the stage it unlocks
    (i + 1), so every discovery cites a stage > frontier."""
    return tuple(
        Discovery(i + 1, outcome)
        for i, outcomes in live.items()
        for outcome in outcomes
        if type(outcome) is ClauseMatch
    )


def sighting(anchors, labels: tuple[str, ...]) -> str | None:
    """The least of `labels` that one of `anchors` shows, or None."""
    return min((a.label for a in anchors if a.label in labels), default=None)


def trailing_streaks(history: list, labels: tuple[str, ...]) -> tuple[str, int]:
    """The trailing streak of one `contradicts` label tuple over a history of
    anchor snapshots (oldest first): how many of the newest snapshots in a
    row show one of `labels`, and the `sighting` of the newest ("" for no
    streak). This is the rule; `Monitor` advances it one snapshot at a time
    and calls this only to rebuild a streak it did not carry."""
    streak = 0
    for anchors in reversed(history):
        if sighting(anchors, labels) is None:
            break
        streak += 1
    return (sighting(history[-1], labels) if streak else ""), streak


def _cues(streaks: dict[int, tuple[str, int]]) -> tuple[ContradictionCue, ...]:
    """Cues for the stages whose streak reaches CONTRADICTION_STREAK
    consecutive monitor emissions, in the order of `streaks` (by stage)."""
    return tuple(
        ContradictionCue(stage=stage, conflicting=label, streak=streak)
        for stage, (label, streak) in streaks.items()
        if streak >= CONTRADICTION_STREAK
    )


@dataclass
class Monitor:
    """Per-episode monitor: the anchor history behind contradiction streaks,
    the running streak of each `contradicts` label tuple with the emission
    it was last advanced at, and the `boundary_live` of the latest packet,
    which the planner's boundary reports reuse. The run and the replay both
    `fold` every emission in."""

    anchor_history: list = field(default_factory=list)
    streaks: dict[tuple[str, ...], tuple[int, str, int]] = field(default_factory=dict)
    live: dict[int, tuple] = field(default_factory=dict)

    def aggregate(
        self, obs: Observation, workflow: Workflow, tick: int, world: WorldState, registry: ExecutorRegistry
    ) -> EvidencePacket:
        """The emission of `obs` at `tick`, folded in, with its discoveries."""
        tags = scene_tags(world, obs.visible, workflow.active().goal.region)
        degraded = {k: tuple(v) for k, v in sorted(registry.degraded_tags.items())}
        packet = self.fold(Evidence(obs.visible, tags, degraded), tick, registry.current.kind, workflow)
        packet.d = discoveries(self.live)
        return packet

    def fold(self, evidence: Evidence, tick: int, kind: str, workflow: Workflow) -> EvidencePacket:
        """The packet of `evidence` at `tick` for a `kind` executor on
        `workflow`: the anchors join the history, the live pass is made, the
        running streaks give `u`, and the kind's effective tags and the
        scene's give `q`."""
        self.anchor_history.append(evidence.a)
        self.live = boundary_live(workflow, evidence.a)
        u = self._contradictions(workflow)
        q = fitness_from_tags(effective_tags(kind, evidence.degraded), evidence.scene_tags)
        return EvidencePacket(evidence.a, evidence.scene_tags, evidence.degraded, tick, u, q)

    def _contradictions(self, workflow: Workflow) -> tuple[ContradictionCue, ...]:
        """Cues for stages at or past the frontier whose `contradicts` labels
        have been visible for at least CONTRADICTION_STREAK consecutive
        emissions (`test_monitor.detect_contradiction` reads each streak from
        the whole history), at a constant cost per stage: a label tuple's
        streak that was advanced at the previous emission is advanced by the
        newest snapshot; any other (first seen, brought by a repair, or left
        stale below the frontier) is rebuilt once by `trailing_streaks`."""
        history = self.anchor_history
        now = len(history)
        streaks = {}
        for j in range(workflow.frontier, len(workflow.contracts)):
            labels = workflow.contracts[j].contradicts
            if not labels:
                continue
            at, latest, streak = self.streaks.get(labels, (-1, "", 0))
            if at == now - 1:
                seen = sighting(history[-1], labels)
                latest, streak = ("", 0) if seen is None else (seen, streak + 1)
            elif at != now:
                latest, streak = trailing_streaks(history, labels)
            self.streaks[labels] = now, latest, streak
            streaks[j] = latest, streak
        return _cues(streaks)
