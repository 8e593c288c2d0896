"""Synthetic specialist executors: route navigator, local searcher, endpoint
approacher.

Each executor runs its own closed loop against observations and reports a
local status. Local completion criteria are deliberately weaker than
contract handoff conditions (the navigator stops at region entry, not at
interior evidence), so planner-level checks have real work to do.

Executor status never mutates the workflow; only the alignment layer does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .contracts import StageContract
from .errors import IncompatibleKind, NoAnchorToApproach
from .memory import MemoryEntry
from .world import (
    Observation,
    Pose,
    WorldState,
    geodesic_distance,
    heading_toward,
    shortest_node_path,
)

ROUTE_NAVIGATOR = "route-navigator"
LOCAL_SEARCHER = "local-searcher"
ENDPOINT_APPROACHER = "endpoint-approacher"

EXECUTOR_KINDS = (ROUTE_NAVIGATOR, LOCAL_SEARCHER, ENDPOINT_APPROACHER)

SEARCH_DONE_THRESHOLD = 0.5
REROUTE_AFTER_BLOCKED = 3
DEFAULT_STOP_RADIUS = 1.0

HEADING_ORDER = ("N", "E", "S", "W")


@dataclass(frozen=True)
class ExecutorProfile:
    kind: str
    context_tags: frozenset[str]
    stop_radius: float | None = None


PROFILES = {
    ROUTE_NAVIGATOR: ExecutorProfile(ROUTE_NAVIGATOR, frozenset({"route", "doorway"})),
    LOCAL_SEARCHER: ExecutorProfile(LOCAL_SEARCHER, frozenset({"room-local"})),
    ENDPOINT_APPROACHER: ExecutorProfile(
        ENDPOINT_APPROACHER,
        frozenset({"endpoint", "room-local"}),
        stop_radius=DEFAULT_STOP_RADIUS,
    ),
}


def effective_tags(kind: str, degraded: dict[str, tuple[str, ...]]) -> frozenset[str]:
    """A kind's profile context tags minus the ones a fault degraded."""
    lost = degraded.get(kind, ())
    return frozenset(t for t in PROFILES[kind].context_tags if t not in lost)


@dataclass(frozen=True)
class StatusReport:
    state: str  # running | done | failed | blocked
    progress: float
    local_confidence: float
    note: str = ""


def _rotation_toward(current: str, wanted: str) -> str:
    steps = (HEADING_ORDER.index(wanted) - HEADING_ORDER.index(current)) % 4
    return "LEFT" if steps == 3 else "RIGHT"


class _PathWalker:
    """Shared plan-following with blocked-edge detection and reroute."""

    def __init__(self, world: WorldState):
        self.world = world
        self.remaining: list[str] = []
        self.blocked_streak = 0
        self._expected: str | None = None
        self.rerouted = False

    def set_path(self, path: list[str]) -> None:
        self.remaining = list(path)
        self.blocked_streak = 0
        self._expected = None

    def walk(self, obs: Observation) -> str | None:
        """Next action toward the plan terminus, or None when plan exhausted."""
        here = obs.pose.node
        if self._expected is not None:
            if here == self._expected:
                self.blocked_streak = 0
            else:
                self.blocked_streak += 1
                if self.blocked_streak >= REROUTE_AFTER_BLOCKED and self.remaining:
                    self.set_path(shortest_node_path(self.world, here, self.remaining[-1]))
                    self.rerouted = True
            self._expected = None
        while self.remaining and self.remaining[0] == here:
            self.remaining.pop(0)
        if not self.remaining:
            return None
        target = self.remaining[0]
        wanted = heading_toward(self.world, here, target)
        if obs.pose.heading != wanted:
            return _rotation_toward(obs.pose.heading, wanted)
        self._expected = target
        return "FORWARD"


class ExecutorInstance:
    kind: str = ""

    def __init__(self, contract: StageContract, world: WorldState, ident: str):
        self.contract = contract
        self.world = world
        self.ident = ident
        self.target_label = contract.goal.target
        self.forced_done = False
        self.ignore_target_until = -1
        self.status = StatusReport("running", 0.0, 0.0, "spawned")

    # fault hooks ---------------------------------------------------------
    def force_done(self) -> None:
        self.forced_done = True

    def ignore_target(self, until_tick: int) -> None:
        self.ignore_target_until = until_tick

    def misground(self, new_label: str) -> None:
        self.target_label = new_label

    # ---------------------------------------------------------------------
    def step(self, obs: Observation) -> tuple[str | None, StatusReport]:
        raise NotImplementedError


class RouteNavigator(ExecutorInstance):
    """Routes to the stage goal region; local done criterion is region entry."""

    kind = ROUTE_NAVIGATOR

    def __init__(self, contract, world, ident, pose: Pose):
        super().__init__(contract, world, ident)
        self.region = contract.goal.region
        self.walker = _PathWalker(world)
        self.walker.set_path(self._plan(pose.node))
        self._initial_len = max(len(self.walker.remaining) - 1, 1)

    def _plan(self, start: str) -> list[str]:
        nodes = self.world.region_nodes(self.region)
        if not nodes:
            return [start]
        best = min(nodes, key=lambda n: (geodesic_distance(self.world, start, n), n))
        return shortest_node_path(self.world, start, best)

    def step(self, obs: Observation) -> tuple[str | None, StatusReport]:
        if self.forced_done:
            self.status = StatusReport("done", 1.0, 1.0, "early-report")
            return None, self.status
        here = obs.pose.node
        if self.world.region_of(here) == self.region:
            self.status = StatusReport("done", 1.0, 1.0, "in-region")
            return None, self.status
        action = self.walker.walk(obs)
        if action is None:
            # plan exhausted outside the region: replan once, else fail
            self.walker.set_path(self._plan(here))
            action = self.walker.walk(obs)
            if action is None:
                self.status = StatusReport("failed", 0.0, 0.0, "no-route")
                return None, self.status
        note = "reroute" if self.walker.rerouted else "route"
        self.walker.rerouted = False
        left = len(self.walker.remaining)
        progress = max(0.0, min(1.0, 1.0 - left / self._initial_len))
        if action == "FORWARD" and self.walker.remaining:
            nxt = self.walker.remaining[0]
            if self.world.region_of(nxt) == self.region:
                self.status = StatusReport("done", 1.0, 1.0, "entering-region")
                return action, self.status
        state = "blocked" if self.walker.blocked_streak > 0 else "running"
        self.status = StatusReport(state, progress, 0.8, note)
        return action, self.status


class LocalSearcher(ExecutorInstance):
    """Sweeps the goal region in a greedy nearest-first visit order; reports
    done once the target label is visible above its local threshold."""

    kind = LOCAL_SEARCHER

    def __init__(self, contract, world, ident, pose: Pose):
        super().__init__(contract, world, ident)
        self.region = contract.goal.region
        self.walker = _PathWalker(world)
        self.visit_order = self._sweep_order(pose.node)
        self.visited: list[str] = []
        self._cursor = 0
        self._best_seen = 0.0
        self._advance_plan(pose.node)

    def _sweep_order(self, start: str) -> list[str]:
        pending = set(self.world.region_nodes(self.region))
        order: list[str] = []
        here = start
        while pending:
            nxt = min(pending, key=lambda n: (geodesic_distance(self.world, here, n), n))
            order.append(nxt)
            pending.discard(nxt)
            here = nxt
        return order

    def _advance_plan(self, here: str) -> None:
        if self._cursor >= len(self.visit_order):
            # region exhausted: start a fresh sweep from the current node
            self.visit_order = self._sweep_order(here)
            self.visited = []
            self._cursor = 0
        if self.visit_order:
            self.walker.set_path(
                shortest_node_path(self.world, here, self.visit_order[self._cursor])
            )

    def step(self, obs: Observation) -> tuple[str | None, StatusReport]:
        if self.forced_done:
            self.status = StatusReport("done", 1.0, self._best_seen, "early-report")
            return None, self.status
        target_conf = max(
            (a.confidence for a in obs.visible if a.label == self.target_label),
            default=0.0,
        )
        self._best_seen = max(self._best_seen, target_conf)
        suppressed = obs.tick < self.ignore_target_until
        if target_conf > SEARCH_DONE_THRESHOLD and not suppressed:
            self.status = StatusReport("done", 1.0, target_conf, "target-visible")
            return None, self.status
        here = obs.pose.node
        if self._cursor < len(self.visit_order) and here == self.visit_order[self._cursor]:
            self.visited.append(here)
            self._cursor += 1
            self._advance_plan(here)
        action = self.walker.walk(obs)
        if action is None:
            self._advance_plan(here)
            action = self.walker.walk(obs)
        total = max(len(self.visit_order), 1)
        progress = max(0.0, min(1.0, len(self.visited) / total))
        state = "blocked" if self.walker.blocked_streak > 0 else "running"
        self.status = StatusReport(state, progress, target_conf, "sweep")
        return action, self.status


class EndpointApproacher(ExecutorInstance):
    """Locks the strongest anchor matching the goal label and closes in;
    issues STOP when within its stop radius."""

    kind = ENDPOINT_APPROACHER

    def __init__(
        self,
        contract,
        world,
        ident,
        pose: Pose,
        obs: Observation | None = None,
        memory_entries: Sequence[MemoryEntry] = (),
    ):
        super().__init__(contract, world, ident)
        self.stop_radius = PROFILES[ENDPOINT_APPROACHER].stop_radius or DEFAULT_STOP_RADIUS
        self.locked_node, self.locked_confidence = self._lock(obs, memory_entries)
        self.walker = _PathWalker(world)
        self.walker.set_path(shortest_node_path(world, pose.node, self.locked_node))
        self._initial = max(geodesic_distance(world, pose.node, self.locked_node), 1e-9)

    def _lock(self, obs, memory_entries) -> tuple[str, float]:
        live = [] if obs is None else [a for a in obs.visible if a.label == self.target_label]
        if live:
            best = max(live, key=lambda a: (a.confidence, a.node))
            return best.node, best.confidence
        remembered = [
            e
            for e in memory_entries
            if e.anchor is not None and e.anchor.label == self.target_label
        ]
        if remembered:
            best_entry = max(remembered, key=lambda e: (e.tick, e.anchor.confidence, e.seq))
            return best_entry.anchor.node, best_entry.anchor.confidence
        raise NoAnchorToApproach(self.target_label)

    def step(self, obs: Observation) -> tuple[str | None, StatusReport]:
        here = obs.pose.node
        dist = geodesic_distance(self.world, here, self.locked_node)
        if self.forced_done or dist <= self.stop_radius:
            note = "early-report" if self.forced_done and dist > self.stop_radius else "arrived"
            self.status = StatusReport("done", 1.0, self.locked_confidence, note)
            return "STOP", self.status
        action = self.walker.walk(obs)
        if action is None:
            self.walker.set_path(shortest_node_path(self.world, here, self.locked_node))
            action = self.walker.walk(obs)
        progress = max(0.0, min(1.0, 1.0 - dist / self._initial))
        state = "blocked" if self.walker.blocked_streak > 0 else "running"
        self.status = StatusReport(state, progress, self.locked_confidence, "approach")
        return action, self.status


def spawn(
    kind: str,
    contract: StageContract,
    world: WorldState,
    pose: Pose,
    obs: Observation | None = None,
    memory_entries: Sequence[MemoryEntry] = (),
    ident: str = "",
) -> ExecutorInstance:
    """Create an executor instance with its own local plan."""
    if kind not in EXECUTOR_KINDS:
        raise IncompatibleKind(kind)
    if kind not in contract.compatible:
        raise IncompatibleKind(f"{kind} not compatible with stage {contract.name!r}")
    ident = ident or f"{kind}#0"
    if kind == ROUTE_NAVIGATOR:
        return RouteNavigator(contract, world, ident, pose)
    if kind == LOCAL_SEARCHER:
        return LocalSearcher(contract, world, ident, pose)
    return EndpointApproacher(contract, world, ident, pose, obs, memory_entries)


@dataclass
class ExecutorRegistry:
    """Per-episode executor lifecycle: one live instance, spawn ordinals,
    fault-degraded context tags, and misgroundings waiting for a spawn."""

    world: WorldState
    current: ExecutorInstance | None = None
    spawn_count: int = 0
    degraded_tags: dict[str, tuple[str, ...]] = field(default_factory=dict)
    pending_misground: dict[str, tuple[str, str]] = field(default_factory=dict)

    def spawn_for_stage(
        self,
        kind: str,
        contract: StageContract,
        pose: Pose,
        obs: Observation | None,
        memory_entries: Sequence[MemoryEntry] = (),
    ) -> ExecutorInstance:
        ident = f"{kind}#{self.spawn_count}"
        self.spawn_count += 1
        instance = spawn(kind, contract, self.world, pose, obs, memory_entries, ident)
        if kind in self.pending_misground:
            src, dst = self.pending_misground[kind]
            if instance.target_label == src:
                instance.misground(dst)
                del self.pending_misground[kind]
        self.current = instance
        return instance

    def despawn(self) -> None:
        self.current = None

    def degrade(self, kind: str, tags: tuple[str, ...]) -> None:
        existing = set(self.degraded_tags.get(kind, ()))
        existing.update(tags)
        self.degraded_tags[kind] = tuple(sorted(existing))
