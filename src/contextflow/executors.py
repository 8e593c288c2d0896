"""Synthetic specialist executors: route navigator, local searcher, endpoint
approacher.

Each executor runs its own closed loop against observations and reports a
local status. Local completion criteria are deliberately weaker than
contract handoff conditions (the navigator stops at region entry, not at
interior evidence), so planner-level checks have real work to do.

Executor status never mutates the workflow; only the alignment layer does.
Plans come from the world's bounded cache; each executor walks its own copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .contracts import StageContract
from .errors import IncompatibleKind, NoAnchorToApproach
from .memory import MemoryEntry
from .world import (
    HEADINGS,
    Observation,
    Pose,
    WorldState,
    geodesic_distance,
    heading_toward,
    nearest,
    shortest_node_path,
)

ROUTE_NAVIGATOR = "route-navigator"
LOCAL_SEARCHER = "local-searcher"
ENDPOINT_APPROACHER = "endpoint-approacher"

EXECUTOR_KINDS = (ROUTE_NAVIGATOR, LOCAL_SEARCHER, ENDPOINT_APPROACHER)

SEARCH_DONE_THRESHOLD = 0.5
REROUTE_AFTER_BLOCKED = 3
ARRIVAL_RADIUS = 1.0  # the endpoint approacher stops this close to its anchor

# each kind's context tags, which the monitor's fitness q compares with the scene
PROFILES = {
    ROUTE_NAVIGATOR: frozenset({"route", "doorway"}),
    LOCAL_SEARCHER: frozenset({"room-local"}),
    ENDPOINT_APPROACHER: frozenset({"endpoint", "room-local"}),
}


def effective_tags(kind: str, degraded: dict[str, tuple[str, ...]]) -> frozenset[str]:
    """A kind's profile context tags minus the ones a fault degraded;
    `IncompatibleKind` for a kind that has no profile."""
    profile = PROFILES.get(kind)
    if profile is None:
        raise IncompatibleKind(f"unknown executor kind {kind!r}")
    return profile.difference(degraded.get(kind, ()))


@dataclass(frozen=True)
class Status:
    """An executor's report, as the planner reads it and a board record
    holds it: the state, which the decisions read, and the progress, which
    the retry steps read."""

    state: str  # running | done | failed | blocked
    progress: float


def _rotation_toward(current: str, wanted: str) -> str:
    steps = (HEADINGS.index(wanted) - HEADINGS.index(current)) % 4
    return "LEFT" if steps == 3 else "RIGHT"


def _route(world: WorldState, region: str, start: str) -> tuple[str, ...]:
    best = nearest(world, start, set(world.region_nodes(region)))
    return (start,) if best is None else tuple(shortest_node_path(world, start, best))


def _sweep(world: WorldState, region: str, start: str) -> tuple[str, ...]:
    pending, order = set(world.region_nodes(region)), [start]
    while pending:
        order.append(nearest(world, order[-1], pending))
        pending.discard(order[-1])
    return tuple(order[1:])


class _PathWalker:
    """Shared plan-following with blocked-edge detection and reroute."""

    def __init__(self, world: WorldState):
        self.world = world
        self.set_path([])

    def set_path(self, path: list[str]) -> None:
        self.remaining = list(path)
        self.blocked_streak = 0
        self._expected: str | None = None

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

    def __init__(self, contract: StageContract, world: WorldState):
        self.world = world
        self.target_label = contract.goal.target
        self.region = contract.goal.region
        self.walker = _PathWalker(world)
        self.forced_done = False
        self.ignore_target_until = -1
        self.status = Status("running", 0.0)

    # fault hooks ---------------------------------------------------------
    def force_done(self) -> None:
        self.forced_done = True

    def ignore_target(self, until_tick: int) -> None:
        self.ignore_target_until = until_tick

    def misground(self, new_label: str) -> None:
        self.target_label = new_label

    # ---------------------------------------------------------------------
    def step(self, obs: Observation) -> tuple[str | None, Status]:
        raise NotImplementedError


class RouteNavigator(ExecutorInstance):
    """Routes to the stage goal region; local done criterion is region entry."""

    kind = ROUTE_NAVIGATOR

    def __init__(self, contract, world, pose: Pose):
        super().__init__(contract, world)
        self.walker.set_path(self._plan(pose.node))
        self._initial_len = max(len(self.walker.remaining) - 1, 1)

    def _plan(self, start: str) -> list[str]:
        return list(self.world._memo(_route, self.region, start))

    def step(self, obs: Observation) -> tuple[str | None, Status]:
        here = obs.pose.node
        if self.forced_done or self.world.region_of(here) == self.region:
            self.status = Status("done", 1.0)
            return None, self.status
        action = self.walker.walk(obs)
        if action is None:
            # plan exhausted outside the region: replan once, else fail
            self.walker.set_path(self._plan(here))
            action = self.walker.walk(obs)
            if action is None:
                self.status = Status("failed", 0.0)
                return None, self.status
        left = len(self.walker.remaining)
        progress = max(0.0, min(1.0, 1.0 - left / self._initial_len))
        if action == "FORWARD" and self.walker.remaining:
            nxt = self.walker.remaining[0]
            if self.world.region_of(nxt) == self.region:
                self.status = Status("done", 1.0)
                return action, self.status
        state = "blocked" if self.walker.blocked_streak > 0 else "running"
        self.status = Status(state, progress)
        return action, self.status


class LocalSearcher(ExecutorInstance):
    """Sweeps the goal region in a greedy nearest-first visit order; reports
    done once the target label is visible above its local threshold."""

    kind = LOCAL_SEARCHER

    def __init__(self, contract, world, pose: Pose):
        super().__init__(contract, world)
        self.visit_order: list[str] = []
        self._cursor = 0
        self._advance_plan(pose.node)  # sweeps from the start node

    def _sweep_order(self, start: str) -> list[str]:
        return list(self.world._memo(_sweep, self.region, start))

    def _advance_plan(self, here: str) -> None:
        if self._cursor >= len(self.visit_order):
            # region exhausted: start a fresh sweep from the current node
            self.visit_order = self._sweep_order(here)
            self._cursor = 0
        if self.visit_order:
            self.walker.set_path(
                shortest_node_path(self.world, here, self.visit_order[self._cursor])
            )

    def step(self, obs: Observation) -> tuple[str | None, Status]:
        seen = any(a.label == self.target_label and a.confidence > SEARCH_DONE_THRESHOLD for a in obs.visible)
        if self.forced_done or (seen and obs.tick >= self.ignore_target_until):
            self.status = Status("done", 1.0)
            return None, self.status
        here = obs.pose.node
        if self._cursor < len(self.visit_order) and here == self.visit_order[self._cursor]:
            self._cursor += 1
            self._advance_plan(here)
        action = self.walker.walk(obs)
        if action is None:
            self._advance_plan(here)
            action = self.walker.walk(obs)
        progress = self._cursor / max(len(self.visit_order), 1)  # the cursor never passes the order
        state = "blocked" if self.walker.blocked_streak > 0 else "running"
        self.status = Status(state, progress)
        return action, self.status


class EndpointApproacher(ExecutorInstance):
    """Locks the strongest anchor matching the goal label and closes in;
    issues STOP within `ARRIVAL_RADIUS` of it."""

    kind = ENDPOINT_APPROACHER

    def __init__(
        self,
        contract,
        world,
        pose: Pose,
        obs: Observation | None = None,
        memory_entries: Sequence[MemoryEntry] = (),
    ):
        super().__init__(contract, world)
        self.locked_node = self._lock(obs, memory_entries)
        self.walker.set_path(shortest_node_path(world, pose.node, self.locked_node))
        self._initial = max(geodesic_distance(world, pose.node, self.locked_node), 1e-9)

    def _lock(self, obs, memory_entries) -> str:
        live = [] if obs is None else [a for a in obs.visible if a.label == self.target_label]
        if live:
            return max(live, key=lambda a: (a.confidence, a.node)).node
        remembered = [e for e in memory_entries if e.anchor.label == self.target_label]
        if remembered:
            return max(remembered, key=lambda e: (e.tick, e.anchor.confidence, e.seq)).anchor.node
        raise NoAnchorToApproach(self.target_label)

    def step(self, obs: Observation) -> tuple[str | None, Status]:
        here = obs.pose.node
        dist = geodesic_distance(self.world, here, self.locked_node)
        if self.forced_done or dist <= ARRIVAL_RADIUS:
            self.status = Status("done", 1.0)
            return "STOP", self.status
        action = self.walker.walk(obs)
        if action is None:
            self.walker.set_path(shortest_node_path(self.world, here, self.locked_node))
            action = self.walker.walk(obs)
        progress = max(0.0, min(1.0, 1.0 - dist / self._initial))
        state = "blocked" if self.walker.blocked_streak > 0 else "running"
        self.status = Status(state, progress)
        return action, self.status


def spawn(
    kind: str,
    contract: StageContract,
    world: WorldState,
    pose: Pose,
    obs: Observation | None = None,
    memory_entries: Sequence[MemoryEntry] = (),
) -> ExecutorInstance:
    """Create an executor instance with its own local plan."""
    if kind not in EXECUTOR_KINDS:
        raise IncompatibleKind(kind)
    if kind not in contract.compatible:
        raise IncompatibleKind(f"{kind} not compatible with stage {contract.name!r}")
    if kind == ROUTE_NAVIGATOR:
        return RouteNavigator(contract, world, pose)
    if kind == LOCAL_SEARCHER:
        return LocalSearcher(contract, world, pose)
    return EndpointApproacher(contract, world, pose, obs, memory_entries)


@dataclass
class ExecutorRegistry:
    """Per-episode executor lifecycle: one live instance, fault-degraded
    context tags, and misgroundings waiting for a spawn."""

    world: WorldState
    current: ExecutorInstance | None = None
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
        instance = spawn(kind, contract, self.world, pose, obs, memory_entries)
        if kind in self.pending_misground:
            src, dst = self.pending_misground[kind]
            if instance.target_label == src:
                instance.misground(dst)
                del self.pending_misground[kind]
        self.current = instance
        return instance

    def degrade(self, kind: str, tags: tuple[str, ...]) -> None:
        existing = set(self.degraded_tags.get(kind, ()))
        existing.update(tags)
        self.degraded_tags[kind] = tuple(sorted(existing))
