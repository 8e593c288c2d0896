"""Deterministic graph world: nodes, edges, anchors, poses, and observations.

The world is a small undirected graph with coordinates in abstract units.
Anchors (objects, rooms, landmarks) sit on nodes and are visible within a
geodesic radius; observed confidence decays linearly with distance and is
perturbed by a small seeded noise term so that downstream evidence checks
see graded, reproducible values.

Building a world computes no shortest paths. Distances, path trees and
per-node visibility are computed from the query's own source on first use
and memoized on the world (see `WorldState`). A path length is summed from
its source outward, so d(a, b) and d(b, a) can differ in the last bits:
every tree is rooted where the query starts, never at its target.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import threading
from dataclasses import dataclass, field, replace

from .errors import (
    DisconnectedGraph,
    DuplicateId,
    InvalidAnchor,
    InvalidPose,
    NonPositiveEdge,
    UnknownNode,
)

HEADINGS = ("N", "E", "S", "W")
ANCHOR_KINDS = ("object", "room", "landmark", "pose-region")

NOISE_AMPLITUDE = 0.05

# Stored entries (distances, predecessors, visible anchors, plus one per
# tree) that the memoized trees of one world may hold; the oldest trees are
# evicted past it. A traced pass over a 900-node world touches about 580
# distance sources, which fit without eviction; a 10k-node world holds about
# 200 full trees.
TREE_CACHE_ENTRIES = 2_000_000


@dataclass(frozen=True)
class NodeSpec:
    id: str
    region: str
    x: float
    y: float


@dataclass(frozen=True)
class EdgeSpec:
    a: str
    b: str
    length: float


@dataclass(frozen=True)
class AnchorSpec:
    """Placement of a named anchor: visible within `radius` of `node`."""

    label: str
    kind: str
    node: str
    radius: float


@dataclass(frozen=True)
class WorldSpec:
    nodes: tuple[NodeSpec, ...]
    edges: tuple[EdgeSpec, ...]
    objects: tuple[AnchorSpec, ...]
    region_tags: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class Pose:
    node: str
    heading: str


@dataclass(frozen=True)
class Anchor:
    """A grounded cue: object, room, landmark, or pose-region."""

    label: str
    kind: str
    confidence: float
    node: str


@dataclass(frozen=True)
class Observation:
    tick: int
    pose: Pose
    visible: tuple[Anchor, ...]
    blocked: bool


class WorldState:
    """Validated world. The graph is immutable once built.

    Trees rooted at one source node (its distance map, its shortest-path
    predecessors, the anchors visible from it) are built on first use and
    memoized in a cache bounded by `TREE_CACHE_ENTRIES`, oldest tree out
    first. A tree depends only on the graph and its source, so eviction
    changes no result, and a world stays safe to share across episodes and
    threads: cache updates hold a lock, and a lookup never sees a partial
    tree.
    """

    def __init__(self, spec: WorldSpec):
        self.spec = spec
        self.nodes = {n.id: n for n in spec.nodes}
        self.adjacency: dict[str, dict[str, float]] = {n.id: {} for n in spec.nodes}
        for e in spec.edges:
            self.adjacency[e.a][e.b] = e.length
            self.adjacency[e.b][e.a] = e.length
        self.anchors = tuple(spec.objects)
        self.region_tags = {r: tuple(tags) for r, tags in spec.region_tags.items()}
        regions: dict[str, list[str]] = {}
        for nid in sorted(self.nodes):
            regions.setdefault(self.nodes[nid].region, []).append(nid)
        self._regions = {r: tuple(ids) for r, ids in regions.items()}
        self._trees: dict[tuple, dict | tuple] = {}
        self._tree_entries = 0
        self._tree_lock = threading.Lock()

    def region_of(self, node: str) -> str:
        return self.nodes[node].region

    def region_nodes(self, region: str) -> tuple[str, ...]:
        """Nodes of `region` in id order."""
        return self._regions.get(region, ())

    def tags_for_region(self, region: str) -> tuple[str, ...]:
        return self.region_tags.get(region, ())

    def neighbor_in_heading(self, node: str, heading: str) -> str | None:
        """Neighbor reached by moving in `heading`, or None if no such edge.

        When several neighbors classify to the same heading, the closest one
        wins; remaining ties break on node id.
        """
        best: tuple[float, str] | None = None
        origin = self.nodes[node]
        for other, length in self.adjacency[node].items():
            if _direction(origin, self.nodes[other]) != heading:
                continue
            key = (length, other)
            if best is None or key < best:
                best = key
        return best[1] if best else None

    def _memo(self, build, source: str):
        """`build(self, source)`, memoized."""
        key = (build, source)
        tree = self._trees.get(key)
        if tree is None:
            tree = build(self, source)
            with self._tree_lock:
                if key not in self._trees:
                    self._trees[key] = tree
                    self._tree_entries += len(tree) + 1
                    while self._tree_entries > TREE_CACHE_ENTRIES and len(self._trees) > 1:
                        oldest = self._trees.pop(next(iter(self._trees)))
                        self._tree_entries -= len(oldest) + 1
        return tree


def _distances(world: WorldState, source: str) -> dict[str, float]:
    """Dijkstra from `source`, relaxing edges in adjacency order with a plain `<`."""
    adjacency = world.adjacency
    dist = {source: 0.0}
    queue: list[tuple[float, str]] = [(0.0, source)]
    while queue:
        d, node = heapq.heappop(queue)
        if d > dist[node]:
            continue
        for other, length in adjacency[node].items():
            nd = d + length
            if nd < dist.get(other, math.inf):
                dist[other] = nd
                heapq.heappush(queue, (nd, other))
    return dist


def _predecessors(world: WorldState, source: str) -> dict[str, str]:
    """Shortest-path tree from `source` as node -> predecessor: a route
    replaces another only when shorter by over 1e-12, so of two near-equal
    routes the one popped first stays; equal heap keys pop in node-id order.
    Neighbour order cannot change the tree: one pop relaxes each neighbour
    at most once, independently of the others."""
    adjacency = world.adjacency
    dist = {source: 0.0}
    prev: dict[str, str] = {}
    queue: list[tuple[float, str]] = [(0.0, source)]
    while queue:
        d, node = heapq.heappop(queue)
        if d > dist[node]:
            continue
        for other, length in adjacency[node].items():
            nd = d + length
            if nd < dist.get(other, math.inf) - 1e-12:
                dist[other] = nd
                prev[other] = node
                heapq.heappush(queue, (nd, other))
    return prev


def _visible(world: WorldState, node: str) -> tuple[tuple[AnchorSpec, float], ...]:
    """Anchors within their radius of `node`, in anchor order, with their
    distance from `node`, read from `node`'s distance map."""
    dist = world._memo(_distances, node)
    return tuple((spec, dist[spec.node]) for spec in world.anchors if dist[spec.node] <= spec.radius)


def _direction(a: NodeSpec, b: NodeSpec) -> str:
    dx, dy = b.x - a.x, b.y - a.y
    if abs(dx) >= abs(dy):
        return "E" if dx > 0 else "W"
    return "N" if dy > 0 else "S"


def build_world(spec: WorldSpec) -> WorldState:
    """Validate a WorldSpec and return the immutable WorldState."""
    seen: set[str] = set()
    for n in spec.nodes:
        if n.id in seen:
            raise DuplicateId(f"duplicate node id {n.id!r}")
        seen.add(n.id)
    pairs: set[tuple[str, str]] = set()
    for e in spec.edges:
        if not 0 < e.length < math.inf:
            raise NonPositiveEdge(f"edge {e.a}-{e.b} has length {e.length}")
        if e.a not in seen or e.b not in seen:
            raise UnknownNode(f"edge {e.a}-{e.b} references unknown node")
        pair = (min(e.a, e.b), max(e.a, e.b))
        if pair in pairs or e.a == e.b:
            raise DuplicateId(f"duplicate or self edge {e.a}-{e.b}")
        pairs.add(pair)
    for a in spec.objects:
        if not a.label:
            raise InvalidAnchor("anchor with empty label")
        if a.node not in seen:
            raise UnknownNode(f"anchor {a.label!r} placed on unknown node {a.node!r}")
        if a.kind not in ANCHOR_KINDS:
            raise InvalidAnchor(f"anchor {a.label!r} has unknown kind {a.kind!r}")
    world = WorldState(spec)
    if spec.nodes:
        start = spec.nodes[0].id
        reachable = {start}
        queue = [start]
        for node in queue:
            for other in world.adjacency[node]:
                if other not in reachable:
                    reachable.add(other)
                    queue.append(other)
        missing = [n.id for n in spec.nodes if n.id not in reachable]
        if missing:
            raise DisconnectedGraph(f"nodes unreachable from {start!r}: {missing}")
    return world


def geodesic_distance(world: WorldState, a: str, b: str) -> float:
    """Exact shortest-path length from `a` to `b`, read from `a`'s tree."""
    if a not in world.nodes:
        raise UnknownNode(a)
    if b not in world.nodes:
        raise UnknownNode(b)
    return world._memo(_distances, a)[b]


def _noise(seed: int, tick: int, pose: Pose, label: str) -> float:
    """Seeded uniform noise in [-0.05, +0.05), stable across platforms."""
    material = f"{seed}|{tick}|{pose.node}|{pose.heading}|{label}".encode()
    digest = hashlib.sha256(material).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return unit * (2 * NOISE_AMPLITUDE) - NOISE_AMPLITUDE


def observe(world: WorldState, pose: Pose, seed: int, tick: int) -> Observation:
    """Observation at `pose`: every anchor within its radius, with confidence
    clamp(1 - d/r, 0, 1) plus seeded noise, clamped back into [0, 1].
    """
    if pose.node not in world.nodes or pose.heading not in HEADINGS:
        raise InvalidPose(f"{pose}")
    visible: list[Anchor] = []
    for spec, d in world._memo(_visible, pose.node):
        base = max(0.0, min(1.0, 1.0 - d / spec.radius))
        conf = max(0.0, min(1.0, base + _noise(seed, tick, pose, spec.label)))
        visible.append(Anchor(spec.label, spec.kind, conf, spec.node))
    visible.sort(key=lambda a: (a.label, a.node))
    blocked = world.neighbor_in_heading(pose.node, pose.heading) is None
    return Observation(tick=tick, pose=pose, visible=tuple(visible), blocked=blocked)


def apply_action(world: WorldState, pose: Pose, action: str) -> Pose:
    """Apply one low-level action.

    FORWARD moves along the edge matching the current heading (no-op when
    there is none); LEFT/RIGHT rotate by 90 degrees; STOP leaves the pose
    unchanged (episode termination is the harness's concern).
    """
    if pose.node not in world.nodes or pose.heading not in HEADINGS:
        raise InvalidPose(f"{pose}")
    if action == "FORWARD":
        target = world.neighbor_in_heading(pose.node, pose.heading)
        if target is None:
            return pose
        return replace(pose, node=target)
    if action in ("LEFT", "RIGHT"):
        idx = HEADINGS.index(pose.heading)
        idx = (idx - 1) % 4 if action == "LEFT" else (idx + 1) % 4
        return replace(pose, heading=HEADINGS[idx])
    if action == "STOP":
        return pose
    raise InvalidPose(f"unknown action {action!r}")


def heading_toward(world: WorldState, node: str, target: str) -> str:
    """Heading that moves from `node` to adjacent `target`."""
    return _direction(world.nodes[node], world.nodes[target])


def shortest_node_path(world: WorldState, start: str, goal: str) -> list[str]:
    """Shortest node path start..goal (inclusive); ties break on node id."""
    if start not in world.nodes:
        raise UnknownNode(start)
    if goal not in world.nodes:
        raise UnknownNode(goal)
    prev = world._memo(_predecessors, start)
    if goal != start and goal not in prev:
        raise DisconnectedGraph(f"no path {start!r} -> {goal!r}")
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    path.reverse()
    return path
