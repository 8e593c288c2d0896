"""Deterministic graph world: nodes, edges, anchors, poses, and observations.

The world is a small undirected graph with coordinates in abstract units.
Anchors (objects, rooms, landmarks) sit on nodes and are visible within a
geodesic radius; observed confidence decays linearly with distance and is
perturbed by a small seeded noise term so that downstream evidence checks
see graded, reproducible values. `observe` quantizes each confidence to
`CONFIDENCE_DECIMALS` decimals, so memory, evidence, the executors and the
board all carry the one value it reports, on a 0.001 grid.

Building a world computes no shortest paths. Each query runs a Dijkstra from
its own source only as far as it needs (see `_Search`): distances up to their
targets, an observation past the largest anchor radius, `nearest` to the first
member of its node set. Lengths sum from the source, so d(a, b) and d(b, a)
can differ in the last bits: every search is rooted where the query starts,
never at its target. No search outlives its query. The world stores answers
only: the distance per (source, target), the node path per (start, goal), the
visible anchors per node, and the executor plans that call `nearest`.
`distances` reads many targets of one source and runs one search for those
it has no answer for yet; `geodesic_distance` is that reader with one target.

Searches run over node indices, not ids. On its first search a world numbers
its nodes in id order and lists each node's neighbours as (index, length) in
`adjacency` order (`WorldState._indexed`), so heap keys and tie-breaks compare
as the ids do and every float sum is the same sum. While its query runs, a
search holds flat arrays with one slot per node of the world (distances as
doubles and, for a path, predecessors as ints) plus its settled indices; ids
are converted only where a query enters or returns.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import threading
from array import array
from dataclasses import dataclass, field

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
CONFIDENCE_DECIMALS = 3

# Stored entries that the memoized answers of one world may hold: each
# distance answer counts once; each node path, visibility list and executor
# plan counts one per node or anchor, plus one. The oldest items are evicted
# past the bound. No search is stored, so a query's search arrays never count.
TREE_CACHE_ENTRIES = 2_000_000


@dataclass
class NodeSpec:
    id: str
    region: str
    x: float
    y: float


@dataclass
class EdgeSpec:
    a: str
    b: str
    length: float


@dataclass
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


@dataclass
class Anchor:
    """A grounded cue: object, room, landmark, or pose-region.

    Built for every visible anchor on every tick and never changed, so it is
    a plain dataclass: a frozen one sets each field through
    `object.__setattr__`, which makes it about four times as dear to build.
    The other values built per tick or per consultation (`Observation`,
    `memory.MemoryEntry`, `monitor.EvidencePacket` and `Discovery`, and the
    clause outcomes and reports of `contracts`) are plain for the same
    reason, as are the specs built per scenario line (`NodeSpec`,
    `EdgeSpec`, `AnchorSpec`), thousands for a large world."""

    label: str
    kind: str
    confidence: float
    node: str


@dataclass
class Observation:
    tick: int
    pose: Pose
    visible: tuple[Anchor, ...]


class WorldState:
    """Validated world. The graph is immutable once built.

    The answers of its queries are made on first use and memoized in a
    cache bounded by `TREE_CACHE_ENTRIES`, oldest item out first: the
    distance per (source, target) of `distances` and `geodesic_distance`,
    the node path of `shortest_node_path` per (start, goal), the visible
    anchors per source node, and executor plans per (region, start node).
    The cache holds answers only; each search is built fresh for one query
    and dropped when it returns. Items depend only on the graph and their
    key, so eviction changes no result. A world is safe to share across
    threads: the cache changes only under its lock, and no search is shared.
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
        self._trees: dict[tuple, float | tuple] = {}
        self._tree_entries = 0
        self._tree_lock = threading.Lock()
        self._index: tuple | None = None

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

    def _indexed(self) -> tuple[tuple[str, ...], dict[str, int], tuple]:
        """(ids, index, edges): the node ids in id order, each id's index, and
        per index its neighbours as (index, length) in `adjacency` order.
        Built on first use; two racing builds are equal, and one store
        publishes the whole."""
        if self._index is None:
            ids = tuple(sorted(self.nodes))
            index = {nid: i for i, nid in enumerate(ids)}
            edges = tuple(tuple((index[o], d) for o, d in self.adjacency[nid].items()) for nid in ids)
            self._index = (ids, index, edges)
        return self._index

    def _memo(self, build, *args):
        """`build(self, *args)`, memoized; of two racing builds the first stored wins."""
        key = (build, *args)
        item = self._trees.get(key)
        if item is None:
            item = self._store(key, build(self, *args))
        return item

    def _store(self, key: tuple, item):
        """Store `item` under `key` unless an item is stored there, count it
        and evict the oldest items past the bound; the stored item."""
        with self._tree_lock:
            if key not in self._trees:
                self._trees[key] = item
                self._tree_entries += _entries(item)
                while self._tree_entries > TREE_CACHE_ENTRIES and len(self._trees) > 1:
                    self._tree_entries -= _entries(self._trees.pop(next(iter(self._trees))))
            return self._trees[key]


def _entries(item) -> int:
    """The entries a stored item counts: one for a distance, one per member
    plus one for a tuple."""
    return len(item) + 1 if isinstance(item, tuple) else 1


class _Search:
    """Dijkstra from one source, resumed only as far as queries need. Heap
    keys are (distance, index); a route replaces another only when shorter by
    over `tolerance` (0 for distances; 1e-12 for paths, so that of two
    near-equal routes the first popped stays), so the pops so far are a prefix
    of the full run. `order` holds the settled indices in pop order; `dist`
    (inf where unreached) and `prev` (for paths) also hold tentative values.
    `reach`, the last settled distance (-1 at first), only grows: a reached
    node no farther is final."""

    def __init__(self, world: WorldState, source: str, tolerance: float):
        self.world = world
        self.tolerance = tolerance
        ids, index, _ = world._indexed()
        start = index[source]
        self.dist = array("d", [math.inf]) * len(ids)
        self.dist[start] = 0.0
        self.prev = array("i", [0]) * len(ids) if tolerance else None
        self.order = array("i")
        self.heap = [(0.0, start)]
        self.reach = -1.0

    def _resume(self, nodes, bound: float) -> None:
        """Settle nodes while `reach` is within `bound`, until a member of
        the index set `nodes` settles or none is left."""
        heap, dist, prev, order, tolerance = self.heap, self.dist, self.prev, self.order, self.tolerance
        edges = self.world._index[2]
        while heap and self.reach <= bound:
            d, node = heapq.heappop(heap)
            if d > dist[node]:
                continue
            order.append(node)
            for other, length in edges[node]:
                nd = d + length
                if nd < dist[other] - tolerance:
                    dist[other] = nd
                    if prev is not None:
                        prev[other] = node
                    heapq.heappush(heap, (nd, other))
            self.reach = d
            if node in nodes:
                break

    def distance(self, node: str) -> float:
        """Final distance of `node` (inf if unreachable)."""
        i = self.world._index[1][node]
        if self.dist[i] > self.reach:
            self._resume((i,), self.dist[i])
        return self.dist[i]

    def nearest(self, nodes) -> str | None:
        """The member of the id set `nodes` least by (distance, id), or None:
        the first settled one, unless another settles at its distance."""
        ids, index, _ = self.world._index
        targets = {index[n] for n in nodes if n in index}
        order, dist = self.order, self.dist
        best, i = None, 0
        while True:
            if i == len(order):
                self._resume(targets, math.inf if best is None else dist[best])
                if i == len(order):
                    return None if best is None else ids[best]
            if best is not None and dist[order[i]] > dist[best]:
                return ids[best]
            if order[i] in targets and (best is None or order[i] < best):
                best = order[i]
            i += 1


def _visible(world: WorldState, node: str) -> tuple[tuple[AnchorSpec, float], ...]:
    """Anchors within their radius of `node`, each with its noiseless
    confidence clamp(1 - d/r, 0, 1), final once the search has settled past
    the largest radius; in `observe`'s order, by (label, node), then anchor
    order."""
    search = _Search(world, node, 0.0)
    search._resume((), max((a.radius for a in world.anchors), default=-1.0))
    dist, index = search.dist, world._index[1]
    seen = [
        (a, max(0.0, min(1.0, 1.0 - d / a.radius)))
        for a in world.anchors
        if (d := dist[index[a.node]]) <= a.radius
    ]
    seen.sort(key=lambda pair: (pair[0].label, pair[0].node))
    return tuple(seen)


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
        if not 0 < a.radius < math.inf:
            raise InvalidAnchor(f"anchor {a.label!r} has radius {a.radius}")
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


def distances(world: WorldState, source: str, targets) -> list[float]:
    """Exact shortest-path lengths from `source` to each of `targets`, in
    order. Each answer is memoized under (`distances`, source, target); those
    not stored yet are read from one fresh search rooted at `source`, which
    is stored nowhere."""
    for node in (source, *targets):
        if node not in world.nodes:
            raise UnknownNode(node)
    search = None
    found = []
    for target in targets:
        d = world._trees.get((distances, source, target))
        if d is None:
            if search is None:
                search = _Search(world, source, 0.0)
            d = world._store((distances, source, target), search.distance(target))
        found.append(d)
    return found


def geodesic_distance(world: WorldState, a: str, b: str) -> float:
    """Exact shortest-path length from `a` to `b`, rooted at `a`."""
    return distances(world, a, (b,))[0]


def nearest(world: WorldState, source: str, nodes) -> str | None:
    """Member of the set `nodes` least by (distance from `source`, id), or None."""
    return _Search(world, source, 0.0).nearest(nodes)


def _noise(prefix, label: str) -> float:
    """Seeded uniform noise in [-0.05, +0.05), stable across platforms: from
    the sha256 of `seed|tick|node|heading|label`, given `prefix`, the hash of
    all but the label."""
    digest = prefix.copy()
    digest.update(label.encode())
    unit = int.from_bytes(digest.digest()[:8], "big") / float(1 << 64)
    return unit * (2 * NOISE_AMPLITUDE) - NOISE_AMPLITUDE


def observe(world: WorldState, pose: Pose, seed: int, tick: int) -> Observation:
    """Observation at `pose`: every anchor within its radius, by (label,
    node), with confidence clamp(1 - d/r, 0, 1) plus seeded noise, clamped
    back into [0, 1] and rounded to `CONFIDENCE_DECIMALS` decimals.
    """
    if pose.node not in world.nodes or pose.heading not in HEADINGS:
        raise InvalidPose(f"{pose}")
    visible: list[Anchor] = []
    seen = world._memo(_visible, pose.node)
    prefix = hashlib.sha256(f"{seed}|{tick}|{pose.node}|{pose.heading}|".encode()) if seen else None
    for spec, base in seen:
        conf = round(max(0.0, min(1.0, base + _noise(prefix, spec.label))), CONFIDENCE_DECIMALS)
        visible.append(Anchor(spec.label, spec.kind, conf, spec.node))
    return Observation(tick=tick, pose=pose, visible=tuple(visible))


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
        return Pose(target, pose.heading)
    if action in ("LEFT", "RIGHT"):
        idx = HEADINGS.index(pose.heading)
        idx = (idx - 1) % 4 if action == "LEFT" else (idx + 1) % 4
        return Pose(pose.node, HEADINGS[idx])
    if action == "STOP":
        return pose
    raise InvalidPose(f"unknown action {action!r}")


def heading_toward(world: WorldState, node: str, target: str) -> str:
    """Heading that moves from `node` to adjacent `target`."""
    return _direction(world.nodes[node], world.nodes[target])


def _path(world: WorldState, start: str, goal: str) -> tuple[str, ...]:
    """The node path start..goal, walked back along the predecessors of a
    fresh search that is stored nowhere."""
    search = _Search(world, start, 1e-12)
    if search.distance(goal) == math.inf:
        raise DisconnectedGraph(f"no path {start!r} -> {goal!r}")
    ids, index, _ = world._index
    path = [index[goal]]
    while ids[path[-1]] != start:
        path.append(search.prev[path[-1]])
    return tuple(ids[i] for i in reversed(path))


def shortest_node_path(world: WorldState, start: str, goal: str) -> list[str]:
    """Shortest node path start..goal (inclusive); ties break on node id. A
    new list each call, so a walker may consume it; the stored path stays."""
    for node in (start, goal):
        if node not in world.nodes:
            raise UnknownNode(node)
    return list(world._memo(_path, start, goal))
