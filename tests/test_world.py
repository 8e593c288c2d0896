"""World tests: construction, observation, actions, and geodesic distances
checked against an exhaustive path-enumeration oracle; the memoized searches
checked exactly against fresh per-call Dijkstra oracles."""

from __future__ import annotations

import hashlib
import heapq
import importlib
import math
import random
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from contextflow import executors as executors_module
from contextflow import world as world_module
from contextflow.board import serialize_trace
from contextflow.contracts import EvidenceClause, StageGoal, StageTemplate, compile_instruction
from contextflow.errors import (
    DisconnectedGraph,
    DuplicateId,
    InvalidAnchor,
    NonPositiveEdge,
    UnknownNode,
)
from contextflow.executors import LOCAL_SEARCHER, ROUTE_NAVIGATOR, spawn
from contextflow.harness import RunConfig, run_episode
from contextflow.scenario import golden_scenario_path, load_scenario, stress_suite_dir
from contextflow.world import (
    Anchor,
    AnchorSpec,
    EdgeSpec,
    NodeSpec,
    Observation,
    Pose,
    WorldSpec,
    apply_action,
    build_world,
    distances,
    geodesic_distance,
    nearest,
    observe,
    shortest_node_path,
)


def line_world(n=4, anchors=()):
    nodes = tuple(NodeSpec(f"n{i}", "room", i, 0) for i in range(n))
    edges = tuple(EdgeSpec(f"n{i}", f"n{i + 1}", 1.0) for i in range(n - 1))
    return build_world(WorldSpec(nodes=nodes, edges=edges, objects=tuple(anchors)))


def brute_force_distance(spec: WorldSpec, a: str, b: str) -> float:
    """Independent oracle: enumerate every simple path and take the minimum."""
    adjacency: dict[str, list[tuple[str, float]]] = {n.id: [] for n in spec.nodes}
    for e in spec.edges:
        adjacency[e.a].append((e.b, e.length))
        adjacency[e.b].append((e.a, e.length))
    best = [float("inf")]

    def walk(node, seen, total):
        if node == b:
            best[0] = min(best[0], total)
            return
        for other, length in adjacency[node]:
            if other not in seen:
                walk(other, seen | {other}, total + length)

    walk(a, {a}, 0.0)
    return best[0]


def random_world_spec(rng: random.Random, n=10) -> WorldSpec:
    nodes = tuple(
        NodeSpec(f"n{i}", "room", rng.randint(0, 20), rng.randint(0, 20)) for i in range(n)
    )
    edges = []
    pairs = set()
    for i in range(1, n):
        j = rng.randrange(i)
        pairs.add((min(i, j), max(i, j)))
        edges.append(EdgeSpec(f"n{i}", f"n{j}", rng.choice([1.0, 1.5, 2.0, 3.0])))
    for _ in range(n // 2):
        a, b = rng.sample(range(n), 2)
        if (min(a, b), max(a, b)) in pairs:
            continue
        pairs.add((min(a, b), max(a, b)))
        edges.append(EdgeSpec(f"n{a}", f"n{b}", rng.choice([1.0, 2.0, 4.0])))
    return WorldSpec(nodes=nodes, edges=tuple(edges), objects=())


def test_minimal_line_world_builds():
    world = line_world(4)
    assert len(world.nodes) == 4
    assert sum(len(v) for v in world.adjacency.values()) == 2 * 3


def test_zero_length_edge_rejected():
    nodes = (NodeSpec("a", "r", 0, 0), NodeSpec("b", "r", 1, 0))
    with pytest.raises(NonPositiveEdge):
        build_world(WorldSpec(nodes=nodes, edges=(EdgeSpec("a", "b", 0.0),), objects=()))


@pytest.mark.parametrize("length", [float("nan"), float("inf")])
def test_non_finite_edge_rejected(length):
    # such an edge would join the graph for the connectivity check but never
    # carry a finite shortest path
    nodes = (NodeSpec("a", "r", 0, 0), NodeSpec("b", "r", 1, 0))
    with pytest.raises(NonPositiveEdge):
        build_world(WorldSpec(nodes=nodes, edges=(EdgeSpec("a", "b", length),), objects=()))


def test_duplicate_node_id_rejected():
    nodes = (NodeSpec("a", "r", 0, 0), NodeSpec("a", "r", 1, 0))
    with pytest.raises(DuplicateId):
        build_world(WorldSpec(nodes=nodes, edges=(), objects=()))


@pytest.mark.parametrize(
    "anchor",
    [
        AnchorSpec("", "object", "a", 1.0),
        AnchorSpec("cup", "gadget", "a", 1.0),
        AnchorSpec("cup", "object", "a", float("nan")),
        AnchorSpec("cup", "object", "a", -3.0),
        AnchorSpec("cup", "object", "a", float("inf")),
        AnchorSpec("cup", "object", "a", 0.0),
    ],
    ids=["empty-label", "unknown-kind", "nan-radius", "negative-radius", "inf-radius", "zero-radius"],
)
def test_bad_anchor_raises_invalid_anchor(anchor):
    nodes = (NodeSpec("a", "r", 0, 0),)
    with pytest.raises(InvalidAnchor):
        build_world(WorldSpec(nodes=nodes, edges=(), objects=(anchor,)))


def test_disconnected_graph_rejected():
    nodes = (NodeSpec("a", "r", 0, 0), NodeSpec("b", "r", 1, 0), NodeSpec("c", "r", 5, 5))
    with pytest.raises(DisconnectedGraph):
        build_world(WorldSpec(nodes=nodes, edges=(EdgeSpec("a", "b", 1.0),), objects=()))


def test_golden_world_region_labels():
    scenario = load_scenario(golden_scenario_path())
    regions = {n.region for n in scenario.world.spec.nodes}
    assert regions == {"closet", "hallway", "doubledoor-room", "sink-room"}
    assert len(scenario.world.spec.nodes) == 12


def test_same_node_anchor_confidence_band():
    world = line_world(3, anchors=[AnchorSpec("sink", "object", "n0", 3.0)])
    for seed in range(40):
        obs = observe(world, Pose("n0", "E"), seed, 0)
        conf = obs.visible[0].confidence
        assert 0.95 <= conf <= 1.0


def test_observe_rounds_a_seventeen_digit_confidence_to_three_decimals():
    world = line_world(4, anchors=[AnchorSpec("sink", "object", "n3", 3.0)])
    pose = Pose("n1", "E")
    unrounded = 1.0 - 2.0 / 3.0 + noise_oracle(0, 5, pose, "sink")
    assert repr(unrounded) == "0.31659353777759774"  # 17 significant digits
    (anchor,) = observe(world, pose, 0, 5).visible
    assert anchor.confidence == 0.317
    assert repr(anchor.confidence) == "0.317"


def test_anchor_beyond_radius_invisible():
    world = line_world(6, anchors=[AnchorSpec("sink", "object", "n5", 2.0)])
    obs = observe(world, Pose("n0", "E"), 1, 0)
    assert obs.visible == ()


def test_observation_deterministic():
    world = line_world(4, anchors=[AnchorSpec("sink", "object", "n2", 3.0)])
    first = observe(world, Pose("n1", "E"), 7, 5)
    second = observe(world, Pose("n1", "E"), 7, 5)
    assert first == second


def test_forward_moves_along_heading():
    world = line_world(4)
    assert apply_action(world, Pose("n0", "E"), "FORWARD").node == "n1"


def test_blocked_forward_is_noop_and_flagged():
    world = line_world(4)
    pose = apply_action(world, Pose("n0", "N"), "FORWARD")
    assert pose.node == "n0"
    assert world.neighbor_in_heading(pose.node, pose.heading) is None


def test_four_lefts_identity():
    world = line_world(2)
    pose = Pose("n0", "E")
    for _ in range(4):
        pose = apply_action(world, pose, "LEFT")
    assert pose.heading == "E"


def test_geodesic_identity_and_line():
    world = line_world(4)
    assert geodesic_distance(world, "n1", "n1") == 0.0
    spec = world.spec
    assert geodesic_distance(world, "n0", "n3") == brute_force_distance(spec, "n0", "n3")
    assert geodesic_distance(world, "n0", "n3") == 3.0


def test_geodesic_unknown_node():
    world = line_world(3)
    with pytest.raises(UnknownNode):
        geodesic_distance(world, "n0", "nope")


def test_geodesic_matches_enumeration_oracle_on_random_graphs():
    for seed in range(20):
        rng = random.Random(seed)
        spec = random_world_spec(rng)
        world = build_world(spec)
        ids = [n.id for n in spec.nodes]
        for _ in range(6):
            a, b = rng.sample(ids, 2)
            assert geodesic_distance(world, a, b) == pytest.approx(
                brute_force_distance(spec, a, b), abs=1e-12
            )


def test_geodesic_symmetry_and_triangle_inequality():
    for seed in range(10):
        rng = random.Random(100 + seed)
        world = build_world(random_world_spec(rng, n=8))
        ids = sorted(world.nodes)
        for _ in range(10):
            a, b, c = rng.sample(ids, 3)
            ab = geodesic_distance(world, a, b)
            assert ab == geodesic_distance(world, b, a)
            assert ab <= geodesic_distance(world, a, c) + geodesic_distance(world, c, b) + 1e-12


def test_random_actions_never_leave_valid_poses():
    for seed in range(10):
        rng = random.Random(200 + seed)
        world = build_world(random_world_spec(rng, n=8))
        pose = Pose(sorted(world.nodes)[0], "N")
        for _ in range(60):
            action = rng.choice(["FORWARD", "LEFT", "RIGHT"])
            pose = apply_action(world, pose, action)
            assert pose.node in world.nodes
            assert pose.heading in ("N", "E", "S", "W")


def test_heading_tiebreak_prefers_closer_then_lower_id():
    # two neighbors both classify east of n0; the shorter edge wins
    nodes = (
        NodeSpec("n0", "r", 0, 0),
        NodeSpec("na", "r", 2.0, 0.5),
        NodeSpec("nb", "r", 1.0, -0.5),
    )
    edges = (EdgeSpec("n0", "na", 2.0), EdgeSpec("n0", "nb", 1.0))
    world = build_world(WorldSpec(nodes=nodes, edges=edges, objects=()))
    assert world.neighbor_in_heading("n0", "E") == "nb"
    # equal lengths fall back to node id order
    edges_eq = (EdgeSpec("n0", "na", 1.0), EdgeSpec("n0", "nb", 1.0))
    world_eq = build_world(WorldSpec(nodes=nodes, edges=edges_eq, objects=()))
    assert world_eq.neighbor_in_heading("n0", "E") == "na"


# -- lazy, source-exact trees --------------------------------------------------
#
# The oracles below are the world layer as it was before trees were memoized:
# a fresh Dijkstra from the query's source for every call. Float sums depend
# on edge order, so a tree rooted anywhere else can differ in the last bits;
# the comparisons are exact.


def dijkstra_oracle(world, source):
    """Full Dijkstra from `source`: adjacency order, plain `<` relaxation."""
    dist = {source: 0.0}
    queue = [(0.0, source)]
    while queue:
        d, node = heapq.heappop(queue)
        if d > dist.get(node, float("inf")):
            continue
        for other, length in world.adjacency[node].items():
            nd = d + length
            if nd < dist.get(other, float("inf")):
                dist[other] = nd
                heapq.heappush(queue, (nd, other))
    return dist


def path_oracle(world, start, goal):
    """Fresh Dijkstra per call: sorted neighbours, 1e-12 tolerance."""
    dist = {start: 0.0}
    prev = {}
    queue = [(0.0, start)]
    while queue:
        d, node = heapq.heappop(queue)
        if d > dist.get(node, float("inf")):
            continue
        for other in sorted(world.adjacency[node]):
            nd = d + world.adjacency[node][other]
            if nd < dist.get(other, float("inf")) - 1e-12:
                dist[other] = nd
                prev[other] = node
                heapq.heappush(queue, (nd, other))
    path = [goal]
    while path[-1] != start:
        path.append(prev[path[-1]])
    return path[::-1]


def noise_oracle(seed, tick, pose, label):
    """sha256 of the whole `seed|tick|node|heading|label`, hashed in one go."""
    digest = hashlib.sha256(f"{seed}|{tick}|{pose.node}|{pose.heading}|{label}".encode()).digest()
    amplitude = world_module.NOISE_AMPLITUDE
    return int.from_bytes(digest[:8], "big") / float(1 << 64) * (2 * amplitude) - amplitude


def observe_oracle(world, pose, seed, tick):
    """Scan every anchor with a full-Dijkstra distance from the pose; each
    confidence is rounded to 3 decimals."""
    dist = dijkstra_oracle(world, pose.node)
    visible = []
    for spec in world.anchors:
        d = dist[spec.node]
        if d > spec.radius:
            continue
        base = max(0.0, min(1.0, 1.0 - d / spec.radius))
        conf = max(0.0, min(1.0, base + noise_oracle(seed, tick, pose, spec.label)))
        visible.append(Anchor(spec.label, spec.kind, round(conf, 3), spec.node))
    visible.sort(key=lambda a: (a.label, a.node))
    return Observation(tick=tick, pose=pose, visible=tuple(visible))


def grid_spec(side, lengths, rng, anchors=()):
    width = len(str(side - 1))  # g{r}{c} alone would collide past 10 x 10

    def node(r, c):
        return f"g{r:0{width}}{c:0{width}}"

    nodes = tuple(NodeSpec(node(r, c), f"r{r // 4}{c // 4}", c, r) for r in range(side) for c in range(side))
    edges = [EdgeSpec(node(r, c), node(r, c + 1), rng.choice(lengths)) for r in range(side) for c in range(side - 1)]
    edges += [EdgeSpec(node(r, c), node(r + 1, c), rng.choice(lengths)) for r in range(side - 1) for c in range(side)]
    rng.shuffle(edges)
    return WorldSpec(nodes=nodes, edges=tuple(edges), objects=tuple(anchors))


def two_decimal_grid(seed=5):
    rng = random.Random(seed)
    return build_world(grid_spec(10, [round(rng.uniform(0.3, 2.0), 2) for _ in range(40)], rng))


def entries(item):
    """The entries the cache counts for a stored item: one for a distance
    answer, one per member plus one for a path, visibility list or plan."""
    return 1 if type(item) is float else len(item) + 1


def test_geodesic_is_rooted_at_its_source():
    world = two_decimal_grid()
    ids = sorted(world.nodes)
    oracle = {a: dijkstra_oracle(world, a) for a in ids}
    assert any(oracle[a][b] != oracle[b][a] for a in ids for b in ids)
    for a in ids:
        for b in ids:
            assert geodesic_distance(world, a, b) == oracle[a][b]


@pytest.mark.parametrize("lengths", [(1.0,), (0.1, 0.2, 0.3)], ids=["unit", "near-ties"])
def test_shortest_node_path_keeps_its_tie_breaks(lengths):
    rng = random.Random(11)
    world = build_world(grid_spec(7, lengths, rng))
    ids = sorted(world.nodes)
    for start in ids:
        for goal in ids:
            assert shortest_node_path(world, start, goal) == path_oracle(world, start, goal)


def test_observe_matches_the_full_anchor_scan():
    world = two_decimal_grid()
    ids = sorted(world.nodes)
    rng = random.Random(3)
    anchors = []
    for i in range(12):
        node, seen_from = rng.choice(ids), rng.choice(ids)
        # half the radii are an exact pose distance, so `d == radius` is hit
        radius = dijkstra_oracle(world, seen_from)[node] if i % 2 else rng.uniform(0.5, 6.0)
        anchors.append(AnchorSpec(f"a{i % 5}", "object", node, radius))
    world = build_world(replace(world.spec, objects=tuple(anchors)))
    for node in ids:
        for heading in ("N", "E"):
            pose = Pose(node, heading)
            assert observe(world, pose, 9, 4) == observe_oracle(world, pose, 9, 4)


def test_bounded_tree_cache_evicts_and_changes_no_trace(monkeypatch):
    def episodes():
        return [
            (load_scenario(golden_scenario_path()), "contextflow"),
            (load_scenario(stress_suite_dir() / "repair_02.scn"), "full-replanner"),
        ]

    def traces(episodes):
        return [serialize_trace(run_episode(s, RunConfig(variant=v))) for s, v in episodes]

    expected = traces(episodes())
    stores = Counter()
    store = world_module.WorldState._store

    def counted(world, key, item):
        if key[0] is distances and key not in world._trees:
            stores[world, key] += 1
        return store(world, key, item)

    monkeypatch.setattr(world_module.WorldState, "_store", counted)
    # one pass stores 85 and 97 entries in the two worlds
    monkeypatch.setattr(world_module, "TREE_CACHE_ENTRIES", 75)
    bounded = episodes()
    assert traces(bounded) == expected  # a cold pass
    assert traces(bounded) == expected  # and a warm one on the same worlds
    # some distance answer was stored, evicted, and stored again
    assert max(stores.values()) > 1


def test_build_world_computes_no_tree(monkeypatch):
    def refuse(*args):
        raise AssertionError("tree built while building the world")

    for name in ("_Search", "_visible"):
        monkeypatch.setattr(world_module, name, refuse)
    world = build_world(grid_spec(10, (1.0, 2.5), random.Random(1)))
    assert len(world.nodes) == 100 and world._index is None
    golden = load_scenario(golden_scenario_path()).world
    assert golden.region_nodes("sink-room") and golden._index is None
    nodes = tuple(NodeSpec(n, "r", i, 0) for i, n in enumerate("abcd"))
    with pytest.raises(DisconnectedGraph, match=r"unreachable from 'a': \['c', 'd'\]"):
        build_world(WorldSpec(nodes=nodes, edges=(EdgeSpec("a", "b", 1.0), EdgeSpec("c", "d", 1.0)), objects=()))


# a distance or path search is built fresh for its query and dropped
@pytest.mark.parametrize("tolerance, most", [(0.0, 24), (1e-12, 32)], ids=["distance", "path"])
def test_a_settled_search_holds_a_few_bytes_per_node(tolerance, most):
    world = build_world(grid_spec(30, (1.0, 1.5, 2.0), random.Random(3)))
    world._indexed()  # the node index is the world's, shared by its searches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        search = world_module._Search(world, "g1414", tolerance)
        search._resume((), math.inf)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(search.order) == len(world.nodes)
    assert held <= most * len(world.nodes)


def test_shared_world_under_threads(monkeypatch):
    world = two_decimal_grid()
    ids = sorted(world.nodes)
    oracle = {a: dijkstra_oracle(world, a) for a in ids}
    monkeypatch.setattr(world_module, "TREE_CACHE_ENTRIES", 5 * 201)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                a, b = rng.choice(ids), rng.choice(ids)
                if geodesic_distance(world, a, b) != oracle[a][b]:
                    errors.append((a, b))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    run_threads(worker)
    assert errors == []
    assert world._tree_entries == sum(map(entries, world._trees.values()))
    assert world._tree_entries <= world_module.TREE_CACHE_ENTRIES


def run_threads(worker, count=6):
    """Run `worker(seed)` on `count` threads that switch every microsecond."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_interleaved_queries_resume_shared_searches_under_threads(monkeypatch):
    world = two_decimal_grid()
    ids = sorted(world.nodes)
    sources = ids[::17]
    oracle = {a: dijkstra_oracle(world, a) for a in sources}
    paths = {(a, b): path_oracle(world, a, b) for a in sources for b in ids}
    builds = Counter()
    path = world_module._path

    def counted(world, start, goal):
        builds[counted, start, goal] += 1  # the key `_memo` stores it under
        return path(world, start, goal)

    monkeypatch.setattr(world_module, "_path", counted)
    monkeypatch.setattr(world_module, "TREE_CACHE_ENTRIES", 3 * 201)
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                a, b, nodes = rng.choice(sources), rng.choice(ids), set(rng.sample(ids, 3))
                query = rng.randrange(3)
                if query == 0 and geodesic_distance(world, a, b) != oracle[a][b]:
                    errors.append(("distance", a, b))
                if query == 1 and nearest(world, a, nodes) != min(nodes, key=lambda n: (oracle[a][n], n)):
                    errors.append(("nearest", a, nodes))
                if query == 2 and shortest_node_path(world, a, b) != paths[a, b]:
                    errors.append(("path", a, b))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    run_threads(worker)
    assert errors == []
    # some stored path was evicted, and some path was built again
    assert set(builds) - set(world._trees) and max(builds.values()) > 1
    assert world._tree_entries == sum(map(entries, world._trees.values()))
    assert world._tree_entries <= world_module.TREE_CACHE_ENTRIES


@pytest.mark.parametrize(
    "world",
    [
        pytest.param(lambda: build_world(grid_spec(7, (1.0,), random.Random(11))), id="unit"),
        pytest.param(lambda: build_world(grid_spec(7, (0.1, 0.2, 0.3), random.Random(11))), id="near-ties"),
        pytest.param(two_decimal_grid, id="two-decimal"),
    ],
)
def test_nearest_is_the_least_by_distance_then_id(world):
    world = world()
    ids = sorted(world.nodes)
    rng = random.Random(8)
    for source in ids:
        oracle = dijkstra_oracle(world, source)
        assert nearest(world, source, set()) is None
        for size in (1, 2, 5, 20, len(ids)):
            nodes = set(rng.sample(ids, size))
            assert nearest(world, source, nodes) == min(nodes, key=lambda n: (oracle[n], n))


def test_observe_stores_its_visible_anchors_and_no_search():
    world = line_world(5, (AnchorSpec("cup", "object", "n2", 1.5),))
    observe(world, Pose("n0", "E"), 0, 0)
    assert world._trees and all(key[0] is world_module._visible for key in world._trees)


def test_nearest_stores_no_search():
    world = line_world(5)
    assert nearest(world, "n0", {"n3", "n4"}) == "n3"
    assert world._trees == {} and world._tree_entries == 0


def test_shortest_node_path_stores_its_path_and_no_search(monkeypatch):
    world = build_world(grid_spec(10, (1.0, 1.5), random.Random(2)))
    path = shortest_node_path(world, "g00", "g99")
    assert list(world._trees) == [(world_module._path, "g00", "g99")]
    stored = world._trees[world_module._path, "g00", "g99"]
    assert type(stored) is tuple and list(stored) == path
    assert world._tree_entries == len(path) + 1
    path.pop(0)  # a walker consumes its copy
    assert stored[0] == "g00" and len(stored) == len(path) + 1

    def refuse(*args):
        raise AssertionError("search built for a stored path")

    monkeypatch.setattr(world_module._Search, "__init__", refuse)
    assert shortest_node_path(world, "g00", "g99") == list(stored)


def test_geodesic_distance_stores_its_answer_and_no_search(monkeypatch):
    world = build_world(grid_spec(10, (1.0, 1.5), random.Random(2)))
    d = geodesic_distance(world, "g00", "g99")
    assert world._trees == {(distances, "g00", "g99"): d} and world._tree_entries == 1

    def refuse(*args):
        raise AssertionError("search built for a stored distance")

    monkeypatch.setattr(world_module._Search, "__init__", refuse)
    assert geodesic_distance(world, "g00", "g99") == d
    assert distances(world, "g00", ("g99", "g99")) == [d, d]


def test_distances_runs_one_search_for_the_targets_it_has_no_answer_for(monkeypatch):
    world = two_decimal_grid()
    ids = sorted(world.nodes)
    oracle = dijkstra_oracle(world, "g00")
    searches = []
    init = world_module._Search.__init__

    def counted(search, world, source, tolerance):
        searches.append(source)
        init(search, world, source, tolerance)

    monkeypatch.setattr(world_module._Search, "__init__", counted)
    first, second = ids[::7], ids[::5]
    assert distances(world, "g00", first) == [oracle[n] for n in first] and searches == ["g00"]
    assert distances(world, "g00", second) == [oracle[n] for n in second] and searches == ["g00"] * 2
    assert distances(world, "g00", second + first) == [oracle[n] for n in second + first] and len(searches) == 2
    assert set(world._trees) == {(distances, "g00", n) for n in first + second}
    assert world._tree_entries == len(set(first + second))
    for source, targets in (("zz", ()), ("g00", ("g01", "zz"))):
        with pytest.raises(UnknownNode):
            distances(world, source, targets)
    assert (distances, "g00", "g01") not in world._trees and len(searches) == 2


def test_the_large_world_episodes_store_no_search(monkeypatch):
    # the first generated world of the benchmark's large-world seed 41, with its 32 instructions
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    scenarios = workloads.large_scenarios(*next(workloads.large_worlds(41)))
    for scenario in scenarios:
        run_episode(scenario, RunConfig(budget=40))
    world = scenarios[0].world
    assert all(scenario.world is world for scenario in scenarios)
    builders = Counter(key[0] for key in world._trees)
    assert builders[distances] and builders[world_module._path]
    assert not any(isinstance(item, world_module._Search) for item in world._trees.values())
    assert all(type(item) is float for key, item in world._trees.items() if key[0] is distances)
    assert world._tree_entries == sum(map(entries, world._trees.values()))


def test_nearest_takes_the_least_id_when_an_edge_adds_nothing():
    # 1.0 + 1e-17 == 1.0, so "a" settles after "b" at the same distance
    world = line_world(2)
    spec = replace(
        world.spec,
        nodes=world.spec.nodes + (NodeSpec("a", "room", 2, 0),),
        edges=world.spec.edges + (EdgeSpec("n1", "a", 1e-17),),
    )
    world = build_world(spec)
    assert nearest(world, "n0", {"a", "n1"}) == "a"
    search = world_module._Search(world, "n0", 0.0)
    search._resume((), math.inf)
    order = [world._index[0][i] for i in search.order]
    assert order.index("n1") < order.index("a")
    assert geodesic_distance(world, "n0", "a") == geodesic_distance(world, "n0", "n1") == 1.0


@pytest.mark.parametrize("seed", range(4))
def test_searches_match_the_oracles_where_edges_add_nothing(seed):
    # d + 1e-17 == d past the first step, so such routes tie exactly
    rng = random.Random(seed)
    world = build_world(grid_spec(6, (1e-17, 0.1, 0.2, 0.3, 1.0), rng))
    ids = sorted(world.nodes)
    for source in ids:
        oracle = dijkstra_oracle(world, source)
        for goal in ids:
            assert geodesic_distance(world, source, goal) == oracle[goal]
            assert shortest_node_path(world, source, goal) == path_oracle(world, source, goal)
        for size in (1, 2, 5, len(ids)):
            nodes = set(rng.sample(ids, size))
            assert nearest(world, source, nodes) == min(nodes, key=lambda n: (oracle[n], n))


def test_a_tentative_distance_is_never_read():
    # settling "s" alone reaches "a" at 0.4; the route through "b" gives 0.2
    nodes = (NodeSpec("s", "r", 0, 0), NodeSpec("a", "r", 1, 0), NodeSpec("b", "r", 0, 1))
    edges = (EdgeSpec("s", "a", 0.4), EdgeSpec("s", "b", 0.1), EdgeSpec("b", "a", 0.1))
    world = build_world(WorldSpec(nodes=nodes, edges=edges, objects=()))
    search = world_module._Search(world, "s", 0.0)
    search._resume((world._indexed()[1]["s"],), 0.0)
    assert search.dist[world._index[1]["a"]] == 0.4  # tentative
    assert search.distance("a") == 0.1 + 0.1
    assert geodesic_distance(world, "s", "a") == 0.1 + 0.1
    assert shortest_node_path(world, "s", "a") == ["s", "b", "a"]


def search_contract(region, kind=LOCAL_SEARCHER):
    template = StageTemplate(
        name="probe",
        goal=StageGoal("mug", region),
        handoff=(EvidenceClause("object", "mug"),),
        compatible=(kind,),
    )
    return compile_instruction([template]).active()


def test_sweep_order_is_the_greedy_nearest_first_order():
    world = build_world(grid_spec(8, (0.1, 0.2, 0.3), random.Random(4)))
    oracle = {a: dijkstra_oracle(world, a) for a in world.nodes}
    for region in sorted({n.region for n in world.spec.nodes}):
        contract = search_contract(region)
        for start in sorted(world.nodes):
            pending, expected, here = set(world.region_nodes(region)), [], start
            while pending:
                here = min(pending, key=lambda n: (oracle[here][n], n))
                expected.append(here)
                pending.discard(here)
            assert spawn(LOCAL_SEARCHER, contract, world, Pose(start, "N")).visit_order == expected


@pytest.mark.parametrize("lengths", [(1.0,), (0.1, 0.2, 0.3)], ids=["unit", "near-ties"])
def test_local_searcher_spawn_settles_small_balls(lengths, monkeypatch):
    # A sweep of a 16-node region settles about 100 nodes over all its
    # searches (93 and 126 here). One full tree per region node would settle
    # 16 x 900, and per-pair distance lookups from each node to every pending
    # one about 600-700.
    world = build_world(grid_spec(30, lengths, random.Random(2)))
    region = world.region_of("g1414")
    settled = []
    resume = world_module._Search._resume

    def counted(search, nodes, bound):
        before = len(search.order)
        resume(search, nodes, bound)
        settled.append(len(search.order) - before)

    monkeypatch.setattr(world_module._Search, "_resume", counted)
    searcher = spawn(LOCAL_SEARCHER, search_contract(region), world, Pose(world.region_nodes(region)[0], "N"))
    assert sorted(searcher.visit_order) == sorted(world.region_nodes(region))
    assert 0 < sum(settled) < len(world.nodes) / 4


def plan_of(executor):
    return getattr(executor, "visit_order", None), executor.walker.remaining


@pytest.mark.parametrize("kind", [LOCAL_SEARCHER, ROUTE_NAVIGATOR])
def test_a_respawn_at_the_same_start_reads_its_plan_from_the_cache(kind, monkeypatch):
    world = build_world(grid_spec(30, (1.0, 1.5), random.Random(6)))
    contract = search_contract(world.region_of("g1414"), kind)
    pose = Pose("g0000", "N")  # outside the region, so the route is a real path
    first = spawn(kind, contract, world, pose)
    assert len(first.walker.remaining) > 1

    def refuse(*args):
        raise AssertionError("plan rebuilt on a respawn")

    monkeypatch.setattr(world_module._Search, "__init__", refuse)
    monkeypatch.setattr(executors_module, "nearest", refuse)
    second = spawn(kind, contract, world, pose)
    assert plan_of(second) == plan_of(first)


def test_walking_a_plan_leaves_the_cached_plan_whole():
    world = build_world(grid_spec(30, (1.0,), random.Random(2)))
    contract = search_contract(world.region_of("g1414"), ROUTE_NAVIGATOR)
    pose = start = Pose("g0000", "N")
    navigator = spawn(ROUTE_NAVIGATOR, contract, world, start)
    planned = list(navigator.walker.remaining)
    for tick in range(4 * len(planned)):
        action = navigator.walker.walk(observe(world, pose, 0, tick))
        if action is None:
            break
        pose = apply_action(world, pose, action)
    assert navigator.walker.remaining == [] and pose.node == planned[-1]
    assert spawn(ROUTE_NAVIGATOR, contract, world, start).walker.remaining == planned


def test_shared_world_spawns_under_threads_evict_and_count_plans(monkeypatch):
    reference = two_decimal_grid()
    regions = sorted({node.region for node in reference.spec.nodes})
    expected = {
        (kind, region, start): plan_of(spawn(kind, search_contract(region, kind), reference, Pose(start, "N")))
        for kind in (LOCAL_SEARCHER, ROUTE_NAVIGATOR)
        for region in regions
        for start in sorted(reference.nodes)[::7]
    }
    world = two_decimal_grid()
    built = set()

    def counting(builder):
        def build(world, region, start):
            built.add((build, region, start))  # the key `_memo` stores it under
            return builder(world, region, start)

        return build

    for name in ("_route", "_sweep"):
        monkeypatch.setattr(executors_module, name, counting(getattr(executors_module, name)))
    monkeypatch.setattr(world_module, "TREE_CACHE_ENTRIES", 3 * 201)
    keys, errors = sorted(expected), []

    def worker(seed):
        rng = random.Random(seed)
        try:
            for _ in range(150):
                key = rng.choice(keys)
                kind, region, start = key
                executor = spawn(kind, search_contract(region, kind), world, Pose(start, "N"))
                if plan_of(executor) != expected[key]:
                    errors.append(key)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    run_threads(worker)
    assert errors == []
    assert built & set(world._trees) and built - set(world._trees)  # plans were stored, some evicted
    assert world._tree_entries == sum(map(entries, world._trees.values()))
    assert world._tree_entries <= world_module.TREE_CACHE_ENTRIES


def test_a_racing_build_of_an_empty_item_is_counted_once():
    # An empty result is the interned `()`, so the build that loses a race
    # returns the very object the winner stored; only the winner counts it.
    world = line_world(3)
    builds = []

    def build(world, key):
        builds.append(key)
        if len(builds) == 1:
            world._memo(build, key)  # a racing build stores the same key first
        return ()

    assert world._memo(build, "k") == ()
    assert len(builds) == 2 and list(world._trees) == [(build, "k")]
    assert world._tree_entries == sum(map(entries, world._trees.values())) == 1
