"""World tests: construction, observation, actions, and geodesic distances
checked against an exhaustive path-enumeration oracle."""

from __future__ import annotations

import random

import pytest

from contextflow.errors import (
    DisconnectedGraph,
    DuplicateId,
    InvalidAnchor,
    NonPositiveEdge,
    UnknownNode,
)
from contextflow.scenario import golden_scenario_path, load_scenario
from contextflow.world import (
    AnchorSpec,
    EdgeSpec,
    NodeSpec,
    Pose,
    WorldSpec,
    apply_action,
    build_world,
    geodesic_distance,
    observe,
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


def test_duplicate_node_id_rejected():
    nodes = (NodeSpec("a", "r", 0, 0), NodeSpec("a", "r", 1, 0))
    with pytest.raises(DuplicateId):
        build_world(WorldSpec(nodes=nodes, edges=(), objects=()))


@pytest.mark.parametrize(
    "anchor",
    [AnchorSpec("", "object", "a", 1.0), AnchorSpec("cup", "gadget", "a", 1.0)],
    ids=["empty-label", "unknown-kind"],
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
    regions = {n.region for n in scenario.world_spec.nodes}
    assert regions == {"closet", "hallway", "doubledoor-room", "sink-room"}
    assert len(scenario.world_spec.nodes) == 12


def test_same_node_anchor_confidence_band():
    world = line_world(3, anchors=[AnchorSpec("sink", "object", "n0", 3.0)])
    for seed in range(40):
        obs = observe(world, Pose("n0", "E"), seed, 0)
        conf = obs.visible[0].confidence
        assert 0.95 <= conf <= 1.0


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
    assert observe(world, pose, 0, 1).blocked


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
