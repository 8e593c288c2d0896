"""Monitor tests: packet assembly, discoveries, fitness, contradictions."""

from __future__ import annotations

from contextflow.codec import from_json, to_json
from contextflow.contracts import EvidenceClause, StageGoal, StageTemplate, compile_instruction
from contextflow.executors import ExecutorRegistry, StatusReport
from contextflow.monitor import (
    EvidencePacket,
    Monitor,
    boundary_discoveries,
    detect_contradiction,
    fitness_from_tags,
    scene_tags,
)
from contextflow.world import Anchor, AnchorSpec, EdgeSpec, NodeSpec, Pose, WorldSpec, build_world, observe


def two_room_world():
    nodes = (
        NodeSpec("a", "hall", 0, 0),
        NodeSpec("b", "hall", 1, 0),
        NodeSpec("c", "room", 2, 0),
    )
    edges = (EdgeSpec("a", "b", 1.0), EdgeSpec("b", "c", 1.0))
    objects = (
        AnchorSpec("hall", "room", "a", 2.0),
        AnchorSpec("door", "object", "c", 4.0),
    )
    return build_world(
        WorldSpec(nodes=nodes, edges=edges, objects=objects, region_tags={"hall": ("route",), "room": ("room-local",)})
    )


def stages(contradicts=()):
    return [
        StageTemplate(
            name="cross",
            goal=StageGoal("door", "hall"),
            handoff=(EvidenceClause("object", "door", 0.7),),
            compatible=("route-navigator",),
            contradicts=tuple(contradicts),
        ),
        StageTemplate(
            name="enter",
            goal=StageGoal("door", "room"),
            handoff=(EvidenceClause("object", "door", 0.7),),
            compatible=("route-navigator",),
        ),
    ]


def running():
    return StatusReport("running", 0.2, 0.5, "route")


def test_empty_observation_gives_empty_packet_fields():
    world = two_room_world()
    workflow = compile_instruction(stages())
    registry = ExecutorRegistry(world)
    registry.spawn_for_stage("route-navigator", workflow.active(), Pose("a", "E"), None)
    monitor = Monitor(world, registry)
    bare = build_world(
        WorldSpec(nodes=world.spec.nodes, edges=world.spec.edges, objects=(), region_tags=world.spec.region_tags)
    )
    obs = observe(bare, Pose("b", "E"), seed=1, tick=0)
    packet = monitor.aggregate(obs, workflow, 0)
    assert packet.a == ()
    assert packet.d == ()
    assert packet.u == ()


def test_discoveries_cite_unlocked_downstream_stage():
    workflow = compile_instruction(stages())
    anchors = [Anchor("door", "object", 0.9, "c")]
    found = boundary_discoveries(workflow, anchors, now=0)
    # the frontier's own boundary unlocks stage 1; stage 1's boundary unlocks 2
    assert {d.stage for d in found} == {1, 2}
    assert all(d.stage > workflow.frontier for d in found)


def test_discovery_requires_full_clause_satisfaction():
    workflow = compile_instruction(stages())
    weak = [Anchor("door", "object", 0.4, "c")]
    assert boundary_discoveries(workflow, weak, now=0) == ()


def test_fitness_ratio_examples():
    assert fitness_from_tags(frozenset({"route"}), ("room-local",)) == 0.0
    assert fitness_from_tags(frozenset({"route"}), ("route",)) == 1.0
    assert fitness_from_tags(frozenset({"route", "doorway"}), ("doorway", "room-local")) == 1 / 3


def test_fitness_ignores_confidence():
    world = two_room_world()
    workflow = compile_instruction(stages())
    weak = [Anchor("hall", "room", 0.05, "a")]
    strong = [Anchor("hall", "room", 0.99, "a")]
    contract = workflow.active()
    assert scene_tags(world, weak, contract.goal.region) == scene_tags(
        world, strong, contract.goal.region
    )


def test_contradiction_streak_threshold():
    workflow = compile_instruction(stages(contradicts=("basin",)))
    basin = [Anchor("basin", "object", 0.5, "a")]
    clear: list = []
    assert detect_contradiction([basin, basin], workflow) == ()
    cues = detect_contradiction([basin, basin, basin], workflow)
    assert cues and cues[0].streak == 3 and cues[0].stage == 0
    # streak resets on absence
    assert detect_contradiction([basin, basin, basin, clear, basin, basin], workflow) == ()


def test_packet_determinism_and_round_trip():
    world = two_room_world()
    workflow = compile_instruction(stages())
    registry = ExecutorRegistry(world)
    registry.spawn_for_stage("route-navigator", workflow.active(), Pose("a", "E"), None)
    obs = observe(world, Pose("b", "E"), seed=2, tick=4)
    first = Monitor(world, registry).aggregate(obs, workflow, 4)
    second = Monitor(world, registry).aggregate(obs, workflow, 4)
    assert to_json(first) == to_json(second)
    assert from_json(EvidencePacket, to_json(first)) == first


def test_d_completeness_at_monitor_tick():
    # whenever a live anchor satisfies a full downstream handoff clause,
    # the packet's discoveries are non-empty for that stage
    world = two_room_world()
    workflow = compile_instruction(stages())
    registry = ExecutorRegistry(world)
    registry.spawn_for_stage("route-navigator", workflow.active(), Pose("a", "E"), None)
    monitor = Monitor(world, registry)
    obs = observe(world, Pose("c", "E"), seed=3, tick=2)
    assert any(a.label == "door" and a.confidence >= 0.7 for a in obs.visible)
    packet = monitor.aggregate(obs, workflow, 2)
    assert any(d.stage == 1 for d in packet.d)


def test_contradiction_streak_accepts_alternating_labels():
    workflow = compile_instruction(stages(contradicts=("basin", "tub")))
    basin = [Anchor("basin", "object", 0.5, "a")]
    tub = [Anchor("tub", "object", 0.5, "a")]
    cues = detect_contradiction([basin, tub, basin], workflow)
    assert cues and cues[0].streak == 3
