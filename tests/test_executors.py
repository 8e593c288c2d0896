"""Executor tests: spawn plans, local criteria, determinism, fault hooks."""

from __future__ import annotations

import pytest

from contextflow.contracts import EvidenceClause, StageGoal, StageTemplate, compile_instruction
from contextflow.errors import IncompatibleKind, NoAnchorToApproach
from contextflow.executors import (
    EndpointApproacher,
    LocalSearcher,
    RouteNavigator,
    Status,
    _PathWalker,
    spawn,
)
from contextflow.memory import MemoryEntry
from contextflow.world import (
    Anchor,
    AnchorSpec,
    EdgeSpec,
    NodeSpec,
    Pose,
    WorldSpec,
    build_world,
    geodesic_distance,
    observe,
    shortest_node_path,
)


def sweep_world():
    nodes = (
        NodeSpec("h0", "hall", 0, 0),
        NodeSpec("h1", "hall", 1, 0),
        NodeSpec("r0", "room", 2, 0),
        NodeSpec("r1", "room", 3, 0),
        NodeSpec("r2", "room", 3, 1),
        NodeSpec("r3", "room", 3, -1),
        NodeSpec("r4", "room", 4, 0),
    )
    edges = (
        EdgeSpec("h0", "h1", 1.0),
        EdgeSpec("h1", "r0", 1.0),
        EdgeSpec("r0", "r1", 1.0),
        EdgeSpec("r1", "r2", 1.0),
        EdgeSpec("r1", "r3", 1.0),
        EdgeSpec("r1", "r4", 1.0),
    )
    objects = (AnchorSpec("mug", "object", "r4", 1.5),)
    return build_world(WorldSpec(nodes=nodes, edges=edges, objects=objects))


def room_contract(target="mug", region="room", compatible=("route-navigator", "local-searcher", "endpoint-approacher")):
    template = StageTemplate(
        name="probe",
        goal=StageGoal(target, region),
        handoff=(EvidenceClause("object", target),),
        compatible=tuple(compatible),
    )
    return compile_instruction([template]).active()


def test_navigator_path_matches_geodesic_oracle():
    world = sweep_world()
    nav = spawn("route-navigator", room_contract(), world, Pose("h0", "E"))
    assert isinstance(nav, RouteNavigator)
    path = nav.walker.remaining
    assert path[0] == "h0" or path[0] == "h1"  # first hop may already be popped
    # planned terminus is the nearest room node; hop count equals the oracle
    assert path[-1] == "r0"
    assert len(shortest_node_path(world, "h0", "r0")) - 1 == geodesic_distance(world, "h0", "r0")


def test_navigator_done_on_region_entry():
    world = sweep_world()
    nav = spawn("route-navigator", room_contract(), world, Pose("h0", "E"))
    pose = Pose("h0", "E")
    for tick in range(1, 10):
        obs = observe(world, pose, 1, tick)
        action, status = nav.step(obs)
        if status.state == "done":
            assert status.progress == 1.0
            break
        if action == "FORWARD":
            nxt = nav.walker._expected
            pose = Pose(nxt, pose.heading)
    assert status.state == "done"


def test_searcher_visit_order_covers_room_once():
    world = sweep_world()
    searcher = spawn("local-searcher", room_contract(target="ghost"), world, Pose("h0", "E"))
    assert isinstance(searcher, LocalSearcher)
    assert sorted(searcher.visit_order) == ["r0", "r1", "r2", "r3", "r4"]
    assert len(set(searcher.visit_order)) == 5


def test_searcher_reports_done_on_target_sight():
    world = sweep_world()
    searcher = spawn("local-searcher", room_contract(), world, Pose("r1", "E"))
    obs = observe(world, Pose("r4", "E"), 1, 3)  # mug underfoot, confidence ~1
    action, status = searcher.step(obs)
    assert status.state == "done"
    assert action is None


def test_searcher_ignore_fault_suppresses_done():
    world = sweep_world()
    searcher = spawn("local-searcher", room_contract(), world, Pose("r1", "E"))
    searcher.ignore_target(until_tick=50)
    obs = observe(world, Pose("r4", "E"), 1, 3)
    action, status = searcher.step(obs)
    assert status.state == "running"


def test_approacher_locks_best_live_anchor_and_stops():
    world = sweep_world()
    approacher = spawn(
        "endpoint-approacher",
        room_contract(),
        world,
        Pose("r1", "E"),
        obs=observe(world, Pose("r4", "E"), 1, 0),
    )
    assert isinstance(approacher, EndpointApproacher)
    assert approacher.locked_node == "r4"
    action, status = approacher.step(observe(world, Pose("r4", "E"), 1, 1))
    assert action == "STOP" and status.state == "done"


def test_approacher_falls_back_to_memory():
    world = sweep_world()
    remembered = MemoryEntry(
        tick=2,
        kind="observation-anchor",
        stage_index=0,
        anchor=Anchor("mug", "object", 0.6, "r4"),
        region="room",
    )
    approacher = spawn(
        "endpoint-approacher",
        room_contract(),
        world,
        Pose("h0", "E"),
        obs=observe(world, Pose("h0", "E"), 1, 0),
        memory_entries=[remembered],
    )
    assert approacher.locked_node == "r4"


def test_approacher_without_candidates_errors():
    world = sweep_world()
    with pytest.raises(NoAnchorToApproach):
        spawn(
            "endpoint-approacher",
            room_contract(target="phantom"),
            world,
            Pose("h0", "E"),
            obs=observe(world, Pose("h0", "E"), 1, 0),
        )


def test_incompatible_kind_is_rejected():
    world = sweep_world()
    contract = room_contract(compatible=("route-navigator",))
    with pytest.raises(IncompatibleKind):
        spawn("local-searcher", contract, world, Pose("h0", "E"))


def test_step_deterministic_for_equal_state():
    world = sweep_world()
    obs = observe(world, Pose("h0", "E"), 1, 1)
    first = spawn("route-navigator", room_contract(), world, Pose("h0", "E"))
    second = spawn("route-navigator", room_contract(), world, Pose("h0", "E"))
    assert first.step(obs) == second.step(obs)


def test_walker_reroutes_after_three_blocked_steps():
    world = sweep_world()
    walker = _PathWalker(world)
    walker.set_path(["h0", "h1", "r0"])
    replans = []
    set_path = walker.set_path

    def replanning(path):
        replans.append((walker.blocked_streak, list(path)))
        set_path(path)

    walker.set_path = replanning
    stuck = observe(world, Pose("h0", "E"), 1, 0)
    for _ in range(5):
        walker.walk(stuck)  # pose never advances: simulated blockage
    # the third step that does not arrive replans to the old terminus, once
    assert replans == [(3, shortest_node_path(world, "h0", "r0"))]


def test_forced_done_report():
    world = sweep_world()
    nav = spawn("route-navigator", room_contract(), world, Pose("h0", "E"))
    nav.force_done()
    action, status = nav.step(observe(world, Pose("h0", "E"), 1, 1))
    assert status == Status("done", 1.0)
    assert action is None
