"""Monitor tests: packet assembly, discoveries, fitness, contradictions."""

from __future__ import annotations

import random
from pathlib import Path

from contextflow import monitor as monitor_module
from contextflow.alignment import ACT_PROMOTE, ACT_REPAIR, VARIANTS, ScopedUpdate, advance
from contextflow.board import header_templates, parse_trace, replay_inputs, serialize_trace
from contextflow.codec import from_json, to_json
from contextflow.contracts import EvidenceClause, StageGoal, StageTemplate, compile_instruction
from contextflow.executors import ExecutorRegistry, Status
from contextflow.monitor import (
    CONTRADICTION_STREAK,
    ContradictionCue,
    Evidence,
    EvidencePacket,
    Monitor,
    boundary_live,
    discoveries,
    fitness_from_tags,
    scene_tags,
    trailing_streaks,
)
from contextflow.harness import RunConfig, run_episode
from contextflow.scenario import golden_scenario_path, load_scenario, load_suite, stress_suite_dir
from contextflow.world import (
    Anchor,
    AnchorSpec,
    EdgeSpec,
    NodeSpec,
    Pose,
    WorldSpec,
    build_world,
    observe,
)


def detect_contradiction(history: list, workflow) -> tuple[ContradictionCue, ...]:
    """The oracle for `Monitor`'s running streaks: cues for the stages at or
    past the frontier whose `contradicts` labels have been visible for at
    least CONTRADICTION_STREAK consecutive emissions, each streak read from
    the whole `history`."""
    cues = []
    for j in range(workflow.frontier, len(workflow.contracts)):
        labels = workflow.contracts[j].contradicts
        if labels:
            latest, streak = trailing_streaks(history, labels)
            if streak >= CONTRADICTION_STREAK:
                cues.append(ContradictionCue(stage=j, conflicting=latest, streak=streak))
    return tuple(cues)


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
    return Status("running", 0.2)


def test_empty_observation_gives_empty_packet_fields():
    world = two_room_world()
    workflow = compile_instruction(stages())
    registry = ExecutorRegistry(world)
    registry.spawn_for_stage("route-navigator", workflow.active(), Pose("a", "E"), None)
    monitor = Monitor()
    bare = build_world(
        WorldSpec(nodes=world.spec.nodes, edges=world.spec.edges, objects=(), region_tags=world.spec.region_tags)
    )
    obs = observe(bare, Pose("b", "E"), seed=1, tick=0)
    packet = monitor.aggregate(obs, workflow, 0, world, registry)
    assert packet.a == ()
    assert packet.d == ()
    assert packet.u == ()


def test_discoveries_cite_unlocked_downstream_stage():
    workflow = compile_instruction(stages())
    anchors = [Anchor("door", "object", 0.9, "c")]
    found = discoveries(boundary_live(workflow, anchors))
    # the frontier's own boundary unlocks stage 1; stage 1's boundary unlocks 2
    assert {d.stage for d in found} == {1, 2}
    assert all(d.stage > workflow.frontier for d in found)


def test_discovery_requires_full_clause_satisfaction():
    workflow = compile_instruction(stages())
    weak = [Anchor("door", "object", 0.4, "c")]
    assert discoveries(boundary_live(workflow, weak)) == ()


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
    first = Monitor().aggregate(obs, workflow, 4, world, registry)
    second = Monitor().aggregate(obs, workflow, 4, world, registry)
    assert to_json(first) == to_json(second)
    assert from_json(EvidencePacket, to_json(first)) == first


def test_d_completeness_at_monitor_tick():
    # whenever a live anchor satisfies a full downstream handoff clause,
    # the packet's discoveries are non-empty for that stage
    world = two_room_world()
    workflow = compile_instruction(stages())
    registry = ExecutorRegistry(world)
    registry.spawn_for_stage("route-navigator", workflow.active(), Pose("a", "E"), None)
    obs = observe(world, Pose("c", "E"), seed=3, tick=2)
    assert any(a.label == "door" and a.confidence >= 0.7 for a in obs.visible)
    packet = Monitor().aggregate(obs, workflow, 2, world, registry)
    assert any(d.stage == 1 for d in packet.d)


def test_contradiction_streak_accepts_alternating_labels():
    workflow = compile_instruction(stages(contradicts=("basin", "tub")))
    basin = [Anchor("basin", "object", 0.5, "a")]
    tub = [Anchor("tub", "object", 0.5, "a")]
    cues = detect_contradiction([basin, tub, basin], workflow)
    assert cues and cues[0].streak == 3


# -- running contradiction streaks -------------------------------------------


def streak_stages():
    """Stage 0 contradicts basin; stages 1 and 2 share the tuple (tub,), and
    stage 1's alternate grounding contradicts basin or sink, so a suffix
    repair at stage 1 swaps its labels and a full repair swaps them back."""
    door = (EvidenceClause("object", "door", 0.7),)
    kinds = ("route-navigator",)
    alternate = StageTemplate("enter-alt", StageGoal("door", "room"), door, compatible=kinds, contradicts=("basin", "sink"))
    return [
        StageTemplate("cross", StageGoal("door", "hall"), door, compatible=kinds, contradicts=("basin",)),
        StageTemplate("enter", StageGoal("door", "room"), door, compatible=kinds, contradicts=("tub",), alternates=(alternate,)),
        StageTemplate("leave", StageGoal("door", "hall"), door, compatible=kinds, contradicts=("tub",)),
    ]


def emit(monitor, workflow, labels, tick):
    """One emission of `labels` as anchors, folded in as the run and the
    replay both do; the packet's cues must equal the oracle's, read from the
    whole history."""
    visible = tuple(Anchor(label, "object", 0.5, "a") for label in sorted(labels))
    cues = monitor.fold(Evidence(visible, (), {}), tick, "route-navigator", workflow).u
    assert cues == detect_contradiction(monitor.anchor_history, workflow), tick
    return cues


def test_running_streaks_follow_repairs_that_swap_labels_or_move_the_frontier_back():
    workflow = compile_instruction(streak_stages())
    monitor = Monitor()
    updates = {
        8: ScopedUpdate(ACT_PROMOTE, {"target": 1}),  # stage 0's (basin,) goes stale
        20: ScopedUpdate(ACT_REPAIR, {"root": 1, "scope": "suffix"}),  # (tub,) -> (basin, sink)
        32: ScopedUpdate(ACT_REPAIR, {"root": 0, "scope": "full"}),  # frontier back to 0
    }
    seen = {}
    for n in range(48):
        labels = {"basin"} if n % 13 != 12 else set()
        labels |= {"tub"} if 3 <= n < 44 else set()
        labels |= {"sink"} if n % 3 == 0 else set()
        seen[n] = emit(monitor, workflow, labels, n)
        if n in updates:
            advance(workflow, updates[n])
    # the suffix repair lands mid-streak: the tub cue is live before it, and
    # the alternate's labels come in with a streak read from the history
    assert [(c.stage, c.conflicting) for c in seen[20]] == [(1, "tub"), (2, "tub")]
    assert [(c.stage, c.conflicting, c.streak) for c in seen[21]] == [(1, "basin", 22), (2, "tub", 19)]
    # the full repair brings stage 0's stale (basin,) back below the frontier
    assert workflow.frontier == 0
    assert [(c.stage, c.conflicting, c.streak) for c in seen[33]] == [
        (0, "basin", 8), (1, "tub", 31), (2, "tub", 31)
    ]


def test_running_streaks_match_the_oracle_on_random_histories():
    rng = random.Random(19)
    for _ in range(200):
        workflow = compile_instruction(streak_stages())
        monitor = Monitor()
        odds = {label: rng.choice((0.3, 0.8, 0.95)) for label in ("basin", "tub", "sink", "door")}
        for n in range(40):
            emit(monitor, workflow, {label for label, p in odds.items() if rng.random() < p}, n)
            roll = rng.random()
            if roll < 0.1 and workflow.frontier < workflow.last_index():
                advance(workflow, ScopedUpdate(ACT_PROMOTE, {"target": workflow.frontier + 1}))
            elif roll < 0.16:
                advance(workflow, ScopedUpdate(ACT_REPAIR, {"root": workflow.frontier, "scope": "suffix"}))
            elif roll < 0.2:
                advance(workflow, ScopedUpdate(ACT_REPAIR, {"root": 0, "scope": "full"}))


def test_shipped_episodes_rebuild_a_streak_only_on_first_sight_or_after_it_went_stale(monkeypatch):
    """Over the golden and the 150 stress episodes, `trailing_streaks` reads
    the history only for a label tuple that the previous emission did not
    advance, once per emission; every other streak is advanced by one
    snapshot."""
    emitted: list[set] = []  # per emission, the tuples at or past the frontier
    rebuilt: list[tuple[int, tuple]] = []  # (emission, labels) per rebuild
    aggregate, trailing_streaks = Monitor.aggregate, monitor_module.trailing_streaks

    def counted_aggregate(self, obs, workflow, *args):
        contracts = workflow.contracts[workflow.frontier :]
        emitted.append({c.contradicts for c in contracts if c.contradicts})
        return aggregate(self, obs, workflow, *args)

    def counted_streaks(history, labels):
        rebuilt.append((len(history), labels))
        return trailing_streaks(history, labels)

    monkeypatch.setattr(Monitor, "aggregate", counted_aggregate)
    monkeypatch.setattr(monitor_module, "trailing_streaks", counted_streaks)
    episodes = [(s, v) for s in load_suite(stress_suite_dir()) for v in VARIANTS]
    episodes.append((load_scenario(golden_scenario_path()), "contextflow"))
    advanced = rebuilds = 0
    for scenario, variant in episodes:
        emitted.clear()
        rebuilt.clear()
        run_episode(scenario, RunConfig(variant=variant))
        expected = [
            (n, labels)
            for n, tuples in enumerate(emitted, 1)
            for labels in tuples
            if n == 1 or labels not in emitted[n - 2]
        ]
        assert sorted(rebuilt) == sorted(expected), scenario.id
        advanced += sum(map(len, emitted)) - len(rebuilt)
        rebuilds += len(rebuilt)
    assert rebuilds and advanced > 10 * rebuilds


def test_a_streak_brought_back_after_a_gap_is_rebuilt_from_the_history():
    """`tests/data/stale_streak.scn` runs the rebuild of a stale streak that
    no shipped episode reaches: a repair takes stage 0's (boiler,) away at
    record 2, and a second repair brings it back at record 6 while the
    boiler is still in view, so its streak is read from the whole history
    (7) rather than advanced from where it went stale (3 + 1). Each
    record's replayed cues must equal the oracle's."""
    scenario = load_scenario(Path(__file__).parent / "data" / "stale_streak.scn")
    trace = parse_trace(serialize_trace(run_episode(scenario, RunConfig())))
    history, seen, previous, returned = [], set(), set(), []
    for index, (_, c, _) in enumerate(replay_inputs(trace, header_templates(trace))):
        history.append(c.packet.a)
        assert c.packet.u == detect_contradiction(history, c.workflow), index
        labels = {k.contradicts for k in c.workflow.contracts[c.workflow.frontier :] if k.contradicts}
        returned += [(index, label, c.packet.u) for label in labels - previous if label in seen]
        seen |= labels
        previous = labels
    assert returned == [(6, ("boiler",), (ContradictionCue(stage=0, conflicting="boiler", streak=7),))]
