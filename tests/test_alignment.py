"""Planner-core tests: case classification, update selection under every
variant, and scoped-update application."""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from contextflow.alignment import (
    CASE_AMBIGUOUS,
    CASE_EXECUTOR_MISMATCH,
    CASE_NONE,
    CASE_STAGE_LOCK,
    CASE_SUFFIX_CONTRADICTION,
    CASE_UNSUPPORTED_HANDOFF,
    POLICIES,
    VARIANTS,
    Consultation,
    PlannerSession,
    Policy,
    advance,
    apply_update,
    boundary_reports,
    classify_misalignment,
    note_restart,
    policy,
    retry_count,
    select_update,
    ScopedUpdate,
)
from contextflow.contracts import (
    SOURCE_MEMORY_OK,
    EvidenceClause,
    StageGoal,
    StageTemplate,
    compile_instruction,
    stage_status,
)
from contextflow.errors import InvalidPromoteTarget, InvalidRepairRoot, InvalidRunConfig, UnknownAction
from contextflow.executors import ExecutorRegistry, Status
from contextflow.memory import MemoryEntry, MemoryState
from contextflow.monitor import ContradictionCue, EvidencePacket, boundary_live
from contextflow.world import Anchor, AnchorSpec, EdgeSpec, NodeSpec, Pose, WorldSpec, build_world, observe


def quad_world():
    nodes = tuple(NodeSpec(f"n{i}", "hall" if i < 2 else "room", i, 0) for i in range(4))
    edges = tuple(EdgeSpec(f"n{i}", f"n{i + 1}", 1.0) for i in range(3))
    objects = (
        AnchorSpec("door", "object", "n1", 4.0),
        AnchorSpec("mug", "object", "n3", 4.0),
        AnchorSpec("room", "room", "n2", 1.5),
    )
    tags = {"hall": ("route",), "room": ("room-local",)}
    return build_world(WorldSpec(nodes=nodes, edges=edges, objects=objects, region_tags=tags))


def templates(n=4, alternates=False):
    out = []
    for i in range(n):
        alt = ()
        if alternates:
            alt = (
                StageTemplate(
                    name=f"s{i}-alt",
                    goal=StageGoal("mug", "room"),
                    handoff=(EvidenceClause("object", "mug", 0.7),),
                    compatible=("local-searcher",),
                ),
            )
        out.append(
            StageTemplate(
                name=f"s{i}",
                goal=StageGoal("door" if i < 2 else "mug", "hall" if i < 2 else "room"),
                handoff=(EvidenceClause("object", "door" if i < 2 else "mug", 0.7),),
                compatible=("route-navigator", "local-searcher"),
                alternates=alt,
            )
        )
    return out


def packet(
    anchors=(),
    u=(),
    q=1.0,
    scene=("route",),
    tick=0,
):
    return EvidencePacket(
        tick=tick,
        a=tuple(anchors),
        scene_tags=tuple(scene),
        degraded={},
        u=tuple(u),
        q=q,
    )


def running(progress=0.3):
    return Status("running", progress)


def done():
    return Status("done", 1.0)


def consultation(workflow, pkt, status, retry=0, memory=()):
    live = boundary_live(workflow, pkt.a)
    return Consultation(workflow, "route-navigator", list(memory), pkt, live, status, retry)


def classify(workflow, pkt, status):
    return classify_misalignment(consultation(workflow, pkt, status))


def test_done_with_missing_clause_is_unsupported_handoff():
    workflow = compile_instruction(templates())
    case, reports = classify(workflow, packet(), done())
    assert case.case == CASE_UNSUPPORTED_HANDOFF
    assert not reports[workflow.frontier].satisfied


def test_running_with_satisfying_discovery_is_stage_lock():
    workflow = compile_instruction(templates())
    # the live pass matches every clause of the frontier's handoff
    anchor = Anchor("door", "object", 0.9, "n1")
    case, _ = classify(workflow, packet(anchors=[anchor]), running())
    assert case.case == CASE_STAGE_LOCK


def test_empty_packet_running_is_none():
    workflow = compile_instruction(templates())
    case, _ = classify(workflow, packet(), running())
    assert case.case == CASE_NONE


def test_contradiction_cue_preempts_everything():
    workflow = compile_instruction(templates())
    cue = ContradictionCue(stage=2, conflicting="basin", streak=3)
    case, _ = classify(workflow, packet(u=[cue], q=0.0), done())
    assert case.case == CASE_SUFFIX_CONTRADICTION
    assert case.detail["stage"] == 2


def test_the_lowest_contradicted_stage_is_the_repair_root():
    workflow = compile_instruction(templates(alternates=True))
    cues = [
        ContradictionCue(stage=3, conflicting="basin", streak=5),
        ContradictionCue(stage=2, conflicting="sink", streak=3),
    ]
    case, _ = classify(workflow, packet(u=cues), running())
    assert case.detail == {"stage": 2, "conflicting": "sink", "streak": 3}
    assert select(workflow, packet(u=cues), running()) == ScopedUpdate("repair", {"root": 2, "scope": "suffix"})


def test_low_fitness_is_executor_mismatch_unless_done_and_satisfied():
    workflow = compile_instruction(templates())
    case, _ = classify(workflow, packet(q=0.2), running())
    assert case.case == CASE_EXECUTOR_MISMATCH
    satisfied_packet = packet(anchors=[Anchor("door", "object", 0.9, "n1")], q=0.2)
    case, _ = classify(workflow, satisfied_packet, done())
    assert case.case == CASE_NONE  # promotion preempts transfer


def test_ambiguous_clause_is_ambiguous_contract():
    workflow = compile_instruction(templates())
    case, reports = classify(
        workflow, packet(anchors=[Anchor("door", "object", 0.60, "n1")]), running()
    )
    assert case.case == CASE_AMBIGUOUS
    assert reports[workflow.frontier].ambiguous


def select(workflow, pkt, status, variant="contextflow", retry=0):
    c = consultation(workflow, pkt, status, retry)
    case, reports = classify_misalignment(c)
    return select_update(case, c, reports, policy(variant))


def test_done_and_satisfied_promotes():
    workflow = compile_instruction(templates())
    pkt = packet(anchors=[Anchor("door", "object", 0.9, "n1")])
    update = select(workflow, pkt, done())
    assert update.action == "promote"
    # boundary 0 and 1 share the door clause, so the chain crosses both
    assert update.payload["target"] == 2


@pytest.mark.parametrize("state", ["blocked", "failed"])
def test_a_satisfied_handoff_promotes_only_when_the_executor_is_done(state):
    # a stage lock needs a running executor, so a blocked or failed one
    # with the handoff in view continues
    workflow = compile_instruction(templates())
    pkt = packet(anchors=[Anchor("door", "object", 0.9, "n1")])
    status = Status(state, 0.3)
    assert classify(workflow, pkt, status)[0].case == CASE_NONE
    assert select(workflow, pkt, status) == ScopedUpdate("continue", {})


def test_a_handoff_that_memory_satisfies_is_no_stage_lock():
    stage = StageTemplate(
        name="m",
        goal=StageGoal("mug", "room"),
        handoff=(EvidenceClause("object", "mug", 0.7, SOURCE_MEMORY_OK),),
        compatible=("local-searcher",),
    )
    workflow = compile_instruction([stage])
    remembered = MemoryEntry(0, "observation-anchor", 0, Anchor("mug", "object", 0.9, "n3"), "room")
    # the live room cue witnesses the remembered mug
    c = consultation(workflow, packet(anchors=[Anchor("room", "room", 0.9, "n2")]), running(), memory=[remembered])
    case, reports = classify_misalignment(c)
    assert reports[0].satisfied and reports[0].matched[0].provenance == "memory-corroborated"
    assert case.case == CASE_NONE
    assert select_update(case, c, reports, POLICIES["contextflow"]) == ScopedUpdate("continue", {})


def test_contradiction_selects_scoped_repair():
    workflow = compile_instruction(templates(alternates=True))
    cue = ContradictionCue(stage=2, conflicting="basin", streak=3)
    update = select(workflow, packet(u=[cue]), running())
    assert update == ScopedUpdate("repair", {"root": 2, "scope": "suffix"})
    # `advance` regenerates the open stages from the root on
    before = list(workflow.contracts)
    advance(workflow, update)
    assert [i for i, c in enumerate(workflow.contracts) if c is not before[i]] == [2, 3]
    assert workflow.contracts[2].name == "s2-alt"


def test_empty_evidence_running_continues():
    workflow = compile_instruction(templates())
    update = select(workflow, packet(), running())
    assert update.action == "continue"
    assert update.payload == {}


def test_mismatch_transfers_to_best_fitness_kind():
    workflow = compile_instruction(templates())
    update = select(workflow, packet(q=0.0, scene=("room-local",)), running())
    assert update.action == "transfer"
    assert update.payload["target_kind"] == "local-searcher"


def test_retry_escalation_transfers_after_two_restarts():
    workflow = compile_instruction(templates())
    first = select(workflow, packet(), done(), retry=0)
    assert first.action == "continue" and first.payload.get("restart")
    escalated = select(workflow, packet(), done(), retry=2)
    assert escalated.action == "transfer"


def test_refine_raises_threshold_with_cap():
    workflow = compile_instruction(templates())
    pkt = packet(anchors=[Anchor("door", "object", 0.60, "n1")])
    update = select(workflow, pkt, running())
    assert update.action == "refine"
    assert update.payload["new_min_confidence"] == pytest.approx(0.8)


def test_refine_binds_wildcard_to_best_candidate():
    wild = StageTemplate(
        name="w",
        goal=StageGoal("thing", "hall"),
        handoff=(EvidenceClause("landmark", "*", 0.3),),
        compatible=("route-navigator",),
    )
    workflow = compile_instruction([wild])
    # below the clause's ambiguity band: the live pass leaves it open, so
    # this is no stage lock
    pkt = packet(anchors=[Anchor("arch", "landmark", 0.1, "n1")])
    update = select(workflow, pkt, running())
    assert update.action == "refine"
    assert update.payload["bind_label"] == "arch"


# -- variants ----------------------------------------------------------------


def test_termination_follower_promotes_blindly():
    workflow = compile_instruction(templates())
    update = select(workflow, packet(), done(), variant="termination-follower")
    assert update.action == "promote"
    assert update.payload["target"] == 1


def test_no_promoter_suppresses_stage_lock():
    workflow = compile_instruction(templates())
    pkt = packet(anchors=[Anchor("door", "object", 0.9, "n1")])
    update = select(workflow, pkt, running(), variant="no-promoter")
    assert update.action == "continue"
    assert update.payload["suppressed"] == "promote"


def test_full_replanner_repairs_from_root_zero():
    workflow = compile_instruction(templates(alternates=True))
    cue = ContradictionCue(stage=2, conflicting="basin", streak=3)
    update = select(workflow, packet(u=[cue]), running(), variant="full-replanner")
    assert update == ScopedUpdate("repair", {"root": 0, "scope": "full"})
    # `advance` regenerates every stage
    before = list(workflow.contracts)
    advance(workflow, update)
    assert all(c is not b for c, b in zip(workflow.contracts, before))
    assert [c.name for c in workflow.contracts] == ["s0-alt", "s1-alt", "s2-alt", "s3-alt"]


def test_fixed_executor_never_transfers():
    workflow = compile_instruction(templates())
    update = select(
        workflow, packet(q=0.0, scene=("room-local",)), running(), variant="fixed-executor"
    )
    assert update.action == "continue"
    assert update.payload["suppressed"] == "transfer"


def test_an_unknown_variant_raises_instead_of_running_the_full_policy():
    with pytest.raises(InvalidRunConfig, match="fixed-exec"):
        policy("fixed-exec")
    workflow = compile_instruction(templates())
    with pytest.raises(InvalidRunConfig, match="fixed-exec"):
        select(workflow, packet(), running(), variant="fixed-exec")


@pytest.mark.parametrize(
    "name", ["fixed-exec", "", "Contextflow", None, ["contextflow"]], ids=["typo", "empty", "case", "none", "list"]
)
def test_policy_is_the_one_lookup_of_a_variant_name(name):
    with pytest.raises(InvalidRunConfig, match="unknown planner variant"):
        policy(name)


def test_variants_are_the_readme_names_in_order():
    assert VARIANTS == ("contextflow", "termination-follower", "no-promoter", "full-replanner", "fixed-executor")
    assert [policy(name) for name in VARIANTS] == list(POLICIES.values())


def test_each_ablation_drops_exactly_one_lever_of_the_full_policy():
    full = POLICIES["contextflow"]
    assert full == Policy(follow_termination=False, promote_on_lock=True, repair_scope="suffix", transfer=True)
    dropped = {
        name: [f.name for f in dataclasses.fields(Policy) if getattr(rule, f.name) != getattr(full, f.name)]
        for name, rule in POLICIES.items()
    }
    assert dropped == {
        "contextflow": [],
        "termination-follower": ["follow_termination"],
        "no-promoter": ["promote_on_lock"],
        "full-replanner": ["repair_scope"],
        "fixed-executor": ["transfer"],
    }
    assert POLICIES["full-replanner"].repair_scope == "full"


def test_no_variant_name_is_matched_outside_the_policies():
    src = Path(__file__).resolve().parent.parent / "src"
    assert [p for p in sorted(src.rglob("*.py")) if "variant ==" in p.read_text(encoding="utf-8")] == []


# -- apply_update -------------------------------------------------------------


def episode_bits(stages=None):
    world = quad_world()
    stages = stages or templates()
    workflow = compile_instruction(stages)
    registry = ExecutorRegistry(world)
    pose = Pose("n0", "E")
    obs = observe(world, pose, 1, 0)
    registry.spawn_for_stage("route-navigator", workflow.active(), pose, obs)
    return world, workflow, registry, pose, obs


def test_transfer_keeps_every_contract_field():
    world, workflow, registry, pose, obs = episode_bits()
    update = ScopedUpdate("transfer", {"target_kind": "local-searcher"})
    diff = apply_update(
        workflow, update, registry, MemoryState(), pose=pose, obs=obs
    )
    assert diff.changed == ()
    assert registry.current.kind == "local-searcher"


def test_promote_marks_crossed_stages_and_spawns():
    world, workflow, registry, pose, obs = episode_bits()
    update = ScopedUpdate("promote", {"target": 1})
    mem = MemoryState()
    diff = apply_update(
        workflow, update, registry, mem, pose=pose, obs=obs
    )
    assert workflow.frontier == 1
    assert [(c.index, c.field, c.before, c.after) for c in diff.changed] == [
        (0, "status", "active", "done"),
        (1, "status", "pending", "active"),
    ]
    # memory holds only anchors: a promote writes none
    assert mem.all_entries() == []


def test_promote_and_full_repair_move_only_the_frontier():
    # a stage's status follows from the frontier, so a promote replaces no
    # contract, and a full repair regenerates each stage once
    world, workflow, registry, pose, obs = episode_bits(templates(alternates=True))
    before = list(workflow.contracts)
    apply_update(workflow, ScopedUpdate("promote", {"target": 3}), registry, MemoryState(), pose=pose, obs=obs)
    assert workflow.frontier == 3
    assert all(c is b for c, b in zip(workflow.contracts, before))
    diff = apply_update(
        workflow, ScopedUpdate("repair", {"root": 0, "scope": "full"}), registry, MemoryState(), pose=pose, obs=obs
    )
    assert workflow.frontier == 0
    assert [c.alternate_cursor for c in workflow.contracts] == [1, 1, 1, 1]
    statuses = [(c.index, c.before, c.after) for c in diff.changed if c.field == "status"]
    assert statuses == [(0, "done", "active"), (1, "done", "pending"), (2, "done", "pending"), (3, "active", "pending")]


def test_promote_validates_target():
    world, workflow, registry, pose, obs = episode_bits()
    with pytest.raises(InvalidPromoteTarget):
        apply_update(
            workflow,
            ScopedUpdate("promote", {"target": 0}),
            registry,
            MemoryState(),
            pose=pose,
            obs=obs,
        )


def test_unknown_action_raises_unknown_action():
    world, workflow, registry, pose, obs = episode_bits()
    with pytest.raises(UnknownAction):
        apply_update(
            workflow, ScopedUpdate("teleport", {}), registry, MemoryState(), pose=pose, obs=obs
        )


def test_repair_replaces_suffix_and_preserves_prefix():
    world, workflow, registry, pose, obs = episode_bits(templates(alternates=True))
    update = ScopedUpdate("promote", {"target": 2})
    apply_update(
        workflow, update, registry, MemoryState(), pose=pose, obs=obs
    )
    before_prefix = [workflow.contracts[0], workflow.contracts[1]]
    repair = ScopedUpdate("repair", {"root": 2, "scope": "suffix"})
    mem = MemoryState()
    diff = apply_update(
        workflow, repair, registry, mem, pose=pose, obs=obs
    )
    assert diff.changed[0].index == 2  # stages 0 and 1 are retained
    assert workflow.contracts[0] == before_prefix[0]
    assert workflow.contracts[1] == before_prefix[1]
    assert workflow.contracts[2].name == "s2-alt"
    assert stage_status(2, workflow.frontier) == "active"
    assert workflow.contracts[2].alternate_cursor == 1
    assert mem.all_entries() == []


def test_suffix_repair_root_below_frontier_rejected():
    world, workflow, registry, pose, obs = episode_bits()
    apply_update(
        workflow,
        ScopedUpdate("promote", {"target": 1}),
        registry,
        MemoryState(),
        pose=pose,
        obs=obs,
    )
    with pytest.raises(InvalidRepairRoot):
        apply_update(
            workflow,
            ScopedUpdate("repair", {"root": 0, "scope": "suffix"}),
            registry,
            MemoryState(),
            pose=pose,
            obs=obs,
        )


def test_refine_binds_the_wildcard_in_handoff_and_expected():
    wild = StageTemplate(
        name="w",
        goal=StageGoal("door", "hall"),
        handoff=(EvidenceClause("object", "*", 0.3),),
        expected=(EvidenceClause("room", "room", 0.5),),
        compatible=("route-navigator",),
    )
    world, workflow, registry, pose, obs = episode_bits([wild])
    # below the clause's ambiguity band, so this is no stage lock
    update = select(workflow, packet(anchors=[Anchor("door", "object", 0.1, "n1")]), running())
    assert update.payload == {"clause_index": 0, "bind_label": "door"}
    diff = apply_update(
        workflow, update, registry, MemoryState(), pose=pose, obs=obs
    )
    bound = EvidenceClause("object", "door", 0.3)
    assert workflow.active().handoff == (bound,)
    assert workflow.active().expected == (bound, EvidenceClause("room", "room", 0.5))
    room = "room:room>=0.5/live-only"
    assert [(c.index, c.field, c.before, c.after) for c in diff.changed] == [
        (0, "handoff", "object:*>=0.3/live-only", "object:door>=0.3/live-only"),
        (0, "expected", f"object:*>=0.3/live-only;{room}", f"object:door>=0.3/live-only;{room}"),
    ]


def test_refine_updates_handoff_and_expected_in_lockstep():
    world, workflow, registry, pose, obs = episode_bits()
    update = ScopedUpdate("refine", {"clause_index": 0, "new_min_confidence": 0.8})
    apply_update(
        workflow, update, registry, MemoryState(), pose=pose, obs=obs
    )
    contract = workflow.active()
    assert contract.handoff[0].min_confidence == 0.8
    for clause in contract.handoff:
        assert clause in contract.expected


def test_continue_restart_respawns_same_kind():
    world, workflow, registry, pose, obs = episode_bits()
    first = registry.current
    apply_update(
        workflow,
        ScopedUpdate("continue", {"restart": True}),
        registry,
        MemoryState(),
        pose=pose,
        obs=obs,
    )
    assert registry.current is not first
    assert registry.current.kind == first.kind


def test_retry_count_resets_once_progress_passes_its_mark():
    world, workflow, registry, pose, obs = episode_bits()
    session = PlannerSession(POLICIES["contextflow"])

    def consult(progress, tick):
        status = Status("done", progress)
        pkt = packet(tick=tick)
        live = boundary_live(workflow, pkt.a)
        result = session.consult(workflow, pkt, status, MemoryState(), registry, pose, obs, live)
        return result.consultation.retry_count, result.update.action

    # the handoff stays unsupported: two restarts at one progress ...
    assert [consult(0.5, 0), consult(0.5, 2)] == [(0, "continue"), (1, "continue")]
    # ... then progress past the mark resets the count, so a third restart
    # does not escalate
    assert consult(0.6, 4) == (0, "continue")
    # without further progress, the count climbs to the escalation again
    assert [consult(0.6, 6), consult(0.6, 8)] == [(1, "continue"), (2, "transfer")]


def test_retry_steps_count_restarts_per_frontier_until_progress():
    restarts, workflow = {}, compile_instruction(templates())
    restart, hold = ScopedUpdate("continue", {"restart": True}), ScopedUpdate("continue", {})

    def step(frontier, progress, update):
        workflow.frontier = frontier
        status = Status("done", progress)
        c = consultation(workflow, packet(), status, retry=retry_count(restarts, frontier, status))
        note_restart(restarts, c, update)
        return c.retry_count

    assert [step(0, 0.5, restart), step(0, 0.5, restart), step(1, 0.5, restart)] == [0, 1, 0]
    # a plain Continue counts nothing; progress past the mark clears the count
    assert [step(0, 0.5, hold), step(0, 0.7, restart), step(0, 0.2, restart)] == [2, 0, 1]
    assert restarts == {0: (2, 0.2), 1: (1, 0.5)}
    # a count cleared under a plain Continue stays cleared when progress falls back
    assert [step(1, 0.6, hold), step(1, 0.4, hold)] == [0, 0]
    assert restarts == {0: (2, 0.2)}


def test_boundary_reports_cover_all_downstream_stages():
    workflow = compile_instruction(templates())
    pkt = packet(anchors=[Anchor("door", "object", 0.9, "n1")])
    reports = boundary_reports(consultation(workflow, pkt, running()))
    assert sorted(reports) == [0, 1, 2, 3]
    assert reports[0].satisfied and reports[1].satisfied
    assert not reports[2].satisfied


def test_memory_slice_decides_as_the_wide_query(monkeypatch):
    """The recorded memory slice gives every consultation of the golden
    episode and the 30 x 5 stress suite the same classification as the
    wider label-or-region query it replaced."""
    from contextflow import alignment
    from contextflow.harness import RunConfig, run_episode
    from contextflow.scenario import golden_scenario_path, load_scenario, load_suite, stress_suite_dir

    original = PlannerSession.consult
    seen = {"consultations": 0, "memory_matches": 0}

    def wide_query(workflow, mem):
        active = workflow.active()
        labels = {
            clause.label
            for contract in workflow.contracts[workflow.frontier :]
            for clause in contract.handoff
            if not clause.is_wildcard()
        }
        labels.add(active.goal.target)
        hits = [
            e for e in mem.all_entries() if e.anchor.label in labels or e.region == active.goal.region
        ]
        return sorted(hits, key=lambda e: (-e.tick, e.stage_index, -e.seq))

    def consult(session, workflow, packet, status, mem, *args, **kwargs):
        narrow = alignment.classify_misalignment(
            consultation(workflow, packet, status, memory=session._memory_context(workflow, mem))
        )
        wide = alignment.classify_misalignment(consultation(workflow, packet, status, memory=wide_query(workflow, mem)))
        assert narrow == wide
        seen["consultations"] += 1
        seen["memory_matches"] += sum(
            m.provenance == "memory-corroborated"
            for report in narrow[1].values()
            for m in report.matched
        )
        return original(session, workflow, packet, status, mem, *args, **kwargs)

    monkeypatch.setattr(PlannerSession, "consult", consult)
    run_episode(load_scenario(golden_scenario_path()), RunConfig())
    for scenario in load_suite(stress_suite_dir()):
        for variant in VARIANTS:
            run_episode(scenario, RunConfig(variant=variant))
    assert seen["consultations"] > 4000
    assert seen["memory_matches"] > 0  # the corroborated-memory path ran
