"""Planner-core tests: case classification, update selection under every
variant, and scoped-update application."""

from __future__ import annotations

import pytest

from contextflow.alignment import (
    CASE_AMBIGUOUS,
    CASE_EXECUTOR_MISMATCH,
    CASE_NONE,
    CASE_STAGE_LOCK,
    CASE_SUFFIX_CONTRADICTION,
    CASE_UNSUPPORTED_HANDOFF,
    VARIANTS,
    PlannerSession,
    apply_update,
    boundary_reports,
    classify_misalignment,
    regenerate_contract,
    select_update,
    ScopedUpdate,
)
from contextflow.codec import to_json
from contextflow.contracts import (
    EvidenceClause,
    StageGoal,
    StageStatus,
    StageTemplate,
    compile_instruction,
)
from contextflow.errors import InvalidPromoteTarget, InvalidRepairRoot, UnknownAction
from contextflow.executors import ExecutorRegistry, StatusReport
from contextflow.memory import MemoryState
from contextflow.monitor import ContradictionCue, Discovery, EvidencePacket
from contextflow.contracts import ClauseMatch
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
    d=(),
    u=(),
    q=1.0,
    scene=("route",),
    tick=0,
):
    return EvidencePacket(
        tick=tick,
        a=tuple(anchors),
        d=tuple(d),
        u=tuple(u),
        q=q,
        scene_tags=tuple(scene),
        degraded={},
    )


def running(progress=0.3):
    return StatusReport("running", progress, 0.6, "route")


def done():
    return StatusReport("done", 1.0, 0.9, "in-region")


def classify(workflow, pkt, status):
    return classify_misalignment(workflow, pkt, [], status)


def test_done_with_missing_clause_is_unsupported_handoff():
    workflow = compile_instruction(templates())
    case, reports = classify(workflow, packet(), done())
    assert case.case == CASE_UNSUPPORTED_HANDOFF
    assert not reports[workflow.frontier].satisfied


def test_running_with_satisfying_discovery_is_stage_lock():
    workflow = compile_instruction(templates())
    clause = workflow.active().handoff[0]
    anchor = Anchor("door", "object", 0.9, "n1")
    disc = Discovery(stage=1, match=ClauseMatch(clause, "live", "door", "n1", 0.9))
    case, _ = classify(workflow, packet(anchors=[anchor], d=[disc]), running())
    assert case.case == CASE_STAGE_LOCK


def test_empty_packet_running_is_none():
    workflow = compile_instruction(templates())
    case, _ = classify(workflow, packet(), running())
    assert case.case == CASE_NONE


def test_contradiction_cue_preempts_everything():
    workflow = compile_instruction(templates())
    cue = ContradictionCue(stage=2, assumption="mug", conflicting="basin", streak=3)
    case, _ = classify(workflow, packet(u=[cue], q=0.0), done())
    assert case.case == CASE_SUFFIX_CONTRADICTION
    assert case.detail["stage"] == 2


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


def select(workflow, pkt, status, variant="contextflow", retry=0, stages=None):
    case, reports = classify(workflow, pkt, status)
    return select_update(case, workflow, pkt, status, reports, retry, stages or templates(), variant)


def test_done_and_satisfied_promotes():
    workflow = compile_instruction(templates())
    pkt = packet(anchors=[Anchor("door", "object", 0.9, "n1")])
    update = select(workflow, pkt, done())
    assert update.action == "promote"
    # boundary 0 and 1 share the door clause, so the chain crosses both
    assert update.payload["target"] == 2


def test_contradiction_selects_scoped_repair():
    workflow = compile_instruction(templates(alternates=True))
    cue = ContradictionCue(stage=2, assumption="mug", conflicting="basin", streak=3)
    update = select(workflow, packet(u=[cue]), running(), stages=templates(alternates=True))
    assert update.action == "repair"
    assert update.payload["root"] == 2
    assert update.payload["scope"] == "suffix"
    regenerated = update.payload["regenerated"]
    assert [item["index"] for item in regenerated] == [2, 3]
    assert regenerated[0]["contract"]["name"] == "s2-alt"


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
    pkt = packet(anchors=[Anchor("arch", "landmark", 0.9, "n1")])
    update = select(workflow, pkt, running(), stages=[wild])
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
    clause = workflow.active().handoff[0]
    disc = Discovery(stage=1, match=ClauseMatch(clause, "live", "door", "n1", 0.9))
    pkt = packet(anchors=[Anchor("door", "object", 0.9, "n1")], d=[disc])
    update = select(workflow, pkt, running(), variant="no-promoter")
    assert update.action == "continue"
    assert update.payload["suppressed"] == "promote"


def test_full_replanner_repairs_from_root_zero():
    stages = templates(alternates=True)
    workflow = compile_instruction(stages)
    cue = ContradictionCue(stage=2, assumption="mug", conflicting="basin", streak=3)
    update = select(workflow, packet(u=[cue]), running(), variant="full-replanner", stages=stages)
    assert update.action == "repair"
    assert update.payload["root"] == 0
    assert update.payload["scope"] == "full"
    assert [item["index"] for item in update.payload["regenerated"]] == [0, 1, 2, 3]


def test_fixed_executor_never_transfers():
    workflow = compile_instruction(templates())
    update = select(
        workflow, packet(q=0.0, scene=("room-local",)), running(), variant="fixed-executor"
    )
    assert update.action == "continue"
    assert update.payload["suppressed"] == "transfer"


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
        workflow, update, registry, MemoryState(), pose=pose, obs=obs, tick=2, status=running()
    )
    assert diff.changed == ()
    assert registry.current.kind == "local-searcher"


def test_promote_marks_crossed_stages_and_spawns():
    world, workflow, registry, pose, obs = episode_bits()
    update = ScopedUpdate("promote", {"target": 1})
    mem = MemoryState()
    diff = apply_update(
        workflow, update, registry, mem, pose=pose, obs=obs, tick=2, status=done()
    )
    assert workflow.frontier == 1
    assert workflow.contracts[0].status == StageStatus.DONE
    assert workflow.contracts[1].status == StageStatus.ACTIVE
    assert len(diff.changed) == 2
    kinds = [e.kind for e in mem.long_term]
    assert "completed-stage" in kinds and "key-node" in kinds


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
            tick=2,
            status=done(),
        )


def test_unknown_action_raises_unknown_action():
    world, workflow, registry, pose, obs = episode_bits()
    with pytest.raises(UnknownAction):
        apply_update(
            workflow, ScopedUpdate("teleport", {}), registry, MemoryState(), pose=pose, obs=obs, tick=2
        )


def test_repair_replaces_suffix_and_preserves_prefix():
    stages = templates(alternates=True)
    world, workflow, registry, pose, obs = episode_bits(stages)
    update = ScopedUpdate("promote", {"target": 2})
    apply_update(
        workflow, update, registry, MemoryState(), pose=pose, obs=obs, tick=2, status=done()
    )
    before_prefix = [workflow.contracts[0], workflow.contracts[1]]
    repair = ScopedUpdate(
        "repair",
        {
            "root": 2,
            "scope": "suffix",
            "regenerated": [
                {"index": 2, "contract": to_json(regenerate_contract(workflow.contracts[2], stages))},
                {"index": 3, "contract": to_json(regenerate_contract(workflow.contracts[3], stages))},
            ],
        },
    )
    mem = MemoryState()
    diff = apply_update(
        workflow, repair, registry, mem, pose=pose, obs=obs, tick=6, status=running()
    )
    assert diff.retained_prefix == (0, 1)
    assert workflow.contracts[0] == before_prefix[0]
    assert workflow.contracts[1] == before_prefix[1]
    assert workflow.contracts[2].name == "s2-alt"
    assert workflow.contracts[2].status == StageStatus.ACTIVE
    assert workflow.contracts[2].alternate_cursor == 1
    assert [r.contract.status for r in workflow.retired] == [
        StageStatus.REPAIRED_OUT,
        StageStatus.REPAIRED_OUT,
    ]
    assert any(e.kind == "repair-summary" for e in mem.long_term)


def test_suffix_repair_root_below_frontier_rejected():
    world, workflow, registry, pose, obs = episode_bits()
    apply_update(
        workflow,
        ScopedUpdate("promote", {"target": 1}),
        registry,
        MemoryState(),
        pose=pose,
        obs=obs,
        tick=2,
        status=done(),
    )
    with pytest.raises(InvalidRepairRoot):
        apply_update(
            workflow,
            ScopedUpdate("repair", {"root": 0, "scope": "suffix", "regenerated": []}),
            registry,
            MemoryState(),
            pose=pose,
            obs=obs,
            tick=4,
            status=running(),
        )


def test_refine_updates_handoff_and_expected_in_lockstep():
    world, workflow, registry, pose, obs = episode_bits()
    update = ScopedUpdate("refine", {"clause_index": 0, "new_min_confidence": 0.8})
    apply_update(
        workflow, update, registry, MemoryState(), pose=pose, obs=obs, tick=2, status=running()
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
        tick=2,
        status=done(),
    )
    assert registry.current is not first
    assert registry.current.kind == first.kind


def test_boundary_reports_cover_all_downstream_stages():
    workflow = compile_instruction(templates())
    pkt = packet(anchors=[Anchor("door", "object", 0.9, "n1")])
    reports = boundary_reports(workflow, pkt, [], now=0)
    assert sorted(reports) == [0, 1, 2, 3]
    assert reports[0].satisfied and reports[1].satisfied
    assert not reports[2].satisfied


def test_memory_slice_decides_as_the_wide_query(monkeypatch):
    """The recorded memory slice gives every consultation of the golden
    episode and the 30 x 5 stress suite the same classification as the
    wider label-and-region query it replaced."""
    from contextflow import alignment
    from contextflow.harness import RunConfig, run_episode
    from contextflow.memory import retrieve
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
        return retrieve(mem, labels=tuple(sorted(labels)), region=active.goal.region)

    def consult(session, workflow, packet, status, mem, *args, **kwargs):
        narrow = alignment.classify_misalignment(
            workflow, packet, session._memory_context(workflow, mem), status
        )
        wide = alignment.classify_misalignment(workflow, packet, wide_query(workflow, mem), status)
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
