"""Planner core: classify the misalignment case and apply one scoped update.

Classification runs in a fixed priority order (contradiction, stage lock,
unsupported handoff, executor-context mismatch, ambiguous contract) and the
selected update is one of Continue / Refine / Transfer / Promote / Repair.
Both steps are pure functions of the recorded consultation inputs, so any
board record can be replayed and checked for drift. So are the step that
applies an update to the workflow (`advance`), the executor kind it
spawns (`spawned_kind`) and the retry count (the two retry steps,
`retry_count` and `note_restart`, over a dict of restarts by frontier),
which the run and the replay share: a trace derives each record's
workflow, executor kind and retry count from its header and the recorded
updates.

Each decision reads one `Consultation`, which `PlannerSession.consult` and
`board.replay_inputs` build from the same values: the executor's `Status`
and the retry count. A planner variant is a `Policy` of the full
policy's levers; each ablation drops one (termination-follower, no-promoter,
full-replanner, fixed-executor). `policy` looks a variant's name up.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .contracts import (
    SOURCE_MEMORY_OK,
    ClauseMatch,
    PlanDiff,
    SatisfactionReport,
    StageContract,
    StageTemplate,
    Workflow,
    best_live,
    contract_from_template,
    handoff_satisfied,
    plan_diff,
)
from .errors import InvalidPromoteTarget, InvalidRepairRoot, InvalidRunConfig, UnknownAction
from .executors import ExecutorRegistry, Status, effective_tags
from .memory import MemoryEntry, MemoryState, retrieve
# perfbench/tracer.py times record_event calls through each module's name
from .memory import record_event  # noqa: F401
from .monitor import FITNESS_TRANSFER_THRESHOLD, Evidence, EvidencePacket, fitness_from_tags


@dataclass(frozen=True)
class Policy:
    """The levers of the full policy that the paper's ablations drop:
    promote on the executor's `done` and otherwise continue, ignoring the
    case (`follow_termination`); promote on a stage lock; regenerate a
    contradicted suffix or the whole plan (`repair_scope`, "suffix" or
    "full"); transfer to a better-fitting executor."""

    follow_termination: bool = False
    promote_on_lock: bool = True
    repair_scope: str = "suffix"
    transfer: bool = True


POLICIES = {
    "contextflow": Policy(),
    "termination-follower": Policy(follow_termination=True),
    "no-promoter": Policy(promote_on_lock=False),
    "full-replanner": Policy(repair_scope="full"),
    "fixed-executor": Policy(transfer=False),
}
VARIANTS = tuple(POLICIES)


def policy(name: str) -> Policy:
    """The `Policy` of a planner variant's name; a name not in `VARIANTS`
    raises `InvalidRunConfig`."""
    if type(name) is not str or name not in POLICIES:
        raise InvalidRunConfig(f"unknown planner variant {name!r}")
    return POLICIES[name]


CASE_NONE = "none"
CASE_UNSUPPORTED_HANDOFF = "unsupported-handoff"
CASE_STAGE_LOCK = "stage-lock"
CASE_EXECUTOR_MISMATCH = "executor-context-mismatch"
CASE_SUFFIX_CONTRADICTION = "suffix-contradiction"
CASE_AMBIGUOUS = "ambiguous-contract"

ACT_CONTINUE = "continue"
ACT_REFINE = "refine"
ACT_TRANSFER = "transfer"
ACT_PROMOTE = "promote"
ACT_REPAIR = "repair"

RETRY_ESCALATION = 2
REFINE_STEP = 0.1
REFINE_CAP = 0.95


@dataclass(frozen=True)
class MisalignmentCase:
    case: str
    detail: dict


@dataclass(frozen=True)
class ScopedUpdate:
    action: str
    payload: dict


@dataclass(frozen=True)
class Consultation:
    """What one decision reads: the workflow, the consulted executor's kind,
    the memory slice the planner can match, the monitor's packet and its
    `boundary_live`, the executor's `Status` and the retry count."""

    workflow: Workflow
    kind: str
    memory: Sequence[MemoryEntry]
    packet: EvidencePacket
    live: dict[int, tuple]
    status: Status
    retry_count: int


def boundary_reports(c: Consultation) -> dict[int, SatisfactionReport]:
    """Satisfaction of every handoff boundary at or beyond the frontier, from
    the packet's `boundary_live`."""
    workflow, packet = c.workflow, c.packet
    return {
        i: handoff_satisfied(workflow.contracts[i], packet, c.memory, packet.tick, c.live[i])
        for i in range(workflow.frontier, len(workflow.contracts))
    }


def classify_misalignment(c: Consultation) -> tuple[MisalignmentCase, dict[int, SatisfactionReport]]:
    """Priority-ordered case detection for the active stage, given the
    packet's `boundary_live`. Returns the case together with the boundary
    reports used to decide it; the active handoff's report is
    `reports[workflow.frontier]`."""
    workflow, packet, status = c.workflow, c.packet, c.status
    reports = boundary_reports(c)
    active_report = reports[workflow.frontier]

    cues = [cue for cue in packet.u if cue.stage >= workflow.frontier]
    if cues:
        worst = min(cues, key=lambda cue: cue.stage)
        case = MisalignmentCase(
            CASE_SUFFIX_CONTRADICTION,
            {"stage": worst.stage, "conflicting": worst.conflicting, "streak": worst.streak},
        )
        return case, reports

    # stage lock: live evidence alone matches every clause of the handoff
    outcomes = c.live[workflow.frontier]
    if status.state == "running" and outcomes and all(type(o) is ClauseMatch for o in outcomes):
        case = MisalignmentCase(
            CASE_STAGE_LOCK, {"boundary": workflow.frontier, "unlocked": workflow.frontier + 1}
        )
        return case, reports

    done_and_satisfied = status.state == "done" and active_report.satisfied

    if status.state == "done" and not active_report.satisfied:
        case = MisalignmentCase(
            CASE_UNSUPPORTED_HANDOFF,
            {
                "missing": [c.label for c in active_report.missing],
                "ambiguous": [a.clause.label for a in active_report.ambiguous],
            },
        )
        return case, reports

    if packet.q < FITNESS_TRANSFER_THRESHOLD and not done_and_satisfied:
        return MisalignmentCase(CASE_EXECUTOR_MISMATCH, {"q": packet.q}), reports

    wildcard_candidate = _wildcard_with_candidate(workflow.active(), packet)
    if not done_and_satisfied and (active_report.ambiguous or wildcard_candidate):
        detail = {"clauses": [a.clause.label for a in active_report.ambiguous]}
        if wildcard_candidate:
            detail["wildcard"] = wildcard_candidate
        return MisalignmentCase(CASE_AMBIGUOUS, detail), reports

    return MisalignmentCase(CASE_NONE, {}), reports


def _wildcard_with_candidate(contract: StageContract, packet: Evidence) -> str | None:
    for clause in contract.handoff:
        if not clause.is_wildcard():
            continue
        best = best_live(clause, packet.a)
        if best is not None:
            return best.label
    return None


def _chain_target(workflow: Workflow, reports: dict[int, SatisfactionReport]) -> int:
    """Greatest stage index reachable by crossing only satisfied boundaries."""
    j = workflow.frontier
    while j < len(workflow.contracts) and reports.get(j) and reports[j].satisfied:
        j += 1
    return j


def _best_kind(contract: StageContract, packet: Evidence) -> str:
    """The compatible kind whose effective tags best fit the scene; the
    first listed wins ties."""
    return max(
        contract.compatible,
        key=lambda kind: fitness_from_tags(
            effective_tags(kind, packet.degraded), packet.scene_tags
        ),
    )


def _refine_update(contract: StageContract, packet, active_report) -> ScopedUpdate:
    wildcard_label = _wildcard_with_candidate(contract, packet)
    if wildcard_label is not None and not active_report.ambiguous:
        idx = next(i for i, c in enumerate(contract.handoff) if c.is_wildcard())
        return ScopedUpdate(ACT_REFINE, {"clause_index": idx, "bind_label": wildcard_label})
    target = active_report.ambiguous[0].clause
    idx = contract.handoff.index(target)
    new_conf = min(round(target.min_confidence + REFINE_STEP, 6), REFINE_CAP)
    return ScopedUpdate(ACT_REFINE, {"clause_index": idx, "new_min_confidence": new_conf})


def regenerate_contract(
    contract: StageContract, templates: Sequence[StageTemplate]
) -> StageContract:
    """Regenerated stage: the next declared alternate grounding when one is
    left, otherwise a fresh copy of the original template."""
    template = templates[contract.template_index]
    cursor = contract.alternate_cursor
    source = template.alternates[cursor] if cursor < len(template.alternates) else template
    return contract_from_template(source, contract.template_index, alternate_cursor=cursor + 1)


def select_update(
    case: MisalignmentCase, c: Consultation, reports: dict[int, SatisfactionReport], policy: Policy
) -> ScopedUpdate:
    """Map the classified case to exactly one scoped update under `policy`'s
    levers: the termination follower reads only the executor's status; a
    dropped lever turns its stage-lock promote or its transfer into a
    Continue that names what it suppressed."""
    workflow, packet, status = c.workflow, c.packet, c.status
    if policy.follow_termination:
        if status.state == "done":
            return ScopedUpdate(ACT_PROMOTE, {"target": workflow.frontier + 1})
        return ScopedUpdate(ACT_CONTINUE, {})
    contract = workflow.active()
    active_report = reports[workflow.frontier]
    if case.case == CASE_SUFFIX_CONTRADICTION:
        root = case.detail["stage"] if policy.repair_scope == "suffix" else 0
        return ScopedUpdate(ACT_REPAIR, {"root": root, "scope": policy.repair_scope})
    if case.case == CASE_STAGE_LOCK:
        if not policy.promote_on_lock:
            return ScopedUpdate(ACT_CONTINUE, {"suppressed": ACT_PROMOTE})
        return ScopedUpdate(ACT_PROMOTE, {"target": _chain_target(workflow, reports)})
    if case.case == CASE_AMBIGUOUS or (case.case == CASE_UNSUPPORTED_HANDOFF and active_report.ambiguous):
        return _refine_update(contract, packet, active_report)
    if case.case == CASE_UNSUPPORTED_HANDOFF and c.retry_count < RETRY_ESCALATION:
        return ScopedUpdate(ACT_CONTINUE, {"restart": True})
    if case.case in (CASE_EXECUTOR_MISMATCH, CASE_UNSUPPORTED_HANDOFF):  # an escalated restart transfers too
        if not policy.transfer:
            return ScopedUpdate(ACT_CONTINUE, {"suppressed": ACT_TRANSFER})
        return ScopedUpdate(ACT_TRANSFER, {"target_kind": _best_kind(contract, packet)})
    if status.state == "done" and active_report.satisfied:
        return ScopedUpdate(ACT_PROMOTE, {"target": _chain_target(workflow, reports)})
    return ScopedUpdate(ACT_CONTINUE, {})


def apply_update(
    workflow: Workflow,
    update: ScopedUpdate,
    registry: ExecutorRegistry,
    mem: MemoryState,
    *,
    pose,
    obs,
) -> PlanDiff:
    """Apply one scoped update to the workflow (`advance`) and the executor
    registry, in place, and return the before/after plan diff. At most one
    executor is spawned for the active stage, of the `spawned_kind`. It
    reads `mem`; no update writes to it, and no executor status steers it."""
    before = workflow.copy()
    advance(workflow, update)
    kind = spawned_kind(workflow, update, registry.current.kind)
    if kind is not None:
        registry.spawn_for_stage(kind, workflow.active(), pose, obs, mem.all_entries())
    return plan_diff(before, workflow)


def spawned_kind(workflow: Workflow, update: ScopedUpdate, live_kind: str) -> str | None:
    """The executor kind that `update` spawns once `workflow` has taken it,
    given the `live_kind` that was consulted; None when it spawns none. A
    restarting Continue respawns the live kind, a Transfer its
    `target_kind`, and a Promote or Repair that leaves a stage open the
    active stage's first compatible kind. The run spawns it, and the replay
    tracks the consulted kind by it."""
    action = update.action
    if workflow.is_complete() or action == ACT_REFINE:
        return None
    if action == ACT_CONTINUE:
        return live_kind if update.payload.get("restart") else None
    if action == ACT_TRANSFER:
        return update.payload["target_kind"]
    return workflow.active().compatible[0]  # a promote or repair opens the active stage afresh


def advance(workflow: Workflow, update: ScopedUpdate) -> None:
    """The one rule by which a workflow changes, for the run and the replay
    alike: apply a Refine, Promote or Repair in place. A Promote or a full
    Repair moves the frontier, and with it every stage's `stage_status`. A
    Continue or a Transfer leaves the workflow as it is; any other action
    raises `UnknownAction`."""
    action = update.action
    if action == ACT_REFINE:
        _apply_refine(workflow, update.payload)
    elif action == ACT_PROMOTE:
        _apply_promote(workflow, update.payload["target"])
    elif action == ACT_REPAIR:
        _apply_repair(workflow, update.payload)
    elif action not in (ACT_CONTINUE, ACT_TRANSFER):
        raise UnknownAction(action)


def _apply_refine(workflow: Workflow, payload: dict) -> None:
    contract = workflow.active()
    idx = payload["clause_index"]
    old = contract.handoff[idx]
    if "bind_label" in payload:
        new = replace(old, label=payload["bind_label"])
    else:
        new = replace(old, min_confidence=payload["new_min_confidence"])
    handoff = list(contract.handoff)
    handoff[idx] = new
    expected = [new if c == old else c for c in contract.expected]
    workflow.contracts[workflow.frontier] = replace(
        contract, handoff=tuple(handoff), expected=tuple(expected)
    )


def promote_targets(frontier: int, stages: int) -> range:
    """The targets a promote may name: past the frontier, up to one past the
    last of `stages` stages (which completes the workflow)."""
    return range(frontier + 1, stages + 1)


def _apply_promote(workflow: Workflow, target: int) -> None:
    if target not in promote_targets(workflow.frontier, len(workflow.contracts)):
        raise InvalidPromoteTarget(f"target {target} from frontier {workflow.frontier}")
    workflow.frontier = target


def _apply_repair(workflow: Workflow, payload: dict) -> None:
    """Regenerate every stage from `root` on (`regenerate_contract`); a
    `full` scope also moves the frontier back to stage 0. A `suffix` root is
    at or past the frontier, so it regenerates only open stages."""
    root, scope = payload["root"], payload["scope"]
    if root < 0 or root > workflow.last_index():
        raise InvalidRepairRoot(str(root))
    if scope == "suffix" and root < workflow.frontier:
        raise InvalidRepairRoot(f"suffix root {root} below frontier {workflow.frontier}")
    for i in range(root, len(workflow.contracts)):
        workflow.contracts[i] = regenerate_contract(workflow.contracts[i], workflow.templates)
    if scope == "full":
        workflow.frontier = 0


def retry_count(restarts: dict[int, tuple[int, float]], frontier: int, status: Status) -> int:
    """The restarts at `frontier` that a decision reads. `restarts` holds,
    by frontier, the count and the executor's progress at the last restart;
    the count reads 0 once `status` passes that mark."""
    count, mark = restarts.get(frontier, (0, 0.0))
    return 0 if status.progress > mark + 1e-9 else count


def note_restart(restarts: dict[int, tuple[int, float]], c: Consultation, update: ScopedUpdate) -> None:
    """The one write of the retry steps, once `c` has decided `update`: a
    restarting Continue counts one more restart at `c`'s frontier, marked
    with `c`'s progress; otherwise a count that `c` read as cleared is
    dropped."""
    frontier = c.workflow.frontier
    if update.action == ACT_CONTINUE and update.payload.get("restart"):
        restarts[frontier] = c.retry_count + 1, c.status.progress
    elif not c.retry_count:
        restarts.pop(frontier, None)


@dataclass(frozen=True)
class ConsultResult:
    consultation: Consultation
    update: ScopedUpdate


@dataclass
class PlannerSession:
    """Per-episode planner: its policy and the restarts by frontier that
    its retry steps keep (`retry_count`, `note_restart`)."""

    policy: Policy
    restarts: dict[int, tuple[int, float]] = field(default_factory=dict)

    def consult(
        self,
        workflow: Workflow,
        packet: EvidencePacket,
        status: Status,
        mem: MemoryState,
        registry: ExecutorRegistry,
        pose,
        obs,
        live: dict[int, tuple],
    ) -> ConsultResult:
        """One consultation; `live` is the monitor's `boundary_live` for
        `packet`."""
        memory = self._memory_context(workflow, mem)
        retries = retry_count(self.restarts, workflow.frontier, status)
        c = Consultation(workflow, registry.current.kind, memory, packet, live, status, retries)
        case, reports = classify_misalignment(c)
        update = select_update(case, c, reports, self.policy)
        note_restart(self.restarts, c, update)  # before `apply_update` moves `c.workflow`'s frontier
        apply_update(workflow, update, registry, mem, pose=pose, obs=obs)
        return ConsultResult(c, update)

    def _memory_context(self, workflow: Workflow, mem: MemoryState) -> list[MemoryEntry]:
        """The memory a decision can use: anchor entries whose (kind, label)
        names a non-wildcard memory-admitting handoff clause at or past the
        frontier, the only entries `_memory_match` reads. Kept in
        `retrieve`'s newest-first order, whose `-seq` tie-break the stable
        sort in `_memory_match` relies on."""
        wanted = {
            (clause.kind, clause.label)
            for contract in workflow.contracts[workflow.frontier :]
            for clause in contract.handoff
            if clause.source == SOURCE_MEMORY_OK and not clause.is_wildcard()
        }
        if not wanted:
            return []
        labels = tuple(sorted({label for _, label in wanted}))
        return [e for e in retrieve(mem, labels=labels) if (e.anchor.kind, e.anchor.label) in wanted]
