"""Planner core: classify the misalignment case and apply one scoped update.

Classification runs in a fixed priority order (contradiction, stage lock,
unsupported handoff, executor-context mismatch, ambiguous contract) and the
selected update is one of Continue / Refine / Transfer / Promote / Repair.
Both steps are pure functions of the recorded consultation inputs, so any
board record can be replayed and checked for drift.

Four ablated baseline policies share the same surface, each with one lever
disabled: termination-follower, no-promoter, full-replanner, fixed-executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .codec import from_json, to_json
from .contracts import (
    SOURCE_MEMORY_OK,
    PlanDiff,
    RetiredContract,
    SatisfactionReport,
    StageContract,
    StageStatus,
    StageTemplate,
    Workflow,
    contract_from_template,
    handoff_satisfied,
    plan_diff,
)
from .errors import InvalidPromoteTarget, InvalidRepairRoot, UnknownAction
from .executors import ExecutorRegistry, StatusReport, effective_tags
from .memory import MemoryEntry, MemoryState, record_event, retrieve
from .monitor import FITNESS_TRANSFER_THRESHOLD, EvidencePacket, fitness_from_tags

VARIANTS = (
    "contextflow",
    "termination-follower",
    "no-promoter",
    "full-replanner",
    "fixed-executor",
)

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


def boundary_reports(
    workflow: Workflow,
    packet: EvidencePacket,
    memory_entries: Sequence[MemoryEntry],
    now: int,
) -> dict[int, SatisfactionReport]:
    """Satisfaction of every handoff boundary at or beyond the frontier."""
    return {
        i: handoff_satisfied(workflow.contracts[i], packet, memory_entries, now)
        for i in range(workflow.frontier, len(workflow.contracts))
    }


def _d_covers_boundary(packet: EvidencePacket, workflow: Workflow) -> bool:
    """True when the discoveries fully satisfy the frontier's handoff."""
    clauses = workflow.contracts[workflow.frontier].handoff
    if not clauses:
        return False
    unlocked = workflow.frontier + 1
    for clause in clauses:
        if not any(d.stage == unlocked and d.match.clause == clause for d in packet.d):
            return False
    return True


def classify_misalignment(
    workflow: Workflow,
    packet: EvidencePacket,
    memory_entries: Sequence[MemoryEntry],
    status: StatusReport,
) -> tuple[MisalignmentCase, dict[int, SatisfactionReport]]:
    """Priority-ordered case detection for the active stage. Returns the case
    together with the boundary reports used to decide it; the active
    handoff's report is `reports[workflow.frontier]`."""
    reports = boundary_reports(workflow, packet, memory_entries, packet.tick)
    active_report = reports[workflow.frontier]

    cues = [c for c in packet.u if c.stage >= workflow.frontier]
    if cues:
        worst = min(cues, key=lambda c: c.stage)
        case = MisalignmentCase(
            CASE_SUFFIX_CONTRADICTION,
            {"stage": worst.stage, "conflicting": worst.conflicting, "streak": worst.streak},
        )
        return case, reports

    if status.state == "running" and _d_covers_boundary(packet, workflow):
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


def _wildcard_with_candidate(contract: StageContract, packet: EvidencePacket) -> str | None:
    for clause in contract.handoff:
        if not clause.is_wildcard():
            continue
        candidates = [a for a in packet.a if a.kind == clause.kind]
        if candidates:
            best = max(candidates, key=lambda a: (a.confidence, a.label, a.node))
            return best.label
    return None


def _chain_target(workflow: Workflow, reports: dict[int, SatisfactionReport]) -> int:
    """Greatest stage index reachable by crossing only satisfied boundaries."""
    j = workflow.frontier
    while j < len(workflow.contracts) and reports.get(j) and reports[j].satisfied:
        j += 1
    return j


def _best_kind(contract: StageContract, packet: EvidencePacket) -> str:
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
    return contract_from_template(
        source, contract.template_index, StageStatus.PENDING, alternate_cursor=cursor + 1
    )


def _repair_update(
    workflow: Workflow,
    root: int,
    scope: str,
    templates: Sequence[StageTemplate],
) -> ScopedUpdate:
    regenerated = []
    for i in range(root, len(workflow.contracts)):
        contract = workflow.contracts[i]
        if scope == "suffix" and contract.status not in (
            StageStatus.PENDING,
            StageStatus.ACTIVE,
        ):
            continue
        fresh = regenerate_contract(contract, templates)
        regenerated.append({"index": i, "contract": to_json(fresh)})
    return ScopedUpdate(ACT_REPAIR, {"root": root, "scope": scope, "regenerated": regenerated})


def _contextflow_select(
    case: MisalignmentCase,
    workflow: Workflow,
    packet: EvidencePacket,
    status: StatusReport,
    reports: dict[int, SatisfactionReport],
    retry_count: int,
    templates: Sequence[StageTemplate],
) -> ScopedUpdate:
    contract = workflow.active()
    active_report = reports[workflow.frontier]
    if case.case == CASE_SUFFIX_CONTRADICTION:
        return _repair_update(workflow, case.detail["stage"], "suffix", templates)
    if case.case == CASE_STAGE_LOCK:
        return ScopedUpdate(ACT_PROMOTE, {"target": _chain_target(workflow, reports)})
    if case.case == CASE_EXECUTOR_MISMATCH:
        return ScopedUpdate(ACT_TRANSFER, {"target_kind": _best_kind(contract, packet)})
    if case.case == CASE_UNSUPPORTED_HANDOFF:
        if active_report.ambiguous:
            return _refine_update(contract, packet, active_report)
        if retry_count >= RETRY_ESCALATION:
            return ScopedUpdate(ACT_TRANSFER, {"target_kind": _best_kind(contract, packet)})
        return ScopedUpdate(ACT_CONTINUE, {"restart": True})
    if case.case == CASE_AMBIGUOUS:
        return _refine_update(contract, packet, active_report)
    if status.state == "done" and active_report.satisfied:
        return ScopedUpdate(ACT_PROMOTE, {"target": _chain_target(workflow, reports)})
    return ScopedUpdate(ACT_CONTINUE, {})


def select_update(
    case: MisalignmentCase,
    workflow: Workflow,
    packet: EvidencePacket,
    status: StatusReport,
    reports: dict[int, SatisfactionReport],
    retry_count: int,
    templates: Sequence[StageTemplate],
    variant: str = "contextflow",
) -> ScopedUpdate:
    """Map the classified case to exactly one scoped update under the given
    planner variant."""
    if variant == "termination-follower":
        if status.state == "done":
            return ScopedUpdate(ACT_PROMOTE, {"target": workflow.frontier + 1})
        return ScopedUpdate(ACT_CONTINUE, {})

    update = _contextflow_select(case, workflow, packet, status, reports, retry_count, templates)
    if variant == "no-promoter" and case.case == CASE_STAGE_LOCK:
        return ScopedUpdate(ACT_CONTINUE, {"suppressed": ACT_PROMOTE})
    if variant == "full-replanner" and case.case == CASE_SUFFIX_CONTRADICTION:
        return _repair_update(workflow, 0, "full", templates)
    if variant == "fixed-executor" and update.action == ACT_TRANSFER:
        return ScopedUpdate(ACT_CONTINUE, {"suppressed": ACT_TRANSFER})
    return update


def apply_update(
    workflow: Workflow,
    update: ScopedUpdate,
    registry: ExecutorRegistry,
    mem: MemoryState,
    *,
    pose,
    obs,
    tick: int,
    status: StatusReport | None = None,
) -> PlanDiff:
    """Apply one scoped update to the workflow, executor registry, and memory,
    in place, and return the before/after plan diff."""
    before = Workflow(contracts=list(workflow.contracts), frontier=workflow.frontier)
    action = update.action

    if action == ACT_CONTINUE:
        if update.payload.get("restart") and not workflow.is_complete():
            kind = registry.current.kind if registry.current else None
            _respawn(workflow, registry, mem, pose, obs, kind)
    elif action == ACT_REFINE:
        _apply_refine(workflow, update.payload)
    elif action == ACT_TRANSFER:
        _respawn(workflow, registry, mem, pose, obs, update.payload["target_kind"])
    elif action == ACT_PROMOTE:
        _apply_promote(workflow, update.payload["target"], registry, mem, pose, obs, tick, status)
    elif action == ACT_REPAIR:
        _apply_repair(workflow, update.payload, registry, mem, pose, obs, tick)
    else:
        raise UnknownAction(action)

    return plan_diff(before, workflow)


def _respawn(workflow, registry, mem, pose, obs, kind: str | None = None) -> None:
    """A fresh executor of `kind` (default: the first compatible one) for the
    active stage, in place of the live one."""
    contract = workflow.active()
    kind = kind or contract.compatible[0]
    registry.despawn()
    registry.spawn_for_stage(kind, contract, pose, obs, mem.all_entries())


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


def _apply_promote(workflow, target, registry, mem, pose, obs, tick, status) -> None:
    if target <= workflow.frontier or target > len(workflow.contracts):
        raise InvalidPromoteTarget(f"target {target} from frontier {workflow.frontier}")
    executor_done = status is not None and status.state == "done"
    for i in range(workflow.frontier, target):
        contract = workflow.contracts[i]
        closed = (
            StageStatus.DONE
            if i == workflow.frontier and executor_done
            else StageStatus.DONE_PROMOTED
        )
        workflow.contracts[i] = replace(contract, status=closed)
        record_event(
            mem,
            MemoryEntry(tick=tick, kind="completed-stage", stage_index=i, tag=contract.name),
        )
    record_event(
        mem,
        MemoryEntry(
            tick=tick,
            kind="key-node",
            stage_index=target - 1,
            region=registry.world.region_of(pose.node),
            tag=pose.node,
        ),
    )
    workflow.frontier = target
    if not workflow.is_complete():
        nxt = workflow.contracts[target]
        workflow.contracts[target] = replace(nxt, status=StageStatus.ACTIVE)
        _respawn(workflow, registry, mem, pose, obs)


def _apply_repair(workflow, payload, registry, mem, pose, obs, tick) -> None:
    root, scope = payload["root"], payload["scope"]
    if root < 0 or root > workflow.last_index():
        raise InvalidRepairRoot(str(root))
    if scope == "suffix" and root < workflow.frontier:
        raise InvalidRepairRoot(f"suffix root {root} below frontier {workflow.frontier}")
    for item in payload["regenerated"]:
        idx = item["index"]
        old = workflow.contracts[idx]
        workflow.retired.append(
            RetiredContract(
                index=idx, tick=tick, contract=replace(old, status=StageStatus.REPAIRED_OUT)
            )
        )
        workflow.contracts[idx] = from_json(StageContract, item["contract"])
    if scope == "full":
        workflow.frontier = 0
    active = workflow.contracts[workflow.frontier]
    if active.status != StageStatus.ACTIVE:
        workflow.contracts[workflow.frontier] = replace(active, status=StageStatus.ACTIVE)
    record_event(
        mem,
        MemoryEntry(tick=tick, kind="repair-summary", stage_index=root, tag=f"root={root}"),
    )
    _respawn(workflow, registry, mem, pose, obs)


@dataclass
class ConsultResult:
    case: MisalignmentCase
    memory_context: list[MemoryEntry]
    retry_count: int
    update: ScopedUpdate
    diff: PlanDiff
    workflow_before: dict


@dataclass
class PlannerSession:
    """Per-episode planner: variant policy plus restart bookkeeping."""

    variant: str
    templates: Sequence[StageTemplate]
    retry: dict[int, int] = field(default_factory=dict)
    progress_mark: dict[int, float] = field(default_factory=dict)
    # (frontier, contracts, snapshot) of the last encoded workflow
    _encoded: tuple = field(default=(-1, (), None), init=False, repr=False)

    def consult(
        self,
        workflow: Workflow,
        packet: EvidencePacket,
        status: StatusReport,
        mem: MemoryState,
        registry: ExecutorRegistry,
        pose,
        obs,
        tick: int,
    ) -> ConsultResult:
        snapshot = self._snapshot(workflow)
        memory_context = self._memory_context(workflow, mem)
        case, reports = classify_misalignment(workflow, packet, memory_context, status)
        frontier = workflow.frontier
        retry_count = self._retry_count(frontier, status)
        update = select_update(
            case, workflow, packet, status, reports, retry_count, self.templates, self.variant
        )
        if update.action == ACT_CONTINUE and update.payload.get("restart"):
            self.retry[frontier] = retry_count + 1
            self.progress_mark[frontier] = status.progress
        diff = apply_update(
            workflow, update, registry, mem, pose=pose, obs=obs, tick=tick, status=status
        )
        return ConsultResult(
            case=case,
            memory_context=memory_context,
            retry_count=retry_count,
            update=update,
            diff=diff,
            workflow_before=snapshot,
        )

    def _snapshot(self, workflow: Workflow) -> dict:
        """`to_json(workflow)`, encoded again only when the frontier moved or
        a contract was replaced. Contracts are frozen, so the same objects
        encode the same; the held tuple keeps them alive, so `is` cannot
        match a new object that reuses an old one's id."""
        frontier, contracts, snapshot = self._encoded
        if workflow.frontier != frontier or len(workflow.contracts) != len(contracts) or any(
            a is not b for a, b in zip(workflow.contracts, contracts)
        ):
            snapshot = to_json(workflow)
            self._encoded = (workflow.frontier, tuple(workflow.contracts), snapshot)
        return snapshot

    def _retry_count(self, frontier: int, status: StatusReport) -> int:
        count = self.retry.get(frontier, 0)
        mark = self.progress_mark.get(frontier)
        if count and mark is not None and status.progress > mark + 1e-9:
            self.retry[frontier] = 0
            return 0
        return count

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
        return [
            e
            for e in retrieve(mem, labels=labels)
            if e.anchor is not None and (e.anchor.kind, e.anchor.label) in wanted
        ]
