"""Stage contracts, workflows, handoff satisfaction, and plan diffs.

A workflow is an ordered list of stage contracts with one active frontier.
Each contract records the planner-side commitment for its stage: the goal,
the handoff condition that must be supported before the next stage may
activate, the monitoring cues, and the executor kinds allowed to carry it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

from .codec import SKIP
from .errors import EmptyInstruction, NoCompatibleExecutor
from .memory import MemoryEntry, corroborate

AMBIGUITY_MARGIN = 0.15
DEFAULT_MIN_CONFIDENCE = 0.7

SOURCE_LIVE = "live-only"
SOURCE_MEMORY_OK = "live-or-corroborated-memory"


class StageStatus(str, Enum):
    PENDING = "pending"
    ACTIVE = "active"
    DONE = "done"
    DONE_PROMOTED = "done-evidence-promoted"
    REPAIRED_OUT = "repaired-out"


@dataclass(frozen=True)
class EvidenceClause:
    """One conjunct of a handoff condition or monitoring cue set."""

    kind: str
    label: str
    min_confidence: float = DEFAULT_MIN_CONFIDENCE
    source: str = SOURCE_LIVE

    def is_wildcard(self) -> bool:
        return self.label == "*"


@dataclass(frozen=True)
class StageGoal:
    target: str
    region: str


@dataclass(frozen=True)
class StageTemplate:
    """Authored stage description; alternates are fallback groundings that a
    repair may substitute for the original when it proves unsupported."""

    name: str
    goal: StageGoal
    handoff: tuple[EvidenceClause, ...]
    expected: tuple[EvidenceClause, ...] = ()
    compatible: tuple[str, ...] = ()
    contradicts: tuple[str, ...] = ()
    alternates: tuple["StageTemplate", ...] = ()


@dataclass(frozen=True)
class StageContract:
    name: str
    goal: StageGoal
    handoff: tuple[EvidenceClause, ...]
    expected: tuple[EvidenceClause, ...]
    compatible: tuple[str, ...]
    status: StageStatus
    contradicts: tuple[str, ...] = ()
    template_index: int = 0
    alternate_cursor: int = 0


@dataclass
class RetiredContract:
    """A contract displaced by repair, kept for audit."""

    index: int
    tick: int
    contract: StageContract


@dataclass
class Workflow:
    contracts: list[StageContract]
    frontier: int = 0
    retired: list[RetiredContract] = field(default_factory=list, metadata={SKIP: True})

    def active(self) -> StageContract:
        return self.contracts[self.frontier]

    def is_complete(self) -> bool:
        return self.frontier >= len(self.contracts)

    def last_index(self) -> int:
        return len(self.contracts) - 1


def contract_from_template(
    template: StageTemplate,
    template_index: int,
    status: StageStatus,
    alternate_cursor: int = 0,
) -> StageContract:
    """Build a contract, enforcing handoff-subset-of-expected by construction."""
    if not template.compatible:
        raise NoCompatibleExecutor(f"stage {template.name!r} lists no executor kinds")
    expected = list(template.handoff)
    for clause in template.expected:
        if clause not in expected:
            expected.append(clause)
    return StageContract(
        name=template.name,
        goal=template.goal,
        handoff=tuple(template.handoff),
        expected=tuple(expected),
        compatible=tuple(template.compatible),
        status=status,
        contradicts=tuple(template.contradicts),
        template_index=template_index,
        alternate_cursor=alternate_cursor,
    )


def compile_instruction(stages: Sequence[StageTemplate]) -> Workflow:
    """Convert stage templates into a workflow with stage 0 active."""
    if not stages:
        raise EmptyInstruction("instruction has no stages")
    contracts = [
        contract_from_template(
            t, i, StageStatus.ACTIVE if i == 0 else StageStatus.PENDING
        )
        for i, t in enumerate(stages)
    ]
    return Workflow(contracts=contracts, frontier=0)


# -- handoff satisfaction --------------------------------------------------


@dataclass(frozen=True)
class ClauseMatch:
    clause: EvidenceClause
    provenance: str  # "live" | "memory-corroborated"
    anchor_label: str
    anchor_node: str
    confidence: float
    witness_label: str | None = None  # live witness for a memory match


@dataclass(frozen=True)
class AmbiguousClause:
    clause: EvidenceClause
    best_confidence: float


@dataclass(frozen=True)
class SatisfactionReport:
    satisfied: bool
    matched: tuple[ClauseMatch, ...]
    missing: tuple[EvidenceClause, ...]
    ambiguous: tuple[AmbiguousClause, ...]


def _live_candidates(clause: EvidenceClause, anchors) -> list:
    return [
        a
        for a in anchors
        if a.kind == clause.kind and (clause.is_wildcard() or a.label == clause.label)
    ]


def evaluate_clauses(
    clauses: Iterable[EvidenceClause],
    live_anchors,
    memory_entries: Sequence[MemoryEntry],
    now: int,
    margin: float = AMBIGUITY_MARGIN,
) -> SatisfactionReport:
    """Match each clause against live anchors, then (when the clause's source
    allows) against corroborated memory. Memory alone never matches: every
    memory match carries a live witness.
    """
    matched: list[ClauseMatch] = []
    missing: list[EvidenceClause] = []
    ambiguous: list[AmbiguousClause] = []
    for clause in clauses:
        candidates = _live_candidates(clause, live_anchors)
        best = max(candidates, key=lambda a: (a.confidence, a.label, a.node), default=None)
        if best is not None and best.confidence >= clause.min_confidence:
            matched.append(
                ClauseMatch(clause, "live", best.label, best.node, best.confidence)
            )
            continue
        if best is not None and best.confidence >= clause.min_confidence - margin:
            ambiguous.append(AmbiguousClause(clause, best.confidence))
            continue
        if clause.source == SOURCE_MEMORY_OK and not clause.is_wildcard():
            hit = _memory_match(clause, live_anchors, memory_entries, now)
            if hit is not None:
                matched.append(hit)
                continue
        missing.append(clause)
    return SatisfactionReport(
        satisfied=not missing and not ambiguous,
        matched=tuple(matched),
        missing=tuple(missing),
        ambiguous=tuple(ambiguous),
    )


def _memory_match(
    clause: EvidenceClause,
    live_anchors,
    memory_entries: Sequence[MemoryEntry],
    now: int,
) -> ClauseMatch | None:
    entries = [
        e
        for e in memory_entries
        if e.anchor is not None
        and e.anchor.kind == clause.kind
        and e.anchor.label == clause.label
        and e.anchor.confidence >= clause.min_confidence
    ]
    entries.sort(key=lambda e: (-e.tick, e.stage_index))
    for entry in entries:
        witness = corroborate(entry, live_anchors, now)
        if witness is not None:
            return ClauseMatch(
                clause,
                "memory-corroborated",
                entry.anchor.label,
                entry.anchor.node,
                entry.anchor.confidence,
                witness_label=witness.label,
            )
    return None


def handoff_satisfied(
    contract: StageContract,
    packet,
    memory_entries: Sequence[MemoryEntry],
    now: int,
    margin: float = AMBIGUITY_MARGIN,
) -> SatisfactionReport:
    """Evaluate the contract's handoff condition against an evidence packet
    (anything exposing `.a`) plus retrieved memory context."""
    anchors = getattr(packet, "a", packet)
    return evaluate_clauses(contract.handoff, anchors, memory_entries, now, margin)


# -- plan diffs -------------------------------------------------------------

_DIFF_FIELDS = ("goal", "handoff", "expected", "compatible", "status")


@dataclass(frozen=True)
class FieldChange:
    index: int
    field: str
    before: str
    after: str


@dataclass(frozen=True)
class PlanDiff:
    retained_prefix: tuple[int, int] | None  # inclusive index range, None if empty
    changed: tuple[FieldChange, ...]
    repair_root: int | None


def _render_field(contract: StageContract, name: str) -> str:
    value = getattr(contract, name)
    if name == "goal":
        return f"{value.target}@{value.region}"
    if name in ("handoff", "expected"):
        return ";".join(
            f"{c.kind}:{c.label}>={c.min_confidence:g}/{c.source}" for c in value
        )
    if name == "compatible":
        return ",".join(value)
    if name == "status":
        return value.value
    return str(value)


def plan_diff(before: Workflow, after: Workflow) -> PlanDiff:
    """Field-level delta between two workflows from the same scenario. A
    contract that is the same object on both sides is skipped: contracts are
    frozen, so it renders the same."""
    changed: list[FieldChange] = []
    n = max(len(before.contracts), len(after.contracts))
    for i in range(n):
        if i >= len(before.contracts) or i >= len(after.contracts):
            changed.append(FieldChange(i, "contract", "present", "absent"))
            continue
        b, a = before.contracts[i], after.contracts[i]
        if b is a:
            continue
        for name in _DIFF_FIELDS:
            rb, ra = _render_field(b, name), _render_field(a, name)
            if rb != ra:
                changed.append(FieldChange(i, name, rb, ra))
    if not changed:
        last = len(before.contracts) - 1
        prefix = (0, last) if last >= 0 else None
        return PlanDiff(retained_prefix=prefix, changed=(), repair_root=None)
    first_changed = min(c.index for c in changed)
    prefix = (0, first_changed - 1) if first_changed > 0 else None
    return PlanDiff(
        retained_prefix=prefix,
        changed=tuple(changed),
        repair_root=first_changed,
    )
