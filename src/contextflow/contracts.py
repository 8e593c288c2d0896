"""Stage contracts, workflows, handoff satisfaction, and plan diffs.

A workflow is an ordered list of stage contracts with one active frontier.
Each contract records the planner-side commitment for its stage: the goal,
the handoff condition that must be supported before the next stage may
activate, the monitoring cues, and the executor kinds allowed to carry it.
A stage's status is not stored: it follows from the frontier
(`stage_status`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyInstruction, NoCompatibleExecutor
from .memory import MemoryEntry, corroborate

AMBIGUITY_MARGIN = 0.15
DEFAULT_MIN_CONFIDENCE = 0.7

SOURCE_LIVE = "live-only"
SOURCE_MEMORY_OK = "live-or-corroborated-memory"


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
    alternates: tuple[StageTemplate, ...] = ()


@dataclass(frozen=True)
class StageContract:
    name: str
    goal: StageGoal
    handoff: tuple[EvidenceClause, ...]
    expected: tuple[EvidenceClause, ...]
    compatible: tuple[str, ...]
    contradicts: tuple[str, ...] = ()
    template_index: int = 0
    alternate_cursor: int = 0


@dataclass
class Workflow:
    """The contracts with their frontier, and the templates they were
    compiled from, which a repair regenerates stages from."""

    contracts: list[StageContract]
    frontier: int = 0
    templates: tuple[StageTemplate, ...] = ()

    def copy(self) -> Workflow:
        """A workflow with its own contract list, which an update may change
        without touching this one's."""
        return Workflow(list(self.contracts), self.frontier, self.templates)

    def active(self) -> StageContract:
        return self.contracts[self.frontier]

    def is_complete(self) -> bool:
        return self.frontier >= len(self.contracts)

    def last_index(self) -> int:
        return len(self.contracts) - 1


def stage_status(index: int, frontier: int) -> str:
    """The status of stage `index` under `frontier`: `done` below it,
    `active` at it, `pending` above it."""
    return "done" if index < frontier else "active" if index == frontier else "pending"


def contract_from_template(
    template: StageTemplate, template_index: int, alternate_cursor: int = 0
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
        contradicts=tuple(template.contradicts),
        template_index=template_index,
        alternate_cursor=alternate_cursor,
    )


def compile_instruction(stages: Sequence[StageTemplate]) -> Workflow:
    """Convert stage templates into a workflow with stage 0 active. A stage
    or an alternate grounding that lists no executor kinds raises
    `NoCompatibleExecutor`, so a repair can regenerate every stage."""
    if not stages:
        raise EmptyInstruction("instruction has no stages")
    bare = next((a for t in stages for a in t.alternates if not a.compatible), None)
    if bare is not None:
        raise NoCompatibleExecutor(f"alternate {bare.name!r} lists no executor kinds")
    contracts = [contract_from_template(t, i) for i, t in enumerate(stages)]
    return Workflow(contracts=contracts, frontier=0, templates=tuple(stages))


# -- handoff satisfaction --------------------------------------------------

# The clause outcomes and reports below are plain dataclasses, as
# `world.Anchor` is: they are built per clause and boundary on every
# consultation and every replayed record, and never changed.


@dataclass
class ClauseMatch:
    clause: EvidenceClause
    provenance: str  # "live" | "memory-corroborated"
    anchor_label: str
    anchor_node: str
    confidence: float
    witness_label: str | None = None  # live witness for a memory match


@dataclass
class AmbiguousClause:
    clause: EvidenceClause
    best_confidence: float


@dataclass
class SatisfactionReport:
    satisfied: bool
    matched: tuple[ClauseMatch, ...]
    missing: tuple[EvidenceClause, ...]
    ambiguous: tuple[AmbiguousClause, ...]


def best_live(clause: EvidenceClause, anchors):
    """The live anchor that is the clause's best evidence: the greatest by
    (confidence, label, node) among anchors of the clause's kind and, unless
    the clause is a wildcard, its label; the first of equal ones; None when
    no anchor qualifies."""
    kind, label = clause.kind, None if clause.is_wildcard() else clause.label
    best = None
    for a in anchors:
        if a.kind != kind or (label is not None and a.label != label):
            continue
        if (
            best is None
            or a.confidence > best.confidence
            or (a.confidence == best.confidence and (a.label, a.node) > (best.label, best.node))
        ):
            best = a
    return best


def live_pass(clauses: Sequence[EvidenceClause], live_anchors) -> tuple:
    """One boundary's clauses against live anchors alone, in clause order:
    per clause a live `ClauseMatch`, an `AmbiguousClause` when the best
    evidence falls short by at most `AMBIGUITY_MARGIN`, or None."""
    out = []
    for clause in clauses:
        best = best_live(clause, live_anchors)
        if best is not None and best.confidence >= clause.min_confidence:
            out.append(ClauseMatch(clause, "live", best.label, best.node, best.confidence))
        elif best is not None and best.confidence >= clause.min_confidence - AMBIGUITY_MARGIN:
            out.append(AmbiguousClause(clause, best.confidence))
        else:
            out.append(None)
    return tuple(out)


def _memory_match(
    clause: EvidenceClause,
    live_anchors,
    memory_entries: Sequence[MemoryEntry],
    now: int,
) -> ClauseMatch | None:
    entries = [
        e
        for e in memory_entries
        if e.anchor.kind == clause.kind
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
    live: tuple,
) -> SatisfactionReport:
    """Settle the contract's handoff condition from `live`, its `live_pass`
    over the packet's anchors: a clause with no live outcome matches
    corroborated memory when its source allows it and it is not a wildcard
    (a memory match always carries a live witness), and is missing
    otherwise."""
    matched: list[ClauseMatch] = []
    missing: list[EvidenceClause] = []
    ambiguous: list[AmbiguousClause] = []
    for clause, outcome in zip(contract.handoff, live):
        if outcome is None and memory_entries and clause.source == SOURCE_MEMORY_OK:
            if not clause.is_wildcard():
                outcome = _memory_match(clause, packet.a, memory_entries, now)
        if outcome is None:
            missing.append(clause)
        elif type(outcome) is ClauseMatch:
            matched.append(outcome)
        else:
            ambiguous.append(outcome)
    return SatisfactionReport(not missing and not ambiguous, tuple(matched), tuple(missing), tuple(ambiguous))


# -- plan diffs -------------------------------------------------------------

_DIFF_FIELDS = ("goal", "handoff", "expected", "compatible")


@dataclass(frozen=True)
class FieldChange:
    index: int
    field: str
    before: str
    after: str


@dataclass(frozen=True)
class PlanDiff:
    """The changed fields, in stage index order. The retained prefix and the
    repair root follow from it: the stages below `changed[0].index`."""

    changed: tuple[FieldChange, ...]


def _render_field(contract: StageContract, name: str) -> str:
    value = getattr(contract, name)
    if name == "goal":
        return f"{value.target}@{value.region}"
    if name in ("handoff", "expected"):
        return ";".join(
            f"{c.kind}:{c.label}>={c.min_confidence:g}/{c.source}" for c in value
        )
    return ",".join(value)  # compatible


def plan_diff(before: Workflow, after: Workflow) -> PlanDiff:
    """Field-level delta between two workflows from the same scenario: per
    stage, its changed contract fields, then its `status` when the two
    frontiers give it different `stage_status`es. A contract that is the
    same object on both sides is skipped: contracts are frozen, so it
    renders the same. No update adds or drops a contract, so both sides
    have the same length."""
    changed: list[FieldChange] = []
    fb, fa = before.frontier, after.frontier
    for i, (b, a) in enumerate(zip(before.contracts, after.contracts)):
        if b is not a:
            for name in _DIFF_FIELDS:
                rb, ra = _render_field(b, name), _render_field(a, name)
                if rb != ra:
                    changed.append(FieldChange(i, name, rb, ra))
        if fb != fa and (sb := stage_status(i, fb)) != (sa := stage_status(i, fa)):
            changed.append(FieldChange(i, "status", sb, sa))
    return PlanDiff(tuple(changed))
