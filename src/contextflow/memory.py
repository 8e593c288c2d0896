"""Short-term subtask memory and long-term task records.

Short-term entries (observations, executor feedback, progress cues,
recovery events) live in a bounded buffer that evicts oldest-first.
Long-term entries (completed stages, key nodes, discoveries, failure
points, repair summaries) are append-only for the episode.

A remembered anchor is never actionable on its own: `corroborate` demands
a live witness — same label, or a live region cue for the place where the
entry was recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidKind, NonAnchorEntry
from .world import Anchor

SHORT_TERM_CAPACITY = 64
RECENCY_WINDOW = 100

SHORT_KINDS = (
    "observation-anchor",
    "executor-feedback",
    "progress-cue",
    "recovery-event",
)
LONG_KINDS = (
    "completed-stage",
    "key-node",
    "discovery",
    "failure-point",
    "repair-summary",
)


@dataclass(frozen=True)
class MemoryEntry:
    tick: int
    kind: str
    stage_index: int
    anchor: Anchor | None = None
    region: str | None = None
    tag: str | None = None
    seq: int = 0  # insertion order, assigned by MemoryState

    @property
    def label(self) -> str | None:
        return self.anchor.label if self.anchor else self.tag


@dataclass
class MemoryState:
    short_term: list[MemoryEntry] = field(default_factory=list)
    long_term: list[MemoryEntry] = field(default_factory=list)
    _seq: int = 0

    def all_entries(self) -> list[MemoryEntry]:
        return self.short_term + self.long_term


def record_event(m: MemoryState, entry: MemoryEntry) -> MemoryState:
    """Route an entry to the short-term buffer or the long-term record."""
    entry = MemoryEntry(
        tick=entry.tick,
        kind=entry.kind,
        stage_index=entry.stage_index,
        anchor=entry.anchor,
        region=entry.region,
        tag=entry.tag,
        seq=m._seq,
    )
    m._seq += 1
    if entry.kind in SHORT_KINDS:
        m.short_term.append(entry)
        if len(m.short_term) > SHORT_TERM_CAPACITY:
            del m.short_term[: len(m.short_term) - SHORT_TERM_CAPACITY]
    elif entry.kind in LONG_KINDS:
        m.long_term.append(entry)
    else:
        raise InvalidKind(entry.kind)
    return m


def retrieve(m: MemoryState, labels: tuple[str, ...]) -> list[MemoryEntry]:
    """Entries whose label is one of `labels`, newest first (ties: lower
    stage index, then later insertion)."""
    hits = [entry for entry in m.all_entries() if entry.label in labels]
    hits.sort(key=lambda e: (-e.tick, e.stage_index, -e.seq))
    return hits


def corroborate(entry: MemoryEntry, live, now: int) -> Anchor | None:
    """A remembered anchor is actionable only within `RECENCY_WINDOW` ticks
    and while witnessed by one of the `live` anchors: same label, or a live
    region cue naming where the entry was recorded. Returns the witnessing
    live anchor, or None.
    """
    if entry.anchor is None:
        raise NonAnchorEntry(f"{entry.kind} entry has no anchor payload")
    if now - entry.tick > RECENCY_WINDOW:
        return None
    for anchor in live:
        if anchor.label == entry.anchor.label:
            return anchor
        if (
            entry.region is not None
            and anchor.kind in ("room", "pose-region")
            and anchor.label == entry.region
        ):
            return anchor
    return None
