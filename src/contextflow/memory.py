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
    capacity: int = SHORT_TERM_CAPACITY
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
        if len(m.short_term) > m.capacity:
            del m.short_term[: len(m.short_term) - m.capacity]
    elif entry.kind in LONG_KINDS:
        m.long_term.append(entry)
    else:
        raise InvalidKind(entry.kind)
    return m


def retrieve(
    m: MemoryState,
    labels: tuple[str, ...] = (),
    region: str | None = None,
    stage_index: int | None = None,
) -> list[MemoryEntry]:
    """Entries whose label or region matches the query, newest first."""
    if not labels and region is None and stage_index is None:
        raise ValueError("empty retrieval query")
    hits = []
    for entry in m.all_entries():
        if labels and entry.label in labels:
            hits.append(entry)
        elif region is not None and entry.region == region:
            hits.append(entry)
        elif stage_index is not None and entry.stage_index == stage_index:
            hits.append(entry)
    hits.sort(key=lambda e: (-e.tick, e.stage_index, -e.seq))
    return hits


def corroborate(
    entry: MemoryEntry,
    live,
    now: int,
    window: int = RECENCY_WINDOW,
):
    """A remembered anchor is actionable only while recent and witnessed by a
    live anchor: same label, or a live region cue naming where the entry was
    recorded. Returns the witnessing live anchor, or None. `live` is an
    evidence packet (anything exposing `.a`) or an iterable of anchors.
    """
    if entry.anchor is None:
        raise NonAnchorEntry(f"{entry.kind} entry has no anchor payload")
    anchors = getattr(live, "a", live)
    if now - entry.tick > window:
        return None
    for anchor in anchors:
        if anchor.label == entry.anchor.label:
            return anchor
        if (
            entry.region is not None
            and anchor.kind in ("room", "pose-region")
            and anchor.label == entry.region
        ):
            return anchor
    return None
