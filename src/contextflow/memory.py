"""Short-term subtask memory and long-term task records.

Memory holds only what a decision reads: anchors. Observed anchors
(`observation-anchor`) live in a bounded short-term buffer that evicts
oldest-first; anchors that satisfied a clause (`discovery`) are appended to
the long-term record for the episode. The planner matches them against
memory-admitting handoff clauses, and the endpoint approacher locks onto a
remembered target.

A remembered anchor is never actionable on its own: `corroborate` demands
a live witness — same label, or a live region cue for the place where the
entry was recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidKind
from .world import Anchor

SHORT_TERM_CAPACITY = 64
RECENCY_WINDOW = 100

SHORT_KIND = "observation-anchor"
LONG_KIND = "discovery"


@dataclass
class MemoryEntry:
    """One remembered anchor; plain, as `world.Anchor` is."""

    tick: int
    kind: str
    stage_index: int
    anchor: Anchor
    region: str  # region of the anchor's node
    seq: int = 0  # insertion order, assigned by MemoryState


@dataclass
class MemoryState:
    short_term: list[MemoryEntry] = field(default_factory=list)
    long_term: list[MemoryEntry] = field(default_factory=list)
    _seq: int = 0

    def all_entries(self) -> list[MemoryEntry]:
        return self.short_term + self.long_term


def record_event(
    m: MemoryState, tick: int, kind: str, stage_index: int, anchor: Anchor, region: str
) -> MemoryState:
    """Record one anchor as the next entry: `observation-anchor` to the
    short-term buffer, `discovery` to the long-term record."""
    entry = MemoryEntry(tick, kind, stage_index, anchor, region, m._seq)
    m._seq += 1
    if entry.kind == SHORT_KIND:
        m.short_term.append(entry)
        if len(m.short_term) > SHORT_TERM_CAPACITY:
            del m.short_term[: len(m.short_term) - SHORT_TERM_CAPACITY]
    elif entry.kind == LONG_KIND:
        m.long_term.append(entry)
    else:
        raise InvalidKind(entry.kind)
    return m


def retrieve(m: MemoryState, labels: tuple[str, ...]) -> list[MemoryEntry]:
    """Entries whose anchor label is one of `labels`, newest first (ties:
    lower stage index, then later insertion)."""
    hits = [entry for entry in m.all_entries() if entry.anchor.label in labels]
    hits.sort(key=lambda e: (-e.tick, e.stage_index, -e.seq))
    return hits


def corroborate(entry: MemoryEntry, live, now: int) -> Anchor | None:
    """A remembered anchor is actionable only within `RECENCY_WINDOW` ticks
    and while witnessed by one of the `live` anchors: same label, or a live
    region cue naming where the entry was recorded. Returns the witnessing
    live anchor, or None.
    """
    if now - entry.tick > RECENCY_WINDOW:
        return None
    for anchor in live:
        if anchor.label == entry.anchor.label:
            return anchor
        if anchor.kind in ("room", "pose-region") and anchor.label == entry.region:
            return anchor
    return None
