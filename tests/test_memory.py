"""Memory routing, eviction, retrieval order, and the corroboration rule."""

from __future__ import annotations

import random

import pytest

from contextflow.board import _slot
from contextflow.codec import from_json, to_json
from contextflow.errors import InvalidKind, SchemaMismatch
from contextflow.memory import (
    LONG_KIND,
    SHORT_KIND,
    MemoryEntry,
    MemoryState,
    corroborate,
    record_event,
    retrieve,
)
from contextflow.world import Anchor


def anchor_entry(tick, label="sink", region="sink-room", kind="observation-anchor", stage=0):
    return MemoryEntry(
        tick=tick,
        kind=kind,
        stage_index=stage,
        anchor=Anchor(label, "object", 0.8, "n7"),
        region=region,
    )


def remember(m, tick, **kw):
    entry = anchor_entry(tick, **kw)
    record_event(m, entry.tick, entry.kind, entry.stage_index, entry.anchor, entry.region)


def test_short_term_eviction_oldest_first():
    m = MemoryState()
    for i in range(65):
        remember(m, i)
    assert len(m.short_term) == 64
    assert m.short_term[0].tick == 1
    assert m.short_term[-1].tick == 64


def test_long_term_entry_routes_past_buffer():
    m = MemoryState()
    remember(m, 0)
    remember(m, 1, kind="discovery")
    assert len(m.short_term) == 1
    assert len(m.long_term) == 1


def test_invalid_kind_rejected():
    m = MemoryState()
    with pytest.raises(InvalidKind):
        remember(m, 0, kind="gossip")


def test_retrieve_newest_first():
    m = MemoryState()
    remember(m, 10)
    remember(m, 40)
    hits = retrieve(m, labels=("sink",))
    assert [e.tick for e in hits] == [40, 10]


def test_retrieve_empty_memory_and_empty_query():
    m = MemoryState()
    assert retrieve(m, labels=("sink",)) == []
    remember(m, 10)
    assert retrieve(m, labels=()) == []


def test_corroborate_stale_entry_is_inert():
    entry = anchor_entry(0)
    live = [Anchor("sink", "object", 0.9, "n7")]
    assert corroborate(entry, live, now=150) is None


def test_corroborate_by_live_label():
    entry = anchor_entry(30)
    live = [Anchor("sink", "object", 0.9, "n7")]
    assert corroborate(entry, live, now=50) == live[0]


def test_corroborate_by_region_colocation():
    entry = anchor_entry(30, region="sink-room")
    live = [Anchor("sink-room", "room", 0.6, "n6")]
    assert corroborate(entry, live, now=50).label == "sink-room"


def test_memory_entry_requires_an_anchor_and_a_region():
    data = to_json(anchor_entry(0))
    assert from_json(MemoryEntry, data) == anchor_entry(0)
    for field in ("anchor", "region"):
        row = list(data)
        row[_slot(MemoryEntry, field)] = None
        with pytest.raises(SchemaMismatch):
            from_json(MemoryEntry, row)


def test_buffer_bound_and_append_only_long_term():
    rng = random.Random(3)
    m = MemoryState()
    long_seen = 0
    for i in range(300):
        kind = rng.choice((SHORT_KIND, LONG_KIND))
        remember(m, i, kind=kind)
        long_seen += kind == LONG_KIND
        assert len(m.short_term) <= 64
        assert len(m.long_term) == long_seen

