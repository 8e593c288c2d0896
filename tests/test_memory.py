"""Memory routing, eviction, retrieval order, and the corroboration rule."""

from __future__ import annotations

import random

import pytest

from contextflow.errors import InvalidKind, NonAnchorEntry
from contextflow.memory import (
    LONG_KINDS,
    SHORT_KINDS,
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


def test_short_term_eviction_oldest_first():
    m = MemoryState()
    for i in range(65):
        record_event(m, anchor_entry(i))
    assert len(m.short_term) == 64
    assert m.short_term[0].tick == 1
    assert m.short_term[-1].tick == 64


def test_long_term_entry_routes_past_buffer():
    m = MemoryState()
    record_event(m, anchor_entry(0))
    record_event(m, MemoryEntry(tick=1, kind="completed-stage", stage_index=0, tag="s0"))
    assert len(m.short_term) == 1
    assert len(m.long_term) == 1


def test_invalid_kind_rejected():
    m = MemoryState()
    with pytest.raises(InvalidKind):
        record_event(m, MemoryEntry(tick=0, kind="gossip", stage_index=0, tag="x"))


def test_retrieve_newest_first():
    m = MemoryState()
    record_event(m, anchor_entry(10))
    record_event(m, anchor_entry(40))
    hits = retrieve(m, labels=("sink",))
    assert [e.tick for e in hits] == [40, 10]


def test_retrieve_empty_memory_and_empty_query():
    m = MemoryState()
    assert retrieve(m, labels=("sink",)) == []
    with pytest.raises(ValueError):
        retrieve(m)


def test_retrieve_by_region():
    m = MemoryState()
    record_event(m, anchor_entry(5, label="mat", region="hallway"))
    record_event(
        m,
        MemoryEntry(tick=8, kind="key-node", stage_index=1, region="hallway", tag="n3"),
    )
    record_event(m, anchor_entry(9, label="sink", region="sink-room"))
    hits = retrieve(m, region="hallway")
    assert [e.tick for e in hits] == [8, 5]


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


def test_corroborate_requires_anchor_payload():
    entry = MemoryEntry(tick=0, kind="completed-stage", stage_index=0, tag="s0")
    with pytest.raises(NonAnchorEntry):
        corroborate(entry, [], now=1)


def test_buffer_bound_and_append_only_long_term():
    rng = random.Random(3)
    m = MemoryState()
    long_seen = 0
    for i in range(300):
        kind = rng.choice(SHORT_KINDS + LONG_KINDS)
        if kind in LONG_KINDS:
            record_event(m, MemoryEntry(tick=i, kind=kind, stage_index=0, tag=str(i)))
            long_seen += 1
        else:
            record_event(m, anchor_entry(i, kind=kind))
        assert len(m.short_term) <= 64
        assert len(m.long_term) == long_seen


def test_golden_region_query_surfaces_hallway_key_nodes():
    from contextflow.harness import RunConfig, run_episode
    from contextflow.scenario import golden_scenario_path, load_scenario

    captured = {}

    def grab(workflow, mem, registry):
        captured["mem"] = mem

    scenario = load_scenario(golden_scenario_path())
    run_episode(scenario, RunConfig(), inspect=grab)
    mem = captured["mem"]
    hits = retrieve(mem, region="hallway")
    key_nodes = [e for e in hits if e.kind == "key-node"]
    all_hallway_key_nodes = [
        e for e in mem.long_term if e.kind == "key-node" and e.region == "hallway"
    ]
    assert key_nodes == all_hallway_key_nodes
    assert key_nodes  # the first promotion happened in the hallway
    assert all(e.region == "hallway" for e in hits)
