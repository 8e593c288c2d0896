"""Smoke test of `tools/world_cache.py`: it exits 0 and prints one row per
builder that the first seed-41 large world's cache holds, whose entries add
up to what the world counted; a distance answer counts one entry."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_world_cache_prints_a_row_per_builder():
    proc = subprocess.run([sys.executable, "tools/world_cache.py"], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, columns, *rows, total = proc.stdout.splitlines()
    assert columns.split() == ["builder", "items", "entries", "sources", "pairs", "bytes"]
    names = [row.rsplit(maxsplit=5)[0] for row in rows]
    assert names == ["_visible", "distances", "_path", "_route", "_sweep"]
    entries = [int(row.rsplit(maxsplit=5)[2].replace(",", "")) for row in rows]
    # each distance answer is one item, one entry and one (source, target) pair
    items, counted, _, pairs = rows[1].split()[1:5]
    assert items == counted == pairs
    assert f"{sum(entries):,} entries counted by the world" in header
    assert total.split()[0] == "total"
