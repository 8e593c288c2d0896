"""Byte-identity gate: the sha256 of every shipped trace against a manifest.

`tests/data/trace_sha256.txt` holds one `sha256  scenario/variant` line for
each of the 30 stress scenarios under the 5 planner variants, and for the
golden `fig4_sink` episode. A refactor must leave every line unchanged.
Rewrite the manifest (`python tests/test_trace_sha256.py`) only together
with a `SCHEMA` bump.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

from contextflow.alignment import VARIANTS
from contextflow.board import serialize_trace
from contextflow.harness import RunConfig, run_episode
from contextflow.scenario import golden_scenario_path, load_scenario, load_suite, stress_suite_dir

MANIFEST = Path(__file__).parent / "data" / "trace_sha256.txt"


@functools.cache
def shipped_traces() -> tuple[tuple[str, str], ...]:
    """(`scenario/variant`, serialized trace) for every shipped episode."""
    episodes = [(s, v) for s in load_suite(stress_suite_dir()) for v in VARIANTS]
    episodes.append((load_scenario(golden_scenario_path()), "contextflow"))
    return tuple(
        (f"{scenario.id}/{variant}", serialize_trace(run_episode(scenario, RunConfig(variant=variant))))
        for scenario, variant in episodes
    )


def digest_lines(texts) -> list[str]:
    return [
        f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}  {label}" for label, text in texts
    ]


def trace_digests() -> list[str]:
    return digest_lines(shipped_traces())


def test_every_shipped_trace_matches_the_sha256_manifest():
    expected = MANIFEST.read_text(encoding="utf-8").splitlines()
    assert len(expected) == 30 * len(VARIANTS) + 1
    assert trace_digests() == expected


if __name__ == "__main__":
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text("\n".join(trace_digests()) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}")
