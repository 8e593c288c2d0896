"""Rewrite pins.json from the current program.

Run this only when a change is meant to alter behaviour (update sequences,
terminal lines, audit verdicts or suite tables), and say so in CHANGES.md.
A trace schema change that keeps behaviour needs no new pins.

Usage: python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from contextflow import RunConfig, golden_scenario_path, load_scenario, load_suite, stress_suite_dir  # noqa: E402
from contextflow.alignment import VARIANTS  # noqa: E402
from contextflow.board import audit_trace, parse_trace, serialize_trace  # noqa: E402
from contextflow.harness import run_episode  # noqa: E402
from contextflow.metrics import aggregate_suite, score_episode  # noqa: E402

from checks import PINS, behaviour, pin_key, verdict  # noqa: E402
from workloads import pinned_large_scenarios  # noqa: E402


def _one_entry_per_line(pins: dict) -> str:
    """JSON with one line per pinned entry, so that a diff of the pins shows
    which episodes changed."""
    def compact(value) -> str:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))

    sections = []
    for name in sorted(pins):
        entries = ",\n".join(f"  {compact(k)}: {compact(v)}" for k, v in sorted(pins[name].items()))
        sections.append(f" {compact(name)}: {{\n{entries}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def _entry(trace) -> dict:
    entry = behaviour(trace)
    entry["verdict"] = verdict(audit_trace(parse_trace(serialize_trace(trace))))
    return entry


def main() -> None:
    scenarios = load_suite(stress_suite_dir())
    labels = [s.diagnostic_type for s in scenarios]
    episodes, reports = {}, {}
    for variant in VARIANTS:
        scores = []
        for s in scenarios:
            trace = run_episode(s, RunConfig(variant=variant))
            episodes[pin_key(s.id, variant, s.seed)] = _entry(trace)
            scores.append(score_episode(trace, s.world, s))
        reports[variant] = aggregate_suite(scores, labels).to_json()
    golden = load_scenario(golden_scenario_path())
    large = {
        pin_key(s.id, "contextflow", s.seed): _entry(run_episode(s, RunConfig()))
        for s in pinned_large_scenarios()
    }
    pins = {
        "episodes": episodes,
        "reports": reports,
        "golden": {
            pin_key(golden.id, "contextflow", golden.seed): behaviour(run_episode(golden, RunConfig()))
        },
        "large_world": large,
    }
    PINS.write_text(_one_entry_per_line(pins), encoding="utf-8")
    print(f"wrote {len(episodes)} stress and {len(large)} large-world episode pins to {PINS}")


if __name__ == "__main__":
    main()
