"""Correctness gate: pinned behaviour and the checks that need no pins.

Pins hold behaviour, not bytes: per (scenario, variant, seed) the update
sequence, the terminal dict and the audit verdict counts, plus each
variant's `SuiteReport` table. A trace schema change that keeps behaviour
therefore needs no new pins. `python3 perfbench/pin.py` rewrites them.

Every checked operation is counted in a `Ledger`; an operation fails when a
check does not hold or when it raises anything but a `ContextFlowError`.
"""

from __future__ import annotations

import json
import sys
import traceback
from collections import Counter
from pathlib import Path

from contextflow.board import update_sequence
from contextflow.errors import ContextFlowError

PINS = Path(__file__).resolve().parent / "pins.json"
STRUCTURAL = (
    "promote-gating",
    "transfer-preservation",
    "repair-prefix-preservation",
    "unsupported-handoff-blocking",
    "memory-witness",
)
REPLAY = "decision-replay"


class Ledger:
    """Counts attempted and failed operations; reports the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.fail(what, detail)
        return ok

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= 20:
            print(f"perfbench: FAILED {what}: {detail}", file=sys.stderr)

    def guard(self, what: str, fn, *args):
        """Run fn(*args) and return its result, or None when it raised. A
        `ContextFlowError` is the program's own verdict on its input and
        counts as attempted; any other exception counts as failed."""
        try:
            return fn(*args)
        except ContextFlowError as exc:
            self.attempted += 1
            print(f"perfbench: {what} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        except Exception:
            self.attempted += 1
            self.fail(what, traceback.format_exc(limit=3))
        return None


def pin_key(scenario_id: str, variant: str, seed: int) -> str:
    return f"{scenario_id}/{variant}/seed={seed}"


def behaviour(trace) -> dict:
    """What a pin records of one episode: JSON-normalised so that a pinned
    value compares equal to a fresh one."""
    return json.loads(json.dumps({
        "updates": update_sequence(trace),
        "terminal": trace.terminal,
    }))


def verdict(violations) -> dict[str, int]:
    return dict(sorted(Counter(v.check for v in violations).items()))


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def clean_verdict(variant: str, counts: dict[str, int]) -> tuple[bool, str]:
    """Pin-free audit expectation: no decision-replay drift for any variant,
    and no structural violation for the full policy."""
    if counts.get(REPLAY):
        return False, f"{counts[REPLAY]} decision-replay drift(s)"
    if variant == "contextflow" and any(counts.get(c) for c in STRUCTURAL):
        return False, f"structural violations under contextflow: {counts}"
    return True, ""
