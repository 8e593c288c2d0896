"""Mutants of the rules that the run and the replay share.

Usage, from the repository root:

    python3 tools/mutants.py                 # every mutant
    python3 tools/mutants.py NAME [NAME ...] # only the named mutants

A trace replays clean whatever these rules do, as long as the run and the
replay do the same thing, so only the tests can catch a defect in one of
them. Each mutant is a one-line edit `(file, old, new)` of one rule: a
`Policy` lever, `advance`, `spawned_kind`, the retry steps, `Monitor.fold`,
`classify_misalignment`, `select_update`, or the status row that a record
writes and the replay reads; and `closest_approach`, which the terminal's
`min_goal_distance` comes from and which no replay recomputes. The tool
copies the tree into a temporary directory once, and for each mutant writes
the edit into the copy, runs the tier-1 tests there (stopping at the first
failure, and without `tests/test_mutants.py`) and puts the file back. The
working tree is only read.

Prints a markdown table (on stdout; progress goes to stderr): each mutant
is `killed`, with the first test that failed, or `survived`. A survivor
that is marked `equivalent` carries its one-line reason. Exits 1 when a
mutant that is not marked equivalent survives, or when an `old` text does
not occur exactly once in its file.

Standard library only.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
ALIGNMENT = "src/contextflow/alignment.py"
BOARD = "src/contextflow/board.py"
HARNESS = "src/contextflow/harness.py"
MONITOR = "src/contextflow/monitor.py"


@dataclass(frozen=True)
class Mutant:
    name: str
    rule: str
    file: str
    old: str
    new: str
    equivalent: str = ""  # why the mutant cannot change behaviour, when it cannot


MUTANTS = [
    # -- the Policy levers
    Mutant("termination-follower-is-full", "lever follow_termination", ALIGNMENT,
           '"termination-follower": Policy(follow_termination=True),', '"termination-follower": Policy(),'),
    Mutant("termination-follower-reads-done-only", "lever follow_termination", ALIGNMENT,
           "    if policy.follow_termination:\n", '    if policy.follow_termination and status.state == "done":\n'),
    Mutant("no-promoter-is-full", "lever promote_on_lock", ALIGNMENT,
           '"no-promoter": Policy(promote_on_lock=False),', '"no-promoter": Policy(),'),
    Mutant("lock-promotes-without-the-lever", "lever promote_on_lock", ALIGNMENT,
           "        if not policy.promote_on_lock:\n", "        if False:\n"),
    Mutant("full-replanner-is-full", "lever repair_scope", ALIGNMENT,
           '"full-replanner": Policy(repair_scope="full"),', '"full-replanner": Policy(),'),
    Mutant("full-repair-keeps-the-suffix-root", "lever repair_scope", ALIGNMENT,
           'root = case.detail["stage"] if policy.repair_scope == "suffix" else 0',
           'root = case.detail["stage"]'),
    Mutant("fixed-executor-is-full", "lever transfer", ALIGNMENT,
           '"fixed-executor": Policy(transfer=False),', '"fixed-executor": Policy(),'),
    Mutant("escalation-transfers-without-the-lever", "lever transfer", ALIGNMENT,
           "        if not policy.transfer:\n",
           "        if not policy.transfer and case.case == CASE_EXECUTOR_MISMATCH:\n"),
    # -- advance
    Mutant("refine-leaves-expected", "advance", ALIGNMENT,
           "    expected = [new if c == old else c for c in contract.expected]",
           "    expected = list(contract.expected)"),
    Mutant("promote-stops-one-short", "advance", ALIGNMENT,
           "    workflow.frontier = target\n", "    workflow.frontier = target - 1\n"),
    Mutant("promote-may-name-the-frontier", "advance", ALIGNMENT,
           "    return range(frontier + 1, stages + 1)", "    return range(frontier, stages + 1)"),
    Mutant("repair-skips-its-root", "advance", ALIGNMENT,
           "    for i in range(root, len(workflow.contracts)):",
           "    for i in range(root + 1, len(workflow.contracts)):"),
    Mutant("suffix-repair-resets-the-frontier", "advance", ALIGNMENT,
           '    if scope == "full":\n        workflow.frontier = 0', '    if scope:\n        workflow.frontier = 0'),
    Mutant("unknown-action-passes", "advance", ALIGNMENT,
           "    elif action not in (ACT_CONTINUE, ACT_TRANSFER):",
           '    elif action not in (ACT_CONTINUE, ACT_TRANSFER, "teleport"):'),
    # -- spawned_kind
    Mutant("refine-respawns", "spawned_kind", ALIGNMENT,
           "    if workflow.is_complete() or action == ACT_REFINE:", "    if workflow.is_complete():"),
    Mutant("completed-workflow-spawns", "spawned_kind", ALIGNMENT,
           "    if workflow.is_complete() or action == ACT_REFINE:", "    if action == ACT_REFINE:"),
    Mutant("every-continue-respawns", "spawned_kind", ALIGNMENT,
           '        return live_kind if update.payload.get("restart") else None', "        return live_kind"),
    Mutant("transfer-respawns-the-live-kind", "spawned_kind", ALIGNMENT,
           '        return update.payload["target_kind"]', "        return live_kind"),
    Mutant("opened-stage-spawns-its-last-kind", "spawned_kind", ALIGNMENT,
           "    return workflow.active().compatible[0]  #", "    return workflow.active().compatible[-1]  #"),
    # -- the retry steps
    Mutant("equal-progress-resets-the-count", "retry steps", ALIGNMENT,
           "    return 0 if status.progress > mark + 1e-9 else count",
           "    return 0 if status.progress >= mark else count"),
    Mutant("reset-reads-the-old-count", "retry steps", ALIGNMENT,
           "    return 0 if status.progress > mark + 1e-9 else count",
           "    return count if status.progress > mark + 1e-9 else count"),
    Mutant("restart-keeps-no-mark", "retry steps", ALIGNMENT,
           "        restarts[frontier] = c.retry_count + 1, c.status.progress",
           "        restarts[frontier] = c.retry_count + 1, 0.0"),
    Mutant("every-continue-counts", "retry steps", ALIGNMENT,
           '    if update.action == ACT_CONTINUE and update.payload.get("restart"):',
           "    if update.action == ACT_CONTINUE:"),
    Mutant("cleared-count-is-kept", "retry steps", ALIGNMENT,
           "        restarts.pop(frontier, None)", "        pass"),
    Mutant("escalate-after-three", "retry steps", ALIGNMENT, "RETRY_ESCALATION = 2", "RETRY_ESCALATION = 3"),
    # -- Monitor.fold
    Mutant("fitness-ignores-degradation", "Monitor.fold", MONITOR,
           "        q = fitness_from_tags(effective_tags(kind, evidence.degraded), evidence.scene_tags)",
           "        q = fitness_from_tags(effective_tags(kind, {}), evidence.scene_tags)"),
    Mutant("streak-restarts-at-one", "Monitor.fold", MONITOR,
           '                latest, streak = ("", 0) if seen is None else (seen, streak + 1)',
           '                latest, streak = ("", 0) if seen is None else (seen, 1)'),
    Mutant("stale-streak-rebuilt-only-below", "Monitor.fold", MONITOR,
           "            elif at != now:", "            elif at < now - 1:",
           equivalent="a streak's `at` is never above `now`, so past `at == now - 1` the two tests agree"),
    Mutant("streak-cue-one-late", "Monitor.fold", MONITOR,
           "        if streak >= CONTRADICTION_STREAK", "        if streak > CONTRADICTION_STREAK"),
    Mutant("live-pass-on-no-anchors", "Monitor.fold", MONITOR,
           "        self.live = boundary_live(workflow, evidence.a)",
           "        self.live = boundary_live(workflow, ())"),
    # -- classify_misalignment
    Mutant("cue-at-the-frontier-ignored", "classify_misalignment", ALIGNMENT,
           "    cues = [cue for cue in packet.u if cue.stage >= workflow.frontier]",
           "    cues = [cue for cue in packet.u if cue.stage > workflow.frontier]"),
    Mutant("latest-contradicted-stage-wins", "classify_misalignment", ALIGNMENT,
           "        worst = min(cues, key=lambda cue: cue.stage)",
           "        worst = max(cues, key=lambda cue: cue.stage)"),
    Mutant("lock-while-done", "classify_misalignment", ALIGNMENT,
           '    if status.state == "running" and outcomes and all(',
           '    if status.state != "failed" and outcomes and all('),
    Mutant("mismatch-at-the-threshold", "classify_misalignment", ALIGNMENT,
           "    if packet.q < FITNESS_TRANSFER_THRESHOLD and not done_and_satisfied:",
           "    if packet.q <= FITNESS_TRANSFER_THRESHOLD and not done_and_satisfied:"),
    # a case's detail steers no update, so only `explain` shows these two
    Mutant("handoff-detail-drops-missing", "classify_misalignment", ALIGNMENT,
           '                "missing": [c.label for c in active_report.missing],', '                "missing": [],'),
    Mutant("ambiguous-detail-drops-clauses", "classify_misalignment", ALIGNMENT,
           '        detail = {"clauses": [a.clause.label for a in active_report.ambiguous]}',
           '        detail = {"clauses": []}'),
    Mutant("ambiguous-preempts-promotion", "classify_misalignment", ALIGNMENT,
           "    if not done_and_satisfied and (active_report.ambiguous or wildcard_candidate):",
           "    if active_report.ambiguous or wildcard_candidate:"),
    # -- select_update
    Mutant("escalate-one-restart-late", "select_update", ALIGNMENT,
           "    if case.case == CASE_UNSUPPORTED_HANDOFF and c.retry_count < RETRY_ESCALATION:",
           "    if case.case == CASE_UNSUPPORTED_HANDOFF and c.retry_count <= RETRY_ESCALATION:"),
    Mutant("promote-chain-stops-at-one", "select_update", ALIGNMENT,
           "    while j < len(workflow.contracts) and reports.get(j) and reports[j].satisfied:",
           "    if j < len(workflow.contracts) and reports.get(j) and reports[j].satisfied:"),
    Mutant("transfer-to-the-worst-kind", "select_update", ALIGNMENT,
           "    return max(\n        contract.compatible,", "    return min(\n        contract.compatible,"),
    Mutant("refine-lowers-the-threshold", "select_update", ALIGNMENT,
           "    new_conf = min(round(target.min_confidence + REFINE_STEP, 6), REFINE_CAP)",
           "    new_conf = max(round(target.min_confidence + REFINE_STEP, 6), REFINE_CAP)"),
    Mutant("promote-while-running", "select_update", ALIGNMENT,
           '    if status.state == "done" and active_report.satisfied:\n        return ScopedUpdate(ACT_PROMOTE',
           "    if active_report.satisfied:\n        return ScopedUpdate(ACT_PROMOTE"),
    # -- the status row
    Mutant("status-row-writes-no-progress", "status row", BOARD,
           "BoardRecord(context, c.packet.recorded(), c.status, result.update)",
           "BoardRecord(context, c.packet.recorded(), Status(c.status.state, 0.0), result.update)"),
    Mutant("replayed-status-always-running", "status row", BOARD,
           "kind, memory, packet, monitor.live, status, retries)",
           'kind, memory, packet, monitor.live, Status("running", status.progress), retries)'),
    # -- closest_approach
    Mutant("closest-approach-without-slack", "closest_approach", HARNESS,
           "    slack = 1 + 4 * len(world.nodes) * sys.float_info.epsilon", "    slack = 1"),
    Mutant("visited-without-the-start", "closest_approach", HARNESS,
           "    visited = {pose.node}", "    visited = set()"),
]


def misplaced(mutants=MUTANTS) -> list[str]:
    """Each mutant whose `old` does not occur exactly once in its file, or
    whose edit is no edit, named with the reason."""
    out = []
    for m in mutants:
        count = (ROOT / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1 or m.old == m.new:
            out.append(f"{m.name}: `old` occurs {count} times in {m.file}" if count != 1 else f"{m.name}: no edit")
    return out


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return "(no test named)"


def run(mutant: Mutant, tree: Path) -> tuple[bool, str]:
    """(killed, first failing test) for `mutant`, tested in `tree`, a copy
    that it leaves as it found it."""
    path = tree / mutant.file
    original = path.read_text(encoding="utf-8")
    path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    # tests/test_mutants.py checks this list against the unmutated tree, so
    # in a mutated copy it would kill every mutant
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py"]
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        return done.returncode != 0, _first_failure(done.stdout) if done.returncode else ""
    except subprocess.TimeoutExpired:
        return True, f"(timed out after {TIMEOUT_S} s)"
    finally:
        path.write_text(original, encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="run only these mutants")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {sorted(unknown)}")
    mutants = [m for m in MUTANTS if not args.names or m.name in args.names]
    problems = misplaced(mutants)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1

    rows, kills, failing = [], 0, 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "results", "*.egg-info")
        shutil.copytree(ROOT, tree, ignore=ignore)
        for i, m in enumerate(mutants, 1):
            start = time.perf_counter()
            killed, test = run(m, tree)
            outcome = "killed" if killed else "survived"
            print(f"[{i}/{len(mutants)}] {m.name}: {outcome} ({time.perf_counter() - start:.1f} s)", file=sys.stderr)
            kills += killed
            failing += not killed and not m.equivalent
            note = test if killed else f"equivalent: {m.equivalent}" if m.equivalent else "**not killed**"
            rows.append(f"| `{m.name}` | {m.rule} | {outcome} | {note} |")
    print(f"{kills} of {len(rows)} mutants killed; {failing} survivor(s) not marked equivalent\n")
    print("| mutant | rule | outcome | first failing test, or why it survives |")
    print("|---|---|---|---|")
    print("\n".join(rows))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
