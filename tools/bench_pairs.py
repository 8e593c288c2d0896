"""Paired benchmark runs of two checkouts, summarized as a BENCH_*.json set.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent ../parent --change . \
        --workload stress-suite --seeds 301-310 --out BENCH_12.json

For each seed, runs `perfbench/run.py --workload W --seed S --seconds 36
--trace 0` once in each checkout (the parent first on odd seeds, the change
first on even ones) and reads the JSON object on the last line of its
output. The run length (`run_seconds`), the end-to-end metrics and their
bounds come from the change's BENCHMARK.json. Each side is labelled by its
commit (`_commit`): `<hash>+dirty` for a checkout with changes not yet
committed, null for one without git. Per metric and side it writes the
quartiles (`statistics.quantiles(n=4, method='inclusive')`), the pairs each side won
(ties count for neither) and `change_vs_parent` (change median / parent
median - 1) and a `verdict`: `unresolved` when the parent's interquartile
range over its median is wider than the metric's bound, unless every change
run beats every parent run; else `worse` when the change median is worse
than the parent's by more than the bound; else `held`. Per side it writes
each run's `failed` count and `correct` flag (null and false for a run that
exited non-zero or printed no result). The workload goes into the
`end-to-end` set of `--out`, which is created or updated in place, so that
one file can hold several workloads. `--claim
METRIC` also writes a `claim` block: it is met when the change wins at
least nine pairs in ten and its median beats the parent's by more than the
parent's interquartile range.

Standard library only; nothing under `perfbench/` is changed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SET_NOTE = "end-to-end"


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must read A-B, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def _git(checkout: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout


def _commit(checkout: Path) -> str | None:
    """The short hash of the commit checked out at `checkout`, plus `+dirty`
    when its files differ from that commit's (an untracked file counts);
    None when `checkout` is not the top of a git work tree, such as a copy
    made with `git archive`, even one inside another repository."""
    top = _git(checkout, "rev-parse", "--show-toplevel")
    if top is None or Path(top.strip()).resolve() != checkout.resolve():
        return None
    head, status = _git(checkout, "rev-parse", "--short", "HEAD"), _git(checkout, "status", "--porcelain")
    if not head or status is None:
        return None
    return head.strip() + ("+dirty" if status.strip() else "")


def run_once(checkout: Path, workload: str, seed: int, seconds) -> dict | None:
    """The result object `perfbench/run.py` prints, or None if it failed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        detail = proc.stderr.strip()[-300:]
        print(f"  {checkout} seed {seed}: exit {proc.returncode}: {detail}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"  {checkout} seed {seed}: no result line", file=sys.stderr)
        return None


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        value = round(values[0], 4) if values else None
        return {"q1": value, "median": value, "q3": value}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def verdict(higher: bool, bound: float, values: list[tuple[float, float]]) -> str:
    """`unresolved`, `worse` or `held` for one metric's (parent, change) run
    values, against the benchmark's relative bound."""
    if len(values) < 2:
        return "unresolved"
    parents, changes = [p for p, _ in values], [c for _, c in values]
    q1, base, q3 = statistics.quantiles(parents, n=4, method="inclusive")
    apart = min(changes) > max(parents) if higher else max(changes) < min(parents)
    if not base or (q3 - q1) / base > bound and not apart:
        return "unresolved"
    loss = base - statistics.median(changes) if higher else statistics.median(changes) - base
    return "worse" if loss > bound * base else "held"


def summarize(metrics: list[dict], seeds: list[int], results: dict[str, list[dict | None]]) -> dict:
    """One workload's entry of the set: the runs of both sides, pair by pair."""
    parent, change = results["parent"], results["change"]
    paired = [(p, c) for p, c in zip(parent, change) if p is not None and c is not None]
    out = {
        "pairs": len(paired),
        "seeds": seeds,
        "failed": {side: [r["failed"] if r else None for r in runs] for side, runs in results.items()},
        "correct": {side: [bool(r and r["correct"]) for r in runs] for side, runs in results.items()},
        "metrics": {},
    }
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"]) for p, c in paired]
        wins = sum((c > p) if higher else (c < p) for p, c in values)
        losses = sum((c < p) if higher else (c > p) for p, c in values)
        sides = {"parent": _quartiles([p for p, _ in values]), "change": _quartiles([c for _, c in values])}
        base, new = sides["parent"]["median"], sides["change"]["median"]
        out["metrics"][name] = {
            "better": spec["better"],
            "bound": spec["bound"],
            **sides,
            "change_wins": wins,
            "change_losses": losses,
            "change_vs_parent": round(new / base - 1, 4) if base else None,
            "verdict": verdict(higher, spec["bound"], values),
        }
    return out


def claim(workload: str, name: str, entry: dict) -> dict:
    """Whether the change's gain on one metric clears the pairing rule."""
    metric = entry["metrics"][name]
    parent, change = metric["parent"], metric["change"]
    iqr = parent["q3"] - parent["q1"]
    gain = change["median"] - parent["median"]
    if metric["better"] == "lower":
        gain = -gain
    pairs = entry["pairs"]
    return {
        "workload": workload,
        "metric": name,
        "parent_median": parent["median"],
        "change_median": change["median"],
        "parent_iqr": round(iqr, 4),
        "change_wins": metric["change_wins"],
        "pairs": pairs,
        "met": pairs > 0 and metric["change_wins"] >= math.ceil(0.9 * pairs) and gain > iqr,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="inclusive range A-B")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json to create or update")
    parser.add_argument("--claim", metavar="METRIC", help="end-to-end metric the change claims to improve")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    if args.claim and args.claim not in {m["name"] for m in metrics}:
        parser.error(f"--claim names no end-to-end metric: {args.claim!r}")

    results: dict[str, list[dict | None]] = {"parent": [], "change": []}
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            print(f"seed {seed}: {side}", file=sys.stderr, flush=True)
            results[side].append(run_once(checkouts[side], args.workload, seed, seconds))
    entry = summarize(metrics, args.seeds, results)

    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    doc["machine"] = {"python": platform.python_version(), "nproc": os.cpu_count()}
    doc["method"] = (
        f"perfbench/run.py --seconds {seconds} --trace 0, one parent/change pair per seed, the same "
        "seed on both sides; parent first on odd seeds, change first on even seeds; quartiles are "
        "statistics.quantiles(n=4, method='inclusive'); change_wins and change_losses count pairs, ties "
        "for neither; change_vs_parent is change median / parent median - 1"
    )
    doc["parent"], doc["change"] = _commit(checkouts["parent"]), _commit(checkouts["change"])
    if args.claim:
        doc["claim"] = claim(args.workload, args.claim, entry)
    sets = doc.setdefault("sets", [])
    target = next((s for s in sets if s.get("note") == SET_NOTE), None)
    if target is None:
        target = {"note": SET_NOTE, "workloads": {}}
        sets.append(target)
    target["workloads"][args.workload] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    for name, metric in entry["metrics"].items():
        print(f"{name:24s} parent {metric['parent']['median']} change {metric['change']['median']} "
              f"({metric['change_vs_parent']:+.1%}, wins {metric['change_wins']}/{entry['pairs']}): "
              f"{metric['verdict']}"
              if metric["change_vs_parent"] is not None else f"{name:24s} no pairs: {metric['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
