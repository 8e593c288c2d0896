"""Command-line interface: run, suite, render, audit, score, report."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .alignment import VARIANTS
from .board import audit_trace, load_trace, render_trace, serialize_trace, update_sequence
from .codec import to_json
from .errors import ContextFlowError
from .harness import DEFAULT_CADENCE, RunConfig, run_episode, run_suite
from .metrics import render_suite_table, score_episode
from .scenario import load_scenario


def _cmd_run(args) -> int:
    scenario = load_scenario(Path(args.scenario))
    cfg = RunConfig(
        variant=args.planner, seed=args.seed, budget=args.budget, cadence=args.cadence
    )
    trace = run_episode(scenario, cfg)
    text = serialize_trace(trace)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        path = out / f"{scenario.id}.cftrace"
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
    print(f"updates: {' -> '.join(update_sequence(trace))}", file=sys.stderr)
    return 0


def _cmd_suite(args) -> int:
    variants = [v.strip() for v in args.planners.split(",") if v.strip()]
    for v in variants:
        if v not in VARIANTS:
            print(f"unknown planner variant {v!r}", file=sys.stderr)
            return 2
    result = run_suite(
        args.dir,
        variants,
        seed=args.seed,
        budget=args.budget,
        cadence=args.cadence,
        out_dir=args.out,
    )
    sys.stdout.write(render_suite_table(result.reports))
    return 0


def _cmd_render(args) -> int:
    trace = load_trace(args.trace)
    sys.stdout.write(render_trace(trace))
    return 0


def _cmd_audit(args) -> int:
    trace = load_trace(args.trace)
    violations = audit_trace(trace)
    for v in violations:
        print(f"record {v.record_index}: {v.check}: {v.message}")
    if violations:
        print(f"{len(violations)} violation(s)")
        return 1
    print("audit clean")
    return 0


def _cmd_score(args) -> int:
    trace = load_trace(args.trace)
    scenario = load_scenario(Path(args.scenario))
    metrics = score_episode(trace, scenario.world, scenario)
    print(json.dumps(to_json(metrics), indent=2, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    paths = sorted(Path(args.dir).glob("report_*.json"))
    for path in paths:
        variant = path.stem.removeprefix("report_")
        data = json.loads(path.read_text(encoding="utf-8"))
        print(f"{variant}: {json.dumps(data, sort_keys=True)}")
    if not paths:
        print("no report files found", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="contextflow")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario")
    run.add_argument("scenario")
    run.add_argument("--planner", default="contextflow", choices=VARIANTS)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--budget", type=int, default=None)
    run.add_argument("--cadence", type=int, default=DEFAULT_CADENCE)
    run.add_argument("--out", default=None)
    run.set_defaults(func=_cmd_run)

    suite = sub.add_parser("suite", help="run a scenario suite")
    suite.add_argument("dir")
    suite.add_argument("--planners", default="contextflow")
    suite.add_argument("--seed", type=int, default=None)
    suite.add_argument("--budget", type=int, default=None)
    suite.add_argument("--cadence", type=int, default=DEFAULT_CADENCE)
    suite.add_argument("--out", default=None)
    suite.set_defaults(func=_cmd_suite)

    render = sub.add_parser("render", help="render a trace as a board table")
    render.add_argument("trace")
    render.set_defaults(func=_cmd_render)

    audit = sub.add_parser("audit", help="audit a trace; nonzero exit on violations")
    audit.add_argument("trace")
    audit.set_defaults(func=_cmd_audit)

    score = sub.add_parser("score", help="score a trace against its scenario")
    score.add_argument("trace")
    score.add_argument("--scenario", required=True)
    score.set_defaults(func=_cmd_score)

    report = sub.add_parser("report", help="print suite reports from a directory")
    report.add_argument("dir")
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ContextFlowError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
