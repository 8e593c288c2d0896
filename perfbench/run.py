"""contextflow benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stress-suite --seed 1 --seconds 36 --trace 0

Runs one workload named in BENCHMARK.json against the sources under `src/`,
checks the outputs, and prints as its last line one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. `--trace 0` gives the
end-to-end metrics, measured untraced; `--trace 1` gives the per-layer
metrics from a traced pass. A results file with provenance (and, when
traced, the spans) goes to perfbench/results/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"


def _commit() -> str | None:
    """HEAD of the checkout's git directory, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "contextflow").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "contextflow" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: needs {SRC / 'contextflow'} and {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }

    sys.path.insert(0, str(SRC))
    from tracer import Tracer
    from workloads import WORKLOADS, Bench

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    bench = Bench(args.seed, args.seconds, tracer)
    try:
        WORKLOADS[args.workload](bench)
    finally:
        if tracer:
            tracer.uninstall()
    values = bench.per_layer() if tracer else bench.end_to_end()

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"perfbench: workload produced no value for {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": bench.ledger.failed == 0,
        "attempted": bench.ledger.attempted,
        "failed": bench.ledger.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({
            "provenance": provenance,
            "result": result,
            "setup_s": bench.setup_s,
            "run_s": bench.run_s,
            "audit_s": bench.audit_s,
        }, indent=1) + "\n", encoding="utf-8"
    )
    if tracer:
        tracer.write(RESULTS / f"{stem}-spans.jsonl.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
