"""What one generated large world's cache holds after its episodes, per builder.

Usage, from the repository root:

    python3 tools/world_cache.py                  # world 0 of seed 41
    python3 tools/world_cache.py --seed 2 --world 1

Runs the 32 instructions of one world of `perfbench.workloads.large_worlds`
under `contextflow` at budget 40, as the benchmark's `large-world` workload
runs them, all on the one world they share. Then prints one row per builder
of that world's cache (`WorldState._trees`): `_visible`, `distances` (the
distance answers), `_path`, `_route` and `_sweep`. Each row gives the items
the builder holds, their entries as `TREE_CACHE_ENTRIES` counts them (a
distance answer counts one, any other item one more than its length), the
distinct source nodes they are rooted at (a plan's start node), the distinct
(source, target) pairs they answer (for `distances` and `_path`, their keys)
and the bytes they hold: the fall in the memory traced by `tracemalloc` when
the builder's items are dropped from the cache.

Standard library only, besides the package under `src/` and
`perfbench/workloads.py`, which it imports and does not change.
"""

from __future__ import annotations

import argparse
import gc
import sys
import tracemalloc
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # write nothing under perfbench/

from contextflow import executors  # noqa: E402
from contextflow import world as world_module  # noqa: E402
from contextflow.harness import RunConfig, run_episode  # noqa: E402

import workloads  # noqa: E402

BUDGET = 40
ORDER = ("_visible", "distances", "_path", "_route", "_sweep")


def classify(key: tuple) -> tuple[str, str]:
    """(row name, source node) of a cache key."""
    build = key[0]
    if build in (executors._route, executors._sweep):
        return build.__name__, key[2]  # keyed by (region, start)
    return build.__name__, key[1]


def _rank(name: str) -> tuple:
    base = name.split()[0]
    return (ORDER.index(base) if base in ORDER else len(ORDER), name)


def measure(seed: int, index: int) -> tuple[list[dict], int, int]:
    """The rows of one world's cache after its episodes, its node count and
    the entries the world counted."""
    generated, instructions = list(workloads.large_worlds(seed))[index]
    tracemalloc.start()
    try:
        scenarios = workloads.large_scenarios(generated, instructions)
        for scenario in scenarios:
            run_episode(scenario, RunConfig(budget=BUDGET))
        world = scenarios[0].world
        del scenarios
        groups = defaultdict(list)
        for key in world._trees:
            groups[classify(key)[0]].append(key)
        rows = []
        for name in sorted(groups, key=_rank):
            keys = groups[name]
            sources = {classify(key)[1] for key in keys}
            pairs = len({key[1:] for key in keys}) if name in ("distances", "_path") else None
            entries = sum(world_module._entries(world._trees[key]) for key in keys)
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for i, key in enumerate(keys):
                del world._trees[key]
                keys[i] = None  # the key tuple goes too; the list keeps its size
            gc.collect()
            held = before - tracemalloc.get_traced_memory()[0]
            rows.append({"builder": name, "items": len(keys), "entries": entries, "sources": len(sources),
                         "pairs": pairs, "bytes": held})
        return rows, len(world.nodes), world._tree_entries
    finally:
        tracemalloc.stop()


def report(rows: list[dict], nodes: int, counted: int, seed: int, index: int) -> str:
    lines = [f"world {index} of large_worlds({seed}): {nodes} nodes, its instructions under contextflow "
             f"at budget {BUDGET}; {counted:,} entries counted by the world",
             f"{'builder':16s} {'items':>7s} {'entries':>9s} {'sources':>8s} {'pairs':>7s} {'bytes':>11s}"]
    for row in rows:
        pairs = "-" if row["pairs"] is None else f"{row['pairs']:,}"
        lines.append(f"{row['builder']:16s} {row['items']:>7,} {row['entries']:>9,} {row['sources']:>8,} "
                     f"{pairs:>7s} {row['bytes']:>11,}")
    total = {name: sum(row[name] for row in rows) for name in ("items", "entries", "bytes")}
    lines.append(f"{'total':16s} {total['items']:>7,} {total['entries']:>9,} {'':>8s} {'':>7s} "
                 f"{total['bytes']:>11,}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=41, help="large-world workload seed")
    parser.add_argument("--world", type=int, default=0, choices=range(workloads.LARGE_WORLDS),
                        help="index of the world among the seed's")
    args = parser.parse_args(argv)
    rows, nodes, counted = measure(args.seed, args.world)
    print(report(rows, nodes, counted, args.seed, args.world))
    return 0


if __name__ == "__main__":
    sys.exit(main())
