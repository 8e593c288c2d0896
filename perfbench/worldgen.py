"""Seeded generator of large grid-world scenarios, emitted as `.scn` text.

Everything is drawn from `random.Random(seed)`: the grid's edges and
lengths, the region tags, the anchors, and each staged instruction with its
faults and start pose. Stages are not steered towards executors that fit
their regions, so the generated episodes also exercise the planner's
transfer loop when no compatible executor fits.

A world carries several instructions. The first one is emitted together
with the full world (`World.scenario_text`); the others are emitted against
a skeleton world that keeps only what an instruction references (one node
per region plus the start and goal nodes), so that `load_scenario` validates
them without repeating the all-pairs build of the full world.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

REGION_TAGS = ("route", "doorway", "room-local", "endpoint")
NAV_KINDS = ("route-navigator", "local-searcher")
OBJECT_WORDS = (
    "sink", "lamp", "chair", "crate", "shelf", "stove", "clock", "vase",
    "desk", "bench", "piano", "easel", "globe", "kiln", "loom", "safe",
)
FAULT_TRIGGERS = ("at_tick", "on_anchor_visible", "on_stage")


def _node(r: int, c: int) -> str:
    return f"g{r:02d}_{c:02d}"


def _row_col(node: str) -> tuple[int, int]:
    return int(node[1:3]), int(node[4:6])


def _spanning_edges(rng: random.Random, side: int) -> tuple[list, list]:
    """Random spanning tree of the grid (Kruskal over shuffled edges) plus
    the grid edges left over."""
    edges = [((r, c), (r, c + 1)) for r in range(side) for c in range(side - 1)]
    edges += [((r, c), (r + 1, c)) for r in range(side - 1) for c in range(side)]
    rng.shuffle(edges)
    parent = {(r, c): (r, c) for r in range(side) for c in range(side)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree, rest = [], []
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            rest.append((a, b))
        else:
            parent[ra] = rb
            tree.append((a, b))
    return tree, rest


@dataclass
class World:
    side: int
    block: int
    world_lines: list[str]
    regions: dict[str, tuple[str, ...]]   # region -> tags
    centers: dict[str, tuple[int, int]]   # region -> (row, col) of its room anchor
    objects: list[tuple[str, int, int]]   # (label, row, col)

    def region_of(self, r: int, c: int) -> str:
        n = self.side // self.block
        return f"r{min(r // self.block, n - 1)}{min(c // self.block, n - 1)}"

    def scenario_text(self, instruction: str) -> str:
        return "\n".join(self.world_lines + ["", instruction])

    def skeleton_text(self, instruction: str, start: str, goal: str) -> str:
        """The instruction on a minimal connected world with the same region
        and node names: one chain through every region centre."""
        lines = ["[world]"] + [
            f"region {name} {' '.join(tags)}" for name, tags in sorted(self.regions.items())
        ]
        nodes = {_node(*rc): self.region_of(*rc) for rc in self.centers.values()}
        for name in (start, goal):
            nodes[name] = self.region_of(*_row_col(name))
        ids = sorted(nodes)
        for n in ids:
            r, c = _row_col(n)
            lines.append(f"node {n} {nodes[n]} {c} {r}")
        lines += [f"edge {a} {b} 1" for a, b in zip(ids, ids[1:])]
        return "\n".join(lines + ["", instruction])


def generate_world(seed: int, side: int = 30, block: int = 5, objects: int = 48) -> World:
    """A side x side grid cut into block x block regions, with one room
    anchor per region and `objects` object anchors."""
    rng = random.Random(seed)
    world = World(side, block, [], {}, {}, [])
    lines = [f"# generated large world: seed={seed} side={side}", "[world]"]
    names = sorted({world.region_of(r, c) for r in range(side) for c in range(side)})
    for name in names:
        world.regions[name] = tuple(rng.sample(REGION_TAGS, rng.randint(1, 2)))
        lines.append(f"region {name} {' '.join(world.regions[name])}")
    for r in range(side):
        for c in range(side):
            lines.append(f"node {_node(r, c)} {world.region_of(r, c)} {c} {r}")
    tree, rest = _spanning_edges(rng, side)
    for a, b in sorted(tree + [e for e in rest if rng.random() < 0.6]):
        lines.append(f"edge {_node(*a)} {_node(*b)} {round(rng.uniform(1.0, 2.0), 2)}")
    mid = block // 2
    for name in names:
        rc = (int(name[1]) * block + mid, int(name[2]) * block + mid)
        world.centers[name] = rc
        lines.append(f"object {name} room {_node(*rc)} 2.5")
    for i in range(objects):
        r, c = rng.randrange(side), rng.randrange(side)
        label = f"{rng.choice(OBJECT_WORDS)}-{i}"
        lines.append(f"object {label} object {_node(r, c)} {round(rng.uniform(1.0, 2.5), 2)}")
        world.objects.append((label, r, c))
    world.world_lines = lines
    return world


def generate_instruction(world: World, rng: random.Random, ident: str,
                         budget: int) -> tuple[str, str, str]:
    """[stages], [faults] and [episode] text for one 3-4 stage instruction.
    Returns (text, start node, goal node)."""
    count = rng.randint(3, 4)
    targets = rng.sample(world.objects, count + 1)
    lines = ["[stages]"]
    hosted: set[str] = set()
    for i, (label, r, c) in enumerate(targets[:count]):
        region = world.region_of(r, c)
        last = i == count - 1
        kinds = ("endpoint-approacher",) if last else tuple(
            rng.sample(NAV_KINDS, rng.randint(1, 2))
        )
        hosted.update(kinds)
        lines += [
            f"stage s{i}-{label}",
            f"goal = {label} @ {region}",
            f"handoff = object:{label}>=0.7",
            f"expected_evidence = room:{region}>=0.5",
            f"compatible_executors = {', '.join(kinds)}",
        ]
        if not last and rng.random() < 0.3:
            other, orow, ocol = rng.choice(world.objects)
            lines += [
                f"contradicts = {targets[count][0]}",
                f"alternate s{i}-alt-{other}",
                f"goal = {other} @ {world.region_of(orow, ocol)}",
                f"handoff = object:{other}>=0.7",
                f"compatible_executors = {', '.join(kinds)}",
            ]
        lines.append("")

    lines.append("[faults]")
    for _ in range(rng.randint(0, 2)):
        kind = rng.choice(sorted(hosted & set(NAV_KINDS)))
        trigger = rng.choice(FAULT_TRIGGERS)
        value = {
            "at_tick": str(rng.randint(5, budget // 2)),
            "on_anchor_visible": rng.choice(world.objects)[0],
            "on_stage": str(rng.randint(0, count - 1)),
        }[trigger]
        effect = rng.choice((
            "report_done_early",
            f"ignore_target_for={rng.randint(4, 20)}",
            f"degrade_fitness_context={rng.choice(REGION_TAGS)}",
            f"misground_goal={rng.choice(targets)[0]}->{rng.choice(world.objects)[0]}",
        ))
        lines.append(f"fault {kind} {trigger}={value} {effect}")

    _, gr, gc = targets[count - 1]
    start, goal = _node(rng.randrange(world.side), rng.randrange(world.side)), _node(gr, gc)
    lines += [
        "",
        "[episode]",
        f"id = {ident}",
        "diagnostic_type = none",
        f"start = {start} {rng.choice('NESW')}",
        f"goal_node = {goal}",
        "success_radius = 3.0",
        f"budget = {budget}",
        f"seed = {rng.randint(0, 10_000)}",
    ]
    return "\n".join(lines) + "\n", start, goal
