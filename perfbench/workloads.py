"""The benchmark's workloads and the measurements they share.

Every workload has a set-up phase (scenario text to ready `Scenario`
objects), a run phase (episodes run to their terminal line and serialized
to a string, in memory) and an audit phase (traces parsed and audited).
Each phase is repeated in passes over the same inputs. Correctness checks
run between the timed calls.

A rate is the work of one pass divided by the sum, over the pass's inputs,
of each input's typical time: the median of its repetitions, leaving out
the first (warm-up) repetition when there are at least three. A slow moment
of the machine then spoils one sample of a few inputs rather than the whole
figure.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, replace

from contextflow import RunConfig, golden_scenario_path, load_scenario, load_suite, stress_suite_dir
from contextflow.alignment import VARIANTS
from contextflow.board import audit_trace, parse_trace, serialize_trace
from contextflow.harness import run_episode
from contextflow.metrics import aggregate_suite, score_episode

from checks import REPLAY, STRUCTURAL, Ledger, behaviour, clean_verdict, load_pins, pin_key, verdict
from worldgen import generate_instruction, generate_world

SETUP_REPEATS = 3           # stress-suite set-ups before the first pass
SETUP_BURST = 20            # stress-suite set-ups before each run pass
RUN_SHARE = 0.5             # of the measured time, for run passes
HELD_OUT_OFFSET = 1_000_003  # held-out episode seed = workload seed + this
HELD_OUT_EPISODES = 10
LARGE_WORLDS = 4
LARGE_SIDE = 30             # 900-node grids
LARGE_INSTRUCTIONS = 32     # per world
LARGE_BUDGET = 40
LARGE_BUILDS = 2            # set-ups per world
LARGE_PIN = (2, 0)          # (workload seed, world index) whose episodes are pinned
# The one abort a generated instruction may end in: its last stage is for the
# endpoint approacher alone, whose target may not have been seen yet when the
# stage is promoted. Any other `error:*` terminal fails the gate.
LARGE_ABORT = "error:NoAnchorToApproach"


@dataclass(frozen=True)
class Item:
    key: str       # scenario/variant/seed=N
    scenario: object
    cfg: RunConfig


@dataclass
class Output:
    text: str
    ticks: int
    records: int
    reason: str    # terminal reason


class Bench:
    def __init__(self, seed: int, seconds: float, tracer=None):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.ledger = Ledger()
        self.setup_s: list[float] = []
        self.run_s: dict[str, list[float]] = defaultdict(list)
        self.audit_s: dict[str, list[float]] = defaultdict(list)
        self.outputs: dict[str, Output] = {}
        self.verdicts: dict[str, dict[str, int]] = {}
        self.scores: dict[str, object] = {}
        self.wall = {"untraced": 0.0, "traced": 0.0}
        self.traced_setups = 0
        self.long_term: list[int] = []
        self.bytes: Counter = Counter()
        self.peak_rss_mb = 0.0
        self.first_run = lambda item, trace: None
        self.expected_verdict = lambda key, counts: (True, "")

    # -- timing helpers --------------------------------------------------------

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def unmeasured(self):
        """Context for check work: a traced run records no spans or counts."""
        return self.tracer.paused() if self.tracer else nullcontext()

    def _episode(self, label: str) -> None:
        if self.tracer:
            self.tracer.episode = label

    def repeat(self, body, passes: int) -> None:
        """Call body() (which returns its own timed seconds) `passes` times.
        A traced run calls it exactly twice: traced, then untraced for the
        baseline."""
        if self.tracer:
            self.wall["traced"] += body()
            with self.tracer.paused():
                self.wall["untraced"] += body()
            return
        for _ in range(passes):
            gc.collect()
            body()

    def alternate(self, run, audit, min_runs: int, min_audits: int, seconds: float) -> None:
        """Interleave run passes and audit passes (run first) until `seconds`
        have passed and each has its minimum count, giving the run phase
        RUN_SHARE of the time, so that both phases sample the whole run."""
        if self.tracer:
            self.repeat(run, 1)
            self.repeat(audit, 1)
            return
        bodies, minimum, share = (run, audit), (min_runs, min_audits), (RUN_SHARE, 1 - RUN_SHARE)
        spent, done = [0.0, 0.0], [0, 0]
        start = time.perf_counter()
        while True:
            time_left = time.perf_counter() - start < seconds
            due = [p for p in (0, 1) if time_left or done[p] < minimum[p]]
            if not due:
                return
            phase = 0 if done[0] == 0 else min(due, key=lambda p: spent[p] / share[p])
            gc.collect()
            begin = time.perf_counter()
            bodies[phase]()
            spent[phase] += time.perf_counter() - begin
            done[phase] += 1

    def timed_setup(self, body, made: list) -> float:
        """One set-up: time body() and keep what it made in `made`."""
        self._episode("setup:")
        if self.tracer and self.tracer.recording:
            self.traced_setups += 1
        made.clear()
        start = time.perf_counter()
        made.append(body())
        elapsed = time.perf_counter() - start
        self.setup_s.append(elapsed)
        return elapsed

    def setup(self, body, repeats: int = SETUP_REPEATS) -> object:
        """Set up `repeats` times; return what the last set-up made."""
        made: list = []
        self.repeat(lambda: self.timed_setup(body, made), repeats)
        return made[0]

    # -- run phase -------------------------------------------------------------

    def _inspect(self, workflow, mem, registry) -> None:
        self.long_term.append(len(mem.long_term))

    def run_item(self, item: Item):
        self._episode(f"run:{item.key}")
        inspect = self._inspect if self.tracer and self.tracer.recording else None
        start = time.perf_counter()
        with self.span("harness.run_episode"):
            trace = run_episode(item.scenario, item.cfg, inspect)
        with self.span("board.serialize"):
            text = serialize_trace(trace)
        return trace, text, time.perf_counter() - start

    def run_pass(self, items: list[Item]) -> float:
        total = 0.0
        for item in items:
            got = self.ledger.guard(f"run {item.key}", self.run_item, item)
            if got is None:
                continue
            trace, text, elapsed = got
            total += elapsed
            self.run_s[item.key].append(elapsed)
            first = self.outputs.get(item.key)
            if first is None:
                terminal = trace.terminal
                self.outputs[item.key] = Output(text, terminal["tick"], len(trace.records), terminal["reason"])
                if self.tracer:
                    self._count_bytes(trace, text)
                self.first_run(item, trace)
            else:
                self.ledger.check(f"re-run {item.key}", text == first.text, "trace text differs")
        return total

    def score(self, item: Item, trace) -> None:
        with self.span("metrics.score_episode"):
            self.scores[item.key] = score_episode(trace, item.scenario.world, item.scenario)

    # -- audit phase -----------------------------------------------------------

    def audit_item(self, key: str, text: str):
        self._episode(f"audit:{key}")
        start = time.perf_counter()
        with self.span("board.parse"):
            trace = parse_trace(text)
        with self.span("board.audit"):
            violations = audit_trace(trace)
        return trace, violations, time.perf_counter() - start

    def audit_pass(self, keys: list[str] | None = None) -> float:
        total = 0.0
        for key in self.outputs if keys is None else keys:
            text = self.outputs[key].text
            got = self.ledger.guard(f"audit {key}", self.audit_item, key, text)
            if got is None:
                continue
            trace, violations, elapsed = got
            total += elapsed
            self.audit_s[key].append(elapsed)
            counts = verdict(violations)
            if key in self.verdicts:
                self.ledger.check(f"re-audit {key}", counts == self.verdicts[key], f"{counts}")
                continue
            self.verdicts[key] = counts
            ok, detail = self.expected_verdict(key, counts)
            self.ledger.check(f"audit {key}", ok, detail)
            self.ledger.check(f"round trip {key}", serialize_trace(trace) == text,
                              "serialize_trace(parse_trace(text)) != text")
        return total

    def measured(self) -> None:
        """Mark the end of the measured phases: peak memory is read here, so
        that the checks that follow do not count."""
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- held-out seed ---------------------------------------------------------

    def held_out(self, items: list[Item]) -> None:
        """Pin-free checks under a second episode seed: re-runs are
        byte-identical, traces round-trip, decision replay is clean and the
        full policy has no structural violation."""
        seed = self.seed + HELD_OUT_OFFSET
        rng = random.Random(f"{self.seed}/held-out")
        for item in rng.sample(items, min(HELD_OUT_EPISODES, len(items))):
            cfg = replace(item.cfg, seed=seed)
            key = f"held-out {item.scenario.id}/{cfg.variant}/seed={seed}"
            texts = [self.ledger.guard(key, lambda: serialize_trace(run_episode(item.scenario, cfg)))
                     for _ in range(2)]
            if None in texts:
                continue
            self.ledger.check(f"{key} re-run", texts[0] == texts[1], "trace text differs")
            trace = self.ledger.guard(key, parse_trace, texts[0])
            if trace is None:
                continue
            self.ledger.check(f"{key} round trip", serialize_trace(trace) == texts[0], "")
            ok, detail = clean_verdict(cfg.variant, verdict(audit_trace(trace)))
            self.ledger.check(f"{key} audit", ok, detail)

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        keys = [k for k in self.outputs if self.run_s[k]]
        run_pass = sum(_typical(self.run_s[k]) for k in keys)
        audited = [k for k in keys if self.audit_s[k]]
        audit_pass = sum(_typical(self.audit_s[k]) for k in audited)
        ticks = sum(self.outputs[k].ticks for k in keys)
        records = sum(self.outputs[k].records for k in keys)
        return {
            "setup_s": statistics.median(self.setup_s),
            "episodes_per_s": len(keys) / run_pass,
            "ticks_per_s": ticks / run_pass,
            "consultations_per_s": records / run_pass,
            "trace_bytes_per_record": sum(len(self.outputs[k].text) for k in keys) / records,
            "audit_records_per_s": sum(self.outputs[k].records for k in audited) / audit_pass,
            "peak_rss_mb": self.peak_rss_mb,
            "pass_ratio": 1.0 - self.ledger.failed / max(self.ledger.attempted, 1),
        }

    def per_layer(self) -> dict[str, float]:
        t = self.tracer
        c = t.counts
        setup, run, audit = t.summary("setup:"), t.summary("run:"), t.summary("audit:")
        per_setup = max(self.traced_setups, 1)
        out: dict[str, float] = {
            "world.build_world_s": setup["world.build_world"]["total"] / per_setup,
            "scenario.parse_s": setup["scenario.parse"]["total"] / per_setup,
            "world.geodesic_distance_calls": c["world.geodesic_distance"],
        }
        for name in (
            "world.observe",
            "world.shortest_node_path",
            "executors.spawn",
            "executors.step",
            "memory.record_event",
            "memory.retrieve",
            "monitor.aggregate",
            "contracts.handoff_satisfied",
            "contracts.plan_diff",
            "board.emit_record",
        ):
            out[f"{name}_calls"] = run[name]["calls"]
            out[f"{name}_s"] = run[name]["total"]
        scanned = c["memory.entries_scanned"]
        out["memory.entries_scanned"] = scanned
        out["memory.hit_ratio"] = c["memory.hits"] / scanned if scanned else 0.0
        out["memory.long_term_final_mean"] = statistics.fmean(self.long_term) if self.long_term else 0.0
        aggregates = run["monitor.aggregate"]["calls"]
        out["monitor.discoveries_per_packet"] = c["monitor.discoveries"] / aggregates if aggregates else 0.0
        diffs = run["contracts.plan_diff"]["calls"]
        out["contracts.plan_diff_nonempty_ratio"] = c["contracts.plan_diff_nonempty"] / diffs if diffs else 0.0
        out["alignment.consult_self_s"] = run["alignment.consult"]["self"]
        out["alignment.classify_s"] = run["alignment.classify"]["total"]
        out["alignment.select_s"] = run["alignment.select"]["total"]
        out["alignment.apply_update_s"] = run["alignment.apply_update"]["total"]
        for action in ("continue", "refine", "transfer", "promote", "repair"):
            out[f"alignment.updates.{action}"] = c[f"alignment.updates.{action}"]
        transfers = c["alignment.transfers"]
        out["alignment.transfer_same_kind_ratio"] = (
            c["alignment.transfers_same_kind"] / transfers if transfers else 0.0
        )
        out["board.serialize_s"] = run["board.serialize"]["total"]
        size = self.bytes["trace"]
        out["board.memory_context_byte_share"] = self.bytes["memory_context"] / size if size else 0.0
        out["board.workflow_byte_share"] = self.bytes["workflow"] / size if size else 0.0
        out["board.parse_s"] = audit["board.parse"]["total"]
        out["board.audit_s"] = audit["board.audit"]["total"]
        out["board.replay_s"] = audit["board.replay"]["total"]
        found = Counter()
        for counts in self.verdicts.values():
            found.update(counts)
        for check in STRUCTURAL + (REPLAY,):
            out[f"board.violations.{check}"] = found[check]
        out["board.replay_drift"] = found[REPLAY]
        out["metrics.score_episode_s"] = run["metrics.score_episode"]["total"]
        out["harness.run_episode_self_s"] = run["harness.run_episode"]["self"]
        untraced_ms = sorted(1000.0 * times[-1] for times in self.run_s.values() if times)
        out["harness.episode_ms_p50"] = statistics.median(untraced_ms)
        out["harness.episode_ms_p90"] = statistics.quantiles(untraced_ms, n=10, method="inclusive")[8]
        reasons = Counter(output.reason.split(":")[0] for output in self.outputs.values())
        for reason in ("completed", "stopped", "budget", "error"):
            out[f"harness.terminal.{reason}"] = reasons[reason]
        out["trace.overhead_ratio"] = self.wall["traced"] / self.wall["untraced"]
        return out

    def _count_bytes(self, trace, text: str) -> None:
        """JSON size of each record's `memory_context` and `workflow`
        snapshot, against the size of the serialized trace. Read from the
        records, so that a change of trace codec does not break it."""
        self.bytes["trace"] += len(text)
        for record in trace.records:
            for field in ("memory_context", "workflow"):
                value = getattr(record, field, None)
                self.bytes[field] += len(json.dumps(value, sort_keys=True, separators=(",", ":")))


def _typical(times: list[float]) -> float:
    """Median of an input's repetitions, without the warm-up one when at
    least two others are left."""
    return statistics.median(times[1:] if len(times) >= 3 else times)


# -- workloads -------------------------------------------------------------------


def _stress_items(scenarios) -> list[Item]:
    return [
        Item(pin_key(s.id, v, s.seed), s, RunConfig(variant=v))
        for v in VARIANTS
        for s in scenarios
    ]


def _pinned(bench: Bench) -> dict:
    """Check the stress corpus against its pins: each first run's behaviour,
    each first audit's verdict; the suite tables once all runs are in."""
    pins = load_pins()
    episodes = pins["episodes"]

    def first_run(item: Item, trace) -> None:
        bench.score(item, trace)
        want = episodes.get(item.key)
        got = behaviour(trace)
        ok = want is not None and got == {"updates": want["updates"], "terminal": want["terminal"]}
        bench.ledger.check(f"pinned {item.key}", ok, f"got {got['updates']}")

    def expected_verdict(key: str, counts: dict) -> tuple[bool, str]:
        want = episodes.get(key, {}).get("verdict")
        return counts == want, f"verdict {counts} != pinned {want}"

    bench.first_run = first_run
    bench.expected_verdict = expected_verdict
    return pins


def _check_suite(bench: Bench, pins: dict, scenarios) -> None:
    labels = [s.diagnostic_type for s in scenarios]
    for variant in VARIANTS:
        keys = [pin_key(s.id, variant, s.seed) for s in scenarios]
        if not all(k in bench.scores for k in keys):
            bench.ledger.check(f"suite table {variant}", False, "episodes missing")
            continue
        table = aggregate_suite([bench.scores[k] for k in keys], labels).to_json()
        bench.ledger.check(f"suite table {variant}", table == pins["reports"][variant], f"{table}")
    missing = set(pins["episodes"]) - set(bench.outputs)
    bench.ledger.check("every pinned episode ran", not missing, f"missing {sorted(missing)[:5]}")
    golden = load_scenario(golden_scenario_path())
    trace = run_episode(golden, RunConfig())
    key = pin_key(golden.id, "contextflow", golden.seed)
    bench.ledger.check(f"golden {key}", behaviour(trace) == pins["golden"][key], "")


def stress_suite(bench: Bench) -> None:
    """30 shipped stress scenarios x 5 planner variants, run and audited in
    alternating passes. A burst of set-ups precedes each run pass, so that
    `setup_s` samples the whole run as the passes do."""
    pins = _pinned(bench)

    def load():
        return load_suite(stress_suite_dir())

    scenarios = bench.setup(load)
    items = _stress_items(scenarios)
    made: list = []

    def run() -> float:
        for _ in range(SETUP_BURST):
            bench.timed_setup(load, made)
        return bench.run_pass(items)

    bench.alternate(run, bench.audit_pass, 3, 3, bench.seconds)
    bench.measured()
    with bench.unmeasured():
        _check_suite(bench, pins, scenarios)
        bench.held_out(items)


def _on_world(base, instruction):
    """An instruction loaded against a skeleton world, moved onto the full
    world it was generated for."""
    return replace(
        base,
        id=instruction.id,
        stages=instruction.stages,
        faults=instruction.faults,
        start=instruction.start,
        goal_node=instruction.goal_node,
        success_radius=instruction.success_radius,
        budget=instruction.budget,
        seed=instruction.seed,
    )


def large_worlds(seed: int):
    """The generated worlds of a workload seed, each with its instructions
    (text, start node, goal node). Drawn from the seed alone."""
    rng = random.Random(seed)
    for w in range(LARGE_WORLDS):
        world = generate_world(rng.randrange(1 << 31), side=LARGE_SIDE)
        yield world, [
            generate_instruction(world, rng, f"w{w}i{i}", LARGE_BUDGET)
            for i in range(LARGE_INSTRUCTIONS)
        ]


def large_scenarios(world, instructions) -> list:
    """Ready scenarios for one world: the world is built once, with its first
    instruction; the others are validated on its skeleton."""
    text, _, _ = instructions[0]
    base = load_scenario(world.scenario_text(text))
    return [base] + [
        _on_world(base, load_scenario(world.skeleton_text(*instruction)))
        for instruction in instructions[1:]
    ]


def pinned_large_scenarios() -> list:
    """The scenarios whose behaviour pins.json holds. The pinned world
    includes an episode that ends in `error:NoAnchorToApproach`, so the
    pins cover that path as well as the budget one."""
    seed, index = LARGE_PIN
    return large_scenarios(*list(large_worlds(seed))[index])


def _large_items(scenarios) -> list[Item]:
    return [Item(pin_key(s.id, "contextflow", s.seed), s, RunConfig()) for s in scenarios]


def _check_large_pins(bench: Bench) -> None:
    """Behaviour and audit verdict of the pinned world's episodes."""
    pins = load_pins()["large_world"]
    items = _large_items(pinned_large_scenarios())
    for item in items:
        got = bench.ledger.guard(f"pinned {item.key}", run_episode, item.scenario, item.cfg)
        if got is None:
            continue
        entry = behaviour(got)
        entry["verdict"] = verdict(audit_trace(parse_trace(serialize_trace(got))))
        bench.ledger.check(f"pinned {item.key}", entry == pins.get(item.key), f"got {entry}")
    bench.ledger.check("every pinned large-world episode ran", len(items) == len(pins), "")


def large_world(bench: Bench) -> None:
    """Generated 900-node grid worlds, each with several instructions, run
    under the full policy. Worlds are handled one at a time."""

    def first_run(item: Item, trace) -> None:
        bench.score(item, trace)
        reason = trace.terminal["reason"]
        ok = not reason.startswith("error:") or reason == LARGE_ABORT
        bench.ledger.check(f"terminal {item.key}", ok, reason)

    bench.first_run = first_run
    bench.expected_verdict = lambda key, counts: clean_verdict("contextflow", counts)
    worlds = list(large_worlds(bench.seed))
    order = random.Random(f"{bench.seed}/order")
    per_world = bench.seconds / LARGE_WORLDS
    for world, instructions in worlds:
        items = None  # frees the previous world before the next is built
        items = _large_items(bench.setup(lambda: large_scenarios(world, instructions), LARGE_BUILDS))
        keys = [item.key for item in items]
        bench.alternate(lambda: bench.run_pass(order.sample(items, len(items))),
                        lambda: bench.audit_pass(order.sample(keys, len(keys))), 3, 3, per_world)
    bench.measured()
    with bench.unmeasured():
        bench.held_out(items)
        _check_large_pins(bench)


WORKLOADS = {
    "stress-suite": stress_suite,
    "large-world": large_world,
}
