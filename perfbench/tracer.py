"""Spans and counters recorded from outside the program.

Each layer is timed by replacing a public function in the module that calls
it (for example `harness.observe` or `alignment.plan_diff`) with a wrapper
that records a span: name, start, end, parent span and episode id. Calls as
small and frequent as `geodesic_distance` only get a counter, because a
timer around them would distort the run. Spans stay in memory until the
run ends. A span's self time is its duration minus the time its child spans
cover; spans nest strictly, because the program is single-threaded.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from contextflow import alignment, board, executors, harness, metrics, monitor, scenario, world


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counts: Counter = Counter()
        self.episode = ""  # "<phase>:<episode key>", set by the caller
        self.recording = True
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent, self.episode))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent, self.episode)
            self._stack.pop()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def timed(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap owner.attr in a span; `after(result, args)` may add counts."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        self._patch(owner, attr, wrapper)

    def counted(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics need."""
        c = self.counts
        self.timed(scenario, "parse_scenario_text", "scenario.parse")
        self.timed(scenario, "build_world", "world.build_world")
        self.timed(harness, "observe", "world.observe")
        for module in (world, harness, monitor, executors, metrics):
            self.counted(module, "geodesic_distance", "world.geodesic_distance")
        self.timed(executors, "shortest_node_path", "world.shortest_node_path")
        self.timed(executors, "spawn", "executors.spawn")
        for cls in (executors.RouteNavigator, executors.LocalSearcher, executors.EndpointApproacher):
            self.timed(cls, "step", "executors.step")
        for module in (harness, alignment):
            self.timed(module, "record_event", "memory.record_event")

        def retrieved(result, args):
            c["memory.entries_scanned"] += len(args[0].short_term) + len(args[0].long_term)
            c["memory.hits"] += len(result)

        self.timed(alignment, "retrieve", "memory.retrieve", retrieved)
        self.timed(monitor.Monitor, "aggregate", "monitor.aggregate",
                   lambda packet, args: c.update({"monitor.discoveries": len(packet.d)}))
        self.timed(alignment, "handoff_satisfied", "contracts.handoff_satisfied")
        self.timed(alignment, "plan_diff", "contracts.plan_diff",
                   lambda diff, args: c.update({"contracts.plan_diff_nonempty": int(bool(diff.changed))}))
        self.timed(alignment, "classify_misalignment", "alignment.classify")
        self.timed(alignment, "select_update", "alignment.select")
        self.timed(alignment, "apply_update", "alignment.apply_update")
        self._wrap_consult()
        self.timed(harness, "emit_record", "board.emit_record")
        self.timed(board, "_audit_replay", "board.replay")

    def _wrap_consult(self) -> None:
        original = alignment.PlannerSession.consult
        tracer = self

        def consult(session, workflow, packet, status, mem, registry, *args, **kwargs):
            kind_before = registry.current.kind if registry.current else ""
            with tracer.span("alignment.consult"):
                result = original(session, workflow, packet, status, mem, registry, *args, **kwargs)
            action = result.update.action
            tracer.counts[f"alignment.updates.{action}"] += 1
            if action == alignment.ACT_TRANSFER:
                tracer.counts["alignment.transfers"] += 1
                if result.update.payload["target_kind"] == kind_before:
                    tracer.counts["alignment.transfers_same_kind"] += 1
            return result

        self._patch(alignment.PlannerSession, "consult", consult)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Run the body with every wrapper removed and no span recorded (the
        untraced baseline)."""
        self.uninstall()
        self.recording = False
        try:
            yield
        finally:
            self.recording = True
            self.install()

    # -- aggregation ---------------------------------------------------------

    def summary(self, phase: str) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds, over the
        spans whose episode id starts with `phase`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0, "self": 0.0})
        for i, (name, start, end, _, episode) in enumerate(self.spans):
            if not episode.startswith(phase):
                continue
            row = out[name]
            row["calls"] += 1
            row["total"] += end - start
            row["self"] += end - start - child[i]
        return out

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: name, start, end, parent, episode."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
