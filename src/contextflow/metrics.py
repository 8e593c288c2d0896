"""Episode scoring and suite aggregation.

Success demands a deliberate stop within the success radius; oracle success
asks only whether the trajectory ever came that close. SPL weights success
by path efficiency, and the termination diagnostics (wrong stop, early
stop) separate endpoint accuracy from stop-policy behavior. Budget-terminal
episodes are scored by their final pose.
"""

from __future__ import annotations

from dataclasses import dataclass

from .board import Trace
from .errors import IncompleteTrace, LabelMismatch
from .scenario import Scenario
from .world import WorldState, geodesic_distance


@dataclass(frozen=True)
class EpisodeMetrics:
    success: int
    oracle_success: int
    spl: float
    ne: float
    progress: float
    steps: int
    stopped: bool
    wrong_stop: int
    early_stop: int


def score_episode(trace: Trace, world: WorldState, scenario: Scenario) -> EpisodeMetrics:
    if trace.terminal is None:
        raise IncompleteTrace("trace has no terminal line")
    term = trace.terminal
    goal = scenario.goal_node
    radius = scenario.success_radius

    ne = geodesic_distance(world, term["node"], goal)
    stopped = bool(term["stopped"])
    success = 1 if stopped and ne <= radius else 0
    oracle = 1 if term["min_goal_distance"] <= radius else 0

    shortest = geodesic_distance(world, scenario.start.node, goal)
    traveled = float(term["traveled"])
    if shortest <= 0.0:
        spl = float(success)
    else:
        spl = success * shortest / max(traveled, shortest)

    if shortest <= 0.0:
        progress = 0.0
    else:
        progress = max(0.0, min(1.0, (shortest - ne) / shortest))

    last_index = len(trace.header["templates"]) - 1
    frontier = int(term["frontier"])
    wrong_stop = 1 if stopped and frontier >= last_index and ne > radius else 0
    early_stop = 1 if stopped and frontier < last_index else 0

    return EpisodeMetrics(
        success=success,
        oracle_success=oracle,
        spl=spl,
        ne=ne,
        progress=progress,
        steps=int(term["tick"]),
        stopped=stopped,
        wrong_stop=wrong_stop,
        early_stop=early_stop,
    )


def format_pct(value: float | None) -> str:
    if value is None:
        return "n/a"
    return f"{100.0 * value:.2f}%"


@dataclass(frozen=True)
class SuiteReport:
    episodes: int
    sr: float
    osr: float
    spl: float
    ne: float
    progress: float
    avg_steps: float
    wrong_stop: float
    early_stop: float
    within_type_sr: dict[str, float | None]

    def to_json(self) -> dict:
        return {
            "episodes": self.episodes,
            "sr": format_pct(self.sr),
            "osr": format_pct(self.osr),
            "spl": format_pct(self.spl),
            "ne": round(self.ne, 2),
            "progress": format_pct(self.progress),
            "avg_steps": round(self.avg_steps, 2),
            "wrong_stop": format_pct(self.wrong_stop),
            "early_stop": format_pct(self.early_stop),
            "within_type_sr": {
                k: format_pct(v) for k, v in sorted(self.within_type_sr.items())
            },
        }


def aggregate_suite(metrics: list[EpisodeMetrics], labels: list[str]) -> SuiteReport:
    """Suite means plus per-diagnostic-type success rates."""
    if len(metrics) != len(labels):
        raise LabelMismatch(f"{len(metrics)} metrics vs {len(labels)} labels")
    if not metrics:
        raise LabelMismatch("empty suite")
    n = len(metrics)
    groups: dict[str, list[int]] = {}
    for m, label in zip(metrics, labels):
        if label != "none":
            groups.setdefault(label, []).append(m.success)
    within: dict[str, float | None] = {}
    for label, successes in groups.items():
        within[label] = (sum(successes) / len(successes)) if successes else None
    return SuiteReport(
        episodes=n,
        sr=sum(m.success for m in metrics) / n,
        osr=sum(m.oracle_success for m in metrics) / n,
        spl=sum(m.spl for m in metrics) / n,
        ne=sum(m.ne for m in metrics) / n,
        progress=sum(m.progress for m in metrics) / n,
        avg_steps=sum(m.steps for m in metrics) / n,
        wrong_stop=sum(m.wrong_stop for m in metrics) / n,
        early_stop=sum(m.early_stop for m in metrics) / n,
        within_type_sr=within,
    )


def render_suite_table(reports: dict[str, SuiteReport]) -> str:
    """Delimited comparison table, one row per planner variant."""
    group_names = sorted({g for r in reports.values() for g in r.within_type_sr})
    headers = (
        ["variant", "SR", "OSR", "SPL", "NE", "Progress", "steps", "wrong", "early"]
        + [f"SR[{g}]" for g in group_names]
    )
    rows = [headers]
    for variant in sorted(reports):
        r = reports[variant]
        rows.append(
            [
                variant,
                format_pct(r.sr),
                format_pct(r.osr),
                format_pct(r.spl),
                f"{r.ne:.2f}",
                format_pct(r.progress),
                f"{r.avg_steps:.2f}",
                format_pct(r.wrong_stop),
                format_pct(r.early_stop),
            ]
            + [format_pct(r.within_type_sr.get(g)) for g in group_names]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for i, row in enumerate(rows):
        lines.append(" | ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
