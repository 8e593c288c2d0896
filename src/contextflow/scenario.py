"""Scenario files: world spec, instruction stages, fault scripts, episode
parameters, and suite manifests.

One scenario per file, structured text with four sections:

    [world]    region/node/edge/object lines
    [stages]   stage blocks (goal, handoff, expected_evidence,
               compatible_executors, contradicts, plus optional
               alternate groundings used by repair)
    [faults]   fault <executor-kind> <trigger> <effect>
    [episode]  id, diagnostic_type, start, goal_node, success_radius,
               budget, seed

Clause syntax: `kind:label>=0.7@live-only` (threshold and source optional).
Fault scripts are what make misalignment reproducible; diagnostic labels are
never shown to any planner and exist only for within-type aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .contracts import (
    DEFAULT_MIN_CONFIDENCE,
    SOURCE_LIVE,
    SOURCE_MEMORY_OK,
    EvidenceClause,
    StageGoal,
    StageTemplate,
)
from .errors import (
    InvalidDiagnosticType,
    ManifestError,
    OrphanFault,
    ParseError,
    UnresolvedReference,
)
from .world import (
    AnchorSpec,
    EdgeSpec,
    NodeSpec,
    Pose,
    WorldSpec,
    WorldState,
    build_world,
)

DIAGNOSTIC_TYPES = ("handoff", "promotion", "repair", "executor-context", "none")
DEFAULT_SUCCESS_RADIUS = 3.0
DEFAULT_BUDGET = 500

TRIGGERS = ("at_tick", "on_anchor_visible", "on_stage")
EFFECTS = (
    "report_done_early",
    "ignore_target_for",
    "misground_goal",
    "degrade_fitness_context",
)


@dataclass(frozen=True)
class FaultScript:
    target_executor: str
    trigger: str
    trigger_value: str
    effect: str
    effect_value: str = ""

    def describe(self) -> str:
        return f"{self.target_executor}:{self.trigger}={self.trigger_value}:{self.effect}"


@dataclass(frozen=True)
class Scenario:
    id: str
    world_spec: WorldSpec
    world: WorldState
    stages: tuple[StageTemplate, ...]
    diagnostic_type: str
    faults: tuple[FaultScript, ...]
    start: Pose
    goal_node: str
    success_radius: float = DEFAULT_SUCCESS_RADIUS
    budget: int = DEFAULT_BUDGET
    seed: int = 0


def _number(cast, text: str, where: str, what: str):
    """`cast(text)` for `int` or `float`; `ParseError` when `text` is not one."""
    try:
        return cast(text)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ParseError(f"{where}: {what} needs {kind}, got {text!r}") from None


# [episode] keys whose values are numbers, and their types
_EPISODE_NUMBERS = {"success_radius": float, "budget": int, "seed": int}


def _parse_clause(text: str, where: str) -> EvidenceClause:
    source = SOURCE_LIVE
    body = text.strip()
    if "@" in body:
        body, source = body.rsplit("@", 1)
        source = source.strip()
        if source not in (SOURCE_LIVE, SOURCE_MEMORY_OK):
            raise ParseError(f"{where}: unknown clause source {source!r}")
    min_conf = DEFAULT_MIN_CONFIDENCE
    if ">=" in body:
        body, conf = body.split(">=", 1)
        min_conf = _number(float, conf, where, "clause confidence")
    if ":" not in body:
        raise ParseError(f"{where}: clause needs kind:label, got {text!r}")
    kind, label = body.split(":", 1)
    kind, label = kind.strip(), label.strip()
    if label == "*" and source != SOURCE_LIVE:
        raise ParseError(f"{where}: wildcard clauses must be live-only")
    return EvidenceClause(kind=kind, label=label, min_confidence=min_conf, source=source)


def _parse_clauses(text: str, where: str) -> tuple[EvidenceClause, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_clause(part, where) for part in text.split(";") if part.strip())


class _StageBuilder:
    def __init__(self, name: str):
        self.name = name
        self.goal: StageGoal | None = None
        self.handoff: tuple[EvidenceClause, ...] = ()
        self.expected: tuple[EvidenceClause, ...] = ()
        self.compatible: tuple[str, ...] = ()
        self.contradicts: tuple[str, ...] = ()
        self.alternates: list[_StageBuilder] = []

    def build(self, where: str) -> StageTemplate:
        if self.goal is None:
            raise ParseError(f"{where}: stage {self.name!r} has no goal")
        return StageTemplate(
            name=self.name,
            goal=self.goal,
            handoff=self.handoff,
            expected=self.expected,
            compatible=self.compatible,
            contradicts=self.contradicts,
            alternates=tuple(a.build(where) for a in self.alternates),
        )


def parse_scenario_text(text: str, origin: str = "<string>") -> dict:
    """Parse scenario text into raw sections; no cross-reference checks."""
    section = None
    regions: dict[str, tuple[str, ...]] = {}
    nodes: list[NodeSpec] = []
    edges: list[EdgeSpec] = []
    objects: list[AnchorSpec] = []
    stages: list[_StageBuilder] = []
    faults: list[FaultScript] = []
    episode: dict[str, str | int | float] = {}
    current: _StageBuilder | None = None  # stage or alternate receiving fields

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        where = f"{origin}:{lineno}"
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("world", "stages", "faults", "episode"):
                raise ParseError(f"{where}: unknown section [{section}]")
            continue
        if section == "world":
            parts = line.split()
            try:
                if parts[0] == "region" and len(parts) >= 2:
                    regions[parts[1]] = tuple(parts[2:])
                elif parts[0] == "node" and len(parts) == 5:
                    nodes.append(NodeSpec(parts[1], parts[2], float(parts[3]), float(parts[4])))
                elif parts[0] == "edge" and len(parts) == 4:
                    edges.append(EdgeSpec(parts[1], parts[2], float(parts[3])))
                elif parts[0] == "object" and len(parts) == 5:
                    objects.append(AnchorSpec(parts[1], parts[2], parts[3], float(parts[4])))
                else:
                    raise ParseError(f"{where}: bad world line {line!r}")
            except ValueError:
                raise ParseError(f"{where}: world line needs numbers: {line!r}") from None
        elif section == "stages":
            if line.startswith("stage "):
                builder = _StageBuilder(line.split(None, 1)[1].strip())
                stages.append(builder)
                current = builder
            elif line.startswith("alternate "):
                if not stages:
                    raise ParseError(f"{where}: alternate before any stage")
                alt = _StageBuilder(line.split(None, 1)[1].strip())
                stages[-1].alternates.append(alt)
                current = alt
            elif "=" in line and current is not None:
                key, value = (s.strip() for s in line.split("=", 1))
                if key == "goal":
                    if "@" not in value:
                        raise ParseError(f"{where}: goal needs `target @ region`")
                    target, region = (s.strip() for s in value.split("@", 1))
                    current.goal = StageGoal(target, region)
                elif key == "handoff":
                    current.handoff = _parse_clauses(value, where)
                elif key == "expected_evidence":
                    current.expected = _parse_clauses(value, where)
                elif key == "compatible_executors":
                    current.compatible = tuple(
                        s.strip() for s in value.split(",") if s.strip()
                    )
                elif key == "contradicts":
                    current.contradicts = tuple(
                        s.strip() for s in value.split(",") if s.strip()
                    )
                else:
                    raise ParseError(f"{where}: unknown stage field {key!r}")
            else:
                raise ParseError(f"{where}: bad stage line {line!r}")
        elif section == "faults":
            parts = line.split()
            if len(parts) != 4 or parts[0] != "fault":
                raise ParseError(f"{where}: bad fault line {line!r}")
            trigger_part, effect_part = parts[2], parts[3]
            if "=" not in trigger_part:
                raise ParseError(f"{where}: fault trigger needs a value")
            trig, trig_value = trigger_part.split("=", 1)
            if trig not in TRIGGERS:
                raise ParseError(f"{where}: unknown trigger {trig!r}")
            if "=" in effect_part:
                eff, eff_value = effect_part.split("=", 1)
            else:
                eff, eff_value = effect_part, ""
            if eff not in EFFECTS:
                raise ParseError(f"{where}: unknown effect {eff!r}")
            if trig in ("at_tick", "on_stage"):
                _number(int, trig_value, where, trig)
            if eff == "ignore_target_for":
                _number(int, eff_value, where, eff)
            if eff == "misground_goal" and "->" not in eff_value:
                raise ParseError(f"{where}: misground_goal needs `from->to`, got {eff_value!r}")
            faults.append(FaultScript(parts[1], trig, trig_value, eff, eff_value))
        elif section == "episode":
            if "=" not in line:
                raise ParseError(f"{where}: bad episode line {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            cast = _EPISODE_NUMBERS.get(key)
            episode[key] = value if cast is None else _number(cast, value, where, key)
        else:
            raise ParseError(f"{where}: content before any section")

    return {
        "regions": regions,
        "nodes": nodes,
        "edges": edges,
        "objects": objects,
        "stages": stages,
        "faults": faults,
        "episode": episode,
    }


def load_scenario(source: str | Path) -> Scenario:
    """Load and fully validate one scenario. `source` is a path or raw text."""
    if isinstance(source, Path) or (
        "\n" not in str(source) and str(source).endswith(".scn")
    ):
        path = Path(source)
        text = path.read_text(encoding="utf-8")
        origin = path.name
    else:
        text, origin = str(source), "<string>"
    raw = parse_scenario_text(text, origin)

    world_spec = WorldSpec(
        nodes=tuple(raw["nodes"]),
        edges=tuple(raw["edges"]),
        objects=tuple(raw["objects"]),
        region_tags=dict(raw["regions"]),
    )
    world = build_world(world_spec)

    episode = raw["episode"]
    for required in ("id", "start", "goal_node"):
        if required not in episode:
            raise ParseError(f"{origin}: [episode] missing {required!r}")
    diagnostic = episode.get("diagnostic_type", "none")
    if diagnostic not in DIAGNOSTIC_TYPES:
        raise InvalidDiagnosticType(diagnostic)

    start_parts = episode["start"].split()
    if len(start_parts) != 2:
        raise ParseError(f"{origin}: start needs `node heading`")
    start = Pose(start_parts[0], start_parts[1])
    if start.node not in world.nodes:
        raise UnresolvedReference(f"start node {start.node!r}")
    goal_node = episode["goal_node"]
    if goal_node not in world.nodes:
        raise UnresolvedReference(f"goal node {goal_node!r}")

    stages = tuple(b.build(origin) for b in raw["stages"])
    if not stages:
        raise ParseError(f"{origin}: no stages")
    known_regions = {n.region for n in world_spec.nodes}
    for template in stages:
        for candidate in (template,) + template.alternates:
            if candidate.goal.region not in known_regions:
                raise UnresolvedReference(
                    f"stage {candidate.name!r} goal region {candidate.goal.region!r}"
                )

    for fault in raw["faults"]:
        if fault.trigger == "on_stage":
            index = int(fault.trigger_value)
            if index < 0 or index >= len(stages):
                raise UnresolvedReference(f"fault targets stage {index}")

    return Scenario(
        id=episode["id"],
        world_spec=world_spec,
        world=world,
        stages=stages,
        diagnostic_type=diagnostic,
        faults=tuple(raw["faults"]),
        start=start,
        goal_node=goal_node,
        success_radius=episode.get("success_radius", DEFAULT_SUCCESS_RADIUS),
        budget=episode.get("budget", DEFAULT_BUDGET),
        seed=episode.get("seed", 0),
    )


@dataclass
class ArmedFault:
    script: FaultScript
    fired: bool = False


@dataclass
class ArmedFaults:
    """Per-episode fault set bound to the executor registry."""

    faults: list[ArmedFault] = field(default_factory=list)

    def poll(self, tick: int, obs, workflow, registry) -> list[str]:
        """Check triggers and apply effects; each fault fires at most once.
        Returns descriptions of faults fired this tick."""
        fired: list[str] = []
        for armed in self.faults:
            if armed.fired:
                continue
            script = armed.script
            if not self._triggered(script, tick, obs, workflow):
                continue
            if self._apply(script, tick, registry):
                armed.fired = True
                fired.append(script.describe())
        return fired

    @staticmethod
    def _triggered(script: FaultScript, tick: int, obs, workflow) -> bool:
        if script.trigger == "at_tick":
            return tick >= int(script.trigger_value)
        if script.trigger == "on_anchor_visible":
            return any(a.label == script.trigger_value for a in obs.visible)
        return workflow.frontier == int(script.trigger_value)

    @staticmethod
    def _apply(script: FaultScript, tick: int, registry) -> bool:
        current = registry.current
        effect = script.effect
        if effect == "degrade_fitness_context":
            registry.degrade(
                script.target_executor, tuple(script.effect_value.split(","))
            )
            return True
        if effect == "misground_goal":
            src, dst = script.effect_value.split("->", 1)
            if current is not None and current.kind == script.target_executor:
                if current.target_label == src:
                    current.misground(dst)
                    return True
            registry.pending_misground[script.target_executor] = (src, dst)
            return True
        # remaining effects need a live executor of the right kind
        if current is None or current.kind != script.target_executor:
            return False
        if effect == "report_done_early":
            current.force_done()
            return True
        if effect == "ignore_target_for":
            current.ignore_target(tick + int(script.effect_value))
            return True
        return False


def instantiate_faults(s: Scenario, registry) -> ArmedFaults:
    """Bind fault scripts for one episode. A fault aimed at an executor kind
    that no stage or alternate grounding can host is an `OrphanFault`."""
    hosted = {k for t in s.stages for c in (t,) + t.alternates for k in c.compatible}
    for fault in s.faults:
        if fault.target_executor not in hosted:
            raise OrphanFault(fault.describe())
    return ArmedFaults(faults=[ArmedFault(f) for f in s.faults])


# -- suites ------------------------------------------------------------------


def load_manifest(suite_dir: str | Path) -> list[tuple[str, str, Path]]:
    """Manifest lines: `<id> <diagnostic_type> <filename>`."""
    suite = Path(suite_dir)
    manifest = suite / "manifest.txt"
    if not manifest.exists():
        raise ManifestError(f"no manifest in {suite}")
    rows: list[tuple[str, str, Path]] = []
    for lineno, raw in enumerate(manifest.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ManifestError(f"manifest:{lineno}: bad row {line!r}")
        sid, diagnostic, filename = parts
        if diagnostic not in DIAGNOSTIC_TYPES:
            raise ManifestError(f"manifest:{lineno}: bad type {diagnostic!r}")
        path = suite / filename
        if not path.exists():
            raise ManifestError(f"manifest:{lineno}: missing file {filename!r}")
        rows.append((sid, diagnostic, path))
    return rows


def load_suite(suite_dir: str | Path) -> list[Scenario]:
    scenarios = []
    for sid, diagnostic, path in load_manifest(suite_dir):
        scenario = load_scenario(path)
        if scenario.id != sid:
            raise ManifestError(f"{path.name}: id {scenario.id!r} != manifest {sid!r}")
        if scenario.diagnostic_type != diagnostic:
            raise ManifestError(
                f"{path.name}: type {scenario.diagnostic_type!r} != manifest {diagnostic!r}"
            )
        scenarios.append(scenario)
    return scenarios


def data_dir() -> Path:
    return Path(__file__).parent / "data" / "scenarios"


def golden_scenario_path() -> Path:
    return data_dir() / "fig4_sink.scn"


def stress_suite_dir() -> Path:
    return data_dir() / "stress"
