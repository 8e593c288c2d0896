"""CLI exit codes and output for every subcommand."""

from __future__ import annotations

import json

import pytest

from contextflow.board import BoardRecord, _slot
from contextflow.cli import main
from contextflow.monitor import Evidence
from contextflow.scenario import golden_scenario_path, stress_suite_dir

_EVIDENCE, _ANCHORS = _slot(BoardRecord, "live_evidence"), _slot(Evidence, "a")


def test_run_writes_trace_and_exits_zero(tmp_path, capsys):
    code = main(["run", str(golden_scenario_path()), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr()
    assert (tmp_path / "fig4_sink.cftrace").exists()
    assert "initialize/continue -> continue -> promote" in out.err


def test_run_unknown_scenario_fails(tmp_path, capsys):
    code = main(["run", str(tmp_path / "missing.scn")])
    assert code != 0


@pytest.mark.parametrize("option", [["--cadence", "0"], ["--budget", "-1"]])
def test_run_and_suite_reject_a_cadence_below_1_or_a_budget_below_0(option, tmp_path, capsys):
    assert main(["run", str(golden_scenario_path()), *option]) == 2
    assert "error: InvalidRunConfig" in capsys.readouterr().err
    assert main(["suite", str(stress_suite_dir()), "--out", str(tmp_path), *option]) == 2
    assert "error: InvalidRunConfig" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_render_and_audit_clean_trace(tmp_path, capsys):
    main(["run", str(golden_scenario_path()), "--out", str(tmp_path)])
    trace = str(tmp_path / "fig4_sink.cftrace")
    assert main(["render", trace]) == 0
    rendered = capsys.readouterr().out
    assert "alignment board" in rendered
    assert main(["audit", trace]) == 0
    assert "audit clean" in capsys.readouterr().out


def test_audit_rejects_truncated_trace(tmp_path, capsys):
    main(["run", str(golden_scenario_path()), "--out", str(tmp_path)])
    capsys.readouterr()
    trace = tmp_path / "fig4_sink.cftrace"
    text = trace.read_text(encoding="utf-8")
    trace.write_text(text[: len(text) // 2], encoding="utf-8")
    assert main(["audit", str(trace)]) == 2
    assert "error: SchemaMismatch" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda r: r[_EVIDENCE].__setitem__(_ANCHORS, 3), id="anchors"),
        pytest.param(lambda r: r.__setitem__(_slot(BoardRecord, "selected_update"), "x"), id="update"),
    ],
)
def test_render_rejects_wrongly_typed_record(edit, tmp_path, capsys):
    main(["run", str(golden_scenario_path()), "--out", str(tmp_path)])
    capsys.readouterr()
    trace = tmp_path / "fig4_sink.cftrace"
    lines = trace.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[1])
    edit(row)
    lines[1] = json.dumps(row)
    trace.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["render", str(trace)]) == 2
    assert "error: SchemaMismatch" in capsys.readouterr().err


def test_audit_flags_violating_trace(tmp_path, capsys):
    scenario = stress_suite_dir() / "handoff_01.scn"
    main(
        [
            "run",
            str(scenario),
            "--planner",
            "termination-follower",
            "--out",
            str(tmp_path),
        ]
    )
    capsys.readouterr()
    trace = str(tmp_path / "handoff_01.cftrace")
    code = main(["audit", trace])
    out = capsys.readouterr().out
    assert code == 1
    assert "promote-gating" in out


def test_score_reports_metrics(tmp_path, capsys):
    main(["run", str(golden_scenario_path()), "--out", str(tmp_path)])
    capsys.readouterr()
    code = main(
        [
            "score",
            str(tmp_path / "fig4_sink.cftrace"),
            "--scenario",
            str(golden_scenario_path()),
        ]
    )
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["success"] == 1


def test_suite_and_report_roundtrip(tmp_path, capsys):
    code = main(
        [
            "suite",
            str(stress_suite_dir()),
            "--planners",
            "contextflow",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "SR[handoff]" in table
    assert main(["report", str(tmp_path)]) == 0
    assert "contextflow" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, error",
    [("run", "ParseError"), ("suite", "ManifestError"), ("render", "SchemaMismatch"), ("audit", "SchemaMismatch")],
)
def test_a_non_utf8_input_file_exits_2_with_the_readers_error(command, error, tmp_path, capsys):
    name = {"run": "bad.scn", "suite": "manifest.txt"}.get(command, "bad.cftrace")
    (tmp_path / name).write_bytes(b"\xff\xfe")
    target = tmp_path if command == "suite" else tmp_path / name
    assert main([command, str(target)]) == 2
    assert f"error: {error}: {name} is not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"{", b"", b"\xff\xfe"], ids=["truncated", "empty", "not-utf8"])
def test_report_on_a_malformed_report_file_exits_2_naming_it(content, tmp_path, capsys):
    (tmp_path / "report_contextflow.json").write_bytes(content)
    assert main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SchemaMismatch: report_contextflow.json is not ")
    assert "Traceback" not in err


def test_suite_rejects_unknown_planner(capsys):
    code = main(["suite", str(stress_suite_dir()), "--planners", "psychic"])
    assert code == 2


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import contextflow

    # the child imports the same sources as this process, installed or not
    src = str(Path(contextflow.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "contextflow",
            "run",
            str(golden_scenario_path()),
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert (tmp_path / "fig4_sink.cftrace").exists()
