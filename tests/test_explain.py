"""`contextflow explain`: the golden output for every record of one stress
trace, and the exit code for a record the trace does not have.

`tests/data/explain_execctx_04.txt` holds what `contextflow explain` prints
for each record of the `execctx_04/contextflow` trace, in record order. The
trace reads four cases and every kind of update but repair. A record no
longer writes its case, so this file and `tests/data/render_sha256.txt` are
where a change of classification shows. Rewrite it (`python
tests/test_explain.py`) only together with a change that is meant to alter
a case, an update or a plan diff.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from contextflow.board import explain_record, parse_trace
from contextflow.cli import main
from contextflow.errors import NoSuchRecord
from test_trace_sha256 import shipped_traces

GOLDEN = Path(__file__).parent / "data" / "explain_execctx_04.txt"
LABEL = "execctx_04/contextflow"


def trace_text() -> str:
    return dict(shipped_traces())[LABEL]


def explained() -> str:
    trace = parse_trace(trace_text())
    return "".join(explain_record(trace, index) for index in range(len(trace.records)))


def test_explain_prints_the_golden_output_for_every_record(tmp_path, capsys):
    path = tmp_path / "execctx_04.cftrace"
    path.write_text(trace_text(), encoding="utf-8")
    out = []
    for index in range(len(parse_trace(trace_text()).records)):
        assert main(["explain", str(path), str(index)]) == 0
        out.append(capsys.readouterr().out)
    assert "".join(out) == GOLDEN.read_text(encoding="utf-8")
    assert "case: unsupported-handoff" in out[4] and "case: stage-lock" in out[-1]


@pytest.mark.parametrize("index", [-1, 8, 99])
def test_explain_of_a_record_the_trace_lacks_exits_2(index, tmp_path, capsys):
    path = tmp_path / "execctx_04.cftrace"
    path.write_text(trace_text(), encoding="utf-8")
    with pytest.raises(NoSuchRecord, match="the trace has 8 records"):
        explain_record(parse_trace(trace_text()), index)
    assert main(["explain", str(path), str(index)]) == 2
    assert "error: NoSuchRecord" in capsys.readouterr().err


if __name__ == "__main__":
    GOLDEN.write_text(explained(), encoding="utf-8")
    print(f"wrote {GOLDEN}")
