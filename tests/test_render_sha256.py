"""Render gate: the sha256 of `render_trace` output for every shipped trace.

`tests/data/render_sha256.txt` holds one `sha256  scenario/variant` line for
the board table that `contextflow render` prints for each trace in
`tests/data/trace_sha256.txt`, rendered from the parsed text as the CLI does.
A change of trace schema or of how records are decoded must leave every line
unchanged. Rewrite the manifest (`python tests/test_render_sha256.py`) only
together with a change that is meant to alter the rendered board.
"""

from __future__ import annotations

from pathlib import Path

from contextflow.board import parse_trace, render_trace
from test_trace_sha256 import digest_lines, shipped_traces

MANIFEST = Path(__file__).parent / "data" / "render_sha256.txt"


def render_digests() -> list[str]:
    return digest_lines((label, render_trace(parse_trace(text))) for label, text in shipped_traces())


def test_every_shipped_render_matches_the_sha256_manifest():
    expected = MANIFEST.read_text(encoding="utf-8").splitlines()
    assert len(expected) == len(shipped_traces())
    assert render_digests() == expected


if __name__ == "__main__":
    MANIFEST.write_text("\n".join(render_digests()) + "\n", encoding="utf-8")
    print(f"wrote {MANIFEST}")
