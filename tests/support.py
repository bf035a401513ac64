"""Shared helpers: fixture paths, golden files, and in-process CLI runs."""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from earlkit.cli import main

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(args: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit_code, stdout, stderr).

    stdout has a byte layer, as a real one does: the commands that write a
    document write its UTF-8 bytes there."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")
