"""Every ``python -m repro`` command shown in the docs parses.

The command lines inside fenced code blocks of ``README.md`` and
``docs/*.md`` are what a reader copies, so each must still parse with
:func:`repro.cli.build_parser`.  ``--protocol`` choices come from the
protocol catalogue, so renaming a row breaks the docs that use the old name
here rather than at the reader's terminal.  Prose mentions in backticks are
not commands and are not checked.
"""

from __future__ import annotations

import glob
import os
import shlex

import pytest

from repro.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = [os.path.join(ROOT, "README.md")] + sorted(
    glob.glob(os.path.join(ROOT, "docs", "*.md"))
)
PREFIX = "python -m repro"


def fenced_commands(path: str) -> list[tuple[int, str]]:
    """(line number, arguments after ``python -m repro``) for every command
    line inside a fenced block, with backslash continuations joined."""
    commands: list[tuple[int, str]] = []
    fenced = False
    pending: tuple[int, str] | None = None
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if stripped.startswith("```"):
                fenced = not fenced
                continue
            if not fenced:
                continue
            if pending is not None:
                start, text = pending
                stripped = text + " " + stripped
                number = start
            if stripped.endswith("\\"):
                pending = (number, stripped[:-1].rstrip())
                continue
            pending = None
            if PREFIX in stripped and not stripped.startswith("#"):
                commands.append((number, stripped.split(PREFIX, 1)[1]))
    return commands


def argv_of(arguments: str) -> list[str]:
    """Shell words up to a comment or a shell operator."""
    lexer = shlex.shlex(arguments, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    argv = []
    for word in lexer:
        if word in ("&&", "||", ";", "|", ">", ">>", "2>", "&"):
            break
        argv.append(word)
    return argv


CASES = [
    pytest.param(arguments, id=f"{os.path.relpath(path, ROOT)}:{number}")
    for path in DOCS
    for number, arguments in fenced_commands(path)
]


def test_the_docs_show_commands():
    assert len(CASES) >= 20


@pytest.mark.parametrize("arguments", CASES)
def test_documented_command_parses(arguments, capsys):
    try:
        build_parser().parse_args(argv_of(arguments))
    except SystemExit as exc:
        error = capsys.readouterr().err
        pytest.fail(f"`{PREFIX}{arguments}` does not parse ({exc.code}): {error}")
