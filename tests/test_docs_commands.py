"""Every ``python -m repro`` command shown in the docs parses, every
repository path the docs name exists, and every ``repro.`` name resolves.

The command lines inside fenced code blocks of ``README.md`` and
``docs/*.md`` are what a reader copies, so each must still parse with
:func:`repro.cli.build_parser`.  ``--protocol`` choices come from the
protocol catalogue, so renaming a row breaks the docs that use the old name
here rather than at the reader's terminal.  Prose mentions in backticks are
not commands and are not checked as commands.

The paths are those a reader would open: each inline code span of
``README.md``, ``DESIGN.md`` and ``docs/*.md`` that starts with a top-level
source directory (``src/``, ``tests/``, ``benchmarks/``, ...), with brace
alternatives expanded and globs matched, and each relative link target.
The names are the inline code spans of the same documents that are a
dotted ``repro.…`` name: each must import, or import up to a module and
then resolve attribute by attribute, so a deleted name cannot survive in
prose.
"""

from __future__ import annotations

import glob
import importlib
import os
import re
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


#: Width of a command's param id before any ``#n`` suffix: the whole test
#: name then fits in 100 characters, so a one-line test report shows it.
ID_WIDTH = 40


def _cases() -> list:
    """One param per documented command, keyed by file and command words
    joined by ``_`` (not by line number, so editing the prose around a
    command keeps its id), cut to ``ID_WIDTH``; a repeated key gets a
    ``#2``, ``#3``, ... suffix."""
    cases, seen = [], {}
    for path in DOCS:
        for _, arguments in fenced_commands(path):
            words = "_".join(argv_of(arguments))
            key = f"{os.path.relpath(path, ROOT)}:{words}"[:ID_WIDTH]
            seen[key] = seen.get(key, 0) + 1
            suffix = f"#{seen[key]}" if seen[key] > 1 else ""
            cases.append(pytest.param(arguments, id=key + suffix))
    return cases


CASES = _cases()


def test_the_docs_show_commands():
    assert len(CASES) >= 20


@pytest.mark.parametrize("arguments", CASES)
def test_documented_command_parses(arguments, capsys):
    try:
        build_parser().parse_args(argv_of(arguments))
    except SystemExit as exc:
        error = capsys.readouterr().err
        pytest.fail(f"`{PREFIX}{arguments}` does not parse ({exc.code}): {error}")


PATH_DOCS = [os.path.join(ROOT, "DESIGN.md")] + DOCS
_FENCE = re.compile(r"```.*?```", re.S)
_CODE = re.compile(r"`([^`\n]+)`")
_LINK = re.compile(r"\]\(([^)\s#]+)")
_PATH = re.compile(
    r"(?<![\w./-])((?:src|tests|benchmarks|docs|examples|scripts)/[\w./{},*-]*[\w}*])"
)


def _alternatives(path: str) -> list[str]:
    """``a/test_{x,y}.py`` -> ``a/test_x.py``, ``a/test_y.py``."""
    brace = re.search(r"\{([^{}]*)\}", path)
    if brace is None:
        return [path]
    return [
        expanded
        for alternative in brace.group(1).split(",")
        for expanded in _alternatives(
            path[: brace.start()] + alternative + path[brace.end() :]
        )
    ]


def named_paths(path: str) -> set[str]:
    """Repository paths, relative to the root, that the document names."""
    with open(path, encoding="utf-8") as handle:
        text = _FENCE.sub("", handle.read())
    names = set()
    for span in _CODE.findall(text):
        for match in _PATH.findall(span):
            names.update(_alternatives(match))
    for target in _LINK.findall(text):
        if "://" not in target:
            where = os.path.join(os.path.dirname(path), target)
            names.add(os.path.relpath(os.path.normpath(where), ROOT))
    return names


def test_every_path_the_docs_name_exists():
    named = {
        (os.path.relpath(doc, ROOT), name)
        for doc in PATH_DOCS
        for name in named_paths(doc)
    }
    assert len({name for _, name in named}) >= 70  # the extractor still sees them
    missing = sorted(
        f"{doc}: {name}"
        for doc, name in named
        if not glob.glob(os.path.join(ROOT, name))
    )
    assert not missing, "docs name paths that do not exist:\n" + "\n".join(missing)


_DOTTED = re.compile(r"repro(?:\.\w+)+")


def dotted_names(path: str) -> set[str]:
    """The inline code spans of ``path`` that are a dotted ``repro`` name."""
    with open(path, encoding="utf-8") as handle:
        text = _FENCE.sub("", handle.read())
    return {span for span in _CODE.findall(text) if _DOTTED.fullmatch(span)}


def resolves(name: str) -> bool:
    """Whether the longest importable prefix of ``name`` has the rest of it
    as a chain of attributes."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def test_every_repro_name_the_docs_use_resolves():
    named = {
        (os.path.relpath(doc, ROOT), name)
        for doc in PATH_DOCS
        for name in dotted_names(doc)
    }
    assert len({name for _, name in named}) >= 50  # the extractor still sees them
    missing = sorted(f"{doc}: {name}" for doc, name in named if not resolves(name))
    assert not missing, "docs name what does not resolve:\n" + "\n".join(missing)
