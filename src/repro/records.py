"""The one artifact codec: what every on-disk format of this package shares.

Five formats are written and read through here — ``results.json``, the sweep
checkpoint (``manifest.json`` + ``shards.jsonl``), trace JSONL, flight dumps
and run-event logs; ``docs/architecture.md`` ("Artifacts on disk") has the
table.  Each format module keeps its record types and its
semantic checks; the byte-level conventions live only here:

* whole-file JSON is indent-1, written atomically (:func:`write_json`) and
  read back as an object of a known version (:func:`read_json`);
* JSONL is one ``json.dumps`` line per record, flushed as written
  (:class:`JsonlWriter`), and read up to the first torn or incomplete line
  (:func:`read_jsonl`), which ``repair=True`` also truncates away;
* validators collect human-readable problems instead of raising, through
  :func:`check_envelope` and :func:`check_fields` over one set of
  bool-rejecting predicates (JSON ``true`` is not an int);
* a file that is unreadable, torn, not the expected shape or the wrong
  version raises :class:`ArtifactError`, naming the file and the defect.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Union

__all__ = [
    "ArtifactError", "write_json", "read_json",
    "encode_line", "JsonlWriter", "iter_jsonl", "read_jsonl",
    "is_int", "is_num", "check_envelope", "check_fields",
    # (predicate, label) pairs for check_fields specs, and their modifiers
    "INT", "COUNT", "POSITIVE", "NUM", "NUM_GE0", "BOOL", "STR", "TEXT", "OBJECT", "LIST",
    "Check", "ABSENT", "nullable", "optional",
]

PathLike = Union[str, os.PathLike]

#: What parsing hostile bytes can raise: ``JSONDecodeError`` and
#: ``UnicodeDecodeError`` are ``ValueError``s; deep nesting overflows the stack.
_PARSE_ERRORS = (ValueError, RecursionError)


class ArtifactError(ValueError):
    """A file on disk is unreadable, torn, the wrong shape or the wrong version."""


def write_json(obj: Any, path: PathLike, newline: bool = False) -> None:
    """Atomically replace ``path`` with ``obj`` as indent-1 JSON.

    Serialised before any file is touched, then written to ``path + ".tmp"``,
    fsynced and renamed over ``path``: a failure or a kill at any point
    leaves the previous file (or none), never a torn one.  ``newline`` adds
    the trailing newline some of the formats carry.
    """
    text = json.dumps(obj, indent=1) + ("\n" if newline else "")
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        f.write(text)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def read_json(
    path: PathLike, what: str, version_key: Optional[str] = None, version: int = 0
) -> dict:
    """The JSON object in ``path``; ``what`` names the format in errors.

    With ``version_key``, a file of another version than the one this build
    reads gets a one-line error, not a migration.
    """
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
    except OSError as exc:
        raise ArtifactError(f"{what} {path!r} cannot be read ({exc})") from exc
    except _PARSE_ERRORS as exc:
        raise ArtifactError(f"{what} {path!r} is torn or not JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ArtifactError(
            f"{what} {path!r} must hold a JSON object, got {type(obj).__name__}"
        )
    if version_key is not None and not _equals(obj.get(version_key), version):
        raise ArtifactError(
            f"{what} {path!r} is version {obj.get(version_key)!r}; this build "
            f"reads only version {version}"
        )
    return obj


def encode_line(record: Any) -> str:
    """One JSONL line: ``json.dumps`` plus the terminator readers require."""
    return json.dumps(record) + "\n"


class JsonlWriter:
    """Append-only JSONL file: every record is one complete, flushed line.

    A crash loses at most the in-flight record and a concurrent reader never
    sees a torn prefix; :meth:`close` additionally fsyncs.  ``mode`` is
    ``"w"`` for a fresh file or ``"a"`` to continue one.
    """

    def __init__(self, path: PathLike, mode: str = "w") -> None:
        self.path = os.fspath(path)
        self._file = open(self.path, mode, encoding="utf-8")

    @property
    def closed(self) -> bool:
        return self._file is None

    def write(self, record: Any) -> None:
        if self._file is None:
            raise ValueError(f"{self.path!r} is closed")
        self._file.write(encode_line(record))
        self._file.flush()

    def close(self) -> None:
        """Flush, fsync and close (safe to call repeatedly)."""
        if self._file is not None:
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._file = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def iter_jsonl(lines: Iterable[Union[str, bytes]]) -> Iterator[tuple[int, Any]]:
    """Yield ``(end, value)`` per record, ``end`` being the offset past its line.

    Stops, without raising, at the first line that lacks its terminator (the
    writer is mid-append) or is not valid JSON (a kill tore it): everything
    before that point is what was durably recorded.  Blank lines are skipped.
    """
    end = 0
    for line in lines:
        if line[-1:] not in ("\n", b"\n"):
            return
        end += len(line)
        if not line.strip():
            continue
        try:
            value = json.loads(line)
        except _PARSE_ERRORS:
            return
        yield end, value


def read_jsonl(path: PathLike, repair: bool = False) -> list:
    """Every complete record of a JSONL file; a missing file has none.

    ``repair=True`` also truncates the file back to its last complete record
    so the next append does not land behind garbage.
    """
    values, valid_end = [], 0
    try:
        with open(path, "rb") as f:
            for valid_end, value in iter_jsonl(f):
                values.append(value)
    except FileNotFoundError:
        return values
    if repair and valid_end < os.path.getsize(path):
        with open(path, "r+b") as f:
            f.truncate(valid_end)
    return values


def is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_num(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: ``(predicate, label)`` pairs for :func:`check_fields` specs.
Check = tuple[Callable[[Any], bool], str]
INT: Check = (is_int, "an int")
COUNT: Check = (lambda v: is_int(v) and v >= 0, "an int >= 0")
POSITIVE: Check = (lambda v: is_int(v) and v >= 1, "an int >= 1")
NUM: Check = (is_num, "a number")
NUM_GE0: Check = (lambda v: is_num(v) and v >= 0, "a number >= 0")
BOOL: Check = (lambda v: isinstance(v, bool), "a bool")
STR: Check = (lambda v: isinstance(v, str), "a string")
TEXT: Check = (lambda v: isinstance(v, str) and v != "", "a non-empty string")
OBJECT: Check = (lambda v: isinstance(v, dict), "an object")
LIST: Check = (lambda v: isinstance(v, list), "a list")

#: What :func:`check_fields` hands a predicate for a field that is missing.
ABSENT = object()


def nullable(check: Check) -> Check:
    """``check``, or an explicit JSON ``null``."""
    predicate, label = check
    return (lambda v: v is None or predicate(v), f"{label} or null")


def optional(check: Check) -> Check:
    """``check``, or no such field at all (an explicit ``null`` does not pass)."""
    predicate, label = check
    return (lambda v: v is ABSENT or predicate(v), f"{label} if present")


def _equals(found: object, expected: object) -> bool:
    """Equal and of the same type: ``true`` and ``1.0`` are not version 1."""
    return type(found) is type(expected) and found == expected


def check_envelope(
    obj: Mapping, expected: Mapping[str, Any], where: str, problems: list[str]
) -> None:
    """The version/kind keys of ``obj`` must hold exactly ``expected``."""
    for key, value in expected.items():
        if not _equals(obj.get(key), value):
            problems.append(f"{where}{key} must be {value!r}, got {obj.get(key)!r}")


def check_fields(
    obj: object, spec: Mapping[str, Check], where: str, problems: list[str]
) -> bool:
    """Check that ``obj`` is an object whose fields pass ``{field: (predicate, label)}``.

    Appends one problem per failing field and returns whether all passed.
    """
    if not isinstance(obj, dict):
        problems.append(f"{where}: must be an object, got {type(obj).__name__}")
        return False
    ok = True
    for name, (predicate, label) in spec.items():
        value = obj.get(name, ABSENT)
        if not predicate(value):
            got = "nothing" if value is ABSENT else repr(value)
            problems.append(f"{where}: {name!r} must be {label}, got {got}")
            ok = False
    return ok
