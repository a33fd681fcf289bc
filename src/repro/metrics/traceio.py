"""Trace export/import: JSONL files for external analysis.

The paper's methodology revolves around routing/forwarding trace files; this
module writes a run's typed records (a
:class:`~repro.obs.flight.FlightRecorder`'s streams) as JSON Lines (one
record per line, ``type`` field first) so they can be grepped, loaded into
pandas, or diffed across runs — and reads them back into the same record
types.
"""

from __future__ import annotations

import warnings
from typing import IO, Callable, Iterable, Iterator, Optional, Union

from ..records import encode_line, iter_jsonl
from ..sim.tracing import (
    _KIND_OF_TYPE,
    DropCause,
    LinkEventRecord,
    MessageRecord,
    PacketRecord,
    RouteChangeRecord,
)

__all__ = ["write_trace", "read_trace"]

Record = Union[PacketRecord, RouteChangeRecord, LinkEventRecord, MessageRecord]

#: ``type`` value -> record class.  The records are NamedTuples whose field
#: order is the JSON key order, so the field lists live only on the classes.
_TYPES = {kind: cls for cls, kind in _KIND_OF_TYPE.items()}


def _encode(record: Record) -> dict:
    kind = _KIND_OF_TYPE.get(type(record))
    if kind is None:
        raise TypeError(f"unknown record type {type(record).__name__}")
    data = {"type": kind, **record._asdict()}
    if kind == "packet":
        data["cause"] = record.cause.value if record.cause else None
    elif kind == "route":
        data["cause"] = list(record.cause) if record.cause is not None else None
    return data


def _decode(data: object) -> Record:
    """Inverse of :func:`_encode`; anything that is not one is a ``ValueError``.

    Keys the class does not know (a newer writer's) are ignored and keys
    with a default may be absent (an older writer's).
    """
    kind = data.get("type") if isinstance(data, dict) else None
    cls = _TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown trace record type {kind!r}")
    fields = {name: data[name] for name in cls._fields if name in data}
    try:
        cause = fields.get("cause")
        if kind == "packet":
            fields["cause"] = DropCause(cause) if cause else None
        elif kind == "route" and cause is not None:
            fields["cause"] = (cause[0], cause[1])
        return cls(**fields)
    except (TypeError, LookupError) as exc:
        raise ValueError(f"malformed {kind!r} trace record: {exc}") from exc


def write_trace(records: Iterable[Record], fp: IO[str]) -> int:
    """Write records as JSONL; returns the count written."""
    count = 0
    for record in records:
        fp.write(encode_line(_encode(record)))
        count += 1
    return count


def read_trace(
    fp: IO[str],
    strict: bool = True,
    on_skip: Optional[Callable[[dict], None]] = None,
) -> Iterator[Record]:
    """Yield records from a JSONL trace file, up to a torn tail if it has one.

    With ``strict=False``, records that do not decode — an unknown ``type``
    written by a newer writer of this format, or a known one missing a
    field — are skipped with one :mod:`warnings` warning each instead of
    raising ``ValueError``, mirroring the sweep store's telemetry-record skip.
    ``on_skip``, if given, is called with each skipped record's raw value
    (so callers can count or log them) in place of the warning.
    """
    for _, data in iter_jsonl(fp):
        try:
            yield _decode(data)
        except ValueError as exc:
            if strict:
                raise
            if on_skip is not None:
                on_skip(data)
            else:
                warnings.warn(f"skipping trace record: {exc}", stacklevel=2)

