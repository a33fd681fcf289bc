"""Result persistence: save/load experiment outcomes as JSON.

Paper-scale sweeps take minutes; this module lets the harness checkpoint
results (`save_points`) and reload them for later analysis or plotting
(`load_points`) without re-simulating.  The format is plain JSON — stable,
diff-able, and readable outside Python.

One format, v3: each run records its measurements, the throughput/delay
series, loop and reordering reports, monitor findings and skips, its
``initial_path`` and an ``events`` list (kind, link, event and detection
times, and the attributed reconvergence wave); each point also records its
:class:`SweepFailure` entries.  A save→load→save round trip is
byte-identical.  Files written by the single-failure formats v1/v2 are
refused with an error naming the version found — re-run the sweep.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Mapping

from ..metrics.loops import LoopReport
from ..metrics.reordering import ReorderingReport
from ..metrics.timeseries import BinnedSeries
from ..records import BOOL, COUNT, INT, NUM, STR, TEXT, Check, nullable
from ..records import ArtifactError, read_json, write_json
from .runner import PointResult, SweepFailure
from .scenario import ScenarioResult, TopologyEventOutcome

__all__ = [
    "scenario_to_dict",
    "scenario_from_dict",
    "diff_runs",
    "failure_to_dict",
    "failure_from_dict",
    "save_points",
    "load_points",
]

#: The one version :func:`save_points` / the sweep shard store write and
#: :func:`load_points` reads.
FORMAT_VERSION = 3


def _same(value: Any) -> Any:
    return value


def _maybe(convert: Callable) -> Callable:
    """``convert`` for a present value; ``None`` (JSON ``null``) stays ``None``."""
    return lambda value: None if value is None else convert(value)


def _each(convert: Callable, into: Callable = list) -> Callable:
    return lambda values: into(convert(v) for v in values)


def _checked(check: Check) -> Callable:
    """The value itself, once it passes ``check`` (a ``(predicate, label)``)."""
    predicate, label = check

    def from_json(value: Any) -> Any:
        if not predicate(value):
            raise ValueError(f"must be {label}, got {value!r}")
        return value

    return from_json


#: In the ``absent`` slot of a field: the key may not be missing.
_REQUIRED = object()


class _Record:
    """One persisted record type: its class and its field list, written once.

    Fields come in file order.  ``(names, check)`` declares fields stored as
    they are (space-separated names, as for ``namedtuple``) and checked on
    load; ``(name, to_json, from_json)`` one that is converted.  Every key
    is required unless a fourth element gives the JSON value a missing one
    reads as.
    """

    def __init__(self, cls: type, *fields: tuple) -> None:
        self.cls = cls
        self.fields: list[tuple] = []
        for field in fields:
            if len(field) == 2:
                names, check = field
                self.fields += [
                    (name, _same, _checked(check), _REQUIRED) for name in names.split()
                ]
            else:
                self.fields.append((*field, _REQUIRED)[:4])

    def to_dict(self, obj: Any) -> dict:
        return {name: to_json(getattr(obj, name)) for name, to_json, _, _ in self.fields}

    def from_dict(self, data: Any) -> Any:
        """Rebuild the record; a wrong shape is an :class:`ArtifactError`."""
        what = self.cls.__name__
        if not isinstance(data, dict):
            raise ArtifactError(f"{what} must be a JSON object, got {data!r}")
        kwargs = {}
        for name, _, from_json, absent in self.fields:
            value = data.get(name, absent)
            if value is _REQUIRED:
                raise ArtifactError(f"{what} lacks {name!r}")
            try:
                kwargs[name] = from_json(value)
            except (TypeError, ValueError, AttributeError) as exc:
                raise ArtifactError(f"{what}.{name}: {exc}") from exc
        return self.cls(**kwargs)


_INTS = _each(_checked(INT), tuple)
_NUMS = _each(_checked(NUM), tuple)
_EVENT = _Record(
    TopologyEventOutcome,
    ("kind", TEXT),
    ("link", list, _INTS),
    ("time detect_time", NUM),
    ("wave_start wave_end", nullable(NUM)),
)
_SERIES = _Record(BinnedSeries, ("times", list, _NUMS), ("values", list, _NUMS))
_REORDERING = _Record(
    ReorderingReport, ("delivered late_packets max_displacement episodes", COUNT)
)
_LOOPS = _Record(
    LoopReport,
    ("delivered escaped_loop", COUNT),
    ("loop_cycles", _each(list), _each(_INTS, tuple)),
    ("max_extra_hops", INT),
)
_FAILURE = _Record(SweepFailure, ("protocol", TEXT), ("degree seed", INT), ("error", STR))
#: ``ScenarioResult.manet`` is deliberately absent: it is not persisted.
_SCENARIO = _Record(
    ScenarioResult,
    ("protocol", TEXT),
    ("degree seed sender receiver", INT),
    ("initial_path", list, _INTS),
    ("events", _each(_EVENT.to_dict), _each(_EVENT.from_dict, tuple)),
    ("expected_final_path", _maybe(list), _maybe(_INTS)),
    ("sent delivered drops_no_route drops_ttl drops_link_down drops_queue", COUNT),
    ("routing_convergence destination_convergence forwarding_convergence", NUM),
    ("converged_to_expected", BOOL),
    ("transient_path_count messages withdrawals", COUNT),
    ("violations", list, _each(_checked(STR), tuple)),
    ("monitor_skips", dict, lambda skips: {k: _checked(STR)(v) for k, v in skips.items()}),
    # The one key older v3 files may lack.
    ("dump_path", _same, _checked(nullable(STR)), None),
    ("throughput", _maybe(_SERIES.to_dict), _maybe(_SERIES.from_dict)),
    ("delay", _maybe(_SERIES.to_dict), _maybe(_SERIES.from_dict)),
    ("reordering", _maybe(_REORDERING.to_dict), _maybe(_REORDERING.from_dict)),
    ("loop_report", _maybe(_LOOPS.to_dict), _maybe(_LOOPS.from_dict)),
)
_POINT = _Record(
    PointResult,
    ("protocol", TEXT),
    ("degree", INT),
    ("runs", _each(_SCENARIO.to_dict), _each(_SCENARIO.from_dict)),
    ("failures", _each(_FAILURE.to_dict), _each(_FAILURE.from_dict)),
)


def scenario_to_dict(result: ScenarioResult) -> dict:
    """JSON-ready representation of one run's measurements (format v3)."""
    return _SCENARIO.to_dict(result)


def scenario_from_dict(data: Mapping[str, Any]) -> ScenarioResult:
    """Inverse of :func:`scenario_to_dict`.

    Present-but-empty collections are restored as empty, not collapsed to
    ``None``: only a JSON ``null`` (or a missing field) maps to ``None``.
    """
    return _SCENARIO.from_dict(data)


def diff_runs(
    a: ScenarioResult, b: ScenarioResult, *, ignore: Collection[str] = ()
) -> list[str]:
    """Every way ``a`` and ``b`` differ as runs; empty means the same run.

    Compares every :func:`scenario_to_dict` field not in ``ignore``, then
    ``manet`` when both results carry one (it is not persisted, so a
    parsed result has none).  A scalar field is named ``"name (a vs b)"``;
    a list or dict field also names where it first differs, as in
    ``"events: [0].wave_end (10.05 vs 11.05)"`` or ``"delay: values
    (list of 40 vs list of 41)"``.  Two recordings of the runs are compared by
    :func:`~repro.dist.merge.diff_recordings`.
    """
    problems: list[str] = []
    b_fields = scenario_to_dict(b)
    for name, value in scenario_to_dict(a).items():
        other = b_fields[name]
        if name not in ignore and value != other:
            whole = isinstance(value, (list, dict)) or isinstance(other, (list, dict))
            where = _first_difference(value, other)
            problems.append(f"{name}: {where}" if whole else f"{name} {where}")
    if a.manet is not None and b.manet is not None and a.manet != b.manet:
        problems.append("manet")
    return problems


def _first_difference(a: Any, b: Any, path: str = "") -> str:
    """Where two unequal JSON values first differ, and how."""
    if isinstance(a, dict) and isinstance(b, dict):
        key = next(key for key in {**a, **b} if a.get(key) != b.get(key))
        return _first_difference(a.get(key), b.get(key), f"{path}.{key}" if path else key)
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
        return _first_difference(a[i], b[i], f"{path}[{i}]")
    shown = [
        f"{type(v).__name__} of {len(v)}" if isinstance(v, (list, dict)) else repr(v)
        for v in (a, b)
    ]
    return f"{path} ({shown[0]} vs {shown[1]})".lstrip()


def failure_to_dict(failure: SweepFailure) -> dict:
    """JSON-ready representation of one :class:`SweepFailure`."""
    return _FAILURE.to_dict(failure)


def failure_from_dict(data: Mapping[str, Any]) -> SweepFailure:
    """Inverse of :func:`failure_to_dict`."""
    return _FAILURE.from_dict(data)


def save_points(points: Mapping[tuple[str, int], PointResult], path: str) -> None:
    """Write a sweep (as from ``run_sweep``) to ``path`` as JSON (v3)."""
    payload = {
        "format_version": FORMAT_VERSION,
        "points": [_POINT.to_dict(point) for _, point in sorted(points.items())],
    }
    write_json(payload, path)


def load_points(path: str) -> dict[tuple[str, int], PointResult]:
    """Read a sweep previously written by :func:`save_points`."""
    payload = read_json(path, "results file", "format_version", FORMAT_VERSION)
    entries = payload.get("points")
    if not isinstance(entries, list):
        raise ArtifactError(f"results file {path!r} lacks a 'points' list")
    try:
        points = [_POINT.from_dict(entry) for entry in entries]
    except ArtifactError as exc:
        raise ArtifactError(f"results file {path!r}: {exc}") from exc
    return {(point.protocol, point.degree): point for point in points}
