"""Typed runtime metrics: counters, gauges, histograms, and their registry.

The paper's evaluation attributes packet loss to *phases* of convergence;
doing the same for the simulator's own runtime needs typed metrics the
subsystems can publish into.  A :class:`MetricsRegistry` owns a flat
namespace of :class:`Counter` / :class:`Gauge` / :class:`Histogram`
instruments, created lazily by name.

Cost model (mirrors the ``TraceBus.wants_*`` contract): nothing in the hot
path ever consults a registry.  Producers keep bumping their always-on plain
integers (``TraceCounters``, ``EventStats``, queue counters); the obs layer
*subscribes* collectors to the trace bus only for an observed run, and
harvests the integer counters once per run.  An unobserved run has no
registry at all, which the overhead-guard tests in ``tests/obs`` pin.

:func:`check_metrics` validates a snapshot's internal consistency (histogram
bucket monotonicity, bucket-sum/count agreement, non-negative counters) —
``self_check`` on a live registry, ``check_log`` on the ``profile`` record of
a run-event log — so corruption is detected rather than silently published;
the mutation tests corrupt one invariant at a time and assert the check
names it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Optional, Union

from ..records import INT, LIST, NUM, check_fields, is_int, is_num

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "check_metrics"]

#: Default histogram boundaries for queue-depth style distributions.
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0)


class Counter:
    """Monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """Last-value metric that also tracks its high-water mark."""

    __slots__ = ("name", "value", "hwm")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0
        self.hwm: float = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.hwm:
            self.hwm = value

    def as_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value, "hwm": self.hwm}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self.value}, hwm={self.hwm})"


class Histogram:
    """Cumulative-free bucketed distribution.

    ``bounds`` are the strictly increasing upper edges of the finite
    buckets; ``counts`` has ``len(bounds) + 1`` entries, the last being the
    overflow bucket (observations above every bound).  ``observe`` is
    O(log buckets) via bisect.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total")

    kind = "histogram"

    def __init__(self, name: str, bounds: Iterable[float] = DEFAULT_BUCKETS) -> None:
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ValueError(f"histogram {self.name!r} needs at least one bound")
        if any(b >= c for b, c in zip(self.bounds, self.bounds[1:])):
            raise ValueError(
                f"histogram {self.name!r} bounds must be strictly increasing: "
                f"{self.bounds}"
            )
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.4g})"


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Flat namespace of typed metrics, created lazily by name.

    ``counter``/``gauge``/``histogram`` are create-or-get: asking twice for
    the same name returns the same instrument, and asking for an existing
    name with a different type is an error (one name, one meaning).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    # ------------------------------------------------------------ instruments

    def _get(self, name: str, cls, *args) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
            return metric
        if type(metric) is not cls:
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(
        self, name: str, bounds: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(name, Histogram, bounds)

    def get(self, name: str) -> Optional[Metric]:
        """The instrument registered under ``name``, or None."""
        return self._metrics.get(name)

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        for name in sorted(self._metrics):
            yield self._metrics[name]

    # -------------------------------------------------------------- snapshots

    def snapshot(self) -> dict[str, dict]:
        """JSON-ready view of every metric, sorted by name."""
        return {name: self._metrics[name].as_dict() for name in sorted(self._metrics)}

    def self_check(self) -> list[str]:
        """Internal-consistency audit of :meth:`snapshot`; see :func:`check_metrics`."""
        return check_metrics(self.snapshot())


#: The fields of each metric kind's snapshot (``as_dict``), ``kind`` aside.
_METRIC_SPECS = {
    "counter": {"value": INT},
    "gauge": {"value": NUM, "hwm": NUM},
    "histogram": {"bounds": LIST, "counts": LIST, "count": INT, "total": NUM},
}
_KIND = (tuple(_METRIC_SPECS).__contains__, "one of counter|gauge|histogram")


def check_metrics(snapshot: dict, path: str = "metrics") -> list[str]:
    """Validate a metric snapshot; returns human-readable problems (empty = ok).

    The one statement of a snapshot's invariants, for a live registry
    (:meth:`MetricsRegistry.self_check`) and for the ``profile`` record of a
    run-event log alike: counters are ints >= 0, a gauge's high-water mark
    is not below its value, and a histogram's bounds strictly increase, its
    ``len(bounds) + 1`` bucket counts are ints >= 0 and sum to ``count``.
    JSON ``true`` is not a number here either.
    """
    problems: list[str] = []
    for name, metric in snapshot.items():
        where = f"{path}[{name!r}]"
        if not check_fields(metric, {"kind": _KIND}, where, problems):
            continue
        kind = metric["kind"]
        if not check_fields(metric, _METRIC_SPECS[kind], where, problems):
            continue
        if kind == "counter" and metric["value"] < 0:
            problems.append(f"{where}: counter is negative: {metric['value']}")
        elif kind == "gauge" and metric["hwm"] < metric["value"]:
            problems.append(
                f"{where}: gauge high-water mark (hwm) {metric['hwm']} is "
                f"below its value {metric['value']}"
            )
        elif kind == "histogram":
            _check_histogram(metric, where, problems)
    return problems


def _check_histogram(metric: dict, where: str, problems: list[str]) -> None:
    bounds, counts = metric["bounds"], metric["counts"]
    if not bounds or not all(is_num(b) for b in bounds):
        problems.append(f"{where}: histogram bounds must be a non-empty list of numbers")
        return
    if any(b >= c for b, c in zip(bounds, bounds[1:])):
        problems.append(f"{where}: histogram bounds are not strictly increasing: {bounds}")
    if len(counts) != len(bounds) + 1:
        problems.append(
            f"{where}: histogram has {len(counts)} buckets for {len(bounds)} "
            f"bounds (want {len(bounds) + 1})"
        )
    elif not all(is_int(c) for c in counts):
        problems.append(f"{where}: histogram bucket counts must be ints, got {counts}")
    elif any(c < 0 for c in counts):
        problems.append(f"{where}: histogram has a negative bucket count: {counts}")
    elif sum(counts) != metric["count"]:
        problems.append(
            f"{where}: histogram bucket counts sum to {sum(counts)} but "
            f"'count' says {metric['count']}"
        )
