"""Sweep telemetry: per-seed runtime and worker utilisation.

A paper-scale sweep runs hundreds of (protocol, degree, seed) tasks over a
process pool; knowing which seeds are slow and how busy the workers were is
the difference between "the sweep is slow" and "bgp at degree 8 is the
straggler".

:func:`repro.experiments.runner.run_sweep` describes its execution once, as
run-log records: a ``sweep begin``, one ``seed`` per completed task and a
``sweep end`` (see :mod:`repro.obs.live`).  :class:`SweepTelemetry` is the
one fold over those records: ``run_sweep(telemetry=...)`` hands it each
record as it is emitted, and :func:`repro.obs.live.summarize_log` folds a
log file into one, so the in-process account and the watch view of a log
are the same object.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

from ..records import is_num

__all__ = ["SeedTiming", "SweepTelemetry"]


@dataclass(frozen=True)
class SeedTiming:
    """One ``seed`` record: the wall-clock account of a completed task."""

    protocol: str
    degree: int
    seed: int
    #: Seconds of simulation work (in-worker for pool runs, so queue wait is
    #: excluded; None if a log record lacks it).
    elapsed_s: Optional[float]
    ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


class SweepTelemetry:
    """One sweep's execution account, folded from its run-log records.

    :meth:`fold` is tolerant the way the watch view must be: it accepts any
    prefix of a log and skips what it cannot read, so a partial or corrupt
    log still renders (``check_log`` is what reports the corruption).
    """

    def __init__(self) -> None:
        self.workers = 1
        self.total_tasks = 0
        self.resumed_tasks = 0
        #: Tasks with an outcome, resumed ones included (the latest ``done``).
        self.done = 0
        self.seeds: list[SeedTiming] = []
        #: None until the ``sweep end`` record.
        self.wall_s: Optional[float] = None

    def fold(self, record: dict) -> None:
        """Account for one ``sweep`` or ``seed`` record; others are ignored."""
        kind = record.get("kind")
        if kind == "seed":
            self.total_tasks = record.get("total", self.total_tasks)
            self.done = record.get("done", self.done)
            self.seeds.append(
                SeedTiming(
                    protocol=record.get("protocol"),
                    degree=record.get("degree"),
                    seed=record.get("seed"),
                    elapsed_s=record.get("elapsed_s"),
                    ok=record.get("ok"),
                )
            )
        elif kind == "sweep" and record.get("phase") == "begin":
            self.total_tasks = record.get("total_tasks", self.total_tasks)
            self.resumed_tasks = record.get("resumed_tasks", self.resumed_tasks)
            self.workers = record.get("workers", self.workers)
        elif kind == "sweep" and is_num(record.get("wall_s")):
            self.wall_s = record["wall_s"]

    # ------------------------------------------------------------- aggregates

    @property
    def failed(self) -> int:
        return sum(1 for t in self.seeds if t.ok is False)

    @property
    def last_label(self) -> Optional[str]:
        """The latest task as one line, or None before the first seed."""
        if not self.seeds:
            return None
        t = self.seeds[-1]
        status = "ok" if t.ok else "FAILED"
        return f"{t.protocol} degree={t.degree} seed={t.seed}: {status}"

    @property
    def n_retries(self) -> int:
        """Always 0: a sweep retries no seed.  Kept only because the repo
        benchmark (``benchmarks/e2e/workloads.py``) reads it; it goes with
        that readout."""
        return 0

    @property
    def n_timeouts(self) -> int:
        """Always 0: a sweep times no seed out.  Kept only because the repo
        benchmark (``benchmarks/e2e/workloads.py``) reads it; it goes with
        that readout."""
        return 0

    @property
    def busy_s(self) -> float:
        """Total seconds workers spent simulating (measured seeds only)."""
        return sum(t.elapsed_s for t in self.seeds if is_num(t.elapsed_s))

    @property
    def utilization(self) -> float:
        """Fraction of the worker-seconds budget spent simulating.

        1.0 means every worker simulated the whole sweep; low values point
        at stragglers, dispatch overhead, or an oversized pool.
        """
        budget = self.workers * (self.wall_s or 0.0)
        return min(1.0, self.busy_s / budget) if budget > 0 else 0.0

    @property
    def slowest(self) -> Optional[SeedTiming]:
        timed = [t for t in self.seeds if is_num(t.elapsed_s)]
        return max(timed, key=lambda t: t.elapsed_s) if timed else None

    def to_dict(self) -> dict:
        """JSON-ready summary plus the per-seed timing list."""
        slowest = self.slowest
        return {
            "workers": self.workers,
            "total_tasks": self.total_tasks,
            "resumed_tasks": self.resumed_tasks,
            "completed_tasks": len(self.seeds),
            "wall_s": self.wall_s,
            "busy_s": self.busy_s,
            "utilization": self.utilization,
            "slowest": slowest.to_dict() if slowest else None,
            "seeds": [t.to_dict() for t in self.seeds],
        }
