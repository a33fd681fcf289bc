"""Multi-run experiment driver: aggregation and durable sweeps.

The paper reports each data point as the average of 10 independent runs
(different random sender/receiver attachments, failed link, and timer
jitter).  :func:`run_point` does exactly that for one (protocol, degree)
pair; :func:`run_sweep` covers a whole figure.

Execution model: the whole (protocol x degree x seed) grid is flattened into
one task list and mapped over a ``ProcessPoolExecutor`` (``workers > 1``) or
run in process.  With a :class:`~repro.experiments.store.SweepStore`
attached, every completed seed is appended to the shard log the moment it
finishes, and an interrupted sweep resumes by re-running only missing seeds.
Results are always assembled in canonical grid order, so a resumed sweep is
bit-identical to an uninterrupted one.

A seed that *raises* is captured as a :class:`SweepFailure` on its point
rather than aborting the sweep.  A pool worker that *dies* ends the sweep
with ``BrokenProcessPool``, after the store is flushed, so a rerun on the
store resumes.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from ..metrics.timeseries import BinnedSeries, average_series
from .config import ExperimentConfig
from .scenario import ScenarioResult, run_scenario

__all__ = ["PointResult", "SweepFailure", "run_point", "run_sweep"]

#: One grid cell: (protocol, degree, seed).
Task = tuple[str, int, int]
#: What a completed task produced.
Outcome = Union[ScenarioResult, "SweepFailure"]


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass(frozen=True)
class SweepFailure:
    """One seed that raised instead of producing a ScenarioResult;
    ``error`` is the exception's one-line summary."""

    protocol: str
    degree: int
    seed: int
    error: str

    def __str__(self) -> str:
        return (
            f"{self.protocol} degree={self.degree} seed={self.seed} "
            f"failed: {self.error}"
        )


@dataclass
class PointResult:
    """Aggregated measurements for one (protocol, degree) data point."""

    protocol: str
    degree: int
    runs: list[ScenarioResult] = field(default_factory=list)
    #: Seeds that failed (sweeps keep going; see :class:`SweepFailure`).
    failures: list[SweepFailure] = field(default_factory=list)

    @property
    def n_runs(self) -> int:
        return len(self.runs)

    @property
    def mean_drops_no_route(self) -> float:
        return mean([r.drops_no_route for r in self.runs])

    @property
    def mean_drops_ttl(self) -> float:
        return mean([r.drops_ttl for r in self.runs])

    @property
    def mean_total_drops(self) -> float:
        return mean([r.total_drops for r in self.runs])

    @property
    def mean_delivery_ratio(self) -> float:
        return mean([r.delivery_ratio for r in self.runs])

    @property
    def mean_routing_convergence(self) -> float:
        return mean([r.routing_convergence for r in self.runs])

    @property
    def mean_forwarding_convergence(self) -> float:
        return mean([r.forwarding_convergence for r in self.runs])

    @property
    def mean_messages(self) -> float:
        return mean([float(r.messages) for r in self.runs])

    @property
    def violations(self) -> list[str]:
        """Invariant-monitor findings across all runs (validated runs only;
        see ``ExperimentConfig.validate``), each prefixed with its seed."""
        return [f"seed {r.seed}: {v}" for r in self.runs for v in r.violations]

    def mean_throughput(self) -> BinnedSeries:
        """Run-averaged instantaneous throughput (Figure 5 curves)."""
        return average_series([r.throughput for r in self.runs if r.throughput])

    def mean_delay(self) -> BinnedSeries:
        """Run-averaged instantaneous delay (Figure 7 curves)."""
        return average_series([r.delay for r in self.runs if r.delay])


def _run_task(
    task: Task, config: ExperimentConfig, dump_dir: Optional[str] = None
) -> tuple[Outcome, float]:
    """Run one seed: its result or a SweepFailure, and its wall time (in
    the worker for pool runs, so queue wait is excluded).

    Exceptions are converted to data (not re-raised) so one bad seed cannot
    end the sweep or lose the identity of the seed that raised.
    ``dump_dir`` arms per-seed post-mortem flight dumps (see
    :func:`repro.experiments.scenario.run_scenario`).
    """
    started = time.perf_counter()
    # Test-only pacing hook: slows each seed so the kill-and-resume tests
    # can deterministically interrupt a sweep mid-flight.  Inert when unset.
    pace = os.environ.get("REPRO_TEST_SLEEP_SECONDS")
    if pace:
        time.sleep(float(pace))
    try:
        outcome: Outcome = run_scenario(*task, config, dump_dir=dump_dir)
    except Exception as exc:  # noqa: BLE001 - must survive arbitrary seed crashes
        detail = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        outcome = SweepFailure(*task, error=detail)
    return outcome, time.perf_counter() - started


def _pool_worker_init() -> None:
    """Pool worker setup: Ctrl-C interrupts only the parent, which cancels
    what is queued and flushes the store; and a worker whose parent died
    without shutting the pool down (SIGTERM, SIGKILL) exits instead of
    blocking on the call queue for ever."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()

    def exit_when_orphaned() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(0)

    threading.Thread(target=exit_when_orphaned, daemon=True).start()


# --------------------------------------------------------------------------
# Public drivers
# --------------------------------------------------------------------------


def run_point(
    protocol: str,
    degree: int,
    config: Optional[ExperimentConfig] = None,
    workers: int = 1,
    strict: bool = False,
) -> PointResult:
    """Run ``config.runs`` seeds of one (protocol, degree) experiment.

    One cell of :func:`run_sweep`: ``workers > 1`` fans the seeds out over
    its process pool.  Failed seeds are recorded on
    ``PointResult.failures`` and the remaining seeds still run; pass
    ``strict=True`` to raise ``RuntimeError`` naming the first failed seed
    instead.  The raise comes after every seed has run, serial or not.
    """
    config = (config or ExperimentConfig.quick()).with_(
        protocols=(protocol,), degrees=(degree,)
    )
    point = run_sweep(config, workers=workers)[(protocol, degree)]
    if strict and point.failures:
        first = point.failures[0]
        raise RuntimeError(
            f"run_point({protocol!r}, degree={degree}): seed {first.seed} is the "
            f"first of {len(point.failures)} failed seed(s); {first}"
        )
    return point


def _assemble(
    grid: list[Task],
    outcomes: dict[Task, Outcome],
    config: ExperimentConfig,
) -> dict[tuple[str, int], PointResult]:
    """Fold task outcomes into per-point results, in canonical grid order.

    Completion order is nondeterministic under a pool (and shard order
    reflects it); assembling strictly in grid order makes the aggregate —
    and anything serialized from it — independent of scheduling, which is
    what lets a resumed sweep match an uninterrupted one byte for byte.
    """
    results: dict[tuple[str, int], PointResult] = {
        (protocol, degree): PointResult(protocol=protocol, degree=degree)
        for protocol in config.protocols
        for degree in config.degrees
    }
    for task in grid:
        outcome = outcomes.get(task)
        if outcome is None:
            continue  # interrupted before this task completed
        point = results[(task[0], task[1])]
        if isinstance(outcome, SweepFailure):
            point.failures.append(outcome)
        else:
            point.runs.append(outcome)
    return results


def run_sweep(
    config: Optional[ExperimentConfig] = None,
    workers: int = 1,
    store=None,
    progress: Optional[Callable[[int, int, str], None]] = None,
    telemetry=None,
    dump_dir: Optional[str] = None,
    live_log=None,
) -> dict[tuple[str, int], PointResult]:
    """Full (protocol x degree) sweep; keys are (protocol, degree).

    The entire (protocol x degree x seed) grid is flattened and mapped over
    one process pool (``workers > 1``), so pool startup is paid once per
    sweep and stragglers from one point overlap with the next point's seeds.
    Seeds that raise are recorded on their point's ``failures`` list instead
    of aborting the sweep; results are assembled in deterministic grid order
    either way.

    Durability: pass ``store`` (a :class:`~repro.experiments.store.SweepStore`
    or a directory path) to checkpoint every completed seed as an
    append-only shard record.  Re-running with the same store and config
    resumes the sweep, executing only the missing seeds; the assembled
    result is bit-identical to an uninterrupted run.  On SIGINT, or when a
    pool worker dies (``BrokenProcessPool``), the shard log is flushed and
    the ``sweep end`` record written before the exception propagates, so
    nothing completed is lost.  ``progress(completed, total, message)`` is
    invoked after every task.

    Telemetry: the sweep describes its execution once, as run-log records —
    a ``sweep begin``, one ``seed`` per completed task (with done/total
    progress, wall time and ok flag) and a ``sweep end``.
    Each record goes to ``live_log`` (a path or an open
    :class:`~repro.obs.live.RunEventLog`) if one is given, so ``python -m
    repro watch`` can follow the sweep from another process, and to
    ``telemetry`` (a :class:`repro.obs.sweeps.SweepTelemetry`) if one is
    given, which folds them into per-seed timings and worker utilisation.  The log also carries a ``violation`` record per monitor
    finding.  The simulations themselves are untouched (resumed-sweep
    identity and golden metrics stay byte-identical).

    Post-mortems: ``dump_dir`` names a directory for per-seed flight dumps
    written whenever a validation monitor fires (see
    :func:`repro.experiments.scenario.run_scenario`).  For validated sweeps
    with a store attached it defaults to the store's own directory, so
    dumps land next to the sweep checkpoint they explain;
    ``ScenarioResult.dump_path`` (persisted in the shard log) names each
    file.
    """
    from ..obs.live import open_live_log

    config = config or ExperimentConfig.quick()
    grid = config.grid()
    log, owns_log = open_live_log(
        live_log,
        run="sweep",
        meta={
            "protocols": list(config.protocols),
            "degrees": list(config.degrees),
            "runs": config.runs,
        },
    )
    sweep_started = time.perf_counter()

    if store is not None:
        from .store import SweepStore

        if not isinstance(store, SweepStore):
            store = SweepStore(store)
        store.open(config)
        outcomes: dict[Task, Outcome] = store.load_outcomes()
        todo = [task for task in grid if task not in outcomes]
        if dump_dir is None and config.validate:
            dump_dir = store.directory
    else:
        outcomes = {}
        todo = list(grid)

    def emit(kind: str, **fields) -> None:
        """The one account of a sweep event: a log record, folded as written."""
        record = {"kind": kind, **fields}
        if log is not None:
            log.write(record)
        if telemetry is not None:
            telemetry.fold(record)

    def on_done(task: Task, outcome: Outcome, elapsed_s: float) -> None:
        outcomes[task] = outcome
        if store is not None:
            store.append(outcome)
        ok = not isinstance(outcome, SweepFailure)
        label = f"{task[0]} degree={task[1]} seed={task[2]}"
        if log is not None and ok:
            for finding in outcome.violations:
                log.violation(f"{label}: {finding}")
        emit(
            "seed",
            protocol=task[0],
            degree=task[1],
            seed=task[2],
            ok=ok,
            elapsed_s=elapsed_s,
            done=len(outcomes),
            total=len(grid),
        )
        if progress is not None:
            progress(len(outcomes), len(grid), f"{label}: {'ok' if ok else 'failed'}")

    def finish(**end) -> None:
        if store is not None:
            store.close()
        emit("sweep", phase="end", wall_s=time.perf_counter() - sweep_started)
        if log is not None:
            log.end(**end)
            if owns_log:
                log.close()

    emit(
        "sweep",
        phase="begin",
        total_tasks=len(grid),
        resumed_tasks=len(grid) - len(todo),
        workers=max(1, workers),
    )
    try:
        if workers <= 1:
            for task in todo:
                on_done(task, *_run_task(task, config, dump_dir))
        elif todo:
            from concurrent.futures import ProcessPoolExecutor, as_completed

            pool = ProcessPoolExecutor(
                min(workers, len(todo)), initializer=_pool_worker_init
            )
            try:
                futures = {
                    pool.submit(_run_task, task, config, dump_dir): task
                    for task in todo
                }
                for future in as_completed(futures):
                    on_done(futures[future], *future.result())
            finally:
                pool.shutdown(cancel_futures=True)
    except BaseException as exc:
        # Ctrl-C or a dead pool worker: everything already completed is
        # flushed (and fsynced) before the exception propagates, so the
        # sweep resumes exactly where it stopped.
        interrupted = isinstance(exc, (KeyboardInterrupt, SystemExit))
        finish(ok=False, error="interrupted" if interrupted else repr(exc))
        raise
    finish(ok=True)
    return _assemble(grid, outcomes, config)
