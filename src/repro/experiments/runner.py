"""Multi-run experiment driver: aggregation, fault tolerance, durability.

The paper reports each data point as the average of 10 independent runs
(different random sender/receiver attachments, failed link, and timer
jitter).  :func:`run_point` does exactly that for one (protocol, degree)
pair; :func:`run_sweep` covers a whole figure.

Execution model: the whole (protocol x degree x seed) grid is flattened into
one task list and dispatched to a supervised pool of long-lived worker
processes.  The supervisor (not a bare ``ProcessPoolExecutor``) owns three
fault-tolerance guarantees paper-scale sweeps need:

* **Per-seed wall-clock timeout** — a hung seed is terminated with its
  worker, recorded as a :class:`SweepFailure`, and the pool keeps going.
* **Bounded retry of transient worker deaths** — a worker that dies mid-task
  (OOM kill, segfault, the ``BrokenProcessPool`` family) is respawned and
  the task retried with backoff up to ``retries`` times before a
  :class:`SweepFailure` is recorded.
* **Durable checkpointing** — with a :class:`~repro.experiments.store.SweepStore`
  attached, every completed seed is appended to the shard log the moment it
  finishes, and an interrupted sweep resumes by re-running only missing
  seeds.  Results are always assembled in canonical grid order, so a
  resumed sweep is bit-identical to an uninterrupted one.

A seed that *raises* inside a worker (as opposed to killing it) is captured
as a :class:`SweepFailure` on its point rather than aborting the sweep.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from collections import deque
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

#: Ceiling for the exponential retry backoff (seconds).
_MAX_RETRY_BACKOFF = 5.0
#: Supervisor polling tick (seconds): how often deadlines and worker
#: liveness are checked while waiting for results.
_SUPERVISOR_TICK = 0.05


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


@dataclass(frozen=True)
class SweepFailure:
    """One seed that failed instead of producing a ScenarioResult.

    Covers in-worker exceptions, per-seed timeouts, and workers that died
    and exhausted their retries; ``error`` says which.
    """

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
    protocol: str,
    degree: int,
    seed: int,
    config: ExperimentConfig,
    dump_dir: Optional[str] = None,
) -> Outcome:
    """Run one seed, returning the result or a SweepFailure.

    Exceptions are converted to data (not re-raised) so one bad seed cannot
    tear down the pool or lose the identity of the seed that died.
    ``dump_dir`` arms per-seed post-mortem flight dumps (see
    :func:`repro.experiments.scenario.run_scenario`).
    """
    # Test-only pacing hook: slows each seed so the kill-and-resume tests
    # can deterministically interrupt a sweep mid-flight.  Inert when unset.
    pace = os.environ.get("REPRO_TEST_SLEEP_SECONDS")
    if pace:
        time.sleep(float(pace))
    try:
        return run_scenario(protocol, degree, seed, config, dump_dir=dump_dir)
    except Exception as exc:  # noqa: BLE001 - must survive arbitrary seed crashes
        detail = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        return SweepFailure(protocol=protocol, degree=degree, seed=seed, error=detail)


# --------------------------------------------------------------------------
# Supervised worker pool
# --------------------------------------------------------------------------


def _fault_injection(protocol: str, degree: int, seed: int) -> None:
    """Test-only fault hooks, inert unless the REPRO_TEST_* env vars are set.

    The fault-tolerance paths (hung seed, dying worker) cannot be triggered
    from a well-behaved simulation, so the tests inject them here:

    * ``REPRO_TEST_HANG_SEEDS="3,4"`` — those seeds sleep forever (exercises
      the per-seed timeout).
    * ``REPRO_TEST_DIE_ONCE_DIR=/dir`` — every task kills its worker on the
      first attempt, then runs normally (exercises retry/respawn); the
      directory holds the per-task "already died" markers.
    """
    hang = os.environ.get("REPRO_TEST_HANG_SEEDS")
    if hang and seed in {int(s) for s in hang.split(",") if s.strip()}:
        time.sleep(3600.0)
    die_dir = os.environ.get("REPRO_TEST_DIE_ONCE_DIR")
    if die_dir:
        marker = os.path.join(die_dir, f"{protocol}-{degree}-{seed}")
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8"):
                pass
            os._exit(43)


def _worker_main(
    task_q,
    result_q,
    config: ExperimentConfig,
    parent_pid: int,
    dump_dir: Optional[str] = None,
) -> None:
    """Long-lived pool worker: pull tasks, push (task, outcome) tuples.

    SIGINT is ignored so Ctrl-C interrupts only the supervisor, which then
    flushes shards and tears the pool down in order.  The periodic ppid
    check lets a worker exit on its own if the supervisor was killed
    without cleanup (SIGKILL), instead of leaking as a blocked orphan.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    import queue as queue_mod

    while True:
        try:
            task = task_q.get(timeout=1.0)
        except queue_mod.Empty:
            if os.getppid() != parent_pid:
                return
            continue
        if task is None:
            return
        protocol, degree, seed = task
        _fault_injection(protocol, degree, seed)
        started = time.perf_counter()
        outcome = _run_task(protocol, degree, seed, config, dump_dir)
        elapsed = time.perf_counter() - started
        try:
            result_q.put((protocol, degree, seed, outcome, elapsed))
        except Exception:
            return  # supervisor is gone; nothing left to report to


class _Worker:
    """Supervisor-side handle for one worker process."""

    __slots__ = ("proc", "task_q", "task", "started")

    def __init__(self, proc, task_q) -> None:
        self.proc = proc
        self.task_q = task_q
        self.task: Optional[Task] = None
        self.started = 0.0


def _execute_supervised(
    tasks: list[Task],
    config: ExperimentConfig,
    workers: int,
    timeout: Optional[float],
    retries: int,
    retry_backoff: float,
    on_done: Callable[[Task, Outcome, Optional[float], int, bool], None],
    dump_dir: Optional[str] = None,
) -> None:
    """Run ``tasks`` on a supervised pool, reporting each outcome as it lands.

    ``on_done`` is called exactly once per task, in completion order, with
    the outcome, the task's in-worker wall time (``None`` when the worker
    died or timed out before reporting), its attempt count, and whether it
    hit the wall-clock timeout.  Deadline and liveness checks run every
    ``_SUPERVISOR_TICK`` seconds between result arrivals.

    Abrupt worker death — a crash, an OOM kill, or our own timeout
    ``terminate()`` — is handled by discarding the *whole* pool, shared
    result queue included, and respawning it.  A ``multiprocessing.Queue``
    put happens in a background feeder thread under a cross-process lock; a
    worker that dies between writing the pipe and releasing that lock
    leaves the lock held forever, silently wedging every other worker's
    next result (the same hazard that makes ``concurrent.futures`` declare
    its pool broken).  Rebuilding sidesteps the poisoned queue entirely:
    in-flight tasks whose results may have been lost are simply re-run,
    which is safe because every seed is deterministic.
    """
    import multiprocessing as mp
    import queue as queue_mod

    ctx = mp.get_context()
    pending: deque[Task] = deque(tasks)
    done: set[Task] = set()
    attempts: dict[Task, int] = {}
    n_workers = max(1, min(workers, len(tasks)))

    result_q = ctx.Queue()

    def spawn() -> _Worker:
        task_q = ctx.Queue()
        proc = ctx.Process(
            target=_worker_main,
            args=(task_q, result_q, config, os.getpid(), dump_dir),
            daemon=True,
        )
        proc.start()
        return _Worker(proc, task_q)

    def kill(worker: _Worker) -> None:
        if worker.proc.is_alive():
            worker.proc.terminate()
        worker.proc.join(timeout=2.0)
        if worker.proc.is_alive():
            worker.proc.kill()
            worker.proc.join(timeout=1.0)
        worker.task_q.cancel_join_thread()
        worker.task_q.close()

    def record(
        task: Task,
        outcome: Outcome,
        elapsed: Optional[float],
        timed_out: bool = False,
    ) -> None:
        if task not in done:
            done.add(task)
            on_done(task, outcome, elapsed, attempts.get(task, 0) + 1, timed_out)

    pool = [spawn() for _ in range(n_workers)]

    def rebuild() -> None:
        """Tear down the pool and its (possibly poisoned) result queue.

        Every in-flight task that has no recorded outcome goes back to
        ``pending`` — its result may be stuck in a dead worker's feeder
        buffer or behind a leaked queue lock, and re-running it is
        deterministic.  ``record``'s first-wins guard makes a re-run of a
        task whose original result *does* still arrive harmless (it
        cannot: the old queue is discarded unread).
        """
        nonlocal pool, result_q
        for worker in pool:
            kill(worker)
        result_q.cancel_join_thread()
        result_q.close()
        for worker in pool:
            if worker.task is not None and worker.task not in done:
                pending.appendleft(worker.task)
        result_q = ctx.Queue()
        pool = [spawn() for _ in range(n_workers)]

    try:
        while len(done) < len(tasks):
            # Dispatch: hand every idle worker the next pending task.
            for worker in pool:
                if worker.task is None and pending:
                    worker.task = pending.popleft()
                    worker.started = time.monotonic()
                    worker.task_q.put(worker.task)
            # Collect one result; the short tick keeps health checks live.
            try:
                protocol, degree, seed, outcome, elapsed = result_q.get(
                    timeout=_SUPERVISOR_TICK
                )
            except queue_mod.Empty:
                pass
            else:
                task = (protocol, degree, seed)
                for worker in pool:
                    if worker.task == task:
                        worker.task = None
                        break
                record(task, outcome, elapsed)
                continue
            # Health checks: deadlines first, then liveness.  Any abrupt
            # death or deadline kill invalidates the pool, so handle one
            # event per tick and restart the loop on a fresh pool.
            now = time.monotonic()
            for worker in pool:
                task = worker.task
                if task is None:
                    if not worker.proc.is_alive():
                        rebuild()  # even an idle death can wedge the queue
                        break
                    continue
                if timeout is not None and now - worker.started >= timeout:
                    record(
                        task,
                        SweepFailure(
                            *task,
                            error=(
                                f"seed exceeded the {timeout:g}s wall-clock "
                                "timeout; worker terminated"
                            ),
                        ),
                        None,
                        timed_out=True,
                    )
                    rebuild()
                    break
                if not worker.proc.is_alive():
                    # Worker died mid-task (crash/OOM/kill): bounded retry.
                    exitcode = worker.proc.exitcode
                    n = attempts.get(task, 0) + 1
                    attempts[task] = n
                    if n <= retries:
                        time.sleep(
                            min(retry_backoff * (2 ** (n - 1)), _MAX_RETRY_BACKOFF)
                        )
                    else:
                        record(
                            task,
                            SweepFailure(
                                *task,
                                error=(
                                    f"worker died (exit code {exitcode}) and "
                                    f"retries were exhausted after "
                                    f"{n} attempt(s)"
                                ),
                            ),
                            None,
                        )
                    rebuild()
                    break
    finally:
        for worker in pool:
            kill(worker)
        result_q.cancel_join_thread()
        result_q.close()


# --------------------------------------------------------------------------
# Public drivers
# --------------------------------------------------------------------------


def run_point(
    protocol: str,
    degree: int,
    config: Optional[ExperimentConfig] = None,
    workers: int = 1,
    strict: bool = False,
    timeout: Optional[float] = None,
    retries: int = 1,
) -> PointResult:
    """Run ``config.runs`` seeds of one (protocol, degree) experiment.

    One cell of :func:`run_sweep`: ``workers > 1`` fans the seeds out over
    its supervised process pool, and ``timeout`` (wall-clock seconds per
    seed) and ``retries`` (transient worker deaths) route even a serial run
    through a one-worker pool.  Failed seeds are recorded on
    ``PointResult.failures`` and the remaining seeds still run; pass
    ``strict=True`` to raise ``RuntimeError`` naming the first failed seed
    instead.  The raise comes after every seed has run, serial or not.
    """
    config = (config or ExperimentConfig.quick()).with_(
        protocols=(protocol,), degrees=(degree,)
    )
    point = run_sweep(config, workers=workers, timeout=timeout, retries=retries)[
        (protocol, degree)
    ]
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
    timeout: Optional[float] = None,
    retries: int = 1,
    retry_backoff: float = 0.5,
    progress: Optional[Callable[[int, int, str], None]] = None,
    telemetry=None,
    dump_dir: Optional[str] = None,
    live_log=None,
) -> dict[tuple[str, int], PointResult]:
    """Full (protocol x degree) sweep; keys are (protocol, degree).

    The entire (protocol x degree x seed) grid is flattened and executed
    against one supervised worker pool (``workers > 1``), so pool startup is
    paid once per sweep and stragglers from one point overlap with the next
    point's seeds.  Failed seeds are recorded on their point's ``failures``
    list instead of aborting the sweep; results are assembled in
    deterministic grid order either way.

    Durability: pass ``store`` (a :class:`~repro.experiments.store.SweepStore`
    or a directory path) to checkpoint every completed seed as an
    append-only shard record.  Re-running with the same store and config
    resumes the sweep, executing only the missing seeds; the assembled
    result is bit-identical to an uninterrupted run.  On SIGINT the shard
    log is flushed before ``KeyboardInterrupt`` propagates, so nothing
    completed is ever lost.

    Fault tolerance (pool runs): ``timeout`` bounds each seed's wall-clock
    time (a hung seed becomes a :class:`SweepFailure`; the pool keeps
    going), and a worker that dies mid-task is respawned and its task
    retried up to ``retries`` times with exponential backoff starting at
    ``retry_backoff`` seconds.  ``progress(completed, total, message)`` is
    invoked after every task.

    Telemetry: the sweep describes its execution once, as run-log records —
    a ``sweep begin``, one ``seed`` per completed task (with done/total
    progress, wall time, attempts, timed-out flag) and a ``sweep end``.
    Each record goes to ``live_log`` (a path or an open
    :class:`~repro.obs.live.RunEventLog`) if one is given, so ``python -m
    repro watch`` can follow the sweep from another process, and to
    ``telemetry`` (a :class:`repro.obs.sweeps.SweepTelemetry`) if one is
    given, which folds them into per-seed timings, worker utilisation and
    fault counts.  The log also carries a ``violation`` record per monitor
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

    def on_done(
        task: Task,
        outcome: Outcome,
        elapsed_s: Optional[float],
        attempts: int,
        timed_out: bool,
    ) -> None:
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
            attempts=attempts,
            timed_out=timed_out,
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
        if todo:
            if workers <= 1 and timeout is None:
                for task in todo:
                    started = time.perf_counter()
                    outcome = _run_task(*task, config, dump_dir)
                    on_done(task, outcome, time.perf_counter() - started, 1, False)
            else:
                _execute_supervised(
                    todo, config, workers, timeout, retries, retry_backoff,
                    on_done, dump_dir=dump_dir,
                )
    except (KeyboardInterrupt, SystemExit):
        # Graceful interrupt: everything already completed is flushed (and
        # fsynced) before the exception propagates, so a Ctrl-C'd sweep
        # resumes exactly where it stopped.
        finish(ok=False, error="interrupted")
        raise
    finish(ok=True)
    return _assemble(grid, outcomes, config)
