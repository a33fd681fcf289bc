"""Sharded scenario coordinator: conservative time-window barriers.

The coordinator advances all shards in lockstep windows, one command
per shard per window: ``advance(barrier, inbound)`` injects the relays
bound for a shard, runs it to ``barrier`` and answers with the relays it
produced, a heartbeat and its next event time.  The next safe horizon is

    H = E_min + W

where ``E_min`` is the earliest pending event anywhere — the shards' next
events and the arrivals of the relays about to be sent — and ``W`` the
partition lookahead (minimum propagation delay over cut links).
Conservative safety: any packet departing in the window departs at
``>= E_min``, so it arrives at ``>= E_min + W = H`` — *possibly exactly*
at ``H``, which is why the horizon is exclusive: every shard runs events
strictly below ``H`` (capped inclusively at ``end_at``), and the captured
cross-shard relays — all arriving at ``>= H``, i.e. in future windows —
are injected at the start of the next window, before the shard's clock
moves on.  Same-instant ordering at the arrival node is then the worker's
delivery sequencer's job (see docs/distributed.md).

Two exchanges drive the same :class:`~repro.dist.worker.ShardHost` logic:

* :class:`LocalExchange` — all shards in-process.  The default: sweep
  workers are daemonic and cannot fork grandchildren, and it makes the
  byte-identity differential tests cheap.
* :class:`ProcessExchange` — one forked worker process per shard, relays
  over pipes.  A shard that stalls (hang, crash) is detected by a pipe
  timeout, all workers are torn down, and :class:`ShardStallError` reports
  the stalled window's virtual time — the barrier never deadlocks the
  surviving shards.
"""

from __future__ import annotations

import math
import multiprocessing
import time as _wallclock
import traceback
from dataclasses import dataclass
from typing import Optional, Union

from ..experiments.config import ExperimentConfig
from ..experiments.scenario import event_clock, mesh_layout
from ..obs.registry import MetricsRegistry
from ..net.dynamics import LinkEvent, SingleLinkFailureDriver
from ..net.packet import reset_packet_ids
from ..sim.rng import RngStreams
from ..topology.graph import Topology
from .partition import Partition, partition_topology
from .proxy import Relay, ShardHeartbeat
from .worker import ShardHost, ShardOutput, ShardPlan, maybe_fault

__all__ = [
    "ShardScenarioSpec",
    "ShardStallError",
    "LocalExchange",
    "ProcessExchange",
    "run_sharded",
    "run_scenario_sharded",
]


class ShardStallError(RuntimeError):
    """A worker shard hung or died; the run was torn down, not deadlocked.

    Beyond the stalled window's virtual time, the error carries everything
    the coordinator knew when it gave up: each shard's last *completed*
    window, whether each worker pipe was still open, and the last
    :class:`~repro.dist.proxy.ShardHeartbeat` received per shard — so a
    stall names which shard stopped advancing and at what event count, not
    just the barrier timestamp.
    """

    def __init__(
        self,
        shard_index: int,
        window_time: float,
        reason: str,
        last_windows: Optional[dict] = None,
        pipes_open: Optional[dict] = None,
        heartbeats: Optional[dict] = None,
    ) -> None:
        self.shard_index = shard_index
        self.window_time = window_time
        self.reason = reason
        #: shard -> last barrier that shard completed (None before any).
        self.last_windows = dict(last_windows or {})
        #: shard -> whether its pipe/process was still open at detection.
        self.pipes_open = dict(pipes_open or {})
        #: shard -> last ShardHeartbeat received (None before any).
        self.heartbeats = dict(heartbeats or {})
        message = (
            f"shard {shard_index} stalled at window t={window_time:.3f}: {reason}"
        )
        beat = self.heartbeats.get(shard_index)
        if beat is not None:
            message += (
                f"; last heartbeat: clock={beat.clock:.3f}s "
                f"events={beat.events} relays_out={beat.relays_out} "
                f"after window t={beat.barrier:.3f}"
            )
        if self.last_windows:
            parts = []
            for shard in sorted(self.last_windows):
                last = self.last_windows[shard]
                done = "none" if last is None else f"t={last:.3f}"
                pipe = "open" if self.pipes_open.get(shard) else "closed"
                parts.append(f"shard {shard}: last window {done}, pipe {pipe}")
            message += " [" + "; ".join(parts) + "]"
        super().__init__(message)


@dataclass(frozen=True)
class ShardScenarioSpec:
    """A fully laid-out scenario ready to shard (topology and flow fixed).

    ``run_scenario_sharded`` builds one that replicates ``run_scenario``'s
    mesh layout; scale tests build their own over generated topologies.
    """

    protocol: str
    degree: int
    seed: int
    config: ExperimentConfig
    topology: Topology
    sender: int
    receiver: int
    pre_path: tuple[int, ...]
    expected_final: Optional[tuple[int, ...]]
    events: tuple[LinkEvent, ...]
    #: Restrict warm start to these destinations (BGP family only) so
    #: 10k-node topologies skip the all-pairs warm start.
    warm_dests: Optional[tuple[int, ...]] = None


# --------------------------------------------------------------------------
# exchanges


class LocalExchange:
    """All shards in this process; the pipe protocol without the pipes."""

    def __init__(self, plans: list[ShardPlan]) -> None:
        self.hosts = [ShardHost(plan) for plan in plans]

    def start(self) -> list[Optional[float]]:
        return [host.peek_time() for host in self.hosts]

    def advance(self, barrier: float, inbound: list[list[Relay]]) -> list[tuple]:
        return [host.advance(barrier, r) for host, r in zip(self.hosts, inbound)]

    def finalize(self, inbound: list[list[Relay]]) -> list[ShardOutput]:
        return [host.finalize(relays) for host, relays in zip(self.hosts, inbound)]

    def close(self) -> None:
        pass


def _worker_main(plan: ShardPlan, conn) -> None:
    """Process-worker command loop (one end of a duplex pipe)."""
    try:
        # Fork inherits the parent's packet-id counters mid-count; shard
        # construction must start from the same state a fresh run would.
        reset_packet_ids()
        host = ShardHost(plan)
        # The build acknowledgement carries the first event time.
        conn.send(("ok", host.peek_time()))
    except Exception:
        conn.send(("err", traceback.format_exc()))
        return
    while True:
        command = conn.recv()
        op = command[0]
        try:
            if op == "advance":
                _, barrier, inbound = command
                maybe_fault(plan.shard_index, barrier)
                conn.send(("ok", host.advance(barrier, inbound)))
            elif op == "finalize":
                conn.send(("ok", host.finalize(command[1])))
            elif op == "close":
                conn.close()
                return
            else:
                conn.send(("err", f"unknown command {op!r}"))
        except Exception:
            conn.send(("err", traceback.format_exc()))


class ProcessExchange:
    """One forked worker process per shard, commands and relays over pipes."""

    def __init__(self, plans: list[ShardPlan], timeout: float = 60.0) -> None:
        self._timeout = timeout
        self._end_at = plans[0].end_at
        # The barrier last sent: a stall is reported at this window.
        self._window = 0.0
        ctx = multiprocessing.get_context("fork")
        self._procs = []
        self._conns = []
        # Stall forensics, updated as responses arrive: last barrier each
        # shard completed and its last heartbeat.  Attached to
        # ShardStallError so a stall names which shard stopped advancing.
        self._last_windows: dict[int, Optional[float]] = {
            index: None for index in range(len(plans))
        }
        self._heartbeats: dict[int, Optional[ShardHeartbeat]] = {
            index: None for index in range(len(plans))
        }
        for plan in plans:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main, args=(plan, child_conn), daemon=True
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)

    def _pipes_open(self) -> dict[int, bool]:
        return {
            index: proc.is_alive() and not conn.closed
            for index, (proc, conn) in enumerate(zip(self._procs, self._conns))
        }

    def _stall(self, index: int, reason: str) -> ShardStallError:
        # Capture pipe state BEFORE teardown terminates every worker.
        error = ShardStallError(
            index,
            self._window,
            reason,
            last_windows=self._last_windows,
            pipes_open=self._pipes_open(),
            heartbeats=self._heartbeats,
        )
        self._teardown()
        return error

    def _recv(self, index: int):
        conn = self._conns[index]
        if not conn.poll(self._timeout):
            raise self._stall(index, f"no response within {self._timeout:.0f}s")
        try:
            status, value = conn.recv()
        except EOFError:
            raise self._stall(index, "worker process died") from None
        if status != "ok":
            self._teardown()
            raise RuntimeError(f"shard {index} worker failed:\n{value}")
        return value

    def start(self) -> list[Optional[float]]:
        return [self._recv(index) for index in range(len(self._conns))]

    def advance(self, barrier: float, inbound: list[list[Relay]]) -> list[tuple]:
        self._window = barrier
        for conn, relays in zip(self._conns, inbound):
            conn.send(("advance", barrier, relays))
        replies = []
        for index in range(len(self._conns)):
            reply = self._recv(index)
            replies.append(reply)
            self._last_windows[index] = barrier
            self._heartbeats[index] = reply[1]
        return replies

    def finalize(self, inbound: list[list[Relay]]) -> list[ShardOutput]:
        self._window = self._end_at
        for conn, relays in zip(self._conns, inbound):
            conn.send(("finalize", relays))
        return [self._recv(index) for index in range(len(self._conns))]

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("close",))
                conn.close()
            except (OSError, BrokenPipeError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()

    def _teardown(self) -> None:
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        for conn in self._conns:
            conn.close()


# --------------------------------------------------------------------------
# coordinator


def _relay_sort_key(relay: Relay) -> tuple:
    return (relay.arrive_at, relay.link, relay.src, relay.seq)


#: Bucket edges for per-window engine-event bursts (events between barriers).
_WINDOW_EVENT_BUCKETS = (1.0, 10.0, 100.0, 1000.0, 10000.0)


def _fold_heartbeat(
    registry: MetricsRegistry, beat: ShardHeartbeat, prev: Optional[ShardHeartbeat]
) -> None:
    """Fold one heartbeat's deltas into that shard's registry.

    Heartbeat fields are cumulative, so each window contributes its delta
    against the previous beat — which makes merging per-shard registries
    agree with an unsharded aggregate (see ``MetricsRegistry.merge``).
    """
    delta_events = beat.events - (prev.events if prev is not None else 0)
    registry.counter("shard.windows").inc()
    registry.counter("shard.events").inc(delta_events)
    registry.counter("shard.relays_out").inc(
        beat.relays_out - (prev.relays_out if prev is not None else 0)
    )
    registry.counter("shard.relays_in").inc(
        beat.relays_in - (prev.relays_in if prev is not None else 0)
    )
    registry.gauge("shard.clock").set(beat.clock)
    registry.gauge("shard.busy_s").set(beat.busy_s)
    registry.gauge("shard.wall_s").set(beat.wall_s)
    registry.histogram("shard.window_events", _WINDOW_EVENT_BUCKETS).observe(
        delta_events
    )


def run_sharded(
    spec: ShardScenarioSpec,
    exchange: str = "local",
    barrier_timeout: float = 60.0,
    collect_traces: bool = False,
    validate: Optional[bool] = None,
    live_log: Union[None, str, "object"] = None,
    heartbeat_interval: float = 1.0,
    registries: Optional[dict[int, MetricsRegistry]] = None,
):
    """Run ``spec`` partitioned across ``spec.config.shards`` shards.

    Returns the same :class:`~repro.experiments.scenario.ScenarioResult` a
    single-process ``run_scenario`` would — byte-identical on any topology
    small enough to run both (the differential suite pins this with
    :func:`~repro.experiments.persistence.diff_runs`).  When
    ``collect_traces`` is set the result carries ``result.traces``: the
    per-shard streams plus the warm-start installs, in the
    :func:`~repro.dist.merge.canonical_trace_streams` form of what a
    :class:`~repro.obs.flight.FlightRecorder` would see.

    ``live_log`` (a path or an open :class:`~repro.obs.live.RunEventLog`)
    streams heartbeat/window records as the run executes; emission is
    throttled to one batch per ``heartbeat_interval`` simulated seconds
    (thousands of barrier windows fit in one simulated second), with the
    final per-shard heartbeats and ``shard-end`` totals always written so
    the log replays into exactly the totals the coordinator reports.
    ``registries``, if given, is filled with a per-shard
    :class:`~repro.obs.registry.MetricsRegistry` aggregated from every
    heartbeat (not throttled).  Both are harvested off worker-maintained
    counters between windows — the simulation itself stays byte-identical
    (the transparency tests pin this).
    """
    from ..obs.live import open_live_log  # obs imports net/sim; keep cycle-free
    from .merge import merge_results  # merge imports metrics; keep cycle-free

    config = spec.config
    if config.cold_start:
        raise ValueError("sharded execution requires warm start (cold_start)")
    if config.churn is not None:
        raise ValueError("sharded execution does not support churn configs")
    end_at = config.end_time
    scheduled = [e for e in spec.events if e.time < end_at]
    clock = event_clock(scheduled, config.detection_delay, config.fail_time)

    partition = partition_topology(
        spec.topology, config.shards, strategy=config.partition
    )
    if partition.cut_links and partition.lookahead <= 0.0:
        raise ValueError(
            "cannot shard: a cut link has zero propagation delay, so the "
            "conservative lookahead window is empty"
        )
    reset_packet_ids()
    plans = [
        ShardPlan(
            shard_index=index,
            n_shards=config.shards,
            protocol=spec.protocol,
            seed=spec.seed,
            config=config,
            topology=spec.topology,
            assignment=partition.assignment,
            cut_links=partition.cut_links,
            sender=spec.sender,
            receiver=spec.receiver,
            events=tuple(scheduled),
            traffic_start=config.traffic_start,
            window_start=clock.first_at,
            end_at=end_at,
            warm_dests=spec.warm_dests,
            collect_traces=collect_traces,
        )
        for index in range(config.shards)
    ]
    log, owns_log = open_live_log(
        live_log,
        run="shard",
        meta={
            "protocol": spec.protocol,
            "degree": spec.degree,
            "seed": spec.seed,
            "shards": config.shards,
            "exchange": exchange,
        },
    )
    telemetry = log is not None or registries is not None
    regs = registries if registries is not None else {}
    last_beats: dict[int, ShardHeartbeat] = {}
    pending_windows = 0
    pending_relays = 0
    emit_from = _wallclock.perf_counter()
    next_emit = 0.0
    emit_index = 0

    def note(beats: list[ShardHeartbeat], n_relays: int) -> None:
        nonlocal pending_windows, pending_relays
        if not telemetry:
            return
        pending_windows += 1
        pending_relays += n_relays
        for beat in beats:
            registry = regs.get(beat.shard)
            if registry is None:
                registry = regs[beat.shard] = MetricsRegistry()
            _fold_heartbeat(registry, beat, last_beats.get(beat.shard))
            last_beats[beat.shard] = beat

    def emit(barrier: float, e_min: Optional[float]) -> None:
        """Flush the coalesced window stats + current heartbeats to the log."""
        nonlocal pending_windows, pending_relays, emit_from, next_emit, emit_index
        if log is None or pending_windows == 0:
            return
        now = _wallclock.perf_counter()
        log.window(
            index=emit_index,
            e_min=e_min,
            barrier=barrier,
            n_windows=pending_windows,
            n_relays=pending_relays,
            wall_s=now - emit_from,
        )
        emit_index += 1
        for shard in sorted(last_beats):
            beat = last_beats[shard]
            log.heartbeat(
                shard=beat.shard,
                clock=beat.clock,
                events=beat.events,
                barrier=beat.barrier,
                relays_out=beat.relays_out,
                relays_in=beat.relays_in,
                busy_s=beat.busy_s,
                wall_s=beat.wall_s,
            )
        pending_windows = 0
        pending_relays = 0
        emit_from = now
        next_emit = barrier + heartbeat_interval

    xchg = None
    try:
        if exchange == "process":
            xchg = ProcessExchange(plans, timeout=barrier_timeout)
        elif exchange == "local":
            xchg = LocalExchange(plans)
        else:
            raise ValueError(f"unknown exchange {exchange!r} (local | process)")

        lookahead = partition.lookahead
        next_times = xchg.start()
        inbound: list[list[Relay]] = [[] for _ in plans]
        while True:
            # A relay is scheduled when its shard takes it, so the earliest
            # pending event is the min over the shards' next events and
            # the relays about to be sent.
            pending = [t for t in next_times if t is not None]
            pending.extend(relays[0].arrive_at for relays in inbound if relays)
            e_min = min(pending, default=None)
            if e_min is None or e_min > end_at:
                barrier = end_at
            else:
                # The horizon is EXCLUSIVE: an event at e_min can cause a
                # cross-cut arrival at exactly e_min + lookahead, so shards
                # may only execute events strictly below it — otherwise a
                # shard processes its own events at the horizon before the
                # coinciding relay is injected, inverting same-instant
                # order.  nextafter gives the largest representable time
                # below the horizon (run() is inclusive).
                horizon = e_min + lookahead
                barrier = (
                    end_at
                    if horizon > end_at
                    else math.nextafter(horizon, -math.inf)
                )
            while True:
                replies = xchg.advance(barrier, inbound)
                relays = [relay for batch, _, _ in replies for relay in batch]
                note([beat for _, beat, _ in replies], len(relays))
                inbound = [[] for _ in plans]
                for relay in sorted(relays, key=_relay_sort_key):
                    inbound[partition.shard_of(relay.dst)].append(relay)
                # A relay landing inside the closed window would re-run it
                # (a mop-up).  With the exclusive horizon every relay
                # arrives at >= e_min + lookahead > barrier, so this is a
                # safety net, not an expected path.
                if not any(relay.arrive_at <= barrier for relay in relays):
                    break
            next_times = [t for _, _, t in replies]
            if barrier >= next_emit:
                emit(barrier, e_min)
            if barrier >= end_at:
                break
        outputs = xchg.finalize(inbound)
        if log is not None:
            emit(end_at, None)  # flush a sub-interval tail, if any
            for shard in sorted(last_beats):
                beat = last_beats[shard]
                log.shard_end(
                    shard=shard,
                    events=beat.events,
                    relays_out=beat.relays_out,
                    relays_in=beat.relays_in,
                )
            log.end(ok=True)
    except ShardStallError as stall:
        if log is not None:
            beat = stall.heartbeats.get(stall.shard_index)
            log.stall(
                shard=stall.shard_index,
                window=stall.window_time,
                reason=stall.reason,
                heartbeat=beat.to_dict() if beat is not None else None,
            )
            log.end(ok=False, error=str(stall))
        raise
    finally:
        if xchg is not None:
            xchg.close()
        if owns_log:
            log.close()

    return merge_results(
        spec=spec,
        partition=partition,
        outputs=outputs,
        scheduled=scheduled,
        clock=clock,
        validate=config.validate if validate is None else validate,
        collect_traces=collect_traces,
    )


def run_scenario_sharded(
    protocol: str,
    degree: int,
    seed: int,
    config: ExperimentConfig,
    exchange: str = "local",
    barrier_timeout: float = 60.0,
    collect_traces: bool = False,
    validate: Optional[bool] = None,
    live_log: Union[None, str, "object"] = None,
    heartbeat_interval: float = 1.0,
    registries: Optional[dict[int, MetricsRegistry]] = None,
):
    """Sharded twin of ``run_scenario``: identical mesh layout and schedule."""
    # The one layout function run_scenario uses: same topology, endpoints
    # and failed link from the seed's scenario stream.
    layout = mesh_layout(config, degree, RngStreams(seed).stream("scenario"))
    driver = SingleLinkFailureDriver(layout.failed, config.fail_time)
    spec = ShardScenarioSpec(
        protocol=protocol,
        degree=degree,
        seed=seed,
        config=config,
        topology=layout.topology,
        sender=layout.sender,
        receiver=layout.receiver,
        pre_path=layout.pre_path,
        expected_final=layout.expected_final,
        events=tuple(driver.generate(config.end_time)),
    )
    return run_sharded(
        spec,
        exchange=exchange,
        barrier_timeout=barrier_timeout,
        collect_traces=collect_traces,
        validate=validate,
        live_log=live_log,
        heartbeat_interval=heartbeat_interval,
        registries=registries,
    )
