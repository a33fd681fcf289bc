"""The four end-to-end workloads, built from the public functions of each layer.

A workload is built for one ``(seed, pass_index)``: every scenario seed and
topology seed is drawn from ``random.Random(f"e2e/{name}/{seed}/{pass_index}")``,
so the same pair always gives the same inputs and the program under test
only ever sees those generated inputs, never a workload name.  Successive
passes of one run use successive ``pass_index`` values: per-scenario cost
varies 10-25 % with the drawn flow endpoints and failed link, and measuring
fresh inputs on every pass is what keeps a run's median steady across seeds.

Each workload exposes ``ops`` (the timed work of one pass), and ``probes``
(direct timed calls into single layers, run only in the traced mode).  An op
returns an :class:`Outcome`; anything that only *checks* the op (loading
``results.json`` back, listing artifacts) lives in ``Outcome.finish`` and
runs after the clock has stopped.
"""

from __future__ import annotations

import os
import random
import statistics
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.dist import ShardScenarioSpec, partition_topology, run_sharded
from repro.experiments import (
    ChurnConfig,
    ExperimentConfig,
    load_points,
    reproduce,
    run_churn_scenario,
    run_scenario,
    run_sweep,
    save_points,
    scenario_to_dict,
    validate_observations,
)
from repro.experiments.config import MATRIX_PROTOCOLS, MOBILITY_MODELS
from repro.net.dynamics import SingleLinkFailureDriver
from repro.obs import PhaseProfiler, RunObservation, SweepTelemetry, read_log
from repro.topology.generators import scale_free

#: The files ``reproduce`` promises; each must exist and be non-empty.
CAMPAIGN_ARTIFACTS = (
    "figure2_topologies.txt",
    "figure3_drops.txt",
    "figure3_drops.svg",
    "figure4_ttl.txt",
    "figure4_ttl.svg",
    "figure5_throughput.txt",
    "figure5_throughput.svg",
    "figure6_convergence.txt",
    "figure6a_forwarding.svg",
    "figure6b_routing.svg",
    "results.json",
    "figure7_delay.txt",
    "figure7_delay.svg",
    "validation.txt",
    "REPORT.md",
)


@dataclass
class Outcome:
    """What one op produced: checked results plus harvested read-outs."""

    #: ``scenario_to_dict`` of every scenario the op ran, in a fixed order.
    results: list[dict] = field(default_factory=list)
    #: Extra JSON-ready output that belongs in the digest (campaign verdicts).
    extra: dict = field(default_factory=dict)
    #: Output checks beyond the per-result invariants: (what, passed).
    checks: list[tuple[str, bool]] = field(default_factory=list)
    #: Exact counters and timings read from the public read-outs.
    readouts: dict[str, float] = field(default_factory=dict)
    #: Deferred verification, run after the timed region.
    finish: Optional[Callable[[], None]] = None


@dataclass
class Op:
    name: str
    run: Callable[["Context"], Outcome]
    #: Per-layer metrics that are this op's own time: {"cpu_s"|"wall_s": name}.
    timings: dict[str, str] = field(default_factory=dict)


class Context:
    """How a pass runs: which read-outs are attached and where it may write."""

    def __init__(self, tracer, tmp: str, observe: bool, inprocess: bool) -> None:
        self.tracer = tracer
        self.tmp = tmp
        #: Attach obs=/telemetry=/live_log= (the traced mode's two passes).
        self.observe = observe
        #: Run pool / process-exchange variants in their in-process form.
        self.inprocess = inprocess

    def fresh_dir(self, stem: str) -> str:
        return tempfile.mkdtemp(prefix=stem + "-", dir=self.tmp)


def _rng(name: str, seed: int, pass_index: int) -> random.Random:
    # str seeding hashes with sha512: independent of PYTHONHASHSEED.
    return random.Random(f"e2e/{name}/{seed}/{pass_index}")


def _scenario_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1_000_000)


def _registry_value(registry, name: str) -> float:
    metric = registry.get(name)
    return metric.value if metric is not None else 0


# ---------------------------------------------------------------- dataplane


class Dataplane:
    """Per-packet cost: 400 pkt/s through dbf/bgp3 at degree 3 and 6, plus one
    congested op whose 512-byte packets overflow the drop-tail queues."""

    name = "dataplane"

    def __init__(self, seed: int, pass_index: int, smoke: bool) -> None:
        rng = _rng(self.name, seed, pass_index)
        base = ExperimentConfig.quick().with_(
            rate_pps=50.0 if smoke else 400.0, post_fail_window=15.0
        )
        cases = [
            (f"{protocol}-d{degree}", protocol, degree, base)
            for protocol in ("dbf", "bgp3")
            for degree in (3, 6)
        ]
        # 400 pkt/s x 512 B = 1.6 Mb/s offered to 1 Mb/s links.
        cases.append(("dbf-d4-congested", "dbf", 4, base.with_(packet_bytes=512)))
        self.ops = [
            Op(name, self._scenario(protocol, degree, _scenario_seed(rng), config))
            for name, protocol, degree, config in cases
        ]
        self.probes: list[Op] = []

    @staticmethod
    def _scenario(protocol, degree, seed, config):
        def run(ctx: Context) -> Outcome:
            obs = RunObservation() if ctx.observe else None
            with ctx.tracer.span("run_scenario", "experiments.scenario") as span:
                result = run_scenario(protocol, degree, seed, config, obs=obs)
            outcome = Outcome(results=[scenario_to_dict(result)])
            if obs is not None:
                ctx.tracer.graft_phases(span, obs.profiler.root)
                reg = obs.registry
                outcome.readouts = {
                    "sim.events": _registry_value(reg, "engine.events"),
                    "sim.cancelled_skipped": _registry_value(
                        reg, "engine.cancelled_skipped"
                    ),
                    "sim.queue_depth_hwm": _registry_value(
                        reg, "engine.queue_depth_hwm"
                    ),
                    "net.packets_transmitted": _registry_value(
                        reg, "net.packets_transmitted"
                    ),
                    "net.queue_depth_hwm": _registry_value(reg, "net.queue_depth_hwm"),
                }
                for phase in obs.profiler.root.children:
                    outcome.readouts[f"experiments.phase_{phase.name}_s"] = phase.wall_s
            return outcome

        return run


# -------------------------------------------------------------- churn_matrix


class ChurnMatrix:
    """Repeated fail-and-restore: protocols x mobility models, validated."""

    name = "churn_matrix"

    def __init__(self, seed: int, pass_index: int, smoke: bool) -> None:
        rng = _rng(self.name, seed, pass_index)
        protocols = ("dbf", "spf", "olsr") if smoke else MATRIX_PROTOCOLS
        base = ExperimentConfig.quick().with_(validate=True, post_fail_window=20.0)
        self.ops = [
            Op(
                f"{protocol}-{model}",
                self._scenario(
                    protocol,
                    _scenario_seed(rng),
                    base.with_(
                        churn=ChurnConfig(model=model, n_nodes=16, radio_range=400.0)
                    ),
                ),
            )
            for protocol in protocols
            for model in MOBILITY_MODELS
        ]
        self.probes: list[Op] = []

    @staticmethod
    def _scenario(protocol, seed, config):
        def run(ctx: Context) -> Outcome:
            # run_churn_scenario takes no obs=; its live log is the public
            # read-out that carries the engine's event count.
            log = (
                os.path.join(ctx.fresh_dir("live"), "run.jsonl")
                if ctx.observe
                else None
            )
            with ctx.tracer.span("run_churn_scenario", "experiments.scenario"):
                result = run_churn_scenario(protocol, seed, config, live_log=log)
            outcome = Outcome(results=[scenario_to_dict(result)])
            outcome.readouts["mobility.topology_events"] = len(result.events)
            if log is not None:
                beats = [r for r in read_log(log) if r.get("kind") == "heartbeat"]
                outcome.readouts["sim.events"] = beats[-1]["events"] if beats else 0
            return outcome

        return run


# ------------------------------------------------------------------ campaign


class Campaign:
    """The command users run: every figure, a pooled checkpointed sweep,
    persistence, plotting and the observation checks."""

    name = "campaign"

    def __init__(self, seed: int, pass_index: int, smoke: bool) -> None:
        rng = _rng(self.name, seed, pass_index)
        self.config = ExperimentConfig.quick().with_(
            runs=1, degrees=(4,) if smoke else (4, 6), seed=_scenario_seed(rng)
        )
        self.ops = [Op("reproduce", self._reproduce)]
        self.probes = [Op("persistence", self._persistence)]
        self._last_dirs: Optional[tuple[str, str]] = None

    def _reproduce(self, ctx: Context) -> Outcome:
        root = ctx.fresh_dir("campaign")
        out_dir, ckpt = os.path.join(root, "out"), os.path.join(root, "ckpt")
        telemetry = SweepTelemetry() if ctx.observe else None
        profiler = PhaseProfiler() if ctx.observe else None
        with ctx.tracer.span("reproduce", "experiments.report") as span:
            report = reproduce(
                self.config,
                out_dir=out_dir,
                workers=1 if ctx.inprocess else 2,
                checkpoint_dir=ckpt,
                profiler=profiler,
                telemetry=telemetry,
            )
        self._last_dirs = (out_dir, ckpt)
        outcome = Outcome()
        if profiler is not None:
            ctx.tracer.graft_phases(span, profiler.finish())
        if telemetry is not None:
            timed = [t.elapsed_s for t in telemetry.seeds if t.elapsed_s is not None]
            outcome.readouts = {
                "experiments.seeds_per_s": (
                    len(telemetry.seeds) / telemetry.wall_s if telemetry.wall_s else 0.0
                ),
                "experiments.seed_s_p50": statistics.median(timed) if timed else 0.0,
                "experiments.pool_utilization": telemetry.utilization,
                "experiments.pool_retries": telemetry.n_retries,
                "experiments.pool_timeouts": telemetry.n_timeouts,
            }

        def finish() -> None:
            for name in CAMPAIGN_ARTIFACTS:
                path = report.path(name)
                ok = name in report.artifacts and os.path.isfile(path)
                ok = ok and os.path.getsize(path) > 0
                outcome.checks.append((f"artifact {name}", ok))
            points = load_points(report.path("results.json"))
            for key in sorted(points):
                point = points[key]
                outcome.checks.append(
                    (f"point {key} has no failed seed", not point.failures)
                )
                outcome.results.extend(scenario_to_dict(run) for run in point.runs)
            # With one seed per point the paper's observations are a sample of
            # one and do not hold on every seed (Obs 4 fails on 6 seeds of 10),
            # so the verdicts are pinned in the digest, not required to pass.
            outcome.extra = {
                "observations": [
                    [check.name, check.passed]
                    for check in validate_observations(points)
                ],
                "headline": report.headline,
            }
            outcome.readouts["experiments.results_json_bytes"] = os.path.getsize(
                report.path("results.json")
            )
            outcome.readouts["experiments.store_bytes"] = sum(
                os.path.getsize(os.path.join(ckpt, name)) for name in os.listdir(ckpt)
            )

        outcome.finish = finish
        return outcome

    def _persistence(self, ctx: Context) -> Outcome:
        """Direct timed calls into the persistence layer, on the last pass's files."""
        assert self._last_dirs is not None, "probes run after a pass"
        out_dir, ckpt = self._last_dirs
        readouts: dict[str, float] = {}
        started = time.perf_counter()
        with ctx.tracer.span("run_sweep(resume)", "experiments.runner"):
            points = run_sweep(self.config, workers=1, store=ckpt)
        readouts["experiments.resume_noop_s"] = time.perf_counter() - started
        path = os.path.join(ctx.fresh_dir("points"), "points.json")
        started = time.perf_counter()
        with ctx.tracer.span("save_points", "experiments.io"):
            save_points(points, path)
        readouts["experiments.save_points_s"] = time.perf_counter() - started
        started = time.perf_counter()
        with ctx.tracer.span("load_points", "experiments.io"):
            loaded = load_points(path)
        readouts["experiments.load_points_s"] = time.perf_counter() - started
        campaign_copy = os.path.join(out_dir, "results.json")
        with open(path, "rb") as ours, open(campaign_copy, "rb") as theirs:
            same = ours.read() == theirs.read()
        return Outcome(
            checks=[
                ("resumed sweep re-saves results.json byte for byte", same),
                ("load_points returns every point", sorted(loaded) == sorted(points)),
            ],
            readouts=readouts,
        )


# --------------------------------------------------------------- shard_scale


class ShardScale:
    """One scale-free BGP-3 failure scenario at 1 shard, 2 local shards and
    2 process shards: the only workload inside ``repro.dist``."""

    name = "shard_scale"

    def __init__(self, seed: int, pass_index: int, smoke: bool) -> None:
        rng = _rng(self.name, seed, pass_index)
        self.n_nodes = 200 if smoke else 800
        topo_seed = _scenario_seed(rng)
        self.topology = scale_free(self.n_nodes, m=2, seed=topo_seed)
        # The layout of tests/dist/test_scale.py: the two highest-id leaves
        # hang off different parts of the graph; the failure is on their path.
        sender, receiver = self.n_nodes - 1, self.n_nodes - 2
        pre_path = self.topology.shortest_path(sender, receiver)
        assert pre_path is not None and len(pre_path) >= 3
        failed = (min(pre_path[1], pre_path[2]), max(pre_path[1], pre_path[2]))
        expected = self.topology.shortest_path(sender, receiver, exclude_link=failed)
        base = ExperimentConfig.quick().with_(
            runs=1, post_fail_window=5.0, partition="mincut"
        )
        events = tuple(
            SingleLinkFailureDriver(failed, base.fail_time).generate(base.end_time)
        )

        def spec(shards: int) -> ShardScenarioSpec:
            return ShardScenarioSpec(
                protocol="bgp3",
                degree=2,
                seed=topo_seed,
                config=base.with_(shards=shards),
                topology=self.topology,
                sender=sender,
                receiver=receiver,
                pre_path=tuple(pre_path),
                expected_final=tuple(expected) if expected else None,
                events=events,
                warm_dests=(sender, receiver),
            )

        self.ops = [
            Op(
                "shards1-local",
                self._sharded(spec(1), "local"),
                {"cpu_s": "dist.shards1_cpu_s"},
            ),
            Op(
                "shards2-local",
                self._sharded(spec(2), "local", ("dist.windows", "dist.relays")),
                {"cpu_s": "dist.shards2_local_cpu_s"},
            ),
            Op(
                "shards2-process",
                self._sharded(spec(2), "process", ("dist.barrier_wait_frac",)),
                {"wall_s": "dist.shards2_process_wall_s"},
            ),
        ]
        self.probes = [Op("partition", self._partition)]

    @staticmethod
    def _sharded(spec: ShardScenarioSpec, exchange: str, report: tuple[str, ...] = ()):
        """``report`` names the dist.* read-outs this variant is the source of."""

        def run(ctx: Context) -> Outcome:
            registries: dict = {}
            with warnings.catch_warnings():
                # partition_topology warns that a 1-shard split is trivial;
                # it is this workload's baseline on purpose.
                warnings.simplefilter("ignore", UserWarning)
                with ctx.tracer.span("run_sharded", "dist.runner"):
                    result = run_sharded(
                        spec,
                        exchange="local" if ctx.inprocess else exchange,
                        registries=registries,
                    )
            shards = [registries[i] for i in sorted(registries)]

            def per_shard(name: str) -> list[float]:
                return [_registry_value(registry, name) for registry in shards]

            busy, wall = sum(per_shard("shard.busy_s")), sum(per_shard("shard.wall_s"))
            readouts = {
                "dist.windows": max(per_shard("shard.windows")),
                "dist.relays": sum(per_shard("shard.relays_out")),
                "dist.barrier_wait_frac": 1.0 - busy / wall if wall else 0.0,
            }
            readouts = {name: readouts[name] for name in report}
            readouts["sim.events"] = sum(per_shard("shard.events"))
            return Outcome(results=[scenario_to_dict(result)], readouts=readouts)

        return run

    @staticmethod
    def derive(outcomes: dict[str, Outcome], readouts: dict[str, float]) -> None:
        """Read-outs that compare the variants of one pass."""
        one = outcomes["shards1-local"].results[0]
        two = outcomes["shards2-local"].results[0]
        # A finding, not a failure: on scale-free graphs `messages` differs
        # by shard count (README, "Seed-commit findings").
        readouts["dist.fields_differing_vs_1shard"] = sum(
            1 for key in one if one[key] != two[key]
        )
        cpu1 = readouts.get("dist.shards1_cpu_s", 0.0)
        cpu2 = readouts.get("dist.shards2_local_cpu_s", 0.0)
        readouts["dist.speedup_2v1"] = cpu1 / cpu2 if cpu2 else 0.0

    def _partition(self, ctx: Context) -> Outcome:
        started = time.perf_counter()
        with ctx.tracer.span("partition_topology", "dist.partition"):
            partition = partition_topology(self.topology, 2, strategy="mincut")
        return Outcome(
            checks=[
                (
                    "partition covers every node",
                    len(partition.assignment) == self.n_nodes,
                )
            ],
            readouts={
                "dist.partition_s": time.perf_counter() - started,
                "dist.cut_links": len(partition.cut_links),
                "dist.lookahead_s": partition.lookahead,
            },
        )


_CLASSES = {cls.name: cls for cls in (Campaign, Dataplane, ChurnMatrix, ShardScale)}


def build(name: str, seed: int, pass_index: int, smoke: bool):
    """The workload ``name`` for one pass; raises ``KeyError`` on unknown names."""
    return _CLASSES[name](seed, pass_index, smoke)
