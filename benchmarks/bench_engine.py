"""Microbenchmarks of the simulation substrate itself.

These time the building blocks the figure benchmarks stand on: raw event
throughput, cancellation-heavy timer churn, packet forwarding through the
mesh, protocol warm starts, and a complete scenario run.

Two ways to run it:

* under pytest (with ``pytest-benchmark``) for statistically careful numbers:
  ``PYTHONPATH=src python -m pytest benchmarks/bench_engine.py``;
* as a script for quick before/after comparisons and CI smoke checks::

      PYTHONPATH=src python benchmarks/bench_engine.py --json after.json
      PYTHONPATH=src python benchmarks/bench_engine.py --smoke

  Diff two JSON outputs with ``benchmarks/bench_compare.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenario import run_scenario
from repro.net.network import Network
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.topology.graph import all_shortest_path_trees
from repro.topology.mesh import regular_mesh

# --------------------------------------------------------------- workloads
#
# Each workload returns (metric_value, unit, higher_is_better); the script
# harness reports the best of N repeats, the pytest harness times them via
# the benchmark fixture.


def _event_throughput(n_events: int) -> float:
    """Self-rescheduling tick chain: schedule+run ``n_events`` events."""
    sim = Simulator()
    remaining = [n_events]

    def tick():
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    assert sim.events_processed == n_events
    return n_events / elapsed


def _cancel_churn(n_timers: int) -> float:
    """Timer restart storm: every event re-arms, half get cancelled lazily.

    Exercises the lazy-cancellation path the protocols lean on (MRAI,
    holddown): events/sec counts executed + skipped husks.
    """
    sim = Simulator()
    handles = [sim.schedule(0.001 * (i + 1), lambda: None) for i in range(n_timers)]
    for i, handle in enumerate(handles):
        if i % 2 == 0:
            handle.cancel()
    done = [0]

    def tick():
        done[0] += 1

    for i in range(n_timers):
        sim.schedule_at(0.001 * (i + 1), tick)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    stats = sim.stats()
    assert done[0] == n_timers
    return (stats.events_processed + stats.cancelled_skipped) / elapsed


def _periodic_timer_throughput(n_timers: int, n_events: int) -> float:
    """RIP-shaped periodic-timer population at sweep-farm size.

    ``n_timers`` independent timers with periods spread over 25-35 s (the
    RFC 2453 30 s +/- jitter band, deterministic here), each re-arming via
    the handle-recycling ``reschedule`` fast path — the steady-state access
    pattern of a d4 RIP mesh's update timers scaled to sweep-farm size.
    The pending population stays ~``n_timers`` throughout, so every event
    pays the heap's full ``O(log n)``.
    """
    sim = Simulator()
    periods = [25.0 + (i * 7919 % 1001) / 100.0 for i in range(n_timers)]
    handles: list = [None] * n_timers

    def make(i):
        period = periods[i]

        def tick():
            handles[i] = sim.reschedule(handles[i], period)

        return tick

    # Deterministic phase spread so first fires are uniform over one period.
    for i in range(n_timers):
        handles[i] = sim.schedule(periods[i] * ((i * 31 % 997) / 997.0), make(i))
    started = time.process_time()
    sim.run(max_events=n_events)
    elapsed = time.process_time() - started
    assert sim.events_processed == n_events
    return n_events / elapsed


def _forwarding_rate(n_packets: int) -> float:
    """Push packets across a 7x7 degree-4 mesh diagonal; events/sec."""
    topo = regular_mesh(7, 7, 4)
    sim = Simulator()
    net = Network(sim, topo)
    trees = all_shortest_path_trees(topo)
    for node in net.iter_nodes():
        path = trees[node.id].get(48)
        if path and len(path) > 1:
            node.set_next_hop(48, path[1])

    def emit():
        net.node(0).originate(Packet(src=0, dst=48, size_bytes=64))

    for i in range(n_packets):
        sim.schedule_at(i * 0.001, emit)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    assert net.node(48).delivered == n_packets
    return sim.events_processed / elapsed


def _scenario_seconds(post_fail_window: float) -> float:
    """Wall seconds for one complete DBF scenario at paper topology scale."""
    cfg = ExperimentConfig.quick().with_(runs=1, post_fail_window=post_fail_window)
    started = time.perf_counter()
    result = run_scenario("dbf", 4, 1, cfg)
    elapsed = time.perf_counter() - started
    assert result.delivered > 0
    return elapsed


# ------------------------------------------------------------ script harness

def _suite(smoke: bool) -> dict[str, dict]:
    scale = 10 if smoke else 1
    return {
        "event_throughput": {
            "run": lambda: _event_throughput(200_000 // scale),
            "unit": "events/s",
            "higher_is_better": True,
        },
        "cancel_churn": {
            "run": lambda: _cancel_churn(50_000 // scale),
            "unit": "events/s",
            "higher_is_better": True,
        },
        "rip_periodic_timers": {
            "run": lambda: _periodic_timer_throughput(
                200_000 // scale, 150_000 // scale
            ),
            "unit": "events/s",
            "higher_is_better": True,
        },
        "packet_forwarding": {
            "run": lambda: _forwarding_rate(2_000 // scale),
            "unit": "events/s",
            "higher_is_better": True,
        },
        "dbf_scenario": {
            "run": lambda: _scenario_seconds(4.0 if smoke else 40.0),
            "unit": "s",
            "higher_is_better": False,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="engine microbenchmarks")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workloads: a CI sanity check, not a measurement",
    )
    parser.add_argument("--json", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--repeat", type=int, default=3, help="repeats per benchmark (best kept)"
    )
    args = parser.parse_args(argv)

    results: dict[str, dict] = {}
    for name, spec in _suite(args.smoke).items():
        best = None
        for _ in range(max(1, args.repeat)):
            value = spec["run"]()
            if best is None:
                best = value
            elif spec["higher_is_better"]:
                best = max(best, value)
            else:
                best = min(best, value)
        results[name] = {
            "value": best,
            "unit": spec["unit"],
            "higher_is_better": spec["higher_is_better"],
        }
        print(f"{name:>20}: {best:,.1f} {spec['unit']}")

    if args.json:
        payload = {
            "meta": {"smoke": args.smoke, "repeat": args.repeat},
            "benchmarks": results,
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
        print(f"wrote {args.json}")
    return 0


# ------------------------------------------------------------ pytest harness

def test_event_throughput(benchmark):
    """Schedule+run 100k trivial events."""

    def run():
        sim = Simulator()
        remaining = [100_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return sim.events_processed

    events = benchmark(run)
    assert events == 100_000


def test_packet_forwarding_rate(benchmark):
    """Push 2000 packets across a 7x7 degree-4 mesh diagonal."""
    topo = regular_mesh(7, 7, 4)

    def run():
        sim = Simulator()
        net = Network(sim, topo)
        trees = all_shortest_path_trees(topo)
        for node in net.iter_nodes():
            path = trees[node.id].get(48)
            if path and len(path) > 1:
                node.set_next_hop(48, path[1])
        for i in range(2000):
            sim.schedule_at(
                i * 0.001,
                lambda: net.node(0).originate(Packet(src=0, dst=48, size_bytes=64)),
            )
        sim.run()
        return net.node(48).delivered

    delivered = benchmark(run)
    assert delivered == 2000


def test_warm_start_cost(benchmark):
    """Warm-start a full BGP mesh (49 speakers) on the 7x7 degree-6 mesh."""
    from repro.routing.bgp import BgpConfig, BgpProtocol
    from repro.sim.rng import RngStreams

    topo = regular_mesh(7, 7, 6)

    def run():
        sim = Simulator()
        net = Network(sim, topo)
        rng = RngStreams(1)
        net.attach_protocols(
            lambda node: BgpProtocol(node, rng, net, BgpConfig.standard())
        )
        for node in net.iter_nodes():
            node.protocol.warm_start(topo)
        return sum(len(n.fib) for n in net.iter_nodes())

    fib_entries = benchmark(run)
    assert fib_entries == 49 * 48


def test_scenario_run_cost(benchmark):
    """One complete DBF scenario at paper topology scale."""
    cfg = ExperimentConfig.quick().with_(runs=1, post_fail_window=40.0)
    result = benchmark.pedantic(
        run_scenario, args=("dbf", 4, 1, cfg), rounds=1, iterations=1
    )
    assert result.delivered > 0


if __name__ == "__main__":
    sys.exit(main())
