"""Command-line interface.

Exposes the experiment harness without writing Python::

    python -m repro run --protocol dbf --degree 4 --seed 1
    python -m repro shard --protocol bgp3 --shards 3 --check  # sharded run
    python -m repro churn --protocol dbf --model waypoint --validate
    python -m repro figure 3                  # reproduce Figure 3's table
    python -m repro figure abl2 --runs 1      # any ablation or extension row
    python -m repro sweep --protocols rip dbf --degrees 3 4 5 6
    python -m repro sweep --checkpoint runs/ --workers 4   # durable, resumable
    python -m repro sweep --checkpoint runs/ --resume      # continue after a kill
    python -m repro topology --degree 5       # inspect a mesh
    python -m repro validate --seeds 25       # fuzzer + differential oracle
    python -m repro profile --out prof.log    # phase/metric/sweep run log
    python -m repro trace --packet 17         # hop-by-hop packet autopsy
    python -m repro trace --timeline          # causal convergence timeline
    python -m repro trace --dump flight.json  # re-run a post-mortem dump

Use ``--paper-scale`` for the full 10-seed configuration; the default is the
reduced quick profile.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Optional, Sequence

from .experiments.config import (
    MATRIX_PROTOCOLS,
    MOBILITY_MODELS,
    PARTITION_STRATEGIES,
    PROTOCOL_NAMES,
    ChurnConfig,
    ExperimentConfig,
)
from .experiments.figures import ROWS, evaluate
from .experiments.report import format_row
from .experiments.runner import run_sweep
from .experiments.scenario import run_scenario
from .records import ArtifactError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Packet delivery performance during routing convergence (DSN 2003)",
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="full 10-seed, degree 3-8 configuration (slow)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and print its outcome")
    run_p.add_argument("--protocol", choices=PROTOCOL_NAMES, default="dbf")
    run_p.add_argument("--degree", type=int, default=4)
    run_p.add_argument("--seed", type=int, default=1)
    run_p.add_argument("--rate", type=float, help="packets/second")
    run_p.add_argument(
        "--live-log", metavar="FILE",
        help="stream a run-event log (JSONL) here; tail it with "
             "`repro watch FILE` from another terminal",
    )

    churn_p = sub.add_parser(
        "churn",
        help="run one mobility-churn scenario (moving nodes, flapping links)",
    )
    churn_p.add_argument("--protocol", choices=PROTOCOL_NAMES, default="dbf")
    churn_p.add_argument("--seed", type=int, default=1)
    churn_p.add_argument(
        "--model", choices=MOBILITY_MODELS, default="waypoint",
        help="mobility model generating the link schedule",
    )
    churn_p.add_argument("--nodes", type=int, default=16, help="field size")
    churn_p.add_argument(
        "--range", type=float, default=400.0, dest="radio_range",
        help="radio range in meters (links = pairs within range)",
    )
    churn_p.add_argument(
        "--window", type=float, default=30.0,
        help="seconds of movement after the field starts churning",
    )
    churn_p.add_argument(
        "--settle", type=float, default=0.0, metavar="SECONDS",
        help="stop movement this long before the end so routing can quiesce "
             "(required for end-of-run oracle judgments)",
    )
    churn_p.add_argument(
        "--validate", action="store_true",
        help="attach the invariant monitor suite; violations exit non-zero",
    )
    churn_p.add_argument(
        "--dump-dir", metavar="DIR",
        help="write a post-mortem flight dump here if any monitor fires",
    )
    churn_p.add_argument(
        "--live-log", metavar="FILE",
        help="stream a run-event log (JSONL) here; tail it with "
             "`repro watch FILE` from another terminal",
    )

    shard_p = sub.add_parser(
        "shard",
        help="run one scenario sharded across worker simulators "
             "(byte-identical to a single-process run)",
    )
    shard_p.add_argument("--protocol", choices=PROTOCOL_NAMES, default="dbf")
    shard_p.add_argument("--degree", type=int, default=4)
    shard_p.add_argument("--seed", type=int, default=7)
    shard_p.add_argument("--shards", type=int, default=2)
    shard_p.add_argument(
        "--partition", choices=PARTITION_STRATEGIES, default="mincut",
        help="topology partitioning strategy",
    )
    shard_p.add_argument(
        "--process", action="store_true",
        help="one forked worker process per shard (default: in-process)",
    )
    shard_p.add_argument(
        "--check", action="store_true",
        help="also run single-process and verify byte-identity of metrics "
             "and trace streams; mismatches exit non-zero",
    )
    shard_p.add_argument(
        "--validate", action="store_true",
        help="re-check the offline invariants (packet conservation, FIB "
             "loops); violations exit non-zero",
    )
    shard_p.add_argument(
        "--window", type=float, default=30.0,
        help="seconds observed after the failure (default 30)",
    )
    shard_p.add_argument(
        "--live-log", metavar="FILE",
        help="stream a run-event log (JSONL) of barrier windows and "
             "per-shard heartbeats here; tail it with `repro watch FILE`",
    )
    shard_p.add_argument(
        "--perfetto", metavar="FILE",
        help="write a cross-shard Chrome trace-event JSON here (node lanes "
             "plus one lane per shard; requires --live-log)",
    )

    fig_p = sub.add_parser(
        "figure", help="reproduce one figure, ablation or extension (a catalogue row)"
    )
    fig_p.add_argument("id", choices=tuple(ROWS), help="the row's DESIGN.md id")
    fig_p.add_argument(
        "--degrees", type=int, nargs="+",
        help="degrees to include (a row that fixes its degrees keeps them)",
    )
    fig_p.add_argument("--runs", type=int, help="seeds per data point")
    fig_p.add_argument(
        "--matrix", action="store_true",
        help="full protocol matrix: the paper's wired protocols plus the "
             "MANET trio (aodv/dsr/olsr) side by side",
    )

    sweep_p = sub.add_parser("sweep", help="full protocol x degree sweep")
    sweep_p.add_argument("--protocols", nargs="+", choices=PROTOCOL_NAMES)
    sweep_p.add_argument("--degrees", type=int, nargs="+")
    sweep_p.add_argument("--runs", type=int)
    sweep_p.add_argument("--workers", type=int, default=1, help="process pool size")
    sweep_p.add_argument("--save", metavar="FILE", help="write results as JSON")
    sweep_p.add_argument(
        "--checkpoint", metavar="DIR",
        help="durable shard store: completed seeds are appended there and an "
             "interrupted sweep resumes from it (config must match)",
    )
    sweep_p.add_argument(
        "--resume", action="store_true",
        help="take the configuration from the checkpoint manifest instead of "
             "the command line (requires --checkpoint with an existing manifest)",
    )
    sweep_p.add_argument(
        "--progress", action="store_true", help="print per-seed progress lines"
    )
    sweep_p.add_argument(
        "--live-log", metavar="FILE",
        help="stream a run-event log (JSONL) of per-seed lifecycle records "
             "here; tail it with `repro watch FILE` from another terminal",
    )

    topo_p = sub.add_parser("topology", help="inspect a regular mesh")
    topo_p.add_argument("--degree", type=int, default=4)
    topo_p.add_argument("--rows", type=int, default=7)
    topo_p.add_argument("--cols", type=int, default=7)

    repro_p = sub.add_parser(
        "reproduce", help="regenerate every figure into an output directory"
    )
    repro_p.add_argument("--out", default="reproduction")
    repro_p.add_argument("--runs", type=int)
    repro_p.add_argument("--degrees", type=int, nargs="+")
    repro_p.add_argument(
        "--workers", type=int, default=1,
        help="process pool size for the campaign's one sweep, which every "
             "figure is drawn from",
    )
    repro_p.add_argument(
        "--checkpoint", metavar="DIR",
        help="durable shard store for that sweep: an interrupted campaign "
             "resumes from it and a finished one re-simulates nothing "
             "(config must match)",
    )

    val_p = sub.add_parser(
        "validate",
        help="run the scenario fuzzer and differential oracle (CI smoke)",
    )
    val_p.add_argument(
        "--seeds", type=int, default=25,
        help="number of fuzz cases to generate (default 25)",
    )
    val_p.add_argument(
        "--master-seed", type=int, default=1,
        help="fuzz stream seed; every case derives from (master, index)",
    )
    val_p.add_argument(
        "--degrees", type=int, nargs="+", default=[3, 4, 5],
        help="degrees for the differential oracle (default 3 4 5)",
    )
    val_p.add_argument(
        "--oracle-seeds", type=int, default=2,
        help="scenario seeds per degree for the differential oracle",
    )
    val_p.add_argument(
        "--skip-oracle", action="store_true",
        help="fuzz only; skip the differential oracle pass",
    )
    val_p.add_argument(
        "--churn", action="store_true",
        help="also run the churn differential oracle (aodv/dsr/olsr under "
             "mobility with a quiet settle tail)",
    )
    val_p.add_argument(
        "--churn-seeds", type=int, default=2,
        help="seeds per mobility model for the churn oracle (default 2)",
    )

    prof_p = sub.add_parser(
        "profile",
        help="profile one scenario (and optionally a mini sweep) into one "
             "run-event log: phase wall times, metric registry snapshot, "
             "sweep telemetry",
    )
    prof_p.add_argument("--protocol", choices=PROTOCOL_NAMES, default="dbf")
    prof_p.add_argument("--degree", type=int, default=4)
    prof_p.add_argument("--seed", type=int, default=1)
    prof_p.add_argument(
        "--out", metavar="FILE", help="keep the run-event log here"
    )
    prof_p.add_argument(
        "--memory", action="store_true",
        help="also record tracemalloc peaks per phase (slower)",
    )
    prof_p.add_argument(
        "--sweep-seeds", type=int, default=0, metavar="N",
        help="also run an N-seed sweep of the same point and report its "
             "execution telemetry (per-seed runtime, worker utilisation)",
    )
    prof_p.add_argument(
        "--workers", type=int, default=1,
        help="process pool size for the telemetry sweep",
    )
    prof_p.add_argument(
        "--smoke", action="store_true",
        help="small fixed workload + schema self-check (CI smoke)",
    )

    trace_p = sub.add_parser(
        "trace",
        help="flight-recorder forensics: packet autopsies, causal "
             "convergence timeline, post-mortem dumps, Perfetto export",
    )
    trace_p.add_argument("--protocol", choices=PROTOCOL_NAMES, default="dbf")
    trace_p.add_argument("--degree", type=int, default=4)
    trace_p.add_argument("--seed", type=int, default=7)
    trace_p.add_argument(
        "--packet", type=int, metavar="ID",
        help="print the hop-by-hop autopsy of one packet",
    )
    trace_p.add_argument(
        "--timeline", action="store_true",
        help="print only the causal convergence timeline",
    )
    trace_p.add_argument(
        "--dump", metavar="FILE",
        help="re-run the run a post-mortem flight dump names instead of "
             "the --protocol/--degree/--seed scenario (the re-run must "
             "reproduce the dump's result)",
    )
    trace_p.add_argument(
        "--out", metavar="FILE",
        help="write a flight dump naming the run here",
    )
    trace_p.add_argument(
        "--perfetto", metavar="FILE",
        help="write Chrome trace-event JSON here (open in ui.perfetto.dev)",
    )
    trace_p.add_argument(
        "--smoke", action="store_true",
        help="small fixed workload + dump schema self-check (CI smoke)",
    )

    watch_p = sub.add_parser(
        "watch",
        help="tail a run-event log written by --live-log and render live "
             "progress (works on a log another process is still writing)",
    )
    watch_p.add_argument("log", help="run-event log file (JSONL)")
    watch_p.add_argument(
        "--once", action="store_true",
        help="render one snapshot and exit instead of following the file",
    )
    watch_p.add_argument(
        "--check", action="store_true",
        help="schema-check the log first; problems exit non-zero",
    )
    watch_p.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="poll interval while following (default 0.5)",
    )

    return parser


def _config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig.paper() if args.paper_scale else ExperimentConfig.quick()
    overrides = {}
    if getattr(args, "degrees", None):
        overrides["degrees"] = tuple(args.degrees)
    if getattr(args, "runs", None):
        overrides["runs"] = args.runs
    if getattr(args, "protocols", None):
        overrides["protocols"] = tuple(args.protocols)
    if getattr(args, "rate", None):
        overrides["rate_pps"] = args.rate
    return config.with_(**overrides) if overrides else config


def _cmd_run(args: argparse.Namespace) -> int:
    config = _config(args)
    r = run_scenario(
        args.protocol, args.degree, args.seed, config, live_log=args.live_log
    )
    print(f"protocol={r.protocol} degree={r.degree} seed={r.seed}")
    print(f"pre-failure path: {' -> '.join(map(str, r.initial_path))}")
    print(f"failed link: {r.failed_link}")
    print(
        f"sent={r.sent} delivered={r.delivered} ({r.delivery_ratio:.1%}) "
        f"no_route={r.drops_no_route} ttl={r.drops_ttl} "
        f"link_down={r.drops_link_down} queue={r.drops_queue}"
    )
    print(
        f"forwarding convergence={r.forwarding_convergence:.3f}s "
        f"routing convergence={r.routing_convergence:.3f}s "
        f"converged_to_expected={r.converged_to_expected}"
    )
    if r.manet is not None:
        print(f"manet: {r.manet.summary()}")
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    from .experiments.churn import run_churn_scenario

    config = ExperimentConfig.quick().with_(
        post_fail_window=args.window,
        churn=ChurnConfig(
            model=args.model,
            n_nodes=args.nodes,
            radio_range=args.radio_range,
            settle_time=args.settle,
        ),
    )
    monitors = None
    if args.validate:
        from .validation.monitors import MonitorSuite

        monitors = MonitorSuite()
    r = run_churn_scenario(
        args.protocol,
        args.seed,
        config,
        monitors=monitors,
        dump_dir=args.dump_dir,
        live_log=args.live_log,
    )
    fails = sum(1 for e in r.events if e.kind == "fail")
    restores = len(r.events) - fails
    print(
        f"protocol={r.protocol} seed={r.seed} model={args.model} "
        f"nodes={args.nodes} range={args.radio_range:g}m"
    )
    print(f"initial path: {' -> '.join(map(str, r.initial_path))}")
    print(f"events: {len(r.events)} ({fails} fail, {restores} restore)")
    active = [e for e in r.events if e.wave_start is not None]
    print(
        f"reconvergence waves: {len(active)} of {len(r.events)} events "
        "caused routing activity"
    )
    print(
        f"sent={r.sent} delivered={r.delivered} ({r.delivery_ratio:.1%}) "
        f"no_route={r.drops_no_route} ttl={r.drops_ttl} "
        f"link_down={r.drops_link_down} queue={r.drops_queue}"
    )
    if r.manet is not None:
        print(f"manet: {r.manet.summary()}")
    if monitors is not None:
        if r.violations:
            print(f"INVARIANT VIOLATIONS ({len(r.violations)}):")
            for v in r.violations:
                print(f"  {v}")
            if r.dump_path:
                print(f"post-mortem dump: {r.dump_path}")
            return 1
        print("monitors: all green")
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from .dist.runner import ShardScenarioSpec, run_sharded
    from .obs.flight import FlightRecorder, write_perfetto

    config = _config(args).with_(
        runs=1,
        post_fail_window=args.window,
        record_paths=True,
        shards=args.shards,
        partition=args.partition,
        validate=args.validate,
    )
    exchange = "process" if args.process else "local"
    if args.perfetto and not args.live_log:
        print(
            "error: --perfetto needs the shard-lane records from a run-event "
            "log; add --live-log FILE",
            file=sys.stderr,
        )
        return 2
    print(
        f"protocol={args.protocol} degree={args.degree} seed={args.seed} "
        f"shards={args.shards} partition={args.partition} exchange={exchange}"
    )

    recorder = FlightRecorder() if args.check or args.perfetto else None
    r = run_sharded(
        ShardScenarioSpec.mesh(args.protocol, args.degree, args.seed, config),
        exchange=exchange,
        recorder=recorder,
        live_log=args.live_log,
    )
    if args.check:
        from .dist.merge import MODE_FIELDS, diff_recordings
        from .experiments.persistence import diff_runs
        from .net.packet import reset_packet_ids

        # Packet ids count from zero, as at the start of the sharded run.
        reset_packet_ids()
        single_recorder = FlightRecorder()
        single = run_scenario(
            args.protocol, args.degree, args.seed,
            config.with_(shards=1, validate=False), recorder=single_recorder,
        )
        problems = diff_runs(single, r, ignore=MODE_FIELDS)
        problems += diff_recordings(single_recorder, recorder)
        streams = ", ".join(
            f"{len(records)} {kind}" for kind, records in recorder.streams.items()
        )
        print(f"trace streams: {streams}")
        if problems:
            print(f"BYTE-IDENTITY FAILED ({len(problems)} mismatch(es)):")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print("byte-identity check: sharded == single-process")
    if args.live_log:
        print(f"run-event log written to {args.live_log}")
    if args.perfetto:
        from .dist.merge import shard_perfetto_trace
        from .obs.live import read_log

        trace = shard_perfetto_trace(recorder, read_log(args.live_log))
        write_perfetto(trace, args.perfetto)
        print(
            f"cross-shard perfetto trace written to {args.perfetto} "
            f"({len(trace['traceEvents'])} events)"
        )
    print(
        f"sent={r.sent} delivered={r.delivered} ({r.delivery_ratio:.1%}) "
        f"no_route={r.drops_no_route} ttl={r.drops_ttl} "
        f"link_down={r.drops_link_down} queue={r.drops_queue}"
    )
    print(
        f"forwarding convergence={r.forwarding_convergence:.3f}s "
        f"routing convergence={r.routing_convergence:.3f}s "
        f"messages={r.messages}"
    )
    if args.validate:
        if r.violations:
            print(f"INVARIANT VIOLATIONS ({len(r.violations)}):")
            for v in r.violations:
                print(f"  {v}")
            return 1
        skipped = len(r.monitor_skips or {})
        print(f"offline invariants: all green ({skipped} monitor(s) skipped)")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    config = _config(args)
    if args.matrix:
        config = config.with_(protocols=MATRIX_PROTOCOLS)
    row = ROWS[args.id]
    print(format_row(row, evaluate(row, config), config))
    return 0


def _checkpoint_errors(command):
    """Ctrl-C (exit 130) or a dead pool worker (exit 1) in a command that
    sweeps into ``--checkpoint`` says where the completed seeds are, in one
    stderr line.  A checkpoint of another configuration is an
    ``ArtifactError`` like any unreadable artifact: see :func:`main`.
    """

    @functools.wraps(command)
    def guarded(args: argparse.Namespace) -> int:
        try:
            return command(args)
        except KeyboardInterrupt:
            why, status = "\ninterrupted", 130
        except Exception as exc:
            # Imported here: serial sweeps never load the pool machinery.
            from concurrent.futures.process import BrokenProcessPool

            if not isinstance(exc, BrokenProcessPool):
                raise
            why, status = "a pool worker died", 1
        if getattr(args, "checkpoint", None):
            print(
                f"{why}; completed seeds are checkpointed in "
                f"{args.checkpoint!r} — rerun with --checkpoint "
                f"{args.checkpoint} to continue",
                file=sys.stderr,
            )
        else:
            print(
                f"{why}; nothing checkpointed (use --checkpoint DIR "
                "to make this resumable)",
                file=sys.stderr,
            )
        return status

    return guarded


@_checkpoint_errors
def _cmd_sweep(args: argparse.Namespace) -> int:
    store = None
    if getattr(args, "resume", False) and not getattr(args, "checkpoint", None):
        print("error: --resume requires --checkpoint DIR", file=sys.stderr)
        return 2
    if getattr(args, "checkpoint", None):
        from .experiments.store import SweepStore

        store = SweepStore(args.checkpoint)
    if getattr(args, "resume", False):
        config = store.load_config()  # no manifest there is an ArtifactError
    else:
        config = _config(args)

    progress = None
    if getattr(args, "progress", False):
        def progress(done: int, total: int, message: str) -> None:
            print(f"[{done}/{total}] {message}")

    results = run_sweep(
        config,
        workers=getattr(args, "workers", 1),
        store=store,
        progress=progress,
        live_log=getattr(args, "live_log", None),
    )
    if getattr(args, "save", None):
        from .experiments.persistence import save_points

        save_points(results, args.save)
        print(f"results written to {args.save}")
    print(
        f"{'protocol':>9} {'degree':>7} {'drops(no_route)':>16} {'ttl':>6} "
        f"{'fwd_conv(s)':>12} {'rt_conv(s)':>11} {'delivery':>9}"
    )
    for (protocol, degree), point in sorted(results.items()):
        print(
            f"{protocol:>9} {degree:>7} {point.mean_drops_no_route:>16.1f} "
            f"{point.mean_drops_ttl:>6.1f} {point.mean_forwarding_convergence:>12.2f} "
            f"{point.mean_routing_convergence:>11.2f} {point.mean_delivery_ratio:>9.3f}"
        )
    n_failures = sum(len(p.failures) for p in results.values())
    if n_failures:
        print(f"\n{n_failures} seed(s) failed:")
        for _, point in sorted(results.items()):
            for failure in point.failures:
                print(f"  {failure}")
    return 0


def _cmd_topology(args: argparse.Namespace) -> int:
    from .topology.mesh import interior_nodes, regular_mesh
    from .topology.render import render_mesh
    from .topology.validate import degree_histogram

    topo = regular_mesh(args.rows, args.cols, args.degree)
    interior = interior_nodes(topo, args.rows, args.cols)
    print(f"{topo.name}: {topo.n_nodes} nodes, {topo.n_links} links")
    print(f"interior nodes: {len(interior)} (degree {args.degree})")
    print(f"degree histogram: {sorted(degree_histogram(topo).items())}")
    print(f"connected: {topo.is_connected()}")
    print()
    print(render_mesh(topo, args.rows, args.cols))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validation.fuzz import fuzz, shrink
    from .validation.oracle import run_differential

    failed = False

    print(f"fuzz: {args.seeds} cases from master seed {args.master_seed}")
    report = fuzz(args.master_seed, args.seeds)
    for outcome in report.outcomes:
        if not outcome.failed:
            continue
        failed = True
        print(f"  FAIL {outcome.case.describe()}")
        if outcome.error:
            print(f"       crashed: {outcome.error}")
        for v in outcome.violations[:5]:
            print(f"       {v}")
        if len(outcome.violations) > 5:
            print(f"       ... and {len(outcome.violations) - 5} more")
        minimal = shrink(outcome.case)
        print(f"       minimal repro: {minimal.as_dict()}")
    print(f"  {report.summary()}")

    if not args.skip_oracle:
        from .validation.oracle import DEFAULT_PROTOCOLS

        print(
            f"differential oracle: protocols={','.join(DEFAULT_PROTOCOLS)} "
            f"degrees={args.degrees} x {args.oracle_seeds} seed(s)"
        )
        for degree in args.degrees:
            for seed in range(1, args.oracle_seeds + 1):
                diff = run_differential(degree, seed)
                print(f"  {diff.summary()}")
                if not diff.ok:
                    failed = True
                    for v in diff.all_violations()[:10]:
                        print(f"       {v}")

    if getattr(args, "churn", False):
        from .routing.catalog import settle_margin
        from .validation.oracle import run_churn_differential

        manet = ("aodv", "dsr", "olsr")
        settle = max(settle_margin(p) for p in manet) + 17.0
        models = ("waypoint", "manhattan")
        print(
            f"churn oracle: protocols={','.join(manet)} models={models} "
            f"x {args.churn_seeds} seed(s), settle tail {settle:g}s"
        )
        for model in models:
            for seed in range(1, args.churn_seeds + 1):
                cfg = ExperimentConfig.quick().with_(
                    post_fail_window=40.0 + settle,
                    churn=ChurnConfig(model=model, settle_time=settle),
                )
                diff = run_churn_differential(seed, cfg)
                print(f"  {model} {diff.summary()}")
                if not diff.ok:
                    failed = True
                    for v in diff.all_violations()[:10]:
                        print(f"       {v}")

    print("validation FAILED" if failed else "validation OK")
    return 1 if failed else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import os
    import tempfile

    from .obs import RunObservation
    from .obs.live import RunEventLog, check_log, format_live, read_log, summarize_log

    config = _config(args)
    sweep_seeds = args.sweep_seeds
    if args.smoke:
        config = config.with_(runs=1, post_fail_window=30.0)
        sweep_seeds = sweep_seeds or 2

    meta = {
        "protocol": args.protocol,
        "degree": args.degree,
        "seed": args.seed,
        "profile": "paper" if args.paper_scale else "quick",
        "smoke": bool(args.smoke),
        "memory": bool(args.memory),
    }
    with tempfile.TemporaryDirectory() as scratch:
        path = args.out or os.path.join(scratch, "profile.log")
        with RunEventLog(path, run="scenario", meta=meta) as log:
            obs = RunObservation(trace_memory=args.memory)
            result = run_scenario(
                args.protocol, args.degree, args.seed, config, obs=obs, live_log=log
            )
            if sweep_seeds:
                run_sweep(
                    config.with_(
                        protocols=(args.protocol,),
                        degrees=(args.degree,),
                        runs=sweep_seeds,
                    ),
                    workers=args.workers,
                    live_log=log,
                )
        records = read_log(path)

    outcome = {
        "protocol": result.protocol,
        "degree": result.degree,
        "seed": result.seed,
        "sent": result.sent,
        "delivered": result.delivered,
        "total_drops": result.total_drops,
        "forwarding_convergence_s": result.forwarding_convergence,
        "routing_convergence_s": result.routing_convergence,
    }
    print("profile: " + " ".join(f"{k}={v}" for k, v in outcome.items()))
    print(format_live(summarize_log(records)))
    problems = check_log(records)
    if problems:
        print("\nlog failed its self-check:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .experiments.persistence import scenario_to_dict
    from .experiments.scenario import replay
    from .obs.flight import (
        FlightRecorder,
        build_dump,
        check_dump,
        format_autopsy,
        format_causal_timeline,
        load_dump,
        packet_autopsies,
        packet_autopsy,
        perfetto_trace,
        save_dump,
        write_perfetto,
    )

    if args.dump:
        ticket = load_dump(args.dump)
        try:
            result, recorder = replay(ticket)
        except ArtifactError as exc:
            raise ArtifactError(f"flight dump {args.dump!r}: {exc}") from exc
        run, config = ticket["run"], ExperimentConfig.from_dict(ticket["config"])
        print(f"replayed flight dump {args.dump}: the re-run reproduces its result")
    else:
        run, config = "scenario", _config(args)
        if args.smoke:
            config = config.with_(post_fail_window=30.0)
            if not args.out:
                args.out = "trace-smoke-dump.json"
        recorder = FlightRecorder()
        result = run_scenario(
            args.protocol, args.degree, args.seed, config, recorder=recorder
        )
    packets = recorder.records("packet")
    routes = recorder.records("route")
    links = recorder.records("link")
    messages = recorder.records("message")
    origin = config.fail_time + (config.cold_warmup if config.cold_start else 0.0)
    print(
        f"protocol={result.protocol} degree={result.degree} "
        f"seed={result.seed}: sent={result.sent} "
        f"delivered={result.delivered} drops={result.total_drops}"
    )
    print(
        f"recorded: {len(packets)} packet, {len(routes)} route, "
        f"{len(links)} link, {len(messages)} message record(s)"
    )
    failure = next((e for e in result.events if e.kind == "fail"), None)
    print(
        f"flow: host {result.sender} -> host {result.receiver}"
        + (f"; failing {failure.link} at t={failure.time:g}" if failure else "")
    )
    if result.violations:
        print("violations:")
        for v in result.violations:
            print(f"  {v}")

    if args.packet is not None:
        try:
            autopsy = packet_autopsy(packets, args.packet, routes)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 1
        print()
        print(format_autopsy(autopsy, origin=origin))
    show_default = args.packet is None and not args.timeline
    if args.timeline or show_default:
        timeline = recorder.timeline(
            since=origin or None, dest=result.receiver, src=result.sender
        )
        print(f"\nCausal convergence timeline (t=0 at failure; toward host "
              f"{result.receiver}):\n")
        print(format_causal_timeline(timeline, origin=origin))
        if len(result.events) > 1:
            print("  per-event reconvergence waves:")
            for e in result.events:
                wave = "quiet" if e.wave_start is None else (
                    f"FIB changes t={e.wave_start - origin:+.3f}s .. "
                    f"t={e.wave_end - origin:+.3f}s"
                )
                print(f"    t={e.time - origin:+8.3f}s {e.kind} {e.link}: {wave}")
    if show_default:
        # The forensically interesting packets: dropped or looped.
        cases = [
            a
            for a in packet_autopsies(packets, routes).values()
            if a.outcome == "dropped" or a.loop is not None
        ]
        if cases:
            print(f"\n{len(cases)} dropped/looped packet(s); autopsies:\n")
            for autopsy in cases[:3]:
                print(format_autopsy(autopsy, origin=origin))
                print()
            if len(cases) > 3:
                print(f"... {len(cases) - 3} more; use --packet ID")

    rc = 0
    if args.out:
        ticket = build_dump(
            run, result.protocol, result.degree, result.seed, config,
            scenario_to_dict(result),
        )
        save_dump(ticket, args.out)
        problems = check_dump(load_dump(args.out))
        if problems:
            print(f"{args.out} failed its dump self-check:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            rc = 1
        else:
            print(f"\nflight dump written to {args.out} (self-check ok)")
    if args.perfetto:
        write_perfetto(
            perfetto_trace(packets, routes, links, messages), args.perfetto
        )
        print(f"perfetto trace written to {args.perfetto}")
    return rc


def _cmd_watch(args: argparse.Namespace) -> int:
    from .obs.live import check_log, read_log, watch

    if args.check:
        records = read_log(args.log)
        problems = check_log(records)
        if problems:
            print(f"LOG SCHEMA PROBLEMS ({len(problems)}):")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"log schema: ok ({len(records)} records)")
    return watch(args.log, once=args.once, interval=args.interval)


@_checkpoint_errors
def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .experiments.campaign import reproduce

    config = _config(args)
    report = reproduce(
        config,
        out_dir=args.out,
        progress=True,
        workers=getattr(args, "workers", 1),
        checkpoint_dir=getattr(args, "checkpoint", None),
    )
    print(f"\nreport: {report.path('REPORT.md')}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "churn": _cmd_churn,
        "shard": _cmd_shard,
        "figure": _cmd_figure,
        "sweep": _cmd_sweep,
        "topology": _cmd_topology,
        "trace": _cmd_trace,
        "validate": _cmd_validate,
        "reproduce": _cmd_reproduce,
        "profile": _cmd_profile,
        "watch": _cmd_watch,
    }
    try:
        return handlers[args.command](args)
    except ArtifactError as exc:
        # A torn, half-written, wrong-shape, wrong-version or foreign file.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
