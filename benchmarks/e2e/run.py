"""End-to-end benchmark: four workloads, four user-visible numbers, layer attribution.

    python3 benchmarks/e2e/run.py [--seed 7] [--reps 5 | --seconds 15]
        [--workload NAME] [--trace 0|1] [--json OUT] [--smoke]
        [--expected FILE] [--update-expected]

Every workload runs in fresh child processes of this script (``PYTHONHASHSEED=0``,
``REPRO_EVENT_QUEUE`` refused), so import cost and peak RSS are per workload:

* *timed* child: set-up, one discarded warm-up pass, then timed passes with
  ``gc.collect()`` before each and the collector left **enabled**.  Pass ``k``
  runs the inputs drawn from ``(seed, k)``; the warm-up repeats pass 0.
* *set-up probes*: further fresh children that only set up, so ``setup_s`` is
  a median over processes rather than one sample.
* *traced* child (``--trace 1``): warm-up, one pass with the public read-outs
  attached (``obs=``, ``telemetry=``, ``live_log=``, ``registries=``), the
  direct timed probes, then one pass under cProfile with harness spans; it
  writes ``out/trace-<workload>.json``.

With ``--workload`` and ``--trace`` both given, the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
The exit code is non-zero when any operation failed or any output check missed.
See README.md for why each workload exists and how the layers map to metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOAD_NAMES = ("campaign", "dataplane", "churn_matrix", "shard_scale")
END_TO_END = {
    "setup_s": "s",
    "run_wall_s": "s",
    "run_cpu_s": "s",
    "peak_rss_mb": "MiB",
}

#: Seeds whose digests are pinned (7 is the working seed, 11 the hold-out no
#: change is tuned on) and how many passes of each are pinned.
PINNED_SEEDS = (7, 11)
PINNED_PASSES = 12
MIN_PASSES = 3
SETUP_PROBES = 4

#: Counters taken from ``scenario_to_dict`` of every result of a pass.
_RESULT_COUNTERS = {
    "traffic.sent": "sent",
    "traffic.delivered": "delivered",
    "net.drops_queue": "drops_queue",
    "net.drops_ttl": "drops_ttl",
    "net.drops_no_route": "drops_no_route",
    "net.drops_link_down": "drops_link_down",
    "routing.messages": "messages",
    "routing.withdrawals": "withdrawals",
}


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.cpu_share"] = "ratio"
        units[f"{layer}.calls"] = "count"
    for name in (
        "sim.events sim.cancelled_skipped sim.queue_depth_hwm net.packets_transmitted "
        "net.queue_depth_hwm mobility.topology_events validation.violations "
        "validation.monitor_skips experiments.pool_retries experiments.pool_timeouts "
        "dist.cut_links dist.windows dist.relays dist.fields_differing_vs_1shard"
    ).split() + list(_RESULT_COUNTERS):
        units[name] = "count"
    for phase in ("setup", "warmup", "steady", "failure", "convergence", "drain"):
        units[f"experiments.phase_{phase}_s"] = "s"
    for name in (
        "experiments.seed_s_p50 experiments.resume_noop_s experiments.save_points_s "
        "experiments.load_points_s dist.partition_s dist.lookahead_s "
        "dist.shards1_cpu_s dist.shards2_local_cpu_s dist.shards2_process_wall_s "
        "harness.warmup_rep_s harness.rep_wall_s harness.rep_cpu_s"
    ).split():
        units[name] = "s"
    units.update({
        "sim.cpu_us_per_event": "us",
        "experiments.seeds_per_s": "1/s",
        "experiments.pool_utilization": "ratio",
        "experiments.store_bytes": "bytes",
        "experiments.results_json_bytes": "bytes",
        "dist.speedup_2v1": "ratio",
        "dist.barrier_wait_frac": "ratio",
        "mem.rss_kb_per_node": "KiB",
        "harness.trace_overhead_ratio": "ratio",
        "harness.loadavg_start": "load",
    })
    return units


PER_LAYER = _per_layer_units()


# =========================================================================
# child: one workload in one fresh process
# =========================================================================


def _refuse_event_queue_override() -> None:
    if "REPRO_EVENT_QUEUE" in os.environ:
        raise SystemExit(
            "REPRO_EVENT_QUEUE must be unset: it changes the engine under test"
        )


def _cpu_now() -> float:
    """CPU seconds of this process plus its reaped children, user + system.

    ``os.times()`` has the same fields but ticks at 10 ms; these clocks
    resolve microseconds.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def _digest(outcomes: dict) -> str:
    payload = [
        {"op": name, "results": outcome.results, "extra": outcome.extra}
        for name, outcome in outcomes.items()
    ]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Pass:
    """One pass over a workload's ops: times, outcomes, and the check tally."""

    def __init__(self, workload, ctx, ops=None, label=None) -> None:
        from workloads import Outcome

        self.outcomes: dict = {}
        self.op_times: dict[str, dict[str, float]] = {}
        self.problems: list[str] = []
        gc.collect()
        cpu0, wall0 = _cpu_now(), time.perf_counter()
        with ctx.tracer.span(label or workload.name, "other"):
            for op in workload.ops if ops is None else ops:
                op_cpu0, op_wall0 = _cpu_now(), time.perf_counter()
                try:
                    with ctx.tracer.span(op.name, "other"):
                        outcome = op.run(ctx)
                except Exception as exc:  # an op that raises is a failed op
                    traceback.print_exc()
                    outcome = Outcome(checks=[(f"raised {exc!r}", False)])
                self.op_times[op.name] = {
                    "wall_s": time.perf_counter() - op_wall0,
                    "cpu_s": _cpu_now() - op_cpu0,
                }
                self.outcomes[op.name] = outcome
        self.wall_s = time.perf_counter() - wall0
        self.cpu_s = _cpu_now() - cpu0

        # Verification runs with the clock stopped.
        self.attempted = 0
        self.failed = 0
        for name, outcome in self.outcomes.items():
            if outcome.finish is not None:
                try:
                    outcome.finish()
                except Exception as exc:
                    traceback.print_exc()
                    outcome.checks.append((f"verification raised {exc!r}", False))
            for result in outcome.results:
                drops = sum(result[key] for key in result if key.startswith("drops_"))
                sent = result["sent"]
                ok = sent > 0 and result["delivered"] + drops <= sent
                outcome.checks.append(("sent > 0 and delivered + drops <= sent", ok))
            self.attempted += len(outcome.checks)
            for what, ok in outcome.checks:
                if not ok:
                    self.failed += 1
                    self.problems.append(f"{name}: {what}")
        self.digest = _digest(self.outcomes)

    def expect(self, digest, what: str) -> None:
        """One more check: this pass's digest equals ``digest`` (if pinned)."""
        if digest is None:
            return
        self.attempted += 1
        if digest != self.digest:
            self.failed += 1
            self.problems.append(f"digest {self.digest[:12]} != {what} {digest[:12]}")

    def summary(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "digest": self.digest,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
        }


def _pinned_digests(args) -> list[str]:
    """The pinned digests of this workload and seed, pass by pass (may be empty)."""
    with open(args.expected, encoding="utf-8") as f:
        expected = json.load(f)
    pins = expected.get("smoke" if args.smoke else "full", {})
    return pins.get(args.workload, {}).get(str(args.seed), [])


def _readouts(workload, observed: Pass) -> dict[str, float]:
    """Fold one observed pass into per-layer counter and timing metrics."""
    out: dict[str, float] = {}
    for outcome in observed.outcomes.values():
        for name, value in outcome.readouts.items():
            if name.endswith("_hwm"):
                out[name] = max(out.get(name, 0), value)
            else:
                out[name] = out.get(name, 0) + value
        for result in outcome.results:
            for name, key in _RESULT_COUNTERS.items():
                out[name] = out.get(name, 0) + result[key]
            out["validation.violations"] = (
                out.get("validation.violations", 0) + len(result["violations"])
            )
            out["validation.monitor_skips"] = (
                out.get("validation.monitor_skips", 0) + len(result["monitor_skips"])
            )
    for op in workload.ops:
        for kind, name in op.timings.items():
            out[name] = observed.op_times[op.name][kind]
    if hasattr(workload, "derive"):
        workload.derive(observed.outcomes, out)
    events = out.get("sim.events", 0)
    out["sim.cpu_us_per_event"] = observed.cpu_s / events * 1e6 if events else 0.0
    out["harness.rep_wall_s"] = observed.wall_s
    out["harness.rep_cpu_s"] = observed.cpu_s
    return out


def child_main(args) -> int:
    born = time.perf_counter()
    loadavg = os.getloadavg()[0]
    _refuse_event_queue_override()
    sys.path.insert(0, SRC)
    import workloads  # imports repro
    from tracing import Tracer, fold_profile

    rss_after_import = _peak_rss_mb()
    first = workloads.build(args.workload, args.seed, 0, args.smoke)
    report: dict = {"setup_s": time.perf_counter() - born}

    def finish() -> int:
        with open(args.result, "w", encoding="utf-8") as f:
            json.dump(report, f)
        return 0

    if args.child == "setup":
        return finish()

    plain = workloads.Context(Tracer(False), args.tmp, observe=False, inprocess=False)
    if args.child == "pin":
        report["digests"] = [
            Pass(workloads.build(args.workload, args.seed, k, args.smoke), plain).digest
            for k in range(1 if args.smoke else PINNED_PASSES)
        ]
        return finish()

    pins = _pinned_digests(args)
    # Only summaries outlive a pass: retained results would make peak RSS
    # grow with the number of passes.
    warmup = Pass(first, plain).summary()

    if args.child == "timed":
        passes: list[dict] = []
        started = time.perf_counter()
        while True:
            k = len(passes)
            workload = first if k == 0 else workloads.build(
                args.workload, args.seed, k, args.smoke
            )
            this = Pass(workload, plain)
            this.expect(pins[k] if k < len(pins) else None, "pinned")
            if k == 0:
                this.expect(warmup["digest"], "warm-up")
            passes.append(this.summary())
            if args.reps:
                if len(passes) >= args.reps:
                    break
            elif len(passes) >= MIN_PASSES and (
                # Stop once the box is full; start a pass only if at least
                # half of it still fits.
                time.perf_counter() - started + this.wall_s / 2 > args.seconds
            ):
                break
        report["passes"] = passes
        report["peak_rss_mb"] = _peak_rss_mb()
        return finish()

    # --- traced: observed pass, probes, then one pass under cProfile -------
    import cProfile

    observed = Pass(
        first,
        workloads.Context(Tracer(False), args.tmp, observe=True, inprocess=False),
    )
    observed.expect(pins[0] if pins else None, "pinned")
    observed.expect(warmup["digest"], "warm-up")
    rss_after_observed = _peak_rss_mb()
    metrics = _readouts(first, observed)
    n_nodes = getattr(first, "n_nodes", 0)
    metrics["mem.rss_kb_per_node"] = (
        (rss_after_observed - rss_after_import) * 1024.0 / n_nodes if n_nodes else 0.0
    )

    tracer = Tracer(True)
    tracing = workloads.Context(tracer, args.tmp, observe=True, inprocess=True)
    probes = Pass(first, tracing, ops=first.probes, label="probes")
    for outcome in probes.outcomes.values():
        metrics.update(outcome.readouts)
    profile = cProfile.Profile()
    profile.enable()
    traced = Pass(first, tracing)
    profile.disable()
    # In-process forms must reproduce the multi-process results exactly.
    traced.expect(observed.digest, "observed")
    folded = fold_profile(profile)
    total = sum(layer["self_s"] for layer in folded.values())
    for layer, cell in folded.items():
        metrics[f"{layer}.cpu_share"] = cell["self_s"] / total if total else 0.0
        metrics[f"{layer}.calls"] = cell["calls"]
    metrics["harness.warmup_rep_s"] = warmup["wall_s"]
    metrics["harness.trace_overhead_ratio"] = (
        traced.cpu_s / observed.cpu_s if observed.cpu_s else 0.0
    )
    metrics["harness.loadavg_start"] = loadavg
    report["per_layer"] = {name: metrics.get(name, 0) for name in PER_LAYER}
    report["passes"] = [p.summary() for p in (observed, probes, traced)]
    report["trace"] = {
        "traceEvents": tracer.chrome_events(),
        "layers": folded,
        "note": (
            "pool and process-exchange variants were traced in their in-process "
            "form (workers=1, exchange=local), result-identical by the repo's "
            "determinism contract"
        ),
    }
    return finish()


# =========================================================================
# parent: spawn children, aggregate, report
# =========================================================================


def _environment() -> dict:
    def quiet(cmd):
        try:
            return subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            return None

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_commit": quiet(["git", "rev-parse", "HEAD"]),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "loadavg_start": os.getloadavg()[0],
    }


def _spawn(args, mode: str, workload: str, tmp_root: str) -> dict:
    """Run one child to completion and return its report."""
    tmp = tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=tmp_root)
    result = os.path.join(tmp, "result.json")
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--child", mode, "--workload", workload, "--seed", str(args.seed),
        "--tmp", tmp, "--result", result, "--expected", args.expected,
    ]
    if args.smoke:
        cmd.append("--smoke")
    if args.reps:
        cmd += ["--reps", str(args.reps)]
    else:
        cmd += ["--seconds", str(args.seconds)]
    # No bytecode is written, so a run leaves nothing behind in src/ and every
    # child pays the same import cost whichever run came first.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, HERE, os.environ.get("PYTHONPATH")) if p
    )
    # Children keep stdout for nothing: the result travels through a file.
    done = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: {mode} child exited with {done.returncode}")
    with open(result, encoding="utf-8") as f:
        report = json.load(f)
    shutil.rmtree(tmp, ignore_errors=True)
    return report


def _stat(values: list[float], center=statistics.median) -> dict:
    return {
        "value": center(values),
        "center": center.__name__,
        "n": len(values),
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def run_workload(args, workload: str, tmp_root: str) -> dict:
    out: dict = {"attempted": 0, "failed": 0, "problems": []}

    def tally(report: dict) -> None:
        for item in report["passes"]:
            out["attempted"] += item["attempted"]
            out["failed"] += item["failed"]
            out["problems"] += item["problems"]

    if args.trace in (None, 0):
        probes = 0 if args.smoke else SETUP_PROBES
        setups = [
            _spawn(args, "setup", workload, tmp_root)["setup_s"]
            for _ in range(probes)
        ]
        timed = _spawn(args, "timed", workload, tmp_root)
        tally(timed)
        out["end_to_end"] = {
            "setup_s": _stat(setups + [timed["setup_s"]]),
            # Passes run different inputs, so their mean (time per pass over
            # everything measured) uses every sample; a median of five would
            # throw most of the input variation it is meant to average away.
            "run_wall_s": _stat(
                [p["wall_s"] for p in timed["passes"]], statistics.mean
            ),
            "run_cpu_s": _stat([p["cpu_s"] for p in timed["passes"]], statistics.mean),
            "peak_rss_mb": _stat([timed["peak_rss_mb"]]),
        }
        for name, cell in out["end_to_end"].items():
            cell["unit"] = END_TO_END[name]
        out["digests"] = [p["digest"] for p in timed["passes"]]
        out["attempted_per_pass"] = [p["attempted"] for p in timed["passes"]]
    if args.trace in (None, 1):
        traced = _spawn(args, "traced", workload, tmp_root)
        tally(traced)
        out["per_layer"] = {
            name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in traced["per_layer"].items()
        }
        trace_path = os.path.join(OUT_DIR, f"trace-{workload}.json")
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump(traced["trace"], f)
        out["trace_file"] = os.path.relpath(trace_path, ROOT)
    return out


def _print_workload(workload: str, result: dict) -> None:
    print(f"== {workload}: {result['attempted']} checked, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"   FAILED {problem}")
    for name, cell in result.get("end_to_end", {}).items():
        print(
            f"   {name:<44} {cell['value']:>14.6g} {cell['unit']:<6}"
            f" {cell['center']} of n={cell['n']}"
            f" (min {cell['min']:.6g}, max {cell['max']:.6g})"
        )
    if "end_to_end" in result:
        print("   (n < 20: no tail percentile is supportable, so none is reported)")
    for name, cell in result.get("per_layer", {}).items():
        if cell["value"]:
            shown = cell["value"] if cell["unit"] == "count" else f"{cell['value']:.6g}"
            print(f"   {name:<44} {shown:>14} {cell['unit']}")
    if "per_layer" in result:
        silent = sum(1 for cell in result["per_layer"].values() if not cell["value"])
        print(f"   ({silent} per-layer metrics read 0 here and are not listed;")
        print("    pool/process variants were traced in their in-process form)")


def update_expected(args, tmp_root: str) -> int:
    expected: dict = {"full": {}, "smoke": {}}
    for scale, smoke in (("full", False), ("smoke", True)):
        for workload in WORKLOAD_NAMES:
            for seed in PINNED_SEEDS:
                pin_args = argparse.Namespace(
                    **{**vars(args), "smoke": smoke, "seed": seed}
                )
                digests = _spawn(pin_args, "pin", workload, tmp_root)["digests"]
                expected[scale].setdefault(workload, {})[str(seed)] = digests
                print(f"pinned {scale} {workload} seed {seed}: {len(digests)} passes")
    with open(args.expected, "w", encoding="utf-8") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="default: all four")
    parser.add_argument("--seed", type=int, default=7, help="generates the inputs")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure passes for this long (at least %d)" % MIN_PASSES)
    parser.add_argument("--reps", type=int, default=0,
                        help="measure exactly this many passes instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only; 1: per-layer only; default: both")
    parser.add_argument("--json", help="write the full report here")
    parser.add_argument("--smoke", action="store_true",
                        help="one pass over a shrunken grid (self-tests)")
    parser.add_argument("--expected", default=EXPECTED, help="pinned digests")
    parser.add_argument("--update-expected", action="store_true",
                        help="re-pin the digests of seeds 7 and 11 and exit")
    parser.add_argument("--child", choices=("setup", "timed", "traced", "pin"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--tmp", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.reps = 1
    elif args.reps and args.reps < MIN_PASSES:
        parser.error(f"--reps must be at least {MIN_PASSES}")
    if args.child:
        return child_main(args)

    _refuse_event_queue_override()
    started = time.perf_counter()
    env = _environment()
    noisy = env["loadavg_start"] > (env["nproc"] or 1) / 2
    if noisy:
        print(
            f"warning: 1-min load average {env['loadavg_start']:.2f} exceeds nproc/2; "
            "timings are marked noisy",
            file=sys.stderr,
        )
    os.makedirs(OUT_DIR, exist_ok=True)
    # Everything the run writes lives under one root inside the checkout and
    # is removed on exit; only out/trace-*.json stays.
    tmp_root = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if args.update_expected:
            return update_expected(args, tmp_root)
        names = (args.workload,) if args.workload else WORKLOAD_NAMES
        results = {}
        for workload in names:
            results[workload] = run_workload(args, workload, tmp_root)
            _print_workload(workload, results[workload])
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    failed = sum(r["failed"] for r in results.values())
    attempted = sum(r["attempted"] for r in results.values())
    report = {
        "schema": 1,
        "env": env,
        "noisy": noisy,
        "seed": args.seed,
        "reps": args.reps or None,
        "seconds": None if args.reps else args.seconds,
        "smoke": args.smoke,
        "wall_total_s": time.perf_counter() - started,
        "ops_total": attempted,
        "ops_failed": failed,
        "workloads": results,
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
    if args.workload and args.trace is not None:
        cells = results[args.workload]["end_to_end" if args.trace == 0 else "per_layer"]
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": cell["value"], "unit": cell["unit"]}
                for name, cell in cells.items()
            },
        }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
