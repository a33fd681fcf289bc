"""Overhead benchmarks: routing-message overhead and observability overhead.

Two unrelated "overheads" live here:

* the paper's routing-message overhead during convergence (related work
  [28]'s metric) as a pytest benchmark — RIP/DBF pay a steady
  periodic-update tax plus triggered bursts; BGP variants send only on
  change, so their counts isolate the convergence traffic itself;
* the cost of the :mod:`repro.obs` observability layer itself, as a script
  harness: one DBF scenario timed with observation off (the default path),
  with a full :class:`~repro.obs.RunObservation` attached, with a
  :class:`~repro.obs.FlightRecorder` attached, and with a ``--live-log``
  run-event log streamed to disk.  Each delta is the price of
  instrumenting a run; the budget is a few percent (3 % is the target for
  the recorder, 2 % for the live log — see docs/tracing.md and
  docs/live.md for what they actually measure at)::

      PYTHONPATH=src python benchmarks/bench_overhead.py --json BENCH_obs.json
      PYTHONPATH=src python benchmarks/bench_overhead.py --smoke

Methodology: wall-clock best-of-N turned out to have a ~±4 % noise floor on
an otherwise idle box, which drowns a few-percent effect.  The harness
therefore measures CPU seconds (``time.process_time``) with the cyclic GC
pinned, runs the variants **interleaved** in rotating order within each
round so slow drift cancels, and reports the median of per-round
overhead ratios rather than a difference of independent minima.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import overhead_sweep
from repro.experiments.report import format_sweep_table
from repro.experiments.scenario import run_scenario


def test_overhead_sweep(benchmark, config):
    from conftest import run_once

    table = run_once(benchmark, overhead_sweep, config)
    print("\n" + format_sweep_table(table, precision=0))
    for degree in config.degrees:
        # Periodic protocols dominate the message count at every degree.
        assert table.value("rip", degree) > table.value("bgp3", degree)
        # Richer meshes mean more adjacencies, hence more periodic traffic.
    assert table.value("rip", max(config.degrees)) > table.value(
        "rip", min(config.degrees)
    ) * 0.5  # sanity: same order of magnitude


# ------------------------------------------------------------ script harness


_VARIANTS = ("off", "obs", "flight", "live")


def _scenario_cpu_seconds(post_fail_window: float, variant: str) -> float:
    """CPU seconds for one DBF scenario under one instrumentation variant.

    ``variant`` is ``"off"`` (the default zero-instrumentation path),
    ``"obs"`` (a full :class:`RunObservation`), ``"flight"`` (a
    :class:`FlightRecorder` keeping every record of every kind), or
    ``"live"`` (a ``--live-log`` run-event log streamed to a temp file —
    opening, writing, and flushing the log all land inside the timed
    region, since that is exactly what a logged run pays).
    """
    import os
    import tempfile

    from repro.obs import FlightRecorder, RunObservation

    cfg = ExperimentConfig.quick().with_(runs=1, post_fail_window=post_fail_window)
    obs = RunObservation() if variant == "obs" else None
    recorder = FlightRecorder() if variant == "flight" else None
    live_log = None
    if variant == "live":
        fd, live_log = tempfile.mkstemp(suffix=".runlog")
        os.close(fd)
    gc.collect()
    started = time.process_time()
    result = run_scenario(
        "dbf", 4, 1, cfg, obs=obs, recorder=recorder, live_log=live_log
    )
    elapsed = time.process_time() - started
    assert result.delivered > 0
    if recorder is not None:
        assert len(recorder.records("packet")) > 0
    if live_log is not None:
        from repro.obs.live import check_log, read_log

        assert check_log(read_log(live_log)) == []
        os.unlink(live_log)
    return elapsed


def _measure(post_fail_window: float, rounds: int) -> dict[str, float]:
    """Interleaved paired measurement of all variants.

    Every round times all three variants back to back, rotating the order
    each round so monotone machine drift biases no variant; per-round
    overhead ratios against that round's own baseline cancel the drift
    entirely.  Returns median seconds per variant plus median overhead
    percentages.
    """
    rounds = max(1, rounds)
    gc.disable()
    try:
        for variant in _VARIANTS:  # warm caches, import costs, allocator
            _scenario_cpu_seconds(post_fail_window, variant)
        times: dict[str, list[float]] = {v: [] for v in _VARIANTS}
        ratios: dict[str, list[float]] = {v: [] for v in _VARIANTS[1:]}
        for i in range(rounds):
            shift = i % len(_VARIANTS)
            order = _VARIANTS[shift:] + _VARIANTS[:shift]
            sample = {}
            for variant in order:
                sample[variant] = _scenario_cpu_seconds(post_fail_window, variant)
                times[variant].append(sample[variant])
            for variant in ratios:
                ratios[variant].append(sample[variant] / sample["off"])
    finally:
        gc.enable()
    out = {f"{v}_s": statistics.median(times[v]) for v in _VARIANTS}
    for variant, rs in ratios.items():
        out[f"{variant}_pct"] = (statistics.median(rs) - 1.0) * 100.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="observability-layer overhead on one DBF scenario"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny workload: a CI sanity check, not a measurement",
    )
    parser.add_argument("--json", metavar="PATH", help="write results as JSON")
    parser.add_argument(
        "--repeat", type=int, default=15,
        help="measurement rounds (each times every variant once)",
    )
    args = parser.parse_args(argv)

    window = 4.0 if args.smoke else 40.0
    rounds = 1 if args.smoke else args.repeat
    m = _measure(window, rounds)
    baseline_s, observed_s, flight_s = m["off_s"], m["obs_s"], m["flight_s"]
    overhead_pct, flight_pct = m["obs_pct"], m["flight_pct"]
    live_s, live_pct = m["live_s"], m["live_pct"]

    print(f"{'baseline (obs off)':>24}: {baseline_s:.4f} s")
    print(f"{'observed (obs on)':>24}: {observed_s:.4f} s")
    print(f"{'recorded (flight on)':>24}: {flight_s:.4f} s")
    print(f"{'logged (live log on)':>24}: {live_s:.4f} s")
    print(f"{'obs overhead':>24}: {overhead_pct:+.2f} %")
    print(f"{'flight overhead':>24}: {flight_pct:+.2f} %")
    print(f"{'live-log overhead':>24}: {live_pct:+.2f} %")

    if args.json:
        payload = {
            "meta": {"smoke": args.smoke, "rounds": rounds,
                     "clock": "process_time",
                     "statistic": "median of per-round paired ratios",
                     "post_fail_window_s": window},
            "benchmarks": {
                "scenario_obs_off": {
                    "value": baseline_s, "unit": "s", "higher_is_better": False,
                },
                "scenario_obs_on": {
                    "value": observed_s, "unit": "s", "higher_is_better": False,
                },
                "scenario_flight_on": {
                    "value": flight_s, "unit": "s", "higher_is_better": False,
                },
                "obs_overhead_pct": {
                    "value": overhead_pct, "unit": "%", "higher_is_better": False,
                },
                "flight_overhead_pct": {
                    "value": flight_pct, "unit": "%", "higher_is_better": False,
                },
                "scenario_live_on": {
                    "value": live_s, "unit": "s", "higher_is_better": False,
                },
                "live_overhead_pct": {
                    "value": live_pct, "unit": "%", "higher_is_better": False,
                },
            },
        }
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())