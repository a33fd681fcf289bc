"""Compare two ``run.py --json`` reports made with the same ``--seed``.

    python3 benchmarks/e2e/compare.py BASE.json NEW.json [--sets]

One row per workload x end-to-end metric: both values, the ratio new/base
(the base is printed beside it), the metric's bound, and a verdict.

The bounds here are tighter than those in BENCHMARK.json.  Those are sized for
runs made with different seeds, whose inputs differ; two reports of one seed
ran identical inputs pass for pass and repeat within 1-2 %, so they are held
to ``run_cpu_s`` 5 %, ``run_wall_s`` 10 %, ``peak_rss_mb`` 5 % and ``setup_s``
10 % or 50 ms, whichever is larger.

* ``run_wall_s`` / ``run_cpu_s`` are compared pass by pass: pass ``k`` of both
  reports ran the same inputs, so the ratio is the median of the paired
  per-pass ratios and the spread is how far those ratios disagree.
* ``setup_s`` / ``peak_rss_mb`` are compared by their medians; the spread is
  the wider of the two sides' (max - min) / median.

Verdicts: ``ok``; ``regressed`` (worse than the bound); ``unresolved`` (the
run-to-run spread is wider than the bound, so neither can be said, unless
every new reading is better than its base).  With ``--sets`` the two reports
are two sets of the *same* code and each row must agree within the bound in
either direction (``disagree`` otherwise).  ``ops_total`` must not change and
``ops_failed`` must not rise.  Exit 1 on any ``regressed`` / ``disagree`` /
ops row that moved.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

BOUNDS = {"setup_s": 0.10, "run_wall_s": 0.10, "run_cpu_s": 0.05, "peak_rss_mb": 0.05}
PAIRED = ("run_wall_s", "run_cpu_s")
#: Differences below these are never a regression, whatever the share.
ABSOLUTE_FLOOR = {"setup_s": 0.050}


def compare_metric(name: str, base: dict, new: dict, bound: float, sets: bool) -> dict:
    """One row: ratio, spread and verdict for one workload x metric."""
    if name in PAIRED:
        ratios = [n / b for b, n in zip(base["values"], new["values"])]
        ratio = statistics.median(ratios)
        spread = (max(ratios) - min(ratios)) / ratio
        all_better = all(r < 1.0 for r in ratios)
    else:
        ratio = new["value"] / base["value"]
        spread = max(
            (side["max"] - side["min"]) / side["value"] for side in (base, new)
        )
        all_better = max(new["values"]) < min(base["values"])
    small = abs(new["value"] - base["value"]) <= ABSOLUTE_FLOOR.get(name, 0.0)
    if sets:
        verdict = "ok" if small or abs(ratio - 1.0) <= bound else "disagree"
    elif spread > bound and not small:
        verdict = "ok" if all_better else "unresolved"
    else:
        verdict = "ok" if small or ratio - 1.0 <= bound else "regressed"
    return {
        "base": base["value"],
        "new": new["value"],
        "unit": base["unit"],
        "ratio": ratio,
        "spread": spread,
        "bound": bound,
        "verdict": verdict,
    }


def compare(base: dict, new: dict, sets: bool, bounds=BOUNDS) -> list[dict]:
    rows = []
    for workload, base_w in base["workloads"].items():
        new_w = new["workloads"].get(workload)
        if new_w is None or "end_to_end" not in base_w or "end_to_end" not in new_w:
            continue
        for name, bound in bounds.items():
            row = compare_metric(
                name, base_w["end_to_end"][name], new_w["end_to_end"][name], bound, sets
            )
            rows.append({"workload": workload, "metric": name, **row})
        # Passes beyond the shorter report ran inputs the other never saw.
        base_ops, new_ops = base_w["attempted_per_pass"], new_w["attempted_per_pass"]
        common = min(len(base_ops), len(new_ops))
        ops = {
            "ops_total": (
                sum(base_ops[:common]),
                sum(new_ops[:common]),
                lambda b, n: n == b,
            ),
            "ops_failed": (base_w["failed"], new_w["failed"], lambda b, n: n <= b),
        }
        for name, (b, n, holds) in ops.items():
            rows.append({
                "workload": workload, "metric": name, "base": b, "new": n,
                "unit": "count", "ratio": None, "spread": None, "bound": 0,
                "verdict": "ok" if holds(b, n) else "regressed",
            })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--sets", action="store_true",
                        help="two sets of the same code: require agreement both ways")
    args = parser.parse_args(argv)
    try:
        with open(args.base, encoding="utf-8") as f:
            base = json.load(f)
        with open(args.new, encoding="utf-8") as f:
            new = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = compare(base, new, args.sets)
    if not rows:
        print("no workload with end-to-end metrics in both reports", file=sys.stderr)
        return 2
    print(f"{'workload':<13} {'metric':<12} {'base':>10} {'new':>10} "
          f"{'new/base':>22} {'bound':>6} {'spread':>7}  verdict")
    for row in rows:
        if row["ratio"] is None:
            ratio, bound, spread = "", "exact", ""
        else:
            ratio = f"{row['ratio']:.3f} of {row['base']:.4g} {row['unit']}"
            bound, spread = f"{row['bound']:.0%}", f"{row['spread']:.1%}"
        print(f"{row['workload']:<13} {row['metric']:<12} {row['base']:>10.4g} "
              f"{row['new']:>10.4g} {ratio:>22} {bound:>6} {spread:>7}  "
              f"{row['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("regressed", "disagree")]
    unresolved = sum(1 for r in rows if r["verdict"] == "unresolved")
    print(f"{len(rows)} rows: {len(bad)} failing, {unresolved} unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
