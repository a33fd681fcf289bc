"""Self-tests of the end-to-end benchmark, at its ``--smoke`` scale.

Run explicitly (tier-1 collects ``tests/`` only)::

    python -m pytest benchmarks/e2e/tests -q

``--smoke`` is one pass over a shrunken grid: a 200-node ``shard_scale``, a
3-protocol ``churn_matrix``, a 50 pkt/s ``dataplane`` and a 1-degree
``campaign``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

E2E = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(E2E))
RUN = os.path.join(E2E, "run.py")
sys.path.insert(0, E2E)

import compare  # noqa: E402
import run as bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    DECLARED = json.load(_f)
END_TO_END = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}


def _run(*argv, check=True):
    done = subprocess.run(
        [sys.executable, RUN, *argv], cwd=ROOT, capture_output=True, text=True
    )
    if check:
        assert done.returncode == 0, done.stdout + done.stderr
    return done


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One full smoke run (timed + traced children for every workload)."""
    path = tmp_path_factory.mktemp("smoke") / "report.json"
    started = time.perf_counter()
    _run("--smoke", "--json", str(path))
    elapsed = time.perf_counter() - started
    with open(path, encoding="utf-8") as f:
        return json.load(f), elapsed


def test_smoke_finishes_within_a_minute(smoke):
    report, elapsed = smoke
    assert elapsed < 60.0
    assert report["ops_failed"] == 0 and report["ops_total"] > 0
    assert {"git_commit", "python", "nproc", "cpu_model", "loadavg_start"} <= set(
        report["env"]
    )
    assert isinstance(report["noisy"], bool)


def test_names_agree_between_benchmark_json_and_run_py():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert END_TO_END == bench.END_TO_END
    assert PER_LAYER == bench.PER_LAYER
    assert DECLARED["paths"] == ["benchmarks/e2e"]
    for name in [*END_TO_END, *PER_LAYER, *bench.WORKLOAD_NAMES]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    assert sorted(workloads._CLASSES) == sorted(bench.WORKLOAD_NAMES)


def test_every_declared_metric_is_reported_once_with_its_unit(smoke):
    report, _ = smoke
    assert list(report["workloads"]) == list(bench.WORKLOAD_NAMES)
    for result in report["workloads"].values():
        assert {n: c["unit"] for n, c in result["end_to_end"].items()} == END_TO_END
        assert {n: c["unit"] for n, c in result["per_layer"].items()} == PER_LAYER
        assert all(cell["value"] > 0 for cell in result["end_to_end"].values())


@pytest.mark.parametrize("trace, declared", [("0", END_TO_END), ("1", PER_LAYER)])
def test_last_line_is_the_result_object(trace, declared):
    done = _run("--smoke", "--workload", "dataplane", "--seed", "11", "--trace", trace)
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert {n: c["unit"] for n, c in last["metrics"].items()} == declared


def test_layer_shares_sum_to_one(smoke):
    report, _ = smoke
    for workload, result in report["workloads"].items():
        shares = [
            cell["value"]
            for name, cell in result["per_layer"].items()
            if name.endswith(".cpu_share")
        ]
        assert sum(shares) == pytest.approx(1.0, abs=0.01), workload


def test_exact_counters_repeat_across_traced_runs(smoke, tmp_path):
    report, _ = smoke
    again = tmp_path / "again.json"
    _run("--smoke", "--trace", "1", "--json", str(again))
    with open(again, encoding="utf-8") as f:
        second = json.load(f)
    for workload, result in report["workloads"].items():
        for name, cell in result["per_layer"].items():
            if cell["unit"] == "count":
                other = second["workloads"][workload]["per_layer"][name]["value"]
                assert cell["value"] == other, (workload, name)
        assert os.path.getsize(os.path.join(ROOT, result["trace_file"])) > 0


def test_trace_file_holds_spans_with_parents(smoke):
    report, _ = smoke
    path = os.path.join(ROOT, report["workloads"]["dataplane"]["trace_file"])
    with open(path, encoding="utf-8") as f:
        trace = json.load(f)
    events = trace["traceEvents"]
    ids = {e["args"]["span_id"] for e in events}
    assert len(ids) == len(events)
    assert all(e["args"]["parent_id"] in ids | {None} for e in events)
    names = {e["name"] for e in events}
    # workload -> op -> public call -> grafted PhaseProfiler phases
    assert {"dataplane", "dbf-d3", "run_scenario", "convergence"} <= names


def test_corrupted_pin_fails_the_run(tmp_path):
    with open(bench.EXPECTED, encoding="utf-8") as f:
        expected = json.load(f)
    expected["smoke"]["dataplane"]["7"][0] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected), encoding="utf-8")
    out = tmp_path / "report.json"
    done = _run(
        "--smoke", "--workload", "dataplane", "--trace", "0",
        "--expected", str(corrupted), "--json", str(out), check=False,
    )
    assert done.returncode != 0
    assert json.loads(out.read_text(encoding="utf-8"))["ops_failed"] >= 1
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is False


def _cell(values, unit="s"):
    ordered = sorted(values)
    return {
        "value": ordered[len(ordered) // 2], "unit": unit, "n": len(values),
        "min": ordered[0], "max": ordered[-1], "values": list(values),
    }


def _report(wall, failed=0):
    return {"workloads": {"w": {
        "end_to_end": {
            "setup_s": _cell([0.30, 0.31, 0.32]),
            "run_wall_s": _cell(wall),
            "run_cpu_s": _cell(wall),
            "peak_rss_mb": _cell([60.0], "MiB"),
        },
        "attempted_per_pass": [5, 4, 4],
        "failed": failed,
    }}}


def test_compare_verdicts():
    base = _report([1.00, 2.00, 3.00])

    def verdicts(new, sets=False):
        rows = compare.compare(base, new, sets)
        return {row["metric"]: row["verdict"] for row in rows}

    same = verdicts(_report([1.01, 2.02, 2.99]), sets=True)
    assert set(same.values()) == {"ok"}
    slower = verdicts(_report([1.20, 2.40, 3.60]))
    assert slower["run_wall_s"] == "regressed" and slower["setup_s"] == "ok"
    assert verdicts(_report([0.90, 2.40, 3.00]))["run_wall_s"] == "unresolved"
    assert verdicts(_report([0.50, 1.80, 2.90]))["run_wall_s"] == "ok"
    assert verdicts(_report([1.00, 2.00, 3.00], failed=1))["ops_failed"] == "regressed"
    assert verdicts(_report([0.80, 1.60, 2.40]), sets=True)["run_wall_s"] == "disagree"
