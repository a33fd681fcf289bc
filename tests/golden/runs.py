"""The golden runs: every fixed-seed run whose outcome ``store.json`` pins.

Each :class:`Spec` names a runner, its arguments and its config (as
``ExperimentConfig.to_dict()``).  :func:`run` executes one, :func:`entry`
turns its outcome into the store's form, and :func:`compare` names every
field or stream in which an outcome differs from a stored entry.
``tests/golden/test_golden.py`` reruns every spec against the store;
``scripts/golden.py --because "<cause>"`` is the one way to rewrite it.

A stored entry holds ``result`` (``scenario_to_dict`` of a
:class:`ScenarioResult`, or ``dataclasses.asdict`` of a §6 extension
result), ``manet`` (a ``ScenarioResult``'s MANET triple, which
``scenario_to_dict`` does not persist) and, for a run recorded with a
:class:`FlightRecorder`, ``streams``: ``[count, sha256]`` of each pinned
trace stream's records.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.experiments import (
    ChurnConfig,
    ExperimentConfig,
    ScenarioResult,
    diff_runs,
    run_churn_scenario,
    run_multiflow_scenario,
    run_node_failure_scenario,
    run_random_topology_scenario,
    run_repair_scenario,
    run_scenario,
    scenario_from_dict,
    scenario_to_dict,
    transport_with_baseline,
)
from repro.experiments.config import MATRIX_PROTOCOLS, MOBILITY_MODELS
from repro.net.packet import reset_packet_ids
from repro.obs.flight import FlightRecorder

STORE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "store.json")

#: Small enough to run the full matrix, big enough that the failure forces a
#: real reconvergence.
GOLDEN_CONFIG = ExperimentConfig.quick().with_(
    rows=5, cols=5, runs=1, post_fail_window=30.0, record_paths=True
)

#: (protocol, seed) at degree 4 under ``GOLDEN_CONFIG``: dbf and bgp3 recover
#: fast and clean; rip at seed 11 takes a slow periodic-update recovery
#: (~14.6 s, 162 NO_ROUTE drops, a final path other than the expected one).
GOLDEN_POINTS = (("dbf", 7), ("bgp3", 7), ("rip", 11))

#: OLSR on a moving field, with its whole-run control overhead.
CHURN_CONFIG = ExperimentConfig.quick().with_(
    post_fail_window=45.0,
    churn=ChurnConfig(model="waypoint", n_nodes=16, radio_range=400.0, settle_time=15.0),
)

#: The §6 extension runners' mesh: one degree, one run, a 40 s window.
EXTENSION_CONFIG = ExperimentConfig.quick().with_(
    rows=5, cols=5, degrees=(4,), runs=1, post_fail_window=40.0
)

#: The benchmark's churn field, and a sparser one that partitions: reactive
#: discoveries there time out and retry, and the distance-vector protocols
#: count to infinity.
RADIO_RANGES = (400.0, 250.0)


def stream_config(model: str, radio_range: float) -> ExperimentConfig:
    """The validated 16-node churn run whose message streams are pinned."""
    return ExperimentConfig.quick().with_(
        validate=True,
        post_fail_window=20.0,
        churn=ChurnConfig(model=model, n_nodes=16, radio_range=radio_range),
    )


RUNNERS: dict[str, Callable] = {
    "scenario": run_scenario,
    "churn": run_churn_scenario,
    "multiflow": run_multiflow_scenario,
    "transport": transport_with_baseline,
    "repair": run_repair_scenario,
    "node_failure": run_node_failure_scenario,
    "random_topology": run_random_topology_scenario,
}


@dataclass(frozen=True)
class Spec:
    """One pinned run: ``RUNNERS[runner](*args, config, **kwargs)``."""

    id: str
    runner: str
    args: tuple
    config: dict
    kwargs: dict = field(default_factory=dict)
    #: Trace streams recorded and pinned as ``[count, sha256]``.
    streams: tuple[str, ...] = ()


def _specs() -> list[Spec]:
    specs = [
        Spec(f"scenario-{protocol}-d4-s{seed}", "scenario", (protocol, 4, seed),
             GOLDEN_CONFIG.to_dict())
        for protocol, seed in GOLDEN_POINTS + (("aodv", 7), ("dsr", 7))
    ]
    specs.append(Spec("churn-olsr-waypoint-s7", "churn", ("olsr", 7), CHURN_CONFIG.to_dict()))
    specs += [
        Spec(f"stream-{protocol}-{model}-{radio_range:g}", "churn", (protocol, 7),
             stream_config(model, radio_range).to_dict(), streams=("route", "message"))
        for radio_range in RADIO_RANGES
        for protocol in MATRIX_PROTOCOLS
        for model in MOBILITY_MODELS
    ]
    extensions = [
        ("multiflow", "dbf", {}),
        ("multiflow", "rip", {}),
        ("transport", "rip", {"total_segments": 3000}),
        ("repair", "rip", {}),
        ("repair", "bgp3", {}),
        ("node_failure", "rip", {}),
        ("node_failure", "bgp3", {}),
        ("random_topology", "rip", {"n_nodes": 20}),
        ("random_topology", "bgp3", {"n_nodes": 20}),
    ]
    specs += [
        Spec(f"{runner}-{protocol}", runner, (protocol, 4, 3), EXTENSION_CONFIG.to_dict(),
             kwargs)
        for runner, protocol, kwargs in extensions
    ]
    return specs


SPECS = _specs()


@dataclass
class Outcome:
    """What one spec's run produced: its result and its stream digests."""

    result: Any
    streams: dict[str, list]


def _digest(records: list) -> list:
    text = repr([tuple(record) for record in records])
    return [len(records), hashlib.sha256(text.encode()).hexdigest()]


def run(spec: Spec) -> Outcome:
    """Execute ``spec`` from fresh packet ids, recording its pinned streams."""
    reset_packet_ids()
    config = ExperimentConfig.from_dict(spec.config)
    recorder = FlightRecorder()
    kwargs = {**spec.kwargs, "recorder": recorder} if spec.streams else spec.kwargs
    result = RUNNERS[spec.runner](*spec.args, config, **kwargs)
    return Outcome(result, {kind: _digest(recorder.streams[kind]) for kind in spec.streams})


def _plain(obj: Any) -> Any:
    """``dataclasses.asdict`` in its JSON form (tuples become lists)."""
    return json.loads(json.dumps(dataclasses.asdict(obj)))


def entry(outcome: Outcome) -> dict:
    """The store's entry for ``outcome``."""
    result = outcome.result
    if not isinstance(result, ScenarioResult):
        return {"result": _plain(result)}
    out = {"result": scenario_to_dict(result), "manet": _plain(result.manet)}
    if outcome.streams:
        out["streams"] = outcome.streams
    return out


def _diff_fields(prefix: str, got: dict, pinned: dict) -> list[str]:
    problems = []
    for name in sorted(set(got) | set(pinned)):
        a, b = got.get(name), pinned.get(name)
        if isinstance(a, dict) and isinstance(b, dict):
            problems += _diff_fields(f"{prefix}{name}.", a, b)
        elif a != b:
            problems.append(f"{prefix}{name} ({a!r} vs {b!r})")
    return problems


def compare(outcome: Outcome, stored: dict) -> list[str]:
    """Every way ``outcome`` differs from ``stored``; empty means it matches.

    A field reads ``"name (run vs stored)"``; a stream
    ``"kind stream (n vs m records)"``.
    """
    result = outcome.result
    if not isinstance(result, ScenarioResult):
        return _diff_fields("", _plain(result), stored["result"])
    problems = diff_runs(result, scenario_from_dict(stored["result"]))
    problems += _diff_fields("manet.", _plain(result.manet), stored["manet"])
    pinned_streams = stored.get("streams", {})
    for kind in sorted(set(outcome.streams) | set(pinned_streams)):
        got, pinned = outcome.streams.get(kind, [None]), pinned_streams.get(kind, [None])
        if got != pinned:
            problems.append(f"{kind} stream ({got[0]} vs {pinned[0]} records)")
    return problems


def dumps(store: dict) -> str:
    """The store's one canonical text: one line per key, keys sorted.

    Objects nest one key per line, so a moved field is a one-line diff; any
    other value (a list, a string, a number) stays on its key's line.
    """

    def text(value: Any, depth: int) -> str:
        if not isinstance(value, dict) or not value:
            return json.dumps(value, sort_keys=True)
        pad = "\n" + " " * (depth + 1)
        items = ",".join(
            f"{pad}{json.dumps(key)}: {text(value[key], depth + 1)}" for key in sorted(value)
        )
        return "{" + items + "\n" + " " * depth + "}"

    return text(store, 0) + "\n"


def load_store() -> dict:
    with open(STORE_PATH, encoding="utf-8") as f:
        return json.load(f)
