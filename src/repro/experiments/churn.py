"""Mobility-churn scenarios: the paper's measurement harness on a moving field.

Where :func:`~repro.experiments.scenario.run_scenario` perturbs a static
mesh with a driver-supplied event schedule, this module replaces the mesh
itself: nodes live in a metric space, a mobility model moves them, and the
link schedule falls out of radio range (:class:`~repro.mobility.
MobilityDriver`).  Everything downstream — CBR flow, convergence tracking,
monitors, flight recording, :class:`~repro.experiments.scenario.
ScenarioResult` — is the same harness, so churn runs are directly
comparable to single-failure runs.

The live network is built over the *union* of every link that ever exists
(a network cannot grow links mid-run); links outside the initial
connectivity start down, and protocols are warm-started on the t=0
topology only.
"""

from __future__ import annotations

import random
from typing import Optional

from ..mobility import GaussMarkov, ManhattanGrid, MobilityDriver, RandomWaypoint
from ..mobility.base import MobilityModel
from ..net.dynamics import ScriptedDriver
from ..obs.flight import FlightRecorder
from ..sim.rng import RngStreams
from ..topology.spatial import derive_topology
from .config import ChurnConfig, ExperimentConfig
from .scenario import Layout, ScenarioResult, ScenarioRun

__all__ = ["make_mobility_model", "run_churn_scenario"]


def make_mobility_model(churn: ChurnConfig, rng: random.Random) -> MobilityModel:
    """Instantiate the configured mobility model from one RNG stream."""
    if churn.model == "waypoint":
        return RandomWaypoint(
            churn.n_nodes,
            churn.area,
            speed=(churn.speed_min, churn.speed_max),
            pause=churn.pause,
            rng=rng,
        )
    if churn.model == "gauss-markov":
        return GaussMarkov(
            churn.n_nodes,
            churn.area,
            mean_speed=churn.mean_speed,
            alpha=churn.alpha,
            rng=rng,
        )
    if churn.model == "manhattan":
        return ManhattanGrid(
            churn.n_nodes,
            churn.area,
            blocks=churn.blocks,
            speed=(churn.speed_min, churn.speed_max),
            rng=rng,
        )
    raise ValueError(f"unknown mobility model {churn.model!r}")


def _pick_flow(
    rng: random.Random, schedule, n_nodes: int
) -> tuple[int, int]:
    """Deterministic sender/receiver pair, connected at t=0."""
    pairs = [
        (a, b)
        for a in range(n_nodes)
        for b in range(a + 1, n_nodes)
        if schedule.connected_at_start(a, b)
    ]
    if not pairs:
        raise ValueError(
            "no node pair is connected at t=0; increase radio_range or density"
        )
    return rng.choice(pairs)


def run_churn_scenario(
    protocol: str,
    seed: int,
    config: ExperimentConfig,
    monitors: Optional[object] = None,
    recorder: Optional[FlightRecorder] = None,
    dump_dir: Optional[str] = None,
    live_log=None,
) -> ScenarioResult:
    """Run one mobility-churn experiment; ``config.churn`` must be set.

    Movement starts generating link events at ``config.fail_time`` (the
    field is static during warm-up and steady state, like the paper's
    pre-failure phase) and the run ends at ``config.end_time``.  The result
    reports ``degree=0`` — a spatial field has no fixed mesh degree.

    ``monitors``, ``recorder``, ``dump_dir`` and ``live_log`` behave exactly
    as in :func:`~repro.experiments.scenario.run_scenario`; the live log's
    phases are steady / churn / settle.
    """
    if config.churn is None:
        raise ValueError("run_churn_scenario requires config.churn")
    if config.cold_start:
        raise ValueError(
            "run_churn_scenario requires warm start: the mobility schedule "
            "is built on the warm-start clock (cold_start)"
        )
    churn = config.churn
    rng_streams = RngStreams(seed)
    driver = MobilityDriver(
        make_mobility_model(churn, rng_streams.stream("mobility")),
        radio_range=churn.radio_range,
        step=churn.step,
        start=config.fail_time,
    )
    # Movement (and thus link churn) stops ``settle_time`` seconds early so
    # the final stretch of the run can quiesce for oracle comparison.
    schedule = driver.build(
        max(config.fail_time, config.end_time - churn.settle_time)
    )
    sender, receiver = _pick_flow(
        rng_streams.stream("scenario"), schedule, churn.n_nodes
    )
    initial = derive_topology(
        schedule.initial_positions, churn.radio_range, name="mobility-t0"
    )
    pre_path = initial.shortest_path(sender, receiver)
    assert pre_path is not None, "flow endpoints are t=0 connected"
    layout = Layout(
        schedule.topology, sender, receiver, tuple(pre_path),
        initial_topology=initial, initially_down=tuple(schedule.initially_down),
    )
    run = ScenarioRun(
        protocol, 0, seed, config, layout,
        driver_factory=lambda plan: ScriptedDriver(schedule.events),
        monitors=monitors, recorder=recorder, dump_dir=dump_dir, live_log=live_log,
        kind="churn",
        meta={
            "model": churn.model,
            "n_nodes": churn.n_nodes,
            "radio_range": churn.radio_range,
        },
        # Link restores legitimately leave reactive routes longer than
        # optimal (a working route is never re-discovered), so churn runs
        # check validity/loop-freedom, not exact costs.
        reactive_strict=False,
    )
    return run.execute(("steady", "churn", "settle")).to_result()
