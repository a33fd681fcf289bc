"""The shared run core: structural pins and the drift it was built to end.

Every scenario runner is a layout, a driver and a projection of one
:class:`~repro.experiments.scenario.ScenarioRun`.  The structural tests keep
it that way (a hand-built network outside the core is how the extension
runners came to ignore ``validate``/``record_paths``/``prioritize_control``);
the behavioural tests pin what each runner now does with those fields.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

import repro
from repro.experiments.config import ChurnConfig, ExperimentConfig
from repro.experiments.churn import run_churn_scenario
from repro.experiments.extensions import (
    run_multiflow_scenario,
    run_node_failure_scenario,
    run_random_topology_scenario,
    run_repair_scenario,
    run_transport_scenario,
)
from repro.experiments.scenario import ScenarioRun, run_scenario

SRC = Path(repro.__file__).resolve().parent
TINY = ExperimentConfig.quick().with_(
    rows=5, cols=5, degrees=(4,), runs=1, post_fail_window=20.0
)


def _sources():
    return {p.relative_to(SRC).as_posix(): p.read_text() for p in SRC.rglob("*.py")}


class TestOneRunCore:
    def test_simulator_built_in_exactly_two_places(self):
        sites = sorted(
            name
            for name, text in _sources().items()
            if not name.startswith("sim/") and re.search(r"\bSimulator\(\)", text)
        )
        assert sites == ["dist/worker.py", "experiments/scenario.py"]

    def test_network_built_in_exactly_two_places(self):
        sites = sorted(
            name
            for name, text in _sources().items()
            if re.search(r"(?<![\w.])Network\(\s", text)
        )
        assert sites == ["dist/worker.py", "experiments/scenario.py"]

    @pytest.mark.parametrize("cls", ["ScenarioResult", "TopologyEventOutcome"])
    def test_result_folded_in_exactly_one_place(self, cls):
        sites = {
            name: count
            for name, text in _sources().items()
            if (count := len(re.findall(rf"(?<![\w.]){cls}\(", text)))
        }
        assert sites == {"experiments/scenario.py": 1}

    def test_dist_reaches_into_no_observer_privates(self):
        """The merge replays through the observers' public surface only."""
        from repro.metrics.convergence import ConvergenceTracker, NetworkConvergenceWatcher
        from repro.sim.tracing import TraceBus
        from repro.validation.monitors import MonitorSuite

        observers = [
            ConvergenceTracker(TraceBus(), dest=1, src=0),
            NetworkConvergenceWatcher(TraceBus()),
            *MonitorSuite.default_monitors(),
        ]
        private = {
            name
            for obj in observers
            for name in (*dir(type(obj)), *vars(obj))
            if name.startswith("_") and not name.endswith("__")
        }
        offenders = [
            (path.name, node.lineno, node.attr)
            for path in sorted((SRC / "dist").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and node.attr in private
        ]
        assert offenders == []

    def test_build_network_is_gone(self):
        assert not [n for n, text in _sources().items() if "_build_network" in text]

    def test_no_private_imports_from_the_core_module(self):
        pattern = re.compile(
            r"from\s+[\w.]*\bscenario\s+import\s+(\([^)]*\)|[^\n]*)", re.S
        )
        offenders = []
        for name, text in _sources().items():
            if name == "experiments/scenario.py":
                continue
            for match in pattern.finditer(text):
                names = re.findall(r"\b_\w+", match.group(1))
                if names:
                    offenders.append((name, names))
        assert offenders == []


class TestRandomTopologyIsAFullResult:
    """The drift that motivated the core: identical config, emptier result."""

    CONFIG = TINY.with_(validate=True, prioritize_control=True, record_paths=True)

    def test_every_measurement_the_mesh_run_fills_is_filled(self):
        mesh = run_scenario("dbf", 4, 7, self.CONFIG)
        rand = run_random_topology_scenario("dbf", 4, 7, self.CONFIG, n_nodes=20)
        for name in ("reordering", "manet", "loop_report", "throughput", "delay"):
            assert getattr(mesh, name) is not None, name
            assert getattr(rand, name) is not None, name
        # The monitors ran and judged: dbf makes no loop-freedom promise, so
        # an attached suite always reports at least that skip.
        assert rand.violations == ()
        assert rand.monitor_skips and "fib-loop" in rand.monitor_skips
        (event,) = rand.events
        assert event.kind == "fail" and event.time == self.CONFIG.fail_time
        assert event.wave_start is not None and event.wave_end >= event.wave_start

    def test_record_paths_reaches_the_network(self):
        plain = run_random_topology_scenario("dbf", 4, 7, TINY, n_nodes=20)
        assert plain.loop_report is None
        assert plain.reordering is not None and plain.manet is not None


class TestValidateIsNeverSilentlyIgnored:
    """``config.validate`` takes effect or raises — per runner."""

    VALID = TINY.with_(validate=True)

    def test_repair_surfaces_findings(self):
        assert run_repair_scenario("dbf", 4, 3, self.VALID).violations == ()

    def test_node_failure_surfaces_findings(self):
        assert run_node_failure_scenario("dbf", 4, 3, self.VALID).violations == ()

    def test_multiflow_surfaces_findings(self):
        assert run_multiflow_scenario("dbf", 4, 3, self.VALID).violations == ()

    def test_transport_refuses_by_name(self):
        with pytest.raises(ValueError, match="run_transport_scenario.*validate"):
            run_transport_scenario("dbf", 4, 3, self.VALID, total_segments=50)

    @pytest.mark.parametrize(
        "runner",
        [run_repair_scenario, run_node_failure_scenario, run_multiflow_scenario],
    )
    def test_monitors_really_attach(self, runner, monkeypatch):
        """An inverted invariant must be *caught*: green-because-unattached
        is the failure mode this class exists to rule out."""
        from repro.validation import monitors as mon

        monkeypatch.setattr(
            mon.PacketConservationMonitor,
            "finalize",
            lambda self, ctx: self._flag(ctx.sim.now, "planted"),
        )
        result = runner("dbf", 4, 3, self.VALID)
        assert any("planted" in v for v in result.violations)


class TestColdStartIsNeverSilentlyIgnored:
    COLD = TINY.with_(cold_start=True, cold_warmup=60.0)

    def test_extension_clocks_shift_by_the_warmup(self):
        warm = run_random_topology_scenario("dbf", 4, 3, TINY, n_nodes=20)
        cold = run_random_topology_scenario("dbf", 4, 3, self.COLD, n_nodes=20)
        assert cold.events[0].time == warm.events[0].time + 60.0
        # Same flow length; float accumulation from a later start may move
        # the last emission across the stop instant.
        assert abs(cold.sent - warm.sent) <= 1
        repair = run_repair_scenario("dbf", 4, 3, self.COLD)
        assert repair.sent > 0 and repair.back_on_shortest_path

    def test_transport_honours_cold_start(self):
        r = run_transport_scenario("dbf", 4, 3, self.COLD, total_segments=200)
        assert r.stats.completed and r.stats.completed_at > 60.0

    def test_churn_refuses_by_name(self):
        config = self.COLD.with_(churn=ChurnConfig(n_nodes=8))
        with pytest.raises(ValueError, match="run_churn_scenario.*cold_start"):
            run_churn_scenario("dbf", 1, config)


class TestShardsIsNeverSilentlyIgnored:
    """Only ``run_scenario`` hands its run to the sharded runtime; every
    other runner's ``ScenarioRun`` refuses a sharded config by name."""

    SHARDED = TINY.with_(shards=2)

    def test_churn_refuses_by_name(self):
        config = self.SHARDED.with_(churn=ChurnConfig(n_nodes=8))
        with pytest.raises(ValueError, match="churn run dbf d0 s1 .* not 2 shards"):
            run_churn_scenario("dbf", 1, config)

    def test_repair_refuses_by_name(self):
        with pytest.raises(ValueError, match="scenario run dbf d4 s3 .* not 2 shards"):
            run_repair_scenario("dbf", 4, 3, self.SHARDED)


class TestCoreKnobsReachEveryRunner:
    def test_prioritize_control_reaches_the_links(self):
        run = ScenarioRun("dbf", 4, 3, TINY.with_(prioritize_control=True))
        assert all(link.priority_control for link in run.network.iter_links())

    def test_flowless_run_still_folds(self):
        result = ScenarioRun("dbf", 4, 3, TINY, flows=()).execute().to_result()
        assert result.sent == 0 and result.delivered == 0
        assert result.failed_link is not None
